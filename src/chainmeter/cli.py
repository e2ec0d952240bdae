"""Command-line front end.

Five subcommands — ``metrics``, ``bound``, ``shard``, ``lightning``,
``simulate`` — each a thin adapter over the library: every number printed is
the unmodified repr of the corresponding library result, so scripted output
stays stable and exact. Machine-readable output goes to files via explicit
flags (``--out``, ``--curve``, ``--sweep-out``); stdout carries the plain
tables only.

Exit codes: 0 success, 1 usage, 2 input/file error, 3 runtime error (e.g. a
topology that cannot be built). Set ``CHAINMETER_NO_COLOR`` to disable the
bold table headers emitted on terminals.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable

from chainmeter.bounds import (
    ChainParams,
    NetworkParams,
    block_capacity,
    max_throughput,
    propagation_limited_throughput,
    throughput_sweep,
    throughput_upper_bound,
    tx_latency,
)
from chainmeter.errors import ChainmeterError, InputError
from chainmeter.ingest import (
    JsonArrayWriter,
    UnitSpec,
    export_report,
    load_distribution,
    load_payment_graph,
    load_sim_config,
)
from chainmeter.metrics import (
    CentralizationLevel,
    ConsensusKind,
    central_trust,
    centralization_level,
    cumulative_share_curve,
)
from chainmeter.presets import PRESETS, preset
from chainmeter.scaling import BaselineChain, RelayPlan, lightning_analysis, shard_analysis
from chainmeter.simnet import SimConfig, SimResult, bound_violation_check, run_simulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class CommandOutcome:
    """Exit code plus everything the command printed to stdout."""

    exit_code: int
    stdout_report: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this CLI reserves 2 for input errors.
    def error(self, message):
        raise _UsageError(message)


def _bold(text: str) -> str:
    if os.environ.get("CHAINMETER_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def _cmd_metrics(args) -> int:
    dist = load_distribution(args.distribution)
    print(_bold("epsilon  n  covered_share"))
    for eps in args.epsilon:
        level = centralization_level(dist, eps)
        print(f"{eps!r}  {level.n}  {level.covered_share!r}")
    if args.consensus:
        trust = central_trust(dist, ConsensusKind(args.consensus))
        print(f"central trust ({args.consensus}): N = {trust.n}")
    if args.curve:
        export_report(
            cumulative_share_curve(dist), args.curve, "csv",
            columns=("rank", "cumulative_share"),
        )
        print(f"curve written to {args.curve}", file=sys.stderr)
    return EXIT_OK


# Block-size and bandwidth flags are read in the config file's units.
_FLAG_UNITS = UnitSpec(block_size_unit="MiB", bandwidth_unit="Mbps_decimal")


def _given(args, names) -> dict:
    """The flags among ``names`` that were given, keyed by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _construct(cls, flags: dict):
    """``cls(**flags)``, or None when a field has no flag."""
    try:
        return cls(**flags)
    except TypeError:
        return None


def _build_chain_net(args) -> tuple[ChainParams, NetworkParams | None]:
    chain_flags = _given(args, (f.name for f in fields(ChainParams)))
    if args.block_size_mib is not None:
        chain_flags["block_size_bytes"] = _FLAG_UNITS.block_size_to_bytes(args.block_size_mib)
    net_flags = _given(args, (f.name for f in fields(NetworkParams)))
    if args.bandwidth_mbps is not None:
        net_flags["bandwidth_bytes_per_s"] = _FLAG_UNITS.bandwidth_to_bytes_per_s(args.bandwidth_mbps)
    if args.preset:
        chain, net = preset(args.preset)
        return replace(chain, **chain_flags), replace(net, **net_flags)
    chain = _construct(ChainParams, chain_flags)
    if chain is None:
        raise _UsageError(
            "without --preset, --block-size-bytes/--block-size-mib, "
            "--tx-size-bytes and --block-interval-s are required"
        )
    return chain, _construct(NetworkParams, net_flags)


def _cmd_bound(args) -> int:
    chain, net = _build_chain_net(args)
    print(f"confirmation latency L: {tx_latency(chain)!r} s")
    print(f"block capacity: {block_capacity(chain)!r} tx/block")
    print(f"protocol throughput R: {max_throughput(chain)!r} tx/s")
    if net is not None:
        print(f"propagation-limited throughput: {propagation_limited_throughput(chain, net)!r} tx/s")
        print(f"bandwidth ceiling w/s: {throughput_upper_bound(net, chain.tx_size_bytes)!r} tx/s")
    if args.sweep:
        if net is None:
            raise _UsageError("--sweep needs network parameters (--latency-s and a bandwidth flag, or a preset)")
        if not args.sweep_out:
            raise _UsageError("--sweep needs --sweep-out FILE for its CSV")
        try:
            sizes = [int(s) for s in args.sweep.split(",") if s]
        except ValueError:
            raise _UsageError(f"--sweep wants comma-separated integer block sizes, got {args.sweep!r}") from None
        table = throughput_sweep(chain, net, sizes)
        export_report(table, args.sweep_out, "csv", columns=("block_size_bytes", "tps"))
        print(f"sweep written to {args.sweep_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_shard(args) -> int:
    base = BaselineChain(
        throughput_tps=args.t,
        centralization=CentralizationLevel(n=args.n, epsilon=args.epsilon),
        node_count=args.node_count if args.node_count is not None else args.n,
    )
    analysis = shard_analysis(base, args.k)
    print(f"before: throughput {base.throughput_tps!r} tx/s, centralization N = {base.centralization.n}, CTP {analysis.ctp_before!r}")
    print(
        f"after (k={analysis.k}): throughput {analysis.sharded_tps!r} tx/s, "
        f"centralization N/k = {analysis.sharded_centralization!r}, CTP {analysis.ctp_after!r}"
    )
    return EXIT_OK


def _cmd_lightning(args) -> int:
    graph = load_payment_graph(args.graph)
    plan = RelayPlan.single_relay(args.relay) if args.relay else RelayPlan.direct()
    base = BaselineChain(
        throughput_tps=args.t,
        centralization=CentralizationLevel(n=len(graph.clients), epsilon=0.0),
        node_count=len(graph.clients),
    )
    analysis = lightning_analysis(base, graph, plan, args.alpha)
    print(f"clients: {len(graph.clients)}, active: {len(graph.active_clients())}, payment pairs: {len(graph.channel_pairs())}")
    print(f"on-chain transactions: direct {analysis.onchain_direct} -> plan {analysis.onchain_plan}")
    print(f"effective throughput: {analysis.effective_tps!r} tx/s")
    print(f"relay centralization N0: {analysis.relay_centralization_n0}")
    print(f"CTP: {analysis.ctp!r}")
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError(f"--seeds wants A..B, got {text!r}")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"--seeds wants integer bounds, got {text!r}") from None
    if stop < start:
        raise _UsageError(f"--seeds range is empty: {text!r}")
    return list(range(start, stop + 1))


def _cmd_simulate(args) -> int:
    config = replace(load_sim_config(args.config), **_given(args, ("duration_blocks", "topology_degree", "seed")))
    seeds = _parse_seeds(args.seeds) if args.seeds else [config.seed]

    cap = throughput_upper_bound(config.net, config.chain.tx_size_bytes)
    print(f"bandwidth ceiling w/s: {cap!r} tx/s")
    if len(seeds) == 1:
        kept: list[SimResult] = []
        violated = _simulate_seed(replace(config, seed=seeds[0]), kept.append)
        print(_bold("miner  share  canonical_blocks"))
        shares = dict(config.miners)
        for miner_id, blocks in kept[0].per_miner_canonical.entries:
            print(f"{miner_id}  {shares[miner_id]!r}  {int(blocks)}")
        if args.out:
            export_report(kept[0], args.out, "json")
    else:
        with JsonArrayWriter(args.out) if args.out else contextlib.nullcontext() as array:
            keep = array.add if array else None
            violated = False
            for s in seeds:
                violated = _simulate_seed(replace(config, seed=s), keep) or violated
    if args.out:
        print(f"result written to {args.out}", file=sys.stderr)
    if args.check_bound and violated:
        print("error: observed throughput exceeded the w/s ceiling", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _simulate_seed(config: SimConfig, keep: Callable[[SimResult], None] | None) -> bool:
    """Run ``config``, print its summary line, and pass the result to
    ``keep``. Returns whether the run exceeded the w/s ceiling. The result
    is not returned, so a seed sweep holds no earlier result while the next
    seed runs."""
    result = run_simulation(config)
    check = bound_violation_check(result, config.net, config.chain)
    print(
        f"seed {config.seed}: observed_tps {result.observed_tps!r}, stale_rate {result.stale_rate!r}, "
        f"canonical {len(result.canonical_chain) - 1}/{config.duration_blocks}, "
        f"confirmation latency {result.mean_confirmation_latency_s!r} s",
        flush=True,
    )
    if keep is not None:
        keep(result)
    return check.violated


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainmeter", description="Blockchain decentralization and scalability analysis")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("metrics", help="centralization levels of a producer distribution")
    p.add_argument("distribution", help="CSV file with header producer_id,weight")
    p.add_argument("--epsilon", type=float, nargs="+", default=[0.1], help="one or more epsilon values")
    p.add_argument("--consensus", choices=[k.value for k in ConsensusKind], help="also print the central-trust level")
    p.add_argument("--curve", metavar="FILE", help="write the cumulative-share curve CSV here")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bound", help="latency, throughput, and the bandwidth ceiling")
    p.add_argument("--preset", choices=sorted(PRESETS), help="start from a named parameter set")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--block-size-bytes", type=int)
    size.add_argument("--block-size-mib", type=float, help="block size in MiB; must be a whole number of bytes")
    p.add_argument("--tx-size-bytes", type=float)
    p.add_argument("--block-interval-s", type=float)
    p.add_argument("--confirmations", type=int)
    p.add_argument("--latency-s", type=float)
    bandwidth = p.add_mutually_exclusive_group()
    bandwidth.add_argument("--bandwidth-mbps", type=float, help="access bandwidth in decimal megabits per second")
    bandwidth.add_argument("--bandwidth-bytes-per-s", type=float)
    p.add_argument("--sweep", metavar="B1,B2,...", help="evaluate these block sizes")
    p.add_argument("--sweep-out", metavar="FILE", help="write the sweep CSV here")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("shard", help="even-sharding throughput/centralization trade")
    p.add_argument("--t", type=float, required=True, help="baseline throughput, tx/s")
    p.add_argument("--n", type=int, required=True, help="baseline centralization level")
    p.add_argument("--k", type=int, required=True, help="shard count")
    p.add_argument("--epsilon", type=float, default=0.0, help="epsilon the level was measured at")
    p.add_argument("--node-count", type=int, help="total nodes (defaults to --n)")
    p.set_defaults(func=_cmd_shard)

    p = sub.add_parser("lightning", help="payment-channel batching and relay analysis")
    p.add_argument("graph", help="CSV file with header from,to,count")
    p.add_argument("--t", type=float, required=True, help="baseline throughput, tx/s")
    p.add_argument("--alpha", type=float, required=True, help="off-chain batching factor (>= 1)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--direct", action="store_true", help="one channel per payment pair")
    mode.add_argument("--relay", metavar="RELAY_ID", help="route everything through this relay")
    p.set_defaults(func=_cmd_lightning)

    p = sub.add_parser("simulate", help="run the mining + gossip simulator")
    p.add_argument("config", help="JSON config file")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, help="override the config seed")
    seed.add_argument("--seeds", metavar="A..B", help="run one simulation per seed in the range")
    p.add_argument("--duration-blocks", type=int)
    p.add_argument("--topology-degree", type=int)
    p.add_argument("--out", metavar="FILE", help="write the full result JSON here")
    p.add_argument("--check-bound", action="store_true", help="exit 3 if observed throughput exceeds w/s")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChainmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run(argv: list[str]) -> CommandOutcome:
    """Run a command and capture its stdout (stderr passes through)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return CommandOutcome(exit_code=code, stdout_report=buffer.getvalue())


def entrypoint() -> None:
    raise SystemExit(main())
