"""Command-line front end.

Five subcommands — ``metrics``, ``bound``, ``shard``, ``lightning``,
``simulate`` — each a thin adapter over the library: every number printed is
the unmodified repr of the corresponding library result, so scripted output
stays stable and exact. Machine-readable output goes to files via explicit
flags (``--out``, ``--curve``, ``--sweep-out``); stdout carries the plain
tables only.

Exit codes: 0 success, 1 usage, 2 input/file error, 3 runtime error (e.g. a
topology that cannot be built, or running out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import MISSING, fields, replace
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
    export_report,
    json_array,
    load_distribution,
    load_payment_graph,
    load_sim_config,
)
from chainmeter.metrics import (
    ConsensusKind,
    central_trust,
    centralization_level,
    cumulative_share_curve,
)
from chainmeter.presets import PRESETS, preset
from chainmeter.scaling import lightning_analysis, shard_analysis
from chainmeter.simnet import SimConfig, SimResult, bound_violation_check, run_simulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this CLI reserves 2 for input errors.
    def error(self, message):
        raise _UsageError(message)


def _cmd_metrics(args) -> int:
    dist = load_distribution(args.distribution)
    table = ["epsilon  n  covered_share"]
    for eps in args.epsilon:
        level = centralization_level(dist, eps)
        table.append(f"{eps!r}  {level.n}  {level.covered_share!r}")
    if args.consensus:
        trust = central_trust(dist, ConsensusKind(args.consensus))
        table.append(f"central trust ({args.consensus}): N = {trust.n}")
    print("\n".join(table))
    if args.curve is not None:
        curve = cumulative_share_curve(dist)
        export_report({"rank": range(1, len(curve) + 1), "cumulative_share": curve}, args.curve, "csv")
        print(f"curve written to {args.curve}", file=sys.stderr)
    return EXIT_OK


def _mib_to_bytes(value: float) -> int:
    """``--block-size-mib`` in bytes, 2**20 to a MiB; a size that is not
    finite, or not a whole number of bytes, is refused."""
    # Scaling by a power of two is exact, so raw is whole exactly when the
    # flag names a whole number of bytes.
    raw = value * 2**20
    if not math.isfinite(raw):
        raise InputError(f"block size must be finite, got {value!r}")
    if not raw.is_integer():
        raise InputError(f"block size {value!r} MiB is not a whole number of bytes")
    return int(raw)


def _given(args, names) -> dict:
    """The flags among ``names`` that were given, keyed by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# The flags of a field that a second unit spells too.
_FLAGS = {"block_size_bytes": "--block-size-bytes/--block-size-mib",
          "bandwidth_bytes_per_s": "--bandwidth-bytes-per-s/--bandwidth-mbps"}


def _params(cls, flags: dict, kind: str):
    """``cls(**flags)``; a field with neither a default nor a flag is a usage error naming its flags."""
    if missing := [_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
                   for f in fields(cls) if f.default is MISSING and f.name not in flags]:
        raise _UsageError(f"without --preset, the {kind} flags go together; missing {', '.join(missing)}")
    return cls(**flags)


def _build_chain_net(args) -> tuple[ChainParams, NetworkParams | None]:
    chain_flags = _given(args, (f.name for f in fields(ChainParams)))
    if args.block_size_mib is not None:
        chain_flags["block_size_bytes"] = _mib_to_bytes(args.block_size_mib)
    net_flags = _given(args, (f.name for f in fields(NetworkParams)))
    if args.bandwidth_mbps is not None:
        # Decimal megabits per second: 10**6 / 8 bytes per second each.
        net_flags["bandwidth_bytes_per_s"] = args.bandwidth_mbps * (1e6 / 8)
    if args.preset:
        chain, net = preset(args.preset)
        return replace(chain, **chain_flags), replace(net, **net_flags)
    return _params(ChainParams, chain_flags, "chain"), _params(NetworkParams, net_flags, "network") if net_flags else None


def _cmd_bound(args) -> int:
    if args.sweep_out is not None and args.sweep is None:
        raise _UsageError("--sweep-out needs --sweep")
    chain, net = _build_chain_net(args)
    if args.sweep is not None:
        if net is None:
            raise _UsageError("--sweep needs network parameters (--latency-s and a bandwidth flag, or a preset)")
        if args.sweep_out is None:
            raise _UsageError("--sweep needs --sweep-out FILE for its CSV")
        try:
            sizes = list(map(int, filter(None, args.sweep.split(","))))
        except ValueError:
            raise _UsageError(f"--sweep wants comma-separated integer block sizes, got {args.sweep!r}") from None
        rates = throughput_sweep(chain, net, sizes)
    # Every line is worked out before the first prints, so a refused one leaves stdout empty.
    table = [f"confirmation latency L: {tx_latency(chain)!r} s",
             f"block capacity: {block_capacity(chain)!r} tx/block",
             f"protocol throughput R: {max_throughput(chain)!r} tx/s"]
    if net is not None:
        table += [f"propagation-limited throughput: {propagation_limited_throughput(chain, net)!r} tx/s",
                  f"bandwidth ceiling w/s: {throughput_upper_bound(net, chain.tx_size_bytes)!r} tx/s"]
    print("\n".join(table))
    if args.sweep is not None:
        export_report({"block_size_bytes": sizes, "tps": rates}, args.sweep_out, "csv")
        print(f"sweep written to {args.sweep_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_shard(args) -> int:
    node_count = args.node_count if args.node_count is not None else args.n
    analysis = shard_analysis(args.t, args.n, node_count, args.k)
    print(f"before: throughput {args.t!r} tx/s, centralization N = {args.n}, CTP {analysis.ctp_before!r}")
    print(
        f"after (k={analysis.k}): throughput {analysis.sharded_tps!r} tx/s, "
        f"centralization N/k = {analysis.sharded_centralization!r}, CTP {analysis.ctp_after!r}"
    )
    return EXIT_OK


def _cmd_lightning(args) -> int:
    graph = load_payment_graph(args.graph)
    analysis = lightning_analysis(args.t, graph, args.relay, args.alpha)
    print(f"clients: {len(graph.clients)}, active: {len(graph.clients)}, payment pairs: {graph.channel_pair_count}")
    print(f"on-chain transactions: direct {analysis.onchain_direct} -> plan {analysis.onchain_plan}")
    print(f"effective throughput: {analysis.effective_tps!r} tx/s")
    print(f"relay centralization N0: {analysis.relay_centralization_n0}")
    print(f"CTP: {analysis.ctp!r}")
    return EXIT_OK


def _parse_seeds(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError(f"--seeds wants A..B, got {text!r}")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"--seeds wants integer bounds, got {text!r}") from None
    if stop < start:
        raise _UsageError(f"--seeds range is empty: {text!r}")
    return range(start, stop + 1)


def _cmd_simulate(args) -> int:
    config = load_sim_config(args.config)
    if overrides := _given(args, ("duration_blocks", "topology_degree", "seed")):
        config = replace(config, **overrides)
    if args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
        # A range's seeds are valid when both ends are: build those configs before anything prints.
        ends = {s: replace(config, seed=s) for s in dict.fromkeys((seeds[0], seeds[-1]))}
    else:
        seeds, ends = [config.seed], {config.seed: config}

    cap = throughput_upper_bound(config.net, config.chain.tx_size_bytes)
    print(f"bandwidth ceiling w/s: {cap!r} tx/s")
    if seeds[0] == seeds[-1]:  # one seed; len() of a range past sys.maxsize raises
        kept: list[SimResult] = []
        violated = _simulate_seed(ends[seeds[0]], kept.append)
        miners, blocks = config.miners, kept[0].per_miner_canonical.weights
        table = ["miner  share  canonical_blocks"]
        table += [f"{m}  {share!r}  {int(b)}" for m, share, b in zip(miners.ids, miners.weights, blocks)]
        print("\n".join(table))
        if args.out is not None:
            export_report(kept[0], args.out, "json")
    else:
        with json_array(args.out) if args.out is not None else contextlib.nullcontext() as keep:
            violated = False
            for s in seeds:
                violated = _simulate_seed(ends.get(s) or replace(config, seed=s), keep) or violated
    if args.out is not None:
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


def _path(text: str) -> str:
    """An output file flag's value; an empty one is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("wants a file name, got ''")
    return text


@functools.cache  # a parse leaves the parser as it was, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainmeter", description="Blockchain decentralization and scalability analysis")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("metrics", help="centralization levels of a producer distribution")
    p.add_argument("distribution", help="CSV file with header producer_id,weight")
    p.add_argument("--epsilon", type=float, nargs="+", default=[0.1], help="one or more epsilon values")
    p.add_argument("--consensus", choices=[k.value for k in ConsensusKind], help="also print the central-trust level")
    p.add_argument("--curve", metavar="FILE", type=_path, help="write the cumulative-share curve CSV here")
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
    p.add_argument("--sweep-out", metavar="FILE", type=_path, help="write the sweep CSV here")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("shard", help="even-sharding throughput/centralization trade")
    p.add_argument("--t", type=float, required=True, help="baseline throughput, tx/s")
    p.add_argument("--n", type=int, required=True, help="baseline centralization level")
    p.add_argument("--k", type=int, required=True, help="shard count")
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
    p.add_argument("--out", metavar="FILE", type=_path, help="write the full result JSON here")
    p.add_argument("--check-bound", action="store_true", help="exit 3 if observed throughput exceeds w/s")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChainmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("error: out of memory: the input or run is too large for this machine", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    raise SystemExit(main())
