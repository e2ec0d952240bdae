"""Benchmark workloads: seeded input generators, the CLI commands one pass
runs, and the output checks applied after every pass.

Each generator writes its inputs (JSON configs, CSVs) into a directory and
returns a :class:`Plan`. The program sees only those files and the argv of
each command. The generators use no chainmeter code, and the oracles are
plain Python, so a check that passes is evidence about the program, not a
restatement of it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

# The bitcoin preset's numbers, written into the configs so the program reads
# them from its input files rather than from its own preset table.
BITCOIN_CHAIN = {
    "block_size_bytes": 1_048_576,
    "tx_size_bytes": 513.86,
    "block_interval_s": 600.0,
    "confirmations": 6,
}
BITCOIN_NET = {"bandwidth_bytes_per_s": 712_500.0, "latency_s": 0.1}

# Centralization levels are compared with this slack in the program; the
# oracle applies the same documented rule.
COVERAGE_TOLERANCE = 1e-9

EPSILONS = ("0.01", "0.1", repr(1 / 3), "0.49")
NAKAMOTO_EPSILON = 0.49
RELAY_ID = "c00000"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv, an oracle check of its stdout that
    returns a list of problems (empty when fine), and the files it writes."""

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Plan:
    """Everything one workload pass runs. ``items`` is the work unit count of
    one pass: blocks mined (stale included) for simulations, CSV data rows
    read for the analysis commands."""

    commands: tuple[Command, ...]
    items: int
    sizes: dict

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(path for cmd in self.commands for path in cmd.outputs)


def _write_config(path, shares, chain, degree, blocks, seed):
    config = {
        "miners": [{"miner_id": f"m{i:04d}", "hash_power_share": s} for i, s in enumerate(shares)],
        "chain": chain,
        "net": BITCOIN_NET,
        "topology_degree": degree,
        "duration_blocks": blocks,
        "seed": seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


def _tiered_shares(miners: int) -> list[float]:
    """2018 Bitcoin skew: 4 pools hold 53%, the top 16 hold 90%."""
    small = miners - 16
    return [0.53 / 4] * 4 + [0.37 / 12] * 12 + [0.10 / small] * small


def _check_simulate(seeds: list[int], blocks: int, miners: int) -> Callable[[str], list[str]]:
    """Every seed gets a line with a plausible canonical count; a single-seed
    run also prints a per-miner table that sums to that count."""

    def check(stdout: str) -> list[str]:
        lines = stdout.splitlines()
        seed_lines = [line for line in lines if line.startswith("seed ")]
        got = [line.split(":", 1)[0] for line in seed_lines]
        if got != [f"seed {s}" for s in seeds]:
            return [f"simulate printed seed lines {got}, expected seeds {seeds}"]
        problems = []
        canonical = []
        for line in seed_lines:
            count, _, total = line.split("canonical ", 1)[1].split(",", 1)[0].partition("/")
            canonical.append(int(count))
            if int(total) != blocks or not 1 <= int(count) <= blocks:
                problems.append(f"implausible canonical count in {line!r}")
        if len(seeds) == 1:
            try:
                table = lines[lines.index("miner  share  canonical_blocks") + 1:]
            except ValueError:
                table = []
            if len(table) != miners or sum(int(row.split()[-1]) for row in table) != canonical[0]:
                problems.append("per-miner table does not add up to the canonical count")
        return problems

    return check


def sim_sweep(seed: int, directory: str, miners=200, blocks=150, seeds=4) -> Plan:
    """Fork-heavy multi-seed simulation: tiered miners and a 10 s interval
    against a ~1.6 s hop, about 28% stale."""
    path = os.path.join(directory, "sweep.json")
    _write_config(path, _tiered_shares(miners), dict(BITCOIN_CHAIN, block_interval_s=10.0), 8, blocks, seed)
    run_seeds = list(range(seed, seed + seeds))
    argv = ("simulate", path, "--seeds", f"{run_seeds[0]}..{run_seeds[-1]}", "--check-bound")
    return Plan(
        (Command(argv, _check_simulate(run_seeds, blocks, miners)),),
        items=blocks * seeds,
        sizes={"miners": miners, "blocks_per_seed": blocks, "seeds": seeds, "degree": 8},
    )


def sim_wide(seed: int, directory: str, miners=1000, blocks=120) -> Plan:
    """Many equal miners, few blocks: per-node cost outweighs per-block cost."""
    path = os.path.join(directory, "wide.json")
    _write_config(path, [1.0 / miners] * miners, BITCOIN_CHAIN, 8, blocks, seed)
    return Plan(
        (Command(("simulate", path, "--check-bound"), _check_simulate([seed], blocks, miners)),),
        items=blocks,
        sizes={"miners": miners, "blocks": blocks, "degree": 8},
    )


def sim_export(seed: int, directory: str, blocks=20_000) -> Plan:
    """Two miners on one link, many blocks, full JSON export."""
    path = os.path.join(directory, "export.json")
    out = os.path.join(directory, "export-result.json")
    _write_config(path, [0.5, 0.5], BITCOIN_CHAIN, 1, blocks, seed)
    return Plan(
        (Command(("simulate", path, "--out", out, "--check-bound"), _check_simulate([seed], blocks, 2), (out,)),),
        items=blocks,
        sizes={"miners": 2, "blocks": blocks, "degree": 1},
    )


def _oracle_levels(weights: list[int], epsilons: list[float]) -> dict[float, tuple[int, float]]:
    """Centralization level and covered share by plain-Python prefix sums.

    Weights are integers, so every prefix sum is exact and the covered share
    is one correctly rounded division, as in the program.
    """
    prefix = list(itertools.accumulate(sorted(weights, reverse=True)))
    shares = [p / prefix[-1] for p in prefix]
    levels = {}
    for eps in epsilons:
        n = min(bisect_left(shares, (1.0 - eps) - COVERAGE_TOLERANCE) + 1, len(shares))
        levels[eps] = (n, shares[n - 1])
    return levels


def _check_metrics(levels: dict[float, tuple[int, float]]) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        expected = [f"{eps!r}  {levels[eps][0]}  {levels[eps][1]!r}" for eps in map(float, EPSILONS)]
        lines = stdout.splitlines()
        problems = []
        if lines[1:1 + len(expected)] != expected:
            problems.append(f"metrics levels {lines[1:1 + len(expected)]} differ from the oracle {expected}")
        trust = f"central trust (nakamoto): N = {levels[NAKAMOTO_EPSILON][0]}"
        if trust not in lines:
            problems.append(f"missing {trust!r}")
        return problems

    return check


def _check_lightning(payments: list[tuple[int, int]]) -> Callable[[str], list[str]]:
    clients = {c for pair in payments for c in pair}
    pairs = {(min(a, b), max(a, b)) for a, b in payments}
    relay_active = int(RELAY_ID[1:]) in clients
    expected = [
        f"clients: {len(clients)}, active: {len(clients)}, payment pairs: {len(pairs)}",
        f"on-chain transactions: direct {2 * len(pairs)} -> plan {2 * (len(clients) - relay_active)}",
    ]

    def check(stdout: str) -> list[str]:
        got = stdout.splitlines()[:2]
        return [] if got == expected else [f"lightning printed {got}, the oracle expects {expected}"]

    return check


def _check_bound(points: int, sweep_out: str) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        problems = []
        if not stdout.startswith("confirmation latency L: 3600.0 s\n"):
            problems.append("bound did not print the bitcoin preset latency")
        with open(sweep_out, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh)
        if rows != points + 1:
            problems.append(f"sweep CSV has {rows} lines, expected {points + 1}")
        return problems

    return check


def analysis(seed: int, directory: str, producers=25_000, payments=25_000, clients=2_500, sweep_points=12_500) -> Plan:
    """The three analysis commands on generated CSVs: metrics, lightning, bound."""
    rng = random.Random(f"analysis/{seed}")
    dist = os.path.join(directory, "producers.csv")
    graph = os.path.join(directory, "payments.csv")
    curve = os.path.join(directory, "curve.csv")
    sweep_out = os.path.join(directory, "sweep.csv")

    # Integer Pareto block counts: heavy-tailed like real producer sets, and
    # exact under summation so the oracle can match the program bit for bit.
    weights = [min(int(100 * rng.paretovariate(1.16)), 10**9) for _ in range(producers)]
    with open(dist, "w", encoding="utf-8") as fh:
        fh.write("producer_id,weight\n")
        fh.writelines(f"p{i:06d},{w}\n" for i, w in enumerate(weights))

    edges = []
    for _ in range(payments):
        a = rng.randrange(clients)
        b = rng.randrange(clients - 1)
        edges.append((a, b + (b >= a)))
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write("from,to,count\n")
        fh.writelines(f"c{a:05d},c{b:05d},{rng.randint(1, 5)}\n" for a, b in edges)

    sizes = ",".join(str(rng.randrange(1_000, 8 * 2**20)) for _ in range(sweep_points))
    levels = _oracle_levels(weights, [float(e) for e in EPSILONS] + [NAKAMOTO_EPSILON])
    commands = (
        Command(
            ("metrics", dist, "--epsilon", *EPSILONS, "--consensus", "nakamoto", "--curve", curve),
            _check_metrics(levels),
            (curve,),
        ),
        Command(("lightning", graph, "--t", "7.0", "--alpha", "100", "--relay", RELAY_ID), _check_lightning(edges)),
        Command(
            ("bound", "--preset", "bitcoin", "--sweep", sizes, "--sweep-out", sweep_out),
            _check_bound(sweep_points, sweep_out),
            (sweep_out,),
        ),
    )
    return Plan(
        commands,
        items=producers + payments,
        sizes={"producers": producers, "payments": payments, "clients": clients, "sweep_points": sweep_points},
    )


WORKLOADS: dict[str, Callable[..., Plan]] = {
    "sim-sweep": sim_sweep,
    "sim-wide": sim_wide,
    "sim-export": sim_export,
    "analysis": analysis,
}

# Inputs small enough for a warm-up pass and the self-test; at seed 0 their
# outputs are pinned in pinned.json.
TINY: dict[str, dict] = {
    "sim-sweep": {"miners": 40, "blocks": 60, "seeds": 2},
    "sim-wide": {"miners": 60, "blocks": 40},
    "sim-export": {"blocks": 300},
    "analysis": {"producers": 300, "payments": 300, "clients": 40, "sweep_points": 50},
}
