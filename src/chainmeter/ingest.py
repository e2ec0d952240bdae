"""File loading, unit conversion, and report export.

Producer distributions and payment graphs travel as CSV (the natural shape of
block-explorer exports); simulator configs and full results travel as JSON.
Unit conversions are exact: MiB is 2**20 bytes, MB is 10**6 bytes, and
decimal megabits per second are 10**6/8 bytes per second. Numbers are written
with full double precision so that load(export(x)) == x.

All functions are reentrant; concurrent writes to one path are the caller's
problem.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

from chainmeter.bounds import ChainParams, NetworkParams
from chainmeter.errors import FormatError, InputError, ParseError, ValidationError
from chainmeter.metrics import ProducerDistribution
from chainmeter.scaling import PaymentGraph
from chainmeter.simnet import SimConfig, validate_config

BLOCK_SIZE_FACTORS = {"bytes": 1, "MiB": 2**20, "MB": 10**6}
BANDWIDTH_FACTORS = {"bytes_per_s": 1.0, "Mbps_decimal": 1e6 / 8}

_CONFIG_KEYS = {"miners", "chain", "net", "units", "topology_degree", "duration_blocks", "seed"}
_CHAIN_KEYS = {"block_size_bytes", "tx_size_bytes", "block_interval_s", "confirmations"}
_NET_KEYS = {"bandwidth_bytes_per_s", "latency_s"}


@dataclass(frozen=True)
class UnitSpec:
    """How the raw numbers in a config file are to be read."""

    block_size_unit: str = "bytes"
    bandwidth_unit: str = "bytes_per_s"

    def __post_init__(self):
        if self.block_size_unit not in BLOCK_SIZE_FACTORS:
            raise InputError(
                f"block_size_unit must be one of {sorted(BLOCK_SIZE_FACTORS)}, got {self.block_size_unit!r}"
            )
        if self.bandwidth_unit not in BANDWIDTH_FACTORS:
            raise InputError(
                f"bandwidth_unit must be one of {sorted(BANDWIDTH_FACTORS)}, got {self.bandwidth_unit!r}"
            )

    def block_size_to_bytes(self, value: float) -> int:
        raw = value * BLOCK_SIZE_FACTORS[self.block_size_unit]
        if not math.isfinite(raw):
            raise InputError(f"block size must be finite, got {value!r}")
        if abs(raw - round(raw)) > 1e-6:
            raise InputError(f"block size {value!r} {self.block_size_unit} is not a whole number of bytes")
        return int(round(raw))

    def bandwidth_to_bytes_per_s(self, value: float) -> float:
        return value * BANDWIDTH_FACTORS[self.bandwidth_unit]


def _read_rows(path: str, expected_header: list[str]):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise ParseError(f"{path}:1: expected header {','.join(expected_header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{path}:{lineno}: expected {len(expected_header)} columns, got {len(row)}")
            yield lineno, [cell.strip() for cell in row]


def load_distribution(path: str) -> ProducerDistribution:
    """Read a ``producer_id,weight`` CSV into a validated distribution."""
    entries: list[tuple[str, float]] = []
    seen: set[str] = set()
    for lineno, (pid, raw_weight) in _read_rows(path, ["producer_id", "weight"]):
        if pid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate producer_id {pid!r}")
        seen.add(pid)
        try:
            weight = float(raw_weight)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: weight is not numeric: {raw_weight!r}") from None
        if not math.isfinite(weight) or weight < 0:
            raise ParseError(f"{path}:{lineno}: weight must be finite and >= 0, got {raw_weight!r}")
        entries.append((pid, weight))
    if not entries:
        raise ParseError(f"{path}: no data rows")
    if sum(w for _, w in entries) <= 0:
        raise ParseError(f"{path}: total weight is zero")
    return ProducerDistribution(tuple(entries))


def load_payment_graph(path: str) -> PaymentGraph:
    """Read a ``from,to,count`` CSV into a payment graph; clients are the
    union of all endpoints."""
    payments: list[tuple[str, str, int]] = []
    for lineno, (src, dst, raw_count) in _read_rows(path, ["from", "to", "count"]):
        try:
            count = int(raw_count)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: count is not an integer: {raw_count!r}") from None
        if count < 1:
            raise ParseError(f"{path}:{lineno}: count must be >= 1, got {count}")
        if src == dst:
            raise ParseError(f"{path}:{lineno}: payment from {src!r} to itself")
        payments.append((src, dst, count))
    if not payments:
        raise ParseError(f"{path}: no data rows")
    clients = frozenset(c for a, b, _ in payments for c in (a, b))
    return PaymentGraph(clients=clients, payments=tuple(payments))


def load_sim_config(path: str) -> SimConfig:
    """Read a simulator config JSON, apply units, and validate everything.

    Field names mirror the in-memory records (miners, chain, net,
    topology_degree, duration_blocks, seed); an optional ``units`` object says
    how block size and bandwidth are denominated. Defaults: topology_degree 8,
    seed 0, confirmations 6, raw byte units. All violations are reported at
    once. A single-miner config gets its share normalized to 1.0.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None

    problems: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")

    try:
        units = UnitSpec(**data.get("units", {}))
    except (InputError, TypeError) as exc:
        problems.append(f"units: {exc}")
        units = UnitSpec()

    chain = None
    raw_chain = data.get("chain")
    if not isinstance(raw_chain, dict):
        problems.append("chain: required object is missing")
    elif set(raw_chain) - _CHAIN_KEYS:
        problems.append(f"chain: unknown keys {sorted(set(raw_chain) - _CHAIN_KEYS)}")
    else:
        try:
            chain = ChainParams(
                block_size_bytes=units.block_size_to_bytes(float(raw_chain["block_size_bytes"])),
                tx_size_bytes=float(raw_chain["tx_size_bytes"]),
                block_interval_s=float(raw_chain["block_interval_s"]),
                confirmations=int(raw_chain.get("confirmations", 6)),
            )
        except (InputError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"chain: {exc!r}")

    net = None
    raw_net = data.get("net")
    if not isinstance(raw_net, dict):
        problems.append("net: required object is missing")
    elif set(raw_net) - _NET_KEYS:
        problems.append(f"net: unknown keys {sorted(set(raw_net) - _NET_KEYS)}")
    else:
        try:
            net = NetworkParams(
                bandwidth_bytes_per_s=units.bandwidth_to_bytes_per_s(float(raw_net["bandwidth_bytes_per_s"])),
                latency_s=float(raw_net["latency_s"]),
            )
        except (InputError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"net: {exc!r}")

    miners: list[tuple[str, float]] = []
    raw_miners = data.get("miners")
    if not isinstance(raw_miners, list) or not raw_miners:
        problems.append("miners: required non-empty list is missing")
    else:
        for idx, raw in enumerate(raw_miners):
            if (
                not isinstance(raw, dict)
                or set(raw) != {"miner_id", "hash_power_share"}
            ):
                problems.append(
                    f"miners[{idx}]: expected an object with miner_id and hash_power_share"
                )
                continue
            try:
                miners.append((str(raw["miner_id"]), float(raw["hash_power_share"])))
            except (TypeError, ValueError):
                problems.append(f"miners[{idx}]: hash_power_share is not numeric")
        if len(miners) == 1 and miners[0][1] > 0:
            miners = [(miners[0][0], 1.0)]

    if chain is not None and net is not None and miners:
        try:
            config = SimConfig(
                miners=tuple(miners),
                chain=chain,
                net=net,
                duration_blocks=int(data.get("duration_blocks", 0)),
                topology_degree=int(data.get("topology_degree", 8)),
                seed=int(data.get("seed", 0)),
            )
        except (TypeError, ValueError) as exc:
            problems.append(f"config: {exc!r}")
        else:
            problems.extend(validate_config(config))
            if not problems:
                return config
    raise ValidationError(f"{path}: " + "; ".join(problems))


def to_jsonable(obj: Any) -> Any:
    """Recursively turn dataclasses, enums, and containers into JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


def _csv_rows(report: Any, columns: tuple[str, ...] | None):
    if isinstance(report, ProducerDistribution):
        return columns or ("producer_id", "weight"), list(report.entries)
    if isinstance(report, (list, tuple)) and report and all(
        isinstance(row, (list, tuple)) and len(row) == len(report[0]) for row in report
    ):
        width = len(report[0])
        header = columns or tuple(f"col{i + 1}" for i in range(width))
        if len(header) != width:
            raise FormatError(f"got {len(header)} column names for {width}-column rows")
        return header, [tuple(row) for row in report]
    raise FormatError(
        f"cannot flatten {type(report).__name__} to CSV; export it as json instead"
    )


def export_report(report: Any, path: str, format: str, columns: tuple[str, ...] | None = None) -> None:
    """Write an analysis or result to ``path`` as ``json`` or ``csv``.

    JSON takes any report and nests it fully. CSV takes flat tables only:
    distributions (``producer_id,weight``) and row sequences such as
    cumulative-share curves or throughput sweeps, with ``columns`` naming the
    header cells.
    """
    try:
        if format == "json":
            if isinstance(report, SimConfig):
                payload = _config_payload(report)
            else:
                payload = to_jsonable(report)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        elif format == "csv":
            header, rows = _csv_rows(report, columns)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        else:
            raise FormatError(f"unknown export format {format!r}; use 'json' or 'csv'")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _config_payload(config: SimConfig) -> dict:
    """Config as loadable JSON, in resolved raw units (bytes, bytes/s)."""
    return {
        "miners": [
            {"miner_id": m, "hash_power_share": s} for m, s in config.miners
        ],
        "chain": to_jsonable(config.chain),
        "net": to_jsonable(config.net),
        "topology_degree": config.topology_degree,
        "duration_blocks": config.duration_blocks,
        "seed": config.seed,
    }
