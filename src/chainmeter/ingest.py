"""File loading, unit conversion, and report export.

Producer distributions and payment graphs travel as CSV (the natural shape of
block-explorer exports); simulator configs and full results travel as JSON.
The loaders only parse: the types they build validate their own values, and
a loader adds where a rejected value came from (the file, and for a CSV row
the line). Unit conversions are exact: MiB is 2**20 bytes, MB is 10**6
bytes, and decimal megabits per second are 10**6/8 bytes per second. Numbers
are written with full double precision so that load(export(x)) == x.

JSON exports are byte-identical to ``json.dump(to_jsonable(x), fh, indent=2)``
followed by a newline, as the running interpreter's ``json`` writes them. They
are streamed: long tables are converted and encoded a chunk of records at a
time, and ``JsonArrayWriter`` writes an array one item at a time. A JSON
export goes to a sibling temporary file that replaces the target only once it
is complete, so a failed export never leaves a half-written file.

All functions are reentrant; concurrent writes to one path are the caller's
problem.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from chainmeter.bounds import ChainParams, NetworkParams
from chainmeter.errors import FormatError, InputError, ParseError, ValidationError
from chainmeter.metrics import ProducerDistribution
from chainmeter.scaling import PaymentGraph
from chainmeter.simnet import SimConfig, validate_config

BLOCK_SIZE_FACTORS = {"bytes": 1, "MiB": 2**20, "MB": 10**6}
BANDWIDTH_FACTORS = {"bytes_per_s": 1.0, "Mbps_decimal": 1e6 / 8}

_CONFIG_KEYS = {"miners", "chain", "net", "units", "topology_degree", "duration_blocks", "seed"}


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


def _validated(path: str, expected_header: list[str], build):
    """``build()``, with an ``InputError`` from the type it builds re-raised as
    a ``ParseError`` naming ``path``, and the line of the entry the type names.
    The file is read again to find that line, so the happy path keeps no
    per-row line numbers."""
    try:
        return build()
    except InputError as exc:
        where = path
        if exc.index is not None:
            lineno, _ = next(itertools.islice(_read_rows(path, expected_header), exc.index, None))
            where = f"{path}:{lineno}"
        raise ParseError(f"{where}: {exc}") from None


def load_distribution(path: str) -> ProducerDistribution:
    """Read a ``producer_id,weight`` CSV into a validated distribution."""
    header = ["producer_id", "weight"]
    entries: list[tuple[str, float]] = []
    for lineno, (pid, raw_weight) in _read_rows(path, header):
        try:
            entries.append((pid, float(raw_weight)))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: weight is not numeric: {raw_weight!r}") from None
    return _validated(path, header, lambda: ProducerDistribution(tuple(entries)))


def load_payment_graph(path: str) -> PaymentGraph:
    """Read a ``from,to,count`` CSV into a payment graph; clients are the
    union of all endpoints."""
    header = ["from", "to", "count"]
    payments: list[tuple[str, str, int]] = []
    for lineno, (src, dst, raw_count) in _read_rows(path, header):
        try:
            payments.append((src, dst, int(raw_count)))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: count is not an integer: {raw_count!r}") from None
    if not payments:
        raise ParseError(f"{path}: no data rows")
    clients = frozenset(c for a, b, _ in payments for c in (a, b))
    return _validated(path, header, lambda: PaymentGraph(clients=clients, payments=tuple(payments)))


def _params(cls: type, data: dict, section: str, problems: list[str],
            parse: dict[str, Callable[[Any], Any]]) -> Any:
    """``cls`` built from the object ``data[section]``, each field read with
    ``parse``; None, with the reason added to ``problems``, if that fails."""
    raw = data.get(section)
    if not isinstance(raw, dict):
        problems.append(f"{section}: required object is missing")
        return None
    unknown = set(raw) - set(_field_names(cls))
    if unknown:
        problems.append(f"{section}: unknown keys {sorted(unknown)}")
        return None
    try:
        return cls(**{name: parse[name](value) for name, value in raw.items()})
    except (InputError, TypeError, ValueError) as exc:
        problems.append(f"{section}: {exc!r}")
        return None


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

    chain = _params(ChainParams, data, "chain", problems, {
        "block_size_bytes": lambda v: units.block_size_to_bytes(float(v)),
        "tx_size_bytes": float,
        "block_interval_s": float,
        "confirmations": int,
    })
    net = _params(NetworkParams, data, "net", problems, {
        "bandwidth_bytes_per_s": lambda v: units.bandwidth_to_bytes_per_s(float(v)),
        "latency_s": float,
    })

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


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _is_record(obj: Any) -> bool:
    return dataclasses.is_dataclass(obj) and not isinstance(obj, type)


def to_jsonable(obj: Any) -> Any:
    """Recursively turn dataclasses, enums, and containers into JSON values."""
    if type(obj) in _SCALARS:
        return obj
    if _is_record(obj):
        return {name: to_jsonable(getattr(obj, name)) for name in _field_names(type(obj))}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        if _SCALARS.issuperset(map(type, obj)):
            return list(obj)
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


# JSON writer. It writes exactly the bytes of
# ``json.dump(to_jsonable(obj), fh, indent=2)`` plus a newline, but walks
# dataclasses and sequences itself so that a long table is converted and
# encoded CHUNK records at a time, column by column.

CHUNK = 1024
_INDENT = "  "
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONTAINERS = (dict, list, tuple)
_str = json.encoder.encode_basestring_ascii


def _scalar(value: Any) -> str:
    """json.dump's text for a scalar."""
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    raise FormatError(f"cannot serialize {type(value).__name__} to JSON")


def _column(values: tuple | list) -> list[str] | None:
    """Texts of a column of scalars; None if it holds a container."""
    kinds = set(map(type, values))
    if any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    if kinds == {str}:
        return list(map(_str, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if not _NONFINITE.keys().isdisjoint(texts):
            texts = list(map(_NONFINITE.get, texts, texts))
        return texts
    return list(map(_scalar, values))


def _table(rows: list, level: int) -> list[str] | None:
    """Texts of dicts that share one key order and hold only scalars, encoded
    column by column; None for any other list."""
    if set(map(type, rows)) != {dict} or not rows[0]:
        return None
    keys = tuple(rows[0])
    if not all(map(keys.__eq__, map(tuple, rows))):
        return None
    columns = []
    for values in zip(*map(dict.values, rows)):
        texts = _column(values)
        if texts is None:
            return None
        columns.append(texts)
    inner = "\n" + _INDENT * (level + 1)
    fields = ("," + inner).join(_str(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{" + inner + fields + "\n" + _INDENT * level + "}"
    return list(map(template.__mod__, zip(*columns)))


def _items(values: list, level: int) -> str:
    """The items of a non-empty JSON list whose items sit at ``level``,
    joined as json.dump joins them."""
    texts = _column(values) or _table(values, level) or [_encode(v, level) for v in values]
    return (",\n" + _INDENT * level).join(texts)


def _key(key: Any) -> str:
    return _str(key if isinstance(key, str) else _scalar(key))


def _encode(value: Any, level: int) -> str:
    """json.dump's text for a JSON value at nesting ``level``."""
    inner = "\n" + _INDENT * (level + 1)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + _items(value, level + 1) + "\n" + _INDENT * level + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        fields = ("," + inner).join(
            _key(key) + ": " + _encode(item, level + 1) for key, item in value.items()
        )
        return "{" + inner + fields + "\n" + _INDENT * level + "}"
    return _scalar(value)


def _dump(obj: Any, level: int, write) -> None:
    """Write ``to_jsonable(obj)`` at nesting ``level``. Dataclasses are walked
    field by field and sequences converted CHUNK items at a time, so a long
    table is never held as JSON values all at once."""
    inner = "\n" + _INDENT * (level + 1)
    if _is_record(obj) and _field_names(type(obj)):
        for i, name in enumerate(_field_names(type(obj))):
            write(("," if i else "{") + inner + _str(name) + ": ")
            _dump(getattr(obj, name), level + 1, write)
        write("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        for start in range(0, len(obj), CHUNK):
            write(("," if start else "[") + inner)
            write(_items(to_jsonable(obj[start:start + CHUNK]), level + 1))
        write("\n" + _INDENT * level + "]")
    else:
        write(_encode(to_jsonable(obj), level))


class _JsonFile:
    """One JSON value bound for ``path``. It is written to a sibling
    temporary file, which replaces ``path`` when the ``with`` block exits
    cleanly and is removed when it raises, so ``path`` is never left
    half-written. OSErrors name ``path``."""

    def __init__(self, path: str):
        self.path = path
        self._tmp = f"{path}.{os.urandom(6).hex()}.tmp"

    @contextlib.contextmanager
    def _naming_path(self):
        try:
            yield
        except OSError as exc:
            raise OSError(f"cannot write {self.path}: {exc}") from exc

    def __enter__(self):
        with self._naming_path():
            self._fh = open(self._tmp, "x", encoding="utf-8")
        return self

    def dump(self, obj: Any, level: int = 0, prefix: str = "") -> None:
        with self._naming_path():
            self._fh.write(prefix)
            _dump(obj, level, self._fh.write)

    def _tail(self) -> str:
        return "\n"

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None:
            self._discard()
            return
        try:
            with self._naming_path():
                self._fh.write(self._tail())
                self._fh.close()
                os.replace(self._tmp, self.path)
        except BaseException:
            self._discard()
            raise

    def _discard(self) -> None:
        with contextlib.suppress(OSError):
            self._fh.close()
        with contextlib.suppress(OSError):
            os.remove(self._tmp)


class JsonArrayWriter(_JsonFile):
    """A JSON array written to ``path`` one item at a time.

    ``with JsonArrayWriter(path) as out:`` followed by ``out.add(x)`` for each
    item leaves the bytes of ``export_report([x, ...], path, "json")``. Each
    item is encoded as it is added, so the caller need keep none of them, and
    ``path`` appears only when the block exits cleanly.
    """

    def __init__(self, path: str):
        super().__init__(path)
        self._count = 0

    def add(self, item: Any) -> None:
        self.dump(item, 1, ("," if self._count else "[") + "\n" + _INDENT)
        self._count += 1

    def _tail(self) -> str:
        return "\n]\n" if self._count else "[]\n"


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
    if format == "json":
        with _JsonFile(path) as out:
            out.dump(_config_payload(report) if isinstance(report, SimConfig) else report)
    elif format == "csv":
        header, rows = _csv_rows(report, columns)
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
    else:
        raise FormatError(f"unknown export format {format!r}; use 'json' or 'csv'")


def _config_payload(config: SimConfig) -> dict:
    """Config as loadable JSON, in resolved raw units (bytes, bytes/s)."""
    return {
        "miners": [
            {"miner_id": m, "hash_power_share": s} for m, s in config.miners
        ],
        "chain": config.chain,
        "net": config.net,
        "topology_degree": config.topology_degree,
        "duration_blocks": config.duration_blocks,
        "seed": config.seed,
    }
