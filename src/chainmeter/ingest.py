"""File loading, unit conversion, and report export.

Producer distributions and payment graphs travel as CSV (the natural shape of
block-explorer exports); simulator configs and full results travel as JSON.
The loaders only parse: the types they build validate their own values
(``SimConfig`` too, so a config is checked once, however it is made), and a
loader adds where a rejected value came from (the file, and for a CSV row
the line). Integer fields are handed over as read, never truncated. Unit
conversions are exact: MiB is 2**20 bytes, MB is 10**6 bytes, and decimal
megabits per second are 10**6/8 bytes per second. Numbers are written with
full double precision so that load(export(x)) == x.

JSON exports are byte-identical to ``json.dump(to_jsonable(x), fh, indent=2)``
followed by a newline, as the running interpreter's ``json`` writes them. They
are streamed: ``JsonArrayWriter`` writes an array one item at a time, and a
long table of records is encoded a chunk at a time, column by column, straight
from the records, through one table of per-type encoders, so a 20k-block
export never becomes 20k dicts. A ``SimResult`` holds its blocks as
columns, and they are encoded from those columns, so an export builds no
``BlockRecord``. Every other value is written by ``json``'s own encoder.

One writer serves every export, JSON and CSV alike: it writes to a sibling
temporary file that replaces the target only once it is complete, so a failed
export never leaves a half-written file, and the previous file, if any, keeps
its bytes.

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
import operator
import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from chainmeter.bounds import ChainParams, NetworkParams
from chainmeter.errors import FormatError, InputError, ParseError, ValidationError
from chainmeter.metrics import ProducerDistribution
from chainmeter.scaling import PaymentGraph
from chainmeter.simnet import SimConfig, SimResult

BLOCK_SIZE_FACTORS = {"bytes": 1, "MiB": 2**20, "MB": 10**6}
BANDWIDTH_FACTORS = {"bytes_per_s": 1.0, "Mbps_decimal": 1e6 / 8}


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
    entries = tuple(row for _, row in _read_rows(path, header))
    return _validated(path, header, lambda: ProducerDistribution(entries))


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
    ``parse`` where it names one and passed raw otherwise; None, with the
    reason added to ``problems``, if that fails."""
    raw = data.get(section)
    if not isinstance(raw, dict):
        problems.append(f"{section}: required object is missing")
        return None
    unknown = set(raw) - set(_field_names(cls))
    if unknown:
        problems.append(f"{section}: unknown keys {sorted(unknown)}")
        return None
    try:
        return cls(**{name: parse[name](value) if name in parse else value for name, value in raw.items()})
    except (InputError, TypeError, ValueError) as exc:
        problems.append(f"{section}: {exc}")
        return None


def load_sim_config(path: str) -> SimConfig:
    """Read a simulator config JSON, apply units, and build the config.

    Field names mirror the in-memory records (miners, chain, net,
    topology_degree, duration_blocks, seed); an optional ``units`` object says
    how block size and bandwidth are denominated. Defaults: topology_degree 8,
    seed 0, confirmations 6, raw byte units. Integer fields are passed as
    read, so the types reject ``6.0`` and ``6.9`` alike. All violations are
    reported at once. A single-miner config gets its share normalized to 1.0.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None

    problems: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = set(data) - {*_field_names(SimConfig), "units"}
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
                duration_blocks=data.get("duration_blocks", 0),
                topology_degree=data.get("topology_degree", 8),
                seed=data.get("seed", 0),
            )
        except ValidationError as exc:
            problems.append(str(exc))
        else:
            if not problems:
                return config
    raise ValidationError(f"{path}: " + "; ".join(problems))


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _is_record(obj: Any) -> bool:
    return dataclasses.is_dataclass(obj) and not isinstance(obj, type)


class _Rows:
    """Records held as equal-length columns keyed by field name. It is a
    sequence of its rows, as dicts, and a slice of it slices each column; it
    exports as the records would."""

    def __init__(self, columns: dict[str, Any]):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, index: slice) -> _Rows:
        return _Rows({name: values[index] for name, values in self.columns.items()})

    def __iter__(self):
        return (dict(zip(self.columns, row)) for row in zip(*self.columns.values()))


# What a SimResult exports after its blocks, in order: the fields it had when
# it held its blocks as records.
_RESULT_FIELDS = ("canonical_chain", "per_miner_canonical", "stale_rate", "observed_tps",
                  "mean_confirmation_latency_s")


def _fields(obj: Any) -> list[tuple[str, Any]]:
    """A record's exported ``(name, value)`` pairs: its fields, in order. A
    ``SimResult`` exports its public attributes, ``blocks`` first, as rows of
    its block columns."""
    if isinstance(obj, SimResult):
        return [("blocks", _Rows(obj.block_columns())), *((name, getattr(obj, name)) for name in _RESULT_FIELDS)]
    return [(name, getattr(obj, name)) for name in _field_names(type(obj))]


def to_jsonable(obj: Any) -> Any:
    """Recursively turn dataclasses, enums, and containers into JSON values."""
    if type(obj) in _SCALAR_TEXT:
        return obj
    if _is_record(obj):
        return {name: to_jsonable(value) for name, value in _fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple, _Rows)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


# JSON writer. It writes exactly the bytes of
# ``json.dump(to_jsonable(obj), fh, indent=2)`` plus a newline. Dataclasses
# and sequences it walks itself, so that a long table of records is encoded
# CHUNK records at a time, column by column, without becoming dicts; each
# column of plain scalars goes through _SCALAR_TEXT, mapped over the whole
# column when it holds one type. Every other value goes through to_jsonable
# exactly once, and what that returns is written as it stands by _ENCODER, the
# encoder json.dump uses: converting it again would accept an Enum member
# nested in an Enum's value, which json.dump rejects.

CHUNK = 1024
_INDENT = "  "
_ENCODER = json.JSONEncoder(indent=len(_INDENT))
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_str = json.encoder.encode_basestring_ascii
_literal = {None: "null", True: "true", False: "false"}.__getitem__
# json.dump's text per plain scalar type, but for the names of a float's NaN and infinities.
_SCALAR_TEXT = {str: _str, int: int.__repr__, float: float.__repr__, bool: _literal, type(None): _literal}


def _column(values: tuple | list) -> list[str] | None:
    """Texts of a column of plain scalars; None if it holds anything else."""
    kinds = set(map(type, values))
    if not kinds <= _SCALAR_TEXT.keys():
        return None
    if len(kinds) == 1:
        texts = list(map(_SCALAR_TEXT[next(iter(kinds))], values))
    else:
        texts = [_SCALAR_TEXT[type(value)](value) for value in values]
    # Strings are quoted, so only a float's text can be one of these keys.
    if float in kinds and not _NONFINITE.keys().isdisjoint(texts):
        texts = list(map(_NONFINITE.get, texts, texts))
    return texts


def _columns(items: tuple | list | _Rows) -> dict[str, Any] | None:
    """The columns of rows, or the fields of records of one class as columns;
    None for any other sequence."""
    if isinstance(items, _Rows):
        return items.columns
    if len(set(map(type, items))) != 1 or not _is_record(items[0]):
        return None
    return {name: list(map(operator.attrgetter(name), items)) for name in _field_names(type(items[0]))}


def _table(columns: dict[str, Any] | None, level: int) -> list[str] | None:
    """Texts of the records whose fields are ``columns``, encoded column by
    column; None unless every column holds only plain scalars."""
    texts = [_column(values) for values in columns.values()] if columns else [None]
    if None in texts:
        return None
    inner = "\n" + _INDENT * (level + 1)
    fields = ("," + inner).join(_str(name) + ": %s" for name in columns)
    template = "{" + inner + fields + "\n" + _INDENT * level + "}"
    return list(map(template.__mod__, zip(*texts)))


def _encode(value: Any, level: int) -> str:
    """json.dump's text for a JSON value at nesting ``level``: its top-level
    text, indented. JSON text has no other newline, since strings escape it
    (and ``ensure_ascii`` escapes U+2028 and U+2029)."""
    try:
        text = _ENCODER.encode(value)
    except TypeError as exc:
        raise FormatError(f"cannot serialize to JSON: {exc}") from None
    return text.replace("\n", "\n" + _INDENT * level)


def _dump(obj: Any, level: int, write) -> None:
    """Write ``to_jsonable(obj)`` at nesting ``level``. Dataclasses are walked
    field by field and sequences CHUNK items at a time: a chunk of plain
    scalars, of one record class with plain scalar fields, or of rows of
    plain scalar columns, is encoded column by column, and any other item is
    dumped on its own."""
    inner = "\n" + _INDENT * (level + 1)
    if _is_record(obj) and _field_names(type(obj)):
        for i, (name, value) in enumerate(_fields(obj)):
            write(("," if i else "{") + inner + _str(name) + ": ")
            _dump(value, level + 1, write)
        write("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple, _Rows)) and obj:
        for start in range(0, len(obj), CHUNK):
            chunk = obj[start:start + CHUNK]
            texts = _table(_columns(chunk), level + 1) or _column(chunk)
            if texts is None:
                for i, item in enumerate(chunk, start):
                    write(("," if i else "[") + inner)
                    _dump(item, level + 1, write)
            else:
                write(("," if start else "[") + inner + ("," + inner).join(texts))
        write("\n" + _INDENT * level + "]")
    else:
        write(_encode(to_jsonable(obj), level))


@contextlib.contextmanager
def _replacing(path: str, newline: str | None = None):
    """A new sibling temporary file, open for text, that replaces ``path``
    when the ``with`` block exits cleanly and is removed when it raises, so
    ``path`` is never left half-written. An OSError is re-raised naming
    ``path``."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp, "x", newline=newline, encoding="utf-8")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


class JsonArrayWriter:
    """A JSON array written to ``path`` one item at a time.

    ``with JsonArrayWriter(path) as out:`` followed by ``out.add(x)`` for each
    item leaves the bytes of ``export_report([x, ...], path, "json")``. Each
    item is encoded as it is added, so the caller need keep none of them, and
    ``path`` appears only when the block exits cleanly.
    """

    def __init__(self, path: str):
        self._file = self._array(path)
        self._count = 0

    @contextlib.contextmanager
    def _array(self, path: str):
        with _replacing(path) as fh:
            self._write = fh.write
            yield self
            fh.write("\n]\n" if self._count else "[]\n")

    def __enter__(self) -> JsonArrayWriter:
        return self._file.__enter__()

    def __exit__(self, *exc_info) -> bool | None:
        return self._file.__exit__(*exc_info)

    def add(self, item: Any) -> None:
        self._write(("," if self._count else "[") + "\n" + _INDENT)
        _dump(item, 1, self._write)
        self._count += 1


def _csv_rows(report: Any, columns: tuple[str, ...] | None):
    if isinstance(report, ProducerDistribution):
        report, columns = report.entries, columns or ("producer_id", "weight")
    if isinstance(report, (list, tuple)) and report and all(
        isinstance(row, (list, tuple)) and len(row) == len(report[0]) for row in report
    ):
        width = len(report[0])
        header = columns or tuple(f"col{i + 1}" for i in range(width))
        if len(header) != width:
            raise FormatError(f"got {len(header)} column names for {width}-column rows")
        return header, report
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
        with _replacing(path) as fh:
            _dump(_config_payload(report) if isinstance(report, SimConfig) else report, 0, fh.write)
            fh.write("\n")
    elif format == "csv":
        header, rows = _csv_rows(report, columns)
        with _replacing(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
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
