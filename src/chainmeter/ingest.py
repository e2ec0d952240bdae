"""File loading and report export.

Producer distributions and payment graphs travel as CSV (the natural shape of
block-explorer exports); simulator configs and full results travel as JSON.
The loaders only parse: the types they build validate their own values
(``SimConfig`` too, so a config is checked once, however it is made), and a
loader adds where a rejected value came from (the file, and for a CSV row
the line). A config holds raw bytes and bytes per second, as the types do.
Integer fields, ``block_size_bytes`` among them, and shares are handed over
as read, never truncated; every other number in a config is read with
``errors.real``, so a JSON boolean or string is refused as it is in the
library.

A CSV is read once, as bytes. If ``csv.reader`` would read it as a plain
split does (UTF-8; no ``"``, NUL or ``\r`` outside ``\r\n``; the header's
comma count on every line; no cell over ``csv.field_size_limit()``), one
``split`` cuts it into cells; each column is stripped and its one number
column (a count or a weight) parsed, as a whole, into a column of exact
types; the type built keeps each column as it is, and no tuple per row is
made. Any other file, and a split file with a blank
row or a bad number, goes through ``csv.reader``, whose rows are walked one
by one, to skip blank rows and name the first line at fault in file order,
a read error last. Lines count records, so a quoted field spanning lines
counts once, but a read error names the physical line. Numbers are written
with full double precision so that load(export(x)) == x.

JSON exports are byte-identical to ``json.dump(to_jsonable(x), fh, indent=2)``
followed by a newline, as the running interpreter's ``json`` writes them. They
are streamed: ``json_array`` writes an array one item at a time, and a
sequence or a ``SimResult``'s ``BlockTable`` a chunk of items at a time. A
chunk of a table's rows is one ``%`` format read from the table's own
fields, so a 20k-block export never becomes 20k dicts. The texts of miner
ids that are plain scalars are made once per table, and each row picks its
miner's by ``miner_index``; block ids are a range, always ``%d``. Any other
value is written as json writes it, in its column. Every value outside a
table or a sequence of plain scalars is written by ``json``'s own encoder.

A CSV export has its header written by ``csv.writer``, and its data a chunk
of columns at a time: slices of a dict's columns, or a chunk of rows
transposed. A chunk whose every column holds only exact ints or only exact
floats is interleaved into one list and written in one ``%`` format, ``%d``
or ``%r`` per column, rows ended by ``\r\n``: the bytes ``csv.writer``
writes, since it writes ``str`` of an int and ``repr`` of a float, ``nan``
and ``inf`` included. Any other chunk (strings, ``bool``, numpy scalars,
``IntEnum`` members, a column mixing ints and floats, rows of no cells) goes
through ``csv.writer``. A JSON chunk, of a
table's checked columns or of a sequence, takes ``%d`` and ``%r`` by the same
rule, adding that a float column's sum must be finite; any other column
goes in as texts.

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
import io
import itertools
import json
import math
import os
from enum import Enum
from typing import Any, Callable

from chainmeter.bounds import ChainParams, NetworkParams
from chainmeter.errors import FormatError, InputError, ParseError, ValidationError, real
from chainmeter.metrics import ProducerDistribution
from chainmeter.presets import PRESETS
from chainmeter.scaling import PaymentGraph
from chainmeter.simnet import BlockTable, SimConfig

GENESIS_MINER = "genesis"

# The fields of a block's exported row, in order.
BLOCK_FIELDS = ("block_id", "miner_id", "parent_id", "height", "mined_at_s", "size_bytes")


def _read_columns(path: str, expected_header: list[str], number: str,
                  parse: type[int] | type[float]) -> tuple[list[tuple | list], range | list[int]]:
    """The data cells of the CSV at ``path``, stripped, one sequence per column
    of ``expected_header``, the column named ``number`` read with ``parse``
    (``int`` or ``float``); and the line of each row kept. The module
    docstring tells when the split reads it and which fault is named first."""
    with open(path, "rb") as fh:
        data = fh.read()
    k, width = expected_header.index(number), len(expected_header)
    # Bytes that are not UTF-8, a blank row (an empty first cell) and a number
    # that does not parse leave the file to the row walk. A line break starts
    # the cell after it, for str.strip to drop; rows have the header's width
    # if each starts a cell at a multiple.
    with contextlib.suppress(ValueError):
        text = data.decode("utf-8-sig").replace("\r\n", "\n").removesuffix("\n")
        if '"' not in text and "\0" not in text and "\r" not in text:
            cells, breaks = text.replace("\n", ",\n").split(","), text.count("\n")
            if (len(cells) == width * (breaks + 1) and "".join(cells[width::width]).count("\n") == breaks
                    and max(map(len, cells)) <= csv.field_size_limit() and list(map(str.strip, cells[:width])) == expected_header):
                columns = [tuple(map(str.strip, itertools.islice(cells, i, None, width))) for i in range(width, 2 * width)]
                if "" not in columns[0]:
                    columns[k] = tuple(map(parse, columns[k]))
                    return columns, range(2, len(columns[0]) + 2)
    rows, error = [], None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise ParseError(f"{path}:1: expected header {','.join(expected_header)!r}")
        # Extending keeps the rows read before a read error.
        rows.extend(reader)
    except csv.Error as exc:
        error = ParseError(f"{path}:{reader.line_num}: {exc}")
    except UnicodeDecodeError as exc:
        # Text is decoded a block at a time, so the line is found in the bytes.
        for lineno, line in enumerate(io.BytesIO(data), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                error = ParseError(f"{path}:{lineno}: not UTF-8 text: {line_exc}")
                break
        else:
            error = ParseError(f"{path}: not UTF-8 text: {exc}")
    kept: list[list] = [[] for _ in expected_header]
    lines = []
    for lineno, row in enumerate(rows, start=2):
        row = list(map(str.strip, row))
        if not any(row):
            continue
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            row[k] = parse(row[k])
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise ParseError(f"{path}:{lineno}: {number} is not {kind}: {row[k]!r}") from None
        for column, cell in zip(kept, row):
            column.append(cell)
        lines.append(lineno)
    if error is not None:
        raise error
    return kept, lines


def _validated(path: str, lines: range | list[int], build):
    """``build()``, with an ``InputError`` from the type it builds re-raised as
    a ``ParseError`` naming ``path``, and ``lines[index]`` for the entry the
    type names."""
    try:
        return build()
    except InputError as exc:
        where = path if exc.index is None else f"{path}:{lines[exc.index]}"
        raise ParseError(f"{where}: {exc}") from None


def load_distribution(path: str) -> ProducerDistribution:
    """Read a ``producer_id,weight`` CSV into a validated distribution."""
    (ids, weights), lines = _read_columns(path, ["producer_id", "weight"], "weight", float)
    return _validated(path, lines, lambda: ProducerDistribution(tuple(ids), tuple(weights)))


def load_payment_graph(path: str) -> PaymentGraph:
    """Read a ``from,to,count`` CSV into a payment graph; clients are the
    union of all endpoints."""
    (src, dst, counts), lines = _read_columns(path, ["from", "to", "count"], "count", int)
    if not counts:
        raise ParseError(f"{path}: no data rows")
    clients = frozenset(src).union(dst)
    return _validated(path, lines, lambda: PaymentGraph(clients, tuple(src), tuple(dst), tuple(counts)))


def _params(cls: type, data: dict, section: str, problems: list[str],
            parse: dict[str, Callable[[Any, str], Any]]) -> Any:
    """``cls`` built from the object ``data[section]``, each field read with
    ``parse[name](value, name)`` where ``parse`` names it and passed as read
    otherwise; None, with the reason added to ``problems``, if that fails."""
    raw = data.get(section)
    if not isinstance(raw, dict):
        problems.append(f"{section}: required object is missing")
        return None
    unknown = set(raw) - set(_field_names(cls))
    if unknown:
        problems.append(f"{section}: unknown keys {sorted(unknown)}")
        return None
    try:
        return cls(**{name: parse[name](value, name) if name in parse else value for name, value in raw.items()})
    except (InputError, TypeError) as exc:
        problems.append(f"{section}: {exc}")
        return None


def load_sim_config(path: str) -> SimConfig:
    """Read a simulator config JSON and build the config.

    Field names mirror the in-memory records (miners, chain, net,
    topology_degree, duration_blocks, seed), in bytes and bytes per second;
    any other key is refused, and a miner_id must be a string. Defaults:
    topology_degree 8, seed 0, confirmations 6. The chain and net reals are
    read with ``errors.real``; miner weights (``hash_power_share``, any unit)
    and integer fields, ``block_size_bytes`` among them, are passed as read,
    for the types to apply ``errors.real`` and ``errors.integer``: a JSON
    boolean or string is no number, and ``6.0`` is no integer. Every
    violation is reported, the miners' first among them: when ``chain``,
    ``net`` or the ``miners`` list fails, it is stood in for and
    ``SimConfig`` still checks the other fields (a failed list by one miner,
    so the degree's range goes unchecked).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError also covers bytes that are not UTF-8 and integers too long
        # to convert; RecursionError, arrays or objects nested too deep.
        except (RecursionError, ValueError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None

    problems: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(_field_names(SimConfig))
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")

    chain = _params(ChainParams, data, "chain", problems, {"tx_size_bytes": real, "block_interval_s": real})
    net = _params(NetworkParams, data, "net", problems, {"bandwidth_bytes_per_s": real, "latency_s": real})

    raw_miners = data.get("miners")
    if not isinstance(raw_miners, list) or not raw_miners:
        problems.append("miners: required non-empty list is missing")
        raw_miners = []
    malformed = []
    for idx, raw in enumerate(raw_miners):
        if not isinstance(raw, dict) or set(raw) != {"miner_id", "hash_power_share"}:
            malformed.append(f"miners[{idx}]: expected an object with miner_id and hash_power_share")
        elif not isinstance(raw["miner_id"], str):
            malformed.append(f"miners[{idx}]: miner_id must be a string, got {raw['miner_id']!r}")
    problems += malformed
    miners = () if malformed else tuple((raw["miner_id"], raw["hash_power_share"]) for raw in raw_miners)
    if "duration_blocks" not in data:
        problems.append("duration_blocks: required integer is missing")
    # A failed section is stood in for, so that SimConfig checks the other fields.
    stand_chain, stand_net = PRESETS["bitcoin"]

    try:
        config = SimConfig(
            miners=miners or (("", 1.0),),
            chain=chain or stand_chain,
            net=net or stand_net,
            duration_blocks=data.get("duration_blocks", 1),
            topology_degree=data.get("topology_degree", 8),
            seed=data.get("seed", 0),
        )
    except ValidationError as exc:
        problems.append(str(exc))
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    return config


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _record(obj: Any) -> dict[str, Any] | None:
    """The named values ``obj`` exports as a JSON object, in order: a
    distribution's rows as ``entries``, a payment graph's clients and rows as
    ``clients`` and ``payments``, and any other dataclass instance's fields;
    None for anything else, a ``BlockTable`` included, which exports as its rows."""
    if isinstance(obj, ProducerDistribution):
        return {"entries": obj.entries}
    if isinstance(obj, PaymentGraph):
        return {"clients": obj.clients, "payments": obj.payments}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, (type, BlockTable)):
        return {name: getattr(obj, name) for name in _field_names(type(obj))}
    return None


def to_jsonable(obj: Any) -> Any:
    """Recursively turn dataclasses (distributions and payment graphs as
    ``_record`` gives them), enums, containers and block tables (as their
    rows) into JSON values. Dict keys stay as they are: ``json``
    spells ``True`` as ``"true"`` and ``None`` as ``"null"``, whether the dict
    is a report's or an Enum's value, and a key it cannot spell fails the
    export with ``FormatError``."""
    if type(obj) in _SCALAR_TEXT:
        return obj
    if (record := _record(obj)) is not None:
        return {name: to_jsonable(value) for name, value in record.items()}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, BlockTable):
        names = (*obj.miner_ids, GENESIS_MINER)
        return [to_jsonable(dict(zip(BLOCK_FIELDS, row))) for row in zip(
            range(len(obj)), map(names.__getitem__, obj.miner_index), obj.parent_ids, obj.heights, obj.mined_at_s,
            itertools.repeat(obj.size_bytes))]
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float)) or obj is None:
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


# JSON writer. It writes exactly the bytes of
# ``json.dump(to_jsonable(obj), fh, indent=2)`` plus a newline. It walks
# dataclasses itself, as _record names their values, and sequences and BlockTables CHUNK
# items at a time. Every chunk of a BlockTable is one % format: its block
# ids are a range, its miner ids' texts are made once per table when they
# are plain scalars and per chunk otherwise, and _block_chunks reads the
# parent, height, mining-time and size columns per chunk. In a chunk of a
# sequence, or in one of those columns, exact ints go in as %d and exact
# floats with a finite sum as %r; any other values as texts from _column, a
# sequence's only if they are plain scalars. A plain scalar's text comes
# from _SCALAR_TEXT, mapped over the column whole when it holds one type.
# Every other value goes through to_jsonable exactly once, and what that
# returns is written as it stands by _ENCODER, the encoder json.dump uses:
# converting it again would accept an Enum member nested in an Enum's
# value, which json.dump rejects.

CHUNK = 1024
_INDENT = "  "
_ENCODER = json.JSONEncoder(indent=len(_INDENT))
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_str = json.encoder.encode_basestring_ascii
_literal = {None: "null", True: "true", False: "false"}.__getitem__
# json.dump's text per plain scalar type, but for the names of a float's NaN and infinities.
_SCALAR_TEXT = {str: _str, int: int.__repr__, float: float.__repr__, bool: _literal, type(None): _literal}


def _column(values: tuple | list, level: int) -> list[str]:
    """json.dump's texts of ``values`` at nesting ``level``: a plain scalar's
    from ``_SCALAR_TEXT``, mapped over the column whole when it holds one
    type, and any other value's from ``_encode(to_jsonable(value), level)``."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= _SCALAR_TEXT.keys():
        texts = list(map(_SCALAR_TEXT[next(iter(kinds))], values))
    else:
        texts = [_SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT else _encode(to_jsonable(v), level)
                 for v in values]
    # No JSON text reads nan or inf, so only an exact float's can be one of these keys.
    if float in kinds and not _NONFINITE.keys().isdisjoint(texts):
        texts = list(map(_NONFINITE.get, texts, texts))
    return texts


def _spec(column: tuple | list) -> str | None:
    """``%d`` for a column of exact ints, ``%r`` for one of exact floats, whose
    texts these give as ``str`` and ``repr`` do; None for any other."""
    kinds = set(map(type, column))
    return "%d" if kinds == {int} else "%r" if kinds == {float} else None


def _exact(column: tuple | list) -> str | None:
    """``_spec(column)`` where it gives json.dump's texts: a float column's
    only if its sum is finite, which it is only if every term is."""
    spec = _spec(column)
    return spec if spec == "%d" or spec == "%r" and math.isfinite(sum(column)) else None


def _items(chunk: tuple | list, level: int) -> str | None:
    """Text of a chunk of a sequence's items, joined as json.dump joins
    them; None unless it holds only plain scalars."""
    sep = ",\n" + _INDENT * level
    if spec := _exact(chunk):
        return sep.join([spec] * len(chunk)) % tuple(chunk)
    return sep.join(_column(chunk, level)) if set(map(type, chunk)) <= _SCALAR_TEXT.keys() else None


def _block_chunks(table: BlockTable, level: int):
    """Texts of the table's rows, CHUNK of them at a time, each joined as a
    chunk's items are, in one ``%`` format. The texts of miner ids that are
    all plain scalars, genesis's last where a ``miner_index`` of -1 picks it,
    are made once per table; any others per chunk, of the ids its rows pick."""
    names = (*table.miner_ids, GENESIS_MINER)
    miners = _column(names, 0) if set(map(type, names)) <= _SCALAR_TEXT.keys() else None
    inner, sep = "\n" + _INDENT * (level + 1), ",\n" + _INDENT * level
    for start in range(0, len(table), CHUNK):
        stop = min(start + CHUNK, len(table))
        picked = table.miner_index[start:stop]
        specs = ["%d", "%s"]
        values = [range(start, stop), list(map(miners.__getitem__, picked)) if miners
                  else _column(list(map(names.__getitem__, picked)), level + 1)]
        for column in (table.parent_ids[start:stop], table.heights[start:stop], table.mined_at_s[start:stop]):
            spec = _exact(column)
            specs.append(spec or "%s")
            values.append(column if spec else _column(column, level + 1))
        specs.append(_column((table.size_bytes,), level + 1)[0].replace("%", "%%"))
        fields = ("," + inner).join(f'"{name}": {spec}' for name, spec in zip(BLOCK_FIELDS, specs))
        template = "{" + inner + fields + "\n" + _INDENT * level + "}"
        yield sep.join([template] * (stop - start)) % tuple(itertools.chain.from_iterable(zip(*values)))


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
    name by name as ``_record`` gives them, and sequences and block tables CHUNK items at a time: a
    chunk of block rows, or of plain scalars, is encoded as one text, and any
    other chunk item by item."""
    inner = "\n" + _INDENT * (level + 1)
    if record := _record(obj):
        for i, (name, value) in enumerate(record.items()):
            write(("," if i else "{") + inner + _str(name) + ": ")
            _dump(value, level + 1, write)
        write("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple, BlockTable)) and obj:
        starts = range(0, len(obj), CHUNK)
        if isinstance(obj, BlockTable):
            texts = _block_chunks(obj, level + 1)
        else:
            texts = (_items(obj[start:start + CHUNK], level + 1) for start in starts)
        for start, text in zip(starts, texts):
            if text is None:
                for i, item in enumerate(obj[start:start + CHUNK], start):
                    write(("," if i else "[") + inner)
                    _dump(item, level + 1, write)
            else:
                write(("," if start else "[") + inner + text)
        write("\n" + _INDENT * level + "]")
    else:
        write(_encode(to_jsonable(obj), level))


@contextlib.contextmanager
def _replacing(path: str, newline: str | None = None):
    """A new sibling temporary file, open for text, that replaces ``path``
    when the ``with`` block exits cleanly and is removed when it raises, so
    ``path`` is never left half-written. An OSError from opening, closing or
    replacing the file is re-raised naming ``path``; the block's own
    exceptions pass unchanged, so writes to the file go inside ``_naming``."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    with _naming(path):
        fh = open(tmp, "x", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
            with _naming(path):
                fh.close()
                os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _naming(path: str):
    """Re-raise an OSError from the block as ``cannot write {path}: ...``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def json_array(path: str):
    """A JSON array written to ``path`` one item at a time.

    ``with json_array(path) as add:`` followed by ``add(x)`` for each item
    leaves the bytes of ``export_report([x, ...], path, "json")``. Each item
    is encoded as it is added, so the caller need keep none of them, and
    ``path`` appears only when the block exits cleanly. Only errors in
    writing ``path`` name it; anything else raised in the block passes
    unchanged.
    """
    count = 0
    with _replacing(path) as fh:
        def add(item: Any) -> None:
            nonlocal count
            with _naming(path):
                fh.write(("," if count else "[") + "\n" + _INDENT)
                _dump(item, 1, fh.write)
            count += 1

        yield add
        with _naming(path):
            fh.write("\n]\n" if count else "[]\n")


def _csv_chunks(report: Any, columns: tuple[str, ...] | None):
    """The header of a CSV export, and its data CHUNK rows at a time, each
    chunk as its column slices and its rows."""
    if isinstance(report, ProducerDistribution):
        header, parts = columns or ("producer_id", "weight"), (report.ids, report.weights)
        if len(header) != len(parts):
            raise FormatError(f"got {len(header)} column names for {len(parts)}-column rows")
    elif isinstance(report, dict) and report and all(type(v) in (list, tuple, range) for v in report.values()):
        if columns is not None:
            raise FormatError("a dict's keys are its header; give no column names")
        header, parts = tuple(report), tuple(report.values())
        lengths = set(map(len, parts))
        if len(lengths) != 1:
            raise FormatError(f"columns differ in length: {sorted(lengths)}")
    # One check per distinct row type and width, not one per row.
    elif (isinstance(report, (list, tuple)) and report
            and all(issubclass(kind, (list, tuple)) for kind in set(map(type, report)))
            and len(set(map(len, report))) == 1):
        width = len(report[0])
        header = columns or tuple(f"col{i + 1}" for i in range(width))
        if len(header) != width:
            raise FormatError(f"got {len(header)} column names for {width}-column rows")
        chunks = (report[i:i + CHUNK] for i in range(0, len(report), CHUNK))
        return header, ((list(zip(*rows)), rows) for rows in chunks)
    else:
        raise FormatError(f"cannot flatten {type(report).__name__} to CSV; export it as json instead")
    slices = ([part[i:i + CHUNK] for part in parts] for i in range(0, len(parts[0]), CHUNK))
    return header, ((chunk, zip(*chunk)) for chunk in slices)


def export_report(report: Any, path: str, format: str, columns: tuple[str, ...] | None = None) -> None:
    """Write an analysis or result to ``path`` as ``json`` or ``csv``.

    JSON takes any report and nests it fully. CSV takes flat tables only: a
    dict of equal-length columns (lists, tuples or ranges) keyed by header
    cell, a distribution (``producer_id,weight``), or a sequence of rows
    with ``columns`` naming the header cells.
    """
    if format == "json":
        with _replacing(path) as fh, _naming(path):
            _dump(_config_payload(report) if isinstance(report, SimConfig) else report, 0, fh.write)
            fh.write("\n")
    elif format == "csv":
        header, chunks = _csv_chunks(report, columns)
        with _replacing(path, newline="") as fh, _naming(path):
            writer = csv.writer(fh)
            writer.writerow(header)
            for parts, rows in chunks:
                specs = list(map(_spec, parts))
                if parts and None not in specs:
                    flat = [None] * (len(parts) * len(parts[0]))
                    for k, part in enumerate(parts):
                        flat[k::len(parts)] = part
                    fh.write((",".join(specs) + "\r\n") * len(parts[0]) % tuple(flat))
                else:
                    writer.writerows(rows)
    else:
        raise FormatError(f"unknown export format {format!r}; use 'json' or 'csv'")


def _config_payload(config: SimConfig) -> dict:
    """Config as loadable JSON, in the bytes and bytes/s its fields hold."""
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
