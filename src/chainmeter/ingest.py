"""File loading and report export.

Producer distributions and payment graphs travel as CSV (the natural shape of
block-explorer exports); simulator configs and full results travel as JSON.
The loaders only parse: the types they build validate their own values
(``SimConfig`` too, so a config is checked once, however it is made), and a
loader adds where a rejected value came from (the file, and for a CSV row
the line). A config holds raw bytes and bytes per second, as the types do.
Every number in a config is handed over as read, never truncated or
converted, so a JSON boolean or string, and any number out of range, is
refused in the words the type gives a library caller.

A CSV is read once, as bytes, and decoded once, as UTF-8 less a leading
BOM; the split and the row walk read that one text. A byte that is not UTF-8
ends the text where its line starts: every earlier line is walked, and the
decoder's error, its position counted within that line, is the read error.
If ``csv.reader`` would read the text as a plain split does (no ``"``, NUL
or ``\r`` outside ``\r\n``; the header's comma count on every line; no
cell over ``csv.field_size_limit()``), one ``split`` cuts it into cells;
each column is stripped and its one number column (a count or a weight)
parsed, as a whole, into a column of exact types, which the type built
keeps as they are. Any other file, and a split one with a blank row or a
bad number, goes through ``csv.reader``, whose rows are walked one by one,
to skip blank rows and name the first line at fault in file order, a read
error last. Lines count records, so a quoted field spanning lines counts
once, but a read error names the physical line. Numbers are written with
full double precision so that load(export(x)) == x.

JSON exports are byte-identical to ``json.dump(x, fh, indent=2)`` followed
by a newline, as the running interpreter's ``json`` writes them, for the
values a command or a round trip writes: records (a config as
``load_sim_config`` reads it, a distribution's rows, a payment graph's sorted
clients and rows, any other dataclass instance's fields), dicts with ``str``
keys, lists, tuples, ``BlockTable``s (as their rows) and exact ``str``,
``int``, ``float`` (NaN too), ``bool`` and None, nested in any way.
Anything else, an Enum member, a frozenset outside a payment graph, a numpy
scalar or a key of another type among them, raises ``FormatError``. Exports
are streamed: ``json_array`` writes an array one item at a time, and a
sequence or a ``BlockTable`` a chunk of items at a time. A table checks its
own cells' types, so each chunk of its rows is one ``%`` format with fixed
specs, read from its columns, and a 20k-block export never becomes 20k
dicts.

A CSV export takes one table form, a dict of equal-length columns keyed by
header cell; a distribution is handed over as its ``producer_id`` and
``weight`` columns, unless an id has whitespace around it, which the loader
would strip. The header is written by ``csv.writer``, and the data a
chunk of column slices at a time. A chunk whose every column holds only
exact ints or only exact floats is interleaved into one list and written in
one ``%`` format, ``%d`` or ``%r`` per column, rows ended by ``\r\n``: the
bytes ``csv.writer`` writes, since it writes ``str`` of an int and ``repr``
of a float, ``nan`` and ``inf`` included. Any other chunk (strings, such as
ids that need quoting, ``bool``, numpy scalars, ``IntEnum`` members, a
column mixing ints and floats) goes through ``csv.writer``.

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
from typing import Any

from chainmeter.bounds import ChainParams, NetworkParams
from chainmeter.errors import FormatError, InputError, ParseError, ValidationError
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
    try:
        text, bad = data.decode("utf-8").removeprefix("\ufeff"), None
    except UnicodeDecodeError as exc:  # the text ends where the bad byte's line starts
        start, end = data.rfind(b"\n", 0, exc.start) + 1, data.find(b"\n", exc.start) + 1 or len(data)
        exc.object, exc.start, exc.end, bad = data[start:end], exc.start - start, exc.end - start, exc
        text = data[:start].decode("utf-8").removeprefix("\ufeff")
    # A read error, a blank row (an empty first cell) or a bad number leaves the
    # file to the row walk. A line break starts the cell after it, for str.strip
    # to drop; rows have the header's width if each starts a cell at a multiple.
    plain = text.replace("\r\n", "\n")
    with contextlib.suppress(ValueError):
        if bad is None and '"' not in plain and "\0" not in plain and "\r" not in plain:
            cells, breaks = plain.removesuffix("\n").replace("\n", ",\n").split(","), plain.count("\n") - plain.endswith("\n")
            if (len(cells) == width * (breaks + 1) and "".join(cells[width::width]).count("\n") == breaks
                    and max(map(len, cells)) <= csv.field_size_limit() and list(map(str.strip, cells[:width])) == expected_header):
                columns = [tuple(map(str.strip, itertools.islice(cells, i, None, width))) for i in range(width, 2 * width)]
                if "" not in columns[0]:
                    columns[k] = tuple(map(parse, columns[k]))
                    return columns, range(2, len(columns[0]) + 2)

    def source():  # the text's lines, then the decoder's error, if there is one
        yield from io.StringIO(text, newline="")
        if bad is not None:
            raise bad

    rows, error = [], None
    reader = csv.reader(source())
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise ParseError(f"{path}:1: expected header {','.join(expected_header)!r}")
        # Extending keeps the rows read before a read error.
        rows.extend(reader)
    except csv.Error as exc:
        error = ParseError(f"{path}:{reader.line_num}: {exc}")
    except UnicodeDecodeError as exc:
        error = ParseError(f"{path}:{text.count(chr(10)) + 1}: not UTF-8 text: {exc}")
    kept, lines = [[] for _ in expected_header], []
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
    """Read a ``from,to,count`` CSV into a validated payment graph."""
    (src, dst, counts), lines = _read_columns(path, ["from", "to", "count"], "count", int)
    if not counts:
        raise ParseError(f"{path}: no data rows")
    return _validated(path, lines, lambda: PaymentGraph(tuple(src), tuple(dst), tuple(counts)))


def _params(cls: type, data: dict, section: str, problems: list[str]) -> Any:
    """``cls`` built from the object ``data[section]`` as read, for the type to
    check; None, with the reason added to ``problems``, if that fails."""
    raw = data.get(section)
    if not isinstance(raw, dict):
        problems.append(f"{section}: required object is missing")
        return None
    unknown = set(raw) - set(_field_names(cls))
    if unknown:
        problems.append(f"{section}: unknown keys {sorted(unknown)}")
        return None
    try:
        return cls(**raw)
    except (InputError, TypeError) as exc:
        problems.append(f"{section}: {exc}")
        return None


def load_sim_config(path: str) -> SimConfig:
    """Read a simulator config JSON and build the config.

    Field names mirror the in-memory records (miners, chain, net,
    topology_degree, duration_blocks, seed), in bytes and bytes per second;
    any other key is refused, and a miner_id must be a string. A field the
    file leaves out takes ``SimConfig``'s or ``ChainParams``' default.
    Every number, a miner weight (``hash_power_share``, any unit) too, is
    passed as read, for the types to apply ``errors.real`` and
    ``errors.integer`` and their ranges: a JSON boolean or string is no
    number, ``6.0`` is no integer, and a JSON integer stays an int. The list's
    ``miner_id`` and ``hash_power_share`` columns become the config's
    ``ProducerDistribution``, whose first fault reads ``miners[i]``. Every
    violation is reported: when ``chain``, ``net`` or the ``miners`` list
    fails, it is stood in for and ``SimConfig`` still checks the other
    fields. A list the distribution refuses is stood in for by as many
    miners, so the degree's range is still checked; a missing or malformed
    one by one miner, so it goes unchecked.
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

    chain = _params(ChainParams, data, "chain", problems)
    net = _params(NetworkParams, data, "net", problems)

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
    if "duration_blocks" not in data:
        problems.append("duration_blocks: required integer is missing")
    miners, count = None, 1
    if raw_miners and not malformed:
        ids = tuple(raw["miner_id"] for raw in raw_miners)
        weights = tuple(raw["hash_power_share"] for raw in raw_miners)
        count = len(ids)
        try:
            miners = ProducerDistribution(ids, weights)
        except InputError as exc:
            problems.append(f"miners: {exc}" if exc.index is None else f"miners[{exc.index}]: {exc}")
    # A failed section, or a missing duration, is stood in for, so that
    # SimConfig checks the other fields: a list the distribution refuses by as
    # many miners, any other by one.
    stand_chain, stand_net = PRESETS["bitcoin"]
    miners = miners or ProducerDistribution(tuple(map(str, range(count))), (1.0,) * count)
    given = {name: value for name, value in data.items() if name in _field_names(SimConfig)}
    try:
        config = SimConfig(**{"duration_blocks": 1, **given, "miners": miners,
                              "chain": chain or stand_chain, "net": net or stand_net})
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
    config's as ``load_sim_config`` reads them, a distribution's rows as
    ``entries``, a payment graph's sorted clients and its rows as
    ``clients`` and ``payments``, any other dataclass instance's fields, and
    a dict's items, whose keys must be ``str``; None for anything else, a
    ``BlockTable`` included, which exports as its rows."""
    if isinstance(obj, SimConfig):
        miners = [{"miner_id": m, "hash_power_share": s} for m, s in zip(obj.miners.ids, obj.miners.weights)]
        return {"miners": miners, "chain": obj.chain, "net": obj.net, "topology_degree": obj.topology_degree,
                "duration_blocks": obj.duration_blocks, "seed": obj.seed}
    if isinstance(obj, ProducerDistribution):
        return {"entries": obj.entries}
    if isinstance(obj, PaymentGraph):
        return {"clients": sorted(obj.clients), "payments": obj.payments}
    if isinstance(obj, dict):
        if not set(map(type, obj)) <= {str}:
            key = next(k for k in obj if type(k) is not str)
            raise FormatError(f"cannot serialize the dict key {key!r} to JSON; keys must be str")
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, (type, BlockTable)):
        return {name: getattr(obj, name) for name in _field_names(type(obj))}
    return None


def to_jsonable(obj: Any) -> Any:
    """``obj`` as it stands, if it is a scalar ``json`` writes: an exact
    ``str``, ``int``, ``float`` (NaN and the infinities too), ``bool`` or
    None. Anything else raises ``FormatError``; the writer walks records,
    dicts, sequences and block tables itself, down to their scalars."""
    if type(obj) in (str, int, float, bool, type(None)):
        return obj
    raise FormatError(f"cannot serialize {type(obj).__name__} to JSON")


# The JSON writer: _dump writes json.dump(..., indent=2)'s bytes, as its
# docstring, _exact's and _block_chunks' tell.

CHUNK = 1024
_INDENT = "  "
_str = json.encoder.encode_basestring_ascii


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


def _block_chunks(table: BlockTable, level: int):
    """Texts of the table's rows, each joined as a sequence's items are:
    genesis's, with its ``null`` parent, then CHUNK rows at a time in one
    ``%`` format. Block ids are a range, parents and heights ``%d``, mining
    times ``%r`` and the size one text; the miner ids' texts are made once,
    genesis's last, where a ``miner_index`` of -1 picks it."""
    names = (*map(_str, table.miner_ids), _str(GENESIS_MINER))
    inner, sep = "\n" + _INDENT * (level + 1), ",\n" + _INDENT * level

    def template(parent: str) -> str:
        specs = ("%d", "%s", parent, "%d", "%r", "%d" % table.size_bytes)
        fields = ("," + inner).join(f'"{name}": {spec}' for name, spec in zip(BLOCK_FIELDS, specs))
        return "{" + inner + fields + "\n" + _INDENT * level + "}"

    yield template("null") % (0, names[table.miner_index[0]], table.heights[0], table.mined_at_s[0])
    row = template("%d")
    for start in range(1, len(table), CHUNK):
        stop = min(start + CHUNK, len(table))
        values = (range(start, stop), map(names.__getitem__, table.miner_index[start:stop]),
                  table.parent_ids[start:stop], table.heights[start:stop], table.mined_at_s[start:stop])
        yield sep.join([row] * (stop - start)) % tuple(itertools.chain.from_iterable(zip(*values)))


def _dump(obj: Any, level: int, write) -> None:
    """Write ``obj`` at nesting ``level``: a record or dict name by name, as
    ``_record`` gives them; a block table's rows, and a list's or tuple's
    items, CHUNK at a time, each chunk in one ``%`` format if ``_exact``
    gives it a spec and item by item if not; and a scalar as
    ``to_jsonable`` passes it."""
    inner, close = "\n" + _INDENT * (level + 1), "\n" + _INDENT * level
    if (record := _record(obj)) is not None:
        for i, (name, value) in enumerate(record.items()):
            write(("," if i else "{") + inner + _str(name) + ": ")
            _dump(value, level + 1, write)
        write(close + "}" if record else "{}")
    elif isinstance(obj, BlockTable):
        for i, text in enumerate(_block_chunks(obj, level + 1)):
            write(("," if i else "[") + inner + text)
        write(close + "]")
    elif isinstance(obj, (list, tuple)):
        for start in range(0, len(obj), CHUNK):
            chunk = obj[start:start + CHUNK]
            if spec := _exact(chunk):
                write(("," if start else "[") + inner + ("," + inner).join([spec] * len(chunk)) % tuple(chunk))
            else:
                for i, item in enumerate(chunk, start):
                    write(("," if i else "[") + inner)
                    _dump(item, level + 1, write)
        write(close + "]" if obj else "[]")
    else:
        write(json.dumps(to_jsonable(obj)))


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
    """Re-raise an OSError from the block as ``cannot write {path}: ...``
    with the error's system message, or its text when it has none. The
    system message leaves out the file name, which for an open or a replace
    is the temporary file's, random on each run."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


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


def _csv_table(report: Any) -> tuple[tuple, tuple]:
    """The header and the columns of a CSV export: a dict's keys and
    values, or a distribution's ``producer_id`` and ``weight`` columns. A
    distribution with an id that ``load_distribution`` would strip is
    refused, as it would not reload equal."""
    if isinstance(report, ProducerDistribution):
        if (bad := next((pid for pid in report.ids if pid != pid.strip()), None)) is not None:
            raise FormatError(f"cannot export producer id {bad!r} to CSV: the loader strips the whitespace around a cell")
        report = {"producer_id": report.ids, "weight": report.weights}
    if not (isinstance(report, dict) and report and all(type(v) in (list, tuple, range) for v in report.values())):
        raise FormatError(f"cannot flatten {type(report).__name__} to CSV; export it as json instead")
    lengths = set(map(len, report.values()))
    if len(lengths) != 1:
        raise FormatError(f"columns differ in length: {sorted(lengths)}")
    return tuple(report), tuple(report.values())


def export_report(report: Any, path: str, format: str) -> None:
    """Write an analysis or result to ``path`` as ``json`` or ``csv``.

    JSON takes records, dicts with ``str`` keys, lists, tuples, block tables
    and the scalars ``to_jsonable`` passes, nested in any way. CSV takes a
    dict of equal-length columns (lists, tuples or ranges) keyed by header
    cell, or a distribution (``producer_id,weight``) whose ids have no
    whitespace around them. Anything else raises ``FormatError``, and
    ``path`` keeps what it held.
    """
    if format == "json":
        with _replacing(path) as fh, _naming(path):
            _dump(report, 0, fh.write)
            fh.write("\n")
    elif format == "csv":
        header, columns = _csv_table(report)
        with _replacing(path, newline="") as fh, _naming(path):
            writer = csv.writer(fh)
            writer.writerow(header)
            for start in range(0, len(columns[0]), CHUNK):
                chunk = [column[start:start + CHUNK] for column in columns]
                specs = list(map(_spec, chunk))
                if None in specs:
                    writer.writerows(zip(*chunk))
                else:
                    flat = [None] * (len(chunk) * len(chunk[0]))
                    for k, part in enumerate(chunk):
                        flat[k::len(chunk)] = part
                    fh.write((",".join(specs) + "\r\n") * len(chunk[0]) % tuple(flat))
    else:
        raise FormatError(f"unknown export format {format!r}; use 'json' or 'csv'")
