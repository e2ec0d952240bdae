import csv
import dataclasses
from dataclasses import dataclass, field
from enum import Enum, IntEnum
import json
import math
import os
import random
import re
import sys

import numpy as np
import pytest

from chainmeter import (
    ChainParams,
    FormatError,
    InputError,
    NetworkParams,
    ParseError,
    PaymentGraph,
    ProducerDistribution,
    SimConfig,
    ValidationError,
    cumulative_share_curve,
    export_report,
    load_distribution,
    load_payment_graph,
    load_sim_config,
    run_simulation,
    throughput_sweep,
)
from chainmeter import ingest
from chainmeter.cli import main
from chainmeter.ingest import CHUNK, GENESIS_MINER, json_array, to_jsonable
from chainmeter.simnet import BlockTable

from helpers import (
    as_records,
    distribution,
    oracle_export_csv,
    oracle_export_json,
    oracle_load_distribution,
    oracle_load_payment_graph,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_CONFIG = {
    "miners": [
        {"miner_id": "a", "hash_power_share": 0.6},
        {"miner_id": "b", "hash_power_share": 0.4},
    ],
    "chain": {"block_size_bytes": 1_048_576, "tx_size_bytes": 513.86, "block_interval_s": 600},
    "net": {"bandwidth_bytes_per_s": 712_500, "latency_s": 0.1},
    "duration_blocks": 10,
    "topology_degree": 1,
}


class TestLoadDistribution:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\nA,3\nB,1\n")
        assert load_distribution(path).entries == (("A", 3.0), ("B", 1.0))

    def test_crlf_accepted(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\r\nA,3\r\nB,1\r\n")
        assert load_distribution(path).entries == (("A", 3.0), ("B", 1.0))

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "d.csv", "id,count\nA,3\n")
        with pytest.raises(ParseError, match=":1:"):
            load_distribution(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\nA,3\nA,1\n")
        with pytest.raises(ParseError, match=":3:"):
            load_distribution(path)

    def test_non_numeric_weight_names_line(self, tmp_path):
        for weight, message in (("many", "weight is not a number: 'many'"),
                                ("nan", "weight of 'B' must be finite")):
            path = write(tmp_path / "d.csv", f"producer_id,weight\n\nA,3\nB,{weight}\n")
            with pytest.raises(ParseError, match=":4:") as err:
                load_distribution(path)
            assert message in str(err.value)

    def test_negative_weight_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\nA,-3\n")
        with pytest.raises(ParseError, match=":2:"):
            load_distribution(path)

    def test_zero_total_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\nA,0\nB,0\n")
        with pytest.raises(ParseError, match="total weight"):
            load_distribution(path)

    def test_round_trip_is_identity(self, tmp_path):
        dist = distribution((("A", 3.0), ("B", 1.0), ("C", 0.25)))
        out = tmp_path / "rt.csv"
        export_report(dist, str(out), "csv")
        assert load_distribution(str(out)) == dist


class TestLoadPaymentGraph:
    def test_small_graph(self, tmp_path):
        path = write(tmp_path / "g.csv", "from,to,count\na,b,3\nb,c,1\n")
        graph = load_payment_graph(path)
        assert graph.clients == frozenset({"a", "b", "c"})
        assert graph.payments == (("a", "b", 3), ("b", "c", 1))

    def test_loader_builds_no_client_set(self, tmp_path):
        graph = load_payment_graph(write(tmp_path / "g.csv", "from,to,count\na,b,3\nb,c,1\nc,a,2\n"))
        assert "clients" not in vars(graph)
        # The first read builds the set; a second read returns the same object.
        clients = graph.clients
        assert clients == frozenset("abc") and graph.clients is clients

    def test_bad_count_names_line(self, tmp_path):
        for count in ("x", "0"):
            path = write(tmp_path / "g.csv", f"from,to,count\na,b,1\n\nb,c,{count}\n")
            with pytest.raises(ParseError, match=":4:"):
                load_payment_graph(path)

    def test_self_payment_rejected(self, tmp_path):
        path = write(tmp_path / "g.csv", "from,to,count\na,a,1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_payment_graph(path)


def _cell(rng, text):
    """``text`` as a CSV cell: sometimes padded, quoted when it must be."""
    if rng.random() < 0.15:
        text = rng.choice([" ", "\t", "  "]) + text + rng.choice(["", " ", "\t"])
    if rng.random() < 0.1 or any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def random_csv(rng, header, row, fault_rate):
    """A CSV text with ``header``: rows from ``row(rng)``, blank and ``,,``
    rows, rows of the wrong width, and sometimes a BOM, CRLF ends, a bad or
    missing header or no rows at all."""
    end = rng.choice(["\n", "\r\n"])
    if rng.random() < 0.04:
        return rng.choice(["", end])
    head = list(header)
    if rng.random() < 0.04:
        head[rng.randrange(len(head))] = "weight_s"
    lines = [",".join(_cell(rng, h) for h in head)]
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        if r < fault_rate / 2:
            lines.append(rng.choice(["", ",", ",,", " , ", ",,,", '""', " "]))
        elif r < fault_rate:
            cells = row(rng)
            lines.append(",".join(_cell(rng, c) for c in (cells[:-1] if rng.random() < 0.5 else cells + ["x"])))
        else:
            lines.append(",".join(_cell(rng, c) for c in row(rng)))
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    return ("\ufeff" if rng.random() < 0.2 else "") + text


def _distribution_row(rng):
    pid = rng.choice(["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "a,b", "x\ny", 'q"q', ""]) \
        if rng.random() < 0.3 else f"p{rng.randrange(10**6)}"
    if rng.random() < 0.9:
        weight = rng.choice(["1", "2.5", "0", "1e3", "0.125", "7", "+4", "1_000"])
    else:
        weight = rng.choice(["-1", "nan", "inf", "-inf", "1e400", "abc", "", "0x10", "1,5", "-0.0"])
    return [pid, weight]


def _payment_row(rng):
    src = f"c{rng.randrange(6)}"
    dst = src if rng.random() < 0.03 else rng.choice([f"c{i}" for i in range(6) if f"c{i}" != src] + ["c,7", "c\n8"])
    if rng.random() < 0.92:
        count = rng.choice(["1", "2", "3", "17", "+5", "1_0"])
    else:
        count = rng.choice(["0", "-2", "x", "2.5", "", "1e3", "٣"])
    return [src, dst, count]


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


class TestLoadersAgainstOracle:
    """The column-at-a-time loaders against the former row-by-row ones, on
    seeded CSVs: every file gives an equal object, or the same exception type
    and message, ``path:line:`` included."""

    @pytest.mark.parametrize("load, oracle, header, row", [
        (load_distribution, oracle_load_distribution, ("producer_id", "weight"), _distribution_row),
        (load_payment_graph, oracle_load_payment_graph, ("from", "to", "count"), _payment_row),
    ], ids=["distribution", "payment_graph"])
    @pytest.mark.parametrize("fault_rate", [0.0, 0.02, 0.1])
    def test_same_object_or_same_error(self, tmp_path, monkeypatch, load, oracle, header, row, fault_rate):
        rng = random.Random(f"loaders/{header[0]}/{fault_rate}")
        path = str(tmp_path / "in.csv")
        kinds, paths, readers = set(), set(), []
        for _ in range(400):
            text = random_csv(rng, header, row, fault_rate)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            expected = _outcome(oracle, path)
            del readers[:]
            with monkeypatch.context() as patch:
                patch.setattr(csv, "reader", lambda *args, reader=csv.reader: readers.append(1) or reader(*args))
                outcome = _outcome(load, path)
            assert outcome == expected, text
            kinds.add(expected[0] if isinstance(expected, tuple) else "loaded")
            paths.add("reader" if readers else "split")
            # The loaded columns hold exact types, which the types keep as they are.
            if isinstance(outcome, ProducerDistribution):
                assert [set(map(type, c)) for c in (outcome.ids, outcome.weights)] == [{str}, {float}]
            elif isinstance(outcome, PaymentGraph):
                columns = (outcome.sources, outcome.targets, outcome.counts)
                assert [set(map(type, c)) for c in columns] == [{str}, {str}, {int}]
        assert kinds == {"loaded", ParseError} and paths == {"reader", "split"}


    @pytest.mark.parametrize("tail", [b"\xff,c,1\n", b'"' + b"c" * 200_000 + b'",d,1\n'], ids=["undecodable", "long_field"])
    @pytest.mark.parametrize("head", [b"a,b,x\n", b"a,b\n", b"a,b,1\n"], ids=["bad_count", "short_row", "fine"])
    def test_an_earlier_fault_wins_over_a_reader_error(self, tmp_path, head, tail):
        path = tmp_path / "in.csv"
        path.write_bytes(b"from,to,count\n" + head + b"c,d,1\n" * 5000 + tail)
        outcome = _outcome(load_payment_graph, str(path))
        if head != b"a,b,1\n":
            assert outcome == _outcome(oracle_load_payment_graph, str(path))
        else:
            # No earlier fault: the former loader let the reader's own error
            # out; the loader names the file and the line instead.
            assert _outcome(oracle_load_payment_graph, str(path))[0] is not ParseError
            assert outcome[0] is ParseError and outcome[1].startswith(f"{path}:5003: ")

    @pytest.mark.parametrize("load, data, message", [
        (load_distribution, b"producer_id,weight\na,1\nb,x\nc,\xff2\n", "weight is not a number: 'x'"),
        (load_distribution, b"producer_id,weight\na,1\nb\nc,\xff2\n", "expected 2 columns, got 1"),
        (load_payment_graph, b"from,to,count\na,b,1\nb,c,x\nc,\xff,2\n", "count is not an integer: 'x'"),
        (load_payment_graph, b"from,to,count\na,b,1\nb,c\nc,\xff,2\n", "expected 3 columns, got 2"),
    ], ids=["distribution-bad_number", "distribution-short_row", "payment_graph-bad_count", "payment_graph-short_row"])
    def test_an_earlier_fault_wins_within_one_block(self, tmp_path, load, data, message):
        """The variant of the test above with no filler: the whole file fits
        in one 8 KB decoding block, so the row-by-row oracle, which decodes a
        block at a time, meets the bad byte first. The message is asserted
        as it stands: line 3's fault, not line 4's byte."""
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert _outcome(load, str(path)) == (ParseError, f"{path}:3: {message}")

    @pytest.mark.parametrize("data, message", [
        (b"\xef\xbb\xbfproducer_id,weight\na,1\nb\xff,2\n",
         ":3: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"),
        (b"\xef\xbb\xbfproducer_id,weight\r\na,1\r\nb,\xe2\x82\r\n",
         ":3: not UTF-8 text: 'utf-8' codec can't decode bytes in position 2-3: invalid continuation byte"),
        (b"\xef\xbb\xbfproducer_id,wei\xffght\na,1\n",
         ":1: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
        (b"producer_id,weight\na,1\nb,\"x\n\xff\"\n",
         ":4: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["bom", "bom-crlf-two-bytes", "bom-header", "inside-a-quoted-field"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, message):
        """The decoder's error, its position counted within the line it is
        on (the BOM's three bytes count on line 1). A bad byte in the header
        is a read error on line 1, not a wrong header, and a record cut short
        by the bad line is not walked."""
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert _outcome(load_distribution, str(path)) == (ParseError, f"{path}{message}")

    @pytest.mark.parametrize("data, split", [
        (b"producer_id,weight\rA,1\rB,2\r", False),
        (b"producer_id,weight\nA,1\r\nB,2\rC,3\n", False),
        (b"producer_id,weight\nA\rB,1\n", False),
        (b"producer_id,weight\r\nA,1\r\nB,2\r\n", True),
        (b'producer_id,weight\n"A",1\nB,2\n', False),
        (b'producer_id,weight\n"A,B",1\r\n"C""D",2\r\n', False),
        (b'producer_id,weight\nA"B,1\nC,2\n', False),
        (b"producer_id,weight\nA\x00B,1\n", False),
        (b"\xef\xbb\xbfproducer_id,weight\nA,1\n", True),
        (b"\xef\xbb\xbfproducer_id,weight\r\nA,1", True),
        (b"producer_id,weight\nA,1\nB,2", True),
        (b"producer_id,weight\nA,1\nB,2\n\n\n", False),
        (b"producer_id,weight\n\nA,1\n", False),
        (b"producer_id,weight\nA,1\n , \nB,2\n", False),
        (b"producer_id,weight\nA,1\n\t,2\n", False),
        (b"producer_id,weight\nA,1\n,\n", False),
        (b" producer_id , weight\t\nA , 1\n\tB,  2 \n", True),
        (b"producer_id,weight,\nA,1,\n", False),
        (b"producer_id,weight\nA,1,\nB,2\n", False),
        (b"producer_id,weight\nA,1,2\nB\n", False),
        (b"producer_id,weight\nA,1,2\n3\n", False),
        (b"producer_id,count\nA,1\n", False),
        (b"producer_id,weight\nA,x\nB,1\n", False),
        (b"producer_id\nA\n", False),
        (b"", False),
        (b"producer_id,weight\n", True),
        (b"producer_id,weight\nA,x\n" + b"B,1\n" * 5000 + b"\xff,1\n", False),
        (b"producer_id,weight\nA,1\nA,2\n" + b"B,1\n" * 5000 + b"\xff,1\n", False),
        (b"producer_id,weight\nA,1\n\xff,1\n", False),
    ])
    def test_split_path_boundary(self, tmp_path, monkeypatch, data, split):
        """Each file loads as the row-by-row oracle loads it, whichever path
        reads it, and only the files a plain split reads skip the reader."""
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        expected = _outcome(oracle_load_distribution, str(path))
        readers = []
        monkeypatch.setattr(csv, "reader", lambda *args, reader=csv.reader: readers.append(1) or reader(*args))
        outcome = _outcome(load_distribution, str(path))
        assert (not readers) == split
        if isinstance(expected, tuple) and expected[0] is UnicodeDecodeError:
            # The former loader let the decoder's error out; the loader names
            # the file and the line, the last one here.
            last = data.count(b"\n")
            assert outcome[0] is ParseError and outcome[1].startswith(f"{path}:{last}: not UTF-8 text: ")
        elif isinstance(expected, tuple) and expected[0] is csv.Error:
            # Python 3.10's reader refuses the NUL byte on line 2, and the
            # loader names the line.
            assert outcome == (ParseError, f"{path}:2: {expected[1]}")
        else:
            assert outcome == expected
        if isinstance(outcome, ProducerDistribution):
            # Columns of exact types, which the distribution keeps as they are.
            assert type(outcome.ids) is type(outcome.weights) is tuple
            assert set(map(type, outcome.ids)) == {str} and set(map(type, outcome.weights)) == {float}

    @pytest.mark.parametrize("extra, split", [(-1, True), (0, True), (1, False)], ids=["under", "at", "over"])
    @pytest.mark.parametrize("column", [0, 1], ids=["from", "to"])
    def test_split_path_field_size_limit(self, tmp_path, monkeypatch, extra, split, column):
        """A cell at ``csv.field_size_limit()`` loads, one char over it is the
        reader's error, named; a first cell counts the line break before it,
        so at the limit it goes to the reader, which reads it the same."""
        long_id = "c" * (csv.field_size_limit() + extra)
        row = [long_id, "d", "1"] if column == 0 else ["d", long_id, "1"]
        path = write(tmp_path / "in.csv", "from,to,count\na,b,1\n" + ",".join(row) + "\n")
        readers = []
        monkeypatch.setattr(csv, "reader", lambda *args, reader=csv.reader: readers.append(1) or reader(*args))
        outcome = _outcome(load_payment_graph, path)
        assert (not readers) == (split and not (column == 0 and extra == 0))
        monkeypatch.undo()
        expected = _outcome(oracle_load_payment_graph, path)
        if extra <= 0:
            assert outcome == expected and long_id in outcome.clients
        else:
            assert expected[0] is csv.Error
            assert outcome == (ParseError, f"{path}:3: {expected[1]}")

    @pytest.mark.parametrize("load, oracle, text", [
        (load_distribution, oracle_load_distribution, "producer_id,weight\nA,1\nB,1,2\nC,1\n"),
        (load_payment_graph, oracle_load_payment_graph, "from,to,count\na,b,1\n\na,c,x\n"),
        (load_distribution, oracle_load_distribution, "producer_id,weight\nA,1\n , \nB,2\nA,2\n"),
    ], ids=["wrong_width", "bad_count", "duplicate_after_blank"])
    def test_a_faulty_file_is_opened_once(self, tmp_path, monkeypatch, load, oracle, text):
        path = write(tmp_path / "in.csv", text)
        expected = _outcome(oracle, path)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(ingest, "open", counting_open, raising=False)
        assert expected[0] is ParseError and _outcome(load, path) == expected
        assert opened == [path]


class TestLoadSimConfig:
    def test_full_config(self, tmp_path):
        path = write(tmp_path / "c.json", json.dumps(BASE_CONFIG))
        config = load_sim_config(path)
        assert config.miners.entries == (("a", 0.6), ("b", 0.4))
        assert config.chain == ChainParams(1_048_576, 513.86, 600.0, 6)  # C defaults to 6
        assert config.net == NetworkParams(712_500.0, 0.1)
        assert config.seed == 0  # default

    def test_single_miner_keeps_its_share(self, tmp_path):
        data = dict(BASE_CONFIG, miners=[{"miner_id": "solo", "hash_power_share": 0.9}], topology_degree=8)
        path = write(tmp_path / "c.json", json.dumps(data))
        config = load_sim_config(path)
        assert config.miners.entries == (("solo", 0.9),)
        run_simulation(config)  # degree is irrelevant for one miner

    def test_shares_are_weights_that_need_not_sum_to_one(self, tmp_path):
        data = dict(BASE_CONFIG, miners=[
            {"miner_id": "a", "hash_power_share": 3},
            {"miner_id": "b", "hash_power_share": 0.4},
        ])
        path = write(tmp_path / "c.json", json.dumps(data))
        assert load_sim_config(path).miners.entries == (("a", 3.0), ("b", 0.4))

    def test_block_size_past_the_float_mantissa_loads_exactly(self, tmp_path):
        data = dict(BASE_CONFIG, chain=dict(BASE_CONFIG["chain"], block_size_bytes=2**53 + 1))
        config = load_sim_config(write(tmp_path / "c.json", json.dumps(data)))
        assert config.chain == ChainParams(2**53 + 1, 513.86, 600)
        out = tmp_path / "resolved.json"
        export_report(config, str(out), "json")
        assert json.loads(out.read_text())["chain"]["block_size_bytes"] == 2**53 + 1
        assert load_sim_config(str(out)) == config

    def test_whole_float_block_size_is_refused_as_chain_params_refuses_it(self, tmp_path):
        data = dict(BASE_CONFIG, chain=dict(BASE_CONFIG["chain"], block_size_bytes=1048576.0))
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        assert str(err.value) == f"{path}: chain: block_size_bytes must be an integer, got 1048576.0"
        with pytest.raises(InputError, match="^block_size_bytes must be an integer, got 1048576.0$"):
            ChainParams(1048576.0, 513.86, 600)

    def test_all_violations_reported_at_once(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["miners"] = [
            {"miner_id": "a", "hash_power_share": 0.5},
            {"miner_id": "a", "hash_power_share": 0.5},
        ]
        data["duration_blocks"] = 0
        data["typo_key"] = 1
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        message = str(err.value)
        assert "typo_key" in message
        assert "duration_blocks" in message
        assert "miners[1]: duplicate producer_id 'a'" in message

    @pytest.mark.parametrize("section, key, message", [
        ("chain", "tx_size_bytes", "chain: tx_size_bytes must be positive and finite, got -1"),
        ("net", "latency_s", "net: latency_s must be finite and >= 0, got -1"),
    ])
    def test_section_problem_is_plain_text(self, tmp_path, section, key, message):
        data = dict(BASE_CONFIG, **{section: dict(BASE_CONFIG[section], **{key: -1})})
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("section, key, message", [
        ("chain", "tx_size_bytes", "chain: tx_size_bytes must be a number, got True"),
        ("chain", "confirmations", "chain: confirmations must be an integer, got True"),
        ("net", "latency_s", "net: latency_s must be a number, got True"),
        ("miners", "hash_power_share", "miners[1]: weight of 'b' must be a number, got True"),
        (None, "topology_degree", "topology_degree must be an integer, got True"),
    ])
    def test_json_booleans_are_not_numbers(self, tmp_path, section, key, message):
        data = json.loads(json.dumps(BASE_CONFIG))
        if section == "miners":
            data["miners"][1][key] = True
        else:
            (data[section] if section else data)[key] = True
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        assert message in str(err.value)

    @pytest.mark.parametrize("data, message", [
        ([BASE_CONFIG], "config must be a JSON object"),
        ({k: v for k, v in BASE_CONFIG.items() if k != "chain"}, "chain: required object is missing"),
        (dict(BASE_CONFIG, net=dict(BASE_CONFIG["net"], jitter=0.1)), "net: unknown keys ['jitter']"),
        # A config holds bytes and bytes per second; it names no units.
        (dict(BASE_CONFIG, units={"block_size_unit": "GB"}), "unknown keys: ['units']"),
        ({k: v for k, v in BASE_CONFIG.items() if k != "miners"}, "miners: required non-empty list is missing"),
        ({k: v for k, v in BASE_CONFIG.items() if k != "duration_blocks"}, "duration_blocks: required integer is missing"),
        ({**{k: v for k, v in BASE_CONFIG.items() if k != "duration_blocks"}, "seed": -1},
         "duration_blocks: required integer is missing; seed: must be an unsigned 64-bit integer, got -1"),
        (dict(BASE_CONFIG, miners=[{"miner_id": None, "hash_power_share": 0.6}, {"miner_id": {"x": [1]}, "hash_power_share": 0.4}]),
         "miners[0]: miner_id must be a string, got None; miners[1]: miner_id must be a string, got {'x': [1]}"),
        (dict(BASE_CONFIG, miners=[{"miner_id": 7, "hash_power_share": 0.6}, ["b", 0.4]], seed=-1),
         "miners[0]: miner_id must be a string, got 7; "
         "miners[1]: expected an object with miner_id and hash_power_share; "
         "seed: must be an unsigned 64-bit integer, got -1"),
    ], ids=["array", "no-chain", "unknown-net-key", "unknown-unit", "no-miners", "no-duration", "no-duration-bad-seed",
            "non-string-miner-ids", "int-miner-id-beside-other-faults"])
    def test_structure_fault_is_named(self, tmp_path, data, message):
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = write(tmp_path / "c.json", "{not json")
        with pytest.raises(ParseError):
            load_sim_config(path)

    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "c.json", json.dumps(BASE_CONFIG))
        config = load_sim_config(path)
        out = tmp_path / "resolved.json"
        export_report(config, str(out), "json")
        assert load_sim_config(str(out)) == config

    @pytest.mark.parametrize("seed", [1, 2])
    def test_miners_from_a_csv_run_as_the_config_list(self, tmp_path, seed):
        """The CSV ``metrics`` reads, listing the config's weights, gives an
        equal config and the same result bytes; ids that need quoting and
        int weights included."""
        data = dict(BASE_CONFIG, seed=seed, duration_blocks=300, topology_degree=2,
                    chain=dict(BASE_CONFIG["chain"], block_interval_s=2), miners=[
                        {"miner_id": m, "hash_power_share": w} for m, w in (("a,b", 3), ('q"q', 0.25), ("\u00e9", 1.5))])
        config = load_sim_config(write(tmp_path / "c.json", json.dumps(data)))
        with open(tmp_path / "m.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("producer_id", "weight"), ("a,b", "3"), ('q"q', "0.25"), ("\u00e9", "1.5")])
        from_csv = dataclasses.replace(config, miners=load_distribution(str(tmp_path / "m.csv")))
        assert from_csv == config
        for name, c in (("list.json", config), ("csv.json", from_csv)):
            export_report(run_simulation(c), str(tmp_path / name), "json")
        assert (tmp_path / "csv.json").read_bytes() == (tmp_path / "list.json").read_bytes()
        assert run_simulation(config).stale_rate > 0

    def test_a_fault_in_a_miners_csv_names_its_line_as_metrics_does(self, tmp_path, capsys):
        path = write(tmp_path / "m.csv", "producer_id,weight\na,1\nb,-1\n")
        with pytest.raises(ParseError) as info:
            load_distribution(path)
        assert str(info.value) == f"{path}:3: weight of 'b' must be finite and >= 0, got -1.0"
        assert main(["metrics", path]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_numpy_integers_round_trip(self, tmp_path):
        config = SimConfig(miners=distribution((("a", 0.6), ("b", 0.4))), chain=ChainParams(1000, 250.0, 600.0),
                           net=NetworkParams(712_500.0, 0.1), duration_blocks=np.int64(5), topology_degree=1,
                           seed=np.int64(3))
        out = tmp_path / "resolved.json"
        export_report(config, str(out), "json")
        assert load_sim_config(str(out)) == config

    def test_configs_reload_wherever_they_sit(self, tmp_path):
        """A config exports as load_sim_config reads it at any depth: each
        element of a list of two, and of an array written item by item,
        reloads equal once written to its own file."""
        configs = [load_sim_config(write(tmp_path / "c.json", json.dumps(BASE_CONFIG))),
                   SimConfig(miners=distribution((("\u00e9", 3), ("b", 1))), chain=ChainParams(1000, 250.0, 600.0, 2),
                             net=NetworkParams(712_500.0, 0.0), duration_blocks=np.int64(5), topology_degree=1,
                             seed=2**64 - 1)]
        export_report(configs, str(tmp_path / "list.json"), "json")
        with json_array(str(tmp_path / "array.json")) as add:
            for config in configs:
                add(config)
        assert (tmp_path / "list.json").read_bytes() == (tmp_path / "array.json").read_bytes()
        for k, item in enumerate(json.loads((tmp_path / "list.json").read_text())):
            path = write(tmp_path / f"item{k}.json", json.dumps(item))
            assert load_sim_config(path) == configs[k]

    def test_a_config_in_a_list_writes_its_loadable_form(self, tmp_path):
        """The bytes of a config one level down, as a literal: the oracle
        writes the loadable form at the top level only."""
        config = SimConfig(miners=distribution((("a", 0.5), ("b", 0.5))), chain=ChainParams(1000, 250.0, 600.0, 2),
                           net=NetworkParams(712_500.0, 0.1), duration_blocks=5, topology_degree=1, seed=3)
        export_report([config], str(tmp_path / "list.json"), "json")
        assert (tmp_path / "list.json").read_text() == """[
  {
    "miners": [
      {
        "miner_id": "a",
        "hash_power_share": 0.5
      },
      {
        "miner_id": "b",
        "hash_power_share": 0.5
      }
    ],
    "chain": {
      "block_size_bytes": 1000,
      "tx_size_bytes": 250.0,
      "block_interval_s": 600.0,
      "confirmations": 2
    },
    "net": {
      "bandwidth_bytes_per_s": 712500.0,
      "latency_s": 0.1
    },
    "topology_degree": 1,
    "duration_blocks": 5,
    "seed": 3
  }
]
"""


class Level(Enum):
    ONE = 1


class Nest(Enum):
    INNER = (Level.ONE,)


class Color(Enum):
    RED = "red"
    DEEP = 3
    PAIR = (1, "two")
    TABLE = {1: "one", None: [2.5], 0.5: {}, False: ()}


class Keyed(Enum):
    PAIR = {(1, 2): "pair"}


@dataclass(frozen=True)
class Scalars:
    label: str
    ratio: float
    flag: bool
    missing: int | None


@dataclass(frozen=True)
class Row:
    block_id: int
    miner_id: str
    parent_id: int | None
    mined_at_s: float
    final: bool


@dataclass(frozen=True)
class Holder:
    name: str
    values: tuple


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Nested:
    inner: Scalars
    rows: tuple
    empty_tuple: tuple = ()
    empty_list: list = field(default_factory=list)
    empty_dict: dict = field(default_factory=dict)
    empty_record: Empty = Empty()


class TestExportReport:
    def test_curve_csv_rows(self, tmp_path):
        dist = distribution((("A", 3.0), ("B", 1.0)))
        out = tmp_path / "curve.csv"
        curve = cumulative_share_curve(dist)
        export_report({"rank": range(1, len(curve) + 1), "cumulative_share": curve}, str(out), "csv")
        assert out.read_text().splitlines() == ["rank,cumulative_share", "1,0.75", "2,1.0"]

    def test_sweep_csv_one_row_per_size_in_order(self, tmp_path):
        chain = ChainParams(1_048_576, 513.86, 600.0, 6)
        net = NetworkParams(712_500.0, 0.1)
        sizes = [2**20, 2**16, 2**22]
        rates = throughput_sweep(chain, net, sizes)
        out = tmp_path / "sweep.csv"
        export_report({"block_size_bytes": sizes, "tps": rates}, str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "block_size_bytes,tps"
        assert [(int(b), float(r)) for b, r in (line.split(",") for line in lines[1:])] == list(zip(sizes, rates))

    def test_sim_result_json_round_trip_exact(self, tmp_path):
        config = SimConfig(
            miners=distribution((("a", 0.5), ("b", 0.5))),
            chain=ChainParams(1_048_576, 513.86, 600.0, 6),
            net=NetworkParams(712_500.0, 0.1),
            duration_blocks=50, topology_degree=1, seed=3,
        )
        result = run_simulation(config)
        out = tmp_path / "result.json"
        export_report(result, str(out), "json")
        data = json.loads(out.read_text())
        assert data["stale_rate"] == result.stale_rate
        assert data["observed_tps"] == result.observed_tps
        assert data["mean_confirmation_latency_s"] == result.mean_confirmation_latency_s
        assert data["canonical_chain"] == list(result.canonical_chain)
        assert len(data["blocks"]) == len(result.blocks)
        for block_id, (raw, mined_at) in enumerate(zip(data["blocks"], result.blocks.mined_at_s)):
            assert raw["mined_at_s"] == mined_at
            assert raw["block_id"] == block_id

    def test_numpy_config_numbers_give_the_same_result_and_bytes(self, tmp_path):
        """The types store each number as the int or float it equals, so a
        config of numpy numbers runs and exports as the plain one does."""
        def config(i, f):
            return SimConfig(miners=distribution((("a", f(0.5)), ("b", f(0.5)))), chain=ChainParams(i(1_048_576), f(513.86), f(600.0), i(6)),
                             net=NetworkParams(f(712_500.0), f(0.1)), duration_blocks=i(50), topology_degree=i(1), seed=i(3))

        plain, numpy = run_simulation(config(int, float)), run_simulation(config(np.int64, np.float64))
        assert numpy == plain
        export_report(plain, str(tmp_path / "plain.json"), "json")
        export_report(numpy, str(tmp_path / "numpy.json"), "json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("report, kind", [
        ([(1, 2.0), (2, 3.0, 4)], "list"), ([(1, 2.0), 3], "list"), ([(1, 2.0), "ab"], "list"),
        ([], "list"), ((), "tuple"), ({"a": 1}, "dict"), ([{"a": 1}, {"b": 2}], "list"),
        ([(1, 2.0), (2, 3.0)], "list"),
    ])
    def test_csv_rejects_what_is_not_a_table(self, tmp_path, report, kind):
        with pytest.raises(FormatError, match=f"^cannot flatten {kind} to CSV; export it as json instead$"):
            export_report(report, str(tmp_path / "t.csv"), "csv")
        assert os.listdir(tmp_path) == []

    def test_sim_result_csv_rejected(self, tmp_path):
        config = SimConfig(
            miners=distribution((("a", 1.0),)), chain=ChainParams(1_048_576, 513.86, 600.0, 6),
            net=NetworkParams(712_500.0, 0.1), duration_blocks=5, topology_degree=0,
        )
        result = run_simulation(config)
        with pytest.raises(FormatError):
            export_report(result, str(tmp_path / "r.csv"), "csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            export_report([(1, 2)], str(tmp_path / "x.xml"), "xml")

    def test_unwritable_path_surfaces_path(self, tmp_path):
        dist = distribution((("A", 1.0),))
        missing_dir = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            export_report(dist, str(missing_dir), "csv")

    def test_full_double_precision(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        out = tmp_path / "v.csv"
        export_report({"k": [1], "v": [value]}, str(out), "csv")
        reloaded = float(out.read_text().splitlines()[1].split(",")[1])
        assert reloaded == value

    # The writer walks containers itself; to_jsonable sees their scalars only.
    @pytest.mark.parametrize("report", [object(), [1], {"a": 1}, Holder("h", ()), frozenset(), Color.RED,
                                        np.float64(0.5)],
                             ids=["object", "list", "dict", "record", "frozenset", "enum", "numpy"])
    def test_to_jsonable_rejects_exotic_objects(self, report):
        with pytest.raises(FormatError, match="^cannot serialize .* to JSON$"):
            to_jsonable(report)

    @pytest.mark.parametrize("report", [{1: "one"}, {None: [2.5]}, {0.5: {}}, {False: ()}, dict(Color.TABLE.value),
                                        [{"a": 1}, {"a": {True: 1}}], Holder("x", ({"ok": 1}, {2: 0}))],
                             ids=["int", "none", "float", "bool", "mixed", "nested", "in_a_record"])
    def test_dict_keys_other_than_str_are_refused(self, tmp_path, report):
        # json.dump would spell these keys as strings, which reload as other keys.
        out = tmp_path / "out.json"
        with pytest.raises(FormatError, match="^cannot serialize the dict key .* to JSON; keys must be str$"):
            export_report(report, str(out), "json")
        assert os.listdir(tmp_path) == []


class TestAnalysisTypesExportAsRows:
    """A distribution exports as the rows it held as fields before it held
    columns, the bytes a literal taken then; a payment graph exports as its
    fields, the columns it holds."""

    DIST_JSON = (b'{\n  "entries": [\n    [\n      "A",\n      3.0\n    ],\n    [\n      "b\\"q",\n      0.25\n    ],'
                 b'\n    [\n      "\\u00e9",\n      1e-300\n    ]\n  ]\n}\n')
    GRAPH_JSON = (b'{\n  "sources": [\n    "a",\n    "b",\n    "c"\n  ],\n  "targets": [\n    "b",\n    "c",\n    "a"'
                  b'\n  ],\n  "counts": [\n    3,\n    1,\n    2\n  ]\n}\n')

    def test_distribution_json_bytes(self, tmp_path):
        dist = ProducerDistribution(("A", 'b"q', "\u00e9"), (3.0, 0.25, 1e-300))
        export_report(dist, str(tmp_path / "d.json"), "json")
        assert (tmp_path / "d.json").read_bytes() == self.DIST_JSON

    def test_payment_graph_json_bytes(self, tmp_path):
        graph = PaymentGraph(("a", "b", "c"), ("b", "c", "a"), (3, 1, 2))
        export_report(graph, str(tmp_path / "g.json"), "json")
        assert (tmp_path / "g.json").read_bytes() == self.GRAPH_JSON

    def test_distribution_csv_bytes(self, tmp_path):
        export_report(ProducerDistribution(("A", "B"), (3.0, 0.25)), str(tmp_path / "d.csv"), "csv")
        assert (tmp_path / "d.csv").read_bytes() == b"producer_id,weight\r\nA,3.0\r\nB,0.25\r\n"


NASTY_IDS = ["\u00e9t\u00e9", "tab\tnew\nline", "nul\x00bel\x07", "quote\"back\\slash",
             "\u2028sep\U0001F600", "%s %d %%", ""]


def sim_result(miners, degree, blocks, interval_s=600.0, seed=3):
    return run_simulation(SimConfig(
        miners=distribution((f"m{i}", 1 / miners) for i in range(miners)),
        chain=ChainParams(1_000_000, 500.0, interval_s, 6),
        net=NetworkParams(1e6, 0.5),
        duration_blocks=blocks, topology_degree=degree, seed=seed,
    ))


def rows(n):
    floats = [math.nan, math.inf, -math.inf, 0.1, -0.0, 1e300, 5e-324]
    return tuple(
        Row(i, NASTY_IDS[i % len(NASTY_IDS)], None if i % 5 == 0 else i - 1,
            floats[i % len(floats)] if i % 3 == 0 else i * 0.25, i % 2 == 0)
        for i in range(n)
    )


PLAIN = [math.nan, 1, None, math.inf, "nan", True, -math.inf, False, -3, "inf", 2.5, "NaN"]


def scalars(i):
    return Scalars(NASTY_IDS[i % len(NASTY_IDS)], [math.nan, math.inf, -math.inf, 2.5][i % 4],
                   i % 2 == 1, None if i % 2 else i)


def block_columns(n, tail=None, miner_ids=("a", "b", "c"), size_bytes=1_000_000, index=int):
    """The fields of an ``n``-block ``BlockTable`` of plain values; ``tail``
    maps column names to the values that end them instead, as many of its
    first values as the table has rows, and ``index`` makes each miner
    index."""
    columns = {
        "parent_ids": (None, *range(n - 1)),
        "heights": tuple(range(n)),
        "mined_at_s": tuple(i * 0.25 for i in range(n)),
        "miner_index": tuple(map(index, (-1, *(i % len(miner_ids) for i in range(n - 1))))),
    }
    for name, values in (tail or {}).items():
        values = values[:n]
        columns[name] = columns[name][:n - len(values)] + values
    return dict(columns, size_bytes=size_bytes, miner_ids=miner_ids)


def block_table(n, **kwargs):
    return BlockTable(**block_columns(n, **kwargs))


# Hand-built tables a BlockTable refuses, and the column each fault is in.
# The table checks its columns in field order, parents first.
BAD_TABLES = {
    "index_below_genesis": ({"tail": {"miner_index": (-2,)}}, "miner_index"),
    "index_past_the_ids": ({"tail": {"miner_index": (3,)}}, "miner_index"),
    "numpy_miner_index": ({"index": np.int64}, "miner_index"),
    "bool_miner_index": ({"tail": {"miner_index": (True,)}}, "miner_index"),
    "str_height": ({"tail": {"heights": ("5",)}}, "heights"),
    "bool_height": ({"tail": {"heights": (True,)}}, "heights"),
    "numpy_height": ({"tail": {"heights": (np.int64(7),)}}, "heights"),
    "genesis_with_a_parent": ({"tail": {"parent_ids": (0, 0, 1, 2, 3, 4)}}, "parent_ids"),
    "second_genesis": ({"tail": {"parent_ids": (None,)}}, "parent_ids"),
    "float_parent": ({"tail": {"parent_ids": (4.0,)}}, "parent_ids"),
    "inf": ({"tail": {"mined_at_s": (math.inf,)}}, "mined_at_s"),
    "neg_inf": ({"tail": {"mined_at_s": (-math.inf,)}}, "mined_at_s"),
    "nan": ({"tail": {"mined_at_s": (math.nan,)}}, "mined_at_s"),
    "infinities_and_nan": ({"tail": {"mined_at_s": (math.inf, -math.inf, math.nan)}}, "mined_at_s"),
    "int_time": ({"tail": {"mined_at_s": (5,)}}, "mined_at_s"),
    "numpy_time": ({"tail": {"mined_at_s": (np.float64(0.5),)}}, "mined_at_s"),
    "numpy_str_id": ({"miner_ids": ("a", np.str_("b"), "c")}, "miner_ids"),
    "numpy_str_escaped_id": ({"miner_ids": (np.str_('%d "q" \u00e9'),), "index": lambda i: min(i, 0)}, "miner_ids"),
    "enum_list_id": ({"miner_ids": ("a", Color.PAIR, "c")}, "miner_ids"),
    "unused_unencodable_id": ({"miner_ids": ("a", "b", object()), "index": lambda i: min(i, 1)}, "miner_ids"),
    "bool_size": ({"size_bytes": True}, "size_bytes"),
    "float_size": ({"size_bytes": 1e6}, "size_bytes"),
    "nan_size": ({"size_bytes": math.nan}, "size_bytes"),
    "numpy_size": ({"size_bytes": np.int64(7)}, "size_bytes"),
    "percent_text_size": ({"size_bytes": "%d"}, "size_bytes"),
    "three_encoded_types_in_a_row": ({"miner_ids": (Color.TABLE,), "index": lambda i: min(i, 0),
                                      "tail": {"parent_ids": (frozenset({2, 1}),), "mined_at_s": (np.float64(0.5),)}},
                                     "parent_ids"),
    "two_unencodable_types_in_a_row": ({"miner_ids": (object(),), "index": lambda i: min(i, 0),
                                        "tail": {"heights": (np.int64(7),)}}, "heights"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_block_table_refuses_a_bad_column(case):
    """A table with a bad cell is refused when it is built, directly or by
    ``dataclasses.replace``, with an ``InputError`` naming the column, so no
    export ever sees it."""
    kwargs, column = BAD_TABLES[case]
    bad = block_columns(6, **kwargs)
    with pytest.raises(InputError, match=f"^{column} ") as built:
        BlockTable(**bad)
    with pytest.raises(InputError, match=f"^{column} ") as replaced:
        dataclasses.replace(block_table(6), **bad)
    assert str(built.value) == str(replaced.value)


@pytest.mark.parametrize("columns, message", [
    ({"miner_index": (-1, -2, 0, 1, 0, 1)}, "miner_index must lie in [-1, 3), got -2"),
    ({"miner_index": (-1, 0, 1, 2, 3, 1)}, "miner_index must lie in [-1, 3), got 3"),
    ({"heights": (0, 1, 2, 3, 4, "5")}, "heights must hold int values only, got '5'"),
    ({"mined_at_s": (0.0, 1.0, math.nan, 3.0, math.inf, 5.0)}, "mined_at_s must be finite, got nan"),
    (dict.fromkeys(["parent_ids", "heights", "mined_at_s", "miner_index"], ()),
     "parent_ids must start with genesis's None, got ()"),
], ids=["index_below_genesis", "index_past_the_ids", "str_height", "nan_time", "empty"])
def test_block_table_names_the_first_bad_value(columns, message):
    with pytest.raises(InputError) as err:
        BlockTable(**dict(block_columns(6), **columns))
    assert str(err.value) == message


class TestJsonExportAgainstOracle:
    """``export_report(..., "json")`` writes the bytes of the former
    ``json.dump(to_jsonable(report), fh, indent=2)`` path, kept in helpers."""

    CASES = {
        "one_miner_one_block": lambda: sim_result(1, 0, 1),
        "fork_heavy": lambda: sim_result(12, 3, 300, interval_s=0.2, seed=8),
        "result_list": lambda: [sim_result(2, 1, 40, seed=s) for s in (1, 2)],
        "result_long": lambda: sim_result(2, 1, 2 * CHUNK + 3, interval_s=2.0),
        "config": lambda: SimConfig(
            miners=distribution((("\u00e9", 0.25), ("b", 0.75))), chain=ChainParams(1_048_576, 513.86, 600.0, 6),
            net=NetworkParams(712_500.0, 0.1), duration_blocks=5, topology_degree=1, seed=9),
        "scalar_records": lambda: [scalars(i) for i in range(9)],
        "nested": lambda: Nested(scalars(1), rows(3)),
        "empties": lambda: {"a": [], "b": {}, "c": (), "d": [[]], "e": [{}], "f": [Empty()]},
        "container_field": lambda: [Holder(f"h{i}", tuple(range(i))) for i in range(4)],
        "dict_rows_differing_keys": lambda: [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}],
        "percent_keys": lambda: [{"%s": 1, "a%": "%d"}, {"%s": 2, "a%": "%%"}],
        "escaped_keys": lambda: {"\u00e9": 1, 'q"': [None], "\n": {"\u2028": False}},
        "plain_scalars": lambda: [PLAIN, [Row(i, "nan", None, v, False) for i, v in enumerate(PLAIN)]],
        "mixed_scalars": lambda: [1, True, 2.5, None, "x", False, -3, math.nan],
        "nested_lists": lambda: [[1, 2], [], [[3.0], ["x"]], ("y", None)],
        "top_scalar": lambda: math.inf,
        "top_empty_list": lambda: [],
        "top_empty_tuple": lambda: (),
        "top_empty_dict": lambda: {},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_equal_oracle(self, tmp_path, case):
        report = self.CASES[case]()
        self.assert_same_bytes(tmp_path, report)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_tables_around_chunk_size(self, tmp_path, n):
        self.assert_same_bytes(tmp_path, rows(n))
        self.assert_same_bytes(tmp_path, Nested(scalars(0), rows(n)))
        self.assert_same_bytes(tmp_path, list(range(n)))

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("kind", ["ints", "floats", "nan_floats", "overflowing_floats", "ints_and_floats"])
    def test_sequences_around_chunk_size(self, tmp_path, kind, n):
        values = {
            "ints": [(-1) ** i * 7 ** (i % 40) for i in range(n)],
            "floats": [i / 7 - 100.0 for i in range(n)],
            "nan_floats": [i / 7 for i in range(n - 1)] + [math.nan],
            "overflowing_floats": [1e308] * n,
            "ints_and_floats": [i if i % 2 else i * 0.5 for i in range(n)],
        }[kind]
        self.assert_same_bytes(tmp_path, values)
        self.assert_same_bytes(tmp_path, tuple(values))

    # Block tables whose cells a chunk's one format must write as json does.
    TABLES = {
        "plain": {},
        "finite_sum_overflows": {"tail": {"mined_at_s": (1e308, 1e308)}},
        "percent_and_non_ascii_ids": {"miner_ids": ("%", "%%s", "\u00e9t\u00e9 \U0001F600")},
        "escaped_ids": {"miner_ids": ('q"uote', "back\\slash", "bel\x07", "\u2028sep")},
        "repeated_ids": {"miner_ids": ("x", "%s", "x")},
        "unused_ids": {"miner_ids": ("a", "b", "never"), "index": lambda i: min(i, 1)},
        "big_ints": {"size_bytes": 2**70, "tail": {"heights": (2**64,)}},
        "zero_size_negative_heights": {"size_bytes": 0, "tail": {"heights": (-1, -(2**70))}},
        "extreme_finite_times": {"tail": {"mined_at_s": (5e-324, -0.0, -1.5, sys.float_info.max)}},
        "genesis_miner_past_genesis": {"tail": {"miner_index": (-1, -1)}},
        "empty_and_genesis_named_ids": {"miner_ids": ("", GENESIS_MINER, "")},
        "one_miner": {"miner_ids": ("solo",)},
        "more_ids_than_blocks": {"miner_ids": tuple(f"m{i}" for i in range(CHUNK + 5))},
    }

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 3])
    @pytest.mark.parametrize("case", sorted(TABLES))
    def test_block_tables_equal_oracle(self, tmp_path, case, n):
        self.assert_same_bytes(tmp_path, block_table(n, **self.TABLES[case]))

    def test_table_with_a_short_column_never_reaches_the_file(self, tmp_path):
        """A short ``parent_ids`` once ended the export in a raw TypeError
        from the chunk's ``%`` format; now the table itself refuses it."""
        result = sim_result(2, 1, 5)
        out = tmp_path / "out.json"
        out.write_bytes(b"old\n")
        with pytest.raises(InputError, match="differ in length: 5, 6, 6, 6$"):
            export_report(dataclasses.replace(result, blocks=dataclasses.replace(
                result.blocks, parent_ids=result.blocks.parent_ids[:-1])), str(out), "json")
        assert os.listdir(tmp_path) == ["out.json"] and out.read_bytes() == b"old\n"

    def test_genesis_only_table(self, tmp_path):
        self.assert_same_bytes(tmp_path, block_table(1, miner_ids=()))

    @pytest.mark.parametrize("case", ["fork_heavy", "result_long", *sorted(TABLES)])
    def test_table_in_a_dict_equals_oracle(self, tmp_path, case):
        # A dict is walked key by key, as a record is, down to its table.
        report = self.CASES[case]() if case in self.CASES else block_table(CHUNK + 1, **self.TABLES[case])
        expected, out = tmp_path / "expected.json", tmp_path / "out.json"
        oracle_export_json({"run": as_records(report)}, str(expected))
        export_report({"run": report}, str(out), "json")
        assert out.read_bytes() == expected.read_bytes()

    def test_fork_heavy_case_forks(self):
        assert self.CASES["fork_heavy"]().stale_rate > 0.3

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_array_writer_equals_list_export(self, tmp_path, count):
        items = [sim_result(2, 1, 20, seed=s) for s in range(count)] + [rows(2)][:count]
        expected = tmp_path / "expected.json"
        oracle_export_json(as_records(items), str(expected))
        out = tmp_path / "out.json"
        with json_array(str(out)) as add:
            for item in items:
                add(item)
        assert out.read_bytes() == expected.read_bytes()

    @staticmethod
    def assert_same_bytes(tmp_path, report):
        expected, out = tmp_path / "expected.json", tmp_path / "out.json"
        oracle_export_json(as_records(report), str(expected))
        export_report(report, str(out), "json")
        assert out.read_bytes() == expected.read_bytes()


class TestJsonExportFailure:
    """A report that cannot be written leaves no file, or the old one,
    behind: a value json does not write, or writes as another value
    reloads as (an Enum member, a frozenset, a numpy scalar, a dict key
    that is no ``str``)."""

    BAD = [
        Holder("x", (object(),)),
        list(range(2 * CHUNK)) + [object()],  # fails after whole chunks were written
        Row,  # a dataclass type, not an instance
        [Nest.INNER],
        Holder("x", (Nest.INNER,)),
        [Keyed.PAIR],
        {(1, 2): "pair"},
        Color.RED,
        [1, Level.ONE],
        {"table": Color.TABLE},
        frozenset({"a", "b"}),
        Holder("x", frozenset({1})),
        [0.5, np.float64(0.5)],
        np.int64(3),
        list(range(CHUNK)) + [np.int64(CHUNK)],
        {"a": 1, 2: "b"},
        [{"ok": 1}, {None: 2}],
        Holder("x", ({0.5: 1},)),
    ]

    @pytest.mark.parametrize("report", BAD)
    def test_absent_target_stays_absent(self, tmp_path, report):
        out = tmp_path / "out.json"
        with pytest.raises(FormatError):
            export_report(report, str(out), "json")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("report", BAD)
    def test_existing_target_is_untouched(self, tmp_path, report):
        out = tmp_path / "out.json"
        out.write_text("previous export\n")
        with pytest.raises(FormatError):
            export_report(report, str(out), "json")
        assert out.read_text() == "previous export\n"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("report", BAD)
    def test_array_writer_refuses_and_keeps_the_target(self, tmp_path, report):
        out = tmp_path / "out.json"
        out.write_text("previous export\n")
        with pytest.raises(FormatError):
            with json_array(str(out)) as add:
                add(rows(2))
                add(report)
        assert out.read_text() == "previous export\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_array_writer_discards_on_exception(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with json_array(str(out)) as add:
                add(rows(3))
                raise RuntimeError("a seed failed")
        assert os.listdir(tmp_path) == []

    def test_unwritable_json_path_surfaces_path(self, tmp_path):
        with pytest.raises(OSError, match="nope"):
            export_report(rows(2), str(tmp_path / "nope" / "out.json"), "json")
        with pytest.raises(OSError, match="nope"):
            with json_array(str(tmp_path / "nope" / "out.json")):
                pass

    def test_missing_directory_message_is_the_same_on_every_run(self, tmp_path):
        # The temporary file's random name stays out of the message.
        path = str(tmp_path / "nope" / "out")

        def array():
            with json_array(path):
                pass

        for write in (lambda: export_report({"k": [1]}, path, "csv"), lambda: export_report(rows(2), path, "json"), array):
            with pytest.raises(OSError) as caught:
                write()
            assert str(caught.value) == f"cannot write {path}: No such file or directory"

    def test_array_writer_passes_other_os_errors_unchanged(self, tmp_path):
        # Say the caller's stdout is a closed pipe: that is not a failure to
        # write the export, so the message must not name its path.
        out = tmp_path / "out.json"
        with pytest.raises(BrokenPipeError) as caught:
            with json_array(str(out)) as add:
                add(rows(3))
                raise BrokenPipeError(32, "Broken pipe")
        assert str(caught.value) == "[Errno 32] Broken pipe"
        assert os.listdir(tmp_path) == []

    def test_failed_replace_surfaces_path_and_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="^cannot write .*out.json: .*Permission denied"):
            export_report(rows(2), str(tmp_path / "out.json"), "json")
        with pytest.raises(OSError, match="^cannot write .*out.json: .*Permission denied"):
            with json_array(str(tmp_path / "out.json")) as add:
                add(rows(1))
        assert os.listdir(tmp_path) == []


class Grade(IntEnum):
    LOW = 1
    HIGH = 2


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-05, 5e-324)


class TestCsvExportAgainstOracle:
    """``export_report(..., "csv")`` writes the bytes of the former path, one
    ``csv.writer`` for every row, kept in helpers, whether a chunk goes in
    one ``%`` format or through the writer."""

    # Each row's two cells, made into two columns.
    CELLS = {
        "int_and_float": lambda i: (i, SPECIAL_FLOATS[i % 7] if i % 3 else i / 3),
        "special_floats": lambda i: (SPECIAL_FLOATS[i % 7], -i),
        "bool": lambda i: (i, i % 2 == 0),
        "numpy_int": lambda i: (np.int64(i), 0.5),
        "numpy_float": lambda i: (i, np.float64(i / 3)),
        "int_enum": lambda i: (Grade.LOW if i % 2 else Grade.HIGH, 1.5),
        "mixed_int_float": lambda i: (i, i if i % 2 else i / 7),
        "big_and_negative_ints": lambda i: (2**70 - i, -i),
        "quoted_text": lambda i: (["a,b", 'q"q', "x\ny", "cr\rid", " lead", "", "%s %d %%"][i % 7], i / 3),
    }

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    @pytest.mark.parametrize("shape", [list, tuple], ids=["list", "tuple"])
    @pytest.mark.parametrize("case", sorted(CELLS))
    def test_bytes_equal_oracle(self, tmp_path, case, shape, n):
        cells = [self.CELLS[case](i) for i in range(n)]
        self.assert_same_bytes(tmp_path, {"rank": shape(c[0] for c in cells), "share": shape(c[1] for c in cells)})

    @pytest.mark.parametrize("columns", [
        {"rank": range(CHUNK + 2), "share": [i / 3 for i in range(CHUNK)] + ["a,b", 0.5]},
        {"rank": range(CHUNK + 3), "share": ["a,b"] + [i / 3 for i in range(1, CHUNK + 3)]},
    ], ids=["formatted_then_written", "written_then_formatted"])
    def test_chunks_take_their_own_path(self, tmp_path, columns):
        self.assert_same_bytes(tmp_path, columns)

    # Columns of a dict, written as the oracle writes their rows zipped.
    COLUMNS = {
        "range_and_floats": lambda n: {"rank": range(1, n + 1), "share": [i / 3 for i in range(n)]},
        "list_ints_tuple_floats": lambda n: {"b": [2**70 - i for i in range(n)], "tps": tuple(i * 0.1 for i in range(n))},
        "special_floats": lambda n: {"x": tuple(SPECIAL_FLOATS[i % 7] for i in range(n)), "y": range(-n, 0)},
        "one_column": lambda n: {"only": [float(i) for i in range(n)]},
        # Every chunk with a mixed column goes through csv.writer.
        "mixed_column": lambda n: {"rank": range(n), "cell": [i if i % 2 else i / 7 for i in range(n)]},
        "string_in_last_row": lambda n: {"rank": range(n), "id": [i / 3 for i in range(1, n)] + ["a,b"] * (n > 0)},
    }

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    @pytest.mark.parametrize("case", sorted(COLUMNS))
    def test_columns_equal_oracle(self, tmp_path, case, n):
        self.assert_same_bytes(tmp_path, self.COLUMNS[case](n))

    @pytest.mark.parametrize("report, message", [
        ({"a": [1, 2], "b": (0.5,)}, "columns differ in length: [1, 2]"),
        ({}, "cannot flatten dict to CSV; export it as json instead"),
        ({"a": 1}, "cannot flatten dict to CSV; export it as json instead"),
        ({"a": "text"}, "cannot flatten dict to CSV; export it as json instead"),
    ], ids=["unequal", "empty", "scalar", "string"])
    def test_refused_columns_leave_no_file(self, tmp_path, report, message):
        with pytest.raises(FormatError) as err:
            export_report(report, str(tmp_path / "out.csv"), "csv")
        assert str(err.value) == message
        assert os.listdir(tmp_path) == []

    def test_distribution_ids_that_need_quoting(self, tmp_path):
        ids = ["a,b", 'q"q', "x\ny", "cr\rid", "in ner", "\u00e9t\u00e9", "%s %d %%"]
        dist = distribution((f"{ids[i % len(ids)]}{i}", i + 0.5) for i in range(CHUNK + 3))
        self.assert_same_bytes(tmp_path, dist)

    @staticmethod
    def assert_same_bytes(tmp_path, report):
        expected, out = tmp_path / "expected.csv", tmp_path / "out.csv"
        if isinstance(report, dict):
            oracle_export_csv(list(zip(*report.values())), str(expected), tuple(report))
        else:
            oracle_export_csv(report, str(expected))
        export_report(report, str(out), "csv")
        assert out.read_bytes() == expected.read_bytes()


class Unprintable:
    def __str__(self):
        raise RuntimeError("field has no text")


class TestCsvExportFailure:
    """A CSV export that fails mid-write leaves no file, or the old one, behind."""

    BAD_COLUMNS = {"col1": ["a", "b", "c"], "col2": [1, 2, Unprintable()]}
    GOOD_COLUMNS = {"col1": ["a", "b"], "col2": [1, 2]}

    def test_existing_target_keeps_its_bytes(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_bytes(b"col1,col2\r\nold,0\r\n")
        with pytest.raises(RuntimeError):
            export_report(self.BAD_COLUMNS, str(out), "csv")
        assert out.read_bytes() == b"col1,col2\r\nold,0\r\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_absent_target_stays_absent(self, tmp_path):
        with pytest.raises(RuntimeError):
            export_report(self.BAD_COLUMNS, str(tmp_path / "t.csv"), "csv")
        assert os.listdir(tmp_path) == []

    def test_a_fault_past_the_first_chunk(self, tmp_path):
        """The first chunk is written in one format before the second fails."""
        bad = {"col1": range(CHUNK + 2), "col2": [i / 3 for i in range(CHUNK + 1)] + [Unprintable()]}
        out = tmp_path / "t.csv"
        with pytest.raises(RuntimeError):
            export_report(bad, str(out), "csv")
        assert os.listdir(tmp_path) == []
        out.write_bytes(b"col1,col2\r\nold,0\r\n")
        with pytest.raises(RuntimeError):
            export_report(bad, str(out), "csv")
        assert out.read_bytes() == b"col1,col2\r\nold,0\r\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    @pytest.mark.parametrize("ids, bad", [
        ((" lead", "tail "), " lead"), (("a", "tail ", " lead"), "tail "), (("a", "b\n"), "b\n"),
        (("a", "\u2028b"), "\u2028b"),
    ], ids=["leading", "trailing_first", "newline", "unicode_space"])
    def test_distribution_id_the_loader_would_strip_is_refused(self, tmp_path, ids, bad):
        out = tmp_path / "d.csv"
        out.write_bytes(b"producer_id,weight\r\nold,1.0\r\n")
        dist = ProducerDistribution(ids, (1.0,) * len(ids))
        with pytest.raises(FormatError, match=f"^cannot export producer id {re.escape(repr(bad))} to CSV: "):
            export_report(dist, str(out), "csv")
        assert out.read_bytes() == b"producer_id,weight\r\nold,1.0\r\n"
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_rows_end_in_crlf(self, tmp_path):
        out = tmp_path / "t.csv"
        export_report(self.GOOD_COLUMNS, str(out), "csv")
        assert out.read_bytes() == b"col1,col2\r\na,1\r\nb,2\r\n"

    def test_unwritable_csv_path_surfaces_path(self, tmp_path):
        with pytest.raises(OSError, match="^cannot write .*nope"):
            export_report(self.GOOD_COLUMNS, str(tmp_path / "nope" / "t.csv"), "csv")
