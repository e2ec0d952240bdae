import dataclasses
from dataclasses import dataclass, field
from enum import Enum
import json
import math
import os

import numpy as np
import pytest

from chainmeter import (
    ChainParams,
    FormatError,
    NetworkParams,
    ParseError,
    ProducerDistribution,
    SimConfig,
    UnitSpec,
    ValidationError,
    cumulative_share_curve,
    export_report,
    load_distribution,
    load_payment_graph,
    load_sim_config,
    run_simulation,
    throughput_sweep,
)
from chainmeter.ingest import CHUNK, JsonArrayWriter, to_jsonable

from helpers import as_records, oracle_export_json, oracle_to_jsonable


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
        for weight in ("many", "nan"):
            path = write(tmp_path / "d.csv", f"producer_id,weight\n\nA,3\nB,{weight}\n")
            with pytest.raises(ParseError, match=":4:") as err:
                load_distribution(path)
            assert "'B'" in str(err.value)

    def test_negative_weight_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\nA,-3\n")
        with pytest.raises(ParseError, match=":2:"):
            load_distribution(path)

    def test_zero_total_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "producer_id,weight\nA,0\nB,0\n")
        with pytest.raises(ParseError, match="total weight"):
            load_distribution(path)

    def test_round_trip_is_identity(self, tmp_path):
        dist = ProducerDistribution((("A", 3.0), ("B", 1.0), ("C", 0.25)))
        out = tmp_path / "rt.csv"
        export_report(dist, str(out), "csv")
        assert load_distribution(str(out)) == dist


class TestLoadPaymentGraph:
    def test_small_graph(self, tmp_path):
        path = write(tmp_path / "g.csv", "from,to,count\na,b,3\nb,c,1\n")
        graph = load_payment_graph(path)
        assert graph.clients == frozenset({"a", "b", "c"})
        assert graph.payments == (("a", "b", 3), ("b", "c", 1))

    def test_bad_count_names_line(self, tmp_path):
        for count in ("x", "0"):
            path = write(tmp_path / "g.csv", f"from,to,count\na,b,1\n\nb,c,{count}\n")
            with pytest.raises(ParseError, match=":4:"):
                load_payment_graph(path)

    def test_self_payment_rejected(self, tmp_path):
        path = write(tmp_path / "g.csv", "from,to,count\na,a,1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_payment_graph(path)


class TestUnitSpec:
    def test_mib_is_binary(self):
        assert UnitSpec(block_size_unit="MiB").block_size_to_bytes(1) == 1_048_576

    def test_mb_is_decimal(self):
        assert UnitSpec(block_size_unit="MB").block_size_to_bytes(2) == 2_000_000

    def test_mbps_decimal(self):
        assert UnitSpec(bandwidth_unit="Mbps_decimal").bandwidth_to_bytes_per_s(5.7) == 712_500.0

    def test_unknown_unit_rejected(self):
        with pytest.raises(Exception):
            UnitSpec(block_size_unit="MiBs")

    def test_fractional_bytes_rejected(self):
        with pytest.raises(Exception):
            UnitSpec(block_size_unit="bytes").block_size_to_bytes(0.5)


class TestLoadSimConfig:
    def test_full_config(self, tmp_path):
        path = write(tmp_path / "c.json", json.dumps(BASE_CONFIG))
        config = load_sim_config(path)
        assert config.miners == (("a", 0.6), ("b", 0.4))
        assert config.chain == ChainParams(1_048_576, 513.86, 600.0, 6)  # C defaults to 6
        assert config.net == NetworkParams(712_500.0, 0.1)
        assert config.seed == 0  # default

    def test_single_miner_share_normalized(self, tmp_path):
        data = dict(BASE_CONFIG, miners=[{"miner_id": "solo", "hash_power_share": 0.9}], topology_degree=8)
        path = write(tmp_path / "c.json", json.dumps(data))
        config = load_sim_config(path)
        assert config.miners == (("solo", 1.0),)
        run_simulation(config)  # degree is irrelevant for one miner

    def test_shares_not_summing_rejected(self, tmp_path):
        data = dict(BASE_CONFIG, miners=[
            {"miner_id": "a", "hash_power_share": 0.5},
            {"miner_id": "b", "hash_power_share": 0.4},
        ])
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError, match="sum to 1"):
            load_sim_config(path)

    def test_mib_units_applied(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["chain"] = dict(data["chain"], block_size_bytes=1)
        data["units"] = {"block_size_unit": "MiB"}
        path = write(tmp_path / "c.json", json.dumps(data))
        assert load_sim_config(path).chain.block_size_bytes == 1_048_576

    def test_mbps_units_applied(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["net"] = {"bandwidth_bytes_per_s": 5.7, "latency_s": 0.1}
        data["units"] = {"bandwidth_unit": "Mbps_decimal"}
        path = write(tmp_path / "c.json", json.dumps(data))
        assert load_sim_config(path).net.bandwidth_bytes_per_s == 712_500.0

    def test_all_violations_reported_at_once(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["miners"] = [
            {"miner_id": "a", "hash_power_share": 0.5},
            {"miner_id": "b", "hash_power_share": 0.4},
        ]
        data["duration_blocks"] = 0
        data["typo_key"] = 1
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        message = str(err.value)
        assert "typo_key" in message
        assert "duration_blocks" in message
        assert "sum to 1" in message

    def test_section_problem_is_plain_text(self, tmp_path):
        data = dict(BASE_CONFIG, chain=dict(BASE_CONFIG["chain"], tx_size_bytes=-1))
        path = write(tmp_path / "c.json", json.dumps(data))
        with pytest.raises(ValidationError) as err:
            load_sim_config(path)
        assert str(err.value) == f"{path}: chain: tx_size_bytes must be positive and finite, got -1.0"

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


class TestExportReport:
    def test_curve_csv_rows(self, tmp_path):
        dist = ProducerDistribution((("A", 3.0), ("B", 1.0)))
        out = tmp_path / "curve.csv"
        export_report(cumulative_share_curve(dist), str(out), "csv", columns=("rank", "cumulative_share"))
        assert out.read_text().splitlines() == ["rank,cumulative_share", "1,0.75", "2,1.0"]

    def test_sweep_csv_one_row_per_size_in_order(self, tmp_path):
        chain = ChainParams(1_048_576, 513.86, 600.0, 6)
        net = NetworkParams(712_500.0, 0.1)
        sizes = [2**20, 2**16, 2**22]
        table = throughput_sweep(chain, net, sizes)
        out = tmp_path / "sweep.csv"
        export_report(table, str(out), "csv", columns=("block_size_bytes", "tps"))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(sizes)
        assert [int(line.split(",")[0]) for line in lines[1:]] == sizes

    def test_sim_result_json_round_trip_exact(self, tmp_path):
        config = SimConfig(
            miners=(("a", 0.5), ("b", 0.5)),
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
        for raw, record in zip(data["blocks"], result.blocks):
            assert raw["mined_at_s"] == record.mined_at_s
            assert raw["block_id"] == record.block_id

    def test_distribution_csv_header_must_fit_its_rows(self, tmp_path):
        dist = ProducerDistribution((("A", 3.0), ("B", 1.0)))
        with pytest.raises(FormatError, match="1 column names for 2-column rows"):
            export_report(dist, str(tmp_path / "d.csv"), "csv", columns=("id",))
        assert os.listdir(tmp_path) == []

    def test_sim_result_csv_rejected(self, tmp_path):
        config = SimConfig(
            miners=(("a", 1.0),), chain=ChainParams(1_048_576, 513.86, 600.0, 6),
            net=NetworkParams(712_500.0, 0.1), duration_blocks=5, topology_degree=0,
        )
        result = run_simulation(config)
        with pytest.raises(FormatError):
            export_report(result, str(tmp_path / "r.csv"), "csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            export_report([(1, 2)], str(tmp_path / "x.xml"), "xml")

    def test_unwritable_path_surfaces_path(self, tmp_path):
        dist = ProducerDistribution((("A", 1.0),))
        missing_dir = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            export_report(dist, str(missing_dir), "csv")

    def test_full_double_precision(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        out = tmp_path / "v.csv"
        export_report([(1, value)], str(out), "csv", columns=("k", "v"))
        reloaded = float(out.read_text().splitlines()[1].split(",")[1])
        assert reloaded == value

    def test_to_jsonable_rejects_exotic_objects(self):
        with pytest.raises(FormatError):
            to_jsonable(object())


class Level(Enum):
    ONE = 1


class Nest(Enum):
    INNER = (Level.ONE,)  # json.dump rejects the inner member; converting it twice would not


class Color(Enum):
    RED = "red"
    DEEP = 3
    PAIR = (1, "two")
    TABLE = {1: "one", None: [2.5], 0.5: {}, False: ()}  # json.dump stringifies these keys


class Keyed(Enum):
    PAIR = {(1, 2): "pair"}  # json.dump rejects a tuple key


@dataclass(frozen=True)
class Scalars:
    label: str
    ratio: float
    flag: bool
    missing: int | None
    color: Color
    tags: frozenset


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


NASTY_IDS = ["\u00e9t\u00e9", "tab\tnew\nline", "nul\x00bel\x07", "quote\"back\\slash",
             "\u2028sep\U0001F600", "%s %d %%", ""]


def sim_result(miners, degree, blocks, interval_s=600.0, seed=3):
    return run_simulation(SimConfig(
        miners=tuple((f"m{i}", 1 / miners) for i in range(miners)),
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
                   i % 2 == 1, None if i % 2 else i, list(Color)[i % 4],
                   frozenset({f"t{i}", "a"} if i % 2 else ()))


def numpy_times(result):
    """``result`` with numpy floats for mining times: a block column that is
    not plain scalars, so each block is encoded on its own."""
    return dataclasses.replace(result, mined_at_s=tuple(map(np.float64, result.mined_at_s)))


class TestJsonExportAgainstOracle:
    """``export_report(..., "json")`` writes the bytes of the former
    ``json.dump(to_jsonable(report), fh, indent=2)`` path, kept in helpers."""

    CASES = {
        "one_miner_one_block": lambda: sim_result(1, 0, 1),
        "fork_heavy": lambda: sim_result(12, 3, 300, interval_s=0.2, seed=8),
        "result_list": lambda: [sim_result(2, 1, 40, seed=s) for s in (1, 2)],
        "result_numpy_times": lambda: numpy_times(sim_result(3, 2, 30)),
        "result_long": lambda: sim_result(2, 1, 2 * CHUNK + 3, interval_s=2.0),
        "config": lambda: SimConfig(
            miners=(("\u00e9", 0.25), ("b", 0.75)), chain=ChainParams(1_048_576, 513.86, 600.0, 6),
            net=NetworkParams(712_500.0, 0.1), duration_blocks=5, topology_degree=1, seed=9),
        "scalar_records": lambda: [scalars(i) for i in range(9)],
        "nested": lambda: Nested(scalars(1), rows(3)),
        "empties": lambda: {"a": [], "b": {}, "c": (), "d": [[]], "e": [{}], "f": [Empty()]},
        "container_field": lambda: [Holder(f"h{i}", tuple(range(i))) for i in range(4)],
        "dict_rows_differing_keys": lambda: [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}],
        "percent_keys": lambda: [{"%s": 1, "a%": "%d"}, {"%s": 2, "a%": "%%"}],
        "non_str_keys": lambda: {1: "one", None: [True, False, None], 2.5: {}},
        "plain_scalars": lambda: [PLAIN, [Row(i, "nan", None, v, False) for i, v in enumerate(PLAIN)]],
        "mixed_scalars": lambda: [1, True, 2.5, None, "x", False, -3, np.float64(0.5)],
        "numpy_floats": lambda: [np.float64(0.1), np.float64(math.nan), 1.5],
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

    @pytest.mark.parametrize("case", ["one_miner_one_block", "fork_heavy", "result_list", "result_numpy_times"])
    def test_to_jsonable_equals_oracle(self, case):
        report = self.CASES[case]()
        assert to_jsonable(report) == oracle_to_jsonable(as_records(report))

    def test_fork_heavy_case_forks(self):
        assert self.CASES["fork_heavy"]().stale_rate > 0.3

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_array_writer_equals_list_export(self, tmp_path, count):
        items = [sim_result(2, 1, 20, seed=s) for s in range(count)] + [rows(2)][:count]
        expected = tmp_path / "expected.json"
        oracle_export_json(as_records(items), str(expected))
        out = tmp_path / "out.json"
        with JsonArrayWriter(str(out)) as array:
            for item in items:
                array.add(item)
        assert out.read_bytes() == expected.read_bytes()

    @staticmethod
    def assert_same_bytes(tmp_path, report):
        expected, out = tmp_path / "expected.json", tmp_path / "out.json"
        oracle_export_json(as_records(report), str(expected))
        export_report(report, str(out), "json")
        assert out.read_bytes() == expected.read_bytes()


class TestJsonExportFailure:
    """A report that cannot be written leaves no file, or the old one, behind."""

    BAD = [
        Holder("x", (object(),)),
        list(range(2 * CHUNK)) + [object()],  # fails after whole chunks were written
        Row,  # a dataclass type, not an instance
        [Nest.INNER],
        Holder("x", (Nest.INNER,)),
        [Keyed.PAIR],
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

    def test_array_writer_discards_on_exception(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with JsonArrayWriter(str(out)) as array:
                array.add(rows(3))
                raise RuntimeError("a seed failed")
        assert os.listdir(tmp_path) == []

    def test_unwritable_json_path_surfaces_path(self, tmp_path):
        with pytest.raises(OSError, match="nope"):
            export_report(rows(2), str(tmp_path / "nope" / "out.json"), "json")
        with pytest.raises(OSError, match="nope"):
            with JsonArrayWriter(str(tmp_path / "nope" / "out.json")):
                pass


class Unprintable:
    def __str__(self):
        raise RuntimeError("field has no text")


class TestCsvExportFailure:
    """A CSV export that fails mid-write leaves no file, or the old one, behind."""

    BAD_ROWS = [("a", 1), ("b", 2), ("c", Unprintable())]

    def test_existing_target_keeps_its_bytes(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_bytes(b"col1,col2\r\nold,0\r\n")
        with pytest.raises(RuntimeError):
            export_report(self.BAD_ROWS, str(out), "csv")
        assert out.read_bytes() == b"col1,col2\r\nold,0\r\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_absent_target_stays_absent(self, tmp_path):
        with pytest.raises(RuntimeError):
            export_report(self.BAD_ROWS, str(tmp_path / "t.csv"), "csv")
        assert os.listdir(tmp_path) == []

    def test_rows_end_in_crlf(self, tmp_path):
        out = tmp_path / "t.csv"
        export_report(self.BAD_ROWS[:2], str(out), "csv")
        assert out.read_bytes() == b"col1,col2\r\na,1\r\nb,2\r\n"

    def test_unwritable_csv_path_surfaces_path(self, tmp_path):
        with pytest.raises(OSError, match="^cannot write .*nope"):
            export_report(self.BAD_ROWS[:2], str(tmp_path / "nope" / "t.csv"), "csv")
