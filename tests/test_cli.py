from dataclasses import replace
import hashlib
import io
import json
import os
from pathlib import Path
import sys
import tracemalloc
import weakref

import pytest

from chainmeter import (
    block_capacity,
    centralization_level,
    cumulative_share_curve,
    TopologyError,
    export_report,
    load_sim_config,
    max_throughput,
    preset,
    propagation_limited_throughput,
    run_simulation,
    throughput_upper_bound,
    tx_latency,
)
import chainmeter
from chainmeter import cli
from chainmeter.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from chainmeter.presets import bitcoin_miner_distribution
from chainmeter.simnet import MAX_DURATION_BLOCKS, SimConfig

from helpers import CommandOutcome, as_records, oracle_export_json, run

BASE_CONFIG = {
    "miners": [
        {"miner_id": "a", "hash_power_share": 0.5},
        {"miner_id": "b", "hash_power_share": 0.5},
    ],
    "chain": {"block_size_bytes": 1_048_576, "tx_size_bytes": 513.86, "block_interval_s": 600},
    "net": {"bandwidth_bytes_per_s": 712_500, "latency_s": 0.1},
    "duration_blocks": 30,
    "topology_degree": 1,
    "seed": 5,
}


def floats_in(text):
    out = []
    for token in text.replace(",", " ").split():
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


@pytest.fixture
def dist_csv(tmp_path):
    path = tmp_path / "dist.csv"
    export_report(bitcoin_miner_distribution(), str(path), "csv")
    return str(path)


@pytest.fixture
def config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


@pytest.fixture
def full4_csv(tmp_path):
    path = tmp_path / "g.csv"
    clients = ["c1", "c2", "c3", "c4"]
    rows = ["from,to,count"] + [f"{a},{b},2" for i, a in enumerate(clients) for b in clients[i + 1:]]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestMetricsCommand:
    def test_bitcoin_shaped_file_gives_sixteen(self, dist_csv):
        outcome = run(["metrics", dist_csv, "--epsilon", "0.1"])
        assert outcome.exit_code == EXIT_OK
        row = outcome.stdout_report.splitlines()[1].split()
        assert row[0] == "0.1" and row[1] == "16"
        level = centralization_level(bitcoin_miner_distribution(), 0.1)
        assert float(row[2]) == level.covered_share

    def test_a_top_producer_short_by_a_billionth_does_not_cover(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("producer_id,weight\na,899999999\nb,100000001\n")
        outcome = run(["metrics", str(path), "--epsilon", "0.1"])
        assert outcome == CommandOutcome(EXIT_OK, "epsilon  n  covered_share\n0.1  2  1.0\n")

    def test_pbft_on_three_equal_producers_needs_two(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("producer_id,weight\na,1\nb,1\nc,1\n")
        outcome = run(["metrics", str(path), "--consensus", "pbft"])
        assert outcome.exit_code == EXIT_OK
        assert outcome.stdout_report.endswith("\ncentral trust (pbft): N = 2\n")

    def test_single_consensus_prints_one(self, dist_csv):
        outcome = run(["metrics", dist_csv, "--epsilon", "0", "--consensus", "single"])
        assert outcome.exit_code == EXIT_OK
        assert "central trust (single): N = 1" in outcome.stdout_report

    def test_curve_export(self, dist_csv, tmp_path):
        curve_path = tmp_path / "curve.csv"
        outcome = run(["metrics", dist_csv, "--curve", str(curve_path)])
        assert outcome.exit_code == EXIT_OK
        lines = curve_path.read_text().splitlines()
        expected = cumulative_share_curve(bitcoin_miner_distribution())
        assert len(lines) == 1 + len(expected)
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_missing_file_exits_two_and_names_path(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "absent.csv")]) == EXIT_INPUT
        assert "absent.csv" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, dist_csv, capsys):
        assert main(["metrics", dist_csv, "--frobnicate"]) == EXIT_USAGE
        assert capsys.readouterr().err

    def test_a_bad_epsilon_after_a_good_one_exits_two_before_any_output(self, dist_csv, capsys):
        assert main(["metrics", dist_csv, "--epsilon", "0.1", "1"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "error: epsilon must lie in [0, 1), got 1.0\n"

    def test_empty_curve_path_is_usage_error_before_any_run(self, dist_csv, capsys):
        assert main(["metrics", dist_csv, "--curve", ""]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: argument --curve: wants a file name, got ''\n"


class TestBoundCommand:
    def test_bitcoin_preset_matches_library(self):
        outcome = run(["bound", "--preset", "bitcoin"])
        assert outcome.exit_code == EXIT_OK
        chain, net = preset("bitcoin")
        lines = outcome.stdout_report.splitlines()
        values = {line.split(":")[0]: floats_in(line.split(":")[1])[0] for line in lines}
        assert values["confirmation latency L"] == tx_latency(chain)
        assert values["block capacity"] == block_capacity(chain)
        assert values["protocol throughput R"] == max_throughput(chain)
        assert values["propagation-limited throughput"] == propagation_limited_throughput(chain, net)
        assert values["bandwidth ceiling w/s"] == throughput_upper_bound(net, chain.tx_size_bytes)

    def test_ethereum_preset_latency(self):
        outcome = run(["bound", "--preset", "ethereum"])
        assert "confirmation latency L: 90.0 s" in outcome.stdout_report

    def test_explicit_flags(self):
        outcome = run([
            "bound", "--block-size-mib", "1", "--tx-size-bytes", "513.86",
            "--block-interval-s", "600", "--latency-s", "0.1", "--bandwidth-mbps", "5.7",
        ])
        assert outcome.exit_code == EXIT_OK
        assert "bandwidth ceiling w/s: 1386.5644338925 tx/s" in outcome.stdout_report

    def test_mib_and_mbps_flags_print_the_bitcoin_preset(self):
        # The preset holds 2**20 bytes and 5.7 * 10**6 / 8 bytes per second.
        outcome = run([
            "bound", "--block-size-mib", "1", "--bandwidth-mbps", "5.7", "--tx-size-bytes", "513.86",
            "--block-interval-s", "600", "--latency-s", "0.1",
        ])
        assert outcome == run(["bound", "--preset", "bitcoin"])
        assert outcome.exit_code == EXIT_OK and len(outcome.stdout_report.splitlines()) == 5

    @pytest.mark.parametrize("flags, same", [
        (["--block-size-mib", "1"], ["--block-size-bytes", "1048576"]),
        (["--block-size-mib", "0.5"], ["--block-size-bytes", "524288"]),
        (["--bandwidth-mbps", "5.7"], ["--bandwidth-bytes-per-s", "712500"]),
        (["--bandwidth-mbps", "8"], ["--bandwidth-bytes-per-s", "1000000"]),
    ], ids=["mib-is-binary", "half-mib", "mbps-is-decimal", "eight-mbps"])
    def test_unit_flags_give_the_bytes_they_name(self, flags, same):
        size = [] if flags[0] == "--block-size-mib" else ["--block-size-bytes", "1048576"]
        bandwidth = [] if flags[0] == "--bandwidth-mbps" else ["--bandwidth-bytes-per-s", "712500"]
        argv = ["bound", "--tx-size-bytes", "1", "--block-interval-s", "600", "--latency-s", "0.1", *size, *bandwidth]
        outcome = run([*argv, *flags])
        assert outcome.exit_code == EXIT_OK
        assert outcome == run([*argv, *same])

    def test_sweep_output_strictly_increasing(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sizes = ",".join(str(2**k) for k in range(16, 24))
        outcome = run(["bound", "--preset", "bitcoin", "--sweep", sizes, "--sweep-out", str(sweep)])
        assert outcome.exit_code == EXIT_OK
        tps = [float(line.split(",")[1]) for line in sweep.read_text().splitlines()[1:]]
        assert all(a < b for a, b in zip(tps, tps[1:]))

    def test_sweep_without_out_is_usage_error(self, capsys):
        assert main(["bound", "--preset", "bitcoin", "--sweep", "65536"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: --sweep needs --sweep-out FILE for its CSV\n"

    def test_sweep_without_network_is_usage_error(self, tmp_path, capsys):
        argv = ["bound", "--block-size-bytes", "1048576", "--tx-size-bytes", "500", "--block-interval-s", "600",
                "--sweep", "65536", "--sweep-out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "usage error: --sweep needs network parameters" in err
        assert not (tmp_path / "s.csv").exists()

    def test_non_positive_param_exits_two(self, capsys):
        code = main(["bound", "--block-size-bytes", "-5", "--tx-size-bytes", "500",
                     "--block-interval-s", "600"])
        assert code == EXIT_INPUT

    def test_nan_latency_exits_two(self, capsys):
        assert main(["bound", "--preset", "bitcoin", "--latency-s", "nan"]) == EXIT_INPUT
        assert "error: latency_s must be finite and >= 0, got nan" in capsys.readouterr().err

    def test_missing_chain_flags_is_usage_error(self):
        assert main(["bound", "--tx-size-bytes", "500"]) == EXIT_USAGE

    @pytest.mark.parametrize("flags, missing", [
        (["--latency-s", "0.1"], "--bandwidth-bytes-per-s/--bandwidth-mbps"),
        (["--bandwidth-mbps", "5.7"], "--latency-s"),
        (["--bandwidth-bytes-per-s", "712500"], "--latency-s"),
    ], ids=["latency-alone", "mbps-alone", "bytes-per-s-alone"])
    def test_half_a_network_is_usage_error(self, capsys, flags, missing):
        argv = ["bound", "--block-size-bytes", "1048576", "--tx-size-bytes", "500", "--block-interval-s", "600", *flags]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: without --preset, the network flags go together; missing {missing}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--block-size-mib", "inf"], "block size must be finite, got inf"),
        (["--block-size-mib", "nan"], "block size must be finite, got nan"),
        (["--block-size-mib", "1e400"], "block size must be finite, got inf"),
        (["--block-size-mib", "1.0000001"], "block size 1.0000001 MiB is not a whole number of bytes"),
        (["--block-size-mib", "1e-300"], "block size 1e-300 MiB is not a whole number of bytes"),
        (["--block-size-mib", "1.0000000000001"], "block size 1.0000000000001 MiB is not a whole number of bytes"),
        (["--block-size-bytes", "1048576", "--confirmations", "0"], "confirmations must be positive and finite, got 0"),
    ], ids=["mib-inf", "mib-nan", "mib-1e400", "mib-fraction", "mib-tiny", "mib-past-a-whole-byte", "confirmations-0"])
    def test_chain_flags_checked_by_the_types_exit_two(self, capsys, flags, message):
        argv = ["bound", "--tx-size-bytes", "500", "--block-interval-s", "600", *flags]
        assert main(argv) == EXIT_INPUT
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--block-size-mib", "2.25", "--block-size-bytes", "5"],
        ["--bandwidth-mbps", "5.7", "--bandwidth-bytes-per-s", "712500"],
    ], ids=["block-size", "bandwidth"])
    def test_one_value_in_two_units_is_usage_error(self, capsys, flags):
        argv = ["bound", "--tx-size-bytes", "500", "--block-interval-s", "60", "--latency-s", "0.1", *flags]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flags[2]}: not allowed with argument {flags[0]}" in err

    @pytest.mark.parametrize("sweep", ["", ",,,"], ids=["empty", "commas"])
    def test_sweep_without_sizes_exits_two(self, tmp_path, capsys, sweep):
        argv = ["bound", "--preset", "bitcoin", "--sweep", sweep, "--sweep-out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_INPUT
        assert "error: block_sizes must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_sweep_out_without_sweep_is_usage_error(self, tmp_path, capsys):
        assert main(["bound", "--preset", "bitcoin", "--sweep-out", str(tmp_path / "s.csv")]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: --sweep-out needs --sweep\n"
        assert not (tmp_path / "s.csv").exists()

    def test_empty_sweep_out_path_is_usage_error(self, capsys):
        assert main(["bound", "--preset", "bitcoin", "--sweep", "65536", "--sweep-out", ""]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: argument --sweep-out: wants a file name, got ''\n"

    @pytest.mark.parametrize("sweep", ["abc", "1.5", "1048576,2e6"])
    def test_non_integer_sweep_is_usage_error(self, tmp_path, capsys, sweep):
        argv = ["bound", "--preset", "bitcoin", "--sweep", sweep, "--sweep-out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"--sweep wants comma-separated integer block sizes, got {sweep!r}" in err

    def test_a_bad_size_after_a_good_one_exits_two_before_any_output(self, tmp_path, capsys):
        argv = ["bound", "--preset", "bitcoin", "--sweep", "1048576,0", "--sweep-out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "error: block_size_bytes must be positive and finite, got 0\n"
        assert not (tmp_path / "s.csv").exists()


class TestShardCommand:
    def test_example_invocation(self):
        outcome = run(["shard", "--t", "15", "--n", "100", "--k", "4"])
        assert outcome.exit_code == EXIT_OK
        assert "CTP 1500.0" in outcome.stdout_report
        before, after = [line for line in outcome.stdout_report.splitlines() if "CTP" in line]
        assert before.split("CTP")[1].strip() == after.split("CTP")[1].strip()

    def test_too_many_shards_exits_two(self, capsys):
        assert main(["shard", "--t", "15", "--n", "100", "--k", "400"]) == EXIT_INPUT

    def test_epsilon_is_not_a_flag(self, capsys):
        # A level's epsilon changes no number the command prints.
        assert main(["shard", "--t", "15", "--n", "100", "--k", "4", "--epsilon", "0.1"]) == EXIT_USAGE
        assert "--epsilon" in capsys.readouterr().err


class TestLightningCommand:
    def test_direct_alpha_one_is_baseline(self, full4_csv):
        outcome = run(["lightning", full4_csv, "--t", "10", "--alpha", "1", "--direct"])
        assert outcome.exit_code == EXIT_OK
        assert "effective throughput: 10.0 tx/s" in outcome.stdout_report
        assert "CTP: 40.0" in outcome.stdout_report

    def test_relay_reduces_onchain_twelve_to_eight(self, full4_csv):
        outcome = run(["lightning", full4_csv, "--t", "10", "--alpha", "2", "--relay", "R"])
        assert outcome.exit_code == EXIT_OK
        assert "on-chain transactions: direct 12 -> plan 8" in outcome.stdout_report
        assert "relay centralization N0: 1" in outcome.stdout_report

    def test_empty_relay_id_is_a_relay(self, tmp_path):
        path = tmp_path / "triangle.csv"
        path.write_text("from,to,count\na,b,1\nb,c,1\na,c,1\n")
        outcome = run(["lightning", str(path), "--t", "10", "--alpha", "2", "--relay", ""])
        assert outcome.exit_code == EXIT_OK
        assert outcome.stdout_report.splitlines()[-2:] == ["relay centralization N0: 1", "CTP: 20.0"]

    def test_mode_flag_required(self, full4_csv, capsys):
        assert main(["lightning", full4_csv, "--t", "10", "--alpha", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["shard", "--t", "nan", "--n", "10", "--k", "2"], "throughput_tps must be positive and finite, got nan"),
    (["shard", "--t", "inf", "--n", "10", "--k", "2"], "throughput_tps must be positive and finite, got inf"),
    (["lightning", "GRAPH", "--t", "nan", "--alpha", "1", "--direct"],
     "throughput_tps must be positive and finite, got nan"),
    (["lightning", "GRAPH", "--t", "1", "--alpha", "nan", "--direct"],
     "batching factor alpha must be >= 1 and finite, got nan"),
    (["lightning", "GRAPH", "--t", "1", "--alpha", "inf", "--relay", "R"],
     "batching factor alpha must be >= 1 and finite, got inf"),
    # t * alpha overflows to inf before the product is taken.
    (["lightning", "GRAPH", "--t", "1e308", "--alpha", "10", "--direct"],
     "ctp factor throughput_tps must be positive and finite, got inf"),
    # Finite inputs whose results overflow.
    (["shard", "--t", "1e308", "--n", "10", "--k", "2"],
     "ctp centralization_n * throughput_tps must be finite, got 10 * 1e+308"),
    (["shard", "--t", "1e308", "--n", "1", "--k", "2", "--node-count", "2"],
     "sharded throughput k * throughput_tps must be finite, got 2 * 1e+308"),
    (["lightning", "GRAPH", "--t", "1e308", "--alpha", "1", "--direct"],
     "ctp centralization_n * throughput_tps must be finite, got 4 * 1e+308"),
])
def test_non_finite_scaling_input_exits_two(full4_csv, capsys, argv, message):
    argv = [full4_csv if arg == "GRAPH" else arg for arg in argv]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


_ROWS = b"".join(b"p%d,1\n" % i for i in range(5000))  # past the first block the reader decodes
_LONG = b'"' + b"x" * 200_000 + b'"'  # over the csv module's field size limit
_CONFIG = json.dumps(BASE_CONFIG).encode()


@pytest.mark.parametrize("command, content, message", [
    ("metrics", b"producer_id,weight\na,1\nb\xff,2\n", ":3: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ("metrics", b"producer_id,weight\n" + _ROWS + b"b\xff,2\n", ":5002: not UTF-8 text: "),
    ("lightning", b"from,to,count\na,b,1\nb,c\xff,2\n", ":3: not UTF-8 text: "),
    ("metrics", b"producer_id\xff,weight\na,1\n", ":1: not UTF-8 text: "),
    ("lightning", b"from,to,count\xff\na,b,1\n", ":1: not UTF-8 text: "),
    ("metrics", b"producer_id,weight\na,1\n" + _LONG + b",2\n", ":3: field larger than field limit"),
    ("lightning", b"from,to,count\na,b,1\n" + _LONG + b",c,2\n", ":3: field larger than field limit"),
    ("simulate", _CONFIG.replace(b'"a"', b'"\xff"'), ": invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    ("simulate", _CONFIG.replace(b'"seed": 5', b'"seed": ' + b"9" * 5000), ": invalid JSON: Exceeds the limit"),
    ("simulate", b"[" * 100_000 + b"]" * 100_000, ": invalid JSON: "),
], ids=["metrics-row", "metrics-late-row", "lightning-row", "metrics-header", "lightning-header",
        "metrics-long-field", "lightning-long-field", "simulate-not-utf8", "simulate-long-integer",
        "simulate-deep-nesting"])
def test_unreadable_input_exits_two(tmp_path, capsys, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    flags = ["--t", "1", "--alpha", "1", "--direct"] if command == "lightning" else []
    assert main([command, str(path), *flags]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{message}"), err
    assert "Traceback" not in err


class TestSimulateCommand:
    def test_summary_matches_library(self, config_json):
        outcome = run(["simulate", config_json])
        assert outcome.exit_code == EXIT_OK
        from chainmeter import load_sim_config, run_simulation

        result = run_simulation(load_sim_config(config_json))
        assert repr(result.observed_tps) in outcome.stdout_report
        assert repr(result.stale_rate) in outcome.stdout_report

    @pytest.mark.parametrize("flags, builds", [
        ([], 1), (["--seed", "7"], 2), (["--seed", "7", "--duration-blocks", "10"], 2),
        (["--seeds", "3..3"], 2), (["--seeds", "3..5"], 4), (["--seeds", "3..5", "--topology-degree", "1"], 5),
    ])
    def test_config_is_built_once_per_run(self, config_json, monkeypatch, flags, builds):
        calls = []
        check = SimConfig.__post_init__
        monkeypatch.setattr(SimConfig, "__post_init__", lambda config: calls.append(check(config)))
        assert run(["simulate", config_json, *flags]).exit_code == EXIT_OK
        assert len(calls) == builds

    def test_same_seed_byte_identical_exports(self, config_json, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", config_json, "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", config_json, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_result(self, config_json, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["simulate", config_json, "--out", str(out1)])
        main(["simulate", config_json, "--seed", "99", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_seed_range_merges_in_order(self, config_json, tmp_path):
        out = tmp_path / "all.json"
        outcome = run(["simulate", config_json, "--seeds", "3..5", "--out", str(out)])
        assert outcome.exit_code == EXIT_OK
        assert [line.split()[1][:-1] for line in outcome.stdout_report.splitlines()
                if line.startswith("seed ")] == ["3", "4", "5"]
        assert len(json.loads(out.read_text())) == 3

    @pytest.mark.parametrize("seeds", ["3..5", "4..4"])
    def test_seed_range_export_matches_oracle(self, config_json, tmp_path, seeds):
        out, expected = tmp_path / "all.json", tmp_path / "expected.json"
        assert main(["simulate", config_json, "--seeds", seeds, "--out", str(out)]) == EXIT_OK
        config = load_sim_config(config_json)
        first, last = map(int, seeds.split(".."))
        results = [run_simulation(replace(config, seed=s)) for s in range(first, last + 1)]
        oracle_export_json(as_records(results[0] if len(results) == 1 else results), str(expected))
        assert out.read_bytes() == expected.read_bytes()

    def test_failing_seed_leaves_no_out_file(self, config_json, tmp_path, monkeypatch):
        real = cli.run_simulation

        def fails_at_seed_four(config):
            if config.seed == 4:
                raise TopologyError("no graph")
            return real(config)

        monkeypatch.setattr(cli, "run_simulation", fails_at_seed_four)
        out = tmp_path / "all.json"
        argv = ["simulate", config_json, "--seeds", "3..5", "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        assert sorted(os.listdir(tmp_path)) == ["config.json"]
        out.write_text("previous\n")
        assert main(argv) == EXIT_RUNTIME
        assert out.read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path)) == ["all.json", "config.json"]

    def test_closed_stdout_is_not_blamed_on_the_out_file(self, config_json, tmp_path, monkeypatch, capsys):
        class ClosedAtFirstSeed(io.StringIO):
            def write(self, text):
                if text.startswith("seed "):
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", ClosedAtFirstSeed())
        out = tmp_path / "all.json"
        assert main(["simulate", config_json, "--seeds", "3..5", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    @pytest.mark.parametrize("with_out", [False, True])
    def test_seed_range_holds_no_earlier_result(self, config_json, tmp_path, monkeypatch, with_out):
        real = cli.run_simulation
        refs, alive = [], []

        def tracked(config):
            alive.append([ref() is not None for ref in refs])
            result = real(config)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "run_simulation", tracked)
        argv = ["simulate", config_json, "--seeds", "3..6"]
        if with_out:
            argv += ["--out", str(tmp_path / "all.json")]
        assert main(argv) == EXIT_OK
        assert alive == [[], [False], [False, False], [False, False, False]]

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "1..2"]], ids=["one_seed", "seed_range"])
    def test_empty_out_path_is_usage_error_before_any_run(self, config_json, capsys, seeds):
        assert main(["simulate", config_json, "--out", "", *seeds]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: argument --out: wants a file name, got ''\n"

    def test_check_bound_passes(self, config_json):
        assert main(["simulate", config_json, "--check-bound"]) == EXIT_OK

    def test_check_bound_exceeded_exits_three(self, tmp_path, capsys):
        # A full 1 MiB block every 0.01 s carries 209715.2 tx/s of 500 bytes,
        # far past the 712500 / 500 = 1425 tx/s the bitcoin network can carry.
        fast = dict(BASE_CONFIG, miners=[{"miner_id": "solo", "hash_power_share": 1.0}],
                    chain={"block_size_bytes": 1_048_576, "tx_size_bytes": 500, "block_interval_s": 0.01})
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast))
        outcome = run(["simulate", str(path), "--check-bound"])
        assert outcome.exit_code == EXIT_RUNTIME
        lines = outcome.stdout_report.splitlines()
        assert lines[0] == "bandwidth ceiling w/s: 1425.0 tx/s"
        assert lines[1].startswith("seed 5: observed_tps 209715.2, ")
        assert capsys.readouterr().err == "error: observed throughput exceeded the w/s ceiling\n"
        assert main(["simulate", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("interval, flags, message", [
        (1e308, [], "{path}: chain: block_interval_s must be <= 9.362985077407895e+304 over 30 blocks"),
        (1e303, ["--duration-blocks", "10000"], "chain: block_interval_s must be <= 2.8088955232223684e+302 over 10000 blocks"),
        (1e303, ["--seeds", "1..2", "--duration-blocks", "10000"],
         "chain: block_interval_s must be <= 2.8088955232223684e+302 over 10000 blocks"),
    ], ids=["config", "override", "seed_range"])
    def test_interval_whose_mining_times_overflow_exits_two_before_any_output(self, tmp_path, capsys, interval,
                                                                               flags, message):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, chain=dict(BASE_CONFIG["chain"], block_interval_s=interval))))
        assert main(["simulate", str(path), *flags, "--out", str(tmp_path / "out.json")]) == EXIT_INPUT
        out, err = capsys.readouterr()
        message = message.format(path=path)
        assert out == "" and err == f"error: {message}, so mining times stay finite, got {interval!r}\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("seeds, message", [
        ("5", "--seeds wants A..B, got '5'"),
        ("a..b", "--seeds wants integer bounds, got 'a..b'"),
        ("5..3", "--seeds range is empty: '5..3'"),
        ("", "--seeds wants A..B, got ''"),
    ], ids=["no-range", "not-integers", "empty", "empty-text"])
    def test_bad_seed_range_is_usage_error(self, config_json, capsys, seeds, message):
        outcome = run(["simulate", config_json, "--seeds", seeds])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_topology_failure_exits_three(self, config_json, tmp_path, capsys):
        bad = json.loads(Path(config_json).read_text())
        bad["miners"] = [{"miner_id": f"m{i:02d}", "hash_power_share": 1 / 24} for i in range(24)]
        bad["topology_degree"] = 22  # valid, but the stub matcher gets stuck at seed 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == EXIT_RUNTIME
        assert "no connected 22-regular graph over 24 nodes" in capsys.readouterr().err

    def test_out_of_memory_exits_three(self, config_json, tmp_path, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run_simulation", exhausted)
        out = tmp_path / "all.json"
        assert main(["simulate", config_json, "--seeds", "1..2", "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: out of memory: the input or run is too large for this machine\n"
        assert not out.exists()

    def test_degree_one_over_more_than_two_miners_exits_two(self, config_json, tmp_path, capsys):
        bad = json.loads(Path(config_json).read_text())
        bad["miners"] = [{"miner_id": f"m{i}", "hash_power_share": 0.25} for i in range(4)]
        bad["topology_degree"] = 1  # 4 nodes, degree 1: always two disjoint edges
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == EXIT_INPUT
        assert "topology_degree: must lie in [2, 3] for 4 miners, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, message", [
        ("net", "latency_s", float("nan"), "latency_s must be finite and >= 0, got nan"),
        ("chain", "block_interval_s", float("inf"), "block_interval_s must be positive and finite, got inf"),
        ("chain", "block_size_bytes", float("inf"), "block_size_bytes must be an integer, got inf"),
    ])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, section, key, value, message):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad[section][key] = value  # json writes NaN / Infinity, which json.load accepts
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_seed_range_streams_single_seed_lines(self, config_json):
        streamed = run(["simulate", config_json, "--seeds", "3..5", "--check-bound"])
        assert streamed.exit_code == EXIT_OK
        expected = []
        for seed in (3, 4, 5):
            single = run(["simulate", config_json, "--seed", str(seed), "--check-bound"])
            assert single.exit_code == EXIT_OK
            lines = single.stdout_report.splitlines()
            expected += lines[:2] if not expected else lines[1:2]
        assert streamed.stdout_report.splitlines() == expected

    def test_seed_and_seeds_is_usage_error(self, config_json, capsys):
        assert main(["simulate", config_json, "--seed", "5", "--seeds", "0..1"]) == EXIT_USAGE
        assert "argument --seeds: not allowed with argument --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, messages", [
        ({"chain": dict(BASE_CONFIG["chain"], confirmations=6.9)},
         ["confirmations must be an integer, got 6.9"]),
        ({"duration_blocks": 10.7, "seed": 3.9, "topology_degree": 8.5},
         ["duration_blocks must be an integer, got 10.7", "topology_degree must be an integer, got 8.5",
          "seed must be an integer, got 3.9"]),
        ({"seed": 6.0}, ["seed must be an integer, got 6.0"]),
    ], ids=["confirmations", "duration-degree-seed", "seed-6.0"])
    def test_non_integer_field_exits_two(self, tmp_path, capsys, changes, messages):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **changes)))
        outcome = run(["simulate", str(path)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        for message in messages:
            assert message in err

    @pytest.mark.parametrize("miner_id, shown", [(None, "None"), ({"x": [1]}, "{'x': [1]}")], ids=["null", "object"])
    def test_non_string_miner_id_exits_two(self, tmp_path, capsys, miner_id, shown):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, miners=[{"miner_id": miner_id, "hash_power_share": 1.0}])))
        outcome = run(["simulate", str(path)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == f"error: {path}: miners[0]: miner_id must be a string, got {shown}\n"

    def test_invalid_override_exits_two_before_any_output(self, config_json, capsys):
        outcome = run(["simulate", config_json, "--duration-blocks", "0"])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert "duration_blocks: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--duration-blocks", "20"]], ids=["plain", "override"])
    def test_config_without_duration_names_the_missing_key(self, tmp_path, capsys, flags):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items() if k != "duration_blocks"}))
        outcome = run(["simulate", str(path), *flags])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == f"error: {path}: duration_blocks: required integer is missing\n"

    @pytest.mark.parametrize("blocks", [10**400, 2**63], ids=["401-digits", "2**63"])
    def test_duration_too_long_for_an_array_exits_two(self, config_json, capsys, blocks):
        outcome = run(["simulate", config_json, "--duration-blocks", str(blocks)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert err == f"error: duration_blocks: must be <= {MAX_DURATION_BLOCKS}, got {blocks}\n"

    def test_seed_range_is_not_listed(self):
        tracemalloc.start()
        try:
            seeds = cli._parse_seeds("0..999999")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seeds == range(1_000_000) and peak < 2**20

    def test_seed_range_past_sys_maxsize_runs_its_first_seed(self, config_json, monkeypatch, capsys):
        def fails(config):
            raise TopologyError(f"stopped at seed {config.seed}")

        monkeypatch.setattr(cli, "run_simulation", fails)
        assert main(["simulate", config_json, "--seeds", f"0..{2**64 - 1}"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: stopped at seed 0\n"

    @pytest.mark.parametrize("seeds, bad", [
        (f"{2**64 - 2}..{2**64}", 2**64), (f"0..{2**64}", 2**64), ("-1..1", -1),
    ], ids=["last-two-valid", "huge-range", "negative-start"])
    def test_seed_range_with_an_invalid_end_exits_two_before_any_run(self, config_json, tmp_path, capsys, seeds, bad):
        out = tmp_path / "r.json"
        outcome = run(["simulate", config_json, f"--seeds={seeds}", "--out", str(out)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == f"error: seed: must be an unsigned 64-bit integer, got {bad}\n"
        assert not out.exists()

    def test_lone_miner_prints_its_share_as_given(self, tmp_path):
        path = tmp_path / "solo.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, miners=[{"miner_id": "solo", "hash_power_share": 0.9}])))
        outcome = run(["simulate", str(path)])
        assert outcome.exit_code == EXIT_OK
        assert outcome.stdout_report.splitlines()[-2:] == ["miner  share  canonical_blocks", "solo  0.9  30"]

    @pytest.mark.parametrize("changes, message", [
        ({"chain": dict(BASE_CONFIG["chain"], tx_size_bytes="513")}, "chain: tx_size_bytes must be a number, got '513'"),
        ({"miners": [dict(BASE_CONFIG["miners"][0], hash_power_share="0.5"), BASE_CONFIG["miners"][1]]},
         "miners[0]: weight of 'a' must be a number, got '0.5'"),
    ], ids=["tx_size_bytes", "hash_power_share"])
    def test_numeric_string_exits_two(self, tmp_path, capsys, changes, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **changes)))
        outcome = run(["simulate", str(path)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("units", [{"block_size_unit": "MiB"}, {}], ids=["mib", "empty"])
    def test_config_with_units_exits_two_naming_it(self, tmp_path, capsys, units):
        # A config holds bytes and bytes per second; it has no units object.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, units=units)))
        outcome = run(["simulate", str(path)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == f"error: {path}: unknown keys: ['units']\n"

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([BASE_CONFIG]))
        outcome = run(["simulate", str(path)])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == f"error: {path}: config must be a JSON object\n"

    @pytest.mark.parametrize("duration_blocks", [0, True])
    def test_invalid_config_exits_two(self, tmp_path, capsys, duration_blocks):
        bad = dict(BASE_CONFIG, duration_blocks=duration_blocks)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == EXIT_INPUT
        assert "Traceback" not in capsys.readouterr().err


def _pinned_config(shares, degree, blocks, seed, interval_s):
    """A config over miners ``m00``, ``m01``, ... at a hop of 1.05 s."""
    return {
        "miners": [{"miner_id": f"m{i:02d}", "hash_power_share": s} for i, s in enumerate(shares)],
        "chain": {"block_size_bytes": 1_000_000, "tx_size_bytes": 500, "block_interval_s": interval_s},
        "net": {"bandwidth_bytes_per_s": 1_000_000, "latency_s": 0.05},
        "topology_degree": degree, "duration_blocks": blocks, "seed": seed,
    }


# SHA-256 of the ``--out`` bytes and of stdout, computed before the engine's
# phase split. Like bench/pinned.json they rest on numpy's PCG64 streams, so
# they must hold on every numpy CI runs, 1.24 included.
PINNED_SIMULATE = {
    "tiered": (
        _pinned_config([0.53 / 4] * 4 + [0.37 / 12] * 12 + [0.10 / 8] * 8, 4, 1500, 7, 2.1),
        "0bfe0445d5f6e09e276940558aa09ab21344df7d9e3cfb123b1ca68cb5dd2308",
        "ebcc7b626d1d75dba6262749cc7747a68f2de4e4fc34e7e1b6376af195cbdca5",
    ),
    "relays": (
        _pinned_config([0.0] * 26 + [0.25] * 4, 3, 400, 11, 2.1),
        "dd93c4cdd457b88873893d720233fabdbb8c99c4f9fc5c5b096b03560a9d4560",
        "c0d3abd5182290c0aed7002dda6af2aadcb6974e24b731f29a138fd99172a4bd",
    ),
    "pair": (
        _pinned_config([0.6, 0.4], 1, 200, 3, 1.0),
        "15dd9d6aebcd005172711531f71a93852a4ee12fd26ab193b76c961b9c6051f6",
        "5bae08350734bc49d80653dc43ed32deaccb1c0e875cd7403efa942a11f296ab",
    ),
}


@pytest.mark.parametrize("name", PINNED_SIMULATE)
def test_simulate_bytes_are_pinned(tmp_path, name):
    config, out_digest, stdout_digest = PINNED_SIMULATE[name]
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    outcome = run(["simulate", str(path), "--out", str(out)])
    assert outcome.exit_code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(outcome.stdout_report.encode()).hexdigest() == stdout_digest


HUGE = str(10**400)


@pytest.mark.parametrize("argv", [
    ["bound", "--preset", "bitcoin", "--confirmations", HUGE],
    ["bound", "--preset", "bitcoin", "--block-size-bytes", HUGE],
    ["bound", "--preset", "bitcoin", "--sweep", HUGE, "--sweep-out", "{tmp}/s.csv"],
    ["shard", "--t", "15", "--n", "100", "--k", HUGE, "--node-count", HUGE],
    ["simulate", "{tmp}/huge.json"],
], ids=["confirmations", "block-size-bytes", "sweep", "shard-k", "config-confirmations"])
def test_int_past_the_float_range_exits_two(tmp_path, capsys, argv):
    # Each of these counts is a factor of a formula, which would overflow.
    huge = json.loads(json.dumps(BASE_CONFIG))
    huge["chain"]["confirmations"] = 10**400
    (tmp_path / "huge.json").write_text(json.dumps(huge))
    outcome = run([arg.format(tmp=tmp_path) for arg in argv])
    assert outcome.exit_code == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "must be positive and finite" in err
    assert not (tmp_path / "s.csv").exists()


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "chainmeter" in capsys.readouterr().out

    def test_subcommand_help_documents_flags(self, capsys):
        for command, flag in [
            ("metrics", "--curve"), ("bound", "--sweep"), ("shard", "--k"),
            ("lightning", "--relay"), ("simulate", "--check-bound"),
        ]:
            assert main([command, "--help"]) == 0
            assert flag in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["metrics", "simulate"])
    def test_tables_read_the_same_on_a_terminal(self, dist_csv, config_json, monkeypatch, command):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        argv = [command, dist_csv if command == "metrics" else config_json]
        piped = run(argv)
        terminal = Terminal()
        monkeypatch.setattr(sys, "stdout", terminal)
        assert main(argv) == piped.exit_code == EXIT_OK
        assert terminal.getvalue() == piped.stdout_report


class TestParserReuse:
    """The parser is built once per process, and no parse leaves anything
    behind for the next one."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_plain_metrics_after_a_given_epsilon_prints_the_default_row(self, dist_csv):
        level = centralization_level(bitcoin_miner_distribution(), 0.1)
        given = run(["metrics", dist_csv, "--epsilon", "0.2"])
        plain = run(["metrics", dist_csv])
        assert given.stdout_report.splitlines()[1].startswith("0.2  ")
        assert plain.stdout_report.splitlines()[1:] == [f"0.1  {level.n}  {level.covered_share!r}"]
        assert cli.build_parser().parse_args(["metrics", dist_csv]).epsilon == [0.1]

    def test_one_seed_after_a_seed_range_runs_alone(self, config_json):
        assert run(["simulate", config_json, "--seeds", "1..2"]).exit_code == EXIT_OK
        outcome = run(["simulate", config_json, "--seed", "3"])
        seeds = [line.split(":")[0] for line in outcome.stdout_report.splitlines() if line.startswith("seed ")]
        assert outcome.exit_code == EXIT_OK and seeds == ["seed 3"]

    def test_a_usage_error_leaves_the_next_parse_alone(self, dist_csv):
        before = run(["metrics", dist_csv])
        assert run(["metrics", dist_csv, "--epsilon"]).exit_code == EXIT_USAGE
        assert run(["metrics", dist_csv]) == before and before.exit_code == EXIT_OK


class TestPackageSurface:
    def test_every_exported_name_resolves(self):
        missing = [name for name in chainmeter.__all__ if not hasattr(chainmeter, name)]
        assert missing == []

    @pytest.mark.parametrize("argv, code", [
        (["bound", "--preset", "bitcoin"], EXIT_OK),
        (["bound", "--tx-size-bytes", "500"], EXIT_USAGE),
        (["metrics", "absent.csv"], EXIT_INPUT),
    ])
    def test_entrypoint_exits_with_main_code(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["chainmeter", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
        assert exit_info.value.code == code
