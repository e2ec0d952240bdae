from dataclasses import replace
import json
import os
from pathlib import Path
import sys
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
from chainmeter.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, run
from chainmeter.presets import bitcoin_miner_distribution

from helpers import as_records, oracle_export_json

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

    def test_sweep_output_strictly_increasing(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sizes = ",".join(str(2**k) for k in range(16, 24))
        outcome = run(["bound", "--preset", "bitcoin", "--sweep", sizes, "--sweep-out", str(sweep)])
        assert outcome.exit_code == EXIT_OK
        tps = [float(line.split(",")[1]) for line in sweep.read_text().splitlines()[1:]]
        assert all(a < b for a, b in zip(tps, tps[1:]))

    def test_sweep_without_out_is_usage_error(self, capsys):
        assert main(["bound", "--preset", "bitcoin", "--sweep", "65536"]) == EXIT_USAGE

    def test_non_positive_param_exits_two(self, capsys):
        code = main(["bound", "--block-size-bytes", "-5", "--tx-size-bytes", "500",
                     "--block-interval-s", "600"])
        assert code == EXIT_INPUT

    def test_nan_latency_exits_two(self, capsys):
        assert main(["bound", "--preset", "bitcoin", "--latency-s", "nan"]) == EXIT_INPUT
        assert "error: latency_s must be finite and >= 0, got nan" in capsys.readouterr().err

    def test_missing_chain_flags_is_usage_error(self):
        assert main(["bound", "--tx-size-bytes", "500"]) == EXIT_USAGE

    @pytest.mark.parametrize("flags, message", [
        (["--block-size-mib", "inf"], "block size must be finite, got inf"),
        (["--block-size-mib", "nan"], "block size must be finite, got nan"),
        (["--block-size-mib", "1e400"], "block size must be finite, got inf"),
        (["--block-size-mib", "1.0000001"], "block size 1.0000001 MiB is not a whole number of bytes"),
        (["--block-size-bytes", "1048576", "--confirmations", "0"], "confirmations must be positive and finite, got 0"),
    ], ids=["mib-inf", "mib-nan", "mib-1e400", "mib-fraction", "confirmations-0"])
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

    @pytest.mark.parametrize("sweep", ["abc", "1.5", "1048576,2e6"])
    def test_non_integer_sweep_is_usage_error(self, tmp_path, capsys, sweep):
        argv = ["bound", "--preset", "bitcoin", "--sweep", sweep, "--sweep-out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_USAGE
        assert f"--sweep wants comma-separated integer block sizes, got {sweep!r}" in capsys.readouterr().err


class TestShardCommand:
    def test_example_invocation(self):
        outcome = run(["shard", "--t", "15", "--n", "100", "--k", "4"])
        assert outcome.exit_code == EXIT_OK
        assert "CTP 1500.0" in outcome.stdout_report
        before, after = [line for line in outcome.stdout_report.splitlines() if "CTP" in line]
        assert before.split("CTP")[1].strip() == after.split("CTP")[1].strip()

    def test_too_many_shards_exits_two(self, capsys):
        assert main(["shard", "--t", "15", "--n", "100", "--k", "400"]) == EXIT_INPUT


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
])
def test_non_finite_scaling_input_exits_two(full4_csv, capsys, argv, message):
    argv = [full4_csv if arg == "GRAPH" else arg for arg in argv]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulateCommand:
    def test_summary_matches_library(self, config_json):
        outcome = run(["simulate", config_json])
        assert outcome.exit_code == EXIT_OK
        from chainmeter import load_sim_config, run_simulation

        result = run_simulation(load_sim_config(config_json))
        assert repr(result.observed_tps) in outcome.stdout_report
        assert repr(result.stale_rate) in outcome.stdout_report

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

    def test_check_bound_passes(self, config_json):
        assert main(["simulate", config_json, "--check-bound"]) == EXIT_OK

    def test_topology_failure_exits_three(self, config_json, tmp_path, capsys):
        bad = json.loads(Path(config_json).read_text())
        bad["miners"] = [{"miner_id": f"m{i:02d}", "hash_power_share": 1 / 24} for i in range(24)]
        bad["topology_degree"] = 22  # valid, but the stub matcher gets stuck at seed 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == EXIT_RUNTIME
        assert "no connected 22-regular graph over 24 nodes" in capsys.readouterr().err

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
        ("chain", "block_size_bytes", float("inf"), "block size must be finite, got inf"),
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

    def test_invalid_override_exits_two_before_any_output(self, config_json, capsys):
        outcome = run(["simulate", config_json, "--duration-blocks", "0"])
        assert (outcome.exit_code, outcome.stdout_report) == (EXIT_INPUT, "")
        assert "duration_blocks: must be >= 1, got 0" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        bad = dict(BASE_CONFIG, duration_blocks=0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", str(path)]) == EXIT_INPUT


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
