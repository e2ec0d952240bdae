"""One number rule at every boundary that takes a number.

``errors.real`` decides what a real is and ``errors.integer`` what an
integer is. Each row below is one boundary: a call taking the value, the
name its refusal must carry, and which rule applies. A boolean (Python's or
numpy's), a numeric string and None are refused everywhere, with
``InputError`` or a listed ``ValidationError`` problem naming the field;
ints, numpy numbers and floats give the result of the equal float (or, for
an integer field, of the equal int).
"""

import json
import re

import numpy as np
import pytest

from chainmeter import (
    ChainParams,
    InputError,
    NetworkParams,
    PaymentGraph,
    ProducerDistribution,
    ValidationError,
    centralization_level,
    ctp,
    lightning_analysis,
    load_sim_config,
    max_throughput,
    propagation_delay,
    shard_analysis,
    throughput_upper_bound,
)
from chainmeter.errors import plain, positive, real

CHAIN = ChainParams(1000, 250.0, 600.0)
NET = NetworkParams(712_500.0, 0.1)
GRAPH = PaymentGraph(("a", "b"), ("b", "c"), (1, 2))
DIST = ProducerDistribution(("a", "b"), (3.0, 1.0))

BAD = (True, np.bool_(True), "513", None)
# A real field takes these and gives the result of float(value).
REAL = (3, np.int64(3), np.float32(0.5), 3.0)
# An integer field takes these and gives the result of int(value); it
# refuses a float even when the float is whole.
INTEGER = (3, np.int64(3))
NOT_INTEGER = (3.0, np.float32(3.0))


def chain(**fields):
    return ChainParams(**{"block_size_bytes": 1000, "tx_size_bytes": 250.0, "block_interval_s": 600.0, **fields})


def net(**fields):
    return NetworkParams(**{"bandwidth_bytes_per_s": 712_500.0, "latency_s": 0.1, **fields})


def shard(**fields):
    return shard_analysis(**{"throughput_tps": 7.0, "centralization_n": 4, "node_count": 10, "k": 3, **fields})


# (id, call, name in the refusal, rule, values that must pass)
BOUNDARIES = [
    ("ChainParams.block_size_bytes", lambda v: chain(block_size_bytes=v, tx_size_bytes=1.0),
     "block_size_bytes", int, INTEGER),
    ("ChainParams.tx_size_bytes", lambda v: chain(tx_size_bytes=v), "tx_size_bytes", float, REAL),
    ("ChainParams.block_interval_s", lambda v: chain(block_interval_s=v), "block_interval_s", float, REAL),
    ("ChainParams.confirmations", lambda v: chain(confirmations=v), "confirmations", int, INTEGER),
    ("NetworkParams.bandwidth_bytes_per_s", lambda v: net(bandwidth_bytes_per_s=v), "bandwidth_bytes_per_s", float, REAL),
    ("NetworkParams.latency_s", lambda v: net(latency_s=v), "latency_s", float, REAL),
    ("shard_analysis.throughput_tps", lambda v: shard(throughput_tps=v), "throughput_tps", float, REAL),
    ("shard_analysis.centralization_n", lambda v: shard(centralization_n=v), "centralization level", int, INTEGER),
    ("shard_analysis.node_count", lambda v: shard(node_count=v, centralization_n=1), "node_count", int, INTEGER),
    ("ctp.centralization_n", lambda v: ctp(v, 4.0), "centralization_n", float, REAL),
    ("ctp.throughput_tps", lambda v: ctp(4.0, v), "throughput_tps", float, REAL),
    ("lightning_analysis.throughput_tps", lambda v: lightning_analysis(v, GRAPH, None, 2.0),
     "throughput_tps", float, REAL),
    ("lightning_analysis.alpha", lambda v: lightning_analysis(7.0, GRAPH, None, v),
     "alpha", float, (3, np.int64(3), np.float32(1.5), 3.0)),
    ("centralization_level.epsilon", lambda v: centralization_level(DIST, v), "epsilon", float,
     (0, np.int64(0), np.float32(0.5), 0.0)),
    ("throughput_upper_bound.tx_size_bytes", lambda v: throughput_upper_bound(NET, v), "tx_size_bytes", float, REAL),
    ("shard_analysis.k", lambda v: shard(k=v), "shard count", int, INTEGER),
    ("propagation_delay.hops", lambda v: propagation_delay(v, CHAIN, NET), "hops", int, INTEGER),
    ("ProducerDistribution.weight", lambda v: ProducerDistribution(("a", "b"), (1.0, v)), "weight of 'b'", float, REAL),
]


@pytest.mark.parametrize("call, name, rule, good", [row[1:] for row in BOUNDARIES], ids=[row[0] for row in BOUNDARIES])
class TestEveryBoundary:
    def test_refuses_what_is_not_a_number(self, call, name, rule, good):
        for value in BAD + (NOT_INTEGER if rule is int else ()):
            refusal = f"{re.escape(name)} must be (an? )?(integer|number)s?, got {re.escape(repr(value))}"
            with pytest.raises(InputError, match=refusal):
                call(value)

    def test_numbers_of_any_type_give_the_result_of_the_equal_one(self, call, name, rule, good):
        for value in good:
            assert call(value) == call(rule(value)), value


# The boundary whose value no formula multiplies or divides by, so an int
# past the float range needs no refusal there: a node count is only compared
# with the centralization level and the shard count.
FACTORS = [row for row in BOUNDARIES if row[0] != "shard_analysis.node_count"]


@pytest.mark.parametrize("call, name", [row[1:3] for row in FACTORS], ids=[row[0] for row in FACTORS])
def test_an_int_past_the_float_range_is_refused(call, name):
    # epsilon's range is [0, 1), and its refusal says it "must lie in" it.
    refusal = f"{re.escape(name)} must (be|lie in) "
    with pytest.raises(InputError, match=refusal):
        call(10**400)


def test_the_boundaries_no_formula_reads_pass_a_huge_int_on():
    assert shard(node_count=10**400) == shard()


# (id, a formula reading the field): a real field computes with the float
# ``real`` gives, so a numpy real gives the result of the equal Python float.
FORMULAS = [
    ("ChainParams.tx_size_bytes", lambda v: max_throughput(chain(tx_size_bytes=v))),
    ("ChainParams.block_interval_s", lambda v: max_throughput(chain(block_interval_s=v))),
    ("NetworkParams.bandwidth_bytes_per_s", lambda v: propagation_delay(1, CHAIN, net(bandwidth_bytes_per_s=v))),
    ("NetworkParams.latency_s", lambda v: propagation_delay(1, CHAIN, net(latency_s=v))),
    ("shard_analysis.throughput_tps", lambda v: shard(throughput_tps=v).sharded_tps),
    ("ctp.centralization_n", lambda v: ctp(v, 3.0)),
    ("ctp.throughput_tps", lambda v: ctp(3.0, v)),
    ("lightning_analysis.throughput_tps", lambda v: lightning_analysis(v, GRAPH, None, 2.0).effective_tps),
    ("lightning_analysis.alpha", lambda v: lightning_analysis(7.0, GRAPH, None, v).effective_tps),
]


@pytest.mark.parametrize("formula", [row[1] for row in FORMULAS], ids=[row[0] for row in FORMULAS])
def test_numpy_reals_compute_as_python_floats(formula):
    # 1.1 is not a float32: float32 arithmetic would round otherwise.
    for value in (np.float32(1.1), np.float64(1.1), np.int64(3)):
        result = formula(value)
        assert type(result) is float and result == formula(float(value)), value


def test_ints_and_floats_are_kept_as_given():
    # So what prints from a field, and what a config exports, stays the same.
    params = [(chain(tx_size_bytes=3, block_interval_s=0.5), ("tx_size_bytes", "block_interval_s")),
              (net(bandwidth_bytes_per_s=3, latency_s=0.5), ("bandwidth_bytes_per_s", "latency_s"))]
    for obj, names in params:
        assert [repr(getattr(obj, name)) for name in names] == ["3", "0.5"]
    assert repr(shard(throughput_tps=3, k=1).sharded_tps) == "3"
    assert repr(ctp(3, 4)) == "12"


def test_real_rule():
    for value in REAL + (float("nan"), -float("inf"), np.float64(2.5)):
        assert type(real(value, "x")) is float
        assert real(value, "x") == float(value) or value != value
    # An int past the float range is a number: the caller's range test refuses it.
    assert (real(10**400, "x"), real(-10**400, "x")) == (float("inf"), -float("inf"))
    for value in BAD + (1j, [1.0], np.array([1.0])):
        with pytest.raises(InputError) as info:
            real(value, "x", index=4)
        assert str(info.value) == f"x must be a number, got {value!r}" and info.value.index == 4


def test_positive_rule():
    for value in (3, np.int64(3), np.float32(0.5), 0.5, 5e-324):
        assert positive(value, "x") == plain(value, "x") and type(positive(value, "x")) is type(plain(value, "x"))
    for value in (0, -1, 0.0, -0.5, float("nan"), float("inf"), 10**400, -10**400, np.float64("inf")):
        with pytest.raises(InputError) as info:
            positive(value, "x")
        assert str(info.value) == f"x must be positive and finite, got {value!r}"
    for value in BAD:
        with pytest.raises(InputError, match="^x must be a number"):
            positive(value, "x")


BASE_CONFIG = {
    "miners": [{"miner_id": "a", "hash_power_share": 1.0}],
    "chain": {"block_size_bytes": 1000, "tx_size_bytes": 250.0, "block_interval_s": 600.0, "confirmations": 6},
    "net": {"bandwidth_bytes_per_s": 712_500.0, "latency_s": 0.1},
    "duration_blocks": 5,
    "topology_degree": 2,
    "seed": 1,
}

# (section, field, name in the refusal, rule, values that must pass); JSON has
# no numpy types, so a config file is tried with JSON's own values.
CONFIG_FIELDS = [
    ("chain", "block_size_bytes", "chain: block_size_bytes", int, (1000,)),
    ("chain", "tx_size_bytes", "chain: tx_size_bytes", float, (3, 3.0, 0.5)),
    ("chain", "block_interval_s", "chain: block_interval_s", float, (3, 3.0, 0.5)),
    ("chain", "confirmations", "chain: confirmations", int, (3,)),
    ("net", "bandwidth_bytes_per_s", "net: bandwidth_bytes_per_s", float, (3, 3.0, 0.5)),
    ("net", "latency_s", "net: latency_s", float, (3, 3.0, 0.5)),
    ("miners", "hash_power_share", "miners[0]: weight of 'a'", float, (3, 3.0, 0.5)),
    (None, "duration_blocks", "duration_blocks", int, (3,)),
    (None, "topology_degree", "topology_degree", int, (3,)),
    (None, "seed", "seed", int, (3,)),
]


def config_with(tmp_path, section, field, value):
    data = json.loads(json.dumps(BASE_CONFIG))
    target = data["miners"][0] if section == "miners" else data[section] if section else data
    target[field] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("section, field, name, rule, good", CONFIG_FIELDS, ids=[row[1] for row in CONFIG_FIELDS])
class TestEveryConfigField:
    def test_refuses_what_is_not_a_number(self, tmp_path, section, field, name, rule, good):
        for value in (True, False, "513", None) + ((3.0,) if rule is int else ()):
            refusal = f"{re.escape(name)} must be an? (integer|number), got {re.escape(repr(value))}"
            with pytest.raises(ValidationError, match=refusal):
                load_sim_config(config_with(tmp_path, section, field, value))

    def test_numbers_of_any_type_give_the_result_of_the_equal_one(self, tmp_path, section, field, name, rule, good):
        for value in good:
            assert (load_sim_config(config_with(tmp_path, section, field, value))
                    == load_sim_config(config_with(tmp_path, section, field, rule(value)))), value


def test_config_lists_every_violation_when_a_section_fails(tmp_path):
    data = json.loads(json.dumps(BASE_CONFIG))
    data["chain"]["tx_size_bytes"] = True
    data["miners"] = [{"miner_id": "a", "hash_power_share": 0.5}, {"miner_id": "b", "hash_power_share": False}]
    data["duration_blocks"] = True
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as info:
        load_sim_config(str(path))
    assert str(info.value) == (
        f"{path}: chain: tx_size_bytes must be a number, got True; "
        "miners[1]: weight of 'b' must be a number, got False; "
        "duration_blocks must be an integer, got True; "
        "topology_degree: must lie in [1, 1] for 2 miners, got 2"
    )


def test_config_names_the_first_miner_fault_beside_every_other_field(tmp_path):
    data = dict(BASE_CONFIG, duration_blocks=0, miners=[
        {"miner_id": m, "hash_power_share": w} for m, w in (("a", True), ("b", False), ("c", "0.5"), ("d", 0.5))])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    message = f"{path}: miners[0]: weight of 'a' must be a number, got True; duration_blocks: must be >= 1, got 0"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_sim_config(str(path))


def test_config_number_past_the_float_range_is_out_of_range(tmp_path):
    with pytest.raises(ValidationError, match=f"chain: tx_size_bytes must be positive and finite, got {10**400}"):
        load_sim_config(config_with(tmp_path, "chain", "tx_size_bytes", 10**400))
    with pytest.raises(ValidationError, match=r"miners\[0\]: weight of 'a' must be finite and >= 0, got inf"):
        load_sim_config(config_with(tmp_path, "miners", "hash_power_share", 10**400))


CONFIG_REALS = [
    pytest.param(section, field, value, id=f"{field}={label}")
    for section, field in (("chain", "tx_size_bytes"), ("chain", "block_interval_s"),
                           ("net", "bandwidth_bytes_per_s"), ("net", "latency_s"))
    for value, label in ((-1, "-1"), (0, "0"), (10**400, "10**400")) if (field, value) != ("latency_s", 0)
]


@pytest.mark.parametrize("section, field, value", CONFIG_REALS)
def test_a_config_refuses_a_chain_or_net_real_in_the_types_words(tmp_path, section, field, value):
    # A JSON integer reaches the type as the int a library caller passes.
    build = chain if section == "chain" else net
    with pytest.raises(InputError) as library:
        build(**{field: value})
    path = config_with(tmp_path, section, field, value)
    with pytest.raises(ValidationError) as config:
        load_sim_config(path)
    assert str(config.value) == f"{path}: {section}: {library.value}"
