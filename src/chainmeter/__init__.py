"""chainmeter: blockchain decentralization and scalability analysis.

The toolkit answers four questions about a blockchain:

- How concentrated is block production? ``metrics`` computes centralization
  levels (fewest top producers covering a 1-epsilon share) and the
  central-trust level implied by a consensus protocol's fault threshold.
- How fast can it go? ``bounds`` evaluates confirmation latency, the
  protocol-rate throughput b/(s*p), and the bandwidth ceiling w/s that no
  block size can beat.
- What do scaling tricks trade away? ``scaling`` models even sharding and
  Lightning-style payment channels through the centralization-throughput
  product.
- Does the ceiling hold in a live network? ``simnet`` is a deterministic
  discrete-event simulator of proof-of-work mining with gossip propagation,
  forks, and stale blocks.

``ingest`` reads/writes the CSV and JSON formats, ``presets`` carries the
Bitcoin/Ethereum parameter sets and reference mining-skew distributions, and
``cli`` wires everything into the ``chainmeter`` command.
"""

from chainmeter.bounds import (
    ChainParams,
    NetworkParams,
    block_capacity,
    max_throughput,
    propagation_delay,
    propagation_limited_throughput,
    throughput_sweep,
    throughput_upper_bound,
    tx_latency,
)
from chainmeter.errors import (
    ChainmeterError,
    FormatError,
    InputError,
    ParseError,
    TopologyError,
    ValidationError,
)
from chainmeter.ingest import (
    export_report,
    load_distribution,
    load_payment_graph,
    load_sim_config,
)
from chainmeter.metrics import (
    CentralizationLevel,
    ConsensusKind,
    ProducerDistribution,
    central_trust,
    centralization_level,
    cumulative_share_curve,
)
from chainmeter.presets import (
    PRESETS,
    bitcoin_miner_distribution,
    ethereum_miner_distribution,
    preset,
)
from chainmeter.scaling import (
    LightningAnalysis,
    PaymentGraph,
    ShardingAnalysis,
    ctp,
    lightning_analysis,
    onchain_tx_count,
    shard_analysis,
)
from chainmeter.simnet import (
    BlockTable,
    BoundCheck,
    SimConfig,
    SimResult,
    bound_violation_check,
    produced_distribution,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "BlockTable",
    "BoundCheck",
    "CentralizationLevel",
    "ChainParams",
    "ChainmeterError",
    "ConsensusKind",
    "FormatError",
    "InputError",
    "LightningAnalysis",
    "NetworkParams",
    "PRESETS",
    "ParseError",
    "PaymentGraph",
    "ProducerDistribution",
    "ShardingAnalysis",
    "SimConfig",
    "SimResult",
    "TopologyError",
    "ValidationError",
    "bitcoin_miner_distribution",
    "block_capacity",
    "bound_violation_check",
    "central_trust",
    "centralization_level",
    "ctp",
    "cumulative_share_curve",
    "ethereum_miner_distribution",
    "export_report",
    "lightning_analysis",
    "load_distribution",
    "load_payment_graph",
    "load_sim_config",
    "max_throughput",
    "onchain_tx_count",
    "preset",
    "produced_distribution",
    "propagation_delay",
    "propagation_limited_throughput",
    "run_simulation",
    "shard_analysis",
    "throughput_sweep",
    "throughput_upper_bound",
    "tx_latency",
]
