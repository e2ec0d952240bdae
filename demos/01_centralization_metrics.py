"""How concentrated is block production?

A chain is well decentralized only if you need MANY producers to assemble a
given share of its blocks. The centralization level N_eps is the smallest
number of top producers covering a 1-eps fraction of production; central
trust is that level at the epsilon implied by the consensus protocol's fault
threshold (0.49 for Nakamoto's 51% majority, 1/3 for PBFT's 2/3 quorum).

Run: python demos/01_centralization_metrics.py
"""

from chainmeter import (
    ConsensusKind,
    ProducerDistribution,
    central_trust,
    centralization_level,
    cumulative_share_curve,
)
from chainmeter.presets import bitcoin_miner_distribution, ethereum_miner_distribution


def describe(name: str, dist: ProducerDistribution) -> None:
    print(f"\n{name} ({len(dist.ids)} producers)")
    print("  eps    N_eps  covered")
    for eps in (0.0, 0.1, 0.33, 0.47, 0.49):
        level = centralization_level(dist, eps)
        print(f"  {eps:<5g}  {level.n:<5d}  {level.covered_share:.4f}")
    nakamoto = central_trust(dist, ConsensusKind.NAKAMOTO)
    pbft = central_trust(dist, ConsensusKind.PBFT)
    print(f"  central trust: Nakamoto N = {nakamoto.n}, PBFT N = {pbft.n}")


def main() -> None:
    print("Reference mining-power skews (2018 measurements, synthetic block counts)")
    btc = bitcoin_miner_distribution()
    eth = ethereum_miner_distribution()
    describe("bitcoin-shaped", btc)
    describe("ethereum-shaped", eth)

    print("\nTakeaway: 16 entities cover 90% of Bitcoin blocks and a 51% majority")
    print("needs only 4 of them; Ethereum concentrates even harder (11 and 3).")

    print("\nCumulative-share curve, bitcoin-shaped (first 20 ranks):")
    curve = cumulative_share_curve(btc)  # curve[k - 1]: the top k's share
    for rank, share in enumerate(curve[:20], start=1):
        print(f"  top {rank:>2}  {'#' * int(share * 50):<50} {share:.3f}")

    print("\nContrast: a uniform 100-producer chain needs 90 producers for the")
    uniform = ProducerDistribution(tuple(f"p{i}" for i in range(100)), (1.0,) * 100)
    level = centralization_level(uniform, 0.1)
    print(f"same 90% share: N_0.1 = {level.n}.")


if __name__ == "__main__":
    main()
