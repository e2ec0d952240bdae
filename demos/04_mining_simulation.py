"""Does the bandwidth ceiling survive contact with a live network?

The simulator mines proof-of-work blocks on a global Poisson clock, floods
them over a random regular peer graph at l + b/w per hop, and lets forks
happen. Three things to watch: observed throughput tracks b/(s*p) while the
interval dwarfs the propagation floor, collapses against the closed form as p
approaches the floor (forks eat the budget), and never crosses w/s.

Run: python demos/04_mining_simulation.py
"""

from dataclasses import replace

from chainmeter import (
    NetworkParams,
    ProducerDistribution,
    SimConfig,
    bound_violation_check,
    centralization_level,
    max_throughput,
    preset,
    propagation_delay,
    run_simulation,
    throughput_upper_bound,
)


def main() -> None:
    chain, net = preset("bitcoin")
    miners = ProducerDistribution(tuple(f"m{i:02d}" for i in range(20)), (0.05,) * 20)
    cap = throughput_upper_bound(net, chain.tx_size_bytes)

    print("20 equal miners on the bitcoin preset, 3000 blocks, seed 0")
    config = SimConfig(miners=miners, chain=chain, net=net,
                       duration_blocks=3000, topology_degree=8, seed=0)
    result = run_simulation(config)
    print(f"  protocol rate b/(s*p): {max_throughput(chain):.3f} tx/s")
    print(f"  observed:              {result.observed_tps:.3f} tx/s")
    print(f"  stale rate:            {result.stale_rate:.2%}")

    print("\nSqueezing the interval toward the propagation floor l + b/w:")
    floor = propagation_delay(1, chain, net)
    print("  p/floor   observed tx/s   stale    ceiling w/s")
    for ratio in (400, 40, 4, 1):
        tight = replace(chain, block_interval_s=ratio * floor)
        run = run_simulation(SimConfig(miners=miners, chain=tight, net=net,
                                       duration_blocks=1500, topology_degree=8, seed=0))
        check = bound_violation_check(run, net, tight)
        flag = "VIOLATED" if check.violated else "holds"
        print(f"  {ratio:>7}   {run.observed_tps:>13.1f}   {run.stale_rate:>6.2%}   {flag} ({cap:.0f})")
    print("Forks climb as p falls, and the ceiling is never crossed.")

    print("\nSkewed hash power (one miner at 40%) feeds straight into the metrics:")
    shares = [0.4] + [0.6 / 9] * 9
    skew = SimConfig(
        miners=ProducerDistribution(tuple(f"m{i}" for i in range(len(shares))), tuple(shares)),
        chain=chain, net=NetworkParams(1e7, 0.01),
        duration_blocks=8000, topology_degree=4, seed=7,
    )
    dist = run_simulation(skew).per_miner_canonical
    total = sum(dist.weights)
    for miner, count, share in zip(dist.ids, dist.weights, shares):
        print(f"  {miner:<4} power {share:.3f} -> canonical share {count / total:.3f}")
    print(f"  N_0.49 of the canonical blocks: {centralization_level(dist, 0.49).n} "
          "(3 from the configured powers)")

    again = run_simulation(skew)
    print(f"\nDeterminism: rerunning the same config gives an identical result: "
          f"{again == run_simulation(skew)}")


if __name__ == "__main__":
    main()
