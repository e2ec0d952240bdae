"""How fast can a decentralized chain go?

Confirmation latency is C*p and the protocol rate is b/(s*p). The interval p
cannot shrink below the time a block needs to reach peers, l + b/w, so for
fixed network parameters the reachable throughput is b/(s*(l + b/w)) - which
grows with the block size but can never pass the ceiling w/s. Growing blocks
buys less and less: the ceiling is the access bandwidth divided by the
transaction size, full stop.

Run: python demos/02_throughput_bounds.py
"""

from chainmeter import (
    block_capacity,
    max_throughput,
    preset,
    propagation_limited_throughput,
    throughput_sweep,
    throughput_upper_bound,
    tx_latency,
)


def main() -> None:
    for name in ("bitcoin", "ethereum"):
        chain, net = preset(name)
        print(f"\n{name}: b={chain.block_size_bytes} B, s={chain.tx_size_bytes} B, "
              f"p={chain.block_interval_s} s, C={chain.confirmations}, "
              f"w={net.bandwidth_bytes_per_s} B/s, l={net.latency_s} s")
        print(f"  confirmation latency      {tx_latency(chain):>10.1f} s")
        print(f"  block capacity            {block_capacity(chain):>10.1f} tx")
        print(f"  protocol throughput       {max_throughput(chain):>10.2f} tx/s")
        print(f"  at the interval floor     {propagation_limited_throughput(chain, net):>10.2f} tx/s")
        print(f"  bandwidth ceiling w/s     {throughput_upper_bound(net, chain.tx_size_bytes):>10.2f} tx/s")

    chain, net = preset("bitcoin")
    cap = throughput_upper_bound(net, chain.tx_size_bytes)
    print("\nGrowing Bitcoin's block size toward the ceiling "
          f"(w/s = {cap:.1f} tx/s at 5.7 Mbps):")
    sizes = [2**k for k in range(17, 33, 2)]
    print("  block size        tx/s     % of ceiling")
    for size, tps in zip(sizes, throughput_sweep(chain, net, sizes)):
        print(f"  {size:>12,} B  {tps:>8.1f}   {100 * tps / cap:>6.2f}%")
    print("Each doubling beyond a few MiB buys almost nothing: the ceiling binds.")


if __name__ == "__main__":
    main()
