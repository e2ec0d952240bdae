"""What do sharding and payment channels actually trade away?

The centralization-throughput product (CTP) makes the trade visible. Even
k-way sharding multiplies throughput by k and divides the centralization
level by k: the product does not move. Payment channels genuinely add
throughput through off-chain batching (factor alpha), but squeezing on-chain
transactions down to one channel per client requires one relay everyone
routes through - relay centralization collapses from n to 1.

Run: python demos/03_scaling_models.py
"""

from itertools import combinations

from chainmeter import PaymentGraph, lightning_analysis, onchain_tx_count, shard_analysis


def full_graph(n: int) -> PaymentGraph:
    clients = [f"c{i}" for i in range(n)]
    sources, targets = zip(*combinations(clients, 2))
    return PaymentGraph(frozenset(clients), sources, targets, (4,) * len(sources))


def main() -> None:
    print("Even sharding of a 15 tx/s chain with N_0.1 = 100:")
    print("  k    tx/s   N/k     CTP")
    for k in (1, 2, 4, 10, 25):
        a = shard_analysis(15.0, 100, 100, k)
        print(f"  {k:<3d}  {a.sharded_tps:<6g} {a.sharded_centralization:<6g}  {a.ctp_after:g}")
    print("Throughput scales, centralization shrinks, the product never moves.")

    print("\nPayment channels on a fully connected 4-client graph, alpha = 20:")
    graph = full_graph(4)
    for label, relay_id in [("direct channels", None), ("one relay", "hub")]:
        a = lightning_analysis(15.0, graph, relay_id, alpha=20.0)
        print(f"  {label:<16} on-chain {a.onchain_plan:>2}  tx/s {a.effective_tps:>6.1f}  "
              f"N0 {a.relay_centralization_n0}  CTP {a.ctp:.1f}")

    print("\nWhen does the relay pay off? Only on dense graphs:")
    print("  graph                     pairs  active  direct  relayed")
    cases = {
        "single pair": PaymentGraph(frozenset("ab"), ("a",), ("b",), (9,)),
        "three disjoint pairs": PaymentGraph(frozenset("abcdef"), ("a", "c", "e"), ("b", "d", "f"), (1, 1, 1)),
        "fully connected n=6": full_graph(6),
    }
    for label, graph in cases.items():
        direct = onchain_tx_count(graph, None)
        relayed = onchain_tx_count(graph, "hub")
        print(f"  {label:<25} {graph.channel_pair_count():>5}  {len(graph.active_clients()):>6}"
              f"  {direct:>6}  {relayed:>7}")
    print("A channel per active client beats a channel per pair exactly when")
    print("there are at least as many funded pairs as active clients.")


if __name__ == "__main__":
    main()
