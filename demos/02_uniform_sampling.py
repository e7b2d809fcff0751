"""Draw regular graphs by rejection from the configuration model and measure
the empirical distance to the exactly counted uniform law."""

from collections import Counter

from hypercouple import (
    OrderedHypergraph,
    Params,
    Pcg64Stream,
    RngStream,
    completion_count,
    sample_regular,
)
from hypercouple.stats import tv_distance_uniform

TRIALS = 20_000


def main():
    params = Params(6, 3, 2)
    family = completion_count(OrderedHypergraph(6, 3), params)
    stream = Pcg64Stream.of(RngStream(2024))

    counts = Counter()
    for _ in range(TRIALS):
        g = sample_regular(OrderedHypergraph(6, 3), params, stream)
        counts[tuple(sorted(g.edge_set))] += 1

    tv = tv_distance_uniform(counts, family)
    print(f"{TRIALS} draws over a family of {family} graphs")
    print(f"support seen: {len(counts)} / {family}")
    print(f"TV distance to uniform: {tv:.4f}")
    print(f"most/least frequent: {max(counts.values())} / {min(counts.values())}"
          f" (uniform would be {TRIALS / family:.0f})")

    # the same machinery conditions on a prefix: restriction stays uniform
    prefix = OrderedHypergraph(6, 3, [(1, 2, 3)])
    sub = completion_count(prefix, params)
    counts = Counter()
    for _ in range(TRIALS // 4):
        g = sample_regular(prefix, params, stream)
        counts[tuple(sorted(g.edge_set))] += 1
    print(f"\nconditioned on (1,2,3): {sub} completions, "
          f"TV {tv_distance_uniform(counts, sub):.4f}")


if __name__ == "__main__":
    main()
