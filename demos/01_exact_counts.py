"""Enumerate a regular extension family exactly and inspect its next-edge law.

Everything here is rational arithmetic: completion counts, the conditional
probability of each candidate edge, and the simplicity probability of the
configuration model, cross-checked against one another.
"""

from fractions import Fraction

from hypercouple import (
    OrderedHypergraph,
    Params,
    count_extensions,
    exact_next_edge_distribution,
    exact_simplicity_probability,
    focus_count,
)


def main():
    params = Params(6, 3, 2)
    empty = OrderedHypergraph(6, 3)

    fam = count_extensions(empty, params)
    print(f"2-regular 3-graphs on 6 vertices: {fam.unordered_count} listed "
          f"({fam.ordered_count} ordered exposures, the listing charged "
          f"{fam.nodes_used} nodes)")
    print(f"backtracking reference: {focus_count(empty, params)} graphs")

    ps = exact_simplicity_probability(empty, params)
    print(f"configuration model simplicity probability: {ps} "
          f"~ {float(ps):.4f}")

    g = OrderedHypergraph(6, 3, [(1, 2, 3)])
    law = exact_next_edge_distribution(g, params)
    uniform = Fraction(1, len(law))
    print(f"\nafter exposing (1,2,3): {len(law)} candidate edges")
    for e, pr in sorted(law.items(), key=lambda kv: (-kv[1], kv[0]))[:6]:
        print(f"  {e}: {pr}  (ratio to uniform {pr / uniform})")
    worst = min(law.values()) / uniform
    print(f"worst ratio to uniform: {worst} ~ {float(worst):.3f}")
    print("(the near-uniformity event asks this ratio to stay >= 1 - eps)")


if __name__ == "__main__":
    main()
