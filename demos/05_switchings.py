"""Double counting with switchings: enumerate a family, stratify it by a pair
statistic, and check that moves out of level L are exactly the moves into
level L-1.  The class-size ratio that drops out is what tail bounds on the
statistic are made of."""

import numpy as np

from hypercouple import (
    OrderedHypergraph,
    Params,
    backward_count,
    extension_family,
    forward_count,
    switching_class_sizes,
)


def main():
    params = Params(5, 2, 2)
    base = OrderedHypergraph(5, 2)
    fam = extension_family(base, params)
    print(f"2-regular graphs on 5 vertices: {fam.unordered_count}")

    pair = (1, 2)
    cs = switching_class_sizes(base, 1, 2, "pair_degree", params)
    level = np.array(cs.values)
    for lvl in sorted(cs.unordered_sizes):
        # one call per class: the kernels count every member at once
        upper = fam.restrict(level == lvl)
        lower = fam.restrict(level == lvl - 1)
        f = forward_count(upper, base, "pair_degree", pair=pair)
        b = backward_count(lower, base, "pair_degree", pair=pair)
        print(f"  level {lvl}: {upper.unordered_count} graphs, "
              f"forward {f} == back {b}")

    print(f"levels occupied: {sorted(cs.unordered_sizes)} "
          f"(interval: {cs.is_interval})")
    sizes = cs.unordered_sizes
    for lvl in sorted(sizes):
        if lvl - 1 in sizes:
            print(f"  |C_{lvl}| / |C_{lvl - 1}| = "
                  f"{sizes[lvl]}/{sizes[lvl - 1]} = "
                  f"{sizes[lvl] / sizes[lvl - 1]:.3f}")


if __name__ == "__main__":
    main()
