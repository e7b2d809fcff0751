"""Couple the uniform m-edge model to the regular model edge by edge.

Each step proposes a fresh uniform edge, flips a (1-eps) coin, and exposes a
regular-process edge chosen so that accepted proposals are exactly the
regular edge whenever the regular law is near uniform.  When every step was
near uniform and at least m proposals were accepted, the first m of them are
guaranteed to sit inside the final regular graph.
"""

from collections import Counter

from hypercouple import (
    CouplingConfig,
    Params,
    RngStream,
    accepted_size_diagnostics,
    choose_epsilon,
    run_coupling,
)

TRACES = 5_000


def main():
    params = Params(6, 3, 2)
    gamma = 0.75
    cfg = CouplingConfig(params, gamma=gamma,
                         epsilon=choose_epsilon(params, gamma))
    print(f"n={params.n} k={params.k} d={params.d}: M={params.M}, "
          f"eps={cfg.epsilon}, horizon={cfg.coupled_steps}, m={cfg.m}")

    traces = [run_coupling(cfg, RngStream(7, (i,))) for i in range(TRACES)]

    branches = Counter(s.branch for tr in traces for s in tr.steps)
    print("step branches:", dict(branches))

    near_all = sum(tr.near_uniform_all for tr in traces)
    enough = sum(tr.accepted_enough for tr in traces)
    contained = sum(tr.contained for tr in traces)
    guaranteed = sum(tr.near_uniform_all and tr.accepted_enough
                     for tr in traces)
    print(f"near-uniform on every step: {near_all}/{TRACES}")
    print(f"accepted >= m proposals:    {enough}/{TRACES}")
    print(f"embedded graph contained:   {contained}/{TRACES}")
    print(f"guaranteed (both events):   {guaranteed}, all contained by "
          f"construction")

    diag = accepted_size_diagnostics(cfg, traces)
    print(f"\naccepted count: mean {diag.mean:.3f} (exact {diag.expected_mean}),"
          f" var {diag.variance:.3f} (exact {diag.expected_variance})")
    print(f"P(too few) = {diag.below_m_rate:.4f} <= bound "
          f"{diag.below_m_bound:.3f}: {diag.bound_satisfied}")


if __name__ == "__main__":
    main()
