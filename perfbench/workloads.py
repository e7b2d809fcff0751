"""The benchmark's workloads: one round of each is one CLI experiment.

A round is the argument list of one `hypercouple` subcommand, always at
`--jobs 1` (two workers on two shared cores would measure the scheduler);
the benchmark adds `--seed`, `--out` and, for switching-family, the base
edge drawn from the seed.  Every round must be short enough that a run
repeats it several times: on the reference machine a single 20 s window
varied by +-15 %, so a run reports the median of its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # census experiments the traced run adds for layers this workload
    # never calls, so that every per-layer metric has a value
    census: tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        # (7,3,3) rather than (9,3,2): the empty-state law alone takes 13 s
        # at (9,3,2), too long to repeat within a run; here it takes 3 s and
        # each later trace about 0.35 s, almost every prefix state new
        Workload(
            "couple-cold",
            ("couple", "--n", "7", "--k", "3", "--d", "3",
             "--gamma", "0.5714285714285714", "--trials", "8", "--jobs", "1"),
            ("process", "switching")),
        Workload(
            "couple-warm",
            ("couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
             "--trials", "4000", "--jobs", "1"),
            ("process", "switching")),
        Workload(
            "process-dense",
            ("process-stats", "--n", "60", "--k", "3", "--d", "6",
             "--trials", "250", "--jobs", "1"),
            ("couple", "switching")),
        # one base edge away from u and v: 8,730 of the 122,220 graphs, so a
        # round takes about 1 s instead of 17 s
        Workload(
            "switching-family",
            ("switching-verify", "--n", "9", "--k", "3", "--d", "2",
             "--switch-kind", "pair_degree", "--u", "1", "--v", "2",
             "--jobs", "1"),
            ("couple", "process")),
    )
}

# Small instances of the same subcommands.  The traced run of a workload
# runs the census entries it names, so that layers the workload never calls
# still report a value; those values describe the census, not the workload.
CENSUS = {
    "couple": ("couple", "--n", "6", "--k", "3", "--d", "2", "--gamma",
               "0.75", "--trials", "200", "--jobs", "1"),
    "process": ("process-stats", "--n", "60", "--k", "3", "--d", "6",
                "--trials", "20", "--jobs", "1"),
    # pair-degree switchings need k disjoint edges, so k=3 would need n>=9
    "switching": ("switching-verify", "--n", "7", "--k", "2", "--d", "2",
                  "--switch-kind", "pair_degree", "--u", "1", "--v", "2",
                  "--jobs", "1"),
}

# the configuration-attempt probe: simplicity_probability at the
# process-dense instance, with the exact oracle switched off
ATTEMPT_PARAMS = (60, 3, 6)
ATTEMPT_TRIALS = 3000


def option(argv: list[str] | tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def round_argv(w: Workload, seed: int) -> list[str]:
    """The CLI arguments of one round at the given round seed."""
    argv = list(w.argv) + ["--seed", str(seed)]
    if w.argv[0] == "switching-verify":
        n, u, v = (int(option(argv, f)) for f in ("--n", "--u", "--v"))
        k = int(option(argv, "--k"))
        others = [x for x in range(1, n + 1) if x not in (u, v)]
        bases = list(combinations(others, k))
        argv += ["--base", ",".join(map(str, bases[seed % len(bases)]))]
    return argv


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run: rounds differ, so the run's median also
    averages over inputs and not only over timing noise."""
    return seed * 1000 + r
