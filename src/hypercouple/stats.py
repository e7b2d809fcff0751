"""Small statistical helpers shared by samplers, experiments and tests."""

from __future__ import annotations

import math
from typing import Iterable, Mapping


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside 0..trials")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def tv_distance_uniform(counts: Mapping, categories: Iterable | int) -> float:
    """Total variation distance between empirical frequencies and the uniform
    law over `categories` (an explicit collection, or just how many there
    are, in which case observed keys are trusted to lie inside the family).
    Counts for categories outside an explicit collection are an error."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("no observations")
    if isinstance(categories, int):
        if len(counts) > categories:
            raise ValueError(
                f"{len(counts)} observed categories exceed the stated {categories}"
            )
        u = 1.0 / categories
        seen = 0.5 * sum(abs(c / total - u) for c in counts.values())
        return seen + 0.5 * (categories - len(counts)) * u
    cats = list(categories)
    extra = set(counts) - set(cats)
    if extra:
        raise ValueError(f"observations outside the category set: {len(extra)}")
    u = 1.0 / len(cats)
    return 0.5 * sum(abs(counts.get(c, 0) / total - u) for c in cats)
