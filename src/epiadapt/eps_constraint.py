"""Epsilon-level constraint handling: tolerance schedule and comparator.

The tolerance starts at the worst violation of the initial population and
decays to zero as the generation counter grows, so early search trades
constraint satisfaction against the objective and late search enforces
strict feasibility.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EpsilonSchedule:
    """Decaying feasibility tolerance eps0 * (1 - G/Gmax)^cp, cut off at gc.

    The exponent cp is derived so that the tolerance equals exp(-lam) exactly
    at generation gc (for eps0 > exp(-lam)); past gc the tolerance is 0.
    When eps0 would make cp negative (an increasing schedule), cp is clamped
    to 0 so the tolerance stays constant until the cutoff.
    """

    eps0: float
    gc: int
    gmax: int
    lam: float = 10.0
    cp: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.eps0 < 0.0:
            raise ValueError("eps0 must be nonnegative")
        if not 0 < self.gc < self.gmax:
            raise ValueError(f"need 0 < gc < gmax, got gc={self.gc}, gmax={self.gmax}")
        if self.eps0 > 0.0:
            cp = -(math.log(self.eps0) + self.lam) / math.log(1.0 - self.gc / self.gmax)
            object.__setattr__(self, "cp", max(0.0, cp))


def epsilon_at(sched: EpsilonSchedule, generation: int) -> float:
    """Tolerance at a generation in [0, gmax]; zero past the cutoff or for eps0=0."""
    if not 0 <= generation <= sched.gmax:
        raise ValueError(f"generation {generation} outside [0, {sched.gmax}]")
    if sched.eps0 == 0.0 or generation > sched.gc:
        return 0.0
    return sched.eps0 * (1.0 - generation / sched.gmax) ** sched.cp


def better_than(f_a: float, viol_a: float, f_b: float, viol_b: float, eps: float) -> bool:
    """True iff candidate a beats candidate b under the eps comparator.

    Both tolerated (violation <= eps) or exactly tied in violation: compare
    by objective. Otherwise the smaller violation wins. With eps = 0 this is
    the classic feasibility rule.
    """
    if (viol_a <= eps and viol_b <= eps) or viol_a == viol_b:
        return f_a < f_b
    return viol_a < viol_b


def better_mask(f_a, viol_a, f_b, viol_b, eps: float) -> np.ndarray:
    """Element-wise :func:`better_than` over arrays.

    The comparator is lexicographic on (max(violation, eps), f): violations
    within eps tie, and ties (or equal violations) fall through to f.
    """
    key_a, key_b = np.maximum(viol_a, eps), np.maximum(viol_b, eps)
    return (key_a < key_b) | ((key_a == key_b) & (f_a < f_b))
