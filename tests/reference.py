"""Single-candidate reference helpers the tests check the library against,
and a meter of the memory a call allocates."""
from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from epiadapt.dynamics import (
    EpidemicParams,
    Trajectory,
    WeightSchedule,
    _offdiag_indices,
    constraint_value,
    decode_candidate,
    integrate,
    objective_value,
)
from epiadapt.graph import Network


@dataclass(frozen=True)
class Evaluation:
    """Objective f, signed constraint g, and violation max(0, g)."""

    f: float
    g: float
    violation: float


def evaluate_candidate(
    x: np.ndarray, net: Network, params: EpidemicParams, budget: float
) -> Evaluation:
    """Decode, integrate, and score one decision vector."""
    sched = decode_candidate(x, net.n, params.horizon)
    f = objective_value(integrate(net, params, sched))
    g = constraint_value(sched, net, budget)
    return Evaluation(f=f, g=g, violation=max(0.0, g))


def encode_schedule(sched: WeightSchedule) -> np.ndarray:
    """Flatten a schedule back into a decision vector (decode's inverse)."""
    rows, cols = _offdiag_indices(sched.n)
    return sched.blocks[:, rows, cols].reshape(-1).copy()


def infected_level(traj: Trajectory, t: float) -> float:
    """Mean infection probability at a sampled instant."""
    idx = np.nonzero(np.isclose(traj.times, t, rtol=0.0, atol=1e-9))[0]
    if idx.size == 0:
        raise ValueError(f"t={t} is not on the sample grid")
    return float(traj.p[idx[0]].mean())


def total_weights(sched: WeightSchedule, net: Network, t: float) -> float:
    """Sum of all off-diagonal weights in force at time t in [0, horizon)."""
    if not 0.0 <= t < sched.horizon:
        raise ValueError(f"t={t} outside [0, {sched.horizon})")
    return float((net.w0 if t < 1.0 else sched.blocks[int(t) - 1]).sum())


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes held during ``fn()`` beyond those held before it.

    numpy reports its array buffers to tracemalloc, so this counts every
    temporary array the call makes.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
