"""Single-candidate reference helpers the tests check the library against,
loop-by-loop forms of the rank and clustering scans, and a meter of the
memory a call allocates."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass
from itertools import combinations
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


def kernel_objective(x: np.ndarray, net: Network, params: EpidemicParams) -> float:
    """f of one candidate as the compiled kernel defines it, one rounding per operation.

    Every interval runs in Python floats, the shared [0, 1) one on w0 included:
    the mat-vec adds w[i, j] * beta[j] * v[j] over j in order from 0.0, zero
    diagonal included; the stages combine as ((k1 + 2 k2) + 2 k3) + k4; the
    clamp to [0, 1] keeps NaN; the sqrt sum runs in node order; the trapezoid
    runs 0.5 s_0, + s_1 ... + s_k, - 0.5 s_k; and f adds each interval's h * acc
    in turn from 0.0.
    """
    n, k = net.n, params.substeps
    beta, gamma, p0 = (v.tolist() for v in params.node_vectors(n))
    rows, cols = _offdiag_indices(n)
    m = n * (n - 1)
    genes, w0 = np.asarray(x, dtype=float).tolist(), net.w0.tolist()
    h = 1.0 / k
    hh, h6 = 0.5 * h, h / 6.0

    def rhs(w: list[list[float]], v: list[float]) -> list[float]:
        out = []
        for i in range(n):
            q = 0.0
            for j in range(n):
                q += w[i][j] * v[j]
            out.append((1.0 - v[i]) * q - gamma[i] * v[i])
        return out

    def sqrt_sum(v: list[float]) -> float:
        s = 0.0
        for vi in v:
            s += math.sqrt(vi)
        return s

    def clamp01(v: float) -> float:
        return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)

    p, total = p0, 0.0
    for t in range(params.horizon):
        if t == 0:
            w = [[w0[i][j] * beta[j] for j in range(n)] for i in range(n)]
        else:
            w = [[0.0] * n for _ in range(n)]
            for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
                w[i][j] = genes[(t - 1) * m + e] * beta[j]
        s = sqrt_sum(p)
        acc = 0.5 * s
        for _ in range(k):
            k1 = rhs(w, p)
            k2 = rhs(w, [a + hh * b for a, b in zip(p, k1)])
            k3 = rhs(w, [a + hh * b for a, b in zip(p, k2)])
            k4 = rhs(w, [a + h * b for a, b in zip(p, k3)])
            p = [clamp01(a + h6 * (b + 2.0 * c + 2.0 * d + e))
                 for a, b, c, d, e in zip(p, k1, k2, k3, k4)]
            s = sqrt_sum(p)
            acc += s
        acc -= 0.5 * s
        total += h * acc
    return total


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


def midranks_loop(values: np.ndarray) -> np.ndarray:
    """Midranks from a scan of each run of equal values in mergesort order."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def exact_p_loop(ranks: np.ndarray, n1: int, w_obs: float) -> float:
    """Two-sided exact rank-sum p, one subset of size ``n1`` at a time."""
    mu = n1 * (ranks.size + 1) / 2.0
    threshold = abs(w_obs - mu) - 1e-9
    hits = 0
    total = 0
    for subset in combinations(range(ranks.size), n1):
        total += 1
        if abs(ranks[list(subset)].sum() - mu) >= threshold:
            hits += 1
    return hits / total


def clustering_loop(net: Network) -> np.ndarray:
    """Local clustering per node from its neighbourhood; 0 below degree 2."""
    adj = net.w0 > 0.0
    degree = adj.sum(axis=1)
    coeffs = np.zeros(net.n)
    for v in range(net.n):
        k = int(degree[v])
        if k < 2:
            continue
        nbrs = np.nonzero(adj[v])[0]
        links = np.count_nonzero(np.triu(adj[np.ix_(nbrs, nbrs)], k=1))
        coeffs[v] = 2.0 * links / (k * (k - 1))
    return coeffs
