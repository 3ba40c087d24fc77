"""Mean-field SIS dynamics under a piecewise-constant weight schedule.

State is one infection probability per node, advanced with classical
fixed-step RK4. A candidate solution is a flat vector in [0,1]^D holding the
off-diagonal weight-matrix entries for each unit time interval from t=1 on;
the interval [0,1) always runs on the network's initial weights. The
objective integrates sum_i sqrt(p_i) over the horizon; the constraint caps
the total squared deviation of the schedule from the initial weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _native
from .coevolve import ContextBatch
from .graph import Network

BatchEvaluator = Callable[[np.ndarray | ContextBatch], tuple[np.ndarray, np.ndarray]]
# The columns of a batch that is not a ContextBatch: the kernel splices none.
_NO_COLUMNS = np.empty(0, dtype=np.int64)
# Classical RK4 is stable on the negative real axis for h * |lambda| < 2.785.
_RK4_REAL_LIMIT = 2.785


class IntegrationError(RuntimeError):
    """The ODE state became non-finite during integration."""


@dataclass(frozen=True)
class EpidemicParams:
    """Epidemic rates, initial condition, horizon, and integration resolution.

    ``beta``, ``gamma`` and ``p0`` may be scalars (shared by all nodes) or
    per-node arrays; ``substeps`` is the number of RK4 steps per unit time.
    A per-node ``beta[j]`` belongs to the source node: it scales every weight
    ``w[i, j]`` along which node j infects node i, so node i's inflow is
    ``sum_j w[i, j] * beta[j] * p[j]``.
    """

    beta: float | np.ndarray
    gamma: float | np.ndarray
    p0: float | np.ndarray
    horizon: int
    substeps: int = 20

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "p0"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            if np.any(value < 0.0):
                raise ValueError(f"{name} must be nonnegative")
        if np.any(np.asarray(self.p0, dtype=float) > 1.0):
            raise ValueError("p0 must lie in [0, 1]")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")

    def node_vectors(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcast the rate/initial-condition fields to length-n vectors.

        Refuses a step RK4 cannot take stably on n nodes: with weights in
        [0, 1], every node's rate is at most sum(beta) - min(beta) + max(gamma).
        """
        out = []
        for name in ("beta", "gamma", "p0"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim == 0:
                value = np.full(n, float(value))
            elif value.shape != (n,):
                raise ValueError(f"{name} must be scalar or length {n}")
            out.append(value)
        rate = out[0].sum() - out[0].min() + out[1].max()
        if rate / self.substeps >= _RK4_REAL_LIMIT:
            raise ValueError(
                f"substeps={self.substeps} is unstable for RK4 at rate {rate:.4g}; "
                f"use substeps >= {int(rate // _RK4_REAL_LIMIT) + 1}"
            )
        return out[0], out[1], out[2]


@dataclass(frozen=True)
class WeightSchedule:
    """(T-1) weight matrices; block t-1 is active on the interval [t, t+1)."""

    blocks: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError(f"blocks must be (T-1, N, N), got {blocks.shape}")
        if not np.all((blocks >= 0.0) & (blocks <= 1.0)):
            raise ValueError("schedule weights must lie in [0, 1]")
        if np.any(blocks[:, range(blocks.shape[1]), range(blocks.shape[1])] != 0.0):
            raise ValueError("schedule diagonals must be zero")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    @property
    def horizon(self) -> int:
        return self.blocks.shape[0] + 1


@dataclass(frozen=True)
class Trajectory:
    """Infection probabilities sampled on the substep grid 0 = t_0 < ... < t_M."""

    times: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != times.shape[0]:
            raise ValueError("p must have one row per sample instant")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        times.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "p", p)


@lru_cache(maxsize=None)
def _offdiag_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def decision_dimension(n: int, horizon: int) -> int:
    """Number of decision variables N*(N-1)*(T-1)."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    return n * (n - 1) * (horizon - 1)


def decode_candidate(x: np.ndarray, n: int, horizon: int) -> WeightSchedule:
    """Unpack a flat decision vector into per-interval weight matrices.

    The vector is consumed time-major, each block filling its off-diagonal
    entries in row-major order; diagonals stay zero.
    """
    x = np.asarray(x, dtype=float)
    dim = decision_dimension(n, horizon)
    if x.shape != (dim,):
        raise ValueError(f"expected vector of length {dim}, got shape {x.shape}")
    rows, cols = _offdiag_indices(n)
    blocks = np.zeros((horizon - 1, n, n))
    blocks[:, rows, cols] = x.reshape(horizon - 1, n * (n - 1))
    return WeightSchedule(blocks=blocks)


def _advance_unit(
    p: np.ndarray,
    wb: np.ndarray,
    gamma: np.ndarray,
    substeps: int,
    record: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 over one unit interval with a fixed weight matrix, in the kernel's order.

    ``p`` is (n, B), one column per candidate, and ``wb`` is (n, n, B) with
    w[i, j] * beta[j] at [j, i], as in ``_rk4.c``. numpy adds the outer axis
    of (n, n, B) one whole row after another, so the mat-vec sums over j in
    order from 0.0. A lone axis, as (n, 1) is at B = 1, it sums pairwise, so
    the sqrt sum is a cumsum over nodes (+ 0.0 makes it start from 0.0).
    Returns the state, clamped to [0, 1] after every substep to keep
    discretization error out of the sqrt (``record`` gets column 0 of each),
    and this interval's trapezoid term of the integral of sum_i sqrt(p_i).
    """
    h = 1.0 / substeps
    gamma = gamma[:, None]
    prod = np.empty(wb.shape)

    def rhs(v: np.ndarray) -> np.ndarray:
        q = np.add.reduce(np.multiply(wb, v[:, None, :], out=prod), axis=0, initial=0.0)
        return (1.0 - v) * q - gamma * v

    s = np.cumsum(np.sqrt(p), axis=0)[-1] + 0.0
    acc = 0.5 * s
    for _ in range(substeps):
        k1 = rhs(p)
        k2 = rhs(p + (0.5 * h) * k1)
        k3 = rhs(p + (0.5 * h) * k2)
        k4 = rhs(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.clip(p, 0.0, 1.0, out=p)
        if record is not None:
            record.append(p[:, 0].copy())
        s = np.cumsum(np.sqrt(p), axis=0)[-1] + 0.0
        acc += s
    acc -= 0.5 * s
    if not np.all(np.isfinite(p)):
        raise IntegrationError("state became non-finite during integration")
    return p, h * acc


def integrate(net: Network, params: EpidemicParams, sched: WeightSchedule) -> Trajectory:
    """Integrate the mean-field SIS equations over [0, horizon].

    The interval [0, 1) runs on the network's initial weights; block t-1 of
    the schedule governs [t, t+1). Unstable ``substeps`` raise ValueError.
    """
    if sched.n != net.n:
        raise ValueError(f"schedule is for {sched.n} nodes, network has {net.n}")
    if sched.horizon != params.horizon:
        raise ValueError(
            f"schedule horizon {sched.horizon} != params horizon {params.horizon}"
        )
    beta, gamma, p0 = params.node_vectors(net.n)
    k = params.substeps
    p = p0[:, None].copy()
    states = [p0]
    for t in range(params.horizon):
        w = net.w0 if t == 0 else sched.blocks[t - 1]
        p, _ = _advance_unit(p, (w * beta).T[:, :, None], gamma, k, record=states)
    times = np.arange(params.horizon * k + 1) / k
    return Trajectory(times=times, p=np.vstack(states))


def objective_value(traj: Trajectory) -> float:
    """Integral of sum_i sqrt(p_i(t)) over the sampled grid (trapezoid rule)."""
    integrand = np.sqrt(traj.p).sum(axis=1)
    return float(np.trapezoid(integrand, traj.times))


def constraint_value(sched: WeightSchedule, net: Network, budget: float) -> float:
    """Signed constraint: total squared deviation from w0 minus the budget.

    Blocks are piecewise constant on unit intervals, so the time integral is
    the plain sum over blocks; [0, 1) contributes nothing because the weights
    there equal w0. The squares are added one at a time in gene order, as
    :func:`make_batch_evaluator` adds them; the zero diagonals add exactly 0.
    """
    if sched.n != net.n:
        raise ValueError(f"schedule is for {sched.n} nodes, network has {net.n}")
    dev = sched.blocks - net.w0[None, :, :]
    return float(np.cumsum(dev * dev)[-1] - budget)


def make_batch_evaluator(net: Network, params: EpidemicParams, budget: float) -> BatchEvaluator:
    """Vectorized evaluator mapping (B, D) candidates to (f, violation) arrays.

    The shared [0, 1) interval (identical for every candidate) is integrated
    once up front. The re-planned intervals run in the compiled kernel of
    ``_rk4.c`` when it is available and in a numpy loop over
    :func:`_advance_unit` otherwise. f and the violation decide selection,
    so both paths give the same bytes of each: the loop rounds as the kernel
    does, in its order, and the violation max(0, sum of (x - x0)^2 - budget)
    adds the squares one at a time in gene order, as :func:`constraint_value`
    does. This is the hot path for population-based optimizers;
    :func:`integrate` with :func:`objective_value` is the single-schedule
    reference. Unstable ``substeps`` raise ValueError, as there.

    The candidates may also come as a ``coevolve.ContextBatch``, as a C3
    visit scores its members. The kernel then gets the batch's parts and
    splices each row into a scratch row of its own, filled from the base
    once per call, so no (B, D) array is made; f and the violation have
    the bytes of the built rows. The numpy loop builds the rows first.
    A batch with a ``bound`` gets f = +inf for exactly the rows whose
    violation is above their bound, and those rows are not integrated: the
    kernel computes every row's violation first, the one it returns, and
    packs the others into its lane groups; the numpy loop integrates the
    others alone. Every other f, and every violation, has the bytes of the
    batch without the bound. A NaN on either side compares false, so a NaN
    row is integrated and raises as it would without the bound.

    Each kernel call splits over the thread count of ``_native`` at the
    time of the call: by default the CPUs this process may use, or the
    count ``_native.threads`` sets around it, but never more threads than
    8-row lane groups, so a batch of at most 8 rows stays on the calling
    thread (``_native.split_count``). ``_native.split`` runs the kernel
    on the calling thread and that many less one of this process's helper
    threads, each over the whole batch, taking its rows 8 at a time from
    one shared counter, so a thread on a busier core takes fewer. A row's
    f and violation do not depend on the rows beside it, so their bytes
    are the same at any thread count. The numpy loop always runs on the
    calling thread.
    """
    n, horizon, k = net.n, params.horizon, params.substeps
    beta, gamma, p0 = params.node_vectors(n)
    rows, cols = _offdiag_indices(n)
    dim = decision_dimension(n, horizon)
    x0 = np.tile(net.w0[rows, cols], horizon - 1)
    beta_off, gamma = beta[cols], np.ascontiguousarray(gamma)
    p_unit, obj_unit = _advance_unit(p0[:, None].copy(), (net.w0 * beta).T[:, :, None], gamma, k)
    kernel = _native.kernel()
    pos, m = (cols * n + rows).astype(np.int64), n * (n - 1)
    shared = (x0, pos, beta_off, gamma, np.ascontiguousarray(p_unit[:, 0]), obj_unit[0])

    def evaluate(x: np.ndarray | ContextBatch) -> tuple[np.ndarray, np.ndarray]:
        bound = x.bound if isinstance(x, ContextBatch) else None
        if kernel is not None and isinstance(x, ContextBatch):
            base, columns, width, x = x.base, x.columns, x.base.size, x.genes
        else:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                x = x[None, :]
            base, columns, width = x0, _NO_COLUMNS, x.shape[1]
        if width != dim:
            raise ValueError(f"expected {dim} genes per candidate, got {width}")
        b = x.shape[0]
        g = np.empty(b)
        # No violation is above +inf, so a batch without a bound skips nothing.
        bound = np.full(b, np.inf) if bound is None else bound
        if kernel is not None:
            x, obj = np.ascontiguousarray(x), np.empty(b)
            statuses = _native.split(kernel.rk4_batch, b, b, n, horizon - 1, k, x, base, columns,
                                     columns.size, *shared, budget, bound, obj, g)
            if 2 in statuses:
                raise MemoryError("RK4 kernel could not allocate its scratch buffer")
            if any(statuses):
                raise IntegrationError("state became non-finite during integration")
            return obj, g
        for start in range(0, b, _native.ROW_BLOCK):
            diff = x[start:start + _native.ROW_BLOCK] - x0
            diff *= diff
            g[start:start + _native.ROW_BLOCK] = np.cumsum(diff, axis=1, out=diff)[:, -1]
        g -= budget
        violation = np.maximum(0.0, g)
        kept = np.flatnonzero(~(violation > bound))
        wb = np.zeros((n * n, kept.size))
        p = np.repeat(p_unit, kept.size, axis=1)
        obj = np.full(b, np.inf)
        obj[kept] = obj_unit[0]
        for t in range(horizon - 1):
            wb[pos] = (x[kept, t * m:(t + 1) * m] * beta_off).T
            p, contrib = _advance_unit(p, wb.reshape(n, n, kept.size), gamma, k)
            obj[kept] += contrib
        return obj, violation

    return evaluate


def trace_series(
    traj: Trajectory, sched: WeightSchedule, net: Network
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Infected level I(t) and total weights W(t) on the trajectory grid.

    W at the final instant carries the last block's value (left limit), so
    both series share the grid.
    """
    totals = np.array([net.w0.sum()] + [block.sum() for block in sched.blocks])
    w_level = totals[np.minimum(traj.times.astype(int), sched.horizon - 1)]
    return traj.times, traj.p.mean(axis=1), w_level

