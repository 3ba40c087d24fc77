"""Independent reference for the benchmark's correctness checks.

Written from the model equations, not from ``epiadapt.dynamics``: mean-field
SIS on a weighted network,

    dp_i/dt = (1 - p_i) * beta * sum_j w_ij p_j - gamma * p_i,

with w0 in force on [0, 1) and block t-1 of the schedule on [t, t+1). The
objective is the integral of sum_i sqrt(p_i) over [0, T], taken with the
trapezoid rule on the RK4 substep grid; the violation is
max(0, sum (x - x0)^2 - budget). Nothing here clamps the state, so an
unstable step shows up as a mismatch instead of being hidden.

Only numpy is imported at module level; scipy is imported where it is used,
so loading this module leaves the caller's peak memory alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Problem:
    """The epidemic, horizon and budget a decision vector is scored under."""

    w0: np.ndarray
    beta: float
    gamma: float
    p0: float
    horizon: int
    substeps: int
    budget: float

    @property
    def n(self) -> int:
        return self.w0.shape[0]

    @property
    def dim(self) -> int:
        return self.n * (self.n - 1) * (self.horizon - 1)


def offdiag_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def genes_to_blocks(x: np.ndarray, prob: Problem) -> np.ndarray:
    """(T-1, n, n) weight blocks from a time-major, row-major off-diagonal vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.dim,):
        raise ValueError(f"expected {prob.dim} genes, got shape {x.shape}")
    n = prob.n
    blocks = np.zeros((prob.horizon - 1, n, n))
    # Boolean-mask assignment walks the mask in C (row-major) order.
    blocks[:, offdiag_mask(n)] = x.reshape(prob.horizon - 1, n * (n - 1))
    return blocks


def blocks_to_genes(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`genes_to_blocks`."""
    return blocks[:, offdiag_mask(blocks.shape[1])].reshape(-1)


def baseline_genes(prob: Problem) -> np.ndarray:
    """x0: w0's off-diagonals repeated for every block."""
    return np.tile(prob.w0[offdiag_mask(prob.n)], prob.horizon - 1)


def violation(x: np.ndarray, prob: Problem) -> float:
    d = np.asarray(x, dtype=float) - baseline_genes(prob)
    return max(0.0, float(np.sum(d * d)) - prob.budget)


def _weights(blocks: np.ndarray, prob: Problem, t: int) -> np.ndarray:
    return prob.w0 if t == 0 else blocks[t - 1]


def _trapezoid(values: np.ndarray, h: float) -> float:
    return h * float(values.sum() - 0.5 * (values[0] + values[-1]))


def rk4_states(blocks: np.ndarray, prob: Problem) -> np.ndarray:
    """States on the substep grid, shape (T*k + 1, n), by plain RK4."""
    k = prob.substeps
    h = 1.0 / k
    p = np.full(prob.n, float(prob.p0))
    out = [p]
    for t in range(prob.horizon):
        w = _weights(blocks, prob, t)

        def rhs(q: np.ndarray) -> np.ndarray:
            return (1.0 - q) * prob.beta * (w @ q) - prob.gamma * q

        for _ in range(k):
            k1 = rhs(p)
            k2 = rhs(p + 0.5 * h * k1)
            k3 = rhs(p + 0.5 * h * k2)
            k4 = rhs(p + h * k3)
            p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(p)
    return np.array(out)


def objective_from_states(states: np.ndarray, substeps: int) -> float:
    return _trapezoid(np.sqrt(states).sum(axis=1), 1.0 / substeps)


def objective(x: np.ndarray, prob: Problem) -> float:
    return objective_from_states(rk4_states(genes_to_blocks(x, prob), prob), prob.substeps)


def ivp_objective(x: np.ndarray, prob: Problem) -> float:
    """The objective from a tight-tolerance ``solve_ivp`` on the same grid.

    Each unit interval is solved on its own because the weights jump at
    integer times. Both this and :func:`objective` apply the trapezoid rule
    to states on the same grid, so their difference is RK4's state error
    alone.
    """
    from scipy.integrate import solve_ivp

    blocks = genes_to_blocks(x, prob)
    k = prob.substeps
    p = np.full(prob.n, float(prob.p0))
    out = [p]
    for t in range(prob.horizon):
        w = _weights(blocks, prob, t)
        sol = solve_ivp(
            lambda _, q: (1.0 - q) * prob.beta * (w @ q) - prob.gamma * q,
            (t, t + 1), p, method="DOP853", rtol=1e-12, atol=1e-14,
            t_eval=t + np.arange(1, k + 1) / k,
        )
        if not sol.success:
            raise RuntimeError(f"solve_ivp failed on [{t}, {t + 1}]: {sol.message}")
        out.extend(sol.y.T)
        p = sol.y[:, -1]
    return objective_from_states(np.array(out), k)


def rk4_tolerance(substeps: int) -> float:
    """Relative tolerance of RK4 against the converged solution: h^4.

    RK4's global error is C*h^4. On the 20-node benchmark network the
    constant C, measured against :func:`ivp_objective` on the extreme
    schedules (all weights 1, all weights 0, w0, uniform random) at
    substeps 4, 10 and 20, is at most 0.11; the tolerance leaves a factor
    of nine above that.
    """
    return (1.0 / substeps) ** 4
