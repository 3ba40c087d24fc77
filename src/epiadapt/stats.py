"""Run statistics: two-sided Wilcoxon rank-sum test and campaign summaries.

The rank-sum test enumerates the exact null distribution for small pooled
samples and falls back to a tie- and continuity-corrected normal
approximation for larger ones; ties get midranks in both paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

EXACT_LIMIT = 12


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # Runs of equal sorted values share their mean rank; NaN never equals NaN.
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def _exact_p(ranks: np.ndarray, n1: int, w_obs: float) -> float:
    # Midranks are half-integers, so every sum and comparison here is exact.
    mu = n1 * (ranks.size + 1) / 2.0
    subsets = np.array(list(combinations(range(ranks.size), n1)), dtype=np.intp)
    sums = ranks[subsets].sum(axis=1)
    return np.count_nonzero(np.abs(sums - mu) >= abs(w_obs - mu)) / len(subsets)


def _normal_p(ranks: np.ndarray, n1: int, w_obs: float) -> float:
    n = ranks.size
    n2 = n - n1
    mu = n1 * (n + 1) / 2.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 1.0
    z = max(0.0, abs(w_obs - mu) - 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_rank_sum(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float]:
    """Two-sided rank-sum test; returns (rank sum of ``a``, p-value).

    Exact enumeration of all assignments when the pooled size is at most
    12, otherwise the normal approximation with tie correction and a 0.5
    continuity correction.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.asarray(list(a) + list(b), dtype=float)
    ranks = _midranks(pooled)
    w_obs = float(ranks[: len(a)].sum())
    if pooled.size <= EXACT_LIMIT:
        p = _exact_p(ranks, len(a), w_obs)
    else:
        p = _normal_p(ranks, len(a), w_obs)
    return w_obs, p


@dataclass(frozen=True)
class AlgorithmSummary:
    """One summary row: mean objective, spread, and test against the reference."""

    algorithm: str
    mean_ofv: float
    std: float
    p_value: float | None
    n_runs: int
    n_infeasible: int
    is_best: bool


def summarize(
    ofvs: Mapping[str, Sequence[float]],
    reference: str,
    violations: Mapping[str, Sequence[float]] | None = None,
) -> list[AlgorithmSummary]:
    """Mean +/- std per algorithm and rank-sum p-values against the reference.

    The reference row carries no p-value; the lowest mean is flagged. Runs
    with a positive violation are counted so infeasible objectives are never
    reported silently.
    """
    if reference not in ofvs:
        raise ValueError(f"reference algorithm {reference!r} has no records")
    for name, values in ofvs.items():
        if len(values) == 0:
            raise ValueError(f"algorithm {name!r} has no records")
    ref_values = list(ofvs[reference])
    means = {name: float(np.mean(values)) for name, values in ofvs.items()}
    best_name = min(means, key=lambda name: (means[name], name))
    rows: list[AlgorithmSummary] = []
    order = [reference] + [name for name in ofvs if name != reference]
    for name in order:
        values = list(ofvs[name])
        viol = list(violations[name]) if violations is not None else [0.0] * len(values)
        p_value = None
        if name != reference:
            _, p_value = wilcoxon_rank_sum(values, ref_values)
        rows.append(
            AlgorithmSummary(
                algorithm=name,
                mean_ofv=means[name],
                std=float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
                p_value=p_value,
                n_runs=len(values),
                n_infeasible=sum(1 for v in viol if v > 0.0),
                is_best=name == best_name,
            )
        )
    return rows
