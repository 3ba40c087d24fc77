"""Differential-evolution population machinery with neighborhood-search F.

A generation builds all NP trials at once from one random stream. The scale
factor is drawn per individual per generation from a mixture of a Gaussian
centered at 0.5 and a heavy-tailed standard Cauchy; trials are accepted
under the epsilon comparator. Heavy-tailed draws are used as-is (genes are
weights, clamped into [0, 1]), which is what gives the operator its escape
behavior.

Every draw is a whole numpy array. Where the generator is numpy's PCG64
and ``_native.kernel`` loaded a build, the trials come from one C pass,
``de_trials`` in ``_rk4.c``: it forms them a few rows at a time and draws
those rows' crossover uniforms inside the pass, as numpy's own stream
computed in jumped-ahead lanes, so they never pass through memory as one
block; ``_native.split`` runs a large pass over its thread count.
Everywhere else the numpy passes run on ``rng.random``'s draw. Both
give numpy's bytes: the C pass keeps numpy's operation order, is built
without FMA contraction and clamps as ``np.clip`` does, NaN included. A
population's trial buffer is mapped by its first generation and reused.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _native
from .eps_constraint import better_mask

@dataclass(frozen=True)
class DEConfig:
    """Population size, crossover rate, and mixture probability."""

    np_size: int
    cr: float = 0.9
    fp: float = 0.5

    def __post_init__(self) -> None:
        if self.np_size < 4:
            raise ValueError("population size must be at least 4")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must lie in [0, 1]")
        if not 0.0 <= self.fp <= 1.0:
            raise ValueError("fp must lie in [0, 1]")


@dataclass(frozen=True)
class Candidate:
    """A decision vector with its cached objective and violation."""

    genes: np.ndarray = field(repr=False)
    f: float
    violation: float


@dataclass
class Population:
    """Population arrays: genes (NP, D) with cached objectives and violations."""

    genes: np.ndarray
    f: np.ndarray
    violation: np.ndarray
    # Every generation builds its trials in this one buffer.
    trials: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.genes.shape[0]

    def eps_best_index(self, eps: float) -> int:
        """Index a sequential :func:`better_than` scan from index 0 would keep.

        That is the first lexicographic minimum of (max(violation, eps), f)
        over the rows whose violation is not NaN, as no comparison with a NaN
        succeeds: a NaN violation never wins, and one at index 0, like a NaN
        objective heading the best-violation ties, is never displaced.
        """
        key = np.maximum(self.violation, eps)
        if np.isnan(key[0]):
            return 0
        ties = np.flatnonzero(key == np.nanmin(key))
        f = self.f[ties]
        return int(ties[0] if np.isnan(f[0]) else ties[np.nanargmin(f)])

    def candidate(self, i: int) -> Candidate:
        return Candidate(self.genes[i].copy(), float(self.f[i]), float(self.violation[i]))


def init_population(cfg: DEConfig, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-random genes of shape (NP, dim) in [0, 1)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return rng.random(out=_native.unpooled_empty((cfg.np_size, dim)))


def sample_scale_factors(fp: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` F values: N(0.5, 0.5) with probability fp, else a standard Cauchy."""
    gaussian = rng.random(size) < fp
    return np.where(gaussian, rng.normal(0.5, 0.5, size), rng.standard_cauchy(size))


def donor_indices(np_size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, uniform donors r1 != r2, both != i, drawn without rejection.

    r1 comes from the NP-1 other indices; r2 from the NP-2 left, shifted past
    min(i, r1) and then past max(i, r1).
    """
    if np_size < 4:
        raise ValueError("mutation needs a population of at least 4")
    i = np.arange(np_size)
    r1 = rng.integers(np_size - 1, size=np_size)
    r1 += r1 >= i
    r2 = rng.integers(np_size - 2, size=np_size)
    r2 += r2 >= np.minimum(i, r1)
    r2 += r2 >= np.maximum(i, r1)
    return r1, r2


def build_trials(
    genes: np.ndarray,
    best: np.ndarray,
    cfg: DEConfig,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All NP current-to-best/1 trials with binomial crossover, clamped to [0, 1].

    Row i mixes x_i + F_i*(best - x_i) + F_i*(x_r1 - x_r2) into x_i where
    rand <= cr, with one forced gene per row. ``genes`` must be a C-ordered
    float64 (NP, D) array and ``best`` hold D genes. The trials go to
    ``out`` when it is given, which must be laid out as ``genes`` and share
    no memory with ``genes`` or ``best``.

    The C pass runs where ``rng`` is a PCG64 and ``_native.kernel()``, looked
    up on each call, returns a build. It gets the state of the first draw,
    and ``rng`` moves NP * D draws on, so the trials and the state ``rng``
    is left in are the same however ``_native.split`` runs the pass.
    """
    if genes.ndim != 2 or genes.dtype != np.float64 or not genes.flags.c_contiguous:
        raise ValueError("genes must be a C-contiguous 2-D float64 array")
    np_size, dim = genes.shape
    best = np.ascontiguousarray(best, dtype=np.float64)
    if best.shape != (dim,):
        raise ValueError(f"best has shape {best.shape}, expected ({dim},)")
    if out is not None:
        if out.shape != genes.shape or out.dtype != genes.dtype or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous array of the shape and dtype of genes")
        if np.may_share_memory(out, genes) or np.may_share_memory(out, best):
            raise ValueError("out must not share memory with genes or best")
    f = sample_scale_factors(cfg.fp, np_size, rng)
    r1, r2 = donor_indices(np_size, rng)
    trials = np.empty_like(genes) if out is None else out
    built = _native.kernel()
    bitgen = rng.bit_generator
    if built is not None and type(bitgen) is np.random.PCG64:
        state = bitgen.state
        words = [*divmod(state["state"]["state"], 1 << 64), *divmod(state["state"]["inc"], 1 << 64)]
        bitgen.advance(np_size * dim)
        # Put back the buffered 32-bit half, which rng.integers reads next.
        if state["has_uint32"]:
            state["state"] = bitgen.state["state"]
            bitgen.state = state
        forced = rng.integers(dim, size=np_size)
        _native.split(built.de_trials, np_size, np_size, dim, genes, best, r1, r2, f, forced,
                      cfg.cr, *words, trials, genes=dim)
        return trials
    rng.random(out=trials)
    forced = rng.integers(dim, size=np_size)
    keep = trials > cfg.cr
    keep[np.arange(np_size), forced] = False
    np.subtract(best, genes, out=trials)
    # By row blocks, so the donor rows make no (NP, D) temporary.
    for start in range(0, np_size, _native.ROW_BLOCK):
        rows = slice(start, start + _native.ROW_BLOCK)
        trials[rows] += genes[r1[rows]]
        trials[rows] -= genes[r2[rows]]
    trials *= f[:, None]
    trials += genes
    np.putmask(trials, keep, genes)
    return np.clip(trials, 0.0, 1.0, out=trials)


def nsde_generation(
    pop: Population, evaluate, eps: float, cfg: DEConfig, rng: np.random.Generator
) -> None:
    """Run one synchronous generation in place: ``pop.size`` trials, one evaluator call.

    One stream, ``rng``, drives every operator draw of the generation, so
    trials are reproducible regardless of how evaluations are scheduled.
    All trials are built from the generation-start population as array
    operations, batch-evaluated, and each replaces its parent when it wins
    under the epsilon comparator. ``evaluate`` gets ``pop.trials``, which
    the next generation overwrites, so it must copy any rows it keeps.
    """
    if pop.size != cfg.np_size:
        raise ValueError(f"population size {pop.size} != configured {cfg.np_size}")
    if pop.trials is None or pop.trials.shape != pop.genes.shape:
        pop.trials = _native.unpooled_empty(pop.genes.shape)
    trials = build_trials(
        pop.genes, pop.genes[pop.eps_best_index(eps)], cfg, rng, out=pop.trials
    )
    trial_f, trial_viol = (np.asarray(a, dtype=float) for a in evaluate(trials))
    win = better_mask(trial_f, trial_viol, pop.f, pop.violation, eps)
    # Row by row: a masked copy would pass over every losing row as well.
    for i in np.flatnonzero(win):
        pop.genes[i] = trials[i]
    pop.f[win] = trial_f[win]
    pop.violation[win] = trial_viol[win]
