"""Cooperative coevolution for constrained large-scale search.

Each cycle draws a fresh random partition of the decision indices into
equal-size subcomponents and optimizes them one by one in the context of
the global best vector: a subcomponent member is scored by splicing its
genes into the best candidate at the group's indices. The feasibility
tolerance decays on a single global generation counter across all
subcomponents and cycles. A single subcomponent is plain NSDE, so
:func:`run_nsde` is :func:`run_c3` with ``ds`` equal to the dimension.

All randomness is drawn from streams keyed by (seed, purpose, index), so
results are reproducible and independent of evaluation scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .de_core import (
    Candidate,
    DEConfig,
    Population,
    init_population,
    nsde_generation,
)
from .eps_constraint import EpsilonSchedule, epsilon_at

_INIT, _GROUPING, _GENERATION = 0, 1, 2


def _keyed_rng(seed: int, kind: int, index: int = 0) -> np.random.Generator:
    # Fixed-length entropy tuples keep the streams collision-free.
    return np.random.default_rng([seed, kind, index, 0])


@dataclass(frozen=True)
class C3Config:
    """Decomposition size and budget layout of the coevolution run.

    ``sub_fes`` is the evaluation budget of one subcomponent visit, defaulting
    to 10 * NP; with several groups it includes the context pass, and each
    visit is charged one re-evaluation on top. With ``ds`` equal to the
    dimension there is one group and a visit is ``sub_fes // NP`` plain
    generations. Visits run until the total budget cannot fund another.
    """

    ds: int
    total_budget: int
    sub_fes: int | None = None
    gc_fraction: float = 0.2
    lam: float = 10.0

    def __post_init__(self) -> None:
        if self.ds < 1:
            raise ValueError("ds must be positive")
        if self.total_budget < 1:
            raise ValueError("total_budget must be positive")
        if not 0.0 < self.gc_fraction < 1.0:
            raise ValueError("gc_fraction must lie in (0, 1)")

    def layout(self, dim: int, np_size: int) -> tuple[int, int, int]:
        """Group count, visit budget and least visit cost of a run over ``dim`` genes.

        Raises ValueError unless ``ds`` divides ``dim``, a visit funds what it runs
        (one generation, after a context pass with several groups), and the total
        budget the population plus one visit.
        """
        if dim % self.ds != 0:
            raise ValueError(f"ds={self.ds} does not divide dim={dim}")
        ns = dim // self.ds
        sub_fes = self.sub_fes if self.sub_fes is not None else 10 * np_size
        context = np_size if ns > 1 else 0
        if sub_fes < context + np_size:
            raise ValueError(f"sub_fes={sub_fes} must be at least "
                             f"{'2*' if context else ''}NP={context + np_size}")
        # The re-evaluation costs as much as the context pass.
        visit_min = np_size + 2 * context
        if self.total_budget < np_size + visit_min:
            raise ValueError(
                f"a total budget of {self.total_budget} cannot fund the initial "
                f"population plus one subcomponent visit ({np_size + visit_min})"
            )
        return ns, sub_fes, visit_min


@dataclass(frozen=True)
class ContextBatch:
    """B candidates in context: row b is ``base`` with gene ``columns[c]`` set to ``genes[b, c]``.

    ``base`` holds the D genes of the context best, ``columns`` a group's
    ds indices into it and ``genes`` the (B, ds) genes of the group's
    members. The batch evaluator's kernel builds each row itself, so no
    (B, D) array is made. For an evaluator that takes arrays only,
    ``np.asarray(batch)`` builds the rows in a mapping of their own (see
    ``_native.unpooled_empty``). The batch refers to ``genes``, not a copy.

    ``bound``, when given, holds one float per row: an evaluator that reads
    it may return f = +inf for exactly the rows whose violation is above
    their bound, and skip integrating them. It returns every row's
    violation exactly, and a NaN on either side compares false, so that row
    is still scored. ``np.asarray`` ignores the bound, so an evaluator that
    takes arrays only scores every row.
    """

    base: np.ndarray
    columns: np.ndarray
    genes: np.ndarray
    bound: np.ndarray | None = None

    def __post_init__(self) -> None:
        base = np.ascontiguousarray(self.base, dtype=np.float64)
        columns = np.ascontiguousarray(self.columns, dtype=np.int64)
        genes = np.asarray(self.genes, dtype=np.float64)
        if base.ndim != 1:
            raise ValueError(f"base must hold one row of genes, got shape {base.shape}")
        if columns.ndim != 1 or genes.ndim != 2 or genes.shape[1] != columns.size:
            raise ValueError(f"genes of shape {genes.shape} need one column per entry "
                             f"of columns, which has shape {columns.shape}")
        # The kernel writes each row's genes at these positions of a scratch
        # row, and takes a batch of no columns for whole rows.
        if columns.size == 0 or columns.min() < 0 or columns.max() >= base.size:
            raise ValueError(f"columns must be at least one index in [0, {base.size})")
        if self.bound is not None:
            bound = np.ascontiguousarray(self.bound, dtype=np.float64)
            if bound.shape != genes.shape[:1]:
                raise ValueError(f"bound must hold one value per row, {genes.shape[0]}, "
                                 f"got shape {bound.shape}")
            object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "genes", genes)

    def __len__(self) -> int:
        return self.genes.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a context batch has no rows to share; they are built on request")
        rows = _native.unpooled_empty((len(self), self.base.size))
        rows[:] = self.base
        rows[:, self.columns] = self.genes
        return rows if dtype is None else rows.astype(dtype, copy=False)


@dataclass(frozen=True)
class GenerationRecord:
    """One history row: population best after a completed generation."""

    generation: int
    cycle: int
    group: int
    best_f: float
    best_violation: float
    epsilon: float


@dataclass(frozen=True)
class OptimizationResult:
    best: Candidate
    history: list[GenerationRecord]
    evaluations: int
    generations: int


def random_grouping(dim: int, ns: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random partition of [0, dim): row j-1 of the (ns, dim/ns) result is group j."""
    if ns < 1:
        raise ValueError("ns must be positive")
    if dim % ns != 0:
        raise ValueError(f"ns={ns} does not divide dim={dim}")
    return rng.permutation(dim).reshape(ns, dim // ns)


def grouping_probability(k: int, cycles: int, ns: int) -> float:
    """Probability that a fixed index pair shares a group in >= k of K cycles.

    Binomial tail with per-cycle probability 1/ns, accumulated through
    log-domain binomial coefficients for numerical stability.
    """
    if not 1 <= k <= cycles:
        raise ValueError(f"need 1 <= k <= cycles, got k={k}, cycles={cycles}")
    if ns < 1:
        raise ValueError("ns must be positive")
    if ns == 1:
        return 1.0
    p = 1.0 / ns
    log_terms = []
    for l in range(k, cycles + 1):
        log_c = (
            math.lgamma(cycles + 1) - math.lgamma(l + 1) - math.lgamma(cycles - l + 1)
        )
        log_terms.append(log_c + l * math.log(p) + (cycles - l) * math.log1p(-p))
    top = max(log_terms)
    return float(math.exp(top) * sum(math.exp(lt - top) for lt in log_terms))


def optimize_subcomponent(
    pop: Population,
    plan: np.ndarray,
    group: int,
    best_genes: np.ndarray,
    evaluate,
    sched: EpsilonSchedule,
    de_cfg: DEConfig,
    sub_fes: int,
    seed: int,
    gen_start: int = 0,
    cycle: int = 1,
    sub: Population | None = None,
) -> tuple[int, int, list[GenerationRecord]]:
    """Optimize one group's columns in the context of the global best.

    ``plan`` is a :func:`random_grouping` result and ``group`` is 1-based.
    Extracts the group's columns, scores every member spliced into
    ``best_genes`` (the context pass, one population's worth of
    evaluations), runs as many generations as the rest of ``sub_fes``
    funds, writes the evolved columns back, and re-evaluates the full
    population, charged on top of ``sub_fes``, so the caches match the
    genes again. A single group owns every index, so there the population
    itself evolves under ``evaluate`` for ``sub_fes // NP`` generations,
    with no context pass and no re-evaluation, and its history rows are
    labelled cycle 0, group 0 like plain NSDE's. Otherwise the visit
    evolves the group's genes in ``sub``, an (NP, ds) sub-population it
    maps itself when none is given; its trial buffer is the one its first
    generation mapped. Raises ValueError unless ``sub_fes`` funds one
    generation and the context pass, if any. Returns the evaluations
    charged, the generations run, and their history rows.

    ``evaluate`` scores the members as a :class:`ContextBatch` of
    ``best_genes``, the group's columns and the sub-population's genes or
    trial buffer. Those buffers are live: the next generation overwrites
    the trials, so ``evaluate`` must copy any rows it keeps. Each
    generation's trial batch carries ``bound``, the generation-start
    max(violation, eps) of each trial's parent. A trial whose violation is
    above it has a key above its parent's, so it loses whatever its f,
    and the evaluator may skip it. The context pass and the re-evaluation
    carry no bound.
    """
    np_size = pop.size
    # Several groups spend a population each on the context pass and the re-evaluation.
    context = np_size if len(plan) > 1 else 0
    if sub_fes < context + np_size:
        raise ValueError(f"sub_fes={sub_fes} cannot fund "
                         f"{'the context pass plus ' if context else ''}one generation")
    idx = plan[group - 1]
    if not context:
        sub, sub_evaluate = pop, evaluate
        cycle = group = 0
    else:
        if sub is None:
            sub = Population(_native.unpooled_empty((np_size, idx.size)), np.empty(np_size),
                             np.empty(np_size))
        # The columns are in range; "clip" skips the copy "raise" makes of out.
        np.take(pop.genes, idx, axis=1, out=sub.genes, mode="clip")
        sub.f, sub.violation = (np.asarray(a, dtype=float)
                                for a in evaluate(ContextBatch(best_genes, idx, sub.genes)))

        def sub_evaluate(trials: np.ndarray):
            # The bound of the generation that calls it, set below.
            return evaluate(ContextBatch(best_genes, idx, trials, bound))

    gens = (sub_fes - context) // np_size
    history: list[GenerationRecord] = []
    for generation in range(gen_start, gen_start + gens):
        eps = epsilon_at(sched, min(generation, sched.gmax))
        # Each parent's key: a trial whose violation is above it loses, so
        # a C3 trial batch (sub_evaluate) lets the evaluator skip it.
        bound = np.maximum(sub.violation, eps)
        nsde_generation(sub, sub_evaluate, eps, de_cfg, _keyed_rng(seed, _GENERATION, generation))
        b = sub.eps_best_index(eps)
        history.append(
            GenerationRecord(
                generation=generation + 1,
                cycle=cycle,
                group=group,
                best_f=float(sub.f[b]),
                best_violation=float(sub.violation[b]),
                epsilon=eps,
            )
        )
    if context:
        pop.genes[:, idx] = sub.genes
        pop.f, pop.violation = (np.asarray(a, dtype=float) for a in evaluate(pop.genes))
    return 2 * context + gens * np_size, gens, history


def _make_schedule(
    eps0: float, total_budget: int, np_size: int, gc_fraction: float, lam: float
) -> EpsilonSchedule:
    gmax = total_budget // np_size
    gc = max(1, int(gc_fraction * gmax))
    return EpsilonSchedule(eps0=eps0, gc=gc, gmax=gmax, lam=lam)


def run_c3(
    evaluate,
    dim: int,
    c3_cfg: C3Config,
    de_cfg: DEConfig,
    seed: int,
) -> OptimizationResult:
    """Full coevolution loop: cycles of regrouping and subcomponent visits.

    Visit v is group v % ns + 1 of cycle v // ns + 1; a cycle's first visit
    draws its partition. The run alone tracks the total budget: a visit
    starts only if what is left funds the least visit, and spends at most
    what is left after its re-evaluation. With more than one group, every
    visit reuses one (NP, ds) sub-population that the run maps. Returns the
    feasibility-first best of the final population and the history.
    """
    np_size = de_cfg.np_size
    ns, sub_fes, visit_min = c3_cfg.layout(dim, np_size)
    reeval = np_size if ns > 1 else 0

    genes = init_population(de_cfg, dim, _keyed_rng(seed, _INIT))
    f, viol = evaluate(genes)
    pop = Population(genes, np.asarray(f, dtype=float), np.asarray(viol, dtype=float))
    fes = np_size
    sched = _make_schedule(
        float(pop.violation.max()), c3_cfg.total_budget, np_size,
        c3_cfg.gc_fraction, c3_cfg.lam,
    )
    gen = 0
    history: list[GenerationRecord] = []
    best_genes = pop.genes[pop.eps_best_index(epsilon_at(sched, 0))].copy()
    sub = Population(_native.unpooled_empty((np_size, c3_cfg.ds)), np.empty(np_size),
                     np.empty(np_size)) if ns > 1 else None

    visit = 0
    while fes + visit_min <= c3_cfg.total_budget:
        cycle, group = divmod(visit, ns)
        if group == 0:
            plan = random_grouping(dim, ns, _keyed_rng(seed, _GROUPING, cycle + 1))
        used, gens, rows = optimize_subcomponent(
            pop, plan, group + 1, best_genes, evaluate, sched, de_cfg,
            min(sub_fes, c3_cfg.total_budget - fes - reeval), seed,
            gen_start=gen, cycle=cycle + 1, sub=sub,
        )
        visit += 1
        fes += used
        gen += gens
        history.extend(rows)
        eps = epsilon_at(sched, gen)
        best_genes = pop.genes[pop.eps_best_index(eps)].copy()

    final = pop.eps_best_index(0.0)
    return OptimizationResult(
        best=pop.candidate(final),
        history=history,
        evaluations=fes,
        generations=gen,
    )


def run_nsde(
    evaluate,
    dim: int,
    total_budget: int,
    de_cfg: DEConfig,
    seed: int,
    gc_fraction: float = 0.2,
    lam: float = 10.0,
) -> OptimizationResult:
    """Plain full-dimensional NSDE: :func:`run_c3` with a single group."""
    return run_c3(
        evaluate,
        dim,
        C3Config(ds=dim, total_budget=total_budget, gc_fraction=gc_fraction, lam=lam),
        de_cfg,
        seed,
    )
