"""Experiment orchestration and the package's CSV formats.

A campaign builds one network, executes the configured number of
independent optimization runs (or a single deterministic baseline run),
and emits CSV artifacts (csv module dialect, numbers as ``.12g``). Run
seeds derive from the master seed by a fixed split, so a campaign is
reproducible byte for byte at any number of worker processes; wall times
go to timing.txt to keep the CSVs deterministic. Runs lost to a diverged
integration go to aborted.txt, which exists only then. This module reads
and writes every file of the package, the config JSON included.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import re
import shutil
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _native
from .baselines import (
    constant_adaptation_schedule,
    no_adaptation_schedule,
)
from .coevolve import C3Config, GenerationRecord, run_c3, run_nsde
from .de_core import DEConfig
from .dynamics import (
    EpidemicParams,
    IntegrationError,
    Trajectory,
    WeightSchedule,
    constraint_value,
    decision_dimension,
    decode_candidate,
    integrate,
    make_batch_evaluator,
    objective_value,
    trace_series,
)
from .graph import Network, generate_ba
from .stats import AlgorithmSummary, summarize

ALGORITHMS = ("nsde", "nsde_c3", "none", "constant")

# Budget identity of the constant baseline holds only to round-off; deviations
# below this are reported as exactly feasible.
BASELINE_FEAS_ATOL = 1e-9

# Lists a campaign's lost runs, one "run <id>: <message>" line each.
ABORTED_FILE = "aborted.txt"

# The checked CSV formats: each column's name and the kind its field holds.
NETWORK_HEADER = {"i": int, "j": int, "w": float}
SCHEDULE_HEADER = {"t": int, "i": int, "j": int, "w": float}
RUNS_HEADER = {"algorithm": str, "run": int, "ofv": float, "violation": float,
               "evaluations": int, "generations": int}


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


def normalize_algorithm(name: str) -> str:
    """Map CLI spellings (nsde-c3) onto config tokens (nsde_c3)."""
    token = name.strip().lower().replace("-", "_")
    if token not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    return token


_FIELD_KINDS = {"int": "an integer", "int | None": "an integer or null",
                "float": "a finite number", "str": "a string"}


def _has_field_type(value, annotation: str) -> bool:
    """Whether a config value fits its field: bools are not numbers, floats are finite."""
    if value is None:
        return annotation.endswith("| None")
    if annotation == "str":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if annotation == "float":
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, numbers.Integral)


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign parameters: network, epidemic, budget, optimizer, and runs.

    Optimizer sizes default to the full-scale campaign reported in the
    source experiments; desk-scale studies override ``np_size``/``total_fes``.
    ``ds`` of None decomposes by one weight matrix per subcomponent and
    ``sub_fes`` of None spends ten populations per subcomponent visit.
    """

    n: int = 20
    m0: int = 5
    m: int = 5
    net_seed: int = 1
    beta: float = 0.4
    gamma: float = 0.3
    p0: float = 0.153
    horizon: int = 10
    substeps: int = 20
    budget: float = 700.0
    algorithm: str = "nsde_c3"
    np_size: int = 350
    cr: float = 0.9
    fp: float = 0.5
    ds: int | None = None
    sub_fes: int | None = None
    total_fes: int = 6_300_000
    gc_fraction: float = 0.2
    lam: float = 10.0
    runs: int = 25
    master_seed: int = 0

    _JSON_KEYS = {"np": "np_size"}

    def __post_init__(self) -> None:
        json_names = {v: k for k, v in self._JSON_KEYS.items()}
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_field_type(value, f.type):
                name = json_names.get(f.name, f.name)
                got = "null" if value is None else repr(value)
                raise ConfigError(f"{name} must be {_FIELD_KINDS[f.type]}, got {got}")
        object.__setattr__(self, "algorithm", normalize_algorithm(self.algorithm))
        checks = [
            (self.n >= 2, "n must be at least 2"),
            (1 <= self.m <= self.m0 <= self.n, "need 1 <= m <= m0 <= n"),
            (self.net_seed >= 0, "net_seed must be nonnegative"),
            (self.budget >= 0.0, "budget must be nonnegative"),
            (self.total_fes >= 1, "total_fes must be positive"),
            (self.sub_fes is None or self.sub_fes >= 1, "sub_fes must be positive"),
            (self.runs >= 1, "runs must be at least 1"),
            (self.master_seed >= 0, "master_seed must be nonnegative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            self.epidemic_params().check_step(self.n)
            self.de_config()
            c3 = self.c3_config()
            if self.algorithm in ("nsde", "nsde_c3"):
                dim = decision_dimension(self.n, self.horizon)
                # run_nsde evolves all genes as one group at the default visit budget.
                if self.algorithm == "nsde":
                    c3 = replace(c3, ds=dim, sub_fes=None)
                c3.layout(dim, self.np_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def json_keys(cls) -> list[str]:
        names = [f.name for f in fields(cls) if not f.name.startswith("_")]
        reverse = {v: k for k, v in cls._JSON_KEYS.items()}
        return [reverse.get(name, name) for name in names]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        allowed = set(cls.json_keys())
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; allowed keys are {sorted(allowed)}"
            )
        return cls(**{cls._JSON_KEYS.get(key, key): value for key, value in data.items()})

    def epidemic_params(self) -> EpidemicParams:
        return EpidemicParams(
            beta=self.beta,
            gamma=self.gamma,
            p0=self.p0,
            horizon=self.horizon,
            substeps=self.substeps,
        )

    def de_config(self) -> DEConfig:
        return DEConfig(np_size=self.np_size, cr=self.cr, fp=self.fp)

    def c3_config(self) -> C3Config:
        """Coevolution layout for the config's n nodes; ``ds`` of None is n(n-1)."""
        return C3Config(
            ds=self.ds if self.ds is not None else self.n * (self.n - 1),
            total_budget=self.total_fes,
            sub_fes=self.sub_fes,
            gc_fraction=self.gc_fraction,
            lam=self.lam,
        )


def load_config(path: str | Path, net: Network, **overrides) -> ExperimentConfig:
    """Read a JSON config for ``net``, whose node count is its ``n``, and set ``overrides``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    # Before the layout checks, which would read a wrong n as a wrong dimension.
    if _has_field_type(n := data.get("n", net.n), "int") and n != net.n:
        raise ConfigError(f"config {path} sets n={n}, but the network has {net.n} nodes")
    return ExperimentConfig.from_dict({"n": net.n, **data, **overrides})


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one independent run: scores, history, and best-candidate traces."""

    algorithm: str
    run: int
    ofv: float
    violation: float
    evaluations: int
    generations: int
    history: list[GenerationRecord] = field(repr=False)
    schedule: WeightSchedule = field(repr=False)
    trajectory: Trajectory = field(repr=False)
    wall_time: float = 0.0


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Fixed per-run seed split: first 64-bit word of SeedSequence([master, run])."""
    seq = np.random.SeedSequence([master_seed, run_index])
    return int(seq.generate_state(1, np.uint64)[0])


def _optimizer_record(
    cfg: ExperimentConfig, net: Network, params: EpidemicParams, run_index: int, threads: int
) -> RunRecord:
    start = time.perf_counter()
    dim = decision_dimension(net.n, cfg.horizon)
    de_cfg = cfg.de_config()
    seed = derive_run_seed(cfg.master_seed, run_index)
    # The run's kernel passes, evaluator and trials alike, split over its share of the CPUs.
    with _native.threads(threads):
        evaluate = make_batch_evaluator(net, params, cfg.budget)
        if cfg.algorithm == "nsde_c3":
            result = run_c3(evaluate, dim, cfg.c3_config(), de_cfg, seed)
        else:
            result = run_nsde(
                evaluate, dim, cfg.total_fes, de_cfg, seed,
                gc_fraction=cfg.gc_fraction, lam=cfg.lam,
            )
    schedule = decode_candidate(result.best.genes, net.n, cfg.horizon)
    trajectory = integrate(net, params, schedule)
    return RunRecord(
        algorithm=cfg.algorithm,
        run=run_index,
        ofv=result.best.f,
        violation=result.best.violation,
        evaluations=result.evaluations,
        generations=result.generations,
        history=result.history,
        schedule=schedule,
        trajectory=trajectory,
        wall_time=time.perf_counter() - start,
    )


def _baseline_record(
    cfg: ExperimentConfig, net: Network, params: EpidemicParams, schedule: WeightSchedule
) -> RunRecord:
    start = time.perf_counter()
    trajectory = integrate(net, params, schedule)
    g = constraint_value(schedule, net, cfg.budget)
    violation = 0.0 if g <= BASELINE_FEAS_ATOL else g
    return RunRecord(
        algorithm=cfg.algorithm,
        run=0,
        ofv=objective_value(trajectory),
        violation=violation,
        evaluations=1,
        generations=0,
        history=[],
        schedule=schedule,
        trajectory=trajectory,
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class RunFailure:
    run: int
    message: str


def _run_one(payload: tuple[ExperimentConfig, Network, int, int]) -> RunRecord | RunFailure:
    cfg, net, run_index, threads = payload
    try:
        return _optimizer_record(cfg, net, cfg.epidemic_params(), run_index, threads)
    except IntegrationError as exc:
        return RunFailure(run=run_index, message=str(exc))


def _outcomes(payloads: list[tuple], procs: int) -> Iterator[RunRecord | RunFailure]:
    """Each payload's outcome, in order, as it is ready: from a pool of ``procs`` processes."""
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: one process loads no pool

        with ProcessPoolExecutor(max_workers=procs) as pool:
            yield from pool.map(_run_one, payloads)
    else:
        yield from map(_run_one, payloads)


def run_experiment(
    cfg: ExperimentConfig,
    net: Network | None = None,
    outdir: str | Path | None = None,
    workers: int = 1,
    first_run: int = 0,
) -> list[RunRecord]:
    """Execute one campaign and optionally emit its CSV artifacts.

    The network is generated from ``net_seed`` unless one is supplied (the
    CLI loads it from disk so every algorithm sees the same instance).
    Baselines produce a single deterministic record; optimizer campaigns
    produce ``cfg.runs`` records, runs ``first_run`` onwards, whose seeds
    derive from the master seed and the run's id. So a campaign run in
    slices of ids gives the runs of one campaign run whole. Records come
    back in run order regardless of ``workers``. Each of the processes that
    run at once splits its kernel passes, the evaluator's batches and the
    NSDE trial passes, over an equal share of the usable CPUs, at least
    one. ``workers`` below 1, a negative ``first_run``, a network that is
    not ``cfg.n`` nodes (ConfigError) or a budget above the constant
    baseline's cap (ValueError) fails before ``outdir`` is created, which
    comes before the first run, so a path that cannot hold it fails at once.

    With an ``outdir``, the runs stream through :func:`emit_run_artifacts`,
    which first clears what an earlier campaign left there and writes each
    run's directory as the run returns. Runs lost to a diverged integration
    are not written: each is reported on stderr as it comes, and, once
    runs.csv and timing.txt are written, listed in aborted.txt.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if first_run < 0:
        raise ConfigError(f"the first run id must be nonnegative, got {first_run}")
    if net is None:
        net = generate_ba(cfg.n, cfg.m0, cfg.m, cfg.net_seed)
    elif net.n != cfg.n:
        raise ConfigError(f"the config is for n={cfg.n} nodes, but the network has {net.n}")
    params = cfg.epidemic_params()
    if cfg.algorithm in ("none", "constant"):
        # The constant baseline's budget cap depends on the network, so it is
        # checked here, before outdir; the run comes lazily, as the optimizers' do.
        schedule = (no_adaptation_schedule(net, cfg.horizon) if cfg.algorithm == "none"
                    else constant_adaptation_schedule(net, cfg.horizon, cfg.budget))
        outcomes = (_baseline_record(cfg, net, params, s) for s in [schedule])
    else:
        ids = range(first_run, first_run + cfg.runs)
        # The pool forks all its workers at once, so no more than there are runs.
        procs = min(workers, cfg.runs)
        threads = max(1, _native.usable_cpus() // procs)
        outcomes = _outcomes([(cfg, net, r, threads) for r in ids], procs)
    failures: list[RunFailure] = []

    def completed() -> Iterator[RunRecord]:
        for out in outcomes:
            if isinstance(out, RunRecord):
                yield out
            else:
                # A diverged integration loses its run, not the campaign.
                failures.append(out)
                print(f"run {out.run} aborted: {out.message}", file=sys.stderr)

    if outdir is None:
        return list(completed())
    records = emit_run_artifacts(completed(), net, outdir)
    if failures:
        (Path(outdir) / ABORTED_FILE).write_text(
            "".join(f"run {out.run}: {out.message}\n" for out in failures))
    return records


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _open(path: str | Path, mode: str = "r"):
    """``path`` opened as text in ``mode``, newlines left to csv; failing that, a ConfigError."""
    try:
        return Path(path).open(mode, newline="")
    except OSError as exc:
        verb = "write" if "w" in mode else "read"
        raise ConfigError(f"cannot {verb} {path}: {exc.strerror}") from None


def _write_csv(path: str | Path, header: Iterable[str], rows) -> None:
    """Write ``header`` and then ``rows`` in the csv module's default dialect.

    A file that cannot be opened for writing is a ConfigError.
    """
    with _open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path: str | Path, columns: dict[str, type]):
    """Yield ``(where, values)`` per nonblank row of a CSV headed by ``columns``.

    ``columns`` maps each column, in order, to the kind of its field: str,
    int or float. ``where`` is ``path:line``; it starts every error raised
    here and the caller's own. A file that cannot be read is a ConfigError.
    """
    header = list(columns)
    width = f"{len(header)} fields {','.join(header)}"
    ints, reals = (",".join(name for name in header if columns[name] is k) for k in (int, float))
    kinds = f"{ints} must be integers, {reals} {'numbers' if ',' in reals else 'a number'}"
    with _open(path) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ConfigError(f"{path}: expected header '{','.join(header)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise ConfigError(f"{where}: expected {width}, got {len(row)}")
            try:
                values = [kind(v) for kind, v in zip(columns.values(), row)]
            except ValueError:
                raise ConfigError(f"{where}: {kinds}") from None
            yield where, values


def save_network(net: Network, path: str | Path) -> None:
    """Write the network as CSV rows ``i,j,w``, one per directed nonzero weight."""
    _write_csv(path, NETWORK_HEADER,
               ([i, j, _fmt(w)] for (i, j), w in np.ndenumerate(net.w0) if w > 0.0))


def load_network(path: str | Path) -> Network:
    """Read a network CSV written by :func:`save_network`, validating invariants.

    Node ids are nonnegative integers; the node count is the largest id + 1.
    """
    weights: dict[tuple[int, int], float] = {}
    for where, (i, j, w) in _read_rows(path, NETWORK_HEADER):
        if i < 0 or j < 0:
            raise ConfigError(f"{where}: node ids must be nonnegative")
        if i == j:
            raise ConfigError(f"{where}: self-loop at node {i}")
        if (i, j) in weights:
            raise ConfigError(f"{where}: duplicate entry for ({i}, {j})")
        if not 0.0 < w <= 1.0:
            raise ConfigError(f"{where}: weight {w} for ({i}, {j}) outside (0, 1]")
        weights[(i, j)] = w
    if not weights:
        raise ConfigError(f"{path}: no weight rows")
    n = max(max(ij) for ij in weights) + 1
    w0 = np.zeros((n, n))
    for (i, j), w in weights.items():
        w0[i, j] = w
    try:
        return Network(w0)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_schedule_csv(sched: WeightSchedule, path: Path) -> None:
    """All off-diagonal weights of every block, rows ``t,i,j,w`` with t >= 1."""
    _write_csv(path, SCHEDULE_HEADER,
               ([t + 1, i, j, _fmt(w)]
                for (t, i, j), w in np.ndenumerate(sched.blocks) if i != j))


def read_schedule_csv(path: str | Path, n: int, horizon: int) -> WeightSchedule:
    """Read a schedule written by :func:`write_schedule_csv`.

    Every off-diagonal entry of every block must appear exactly once, with
    a weight in [0, 1].
    """
    blocks = np.zeros((horizon - 1, n, n))
    seen: set[tuple[int, int, int]] = set()
    for where, (t, i, j, w) in _read_rows(path, SCHEDULE_HEADER):
        if not 1 <= t < horizon:
            raise ConfigError(f"{where}: block index {t} outside [1, {horizon})")
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"{where}: node ids must lie in [0, {n})")
        if i == j:
            raise ConfigError(f"{where}: diagonal weights must stay zero")
        if (t, i, j) in seen:
            raise ConfigError(f"{where}: duplicate entry t={t}, i={i}, j={j}")
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"{where}: weight {w} for t={t}, i={i}, j={j} outside [0, 1]")
        seen.add((t, i, j))
        blocks[t - 1, i, j] = w
    expected = (horizon - 1) * n * (n - 1)
    if len(seen) != expected:
        raise ConfigError(f"{path}: {expected - len(seen)} of {expected} entries missing")
    return WeightSchedule(blocks=blocks)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Export a trajectory as CSV rows ``t, p_0, ..., p_{N-1}``."""
    _write_csv(path, ["t"] + [f"p_{i}" for i in range(traj.p.shape[1])],
               ([_fmt(t), *map(_fmt, row)] for t, row in zip(traj.times, traj.p)))


def emit_run_artifacts(
    records: Iterable[RunRecord], net: Network, outdir: str | Path
) -> list[RunRecord]:
    """Write a campaign directory from ``records``; returns them as a list.

    ``outdir`` is made if it is missing, and what an earlier campaign left
    there goes first: every ``run_<digits>`` directory, runs.csv, timing.txt
    and aborted.txt. So no file of another campaign can pass for a run that
    this one lost or has not reached. Each record's ``run_NN`` directory,
    its history, traces and best schedule, is written as the record
    arrives, so a campaign cut short keeps the runs it finished. runs.csv,
    one row per record in the order they came, and timing.txt come last.
    """
    outdir = Path(outdir)
    _make_dir(outdir)
    for old in outdir.iterdir():
        if re.fullmatch(r"run_\d+", old.name) and old.is_dir():
            shutil.rmtree(old)
    for name in ("runs.csv", "timing.txt", ABORTED_FILE):
        (outdir / name).unlink(missing_ok=True)
    written = []
    for rec in records:
        _write_run_dir(rec, net, outdir)
        written.append(rec)
    _write_csv(outdir / "runs.csv", RUNS_HEADER,
               ([rec.algorithm, rec.run, _fmt(rec.ofv), _fmt(rec.violation),
                 rec.evaluations, rec.generations] for rec in written))
    (outdir / "timing.txt").write_text(
        "".join(f"run {rec.run}: {rec.wall_time:.3f} s\n" for rec in written))
    return written


def _write_run_dir(rec: RunRecord, net: Network, outdir: Path) -> None:
    """One run's history, best schedule and I and W traces, in its ``run_NN`` directory."""
    rdir = outdir / f"run_{rec.run:02d}"
    rdir.mkdir(exist_ok=True)
    _write_csv(rdir / "history.csv",
               ["generation", "cycle", "group", "best_f", "best_violation", "epsilon"],
               ([row.generation, row.cycle, row.group, _fmt(row.best_f),
                 _fmt(row.best_violation), _fmt(row.epsilon)] for row in rec.history))
    write_schedule_csv(rec.schedule, rdir / "best_schedule.csv")
    times, i_level, w_level = trace_series(rec.trajectory, rec.schedule, net)
    for name, series in (("I", i_level), ("W", w_level)):
        _write_csv(rdir / f"trace_{name}.csv", ["t", name],
                   ([_fmt(t), _fmt(value)] for t, value in zip(times, series)))


def aborted_count(indir: str | Path) -> int:
    """How many runs the campaign in ``indir`` lost, as its aborted.txt lists them."""
    aborted = Path(indir) / ABORTED_FILE
    if not aborted.exists():
        return 0
    with _open(aborted) as fh:
        return len(fh.read().splitlines())


def summarize_run_dirs(
    indirs: Sequence[str | Path], reference: str
) -> list[AlgorithmSummary]:
    """Aggregate the runs.csv files of campaign directories into summary rows.

    Every row needs finite ofv and violation, every file a row, and every
    (algorithm, run) pair one row among all the files.
    """
    ofvs: dict[str, list[float]] = {}
    viols: dict[str, list[float]] = {}
    first: dict[tuple[str, int], str] = {}
    for indir in indirs:
        path = Path(indir) / "runs.csv"
        before = len(first)
        for where, (algorithm, run, ofv, violation, _, _) in _read_rows(path, RUNS_HEADER):
            if not (math.isfinite(ofv) and math.isfinite(violation)):
                raise ConfigError(f"{where}: ofv and violation must be finite")
            if (algorithm, run) in first:
                raise ConfigError(f"{where}: duplicate run {run} of {algorithm}, "
                                  f"first read at {first[algorithm, run]}")
            first[algorithm, run] = where
            ofvs.setdefault(algorithm, []).append(ofv)
            viols.setdefault(algorithm, []).append(violation)
        if len(first) == before:
            raise ConfigError(f"{path}: no run rows")
    return summarize(ofvs, reference=normalize_algorithm(reference), violations=viols)


def write_summary_csv(rows: Sequence[AlgorithmSummary], path: str | Path) -> None:
    _write_csv(path, ["algorithm", "mean_ofv", "std", "p_value", "best", "infeasible_runs"],
               ([row.algorithm, _fmt(row.mean_ofv), _fmt(row.std),
                 "-" if row.p_value is None else _fmt(row.p_value),
                 int(row.is_best), row.n_infeasible] for row in rows))
