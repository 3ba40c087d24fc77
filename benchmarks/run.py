"""Benchmark of the epiadapt reproduction, end to end and per module.

Usage, from the repository root:

    python3 benchmarks/run.py --workload c3-reference-cycle --seed 1 --seconds 40 --trace 0

``--workload all`` (the default) runs every workload in turn. With
``--trace 0`` the last line of standard output is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
timed calls into each module and from spans recorded around those calls.
Both modes check every output against ``oracle.py`` and the method's
properties. Results, traces and campaign files go to ``.bench_work/``. See
README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread, set before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "epiadapt" / "__init__.py").is_file():
    sys.exit(f"benchmark: no epiadapt package under {SRC}")
sys.path.insert(0, str(SRC))

import epiadapt  # noqa: E402
from epiadapt import (  # noqa: E402
    C3Config,
    DEConfig,
    EpidemicParams,
    EpsilonSchedule,
    ExperimentConfig,
    Population,
    better_than,
    decision_dimension,
    decode_candidate,
    generate_ba,
    integrate,
    load_network,
    make_batch_evaluator,
    nsde_generation,
    objective_value,
    optimize_subcomponent,
    random_grouping,
    run_c3,
    run_experiment,
    run_nsde,
    spectral_radius,
)
from epiadapt import harness  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402

# The paper's network class and epidemic: BA n=20, m0=m=5, net seed 1
# (spectral radius 9.47), beta 0.4, gamma 0.3, p0 0.153, T=10, budget 700,
# so D = 20*19*9 = 3420.
PROBLEM = dict(
    n=20, m0=5, m=5, net_seed=1, beta=0.4, gamma=0.3, p0=0.153, horizon=10, budget=700.0
)
SETUP_REPEATS = 7
MICRO_REPEATS = 5
SAMPLE_ROWS = 4
# Untraced campaign rounds repeat this many of the optimize step's runs
# in-process at workers=1 for the byte comparison; traced rounds repeat all
# of them at workers=1 and 2, which also times the harness.
W1_REPEAT_RUNS = 2
# Reference campaign: 25 runs of 6.3M evaluations, i.e. 180 runs' worth
# of one 35k-evaluation workload run each.
REFERENCE_RUNS = 25
REFERENCE_FES = 6_300_000


@dataclasses.dataclass(frozen=True)
class OptimizerWorkload:
    """One ``run_c3``/``run_nsde`` call per operation at fixed settings.

    ``ds`` of None is plain NSDE over all genes. ``budget_s`` is the part of
    ``--seconds`` one run is given: ``--seconds // budget_s`` runs, at least
    one, make up a benchmark run.
    The count never depends on the clock, so the work done, and ``ofv``,
    depend only on the seed and ``--seconds``.
    """

    name: str
    np_size: int
    substeps: int
    total_fes: int
    ds: int | None
    sub_fes: int | None
    budget_s: float


@dataclasses.dataclass(frozen=True)
class CampaignWorkload:
    """The CLI pipeline gen-net, optimize, baselines, optimize, stats per round.

    ``budget_s`` plays the same part as in :class:`OptimizerWorkload`.
    """

    name: str
    np_size: int
    substeps: int
    total_fes: int
    runs: int
    workers: int
    budget_s: float


WORKLOADS = {
    w.name: w
    for w in (
        OptimizerWorkload("c3-reference-cycle", 350, 20, 35_000, 380, 3500, 13.0),
        OptimizerWorkload("nsde-coarse", 350, 4, 35_000, None, None, 11.0),
        CampaignWorkload("campaign-desk", 60, 10, 6000, 8, 2, 30.0),
    )
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "campaign_s": "s",
    "ofv": "objective",
    "peak_rss_mb": "MB",
}
CLI_STEPS = (
    "gen-net", "optimize-nsde-c3", "baseline-none", "baseline-constant",
    "optimize-nsde", "stats",
)
PER_LAYER = {
    "cli.import_s": "s",
    "graph.generate_ba_ms": "ms",
    "graph.spectral_radius_ms": "ms",
    "dynamics.make_evaluator_ms": "ms",
    "dynamics.batch_us_per_candidate": "us",
    "dynamics.integrate_ms": "ms",
    "dynamics.evaluator_busy_s": "s",
    "dynamics.evaluator_calls": "count",
    "dynamics.rows_evaluated": "count",
    "dynamics.computed_gflop_per_s": "GFLOP/s",
    "de_core.generation_ms": "ms",
    "de_core.eps_best_index_us": "us",
    "eps_constraint.better_than_ns": "ns",
    "coevolve.visit_ms": "ms",
    "coevolve.self_s": "s",
    "coevolve.evals_charged": "count",
    "coevolve.generations": "count",
    "coevolve.charged_per_row": "ratio",
    "harness.run_experiment_s.w1": "s",
    "harness.run_experiment_s.w2": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.emit_artifacts_ms": "ms",
    "harness.artifact_bytes": "bytes",
    "harness.read_schedule_ms": "ms",
    "stats.summarize_ms": "ms",
    **{f"cli.{step}_s": "s" for step in CLI_STEPS},
    "trace.run_s_untraced": "s",
    "trace.run_s_traced": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans (name, op, parent, start, end) kept in memory until the run ends.

    A disabled tracer records nothing, so untraced runs pay only the
    context-manager call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name, "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


class CountingEvaluator:
    """The batch evaluator as passed to the optimizer: counted, traced, last call kept."""

    def __init__(self, evaluate, tracer: Tracer):
        self.evaluate = evaluate
        self.tracer = tracer
        self.calls = 0
        self.rows = 0
        self.last = None

    def __call__(self, x):
        with self.tracer.span("dynamics.evaluate"):
            f, viol = self.evaluate(x)
        self.calls += 1
        self.rows += len(x)
        self.last = (x, f, viol)
        return f, viol


def op_seed(seed: int, index: int) -> int:
    """Optimizer seed of operation ``index`` of a benchmark run with ``--seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def median_time(fn, repeats: int = MICRO_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def problem(substeps: int, w0: np.ndarray) -> oracle.Problem:
    p = PROBLEM
    return oracle.Problem(
        w0=np.asarray(w0, dtype=float), beta=p["beta"], gamma=p["gamma"], p0=p["p0"],
        horizon=p["horizon"], substeps=substeps, budget=p["budget"],
    )


def epidemic(substeps: int) -> EpidemicParams:
    p = PROBLEM
    return EpidemicParams(p["beta"], p["gamma"], p["p0"], p["horizon"], substeps)


def benchmark_network():
    p = PROBLEM
    return generate_ba(p["n"], p["m0"], p["m"], p["net_seed"])


def setup_probe(substeps: int) -> tuple[float, dict]:
    """Wall time of a fresh interpreter up to a ready evaluator, and its step times."""
    cmd = [sys.executable, str(BENCH_DIR / "probe_setup.py"),
           json.dumps({**PROBLEM, "substeps": substeps})]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return time.perf_counter() - start, json.loads(proc.stdout)


def probe_layers(probes: list[dict]) -> dict:
    keys = {
        "cli.import_s": "import_s",
        "graph.generate_ba_ms": "generate_ba_ms",
        "graph.spectral_radius_ms": "spectral_radius_ms",
        "dynamics.make_evaluator_ms": "make_evaluator_ms",
    }
    return {name: statistics.median(p[key] for p in probes) for name, key in keys.items()}


def fresh_workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb(who: int) -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- module micro-benchmarks ---------------------------------------------


def module_layers(np_size: int, substeps: int, de_dim: int, net, workdir: Path) -> dict:
    """Timed calls into dynamics, de_core, eps_constraint, coevolve and harness.

    Sizes follow the workload: NP candidates at its substeps; a DE
    generation over ``de_dim`` genes with a null evaluator; one C3 visit
    with ds=380 and sub_fes=10*NP.
    """
    rng = np.random.default_rng(12345)
    n, horizon = net.n, PROBLEM["horizon"]
    dim = decision_dimension(n, horizon)
    params = epidemic(substeps)
    evaluate = make_batch_evaluator(net, params, PROBLEM["budget"])
    x = rng.random((np_size, dim))
    sched = decode_candidate(x[0], n, horizon)
    out = {
        "dynamics.batch_us_per_candidate":
            1e6 * median_time(lambda: evaluate(x)) / np_size,
        "dynamics.integrate_ms":
            1e3 * median_time(lambda: objective_value(integrate(net, params, sched))),
    }

    de_cfg = DEConfig(np_size=np_size)
    zeros = np.zeros(np_size)
    pop = Population(rng.random((np_size, de_dim)), zeros.copy(), zeros.copy())
    out["de_core.generation_ms"] = 1e3 * median_time(
        lambda: nsde_generation(pop, lambda t: (zeros, zeros), 0.0, de_cfg,
                                np.random.default_rng(7))
    )
    ranked = Population(pop.genes, rng.random(np_size),
                        np.where(rng.random(np_size) < 0.5, 0.0, rng.random(np_size)))
    out["de_core.eps_best_index_us"] = 1e6 * median_time(lambda: ranked.eps_best_index(0.1))

    fa, va, fb, vb = (rng.random(1000).tolist() for _ in range(4))

    def comparisons():
        for _ in range(100):
            for a, b, c, d in zip(fa, va, fb, vb):
                better_than(a, b, c, d, 0.5)

    out["eps_constraint.better_than_ns"] = 1e9 * median_time(comparisons) / 100_000

    genes = rng.random((np_size, dim))
    f, viol = evaluate(genes)
    visit_pop = Population(genes, f, viol)
    plan = random_grouping(dim, dim // 380, rng)
    eps_sched = EpsilonSchedule(eps0=float(viol.max()), gc=20, gmax=100)
    start = time.perf_counter()
    optimize_subcomponent(visit_pop, plan, 1, genes[0].copy(), evaluate, eps_sched,
                          de_cfg, 10 * np_size, seed=3)
    out["coevolve.visit_ms"] = 1e3 * (time.perf_counter() - start)

    path = workdir / "schedule_probe.csv"
    harness.write_schedule_csv(sched, path)
    out["harness.read_schedule_ms"] = 1e3 * median_time(
        lambda: harness.read_schedule_csv(path, n, horizon)
    )
    return out


# --- optimizer workloads ---------------------------------------------------


def optimizer_run(wl: OptimizerWorkload, net, seed: int, tracer: Tracer):
    """One optimizer run; returns its checked-later outcome and wall time."""
    counter = CountingEvaluator(
        make_batch_evaluator(net, epidemic(wl.substeps), PROBLEM["budget"]), tracer
    )
    dim = decision_dimension(net.n, PROBLEM["horizon"])
    de_cfg = DEConfig(np_size=wl.np_size)
    start = time.perf_counter()
    if wl.ds is None:
        with tracer.span("coevolve.run_nsde"):
            result = run_nsde(counter, dim, wl.total_fes, de_cfg, seed)
    else:
        c3_cfg = C3Config(ds=wl.ds, total_budget=wl.total_fes, sub_fes=wl.sub_fes)
        with tracer.span("coevolve.run_c3"):
            result = run_c3(counter, dim, c3_cfg, de_cfg, seed)
    run_s = time.perf_counter() - start

    x, f, viol = counter.last
    f = np.asarray(f, dtype=float).copy()
    viol = np.asarray(viol, dtype=float).copy()
    is_population = wl.ds is not None
    pick = set(np.random.default_rng([seed, 1]).choice(len(f), SAMPLE_ROWS, replace=False))
    if is_population:
        pick.add(checks.lexicographic_best(f, viol))
    index = np.array(sorted(pick))
    outcome = checks.OptimizerOutcome(
        best_genes=result.best.genes,
        best_f=result.best.f,
        best_violation=result.best.violation,
        evaluations=result.evaluations,
        generations=result.generations,
        history=[(h.generation, h.cycle, h.group, h.best_f, h.best_violation, h.epsilon)
                 for h in result.history],
        rows_seen=counter.rows,
        batch_f=f,
        batch_violation=viol,
        sample_index=index,
        sample_genes=np.asarray(x)[index].copy(),
        batch_is_population=is_population,
    )
    return outcome, run_s


def run_optimizer_workload(wl: OptimizerWorkload, seed: int, seconds: int, trace: bool):
    workdir = fresh_workdir(wl.name)
    tracer = Tracer(enabled=trace)
    untraced = Tracer(enabled=False)
    setups = [setup_probe(wl.substeps) for _ in range(SETUP_REPEATS)]
    net = benchmark_network()
    ops = max(2 if trace else 1, int(seconds // wl.budget_s))
    outcomes, traced_outcomes, plain_s, traced_s, failed = [], [], [], [], 0
    for i in range(ops):
        # Trace mode alternates untraced and traced runs of the same work.
        traced = trace and i % 2 == 1
        tracer.op = i
        try:
            outcome, run_s = optimizer_run(wl, net, op_seed(seed, i),
                                           tracer if traced else untraced)
        except Exception:  # noqa: BLE001 - a failed run is counted, the rest go on
            traceback.print_exc()
            failed += 1
            continue
        outcomes.append(outcome)
        if traced:
            traced_outcomes.append(outcome)
        (traced_s if traced else plain_s).append(run_s)
        print(f"{wl.name}: run {i + 1}/{ops} {'traced ' if traced else ''}"
              f"{run_s:.3f} s, best f {outcome.best_f:.6f}", flush=True)
    rss = peak_rss_mb(resource.RUSAGE_SELF)

    prob = problem(wl.substeps, net.w0)
    ns = None if wl.ds is None else prob.dim // wl.ds
    fails = checks.check_network(net.w0, PROBLEM["n"], PROBLEM["m0"], PROBLEM["m"],
                                 setups[0][1]["rho"])
    for i, out in enumerate(outcomes):
        fails += [f"run {i}: {msg}" for msg in checks.check_optimizer(
            out, prob, wl.np_size, wl.total_fes, wl.sub_fes, ns)]
    if not outcomes:
        fails.append("no run finished")

    metrics = {}
    if plain_s and not trace:
        run_s = statistics.median(plain_s)
        evals = statistics.mean(o.evaluations for o in outcomes)
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "run_s": run_s,
            "evals_per_s": evals / run_s,
            "campaign_s": run_s * REFERENCE_RUNS * REFERENCE_FES / wl.total_fes,
            "ofv": statistics.mean(o.best_f for o in outcomes),
            "peak_rss_mb": rss,
        }
    if trace and plain_s and traced_s:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(probe_layers([p for _, p in setups]))
        layers.update(module_layers(wl.np_size, wl.substeps,
                                    wl.ds or prob.dim, net, workdir))
        layers.update(traced_run_layers(
            tracer, len(traced_outcomes), sum(o.rows_seen for o in traced_outcomes),
            sum(o.evaluations for o in traced_outcomes),
            sum(o.generations for o in traced_outcomes), wl.substeps))
        layers["trace.run_s_untraced"] = statistics.median(plain_s)
        layers["trace.run_s_traced"] = statistics.median(traced_s)
        layers["trace.overhead_s"] = layers["trace.run_s_traced"] - layers["trace.run_s_untraced"]
        metrics = layers
    samples = {"setup_s": [s for s, _ in setups], "run_s": plain_s, "run_s_traced": traced_s}
    return finish(wl.name, workdir, seed, seconds, trace, tracer, ops, failed, fails,
                  metrics, samples)


def traced_run_layers(
    tracer: Tracer, runs: int, rows: int, charged: int, generations: int, substeps: int
) -> dict:
    """Per-run evaluator and optimizer figures of the traced optimizer runs.

    ``rows`` were evaluated and ``charged`` charged over all ``runs``; the
    busy and self times come from the tracer's spans.
    """
    busy = tracer.total("dynamics.evaluate")
    optimizer = tracer.total("coevolve.run_c3") + tracer.total("coevolve.run_nsde")
    # Flops as computed from array sizes: per row, T-1 intervals of
    # `substeps` RK4 steps, each four n x n mat-vecs of 2n^2 flops.
    flops = rows * (PROBLEM["horizon"] - 1) * substeps * 4 * 2 * PROBLEM["n"] ** 2
    return {
        "dynamics.evaluator_busy_s": busy / runs,
        "dynamics.evaluator_calls": tracer.count("dynamics.evaluate") / runs,
        "dynamics.rows_evaluated": rows / runs,
        "dynamics.computed_gflop_per_s": flops / busy / 1e9,
        "coevolve.self_s": (optimizer - busy) / runs,
        "coevolve.evals_charged": charged / runs,
        "coevolve.generations": generations / runs,
        "coevolve.charged_per_row": charged / rows,
    }


# --- campaign workload -----------------------------------------------------


def gen_net_args(out: str) -> list[str]:
    p = PROBLEM
    return ["gen-net", "--n", str(p["n"]), "--m0", str(p["m0"]), "--m", str(p["m"]),
            "--seed", str(p["net_seed"]), "--out", out]


def cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "epiadapt", *args], cwd=cwd,
                          env=child_env(), capture_output=True, text=True, timeout=170)


@contextmanager
def traced_harness(tracer: Tracer, counters: list):
    """Route the harness's evaluators and optimizer calls through the tracer.

    The harness looks these names up in its own module, so swapping them
    there reaches every run it makes in this process; they are put back on
    exit.
    """
    saved = {k: getattr(harness, k) for k in ("make_batch_evaluator", "run_c3", "run_nsde")}

    def make(*a, **kw):
        counters.append(CountingEvaluator(saved["make_batch_evaluator"](*a, **kw), tracer))
        return counters[-1]

    def wrap(name):
        def call(*a, **kw):
            with tracer.span(f"coevolve.{name}"):
                return saved[name](*a, **kw)
        return call

    harness.make_batch_evaluator = make
    harness.run_c3, harness.run_nsde = wrap("run_c3"), wrap("run_nsde")
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(harness, k, v)


def campaign_round(wl: CampaignWorkload, seed: int, rdir: Path, tracer: Tracer, trace: bool):
    """One pass of the CLI pipeline plus the in-process workers=1 repeat."""
    config = {**PROBLEM, "substeps": wl.substeps, "np": wl.np_size,
              "total_fes": wl.total_fes, "runs": wl.runs, "master_seed": seed}
    (rdir / "exp.json").write_text(json.dumps(config))
    common = ["--net", "net.csv", "--config", "exp.json"]
    workers = ["--workers", str(wl.workers)]
    steps = {
        "gen-net": gen_net_args("net.csv"),
        "optimize-nsde-c3": ["optimize", *common, "--algo", "nsde-c3", *workers,
                             "--outdir", "nsde_c3"],
        "baseline-none": ["baseline", *common, "--mode", "none", "--outdir", "none"],
        "baseline-constant": ["baseline", *common, "--mode", "constant",
                              "--outdir", "constant"],
        "optimize-nsde": ["optimize", *common, "--algo", "nsde", *workers,
                          "--outdir", "nsde"],
        "stats": ["stats", "--indir", "nsde_c3", "nsde", "none", "constant",
                  "--ref", "nsde-c3", "--out", "summary.csv"],
    }
    step_s, failed, attempted = {}, 0, 0
    start = time.perf_counter()
    for step, args in steps.items():
        attempted += 1
        t0 = time.perf_counter()
        with tracer.span(f"cli.{step}"):
            proc = cli(args, rdir)
        step_s[step] = time.perf_counter() - t0
        if proc.returncode != 0:
            failed += 1
            print(f"step {step} exited {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
    campaign_s = time.perf_counter() - start
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    runs_csv = rdir / "nsde_c3" / "runs.csv"
    c3_runs = checks.read_csv_dicts(runs_csv) if runs_csv.is_file() else []

    cfg = ExperimentConfig.from_dict({**config, "algorithm": "nsde_c3"})
    net = load_network(rdir / "net.csv")
    counters: list[CountingEvaluator] = []
    attempted += 1
    t0 = time.perf_counter()
    if trace:
        with tracer.span("harness.run_experiment.w1"), traced_harness(tracer, counters):
            records = run_experiment(cfg, net=net, workers=1)
    else:
        records = run_experiment(dataclasses.replace(cfg, runs=W1_REPEAT_RUNS), net=net,
                                 workers=1)
    w1_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    harness.emit_run_artifacts(records, net, rdir / "nsde_c3_w1")
    emit_ms = 1e3 * (time.perf_counter() - t0)
    w2_s = None
    if trace:
        attempted += 1
        t0 = time.perf_counter()
        with tracer.span("harness.run_experiment.w2"):
            run_experiment(cfg, net=net, outdir=rdir / "nsde_c3_w2", workers=2)
        w2_s = time.perf_counter() - t0
    return {
        "step_s": step_s, "campaign_s": campaign_s, "rss": rss, "c3_runs": c3_runs,
        "w1_s": w1_s, "w2_s": w2_s, "emit_ms": emit_ms, "records": records,
        "counters": counters, "attempted": attempted, "failed": failed,
    }


def check_campaign_round(wl: CampaignWorkload, rdir: Path, trace: bool) -> list[str]:
    """Every check of one campaign round, on the files its steps wrote."""
    w0 = checks.read_network_csv(rdir / "net.csv")
    prob = problem(wl.substeps, w0)
    ds = PROBLEM["n"] * (PROBLEM["n"] - 1)  # the CLI's default decomposition
    fails = checks.check_network(w0, PROBLEM["n"], PROBLEM["m0"], PROBLEM["m"],
                                 spectral_radius(w0))
    if not np.array_equal(w0, benchmark_network().w0):
        fails.append("gen-net wrote another network than generate_ba builds")
    for algo, sub_fes, ns in (("nsde_c3", 10 * wl.np_size, prob.dim // ds),
                              ("nsde", None, None)):
        fails += checks.check_campaign_dir(
            rdir / algo, algo, prob, wl.runs, wl.np_size, wl.total_fes, sub_fes, ns)
    fails += checks.check_baselines(rdir / "none", rdir / "constant", prob)
    ofvs, viols = {}, {}
    for algo in ("nsde_c3", "nsde", "none", "constant"):
        table = checks.read_csv_dicts(rdir / algo / "runs.csv")
        ofvs[algo] = [float(r["ofv"]) for r in table]
        viols[algo] = [float(r["violation"]) for r in table]
    fails += checks.check_summary(rdir / "summary.csv", "nsde_c3", ofvs, viols)
    fails += checks.check_same_bytes(rdir / "nsde_c3", rdir / "nsde_c3_w1",
                                     wl.runs if trace else W1_REPEAT_RUNS)
    if trace:
        fails += checks.check_same_bytes(rdir / "nsde_c3", rdir / "nsde_c3_w2", wl.runs)
    genes, _ = checks.read_schedule_genes(rdir / "nsde_c3" / "run_00" / "best_schedule.csv",
                                          prob)
    fails += checks.check_convergence("nsde_c3 run 0", genes, prob)
    return fails


def run_campaign_workload(wl: CampaignWorkload, seed: int, seconds: int, trace: bool):
    workdir = fresh_workdir(wl.name)
    tracer = Tracer(enabled=trace)
    gen_net = gen_net_args("setup_net.csv")
    # Traced runs report set-up per layer from the probes; untraced ones
    # time the user's first step, gen-net, for setup_s.
    setup_times = []
    for _ in range(0 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = cli(gen_net, workdir)
        setup_times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"gen-net failed during set-up: {proc.stderr}")
    probes = [setup_probe(wl.substeps)[1] for _ in range(SETUP_REPEATS)] if trace else []

    ops = max(1, int(seconds // wl.budget_s))
    rounds, fails, attempted, failed = [], [], 0, 0
    for i in range(ops):
        tracer.op = i
        rdir = workdir / f"round_{i}"
        rdir.mkdir()
        rnd = campaign_round(wl, op_seed(seed, i) % 2**32, rdir, tracer, trace)
        print(f"{wl.name}: round {i + 1}/{ops} pipeline {rnd['campaign_s']:.3f} s, "
              f"workers=1 repeat {rnd['w1_s']:.3f} s", flush=True)
        attempted += rnd["attempted"]
        failed += rnd["failed"]
        rounds.append(rnd)
        try:
            bad = check_campaign_round(wl, rdir, trace)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            bad = [f"campaign outputs unreadable: {exc!r}"]
        fails += [f"round {i}: {msg}" for msg in bad]

    metrics = {}
    if not trace and all(rnd["c3_runs"] for rnd in rounds):
        # The optimizer unit here is the optimize --algo nsde-c3 step.
        step = [rnd["step_s"]["optimize-nsde-c3"] for rnd in rounds]
        evals = [sum(int(r["evaluations"]) for r in rnd["c3_runs"]) for rnd in rounds]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(step),
            "evals_per_s": statistics.median(e / s for e, s in zip(evals, step)),
            "campaign_s": statistics.median(rnd["campaign_s"] for rnd in rounds),
            "ofv": statistics.mean(
                statistics.mean(float(r["ofv"]) for r in rnd["c3_runs"]) for rnd in rounds),
            "peak_rss_mb": max(rnd["rss"] for rnd in rounds),
        }
    if trace:
        first = rounds[0]
        cdir = workdir / "round_0" / "nsde_c3"
        records = first["records"]
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(probe_layers(probes))
        layers.update(module_layers(wl.np_size, wl.substeps,
                                    PROBLEM["n"] * (PROBLEM["n"] - 1), load_network(
                                        workdir / "round_0" / "net.csv"), workdir))
        indirs = [workdir / "round_0" / d for d in ("nsde_c3", "nsde", "none", "constant")]
        layers.update(traced_run_layers(
            tracer, len(records), sum(c.rows for c in first["counters"]),
            sum(r.evaluations for r in records), sum(r.generations for r in records),
            wl.substeps))
        layers.update({
            "harness.run_experiment_s.w1": first["w1_s"],
            "harness.run_experiment_s.w2": first["w2_s"],
            "harness.parallel_efficiency": first["w1_s"] / (2 * first["w2_s"]),
            "harness.emit_artifacts_ms": first["emit_ms"],
            "harness.artifact_bytes": sum(f.stat().st_size for f in cdir.rglob("*")
                                          if f.is_file()),
            "harness.read_schedule_ms": 1e3 * median_time(lambda: harness.read_schedule_csv(
                cdir / "run_00" / "best_schedule.csv", PROBLEM["n"], PROBLEM["horizon"])),
            "stats.summarize_ms": 1e3 * median_time(
                lambda: harness.summarize_run_dirs(indirs, "nsde-c3")),
            **{f"cli.{step}_s": t for step, t in first["step_s"].items()},
        })
        metrics = layers
    samples = {"setup_s": setup_times, "step_s": [rnd["step_s"] for rnd in rounds]}
    return finish(wl.name, workdir, seed, seconds, trace, tracer, attempted, failed, fails,
                  metrics, samples)


# --- reporting -------------------------------------------------------------


def machine_record() -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=30,
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import scipy  # loaded only now, after the peak-RSS reading


    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_sha": sha,
        "epiadapt": epiadapt.__version__,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((SRC / "epiadapt").glob("*.py"))),
    }


def finish(name, workdir, seed, seconds, trace, tracer, attempted, failed, fails, metrics,
           samples):
    """Write result.json (and trace.json), print the metrics, return the result line.

    ``samples`` holds the raw timings the medians came from, for the record.
    """
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        fails = fails + [f"metrics not measured: {missing}"]
    for msg in fails:
        print(f"CHECK FAILED [{name}]: {msg}", flush=True)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(), "check_failures": fails, "samples": samples,
              **result}
    (workdir / "result.json").write_text(json.dumps(record, indent=2))
    if trace:
        (workdir / "trace.json").write_text(json.dumps(tracer.spans))
    for k, m in result["metrics"].items():
        print(f"{name}: {k} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: machine {json.dumps(record['machine'])}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        runner = run_campaign_workload if isinstance(wl, CampaignWorkload) \
            else run_optimizer_workload
        results[name] = runner(wl, args.seed, args.seconds, bool(args.trace))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
