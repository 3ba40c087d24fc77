"""Correctness checks of the benchmark's workloads.

Every check returns a list of failure messages; an empty list means the
outputs passed. The checks compare against :mod:`oracle`, against the
method's budget accounting and feasibility identities, and against scipy's
rank-sum test, never against stored output of an earlier run.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# Relative agreement required between the program and the oracle on the
# same grid: both run the same RK4 arithmetic in a different order.
ORACLE_RTOL = 1e-9
# CSV artifacts carry 12 significant digits; a violation sums 3420 squared
# rounded deviations, so its absolute rounding error stays below this.
CSV_VIOLATION_ATOL = 1e-7


@dataclass
class OptimizerOutcome:
    """What one optimizer run reported, and what its counting evaluator saw.

    ``batch_*`` hold the last evaluator call: for C3 that call re-evaluates
    the final population, for plain NSDE it scores the last generation's
    trials. ``sample_index`` rows of that batch are kept in ``sample_genes``.
    """

    best_genes: np.ndarray
    best_f: float
    best_violation: float
    evaluations: int
    generations: int
    history: list[tuple[int, int, int, float, float, float]]
    rows_seen: int
    batch_f: np.ndarray
    batch_violation: np.ndarray
    sample_index: np.ndarray
    sample_genes: np.ndarray
    batch_is_population: bool


def _close(a: float, b: float, rtol: float = ORACLE_RTOL, atol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def lexicographic_best(f: np.ndarray, violation: np.ndarray) -> int:
    """Index of the feasibility-first best: least violation, then least f, first on ties."""
    return int(np.lexsort((f, violation))[0])


def expected_visits(
    np_size: int, total_fes: int, sub_fes: int, ns: int
) -> tuple[list[tuple[int, int, int]], int]:
    """(cycle, group, generations) of each C3 visit the budget funds, and the total charged.

    A visit charges one population for the context pass, one per
    generation while the visit's ``sub_fes`` and the run's budget allow, and
    one for the re-evaluation; a visit starts only if it can fund all three.
    """
    fes, visits = np_size, []
    while fes + 3 * np_size <= total_fes:
        used, gens = np_size, 0
        while used + np_size <= sub_fes and fes + used + 2 * np_size <= total_fes:
            used += np_size
            gens += 1
        visits.append((len(visits) // ns + 1, len(visits) % ns + 1, gens))
        fes += used + np_size
    return visits, fes


def expected_rows(
    np_size: int, total_fes: int, sub_fes: int | None, ns: int | None
) -> tuple[list[tuple[int, int]], int]:
    """(cycle, group) of every history row, and the evaluations a run charges.

    ``ns`` of None is plain NSDE: one population per generation until the
    next generation would overrun the budget, every row at cycle 0, group 0.
    """
    if ns is None:
        gens = (total_fes - np_size) // np_size
        return [(0, 0)] * gens, np_size * (gens + 1)
    visits, fes = expected_visits(np_size, total_fes, sub_fes, ns)
    return [(c, g) for c, g, gens in visits for _ in range(gens)], fes


def check_candidate(
    label: str, genes: np.ndarray, f: float, viol: float, prob: oracle.Problem,
    viol_atol: float = 1e-9,
) -> list[str]:
    """Genes lie in [0, 1], and f and violation match the oracle."""
    out = []
    genes = np.asarray(genes, dtype=float)
    if genes.shape != (prob.dim,):
        return [f"{label}: {genes.shape} genes, expected ({prob.dim},)"]
    if not np.all((genes >= 0.0) & (genes <= 1.0)):
        out.append(f"{label}: genes outside [0, 1]")
    f_ref = oracle.objective(genes, prob)
    if not _close(f, f_ref):
        out.append(f"{label}: f={f!r} but the oracle gives {f_ref!r}")
    v_ref = oracle.violation(genes, prob)
    if not _close(viol, v_ref, atol=viol_atol):
        out.append(f"{label}: violation={viol!r} but the oracle gives {v_ref!r}")
    return out


def check_convergence(label: str, genes: np.ndarray, prob: oracle.Problem) -> list[str]:
    """RK4 on the workload's grid agrees with a tight solve_ivp within h^4."""
    f_rk4 = oracle.objective(genes, prob)
    f_ivp = oracle.ivp_objective(genes, prob)
    tol = oracle.rk4_tolerance(prob.substeps)
    if abs(f_rk4 - f_ivp) > tol * abs(f_ivp):
        return [f"{label}: RK4 f={f_rk4!r} vs solve_ivp f={f_ivp!r}, beyond {tol:.3g} relative"]
    return []


def check_optimizer(
    out: OptimizerOutcome,
    prob: oracle.Problem,
    np_size: int,
    total_fes: int,
    sub_fes: int | None,
    ns: int | None,
) -> list[str]:
    """Budget accounting, history bookkeeping, and oracle agreement of one run."""
    fails = []
    rows, charged = expected_rows(np_size, total_fes, sub_fes, ns)
    if out.evaluations > total_fes:
        fails.append(f"evaluations {out.evaluations} exceed total_fes {total_fes}")
    if out.evaluations != charged:
        fails.append(f"evaluations {out.evaluations}, the budget layout charges {charged}")
    if out.rows_seen != out.evaluations:
        fails.append(
            f"evaluator saw {out.rows_seen} rows, run reports {out.evaluations} evaluations"
        )
    if out.generations != len(rows) or len(out.history) != len(rows):
        fails.append(
            f"generations {out.generations} with {len(out.history)} history rows, "
            f"expected {len(rows)}"
        )
    gens = [h[0] for h in out.history]
    if gens != list(range(1, len(gens) + 1)):
        fails.append("history generations do not run consecutively from 1")
    if [(h[1], h[2]) for h in out.history] != rows[: len(out.history)]:
        fails.append("history cycle/group bookkeeping differs from the visit order")
    eps = [h[5] for h in out.history]
    if any(e < 0.0 for e in eps) or any(b > a for a, b in zip(eps, eps[1:])):
        fails.append("epsilon is negative or increases along the history")
    if any(h[4] < 0.0 for h in out.history):
        fails.append("negative best_violation in the history")

    fails += check_candidate("best", out.best_genes, out.best_f, out.best_violation, prob)
    for i, genes in zip(out.sample_index, out.sample_genes):
        fails += check_candidate(
            f"last batch row {i}", genes, float(out.batch_f[i]),
            float(out.batch_violation[i]), prob,
        )
    if out.batch_is_population:
        b = lexicographic_best(out.batch_f, out.batch_violation)
        pos = np.nonzero(out.sample_index == b)[0]
        if (
            pos.size == 0
            or out.best_f != out.batch_f[b]
            or out.best_violation != out.batch_violation[b]
            or not np.array_equal(out.best_genes, out.sample_genes[pos[0]])
        ):
            fails.append("reported best is not the feasibility-first best of the final population")
    fails += check_convergence("best", out.best_genes, prob)
    return fails


def read_network_csv(path: Path) -> np.ndarray:
    """Weight matrix of an ``i,j,w`` network file."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["i", "j", "w"]:
        raise ValueError(f"{path}: header {rows[0]}")
    entries = [(int(i), int(j), float(w)) for i, j, w in rows[1:]]
    n = 1 + max(max(i, j) for i, j, _ in entries)
    w0 = np.zeros((n, n))
    for i, j, w in entries:
        w0[i, j] = w
    return w0


def check_network(w0: np.ndarray, n: int, m0: int, m: int, rho: float) -> list[str]:
    """Shape and edge count of a BA network, and the program's spectral radius."""
    fails = []
    if w0.shape != (n, n) or not np.array_equal(w0, w0.T) or np.any(np.diag(w0) != 0):
        fails.append("network is not a symmetric zero-diagonal n x n matrix")
    edges = int(np.count_nonzero(np.triu(w0, 1)))
    if edges != m0 * (m0 - 1) // 2 + (n - m0) * m:
        fails.append(f"network has {edges} edges")
    rho_ref = float(np.linalg.eigvalsh(w0).max())
    if not _close(rho, rho_ref, rtol=1e-8):
        fails.append(f"spectral radius {rho!r}, eigvalsh gives {rho_ref!r}")
    return fails


def read_schedule_genes(path: Path, prob: oracle.Problem) -> tuple[np.ndarray, list[str]]:
    """Genes of a ``t,i,j,w`` schedule file that must list every entry exactly once."""
    n, horizon = prob.n, prob.horizon
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    fails = [] if rows and rows[0] == ["t", "i", "j", "w"] else [f"{path}: bad header"]
    blocks = np.zeros((horizon - 1, n, n))
    seen = set()
    for row in rows[1:]:
        t, i, j = int(row[0]), int(row[1]), int(row[2])
        if not (1 <= t < horizon and 0 <= i < n and 0 <= j < n and i != j):
            fails.append(f"{path}: entry {row} outside the schedule")
            continue
        if (t, i, j) in seen:
            fails.append(f"{path}: duplicate entry {(t, i, j)}")
        seen.add((t, i, j))
        blocks[t - 1, i, j] = float(row[3])
    if len(seen) != prob.dim:
        fails.append(f"{path}: {len(seen)} distinct entries, expected {prob.dim}")
    return oracle.blocks_to_genes(blocks), fails


def read_csv_dicts(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_campaign_dir(
    outdir: Path,
    algorithm: str,
    prob: oracle.Problem,
    runs: int,
    np_size: int,
    total_fes: int,
    sub_fes: int | None,
    ns: int | None,
) -> list[str]:
    """runs.csv rows, per-run history and schedule of one optimizer campaign."""
    fails = []
    table = read_csv_dicts(outdir / "runs.csv")
    ids = [int(r["run"]) for r in table]
    if ids != list(range(runs)):
        fails.append(f"{outdir}/runs.csv has runs {ids}, expected 0..{runs - 1}")
    rows, charged = expected_rows(np_size, total_fes, sub_fes, ns)
    for r in table:
        label = f"{outdir.name} run {r['run']}"
        if r["algorithm"] != algorithm:
            fails.append(f"{label}: algorithm {r['algorithm']!r}")
        if int(r["evaluations"]) != charged or int(r["generations"]) != len(rows):
            fails.append(
                f"{label}: {r['evaluations']} evaluations / {r['generations']} generations, "
                f"expected {charged} / {len(rows)}"
            )
        rdir = outdir / f"run_{int(r['run']):02d}"
        history = read_csv_dicts(rdir / "history.csv")
        if [int(h["generation"]) for h in history] != list(range(1, len(rows) + 1)):
            fails.append(f"{label}: history generations do not run 1..{len(rows)}")
        genes, bad = read_schedule_genes(rdir / "best_schedule.csv", prob)
        fails += bad
        fails += check_candidate(
            label, genes, float(r["ofv"]), float(r["violation"]), prob,
            viol_atol=CSV_VIOLATION_ATOL,
        )
    return fails


def check_baselines(none_dir: Path, const_dir: Path, prob: oracle.Problem) -> list[str]:
    """No adaptation keeps w0; the constant baseline spends the budget and beats it."""
    fails = []
    scores = {}
    for label, outdir in (("none", none_dir), ("constant", const_dir)):
        table = read_csv_dicts(outdir / "runs.csv")
        if [(r["algorithm"], r["run"]) for r in table] != [(label, "0")]:
            fails.append(f"{outdir}/runs.csv rows {table}")
            continue
        genes, bad = read_schedule_genes(outdir / "run_00" / "best_schedule.csv", prob)
        fails += bad
        ofv, viol = float(table[0]["ofv"]), float(table[0]["violation"])
        fails += check_candidate(label, genes, ofv, viol, prob, viol_atol=CSV_VIOLATION_ATOL)
        if viol != 0.0:
            fails.append(f"{label}: violation {viol!r}, expected 0")
        scores[label] = (ofv, genes)
    if len(scores) == 2:
        if not scores["constant"][0] < scores["none"][0]:
            fails.append("constant baseline does not beat no adaptation")
        if not np.array_equal(scores["none"][1], oracle.baseline_genes(prob)):
            fails.append("no-adaptation schedule differs from w0")
        d = scores["constant"][1] - oracle.baseline_genes(prob)
        if not _close(float(np.sum(d * d)), prob.budget, atol=CSV_VIOLATION_ATOL):
            fails.append(f"constant baseline spends {float(np.sum(d * d))!r}, not the budget")
    return fails


def rank_sum_p(values: list[float], reference: list[float], exact_limit: int = 12) -> float:
    """Two-sided Mann-Whitney p-value from scipy, in the mode the stats layer documents."""
    from scipy.stats import mannwhitneyu

    exact = len(values) + len(reference) <= exact_limit
    return float(
        mannwhitneyu(
            values, reference, alternative="two-sided", use_continuity=True,
            method="exact" if exact else "asymptotic",
        ).pvalue
    )


def check_summary(
    path: Path,
    reference: str,
    ofvs: dict[str, list[float]],
    violations: dict[str, list[float]],
) -> list[str]:
    """summary.csv agrees with the runs it summarizes and with scipy's p-values."""
    fails = []
    table = read_csv_dicts(path)
    order = [r["algorithm"] for r in table]
    if not order or order[0] != reference or sorted(order) != sorted(ofvs):
        return [f"{path}: algorithms {order}, expected {reference} first of {sorted(ofvs)}"]
    best = min(ofvs, key=lambda a: (float(np.mean(ofvs[a])), a))
    for r in table:
        name = r["algorithm"]
        if not _close(float(r["mean_ofv"]), float(np.mean(ofvs[name]))):
            fails.append(f"{path}: {name} mean_ofv {r['mean_ofv']}")
        if int(r["infeasible_runs"]) != sum(v > 0.0 for v in violations[name]):
            fails.append(f"{path}: {name} infeasible_runs {r['infeasible_runs']}")
        if int(r["best"]) != int(name == best):
            fails.append(f"{path}: {name} best flag {r['best']}")
        if name == reference:
            if r["p_value"] != "-":
                fails.append(f"{path}: reference row has p-value {r['p_value']}")
            continue
        p_ref = rank_sum_p(ofvs[name], ofvs[reference])
        if not _close(float(r["p_value"]), p_ref):
            fails.append(f"{path}: {name} p-value {r['p_value']}, scipy gives {p_ref!r}")
    return fails


def _csv_files(root: Path, runs: int) -> list[Path]:
    """CSV files under a campaign directory, per-run ones only for runs below ``runs``."""
    rels = (p.relative_to(root) for p in root.rglob("*.csv"))
    return sorted(r for r in rels if len(r.parts) == 1 or int(r.parts[0][4:]) < runs)


def check_same_bytes(full: Path, part: Path, runs: int) -> list[str]:
    """``part`` repeats the first ``runs`` runs of campaign ``full`` byte for byte.

    Its runs.csv must hold the header and first ``runs`` rows of ``full``'s,
    and every per-run CSV must be identical. With every run repeated, the
    two directories hold exactly the same CSV bytes.
    """
    names = _csv_files(full, runs)
    if names != _csv_files(part, 10**9):
        return [f"{part} does not hold the CSV files of {full}'s first {runs} runs"]
    fails = []
    for name in names:
        a, b = (full / name).read_bytes(), (part / name).read_bytes()
        if name == Path("runs.csv"):
            a = b"".join(a.splitlines(keepends=True)[: runs + 1])
        if a != b:
            fails.append(f"{part / name} differs from {full / name}")
    return fails
