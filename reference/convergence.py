"""Each run's best f and violation at each tenth of the budget, for one slice.

Usage, from the repository root, before the slice's histories are discarded:

    PYTHONPATH=src python reference/convergence.py reference/nsde_c3/runs_00-03

Reads the slice's runs.csv and each run's run_<id>/history.csv and writes
convergence.csv beside runs.csv. Row (run, tenth k) is the last history row
whose generation ended within k/10 of the budget, with the evaluations spent
by then; f and violation are copied as history.csv wrote them. The runs are
taken to use the ExperimentConfig defaults (NP and total budget), as the
reference campaign does, unless ``main`` is given another config; the
evaluation count is checked against runs.csv.
"""
from __future__ import annotations

import csv
import sys
from pathlib import Path

from epiadapt.harness import ExperimentConfig


def spent_after_each_row(rows: list[dict], np_size: int) -> tuple[list[int], int]:
    """Evaluations spent when each history row's generation ended, and at the run's end.

    A run starts with the initial population. A C3 visit (group > 0) adds a
    context pass before its first generation and a re-evaluation after its
    last one; plain NSDE (group 0) spends only its generations.
    """
    spent, visit, out = np_size, None, []
    for row in rows:
        key = (row["cycle"], row["group"])
        if row["group"] != "0" and key != visit:
            spent += (np_size if visit is not None else 0) + np_size
            visit = key
        spent += np_size
        out.append(spent)
    return out, spent + (np_size if visit is not None else 0)


def main(slice_dir: str, cfg: ExperimentConfig | None = None) -> None:
    cfg = cfg or ExperimentConfig()
    root = Path(slice_dir)
    with open(root / "runs.csv", newline="") as fh:
        runs = list(csv.DictReader(fh))
    out = [["algorithm", "run", "tenth", "evaluations", "generation", "best_f", "best_violation"]]
    for run in runs:
        with open(root / f"run_{int(run['run']):02d}" / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        spent, total = spent_after_each_row(rows, cfg.np_size)
        if total != int(run["evaluations"]) or len(rows) != int(run["generations"]):
            sys.exit(f"run {run['run']}: history does not add up to runs.csv's counts")
        for tenth in range(1, 11):
            last = max(i for i, s in enumerate(spent) if 10 * s <= tenth * cfg.total_fes)
            row = rows[last]
            out.append([run["algorithm"], run["run"], tenth, spent[last], row["generation"],
                        row["best_f"], row["best_violation"]])
    with open(root / "convergence.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(out)


if __name__ == "__main__":
    main(*sys.argv[1:])
