"""Rerun one run of the reference campaign and compare it with its committed slice.

Usage, from the repository root:

    PYTHONPATH=src python reference/rerun.py nsde_c3 0

Runs run RUN of ALGO at the ExperimentConfig defaults through
``run_experiment`` into a temporary directory, writes its convergence.csv and,
where the committed slice holding the run has one, its error_bar.csv with
``convergence.main`` and ``error_bar.main``, and compares the run's rows of
runs.csv, convergence.csv and error_bar.csv, header included, with the
slice's. Prints the run's ofv as ``float.hex`` and the wall time, then each
file that differs; exits 1 on any difference or an aborted run.
"""
from __future__ import annotations

import csv
import dataclasses
import re
import sys
import tempfile
import time
from pathlib import Path

import convergence
import error_bar
from epiadapt.harness import ExperimentConfig, normalize_algorithm, run_experiment

REFERENCE = Path(__file__).resolve().parent


def find_slice(algorithm_dir: Path, run: int) -> Path:
    """The ``runs_<first>-<last>`` directory of ``algorithm_dir`` that holds ``run``."""
    for path in sorted(algorithm_dir.glob("runs_*-*")):
        first, last = map(int, re.fullmatch(r"runs_(\d+)-(\d+)", path.name).groups())
        if first <= run <= last:
            return path
    raise SystemExit(f"no slice under {algorithm_dir} holds run {run}")


def run_rows(path: Path, run: int) -> list[list[str]]:
    """The header of the CSV at ``path`` and its rows of ``run``, the second field of each."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return [header] + [row for row in rows if row[1] == str(run)]


def rerun(cfg: ExperimentConfig, slice_dir: Path, run: int) -> tuple[float | None, list[str]]:
    """Run ``run`` of ``cfg`` afresh; its ofv and the files whose rows differ from ``slice_dir``'s.

    The ofv is None, with the abort as the one difference, when the run aborts.
    """
    names = ["runs.csv", "convergence.csv"]
    if (slice_dir / "error_bar.csv").exists():
        names.append("error_bar.csv")
    with tempfile.TemporaryDirectory() as tmp:
        records = run_experiment(dataclasses.replace(cfg, runs=1), outdir=tmp, first_run=run)
        if not records:
            return None, [f"aborted {(Path(tmp) / 'aborted.txt').read_text().strip()}"]
        convergence.main(tmp, cfg)
        if "error_bar.csv" in names:
            error_bar.main(tmp, cfg)
        differ = [name for name in names
                  if run_rows(Path(tmp) / name, run) != run_rows(slice_dir / name, run)]
    return records[0].ofv, differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: rerun.py ALGO RUN")
    cfg = ExperimentConfig(algorithm=normalize_algorithm(argv[0]))
    run = int(argv[1])
    slice_dir = find_slice(REFERENCE / cfg.algorithm, run)
    start = time.perf_counter()
    ofv, differ = rerun(cfg, slice_dir, run)
    wall = time.perf_counter() - start
    print(f"{cfg.algorithm} run {run}: ofv {'-' if ofv is None else ofv.hex()} "
          f"in {wall:.1f} s, against {slice_dir.relative_to(REFERENCE)}")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
