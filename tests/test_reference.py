"""The committed reference campaign under reference/ reads back as committed."""
import csv
from pathlib import Path

from epiadapt.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "reference"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_stats_reproduces_the_committed_summary(tmp_path, capsys):
    # Every slice and both baselines, in the order reference/README.md gives.
    indirs = sorted(path.parent for path in REFERENCE.rglob("runs.csv"))
    assert {d.name for d in indirs} >= {"baseline_none", "baseline_constant"}
    out = tmp_path / "summary.csv"
    assert main(["stats", "--indir", *map(str, indirs), "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE / "summary.csv").read_bytes()


def test_each_slice_convergence_ends_at_its_runs_last_generation():
    slices = sorted(path.parent for path in REFERENCE.glob("*/runs_*/runs.csv"))
    assert slices
    for slice_dir in slices:
        last = {row["run"]: row for row in read_rows(slice_dir / "convergence.csv")
                if row["tenth"] == "10"}
        runs = read_rows(slice_dir / "runs.csv")
        assert {run["run"]: run["generations"] for run in runs} == {
            run: row["generation"] for run, row in last.items()}


def test_each_error_bar_lists_its_slices_runs_at_their_ofv():
    # Runs 0-7 kept no schedule, so only later slices have an error bar.
    bars = sorted(REFERENCE.glob("*/runs_*/error_bar.csv"))
    assert bars
    for bar in bars:
        runs = read_rows(bar.with_name("runs.csv"))
        rows = read_rows(bar)
        assert [row["run"] for row in rows] == [run["run"] for run in runs]
        # At the campaign's own substeps the schedule scores the run's ofv.
        assert [row["ofv_substeps_20"] for row in rows] == [run["ofv"] for run in runs]
