"""The committed reference campaign under reference/ reads back as committed."""
import csv
import importlib
import shutil
from pathlib import Path

import pytest

from epiadapt.cli import main
from epiadapt.harness import ExperimentConfig, run_experiment

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


@pytest.mark.parametrize("algorithm", ["nsde", "nsde_c3"])
def test_rerun_compares_each_row_of_its_run(tmp_path, monkeypatch, algorithm):
    # A desk-scale campaign laid out as a slice of runs 0-1, with the run
    # directories gone as in reference/: rerunning run 1 gives its rows,
    # and a perturbed row of any of its three files, the header included,
    # is reported. Run 0's rows are not compared.
    monkeypatch.syspath_prepend(str(REFERENCE))
    rerun = importlib.import_module("rerun")
    cfg = ExperimentConfig(algorithm=algorithm, np_size=10, total_fes=1200, sub_fes=40,
                           substeps=5, runs=2, master_seed=3)
    slice_dir = tmp_path / "runs_00-01"
    run_experiment(cfg, outdir=slice_dir)
    rerun.convergence.main(slice_dir, cfg)
    rerun.error_bar.main(slice_dir, cfg)
    for run_dir in slice_dir.glob("run_*"):
        shutil.rmtree(run_dir)
    assert rerun.find_slice(tmp_path, 1) == slice_dir
    ofv, differ = rerun.rerun(cfg, slice_dir, 1)
    assert differ == []
    assert f"{ofv:.12g}" == rerun.run_rows(slice_dir / "runs.csv", 1)[1][2]
    for name, old, new in (("runs.csv", f",1,{ofv:.12g},", f",1,{ofv:.11g},"),
                           ("convergence.csv", f",1,10,", f",1,9,"),
                           ("error_bar.csv", "algorithm,run,", "algorithm,run ,"),
                           ("runs.csv", f"{algorithm},0,", f"{algorithm},0,1")):
        path = slice_dir / name
        committed = path.read_text()
        assert committed.count(old) == 1
        path.write_text(committed.replace(old, new))
        assert rerun.rerun(cfg, slice_dir, 1)[1] == ([] if ",0," in old else [name])
        path.write_text(committed)
