"""Each run's objective at two step sizes, from its best schedule, for one slice.

Usage, from the repository root, before the slice's run directories are
discarded:

    PYTHONPATH=src python reference/error_bar.py reference/nsde_c3/runs_08-15

Reads the slice's runs.csv and each run's run_<id>/best_schedule.csv and
writes error_bar.csv beside runs.csv: the objective of the schedule
integrated at the ExperimentConfig defaults (20 RK4 substeps per unit
interval), as ``simulate`` computes it, and at 400 substeps. Their gap is the
discretization error of the run's ofv. The network and step sizes are the
defaults', as ``gen-net`` writes the network for the reference campaign,
unless ``main`` is given another config.
"""
from __future__ import annotations

import csv
import dataclasses
import sys
from pathlib import Path

from epiadapt.dynamics import integrate, objective_value
from epiadapt.graph import generate_ba
from epiadapt.harness import ExperimentConfig, read_schedule_csv

FINE_SUBSTEPS = 400


def main(slice_dir: str, cfg: ExperimentConfig | None = None) -> None:
    cfg = cfg or ExperimentConfig()
    net = generate_ba(cfg.n, cfg.m0, cfg.m, cfg.net_seed)
    params = cfg.epidemic_params()
    fine = dataclasses.replace(params, substeps=FINE_SUBSTEPS)
    root = Path(slice_dir)
    with open(root / "runs.csv", newline="") as fh:
        runs = list(csv.DictReader(fh))
    out = [["algorithm", "run", f"ofv_substeps_{params.substeps}",
            f"ofv_substeps_{FINE_SUBSTEPS}"]]
    for run in runs:
        sched = read_schedule_csv(root / f"run_{int(run['run']):02d}" / "best_schedule.csv",
                                  net.n, cfg.horizon)
        out.append([run["algorithm"], run["run"],
                    *(f"{objective_value(integrate(net, p, sched)):.12g}" for p in (params, fine))])
    with open(root / "error_bar.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(out)


if __name__ == "__main__":
    main(*sys.argv[1:])
