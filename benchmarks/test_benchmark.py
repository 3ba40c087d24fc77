"""Self-tests of the benchmark: the oracle is right and every check can fail.

Run with ``python3 -m pytest benchmarks -q`` from the repository root. The
workloads run here at toy sizes through the same code the benchmark uses.
"""
from __future__ import annotations

import csv
import dataclasses
import shutil

import numpy as np
import pytest

import checks
import oracle
import run

NET = run.benchmark_network()
TOY_C3 = run.OptimizerWorkload("toy-c3", 8, 4, 8 + 9 * (80 + 8), 380, 80, 1.0)
TOY_NSDE = run.OptimizerWorkload("toy-nsde", 8, 4, 400, None, None, 1.0)
TOY_CAMPAIGN = run.CampaignWorkload("toy-campaign", 8, 4, 8 + 9 * (80 + 8), 3, 2, 1.0)


def test_oracle_reproduces_closed_form_decay_without_infection():
    prob = dataclasses.replace(run.problem(20, NET.w0), beta=0.0)
    x = np.random.default_rng(0).random(prob.dim)
    states = oracle.rk4_states(oracle.genes_to_blocks(x, prob), prob)
    t = np.arange(states.shape[0]) / prob.substeps
    exact = prob.p0 * np.exp(-prob.gamma * t)
    np.testing.assert_allclose(states, np.repeat(exact[:, None], prob.n, axis=1), rtol=1e-8)
    f_exact = oracle.objective_from_states(np.repeat(exact[:, None], prob.n, axis=1), 20)
    assert oracle.objective(x, prob) == pytest.approx(f_exact, rel=1e-8)


def test_oracle_agrees_with_the_batch_evaluator():
    prob = run.problem(4, NET.w0)
    x = np.random.default_rng(1).random((3, prob.dim))
    f, viol = run.make_batch_evaluator(NET, run.epidemic(4), prob.budget)(x)
    for row, fi, vi in zip(x, f, viol):
        assert checks.check_candidate("row", row, fi, vi, prob) == []


def test_budget_layout_of_the_reference_workloads():
    rows, charged = checks.expected_rows(350, 35_000, 3500, 9)
    assert (len(rows), charged) == (81, 35_000)
    assert rows[:10] == [(1, 1)] * 9 + [(1, 2)]
    rows, charged = checks.expected_rows(350, 35_000, None, None)
    assert (len(rows), charged) == (99, 35_000)


@pytest.mark.parametrize("wl", [TOY_C3, TOY_NSDE], ids=lambda w: w.name)
def test_optimizer_checks_pass_and_fail_on_perturbed_results(wl):
    outcome, _ = run.optimizer_run(wl, NET, seed=5, tracer=run.Tracer(False))
    prob = run.problem(wl.substeps, NET.w0)
    ns = None if wl.ds is None else prob.dim // wl.ds

    def fails(out):
        return checks.check_optimizer(out, prob, wl.np_size, wl.total_fes, wl.sub_fes, ns)

    assert fails(outcome) == []
    flipped = outcome.best_genes.copy()
    flipped[17] = 1.0 - flipped[17]
    perturbed = {
        "f": dataclasses.replace(outcome, best_f=outcome.best_f + 1e-6 * abs(outcome.best_f)),
        "gene": dataclasses.replace(outcome, best_genes=flipped),
        "budget": dataclasses.replace(outcome, evaluations=outcome.evaluations + wl.np_size),
        "rows": dataclasses.replace(outcome, rows_seen=outcome.rows_seen - 1),
        "history": dataclasses.replace(outcome, history=outcome.history[1:]),
    }
    for name, out in perturbed.items():
        assert fails(out), f"perturbed {name} passed the checks"


@pytest.fixture(scope="module")
def toy_campaign(tmp_path_factory):
    rdir = tmp_path_factory.mktemp("campaign")
    rnd = run.campaign_round(TOY_CAMPAIGN, 9, rdir, run.Tracer(False), trace=False)
    assert rnd["failed"] == 0
    return rdir


def _rewrite(path, edit):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _scale_ofv(rows):
    rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))


def _flip_weight(rows):
    rows[5][3] = repr(1.0 - float(rows[5][3]))


def _bump_p_value(rows):
    rows[2][3] = repr(float(rows[2][3]) * (1 + 1e-6))


@pytest.mark.parametrize(
    "target, edit",
    [
        ("nsde_c3/runs.csv", lambda rows: rows.pop()),
        ("nsde/runs.csv", _scale_ofv),
        ("nsde_c3/run_01/best_schedule.csv", _flip_weight),
        ("constant/runs.csv", _scale_ofv),
        ("summary.csv", _bump_p_value),
        ("nsde_c3_w1/run_00/history.csv", lambda rows: rows[1].__setitem__(3, "1")),
    ],
    ids=["dropped-row", "ofv", "flipped-gene", "baseline-ofv", "p-value", "w1-bytes"],
)
def test_campaign_checks_pass_and_fail_on_perturbed_results(toy_campaign, tmp_path, target, edit):
    assert run.check_campaign_round(TOY_CAMPAIGN, toy_campaign, trace=False) == []
    rdir = tmp_path / "copy"
    shutil.copytree(toy_campaign, rdir)
    _rewrite(rdir / target, edit)
    assert run.check_campaign_round(TOY_CAMPAIGN, rdir, trace=False)
