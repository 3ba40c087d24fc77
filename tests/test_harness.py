import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import epiadapt
from epiadapt.baselines import no_adaptation_schedule
from epiadapt.coevolve import GenerationRecord
from epiadapt.dynamics import (
    EpidemicParams,
    Trajectory,
    WeightSchedule,
    integrate,
    objective_value,
)
from epiadapt.graph import Network, generate_ba
from epiadapt.harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    derive_run_seed,
    emit_run_artifacts,
    normalize_algorithm,
    read_schedule_csv,
    run_experiment,
    save_network,
    summarize_run_dirs,
    write_schedule_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from epiadapt.stats import AlgorithmSummary

RUNS_HEADER = "algorithm,run,ofv,violation,evaluations,generations"

TINY = dict(
    np_size=10, total_fes=1200, sub_fes=40, substeps=5, runs=2, master_seed=3
)


def tiny_config(**overrides):
    merged = {**TINY, **overrides}
    return ExperimentConfig(**merged)


class TestConfig:
    def test_defaults_match_reported_campaign(self):
        cfg = ExperimentConfig()
        assert cfg.np_size == 350
        assert cfg.total_fes == 6_300_000
        assert cfg.cr == 0.9
        assert cfg.runs == 25

    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict(
            {"np": 16, "total_fes": 5000, "algorithm": "nsde"}
        )
        assert cfg.np_size == 16
        assert cfg.algorithm == "nsde"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"np_sizes": 16})
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"count_reevals": False})

    def test_null_value_rejected(self):
        with pytest.raises(ConfigError, match="null"):
            ExperimentConfig.from_dict({"beta": None})

    @pytest.mark.parametrize("data", [
        {"np": 60.5}, {"runs": True}, {"horizon": 10.0}, {"substeps": 2.5},
        {"ds": 1.5}, {"beta": float("inf")}, {"gamma": float("nan")}, {"budget": True},
        {"p0": "0.1"}, {"algorithm": 3}, {"lam": True}, {"sub_fes": 40.0},
    ])
    def test_field_types_rejected(self, data):
        with pytest.raises(ConfigError, match="must be"):
            ExperimentConfig.from_dict(data)

    def test_ints_accepted_for_float_fields(self):
        cfg = ExperimentConfig.from_dict(
            {"horizon": 10, "budget": 700, "beta": 1, "np": 60}
        )
        assert cfg.budget == 700 and cfg.beta == 1 and cfg.np_size == 60
        assert ExperimentConfig.from_dict({"budget": 700.0, "horizon": 10}).budget == 700.0

    def test_nullable_keys_allowed(self):
        cfg = ExperimentConfig.from_dict({"ds": None, "sub_fes": None})
        assert cfg.ds is None and cfg.sub_fes is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="simulated-annealing")
        with pytest.raises(ConfigError):
            ExperimentConfig(gc_fraction=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(p0=1.2)

    @pytest.mark.parametrize("data,message", [
        ({"ds": 7}, "ds=7 does not divide dim=3420"),
        ({"sub_fes": 100}, r"sub_fes=100 must be at least 2\*NP=700"),
        ({"ds": 3420, "sub_fes": 349}, "sub_fes=349 must be at least NP=350"),
        ({"total_fes": 400}, "total budget of 400 cannot fund"),
        ({"algorithm": "nsde", "total_fes": 600}, "total budget of 600 cannot fund"),
    ], ids=["ds", "sub_fes", "one-group-sub_fes", "total_fes", "nsde-total_fes"])
    def test_layout_that_run_c3_rejects_is_refused(self, data, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(data)

    def test_layout_checked_for_the_named_optimizer(self):
        # Plain NSDE runs one group at its own visit budget; baselines run no optimizer.
        assert ExperimentConfig(algorithm="nsde", ds=7, sub_fes=100).ds == 7
        # One C3 group funds one generation a visit, with no context pass.
        assert ExperimentConfig(ds=3420, sub_fes=350).sub_fes == 350
        assert ExperimentConfig(algorithm="constant", total_fes=400).total_fes == 400

    def test_algorithm_spelling_normalized(self):
        assert ExperimentConfig(algorithm="NSDE-C3").algorithm == "nsde_c3"
        assert normalize_algorithm("nsde-c3") == "nsde_c3"
        with pytest.raises(ConfigError):
            normalize_algorithm("hillclimb")

    def test_json_keys_use_np(self):
        keys = ExperimentConfig.json_keys()
        assert "np" in keys and "np_size" not in keys


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seed(7, 3) == derive_run_seed(7, 3)

    def test_distinct_across_runs_and_masters(self):
        seeds = {derive_run_seed(m, r) for m in range(4) for r in range(25)}
        assert len(seeds) == 100


class TestRunExperiment:
    def test_none_baseline_single_record(self):
        cfg = tiny_config(algorithm="none")
        records = run_experiment(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.violation == 0.0
        net = generate_ba(cfg.n, cfg.m0, cfg.m, cfg.net_seed)
        params = EpidemicParams(beta=0.4, gamma=0.3, p0=0.153, horizon=10, substeps=5)
        expected = objective_value(integrate(net, params, no_adaptation_schedule(net, 10)))
        assert rec.ofv == pytest.approx(expected)

    def test_constant_below_none(self):
        f_none = run_experiment(tiny_config(algorithm="none"))[0].ofv
        f_const = run_experiment(tiny_config(algorithm="constant"))[0].ofv
        assert f_const < f_none

    def test_optimizer_records_per_run(self):
        records = run_experiment(tiny_config(algorithm="nsde"))
        assert [rec.run for rec in records] == [0, 1]
        assert all(rec.evaluations <= 1200 for rec in records)
        assert all(len(rec.history) == rec.generations for rec in records)

    @pytest.mark.parametrize("algorithm", ["nsde_c3", "none"])
    def test_network_of_another_size_is_refused(self, tmp_path, algorithm):
        # Unchecked, ds of None would fit itself to the 12 nodes and run, and
        # ds=380 would fail late, inside run_c3, on their 1188 genes.
        net = generate_ba(12, 5, 5, seed=1)
        for ds in (None, 380):
            outdir = tmp_path / f"out_{ds}"
            with pytest.raises(ConfigError, match="n=20 nodes, but the network has 12"):
                run_experiment(tiny_config(algorithm=algorithm, ds=ds), net=net, outdir=outdir)
            assert not outdir.exists()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_refused(self, tmp_path, workers):
        # Unchecked, the pool size would clamp them to one worker.
        outdir = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"workers must be at least 1, got {workers}"):
            run_experiment(tiny_config(algorithm="nsde"), outdir=outdir, workers=workers)
        assert not outdir.exists()

    def test_campaign_reproducible(self):
        a = run_experiment(tiny_config(algorithm="nsde_c3"))
        b = run_experiment(tiny_config(algorithm="nsde_c3"))
        for x, y in zip(a, b):
            assert x.ofv == y.ofv and x.violation == y.violation
            np.testing.assert_array_equal(x.schedule.blocks, y.schedule.blocks)

    def test_integration_failure_loses_run_not_campaign(self, monkeypatch, capsys):
        import epiadapt.harness as harness
        from epiadapt.dynamics import IntegrationError

        real = harness._optimizer_record

        def flaky(cfg, net, params, run_index, threads):
            if run_index == 0:
                raise IntegrationError("state became non-finite during integration")
            return real(cfg, net, params, run_index, threads)

        monkeypatch.setattr(harness, "_optimizer_record", flaky)
        records = run_experiment(tiny_config(algorithm="nsde", runs=3))
        assert [rec.run for rec in records] == [1, 2]
        assert "run 0 aborted" in capsys.readouterr().err

    def test_workers_do_not_change_results(self):
        serial = run_experiment(tiny_config(algorithm="nsde_c3"))
        pooled = run_experiment(tiny_config(algorithm="nsde_c3"), workers=2)
        for x, y in zip(serial, pooled):
            assert x.run == y.run and x.ofv == y.ofv

    def test_pool_has_no_more_workers_than_runs(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        pooled = run_experiment(tiny_config(algorithm="nsde"), workers=64)
        assert sizes == [2]
        serial = run_experiment(tiny_config(algorithm="nsde"))
        assert [(x.run, x.ofv) for x in pooled] == [(x.run, x.ofv) for x in serial]

    def test_one_process_campaign_loads_no_process_pool(self):
        # A fresh interpreter: the test session has loaded multiprocessing.
        code = ("import sys, epiadapt; from epiadapt.harness import ExperimentConfig, "
                "run_experiment; "
                f"run_experiment(ExperimentConfig(**{dict(TINY, runs=1)!r}), workers=1); "
                "loaded = {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules); "
                "assert not loaded, loaded")
        src = str(Path(epiadapt.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_cli_process_with_an_evaluator_loads_no_thread_pool(self, kernel):
        # Fresh interpreters, the kernel's build cached: one that builds an
        # evaluator, as the CLI's commands do, loads no more of these modules
        # than numpy's own import does.
        watched = "{'concurrent.futures', 'logging', 'subprocess'} & set(sys.modules)"
        evaluator = ("import epiadapt.cli; from epiadapt.dynamics import EpidemicParams, "
                     "make_batch_evaluator; from epiadapt.graph import generate_ba; "
                     "make_batch_evaluator(generate_ba(20, 5, 5, seed=1), EpidemicParams("
                     "beta=0.4, gamma=0.3, p0=0.153, horizon=10, substeps=5), 700.0)")
        src = str(Path(epiadapt.__file__).parents[1])
        loaded = [
            subprocess.run([sys.executable, "-c", f"import sys; {code}; print(sorted({watched}))"],
                           check=True, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout
            for code in ("import numpy, numpy.random", evaluator)
        ]
        assert loaded[1] == loaded[0]

    @pytest.mark.parametrize("cpus,workers,runs,threads", [
        (4, 1, 3, 4), (4, 2, 3, 2), (4, 3, 2, 2), (4, 2, 1, 4), (3, 2, 2, 1), (2, 2, 2, 1),
    ])
    def test_each_process_splits_batches_over_its_share_of_cpus(
        self, kernel, monkeypatch, capsys, cpus, workers, runs, threads
    ):
        import epiadapt._native as native
        import epiadapt.harness as harness
        from epiadapt.dynamics import IntegrationError

        # Each run reports, as its failure, the thread count its first trial
        # pass split by and the one its evaluator sees after that pass.
        trial_counts = []
        split_count = native.split_count

        def spy(rows, genes=None):
            if genes is not None:
                trial_counts.append(native.thread_count())
            return split_count(rows, genes)

        def make_batch_evaluator(net, params, budget):
            trial_counts.clear()  # a pool worker may make more than one run

            def evaluate(x):
                if trial_counts:
                    raise IntegrationError(
                        f"threads={native.thread_count()} trials={trial_counts[0]}")
                return np.zeros(len(x)), np.zeros(len(x))
            return evaluate

        monkeypatch.setattr(harness, "make_batch_evaluator", make_batch_evaluator)
        monkeypatch.setattr(native, "split_count", spy)
        monkeypatch.setattr(native, "usable_cpus", lambda: cpus)
        cfg = tiny_config(algorithm="nsde", runs=runs)
        assert run_experiment(cfg, workers=workers) == []
        reported = re.findall(r"aborted: threads=(\d+) trials=(\d+)", capsys.readouterr().err)
        assert reported == [(str(threads), str(threads))] * runs
        # The count is the run's: the caller's is the usable CPUs again.
        assert native.thread_count() == cpus

    def test_artifact_layout(self, tmp_path):
        outdir = tmp_path / "campaign"
        run_experiment(tiny_config(algorithm="nsde"), outdir=outdir)
        assert (outdir / "runs.csv").exists()
        assert (outdir / "timing.txt").exists()
        for run in ("run_00", "run_01"):
            for name in ("history.csv", "trace_I.csv", "trace_W.csv", "best_schedule.csv"):
                assert (outdir / run / name).exists()
        header = (outdir / "run_00" / "history.csv").read_text().splitlines()[0]
        assert header == "generation,cycle,group,best_f,best_violation,epsilon"
        for name, first in (("I", 0.153), ("W", 170.0)):
            lines = (outdir / "run_00" / f"trace_{name}.csv").read_text().splitlines()
            assert lines[0] == f"t,{name}"
            assert len(lines) == 1 + 10 * 5 + 1
            t0, value = lines[1].split(",")
            assert float(t0) == 0.0 and float(value) == pytest.approx(first)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_campaign_cut_short_keeps_its_finished_runs(self, tmp_path, monkeypatch, workers):
        # Each run's directory is on disk once its run returns; runs.csv
        # and timing.txt come only at the end, which this campaign misses.
        import epiadapt.harness as harness

        cfg = tiny_config(algorithm="nsde_c3", runs=3)
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        run_experiment(cfg, outdir=whole, workers=workers)
        real = harness._optimizer_record

        def crashing(cfg, net, params, run_index, threads):
            if run_index == 2:
                raise RuntimeError("the host went down")
            return real(cfg, net, params, run_index, threads)

        monkeypatch.setattr(harness, "_optimizer_record", crashing)
        with pytest.raises(RuntimeError, match="went down"):
            run_experiment(cfg, outdir=cut, workers=workers)
        assert sorted(path.name for path in cut.iterdir()) == ["run_00", "run_01"]
        for run in ("run_00", "run_01"):
            files = sorted(path.name for path in (whole / run).iterdir())
            assert sorted(path.name for path in (cut / run).iterdir()) == files
            for name in files:
                assert (cut / run / name).read_bytes() == (whole / run / name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_campaign_cut_short_leaves_nothing_of_an_earlier_one(
        self, tmp_path, monkeypatch, workers
    ):
        # The earlier campaign's run_01, runs.csv (whose row 0 is another
        # run than the new run_00), timing.txt and aborted.txt would pass
        # for this campaign's.
        import epiadapt.harness as harness
        from epiadapt.dynamics import IntegrationError

        cfg = tiny_config(algorithm="nsde", runs=3)
        whole, outdir = tmp_path / "whole", tmp_path / "out"
        run_experiment(replace(cfg, runs=1), outdir=whole, workers=workers)
        real = harness._optimizer_record

        def failing(run, error):
            def record(cfg, net, params, run_index, threads):
                if run_index == run:
                    raise error("state became non-finite during integration")
                return real(cfg, net, params, run_index, threads)
            return record

        monkeypatch.setattr(harness, "_optimizer_record", failing(2, IntegrationError))
        run_experiment(replace(cfg, master_seed=5), outdir=outdir, workers=workers)
        assert {"run_01", "runs.csv", "timing.txt", "aborted.txt"} <= {
            path.name for path in outdir.iterdir()}
        monkeypatch.setattr(harness, "_optimizer_record", failing(1, RuntimeError))
        with pytest.raises(RuntimeError, match="non-finite"):
            run_experiment(cfg, outdir=outdir, workers=workers)
        assert [path.name for path in outdir.iterdir()] == ["run_00"]
        files = sorted(path.name for path in (whole / "run_00").iterdir())
        assert sorted(path.name for path in (outdir / "run_00").iterdir()) == files
        for name in files:
            assert (outdir / "run_00" / name).read_bytes() == (
                whole / "run_00" / name).read_bytes()

    def test_single_group_c3_campaign_is_nsde(self, tmp_path):
        run_experiment(tiny_config(algorithm="nsde"), outdir=tmp_path / "nsde")
        run_experiment(tiny_config(algorithm="nsde_c3", ds=20 * 19 * 9),
                       outdir=tmp_path / "c3")
        runs = {
            algo: [line.split(",")[1:] for line in
                   (tmp_path / algo / "runs.csv").read_text().splitlines()]
            for algo in ("nsde", "c3")
        }
        assert runs["c3"] == runs["nsde"]
        for run in ("run_00", "run_01"):
            nsde = (tmp_path / "nsde" / run / "history.csv").read_bytes()
            assert (tmp_path / "c3" / run / "history.csv").read_bytes() == nsde

    def test_csv_bytes_identical_across_reruns(self, tmp_path):
        cfg = tiny_config(algorithm="nsde_c3")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, outdir=d1)
        run_experiment(cfg, outdir=d2, workers=2)
        for path in sorted(d1.rglob("*.csv")):
            other = d2 / path.relative_to(d1)
            assert other.read_bytes() == path.read_bytes(), path.name


class TestScheduleCsv:
    def test_round_trip(self, tmp_path):
        net = generate_ba(6, 3, 2, seed=0)
        rng = np.random.default_rng(1)
        from epiadapt.dynamics import decode_candidate

        sched = decode_candidate(rng.random(6 * 5 * 3), 6, 4)
        path = tmp_path / "sched.csv"
        write_schedule_csv(sched, path)
        loaded = read_schedule_csv(path, 6, 4)
        np.testing.assert_allclose(loaded.blocks, sched.blocks, atol=1e-12)

    def test_bad_block_index_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,i,j,w\n0,0,1,0.5\n")
        with pytest.raises(ConfigError):
            read_schedule_csv(path, 4, 3)

    def test_diagonal_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,i,j,w\n1,2,2,0.5\n")
        with pytest.raises(ConfigError):
            read_schedule_csv(path, 4, 3)

    @staticmethod
    def full_schedule_text(n=4, horizon=3, w="0.5"):
        rows = [f"{t},{i},{j},{w}" for t in range(1, horizon)
                for i in range(n) for j in range(n) if i != j]
        return "\n".join(["t,i,j,w", *rows]) + "\n"

    def test_complete_schedule_accepted(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(self.full_schedule_text())
        assert np.all(read_schedule_csv(path, 4, 3).blocks.sum(axis=(1, 2)) == 6.0)

    def test_incomplete_schedule_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,i,j,w\n1,0,1,0.5\n")
        with pytest.raises(ConfigError, match="23 of 24 entries missing"):
            read_schedule_csv(path, 4, 3)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(self.full_schedule_text() + "1,0,1,0.25\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_schedule_csv(path, 4, 3)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(self.full_schedule_text() + "1,0\n")
        with pytest.raises(ConfigError, match="4 fields"):
            read_schedule_csv(path, 4, 3)

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(self.full_schedule_text().replace("1,0,1,0.5", "1,0,1,heavy"))
        with pytest.raises(ConfigError, match="integers"):
            read_schedule_csv(path, 4, 3)

    def test_nan_weight_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(self.full_schedule_text().replace("1,0,1,0.5", "1,0,1,nan"))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: weight nan for t=1, i=0, j=1 "
                                              r"outside \[0, 1\]$"):
            read_schedule_csv(path, 4, 3)

    def test_weight_above_one_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(self.full_schedule_text().replace("1,0,2,0.5", "1,0,2,1.5"))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: weight 1.5 for t=1, i=0, j=2 "
                                              r"outside \[0, 1\]$"):
            read_schedule_csv(path, 4, 3)

    def test_node_ids_bounds_checked(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,i,j,w\n1,0,9,0.5\n")
        with pytest.raises(ConfigError):
            read_schedule_csv(path, 4, 3)


class TestStatsPipeline:
    def test_summary_round_trip(self, tmp_path):
        d_ref = tmp_path / "c3"
        d_other = tmp_path / "none"
        run_experiment(tiny_config(algorithm="nsde_c3"), outdir=d_ref)
        run_experiment(tiny_config(algorithm="none"), outdir=d_other)
        rows = summarize_run_dirs([d_ref, d_other], reference="nsde-c3")
        assert rows[0].algorithm == "nsde_c3"
        assert rows[0].p_value is None
        out = tmp_path / "summary.csv"
        write_summary_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "algorithm,mean_ofv,std,p_value,best,infeasible_runs"
        assert lines[1].startswith("nsde_c3,")
        assert ",-," in lines[1]

    def test_runs_csv_reader_validates(self, tmp_path):
        # A foreign header, no rows, the four scored columns alone, and the
        # six columns in another order.
        for text, message in [
            ("foo,bar\n1,2\n", "expected header"),
            (f"{RUNS_HEADER}\n", "no run rows"),
            ("algorithm,run,ofv,violation\nnsde,0,2.5,0.0\n", "expected header"),
            ("run,algorithm,ofv,violation,evaluations,generations\n0,nsde,2.5,0.0,40,1\n",
             "expected header"),
        ]:
            (tmp_path / "runs.csv").write_text(text)
            with pytest.raises(ConfigError, match=message):
                summarize_run_dirs([tmp_path], "nsde")

    # Each bad row's algorithm, run, ofv and violation; evaluations and
    # generations are 40 and 1, as in the first row.
    @pytest.mark.parametrize("bad_row,message", [
        ("nsde,one,2.5,0.0", "integer"),
        ("nsde,1,low,0.0", "numbers"),
        ("nsde,1,nan,0.0", "finite"),
        ("nsde,1,2.5,inf", "finite"),
        ("nsde,0,3.5,0.0", "duplicate run 0 of nsde"),
    ])
    def test_runs_csv_rows_validated(self, tmp_path, bad_row, message):
        (tmp_path / "runs.csv").write_text(f"{RUNS_HEADER}\nnsde,0,2.5,0.0,40,1\n{bad_row},40,1\n")
        with pytest.raises(ConfigError, match=rf"runs\.csv:3: .*{message}"):
            summarize_run_dirs([tmp_path], "nsde")

    @pytest.mark.parametrize("bad_row", ["nsde,1,2.5,0.0,40", "nsde,1,2.5,0.0,40,1,7"])
    def test_runs_csv_rows_have_six_fields(self, tmp_path, bad_row):
        (tmp_path / "runs.csv").write_text(f"{RUNS_HEADER}\nnsde,0,2.5,0.0,40,1\n{bad_row}\n")
        with pytest.raises(ConfigError, match=r"runs\.csv:3: expected 6 fields"):
            summarize_run_dirs([tmp_path], "nsde")

    def test_duplicate_run_names_both_rows(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for indir, rows in zip(dirs, ("nsde,0,2.5,0.0,40,1\nnsde,1,2.6,0.0,40,1\n",
                                      "none,0,3.0,0.0,1,0\nnsde,1,2.7,0.0,40,1\n")):
            indir.mkdir()
            (indir / "runs.csv").write_text(f"{RUNS_HEADER}\n{rows}")
        first, again = dirs[0] / "runs.csv", dirs[1] / "runs.csv"
        message = f"{again}:3: duplicate run 1 of nsde, first read at {first}:3"
        with pytest.raises(ConfigError, match=re.escape(message)):
            summarize_run_dirs(dirs, "nsde")

    def test_runs_csv_run_ids_are_per_algorithm(self, tmp_path):
        (tmp_path / "runs.csv").write_text(
            f"{RUNS_HEADER}\nnsde,0,2.5,0.0,40,1\nnone,0,3.0,0.0,1,0\n")
        rows = summarize_run_dirs([tmp_path], "nsde")
        assert [(row.algorithm, row.n_runs) for row in rows] == [("nsde", 1), ("none", 1)]


class TestArtifactBytes:
    """Every writer's exact bytes: header, .12g numbers, the csv module's \\r\\n."""

    third = 1.0 / 3.0
    net = Network(np.array([[0.0, 1.0, third], [1.0, 0.0, 0.0], [0.25, 0.0, 0.0]]))
    sched = WeightSchedule(blocks=np.array([[[0.0, 0.5, third], [0.0, 0.0, 0.0],
                                             [0.25, 0.0, 0.0]]]))
    traj = Trajectory(times=np.arange(5) / 2.0,
                      p=np.array([[0.5, 0.5, 0.5], [0.25, 0.5, 0.75], [0.0, third, 1.0],
                                  [1e-13, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    schedule_bytes = (b"t,i,j,w\r\n1,0,1,0.5\r\n1,0,2,0.333333333333\r\n1,1,0,0\r\n"
                      b"1,1,2,0\r\n1,2,0,0.25\r\n1,2,1,0\r\n")

    def test_network(self, tmp_path):
        save_network(self.net, tmp_path / "net.csv")
        assert (tmp_path / "net.csv").read_bytes() == (
            b"i,j,w\r\n0,1,1\r\n0,2,0.333333333333\r\n1,0,1\r\n2,0,0.25\r\n"
        )

    def test_schedule(self, tmp_path):
        write_schedule_csv(self.sched, tmp_path / "sched.csv")
        assert (tmp_path / "sched.csv").read_bytes() == self.schedule_bytes

    def test_trajectory(self, tmp_path):
        write_trajectory_csv(self.traj, tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (
            b"t,p_0,p_1,p_2\r\n0,0.5,0.5,0.5\r\n0.5,0.25,0.5,0.75\r\n"
            b"1,0,0.333333333333,1\r\n1.5,1e-13,0,0\r\n2,1,1,1\r\n"
        )

    def test_run_artifacts(self, tmp_path):
        record = RunRecord(
            algorithm="nsde_c3", run=0, ofv=2.0 / 3.0, violation=0.0, evaluations=40,
            generations=4, history=[GenerationRecord(1, 0, 2, self.third, 0.0, 1e-13)],
            schedule=self.sched, trajectory=self.traj,
        )
        emit_run_artifacts([record], self.net, tmp_path)
        run = tmp_path / "run_00"
        assert (tmp_path / "runs.csv").read_bytes() == (
            b"algorithm,run,ofv,violation,evaluations,generations\r\n"
            b"nsde_c3,0,0.666666666667,0,40,4\r\n"
        )
        assert (run / "history.csv").read_bytes() == (
            b"generation,cycle,group,best_f,best_violation,epsilon\r\n"
            b"1,0,2,0.333333333333,0,1e-13\r\n"
        )
        assert (run / "best_schedule.csv").read_bytes() == self.schedule_bytes
        assert (run / "trace_I.csv").read_bytes() == (
            b"t,I\r\n0,0.5\r\n0.5,0.5\r\n1,0.444444444444\r\n1.5,3.33333333333e-14\r\n"
            b"2,1\r\n"
        )
        assert (run / "trace_W.csv").read_bytes() == (
            b"t,W\r\n0,2.58333333333\r\n0.5,2.58333333333\r\n1,1.08333333333\r\n"
            b"1.5,1.08333333333\r\n2,1.08333333333\r\n"
        )

    def test_summary(self, tmp_path):
        rows = [AlgorithmSummary("nsde_c3", 2.0 / 3.0, 0.1, None, 2, 0, True),
                AlgorithmSummary("none", 1.5, 0.0, self.third, 1, 1, False)]
        write_summary_csv(rows, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"algorithm,mean_ofv,std,p_value,best,infeasible_runs\r\n"
            b"nsde_c3,0.666666666667,0.1,-,1,0\r\nnone,1.5,0,0.333333333333,0,1\r\n"
        )
