import json

import pytest

from epiadapt.cli import main
from epiadapt.harness import load_network

TINY_CONFIG = {
    "n": 20, "m0": 5, "m": 5, "net_seed": 1,
    "beta": 0.4, "gamma": 0.3, "p0": 0.153, "horizon": 10, "substeps": 5,
    "budget": 700.0, "np": 10, "total_fes": 1200, "sub_fes": 40,
    "runs": 2, "master_seed": 5,
}


@pytest.fixture()
def workspace(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(TINY_CONFIG))
    net = tmp_path / "net.csv"
    assert main(["gen-net", "--n", "20", "--m0", "5", "--m", "5",
                 "--seed", "1", "--out", str(net)]) == 0
    return tmp_path, net, config


def test_gen_net_writes_loadable_network(workspace):
    tmp_path, net, _ = workspace
    loaded = load_network(net)
    assert loaded.n == 20 and loaded.edge_count == 85


def test_group_prob_output(capsys):
    assert main(["group-prob", "--k", "1", "--cycles", "50", "--ns", "9"]) == 0
    assert "P_1 = 0.9972" in capsys.readouterr().out
    assert main(["group-prob", "--k", "2", "--cycles", "50", "--ns", "9"]) == 0
    assert "P_2 = 0.9799" in capsys.readouterr().out


def test_simulate_default_schedule(workspace, capsys):
    tmp_path, net, config = workspace
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--net", str(net), "--config", str(config),
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("t,p_0,") and header.endswith("p_19")
    assert "objective" in capsys.readouterr().out


def test_optimize_baseline_stats_pipeline(workspace, capsys):
    tmp_path, net, config = workspace
    for algo, outdir in (("nsde-c3", "c3"), ("nsde", "plain")):
        assert main(["optimize", "--net", str(net), "--config", str(config),
                     "--algo", algo, "--outdir", str(tmp_path / outdir)]) == 0
    assert main(["baseline", "--net", str(net), "--config", str(config),
                 "--mode", "none", "--outdir", str(tmp_path / "none")]) == 0
    assert main(["baseline", "--net", str(net), "--config", str(config),
                 "--mode", "constant", "--outdir", str(tmp_path / "const")]) == 0
    summary = tmp_path / "summary.csv"
    assert main(["stats",
                 "--indir", str(tmp_path / "c3"), str(tmp_path / "plain"),
                 str(tmp_path / "none"), str(tmp_path / "const"),
                 "--ref", "nsde-c3", "--out", str(summary)]) == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "algorithm,mean_ofv,std,p_value,best,infeasible_runs"
    assert len(lines) == 5
    out = capsys.readouterr().out
    assert "nsde_c3" in out and "*" in out


def test_simulate_with_optimized_schedule(workspace, capsys):
    tmp_path, net, config = workspace
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde", "--runs", "1",
                 "--outdir", str(tmp_path / "opt")]) == 0
    optimize_out = capsys.readouterr().out
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--net", str(net), "--config", str(config),
                 "--schedule", str(tmp_path / "opt" / "run_00" / "best_schedule.csv"),
                 "--out", str(out)]) == 0
    simulate_out = capsys.readouterr().out
    reported = float(optimize_out.split("ofv=")[1].split()[0])
    resimulated = float(simulate_out.split("objective ")[1].split(";")[0])
    assert abs(reported - resimulated) < 1e-4


def test_unknown_config_key_exits_2(workspace, tmp_path):
    _, net, _ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert main(["simulate", "--net", str(net), "--config", str(bad),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_incomplete_schedule_exits_2(workspace, tmp_path):
    _, net, config = workspace
    schedule = tmp_path / "one_row.csv"
    schedule.write_text("t,i,j,w\n1,0,1,0.5\n")
    assert main(["simulate", "--net", str(net), "--config", str(config),
                 "--schedule", str(schedule), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("flag", [["--workers", "0"], ["--workers=-2"]])
def test_optimize_rejects_fewer_than_one_worker(workspace, capsys, flag):
    # run_experiment refuses the count before it makes the output directory.
    tmp_path, net, config = workspace
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde", *flag, "--outdir", str(tmp_path / "opt")]) == 2
    workers = flag[-1].split("=")[-1]
    assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "opt").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_slices_write_the_whole_campaign(workspace, workers):
    # Slices of run ids, as a long campaign is run, against the campaign run whole.
    tmp_path, net, config = workspace
    for outdir, runs, first in (("whole", 4, []), ("first", 2, ["--first-run", "0"]),
                                ("second", 2, ["--first-run", "2"])):
        assert main(["optimize", "--net", str(net), "--config", str(config),
                     "--algo", "nsde-c3", "--runs", str(runs), "--workers", workers, *first,
                     "--outdir", str(tmp_path / outdir)]) == 0
    assert main(["baseline", "--net", str(net), "--config", str(config),
                 "--mode", "none", "--outdir", str(tmp_path / "none")]) == 0
    rows = {name: (tmp_path / name / "runs.csv").read_text().splitlines()
            for name in ("whole", "first", "second")}
    assert rows["whole"] == rows["first"] + rows["second"][1:]
    for run in range(4):
        whole = tmp_path / "whole" / f"run_{run:02d}"
        part = tmp_path / ("first" if run < 2 else "second") / whole.name
        files = sorted(path.name for path in whole.iterdir())
        assert sorted(path.name for path in part.iterdir()) == files
        for name in files:
            assert (part / name).read_bytes() == (whole / name).read_bytes(), (run, name)
    for name, indirs in (("whole", ["whole"]), ("slices", ["first", "second"])):
        assert main(["stats", "--indir", *(str(tmp_path / d) for d in [*indirs, "none"]),
                     "--out", str(tmp_path / f"summary_{name}.csv")]) == 0
    assert ((tmp_path / "summary_slices.csv").read_bytes()
            == (tmp_path / "summary_whole.csv").read_bytes())


def test_negative_first_run_exits_2_before_outdir(workspace, capsys):
    tmp_path, net, config = workspace
    assert main(["optimize", "--net", str(net), "--config", str(config), "--algo", "nsde",
                 "--first-run", "-1", "--outdir", str(tmp_path / "opt")]) == 2
    assert "first run id must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "opt").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "{tmp}/x.csv"],
    ["optimize", "--algo", "nsde", "--outdir", "{tmp}/opt"],
    ["baseline", "--mode", "none", "--outdir", "{tmp}/none"],
])
def test_config_n_must_match_network(workspace, capsys, command):
    # ds=380 divides the network's 3420 genes but not the 7830 of n=30.
    tmp_path, net, _ = workspace
    bad = tmp_path / "n30.json"
    bad.write_text(json.dumps({**TINY_CONFIG, "n": 30, "ds": 380}))
    name, *rest = (arg.format(tmp=tmp_path) for arg in command)
    assert main([name, "--net", str(net), "--config", str(bad), *rest]) == 2
    assert "sets n=30, but the network has 20 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("override", [{"np": 10.5}, {"horizon": 10.0}, {"runs": True}])
def test_mistyped_config_field_exits_2(workspace, tmp_path, override):
    _, net, _ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CONFIG, **override}))
    assert main(["simulate", "--net", str(net), "--config", str(bad),
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("bad_row", [
    "nsde,1,2.5",                 # short
    "nsde,0,3.5,0.0,40,1",        # run 0 again
    "nsde,1,nan,0.0,40,1",        # non-finite ofv
])
def test_stats_on_malformed_runs_csv_exits_2(tmp_path, capsys, bad_row):
    indir = tmp_path / "plain"
    indir.mkdir()
    (indir / "runs.csv").write_text(
        "algorithm,run,ofv,violation,evaluations,generations\n"
        f"nsde,0,2.5,0.0,40,1\n{bad_row}\n"
    )
    assert main(["stats", "--indir", str(indir), "--ref", "nsde",
                 "--out", str(tmp_path / "summary.csv")]) == 2
    assert f"{indir / 'runs.csv'}:3:" in capsys.readouterr().err


def test_unstable_substeps_exits_2(workspace, tmp_path, capsys):
    # RK4 at substeps 1 leaves [0, 1] on this network; the clip used to hide
    # that and report an objective 17% low with exit 0. The config refuses
    # it, so no command makes its output first.
    _, net, _ = workspace
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"substeps": 1}))
    out = tmp_path / "x"
    for command in (["simulate", "--out", str(out)],
                    ["optimize", "--algo", "nsde-c3", "--outdir", str(out)],
                    ["baseline", "--mode", "none", "--outdir", str(out)]):
        name, *rest = command
        assert main([name, "--net", str(net), "--config", str(coarse), *rest]) == 2, name
        assert "use substeps >= 3" in capsys.readouterr().err, name
        assert not out.exists(), name


@pytest.mark.parametrize("override,message", [
    ({"ds": 7}, "ds=7 does not divide dim=3420"),
    ({"sub_fes": 15}, "sub_fes=15 must be at least 2*NP=20"),
    ({"total_fes": 35}, "total budget of 35 cannot fund"),
], ids=["ds", "sub_fes", "total_fes"])
def test_c3_layout_exits_2_before_outdir(workspace, capsys, override, message):
    # Checked with the config, not by run_c3 after the pool has started.
    tmp_path, net, _ = workspace
    bad = tmp_path / "layout.json"
    bad.write_text(json.dumps({**TINY_CONFIG, **override}))
    out = tmp_path / "opt"
    assert main(["optimize", "--net", str(net), "--config", str(bad), "--algo", "nsde-c3",
                 "--workers", "2", "--outdir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_over_budget_constant_baseline_exits_2_before_outdir(workspace, capsys):
    # The cap, (horizon - 1) * sum(w0^2), depends on the network, so only
    # run_experiment can check it.
    tmp_path, net, _ = workspace
    rich = tmp_path / "rich.json"
    rich.write_text(json.dumps({**TINY_CONFIG, "budget": 1e9}))
    out = tmp_path / "const"
    assert main(["baseline", "--net", str(net), "--config", str(rich), "--mode", "constant",
                 "--outdir", str(out)]) == 2
    assert "budget 1000000000.0 exceeds the spendable maximum" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which,text,message", [
    ("config", None, "cannot read config {path}: [Errno 2] No such file or directory"),
    ("config", "{", "cannot read config {path}: Expecting property name"),
    ("config", "[20]", "config {path} must hold a JSON object"),
    ("config", '{"substeps": 0}', "substeps must be at least 1"),
    # A string or a bool is no node count, so it fails the type check.
    ("config", '{"n": "20"}', "n must be an integer, got '20'"),
    ("config", '{"n": true}', "n must be an integer, got True"),
    ("config", '{"total_fes": 0}', "total_fes must be positive"),
    ("net", "i,j,w\n", "{path}: no weight rows"),
    # Blank rows are skipped but counted, so the self-loop is on line 3.
    ("net", "i,j,w\n\n0,0,0.5\n", "{path}:3: self-loop at node 0"),
], ids=["missing-config", "non-json-config", "array-config", "zero-substeps",
        "string-n-config", "bool-n-config", "zero-total-fes-config", "header-only-net",
        "blank-row-net"])
def test_bad_config_or_network_exits_2(workspace, capsys, which, text, message):
    tmp_path, net, config = workspace
    path = tmp_path / ("bad.json" if which == "config" else "bad.csv")
    if text is not None:
        path.write_text(text)
    files = {"net": net, "config": config, which: path}
    out = tmp_path / "x.csv"
    assert main(["simulate", "--net", str(files["net"]), "--config", str(files["config"]),
                 "--out", str(out)]) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()


def test_unexpected_error_exits_3(workspace, monkeypatch, capsys):
    import epiadapt.cli as cli

    tmp_path, net, config = workspace

    def broken(*args):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "integrate", broken)
    assert main(["simulate", "--net", str(net), "--config", str(config),
                 "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == "error: disk on fire\n"


def test_unreadable_aborted_list_exits_2(tmp_path, capsys):
    (tmp_path / "runs.csv").write_text(
        "algorithm,run,ofv,violation,evaluations,generations\nnsde,0,180,0,1200,20\n")
    (tmp_path / "aborted.txt").mkdir()
    assert main(["stats", "--indir", str(tmp_path), "--ref", "nsde",
                 "--out", str(tmp_path / "summary.csv")]) == 2
    assert f"cannot read {tmp_path / 'aborted.txt'}: Is a directory" in capsys.readouterr().err


def test_stats_rejects_run_seen_in_another_dir(workspace, capsys):
    # The same campaign written at two worker counts holds the same runs.
    tmp_path, net, config = workspace
    dirs = [tmp_path / "w1", tmp_path / "w2"]
    for workers, outdir in zip(("1", "2"), dirs):
        assert main(["optimize", "--net", str(net), "--config", str(config),
                     "--algo", "nsde-c3", "--workers", workers,
                     "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    assert main(["stats", "--indir", *map(str, dirs),
                 "--out", str(tmp_path / "summary.csv")]) == 2
    err = capsys.readouterr().err
    assert str(dirs[0] / "runs.csv") in err and str(dirs[1] / "runs.csv") in err


def test_invalid_parameter_exits_2(tmp_path, capsys):
    assert main(["gen-net", "--n", "3", "--m0", "5", "--m", "5",
                 "--seed", "0", "--out", str(tmp_path / "net.csv")]) == 2
    assert main(["gen-net", "--n", "3", "--m0", "2", "--m", "0",
                 "--seed", "0", "--out", str(tmp_path / "net.csv")]) == 2
    assert "m and m0 must be positive" in capsys.readouterr().err
    assert not (tmp_path / "net.csv").exists()


def test_single_node_network_exits_2(tmp_path, capsys):
    out = tmp_path / "net.csv"
    assert main(["gen-net", "--n", "1", "--m0", "1", "--m", "1",
                 "--seed", "0", "--out", str(out)]) == 2
    assert "need at least 2 nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,missing", [
    (["simulate", "--net", "{tmp}/nope.csv", "--config", "{config}", "--out", "{tmp}/x.csv"],
     "nope.csv"),
    (["simulate", "--net", "{net}", "--config", "{config}", "--schedule", "{tmp}/nope.csv",
      "--out", "{tmp}/x.csv"], "nope.csv"),
    (["stats", "--indir", "{tmp}", "--out", "{tmp}/summary.csv"], "runs.csv"),
], ids=["net", "schedule", "stats-indir"])
def test_unreadable_input_exits_2(workspace, capsys, command, missing):
    tmp_path, net, config = workspace
    assert main([arg.format(tmp=tmp_path, net=net, config=config) for arg in command]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {tmp_path / missing}: No such file or directory" in err


@pytest.mark.parametrize("command", [
    ["optimize", "--net", "{net}", "--config", "{config}", "--algo", "nsde", "--outdir", "{out}"],
    ["optimize", "--net", "{net}", "--config", "{config}", "--algo", "nsde-c3",
     "--workers", "2", "--outdir", "{out}"],
    ["baseline", "--net", "{net}", "--config", "{config}", "--mode", "constant",
     "--outdir", "{out}"],
], ids=["nsde", "nsde-c3-workers-2", "baseline"])
def test_unwritable_outdir_exits_2_before_any_run(workspace, monkeypatch, capsys, command):
    # A typo that puts --outdir under a file must not cost a whole campaign.
    import epiadapt.harness as harness

    tmp_path, net, config = workspace
    started = []
    for name in ("_optimizer_record", "_baseline_record"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: started.append(name))
    out = net / "x"
    assert main([arg.format(net=net, config=config, out=out) for arg in command]) == 2
    assert f"cannot write {out}: Not a directory" in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("out,reason", [
    ("{tmp}/missing/summary.csv", "No such file or directory"),
    ("{net}/summary.csv", "Not a directory"),
], ids=["missing-dir", "under-a-file"])
def test_stats_out_that_cannot_be_written_exits_2(workspace, capsys, out, reason):
    tmp_path, net, _ = workspace
    (tmp_path / "runs.csv").write_text(
        "algorithm,run,ofv,violation,evaluations,generations\nnsde,0,180,0,1200,20\n")
    out = out.format(tmp=tmp_path, net=net)
    assert main(["stats", "--indir", str(tmp_path), "--ref", "nsde", "--out", out]) == 2
    assert f"cannot write {out}: {reason}" in capsys.readouterr().err


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def fail_run_1(monkeypatch):
    """Make run 1 of every campaign diverge, as a NaN state would."""
    import epiadapt.harness as harness
    from epiadapt.dynamics import IntegrationError

    real = harness._optimizer_record

    def flaky(cfg, net, params, run_index, threads):
        if run_index == 1:
            raise IntegrationError("state became non-finite during integration")
        return real(cfg, net, params, run_index, threads)

    monkeypatch.setattr(harness, "_optimizer_record", flaky)


def test_aborted_run_exits_3_and_keeps_survivors(workspace, monkeypatch, capsys):
    tmp_path, net, config = workspace
    fail_run_1(monkeypatch)
    outdir = tmp_path / "opt"
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde", "--runs", "3", "--outdir", str(outdir)]) == 3
    assert "1 of 3 runs aborted" in capsys.readouterr().err
    runs = (outdir / "runs.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in runs] == ["0", "2"]
    assert (outdir / "run_02" / "best_schedule.csv").exists()


def test_rerun_deletes_run_dirs_of_an_earlier_campaign(workspace, monkeypatch, capsys):
    # A run directory left over from an earlier campaign into the same
    # --outdir could pass for the files of a run this one lost.
    tmp_path, net, config = workspace
    outdir = tmp_path / "opt"
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde", "--runs", "3", "--outdir", str(outdir)]) == 0
    (outdir / "run_notes").mkdir()
    fail_run_1(monkeypatch)
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde", "--runs", "2", "--outdir", str(outdir)]) == 3
    assert sorted(p.name for p in outdir.glob("run_*")) == ["run_00", "run_notes"]


def test_aborted_runs_recorded_and_reported_by_stats(workspace, monkeypatch, capsys):
    tmp_path, net, config = workspace
    whole, lossy = tmp_path / "whole", tmp_path / "lossy"
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde", "--runs", "3", "--outdir", str(whole)]) == 0
    assert not (whole / "aborted.txt").exists()
    fail_run_1(monkeypatch)
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde-c3", "--runs", "3", "--outdir", str(lossy)]) == 3
    assert (lossy / "aborted.txt").read_text() == (
        "run 1: state became non-finite during integration\n"
    )
    capsys.readouterr()
    assert main(["stats", "--indir", str(lossy), str(whole), "--ref", "nsde-c3",
                 "--out", str(tmp_path / "summary.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{lossy}: 1 run(s) aborted")
    monkeypatch.undo()
    assert main(["optimize", "--net", str(net), "--config", str(config),
                 "--algo", "nsde-c3", "--runs", "3", "--outdir", str(lossy)]) == 0
    assert not (lossy / "aborted.txt").exists()
