"""The bytes of a tiny campaign through the CLI, on the kernel path and the numpy path.

Selection compares f, so every file a campaign writes depends on f's bytes.
The compiled kernel and the numpy loop define f alike, so both paths, at 1
and at 2 workers, must write the files whose SHA-256 digests
``campaign_digests.json`` holds; ``timing.txt`` holds wall times and is left
out. The files print ``.12g``, so the same file also holds ``float.hex`` of
each optimizer run's ofv and violation, from ``run_experiment`` in process:
those see f's last bits. numpy's normal and Cauchy streams may change between
numpy versions, so the digests name the version they were recorded under.

A change meant to move the bytes records new digests with

    PYTHONPATH=src python tests/test_campaign_digests.py
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import epiadapt._native as native
from epiadapt.cli import main
from epiadapt.harness import load_config, load_network, run_experiment

DIGESTS = Path(__file__).with_name("campaign_digests.json")
# NP=8 at substeps 4; 56 evaluations fund two C3 visits and six NSDE generations.
CONFIG = {
    "n": 20, "m0": 5, "m": 5, "net_seed": 1,
    "beta": 0.4, "gamma": 0.3, "p0": 0.153, "horizon": 10, "substeps": 4,
    "budget": 700.0, "np": 8, "sub_fes": 24, "total_fes": 56,
    "runs": 2, "master_seed": 0,
}


def run_campaign(root: Path, workers: int) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Run every CLI command into ``root / "out"``.

    Returns the SHA-256 of each file it writes, and ``float.hex`` of the ofv
    and violation of each optimizer run, from ``run_experiment`` on the
    written network at the same ``workers``.
    """
    config = root / "exp.json"
    config.write_text(json.dumps(CONFIG))
    out = root / "out"
    out.mkdir()
    net, cfg = str(out / "net.csv"), str(config)
    campaigns = ("nsde-c3", "nsde", "none", "constant")
    steps = [
        ["gen-net", "--n", "20", "--m0", "5", "--m", "5", "--seed", "1", "--out", net],
        *(["optimize", "--net", net, "--config", cfg, "--algo", algo,
           "--workers", str(workers), "--outdir", str(out / algo)] for algo in campaigns[:2]),
        *(["baseline", "--net", net, "--config", cfg, "--mode", mode,
           "--outdir", str(out / mode)] for mode in campaigns[2:]),
        ["stats", "--indir", *(str(out / name) for name in campaigns),
         "--out", str(out / "summary.csv")],
        ["simulate", "--net", net, "--config", cfg, "--out", str(out / "simulate_none.csv")],
        ["simulate", "--net", net, "--config", cfg,
         "--schedule", str(out / "nsde-c3" / "run_01" / "best_schedule.csv"),
         "--out", str(out / "simulate_c3.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*"))
               if path.is_file() and path.name != "timing.txt"}
    network = load_network(net)
    bits = {f"{rec.algorithm}/run_{rec.run:02d}": [rec.ofv.hex(), rec.violation.hex()]
            for algorithm in ("nsde_c3", "nsde")
            for rec in run_experiment(load_config(config, network, algorithm=algorithm),
                                      net=network, workers=workers)}
    return digests, bits


def differing(recorded: dict, got: dict) -> list[str]:
    return sorted(name for name in recorded.keys() | got.keys()
                  if recorded.get(name) != got.get(name))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", ["host build", "numpy loop"])
def test_campaign_bytes(tmp_path, monkeypatch, path, workers):
    if path == "numpy loop":
        monkeypatch.setattr(native, "kernel", lambda: None)
    recorded = json.loads(DIGESTS.read_text())
    digests, bits = run_campaign(tmp_path, workers)
    moved = differing(recorded["sha256"], digests) + differing(recorded["float_hex"], bits)
    assert not moved, (
        f"{path} at workers={workers}: {moved} differ from the digests recorded under "
        f"numpy {recorded['numpy']} (this is numpy {np.__version__}; its random "
        f"streams may differ)"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests, bits = run_campaign(Path(tmp), workers=1)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "sha256": digests,
                                   "float_hex": bits}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests and {len(bits)} runs' float.hex to {DIGESTS}",
          file=sys.stderr)
