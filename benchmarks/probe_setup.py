"""Set-up probe: a fresh interpreter from start to a ready batch evaluator.

Usage: ``python3 benchmarks/probe_setup.py '<settings JSON>'`` with ``src``
on PYTHONPATH; the settings are the keys of ``run.PROBLEM`` plus
``substeps``. Imports the package through its CLI module, builds the
benchmark network, takes its spectral radius and builds the evaluator, then
prints the time of each step as one JSON object. ``run.py`` times the whole
process from the outside for ``setup_s``.
"""
import json
import sys
import time

start = time.perf_counter()
import epiadapt.cli  # noqa: E402,F401 - the import is what is timed
from epiadapt import (  # noqa: E402
    EpidemicParams,
    generate_ba,
    make_batch_evaluator,
    spectral_radius,
)

t_import = time.perf_counter()
cfg = json.loads(sys.argv[1])
net = generate_ba(cfg["n"], cfg["m0"], cfg["m"], seed=cfg["net_seed"])
t_net = time.perf_counter()
rho = spectral_radius(net.w0)
t_rho = time.perf_counter()
params = EpidemicParams(
    cfg["beta"], cfg["gamma"], cfg["p0"], cfg["horizon"], cfg["substeps"]
)
make_batch_evaluator(net, params, cfg["budget"])
t_eval = time.perf_counter()

print(json.dumps({
    "import_s": t_import - start,
    "generate_ba_ms": 1e3 * (t_net - t_import),
    "spectral_radius_ms": 1e3 * (t_rho - t_net),
    "make_evaluator_ms": 1e3 * (t_eval - t_rho),
    "rho": rho,
}))
