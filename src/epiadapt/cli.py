"""Command-line interface: network generation, simulation, optimization, stats.

It parses arguments and prints; every file is read and written by ``harness``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import no_adaptation_schedule
from .coevolve import grouping_probability
from .dynamics import integrate, objective_value
from .graph import generate_ba
from .harness import (
    ABORTED_FILE,
    ConfigError,
    aborted_count,
    load_config,
    load_network,
    read_schedule_csv,
    run_experiment,
    save_network,
    summarize_run_dirs,
    write_summary_csv,
    write_trajectory_csv,
)


def _cmd_gen_net(args: argparse.Namespace) -> int:
    net = generate_ba(args.n, args.m0, args.m, args.seed)
    save_network(net, args.out)
    print(f"wrote {net.n}-node network with {net.edge_count} edges to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    cfg = load_config(args.config, net)
    params = cfg.epidemic_params()
    if args.schedule is None:
        sched = no_adaptation_schedule(net, cfg.horizon)
    else:
        sched = read_schedule_csv(args.schedule, net.n, cfg.horizon)
    traj = integrate(net, params, sched)
    write_trajectory_csv(traj, args.out)
    print(f"objective {objective_value(traj):.6f}; trajectory written to {args.out}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    given = {"runs": args.runs, "master_seed": args.seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    net = load_network(args.net)
    cfg = load_config(args.config, net, algorithm=args.algo, **overrides)
    records = run_experiment(cfg, net=net, outdir=args.outdir, workers=args.workers,
                             first_run=args.first_run)
    for rec in records:
        print(
            f"run {rec.run}: ofv={rec.ofv:.6f} violation={rec.violation:.3g} "
            f"evaluations={rec.evaluations}"
        )
    if len(records) < cfg.runs:
        print(f"{cfg.runs - len(records)} of {cfg.runs} runs aborted", file=sys.stderr)
        return 3
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    cfg = load_config(args.config, net, algorithm=args.mode)
    (rec,) = run_experiment(cfg, net=net, outdir=args.outdir)
    print(f"{rec.algorithm}: ofv={rec.ofv:.6f} violation={rec.violation:.3g}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    for indir in args.indir:
        if lost := aborted_count(indir):
            print(f"{indir}: {lost} run(s) aborted, not in runs.csv "
                  f"(see {Path(indir) / ABORTED_FILE})", file=sys.stderr)
    rows = summarize_run_dirs(args.indir, reference=args.ref)
    write_summary_csv(rows, args.out)
    for row in rows:
        p_text = "-" if row.p_value is None else f"{row.p_value:.4g}"
        flag = " *" if row.is_best else ""
        print(
            f"{row.algorithm}: {row.mean_ofv:.4f} +/- {row.std:.4f} "
            f"(p={p_text}, runs={row.n_runs}, infeasible={row.n_infeasible}){flag}"
        )
    return 0


def _cmd_group_prob(args: argparse.Namespace) -> int:
    p = grouping_probability(args.k, args.cycles, args.ns)
    print(f"P_{args.k} = {p:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiadapt",
        description="Weight-adaptation optimization for SIS epidemic networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-net", help="generate a scale-free network CSV")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--m0", type=int, required=True, help="seed clique size")
    p.add_argument("--m", type=int, required=True, help="edges per new node")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output network CSV")
    p.set_defaults(func=_cmd_gen_net)

    p = sub.add_parser("simulate", help="integrate the dynamics for a schedule")
    p.add_argument("--net", required=True, help="network CSV")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--schedule", help="schedule CSV; defaults to no adaptation")
    p.add_argument("--out", required=True, help="trajectory CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="run an optimization campaign")
    p.add_argument("--net", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--algo", choices=["nsde", "nsde-c3"], required=True)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--outdir", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--first-run", type=int, default=0,
                   help="id of the first run; runs K..K+runs-1 keep their seeds")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("baseline", help="evaluate a reference strategy")
    p.add_argument("--net", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["none", "constant"], required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("stats", help="summarize campaign directories")
    p.add_argument("--indir", nargs="+", required=True)
    p.add_argument("--ref", default="nsde-c3", help="reference algorithm")
    p.add_argument("--out", required=True, help="summary CSV")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("group-prob", help="co-grouping probability P_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--ns", type=int, required=True)
    p.set_defaults(func=_cmd_group_prob)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
