"""Command-line interface.

Subcommands: ``graph`` (inspect clusters and reward routing of a
configured coordination graph), ``run`` (execute an experiment config),
``summarize`` (recompute statistics from a run directory), ``validate``
(numerical claim checks), ``schedule`` (smoothing radius / step size /
epoch-count calculator).  The DIRMARL_OUTPUT_DIR environment variable
overrides the configured output directory; ``--output`` overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .configio import ConfigError, load_config
from .experiments import _write_whole, run_experiment, summarize
from .graphs import build_artifacts
from .learner import accuracy_schedule, schedule_bound_constant
from .validation import run_validation


def _cmd_graph(args) -> int:
    cfg = load_config(args.config)
    arts = build_artifacts(cfg.graph)
    print(f"agents: {cfg.graph.num_agents}")
    print(f"coordination edges: {len(cfg.graph.edges)}")
    print(f"clusters: {arts.clusters.num_clusters}")
    for k, members in enumerate(arts.clusters.clusters):
        print(f"  cluster {k}: {' '.join(str(a) for a in members)}")
    print(f"learning edges: {len(arts.learning.edges)}")
    if args.edges:
        for j, i in arts.learning.edges.tolist():
            print(f"  {j} -> {i}")
    centralized = arts.clusters.num_clusters == 1
    print(f"centralized equivalent: {'yes' if centralized else 'no'}")
    return 0


def _print_report(summary) -> None:
    """The run's report, as ``summary.json`` holds it, one fact a line."""
    report = summary.report()
    print(f"epochs: {report['num_epochs']}")
    for alg in summary.algorithms:
        row = report["algorithms"].get(alg)
        if row is None:
            print(f"{alg}: no completed runs")
            continue
        print(f"{alg}: final value {row['final_mean']:.6g} +- {row['final_std']:.3g} "
              f"over {len(row['repeats'])} repeats, tail std {row['tail_std']:.3g}, "
              f"{row['total_messages']} messages")
    for flavor, row in report["variance_table"].items():
        print(f"variance {flavor}: distributed {row['distributed']:.4g} "
              f"vs centralized {row['centralized']:.4g}")
    for alg, r, reason in report["aborted"]:
        print(f"aborted: {alg} repeat {r}: {reason}")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    out = args.output or os.environ.get("DIRMARL_OUTPUT_DIR") or cfg.output_dir
    cfg = replace(cfg, output_dir=out)
    repeat_indices = args.repeat if args.repeat else None
    summary = run_experiment(cfg, repeat_indices=repeat_indices)
    print(f"wrote {cfg.output_dir}")
    _print_report(summary)
    return 0


def _cmd_summarize(args) -> int:
    _print_report(summarize(args.run_dir))
    return 0


def _cmd_validate(args) -> int:
    if args.json and os.path.isdir(args.json):
        raise ValueError(f"cannot write --json {args.json}: it is a directory")
    if args.json and not os.path.isdir(os.path.dirname(os.path.abspath(args.json))):
        raise ValueError(f"cannot write --json {args.json}: its directory does not exist")
    results = run_validation(seed=args.seed, quick=args.quick)
    for res in results:
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'}  {res.detail}")
    if args.json:
        _write_whole(args.json, json.dumps([{"name": r.name, "passed": r.passed,
                                             "detail": r.detail} for r in results],
                                           indent=2) + "\n")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_schedule(args) -> int:
    bound = args.bound_b
    if bound is None and args.value_max is not None:
        bound = schedule_bound_constant(args.j_star, args.j_init, args.lip,
                                        args.value_max, args.sigma_max)
    result = accuracy_schedule(args.eps, args.lip, args.dim, args.epochs, bound_b=bound)
    print(f"delta = {result.delta:.17g}")
    print(f"eta = {result.eta:.17g}")
    if result.epochs_required is not None:
        print(f"epochs_required = {result.epochs_required}")
        if result.epochs_required > args.epochs:
            print(f"note: {args.epochs} epochs are below the guarantee threshold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirmarl",
        description="Distributed zeroth-order policy learning over directed "
                    "coordination graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="print clusters and reward routing of a config's graph")
    p.add_argument("config")
    p.add_argument("--edges", action="store_true", help="also list every learning edge")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--output", default=None, help="override the output directory")
    p.add_argument("--repeat", type=int, action="append", default=None,
                   help="run only this repeat index (repeatable)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("summarize", help="recompute statistics from a run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("validate", help="run the numerical claim checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller Monte-Carlo samples")
    p.add_argument("--json", default=None, help="also write results to this JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("schedule", help="smoothing radius and step size for a target accuracy")
    p.add_argument("--eps", type=float, required=True, help="target stationarity accuracy")
    p.add_argument("--lip", type=float, required=True, help="Lipschitz constant of the objective")
    p.add_argument("--dim", type=int, required=True, help="total parameter dimension")
    p.add_argument("--epochs", type=int, required=True, help="available learning epochs")
    p.add_argument("--bound-b", type=float, default=None,
                   help="bound constant for the epoch requirement")
    p.add_argument("--j-star", type=float, default=0.0, help="optimal value (bound constant)")
    p.add_argument("--j-init", type=float, default=0.0,
                   help="smoothed value at the initial parameter (bound constant)")
    p.add_argument("--value-max", type=float, default=None,
                   help="value magnitude ceiling; with --sigma-max derives the bound constant")
    p.add_argument("--sigma-max", type=float, default=0.0, help="noise std ceiling")
    p.set_defaults(func=_cmd_schedule)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
