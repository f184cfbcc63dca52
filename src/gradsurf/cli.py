"""Command-line interface.

Verbs: run (full experiment), oracle (analytic reference surface), sample
(one mini-batch observation set), fit (one surrogate from an observations
CSV), report (diagnostics of a surface CSV).  Exit codes: 0 success, 1
usage or config error, 2 numerical failure of every shape candidate when
fitting a single cell.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import evaluate_surface, make_report
from .artifacts import (
    read_json,
    read_observations_csv,
    read_surface_csv,
    surrogate_json,
    write_json,
    write_observations_csv,
)
from .config import ConfigError, ExperimentConfig, from_mapping, load_mapping
from .experiment import fit_cell, run_experiment, write_surface
from .kernels import single_threaded_blas
from .problem import (
    MiniBatchPolicy,
    Observations,
    analytic_loss,
    generate_full_batch,
    sample_loss_surface,
)
from .rng import derive_stream
from .surrogate import FitFailure, FitMode, FitRecipe


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_run(args) -> int:
    mapping = load_mapping(args.config) if args.config is not None else {}
    # each given flag overrides one key; the list keys get a one-item list
    scalars = {"seed": args.seed, "train_grid": args.grid, "report_grid": args.report_grid}
    lists = {"batch_max_list": args.batch_max, "centre_list": args.centres, "mode_list": args.mode}
    mapping.update({k: v for k, v in scalars.items() if v is not None})
    mapping.update({k: [v] for k, v in lists.items() if v is not None})
    config = from_mapping(mapping)
    index_path = run_experiment(config, out_dir=args.out, workers=args.workers)
    index = read_json(index_path)
    failed = [c for c in index["cells"] if c["status"] != "ok"]
    print(f"wrote {index_path} ({len(index['cells']) - len(failed)}/{len(index['cells'])} cells ok)")
    for c in failed:
        print(f"cell {c['id']} failed: {c['error']}", file=sys.stderr)
    if failed and len(index["cells"]) == 1:
        return 2
    return 0


def _cmd_oracle(args) -> int:
    data = generate_full_batch()
    grid = ExperimentConfig().grid(args.grid)
    surface = evaluate_surface(lambda pts: analytic_loss(pts, data), grid)
    out = Path(args.out)
    write_surface(surface, out)
    print(f"wrote {out / 'surface.csv'}")
    return 0


def _cmd_sample(args) -> int:
    data = generate_full_batch()
    grid = ExperimentConfig().grid(args.grid)
    stream = derive_stream(args.seed, "sample")
    observations = sample_loss_surface(grid, data, MiniBatchPolicy(args.batch_max), stream)
    out = Path(args.out)
    write_observations_csv(observations, out / "observations.csv")
    print(f"wrote {out / 'observations.csv'} ({observations.values.size} observations)")
    return 0


def _canonical_order(obs: Observations) -> Observations:
    """The rows sorted by w2, then w1, b, loss, g1 and g2, so a fit does not
    depend on the file's row order.  On a file `gradsurf sample` wrote this
    is the identity: its rows are the grid's nodes, w1 varying fastest."""
    p, g = obs.points, obs.gradients
    # np.lexsort sorts by its last key first
    order = np.lexsort((g[:, 1], g[:, 0], obs.values, obs.batch_sizes, p[:, 0], p[:, 1]))
    return Observations(p[order], obs.values[order], g[order], obs.batch_sizes[order])


@single_threaded_blas()
def _cmd_fit(args) -> int:
    observations = _canonical_order(read_observations_csv(args.observations))
    recipe = FitRecipe(mode=FitMode(args.mode), n_centres=args.centres)
    stream = derive_stream(args.seed, "centres")
    grid = ExperimentConfig().grid(args.report_grid)
    surrogate, surface = fit_cell(observations, recipe, stream, grid)
    out = Path(args.out)
    write_json(surrogate_json(surrogate), out / "model.json")
    write_surface(surface, out)
    shape, mse = surrogate.params.shape, surrogate.mse
    print(f"wrote {out / 'model.json'} (shape {shape:g}, training MSE {mse:g})")
    return 0


def _cmd_report(args) -> int:
    surface = read_surface_csv(args.surface)
    print(json.dumps(make_report(surface), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gradsurf", description=__doc__.split("\n")[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full experiment matrix")
    run.add_argument("--config", help="JSON config file; omit for the default study")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", help="output directory (default from config)")
    run.add_argument("--mode", choices=[m.value for m in FitMode], help="restrict to one fit mode")
    run.add_argument("--batch-max", type=int, help="restrict to one batch maximum")
    run.add_argument("--centres", type=int, help="restrict to one centre count")
    run.add_argument("--grid", type=int, help="training grid resolution")
    run.add_argument("--report-grid", type=int, help="reporting grid resolution")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes, at most one per cell and per CPU (default 1: no pool)",
    )
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="emit the analytic full-batch surface")
    oracle.add_argument("--grid", type=int, default=25, help="grid resolution (default 25)")
    oracle.add_argument("--out", default="out", help="output directory")
    oracle.set_defaults(func=_cmd_oracle)

    sample = sub.add_parser("sample", help="sample one mini-batch observation set")
    sample.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    sample.add_argument("--batch-max", type=int, default=3, help="largest batch size (default 3)")
    sample.add_argument("--grid", type=int, default=25, help="grid resolution (default 25)")
    sample.add_argument("--out", default="out", help="output directory")
    sample.set_defaults(func=_cmd_sample)

    fit = sub.add_parser("fit", help="fit one surrogate from an observations CSV")
    fit.add_argument("observations", help="observations CSV (w1,w2,b,loss,g1,g2)")
    fit.add_argument("--mode", choices=[m.value for m in FitMode], default="g")
    fit.add_argument("--centres", type=int, default=100, help="number of centres (default 100)")
    fit.add_argument("--seed", type=int, default=0, help="centre-draw seed (default 0)")
    fit.add_argument("--report-grid", type=int, default=101, help="evaluation grid (default 101)")
    fit.add_argument("--out", default="out", help="output directory")
    fit.set_defaults(func=_cmd_fit)

    report = sub.add_parser("report", help="diagnostics of a surface CSV, to stdout")
    report.add_argument("surface", help="surface CSV (w1,w2,value)")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FitFailure as e:
        print(f"gradsurf: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as e:
        print(f"gradsurf: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
