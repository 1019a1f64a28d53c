"""Command-line front end: simulate paths, run tests, build critical-value
tables, run experiments, and diff reports against the bundled references.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 comparison
flagged a cell.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import asymp, mc, stats
from .dist import RngStream, make_noise
from .fgn import FgnParams
from .lmsv import CHANGES, NoChange, SeriesSpec, simulate_components
from .stats import Transform, TrimSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_FLAGGED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lmsvtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], help="simulate one LMSV path as CSV")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--hurst", type=float, required=True)
    sim.add_argument("--noise", choices=["normal", "pareto", "centered-pareto"], default="normal")
    sim.add_argument("--alpha", type=float, help="tail index for Pareto-type noise")
    sim.add_argument("--scale", type=float, default=1.0)
    sim.add_argument("--change", choices=["none", "mean", "variance", "tail"], default="none")
    sim.add_argument("--h", type=float, default=0.0, help="change height")
    sim.add_argument("--tau", type=float, default=0.5, help="change location as a proportion")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--stream-id", type=int, default=0)
    sim.add_argument("--latent", action="store_true", help="emit y,eps,x columns instead of x")
    sim.add_argument("--out", type=Path, help="output CSV path (default stdout)")

    test = sub.add_parser("test", help="run one change-point test on a CSV series")
    test.add_argument("--input", type=Path, required=True)
    test.add_argument("--family", choices=list(mc.FAMILIES), required=True)
    test.add_argument("--psi", choices=[t.value.replace("_", "-") for t in Transform],
                      help="transform without --problem (default identity)")
    test.add_argument("--problem", choices=list(mc.PROBLEMS),
                      help="resolve transform, normalization and critical value for this problem")
    test.add_argument("--hurst", type=float, help="Hurst index for normalization/tables")
    test.add_argument("--alpha", type=float, help="innovation tail index (Pareto problems)")
    test.add_argument("--sigma", type=float,
                      help="known noise scale for the mean-problem CUSUM; estimated when omitted")
    test.add_argument("--level", type=float, default=0.05)
    test.add_argument("--tau1", type=float, default=0.15)
    test.add_argument("--tau2", type=float, default=0.85)
    test.add_argument("--critical-value", type=float, help="override the critical value")
    test.add_argument("--tables", type=Path, help="directory of critical-value table JSON files")
    test.add_argument("--table-seed", type=int, default=0,
                      help="seed of a needed table that is neither in --tables nor in "
                           "the package grid, and so is simulated")
    test.add_argument("--profile-out", type=Path, help="write the (k, value) profile as CSV")

    crit = sub.add_parser("critvals", help="simulate a critical-value table")
    crit.add_argument("--family", choices=["bridge", "sn"], required=True)
    crit.add_argument("--m", type=int, default=1, choices=[1, 2])
    crit.add_argument("--hurst", type=float, required=True)
    crit.add_argument("--tau1", type=float, default=0.15)
    crit.add_argument("--tau2", type=float, default=0.85)
    crit.add_argument("--paths", type=int, default=10_000)
    crit.add_argument("--grid", type=int, default=2_048)
    crit.add_argument("--levels", type=float, nargs="+", default=[0.90, 0.95, 0.99])
    crit.add_argument("--seed", type=int, default=0,
                      help="table seed; the same seed and key give the table an experiment "
                           "or `test` simulates")
    crit.add_argument("--out", type=Path, required=True)

    exp = sub.add_parser("experiment", help="run a rejection-rate experiment from a config file")
    exp.add_argument("--config", type=Path, required=True)
    exp.add_argument("--out-dir", type=Path, required=True)
    exp.add_argument("--tables", type=Path,
                     help="directory of table JSON files (missing tables are simulated)")

    cmp_ = sub.add_parser("compare", help="compare a cells CSV against a reference table")
    cmp_.add_argument("--report", type=Path, required=True, help="cells.csv from an experiment run")
    cmp_.add_argument("--reference", required=True,
                      help="reference CSV path or builtin:<name> "
                           f"with name in {sorted(mc._REFERENCE_FILES)}")
    cmp_.add_argument("--max-z", type=float, default=3.0)
    cmp_.add_argument("--out", type=Path, help="write the per-cell comparison CSV here")

    return parser


def _cmd_simulate(args) -> int:
    try:
        spec = SeriesSpec(
            fgn=FgnParams(hurst=args.hurst, n=args.n),
            noise=make_noise(args.noise.replace("-", "_"), args.alpha, args.scale),
            change=(NoChange() if args.change == "none"
                    else CHANGES[args.change](h=args.h, tau=args.tau)),
        )
    except ValueError as err:
        # Bad flag values, caught before any computation starts.
        raise UsageError(str(err))
    y, eps, x = simulate_components(spec, RngStream(args.seed, args.stream_id))
    if args.latent:
        lines = [f"{yi:.17g},{ei:.17g},{xi:.17g}" for yi, ei, xi in zip(y, eps, x)]
    else:
        lines = [f"{xi:.17g}" for xi in x]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return EXIT_OK


def _read_series(path: Path) -> np.ndarray:
    values = []
    for i, line in enumerate(path.read_text().strip().splitlines()):
        cell = line.split(",")[-1].strip()
        try:
            value = float(cell)
        except ValueError:
            if i == 0:
                continue  # tolerate a header line
            raise UsageError(f"non-numeric value {cell!r} on line {i + 1} of {path}")
        if not math.isfinite(value):
            raise UsageError(f"non-finite value {cell!r} on line {i + 1} of {path}")
        values.append(value)
    if len(values) < 2:
        raise UsageError(f"{path} holds fewer than 2 observations")
    return np.asarray(values)


def _load_tables(directory: Path | None) -> mc.TableSet:
    tables = []
    if directory is not None:
        for file in sorted(directory.glob("*.json")):
            tables.append(asymp.CriticalValueTable.load(file))
    return mc.TableSet(tables)


#: The innovation law --alpha stands for under each problem.
_ALPHA_NOISE = {"mean": "centered_pareto", "variance": "centered_pareto", "tail": "pareto"}


def _resolve_test(args, xs: np.ndarray):
    """Transform, normalization and critical value for a single-series test."""
    trim = TrimSpec(tau1=args.tau1, tau2=args.tau2)
    psi = None if args.psi is None else Transform(args.psi.replace("-", "_"))
    if args.problem is None:
        return psi or Transform.IDENTITY, trim, 1.0, args.critical_value
    problem_psi = mc.PROBLEM_TRANSFORM[args.problem]
    if psi not in (None, problem_psi):
        raise UsageError(f"--psi {args.psi} contradicts --problem {args.problem}, which sets "
                         f"--psi {problem_psi.value.replace('_', '-')}")
    loaded = _load_tables(args.tables)

    def lookup(*key):
        # The lookup an experiment makes, at the default table budget.
        return mc.resolve_table(*key, seed=args.table_seed, budget=asymp.TableBudget(),
                                levels=mc.table_levels(args.level), loaded=loaded)[0]

    try:
        plan = mc.resolve_plan(
            args.problem, args.family, args.hurst,
            None if args.alpha is None else make_noise(_ALPHA_NOISE[args.problem], args.alpha),
            trim, n=xs.size, level=args.level,
            lookup=lookup if args.critical_value is None else None,
            # The mean problem's transform is the identity.
            sigma=args.sigma if args.sigma is not None else float(np.std(xs)),
        )
    except mc.PlanError as err:
        raise UsageError(str(err))
    cv = plan.critical_value if args.critical_value is None else args.critical_value
    return plan.transform, trim, plan.normalization, cv


def _cmd_test(args) -> int:
    xs = _read_series(args.input)
    transform, trim, norm, cv = _resolve_test(args, xs)
    family = args.family
    stat = stats.evaluate((family,), xs, transform, trim)[family]
    outcome = stats.decide(stat, family, normalization=norm, critical_value=cv)
    if args.profile_out is not None:
        rows = stats.profile_to_rows(stat)
        args.profile_out.write_text(
            "k,value\n" + "\n".join(f"{k},{v:.17g}" for k, v in rows) + "\n"
        )
    sys.stdout.write(json.dumps(outcome.to_dict()) + "\n")
    return EXIT_OK


def _cmd_critvals(args) -> int:
    family = (
        asymp.TableFamily.CUSUM_BRIDGE_SUP if args.family == "bridge" else asymp.TableFamily.SN_RATIO
    )
    trim = TrimSpec(tau1=args.tau1, tau2=args.tau2) if family is asymp.TableFamily.SN_RATIO else None
    table = asymp.critical_values(
        family,
        args.m,
        args.hurst,
        mc.table_stream(args.seed, family, args.m, args.hurst),
        trim=trim,
        levels=tuple(args.levels),
        budget=asymp.TableBudget(path_count=args.paths, path_length=args.grid),
    )
    table.save(args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = mc.ExperimentConfig.load(args.config)
    start = time.monotonic()
    tables = mc.ensure_tables(cfg, existing=_load_tables(args.tables))
    report = mc.run_experiment(cfg, tables=tables)
    # The tables were built before run_experiment started its clock.
    report.meta["wall_time_seconds"] = round(time.monotonic() - start, 3)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    mc.cells_to_csv(report.cells, args.out_dir / "cells.csv")
    mc.report_to_csv(report, args.out_dir / "report.csv")
    (args.out_dir / "meta.json").write_text(json.dumps(report.meta, indent=2) + "\n")
    sys.stdout.write(
        f"wrote {args.out_dir}/report.csv ({len(report.cells)} cells, "
        f"{report.meta['wall_time_seconds']}s)\n"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    cells = mc.cells_from_csv(args.report)
    if str(args.reference).startswith("builtin:"):
        reference = mc.load_reference(str(args.reference).split(":", 1)[1])
    else:
        reference = mc.reference_from_csv(Path(args.reference))
    result = mc.compare_to_reference(cells, reference, max_z=args.max_z)
    lines = ["family,hurst,n,alpha,h,local_rate,reference_rate,z,flagged"]
    for r in result.rows:
        alpha = "" if r.alpha is None else f"{r.alpha:g}"
        lines.append(
            f"{r.family},{r.hurst:g},{r.n},{alpha},{r.h:g},{r.local_rate:.4f},"
            f"{r.reference_rate:.4f},{r.z_score:.3f},{int(r.flagged)}"
        )
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    sys.stdout.write(
        f"{len(result.rows)} cells compared, max |z| = {result.max_abs_z:.3f}, "
        f"{len(result.flagged)} flagged\n"
    )
    for r in result.flagged:
        sys.stdout.write(
            f"FLAGGED {r.family} H={r.hurst:g} n={r.n} alpha={r.alpha} h={r.h:g}: "
            f"local {r.local_rate:.3f} vs reference {r.reference_rate:.3f} (z={r.z_score:.2f})\n"
        )
    return EXIT_FLAGGED if result.flagged else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "critvals":
            return _cmd_critvals(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_compare(args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, asymp.QuadratureError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
