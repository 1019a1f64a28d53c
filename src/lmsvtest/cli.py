"""Command-line front end: simulate paths, run tests, build critical-value
tables, run experiments, and diff reports against the bundled references.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 comparison
flagged a cell, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import asymp, dist, mc, stats
from .dist import RngStream, make_noise
from .fgn import FgnParams
from .lmsv import CHANGES, NoChange, SeriesSpec, simulate_components
from .stats import Transform, TrimSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_FLAGGED = 3
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


#: The flag behind each argument of mc.resolve_plan that a PlanError names.
_PLAN_FLAGS = {"hurst": "--hurst", "noise": "--alpha", "sigma": "--sigma"}


@contextlib.contextmanager
def _flags(names: str, refused: type[Exception] = ValueError):
    """Refuse an error raised inside, of type `refused`, as a usage error that
    names the flags: the flag of the argument a PlanError names, else `names`."""
    try:
        yield
    except refused as err:
        names = _PLAN_FLAGS.get(getattr(err, "argument", None), names)
        raise UsageError(f"{names}: {err}") from None


def _value(domain: dist.Domain):
    """The type= of a flag whose value alone has a domain: a value outside
    it is refused by the flag's name."""
    def parse(text: str):
        try:
            value = int(text) if domain.integer else float(text)
            if domain.holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must {domain.text}, got {text!r}")

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="lmsvtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], help="simulate one LMSV path as CSV")
    sim.add_argument("--n", type=_value(dist.COUNT), required=True)
    sim.add_argument("--hurst", type=_value(dist.UNIT_INTERVAL), required=True)
    sim.add_argument("--noise", choices=["normal", "pareto", "centered-pareto"], default="normal")
    sim.add_argument("--alpha", type=float, help="tail index for Pareto-type noise")
    sim.add_argument("--scale", type=float, default=1.0)
    sim.add_argument("--change", choices=["none", "mean", "variance", "tail"], default="none")
    sim.add_argument("--h", type=_value(dist.FINITE), default=0.0, help="change height")
    sim.add_argument("--tau", type=_value(dist.UNIT_INTERVAL), default=0.5,
                     help="change location as a proportion")
    sim.add_argument("--seed", type=_value(dist.SEED), default=0)
    sim.add_argument("--stream-id", type=_value(dist.SEED), default=0)
    sim.add_argument("--latent", action="store_true", help="emit y,eps,x columns instead of x")
    sim.add_argument("--out", type=Path, help="output CSV path (default stdout)")

    test = sub.add_parser("test", help="run one change-point test on a CSV series")
    test.add_argument("--input", type=Path, required=True)
    test.add_argument("--family", choices=list(mc.FAMILIES), required=True)
    test.add_argument("--psi", choices=[t.value.replace("_", "-") for t in Transform],
                      help="transform without --problem (default identity)")
    test.add_argument("--problem", choices=list(mc.PROBLEMS),
                      help="resolve transform, normalization and critical value for this problem")
    test.add_argument("--hurst", type=_value(dist.UNIT_INTERVAL),
                      help="Hurst index for normalization/tables")
    test.add_argument("--alpha", type=float, help="innovation tail index (Pareto problems)")
    test.add_argument("--sigma", type=float,
                      help="known noise scale for the mean-problem CUSUM; estimated when omitted")
    test.add_argument("--level", type=_value(dist.LEVEL), default=0.05)
    test.add_argument("--tau1", type=float, default=TrimSpec.tau1)
    test.add_argument("--tau2", type=float, default=TrimSpec.tau2)
    test.add_argument("--critical-value", type=_value(dist.FINITE),
                      help="override the critical value")
    test.add_argument("--tables", type=Path, help="directory of critical-value table JSON files")
    test.add_argument("--table-seed", type=_value(dist.SEED), default=0,
                      help="seed of a needed table that is neither in --tables nor in "
                           "the package grid, and so is simulated")
    test.add_argument("--profile-out", type=Path, help="write the (k, value) profile as CSV")

    crit = sub.add_parser("critvals", help="simulate a critical-value table")
    crit.add_argument("--family", choices=["bridge", "sn"], required=True)
    crit.add_argument("--hurst", type=_value(dist.UNIT_INTERVAL), required=True)
    crit.add_argument("--tau1", type=float, default=TrimSpec.tau1)
    crit.add_argument("--tau2", type=float, default=TrimSpec.tau2)
    crit.add_argument("--paths", type=_value(dist.COUNT), default=asymp.TableBudget.path_count)
    crit.add_argument("--grid", type=_value(dist.LENGTH), default=asymp.TableBudget.path_length)
    crit.add_argument("--levels", type=_value(dist.LEVEL), nargs="+",
                      default=asymp.STANDARD_LEVELS)
    crit.add_argument("--seed", type=_value(dist.SEED), default=0,
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
    cmp_.add_argument("--max-z", type=_value(dist.NONNEGATIVE), default=3.0)
    cmp_.add_argument("--out", type=Path, help="write the per-cell comparison CSV here")

    return parser


def _cmd_simulate(args) -> int:
    # An unwritable output and bad flag values, refused by name before any
    # computation starts.
    _check_output("--out", args.out)
    with _flags("--noise, --alpha and --scale"):
        noise = make_noise(args.noise.replace("-", "_"), args.alpha, args.scale)
    with _flags("--h"):  # a variance scale h > 0
        change = NoChange() if args.change == "none" else CHANGES[args.change](args.h, args.tau)
    with _flags("--alpha and --h"):
        spec = SeriesSpec(FgnParams(hurst=args.hurst, n=args.n), noise, change)
    with np.errstate(over="ignore"):  # finite flags can still draw values past the doubles
        y, eps, x = simulate_components(spec, RngStream(args.seed, args.stream_id))
    if not np.all(np.isfinite(x)):
        raise UsageError("--scale, --alpha and --h: the series overflows the largest double")
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


def _read_series(path: Path, log_flag: str | None = None) -> np.ndarray:
    """The series of a CSV, one value a line in its last column; with
    `log_flag`, the flag that takes log|x|, a zero is refused by its line."""
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
        if value == 0.0 and log_flag is not None:
            raise UsageError(f"--input: zero value {cell!r} on line {i + 1} of {path}, where "
                             f"the log|x| transform of {log_flag} is undefined")
        values.append(value)
    if len(values) < 2:
        raise UsageError(f"{path} holds fewer than 2 observations")
    return np.asarray(values)


def _trim(args) -> TrimSpec:
    with _flags("--tau1 and --tau2"):
        return TrimSpec(tau1=args.tau1, tau2=args.tau2)


def _resolve_test(args, xs: np.ndarray, trim: TrimSpec) -> mc.Plan:
    """The plan of a single-series test: the --problem's (mc.resolve_plan),
    or without one the --psi transform with normalization 1; a
    --critical-value replaces the plan's critical value."""
    if args.sigma is not None and (args.problem, args.family) != ("mean", "cusum"):
        raise UsageError("--sigma is read only by the mean cusum test, "
                         "--problem mean --family cusum")
    with _flags("--tables", NotADirectoryError):
        loaded = None if args.tables is None else mc.TableSet.read(args.tables)
    psi = None if args.psi is None else Transform(args.psi.replace("-", "_"))
    if args.problem is None:
        return mc.Plan(args.family, psi or Transform.IDENTITY, None, 1.0, args.critical_value)
    problem_psi = mc.PROBLEM_TRANSFORM[args.problem]
    if psi not in (None, problem_psi):
        raise UsageError(f"--psi {args.psi} contradicts --problem {args.problem}, which sets "
                         f"--psi {problem_psi.value.replace('_', '-')}")
    with _flags("--alpha"):  # the law --alpha stands for: the problem's Pareto-type one
        kind = mc._PROBLEM_NOISE[args.problem][-1]
        noise = None if args.alpha is None else make_noise(kind, args.alpha)

    def lookup(*key):
        # The lookup an experiment makes, at the default table budget.
        return mc.resolve_table(*key, seed=args.table_seed, budget=asymp.TableBudget(),
                                level=args.level, loaded=loaded)[0]

    # A plan's refusal alone: a table's or the Wilcoxon factor's is exit 2.
    with _flags("--problem and --family", mc.PlanError):
        plan = mc.resolve_plan(
            args.problem, args.family, args.hurst, noise, trim, n=xs.size, level=args.level,
            lookup=lookup if args.critical_value is None else None,
            # The mean problem's transform is the identity.
            sigma=args.sigma if args.sigma is not None else float(np.std(xs)),
        )
    return plan if args.critical_value is None else replace(
        plan, critical_value=args.critical_value)


def _cmd_test(args) -> int:
    _check_output("--profile-out", args.profile_out)
    if args.psi is not None:  # the flag that chose the transform
        flag, psi = f"--psi {args.psi}", Transform(args.psi.replace("-", "_"))
    else:
        flag, psi = f"--problem {args.problem}", mc.PROBLEM_TRANSFORM.get(args.problem)
    # A zero is refused before a table is looked up or simulated.
    xs = _read_series(args.input, flag if psi is Transform.LOG_ABS else None)
    trim = _trim(args)
    if args.family.startswith("sn_"):  # refused before a table is looked up or simulated
        with _flags("--input with --tau1 and --tau2"):
            trim.window(xs.size)
    plan = _resolve_test(args, xs, trim)
    stat = stats.evaluate((plan.family,), xs, plan.transform, trim)[plan.family]
    statistic, reject = plan.verdict(stat.sup_value)
    if args.profile_out is not None:
        rows = "".join(f"{k},{v:.17g}\n" for k, v in zip(stat.k_grid, stat.profile))
        args.profile_out.write_text("k,value\n" + rows)
    # A degenerate statistic, +inf, is written null: standard JSON has no infinity.
    outcome = {"family": plan.family,
               "statistic": float(statistic) if math.isfinite(statistic) else None,
               "normalization": float(plan.normalization), "argmax_k": stat.argmax_k,
               "critical_value": plan.critical_value,
               "reject": None if reject is None else bool(reject), "degenerate": stat.degenerate}
    sys.stdout.write(json.dumps(outcome, allow_nan=False) + "\n")
    return EXIT_OK


def _check_output(flag: str, path: Path | None, made: bool = False) -> None:
    """Refuse by its flag, before any computation, an output path that cannot
    be written: a file in a missing directory or at a directory's path or,
    for a directory that the command makes with its parents (`made`), a
    path at or under a file. No path (stdout, or no such output) passes."""
    if path is None:
        return
    where = next(p for p in (path, *path.parents) if p.exists()) if made else path.parent
    if not where.is_dir():
        raise UsageError(f"{flag}: {where} is not a directory")
    if not made and path.is_dir():
        raise UsageError(f"{flag}: {path} is a directory")


def _cmd_critvals(args) -> int:
    _check_output("--out", args.out)
    trim = _trim(args)  # refused when malformed, and unused by bridge tables
    family = (
        asymp.TableFamily.CUSUM_BRIDGE_SUP if args.family == "bridge" else asymp.TableFamily.SN_RATIO
    )
    if family is asymp.TableFamily.SN_RATIO:
        with _flags("--grid with --tau1 and --tau2"):
            trim.window(args.grid)
    table = asymp.critical_values(
        family,
        1,
        args.hurst,
        mc.table_stream(args.seed, family, args.hurst),
        trim=trim,
        levels=tuple(args.levels),
        budget=asymp.TableBudget(path_count=args.paths, path_length=args.grid),
    )
    table.save(args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    _check_output("--out-dir", args.out_dir, made=True)
    cfg = mc.ExperimentConfig.load(args.config)
    with _flags("--tables", NotADirectoryError):
        tables = None if args.tables is None else mc.TableSet.read(args.tables)
    report = mc.run_experiment(cfg, tables=tables)
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
    _check_output("--out", args.out)
    cells = mc.cells_from_csv(args.report)
    if str(args.reference).startswith("builtin:"):
        with _flags("--reference"):
            reference = mc.load_reference(str(args.reference).split(":", 1)[1])
    else:
        reference = mc.reference_from_csv(Path(args.reference))
    result = mc.compare_to_reference(cells, reference, max_z=args.max_z)
    lines = ["family,hurst,n,alpha,h,local_rate,reference_rate,z,flagged"]
    for r in result.rows:
        c = r.cell
        alpha = "" if c.alpha is None else f"{c.alpha:g}"
        lines.append(
            f"{c.family},{c.hurst:g},{c.n},{alpha},{c.h:g},{c.rate:.4f},"
            f"{r.reference.rate:.4f},{r.z_score:.3f},{int(r.flagged)}"
        )
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    sys.stdout.write(
        f"{len(result.rows)} cells compared, max |z| = {result.max_abs_z:.3f}, "
        f"{len(result.flagged)} flagged\n"
    )
    for r in result.flagged:
        c = r.cell
        sys.stdout.write(
            f"FLAGGED {c.family} H={c.hurst:g} n={c.n} alpha={c.alpha} h={c.h:g}: "
            f"local {c.rate:.3f} vs reference {r.reference.rate:.3f} (z={r.z_score:.2f})\n"
        )
    return EXIT_FLAGGED if result.flagged else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = {"simulate": _cmd_simulate, "test": _cmd_test, "critvals": _cmd_critvals,
                   "experiment": _cmd_experiment, "compare": _cmd_compare}[args.command]
        return command(args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, MemoryError, asymp.QuadratureError) as err:
        # A KeyError's str() quotes its message, and a MemoryError has none.
        text = str(err.args[0]) if isinstance(err, KeyError) and err.args else str(err)
        sys.stderr.write(f"error: {text or type(err).__name__}\n")
        return EXIT_COMPUTATION
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
