"""Monte Carlo rejection-rate experiments over (H, n, alpha, h) grids.

Streams are keyed by cell coordinates and replication index, never by
execution order, so cells are independent, and within a grid row the same
replication reuses the same base stream for every shift height (common
random numbers across h).

A grid row is evaluated in fixed-size chunks of replications: each
replication draws from its own two keyed streams into its row of the chunk,
one FFT turns the chunk's normals into FGN paths, and each statistic is
evaluated along the last axis of the whole chunk. The chunk's paths come
from lmsv.simulate_batch, which keeps each replication on its own streams,
so the counts are those of evaluating one replication at a time, whatever
the chunk size.

Every test follows one rule, resolve_plan: the problem and the family fix
the transform, the normalization and the limit table.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import asymp, fgn, lmsv, stats
from .asymp import (
    CriticalValueTable,
    MeanChange,
    MeanChangeWilcoxon,
    TableBudget,
    TableFamily,
    VarianceChange,
    VarianceChangeWilcoxon,
    dnm_exact,
    hermite_rank_and_coeff,
    kolmogorov_quantile,
)
from .dist import NoiseSpec, RngStream, make_noise
from .stats import Transform, TrimSpec

FAMILIES = ("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon")
PROBLEMS = ("mean", "variance", "tail")

PROBLEM_TRANSFORM = {
    "mean": Transform.IDENTITY,
    "variance": Transform.SQUARE,
    "tail": Transform.LOG_ABS,
}

_PROBLEM_KEY = {"mean": 1, "variance": 2, "tail": 3}

#: JSON keys of the ExperimentConfig fields whose names differ.
_JSON_KEYS = {"noise_kind": "noise", "budget": "table_budget"}

#: Replications per chunk of a grid row. Every replication keeps its own
#: streams, so the counts do not depend on this; it only trades per-call
#: overhead against the chunk's transient memory (about 22 MB at n = 2000).
_CHUNK = 64


def _float_key(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


class MissingTableError(KeyError):
    """A needed critical-value table is not present in the table set."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one rejection-rate experiment grid."""

    problem: str
    noise_kind: str
    hursts: tuple[float, ...]
    lengths: tuple[int, ...]
    shifts: tuple[float, ...]
    families: tuple[str, ...]
    alphas: tuple[float, ...] = ()
    tau: float = 0.5
    level: float = 0.05
    replications: int = 1000
    seed: int = 0
    trim: TrimSpec = field(default_factory=TrimSpec)
    budget: TableBudget = field(default_factory=TableBudget)
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.replications < 100:
            raise ValueError("need at least 100 replications")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if not self.families or not self.hursts or not self.lengths or not self.shifts:
            raise ValueError("families, hursts, lengths, and shifts must be non-empty")
        for alpha in self.alpha_grid:
            noise = make_noise(self.noise_kind, alpha)
            for hurst in self.hursts:
                for family in self.families:
                    resolve_plan(self.problem, family, hurst, noise, self.trim)
        if self.problem == "variance" and min(self.shifts) <= 0:
            raise ValueError(
                f"variance shifts scale the post-change segment and must be positive, "
                f"got {min(self.shifts)}"
            )

    @property
    def alpha_grid(self) -> tuple[float | None, ...]:
        return self.alphas if self.alphas else (None,)

    def to_json(self) -> str:
        payload = {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        payload["trim"] = [self.trim.tau1, self.trim.tau2]
        payload["table_budget"] = [self.budget.path_count, self.budget.path_length]
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        """The configuration of a to_json payload. A key left out takes the
        field's default; an unknown key is refused."""
        names = {key: name for name, key in _JSON_KEYS.items()}
        kwargs = {names.get(key, key): tuple(value) if isinstance(value, list) else value
                  for key, value in json.loads(text).items()}
        if "trim" in kwargs:
            kwargs["trim"] = TrimSpec(*kwargs["trim"])
        if "budget" in kwargs:
            kwargs["budget"] = TableBudget(*kwargs["budget"])
        try:
            return ExperimentConfig(**kwargs)
        except TypeError as err:  # a missing or an unknown key
            raise ValueError(f"invalid experiment config: {err}") from None

    @staticmethod
    def load(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# Critical-value table bookkeeping


def _table_key(family: TableFamily, m: int, hurst: float, trim: TrimSpec | None):
    trim_key = None if trim is None else (round(trim.tau1, 6), round(trim.tau2, 6))
    return (family.value, m, round(hurst, 6), trim_key)


def _budget_of(table: CriticalValueTable) -> tuple[int, int]:
    return table.meta.get("path_count", 0), table.meta.get("path_length", 0)


def _check_budget(table: CriticalValueTable, budget: TableBudget) -> None:
    count, length = _budget_of(table)
    if count < budget.path_count or length < budget.path_length:
        raise ValueError(
            f"critical-value table {table.family.value} m={table.m} H={table.hurst} has "
            f"budget {count} x {length}, below the requested "
            f"{budget.path_count} x {budget.path_length}"
        )


class TableSet:
    """Critical-value tables keyed by (family, m, H, trim), each with its source.

    The source is "loaded" (read from files by the caller), "package" (the
    grid shipped in lmsvtest/data/tables) or "simulated".
    """

    def __init__(self, tables: list[CriticalValueTable], source: str = "loaded"):
        self._entries: dict = {}
        self._add((table, source) for table in tables)

    def _add(self, entries) -> None:
        for table, source in entries:
            key = _table_key(table.family, table.m, table.hurst, table.trim)
            self._entries[key] = (table, source)

    def with_entries(self, entries) -> "TableSet":
        """A copy with the (table, source) pairs of `entries` added or replaced."""
        out = TableSet([])
        out._entries = dict(self._entries)
        out._add(entries)
        return out

    def find(
        self, family: TableFamily, m: int, hurst: float, trim: TrimSpec | None
    ) -> tuple[CriticalValueTable, str] | None:
        """(table, source) of a key, or None when the set has no such table."""
        return self._entries.get(_table_key(family, m, hurst, trim))

    def get(
        self, family: TableFamily, m: int, hurst: float, trim: TrimSpec | None
    ) -> CriticalValueTable:
        entry = self.find(family, m, hurst, trim)
        if entry is None:
            raise MissingTableError(
                f"no critical-value table for family={family.value}, m={m}, "
                f"H={hurst}, trim={_table_key(family, m, hurst, trim)[3]}"
            )
        return entry[0]

    def versions(self) -> list[dict]:
        return [
            {
                "family": t.family.value,
                "m": t.m,
                "hurst": t.hurst,
                "trim": None if t.trim is None else [t.trim.tau1, t.trim.tau2],
                "source": source,
                "meta": t.meta,
            }
            for t, source in self._entries.values()
        ]


def table_levels(level: float) -> tuple[float, ...]:
    """Levels of a table built for a test at significance `level`."""
    return tuple(sorted({0.90, 0.95, 0.99, round(1.0 - level, 6)}))


def table_stream(seed: int, family: TableFamily, m: int, hurst: float) -> RngStream:
    """Random stream of the simulated table (family, m, H) for a seed.

    Experiments, `lmsvtest critvals` and `lmsvtest test` all simulate from
    this stream, so one seed gives one table per key, whichever command
    builds it. Streams are keyed by the table coordinates, not by build
    order; SN tables of one H share their paths across trims.
    """
    kind = 1 if family is TableFamily.CUSUM_BRIDGE_SUP else 2
    return RngStream(seed).substream(0xC71).substream(kind, m, _float_key(hurst))


@functools.cache
def _package_tables() -> TableSet:
    """The standard grid shipped in lmsvtest/data/tables, read on first use.

    Every file is `lmsvtest critvals ... --seed 0` at the default budget, so
    each equals the table resolve_table simulates for seed 0.
    """
    directory = resources.files("lmsvtest.data") / "tables"
    files = sorted((f for f in directory.iterdir() if f.name.endswith(".json")),
                   key=lambda f: f.name)
    return TableSet([CriticalValueTable.from_json(f.read_text()) for f in files],
                    source="package")


def resolve_table(
    family: TableFamily,
    m: int,
    hurst: float,
    trim: TrimSpec | None,
    *,
    seed: int,
    budget: TableBudget,
    levels: tuple[float, ...],
    loaded: TableSet | None = None,
) -> tuple[CriticalValueTable, str]:
    """Find or simulate one critical-value table; returns (table, source).

    Lookup order:
    1. the table of the same key in `loaded`. It is refused (ValueError)
       when its path count or path length is below `budget`; a larger one
       is accepted.
    2. the package table of the same key, when its budget equals `budget`
       exactly and it has every level in `levels`. The package grid is read
       at most once per process, here, on first need.
    3. otherwise a table simulated from table_stream(seed, family, m, hurst).
    """
    entry = None if loaded is None else loaded.find(family, m, hurst, trim)
    if entry is not None:
        _check_budget(entry[0], budget)
        return entry
    entry = _package_tables().find(family, m, hurst, trim)
    if entry is not None:
        table = entry[0]
        if (_budget_of(table) == (budget.path_count, budget.path_length)
                and all(round(lv, 6) in table.quantiles for lv in levels)):
            return entry
    table = asymp.critical_values(
        family, m, hurst, table_stream(seed, family, m, hurst),
        trim=trim, levels=levels, budget=budget,
    )
    return table, "simulated"


def required_tables(cfg: ExperimentConfig) -> list[tuple[TableFamily, int, float, TrimSpec | None]]:
    """Table keys an experiment needs, given its problem and families."""
    keys = (resolve_plan(cfg.problem, family, hurst, None, cfg.trim).table
            for hurst in cfg.hursts for family in cfg.families)
    return [key for key in dict.fromkeys(keys) if key is not None]


def ensure_tables(cfg: ExperimentConfig, existing: TableSet | None = None) -> TableSet:
    """The tables of `existing` plus every table the experiment still needs.

    Each needed table is looked up by resolve_table at cfg.budget: first in
    `existing` (refused when below the budget), then in the package grid
    (exact key, budget and levels), and otherwise simulated from
    table_stream(cfg.seed, ...). A package table is a seed-0 table, so at
    the package budget the tables do not depend on cfg.seed.
    """
    existing = TableSet([]) if existing is None else existing
    levels = table_levels(cfg.level)
    return existing.with_entries(
        resolve_table(family, m, hurst, trim, seed=cfg.seed, budget=cfg.budget,
                      levels=levels, loaded=existing)
        for family, m, hurst, trim in required_tables(cfg)
    )


# ---------------------------------------------------------------------------
# Test plans: transform, normalization and critical value of one test


class PlanError(ValueError):
    """The limit theory does not cover a (problem, family, noise, H) combination."""


@dataclass(frozen=True)
class Plan:
    """How one family tests one problem. `table` is the key (family, m,
    effective H, trim) of the limit table, None for the Kolmogorov law; the
    normalization and the critical value are None when not resolved."""

    family: str
    transform: Transform
    table: tuple[TableFamily, int, float, TrimSpec | None] | None
    normalization: float | None = None
    critical_value: float | None = None


#: Innovation laws the limit theory of each problem covers.
_PROBLEM_NOISE = {"mean": ("normal", "centered_pareto"), "variance": ("centered_pareto",),
                  "tail": ("pareto",)}

_LIMIT_PROBLEMS = {
    ("mean", "wilcoxon"): MeanChangeWilcoxon,
    ("variance", "cusum"): VarianceChange,
    ("variance", "wilcoxon"): VarianceChangeWilcoxon,
}


def resolve_plan(
    problem: str,
    family: str,
    hurst: float | None,
    noise: NoiseSpec | None,
    trim: TrimSpec,
    *,
    n: int | None = None,
    level: float | None = None,
    lookup=None,
    sigma: float | None = None,
) -> Plan:
    """The one rule of the tests: the problem and the family fix the
    transform, the normalization and the limit table with its effective H.

    The mean cusum and sn_cusum limits are Brownian and do not use H; every
    other plan needs H > 1/2, where the d_{n,m} normalizations and the fBm
    tables hold. `noise` is the innovation law, or None when it is unknown:
    a plan whose normalization needs it is then refused. `sigma` replaces
    the mean CUSUM's Brownian scale that the noise law implies. With `n` the
    plan carries its normalization; with `level` and `lookup`, a callable
    from a table key to its CriticalValueTable, its critical value.
    Raises PlanError for what the limit theory does not cover.
    """
    if problem not in PROBLEMS or family not in FAMILIES:
        raise PlanError(f"unknown problem {problem!r} or family {family!r}")
    kind = None if noise is None else noise.kind
    if kind not in (None, *_PROBLEM_NOISE[problem]):
        raise PlanError(f"the {problem} problem needs {' or '.join(_PROBLEM_NOISE[problem])} "
                        f"innovations, got {kind}")
    if "wilcoxon" in family and problem == "tail":
        raise PlanError("no limit theory is available for Wilcoxon families in the tail problem")
    if "wilcoxon" in family and kind == "normal":
        raise PlanError("Wilcoxon families for the mean problem need centered Pareto "
                        "innovations (the limit factor degenerates under normal noise)")
    brownian = problem == "mean" and family in ("cusum", "sn_cusum")
    if not brownian and (hurst is None or hurst <= 0.5):
        raise PlanError(f"the {problem} {family} test needs long memory, H > 1/2, got H = "
                        f"{hurst}; only the mean cusum and sn_cusum tests do not use H")

    if family in ("cusum", "wilcoxon"):
        # Every problem here has Hermite rank 1 (asymp.hermite_rank_and_coeff).
        table = None if brownian else (TableFamily.CUSUM_BRIDGE_SUP, 1, hurst, None)
    else:
        table = (TableFamily.SN_RATIO, 1, 0.5 if brownian else hurst, trim)
    normalization = critical_value = None
    if n is not None:
        if family in ("sn_cusum", "sn_wilcoxon"):
            normalization = 1.0
        elif brownian:
            if sigma is None and noise is None:
                raise PlanError("the mean cusum test needs sigma or the innovation law")
            if sigma is None:
                sigma = hermite_rank_and_coeff(MeanChange(noise)).sigma
            normalization = math.sqrt(n) * sigma
        else:
            if problem != "tail" and noise is None:
                raise PlanError(f"the {problem} {family} test needs the innovation tail "
                                f"index alpha")
            setup = hermite_rank_and_coeff(asymp.TailChange() if problem == "tail" else
                                           _LIMIT_PROBLEMS[problem, family](noise.alpha))
            scale = n if family == "wilcoxon" else 1  # the rank sums carry a factor n
            normalization = (scale * dnm_exact(hurst, setup.m, n) * setup.coeff
                             / math.factorial(setup.m))
    if lookup is not None:
        q = round(1.0 - level, 6)
        critical_value = kolmogorov_quantile(q) if table is None else lookup(*table).quantile(q)
    return Plan(family, PROBLEM_TRANSFORM[problem], table, normalization, critical_value)


def _plans_for_row(
    cfg: ExperimentConfig, hurst: float, n: int, alpha: float | None, tables: TableSet
) -> list[Plan]:
    noise = make_noise(cfg.noise_kind, alpha)
    return [resolve_plan(cfg.problem, family, hurst, noise, cfg.trim, n=n, level=cfg.level,
                         lookup=tables.get)
            for family in cfg.families]


# ---------------------------------------------------------------------------
# Experiment execution


@dataclass(frozen=True)
class CellResult:
    """Rejection rate of one test in one grid cell."""

    problem: str
    family: str
    hurst: float
    n: int
    alpha: float | None
    h: float
    tau: float
    level: float
    replications: int
    rejections: int

    @property
    def rate(self) -> float:
        return self.rejections / self.replications

    @property
    def standard_error(self) -> float:
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.replications)


@dataclass
class ExperimentReport:
    cells: list[CellResult]
    meta: dict

    def cell(self, **coords) -> CellResult:
        matches = [
            c
            for c in self.cells
            if all(getattr(c, key) == value for key, value in coords.items())
        ]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} cells match {coords}")
        return matches[0]


def _row_stream(cfg: ExperimentConfig, hurst: float, n: int, alpha: float | None) -> RngStream:
    """Base stream of a grid row; replication r draws from its substream(r)."""
    return RngStream(cfg.seed).substream(
        _PROBLEM_KEY[cfg.problem], _float_key(hurst), n,
        _float_key(-1.0 if alpha is None else alpha), _float_key(cfg.tau),
    )


def _evaluate_row(cfg: ExperimentConfig, hurst: float, n: int, alpha: float | None,
                  tables: TableSet) -> list[CellResult]:
    plans = _plans_for_row(cfg, hurst, n, alpha, tables)
    families = tuple(plan.family for plan in plans)
    params = fgn.FgnParams(hurst, n)
    noise = make_noise(cfg.noise_kind, alpha)
    changes = [lmsv.CHANGES[cfg.problem](h, cfg.tau) for h in cfg.shifts]
    base = _row_stream(cfg, hurst, n, alpha)
    rejections = {(p.family, h): 0 for p in plans for h in cfg.shifts}
    for start in range(0, cfg.replications, _CHUNK):
        streams = [base.substream(rep)
                   for rep in range(start, min(start + _CHUNK, cfg.replications))]
        for h, (_, _, x) in zip(cfg.shifts, lmsv.simulate_batch(params, noise, changes, streams)):
            results = stats.evaluate(families, x, plans[0].transform, cfg.trim)
            for plan in plans:
                value = results[plan.family].sup_value / plan.normalization
                rejections[(plan.family, h)] += int(np.count_nonzero(value > plan.critical_value))

    return [
        CellResult(
            problem=cfg.problem,
            family=family,
            hurst=hurst,
            n=n,
            alpha=alpha,
            h=h,
            tau=cfg.tau,
            level=cfg.level,
            replications=cfg.replications,
            rejections=count,
        )
        for (family, h), count in sorted(rejections.items())
    ]


def _row_task(args) -> list[CellResult]:
    return _evaluate_row(*args)


def run_experiment(cfg: ExperimentConfig, tables: TableSet | None = None) -> ExperimentReport:
    """Run the full rejection-rate grid of an experiment configuration.

    When `tables` is omitted the needed critical-value tables come from
    ensure_tables (package grid or simulation). A provided table set must
    already contain every required key, otherwise MissingTableError names
    the missing one, and a needed table below cfg.budget is refused with
    ValueError.
    """
    start = time.monotonic()
    if tables is None:
        tables = ensure_tables(cfg)
    rows = [
        (cfg, hurst, n, alpha, tables)
        for hurst in cfg.hursts
        for n in cfg.lengths
        for alpha in cfg.alpha_grid
    ]
    # Resolve all plans up front so a missing or too small table fails
    # before any work.
    for _, hurst, n, alpha, _ in rows:
        _plans_for_row(cfg, hurst, n, alpha, tables)
    for key in required_tables(cfg):
        _check_budget(tables.get(*key), cfg.budget)

    cells: list[CellResult] = []
    if cfg.max_workers > 1 and len(rows) > 1:
        with ProcessPoolExecutor(max_workers=cfg.max_workers) as pool:
            for result in pool.map(_row_task, rows):
                cells.extend(result)
    else:
        for row in rows:
            cells.extend(_row_task(row))

    meta = {
        "seed": cfg.seed,
        "problem": cfg.problem,
        "noise": cfg.noise_kind,
        "level": cfg.level,
        "replications": cfg.replications,
        "tau": cfg.tau,
        "wall_time_seconds": round(time.monotonic() - start, 3),
        "tables": tables.versions(),
    }
    return ExperimentReport(cells=cells, meta=meta)


# ---------------------------------------------------------------------------
# Report serialization


_CELLS_HEADER = "problem,family,hurst,n,alpha,h,tau,level,replications,rejections,rate,se"


def cells_to_csv(cells: list[CellResult], path: str | Path) -> None:
    """Tidy CSV: one row per (family, cell), with the exact rejection count."""
    lines = [_CELLS_HEADER]
    for c in cells:
        alpha = "" if c.alpha is None else f"{c.alpha:g}"
        lines.append(
            f"{c.problem},{c.family},{c.hurst:g},{c.n},{alpha},{c.h:g},{c.tau:g},"
            f"{c.level:g},{c.replications},{c.rejections},{c.rate:.6f},"
            f"{c.standard_error:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def cells_from_csv(path: str | Path) -> list[CellResult]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    if header != _CELLS_HEADER.split(","):
        raise ValueError(f"unexpected cells CSV header {header}")
    cells = []
    for line in lines[1:]:
        problem, family, hurst, n, alpha, h, tau, level, reps, rejections, _, _ = (
            line.split(",")
        )
        cells.append(
            CellResult(
                problem=problem,
                family=family,
                hurst=float(hurst),
                n=int(n),
                alpha=None if alpha == "" else float(alpha),
                h=float(h),
                tau=float(tau),
                level=float(level),
                replications=int(reps),
                rejections=int(rejections),
            )
        )
    return cells


def report_to_csv(report: ExperimentReport, path: str | Path) -> None:
    """Human-oriented CSV: one row per cell, one rate column per family."""
    families = sorted({c.family for c in report.cells}, key=FAMILIES.index)
    keyed = {
        (c.hurst, c.n, c.alpha, c.h): {} for c in report.cells
    }
    for c in report.cells:
        keyed[(c.hurst, c.n, c.alpha, c.h)][c.family] = c
    header = ["hurst", "n", "alpha", "h", "tau"]
    for family in families:
        header += [f"{family}_rate", f"{family}_se"]
    lines = [",".join(header)]
    for (hurst, n, alpha, h) in sorted(keyed, key=lambda k: (k[0], k[1], k[2] or 0, k[3])):
        row = [f"{hurst:g}", str(n), "" if alpha is None else f"{alpha:g}", f"{h:g}"]
        row.append(f"{report.cells[0].tau:g}")
        for family in families:
            cell = keyed[(hurst, n, alpha, h)].get(family)
            row += ["", ""] if cell is None else [f"{cell.rate:.6f}", f"{cell.standard_error:.6f}"]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Comparison against reference tables


@dataclass(frozen=True)
class CellComparison:
    family: str
    hurst: float
    n: int
    alpha: float | None
    h: float
    local_rate: float
    reference_rate: float
    z_score: float
    flagged: bool


@dataclass
class ComparisonResult:
    rows: list[CellComparison]

    @property
    def flagged(self) -> list[CellComparison]:
        return [r for r in self.rows if r.flagged]

    @property
    def max_abs_z(self) -> float:
        return max((abs(r.z_score) for r in self.rows), default=0.0)


def _two_proportion_z(p1: float, n1: int, p2: float, n2: int) -> float:
    # Pooled two-sample proportion test; the unpooled variant degenerates
    # when one side sits at 0 or 1 (its estimated variance vanishes).
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    diff = p1 - p2
    if var == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / math.sqrt(var)


def compare_to_reference(
    cells: list[CellResult], reference: list[CellResult], max_z: float = 3.0
) -> ComparisonResult:
    """Per-cell z-scores of local rates against reference rates.

    Both sides are treated as independent binomial proportions; cells with
    |z| > max_z are flagged. Every local cell must have a reference partner,
    otherwise the grids are considered mismatched.
    """
    indexed = {
        (r.problem, r.family, r.hurst, r.n, r.alpha, r.h, r.tau): r for r in reference
    }
    rows = []
    for c in cells:
        key = (c.problem, c.family, c.hurst, c.n, c.alpha, c.h, c.tau)
        ref = indexed.get(key)
        if ref is None:
            raise ValueError(f"reference table has no cell for {key}")
        z = _two_proportion_z(c.rate, c.replications, ref.rate, ref.replications)
        rows.append(
            CellComparison(
                family=c.family,
                hurst=c.hurst,
                n=c.n,
                alpha=c.alpha,
                h=c.h,
                local_rate=c.rate,
                reference_rate=ref.rate,
                z_score=z,
                flagged=abs(z) > max_z,
            )
        )
    return ComparisonResult(rows=rows)


_REFERENCE_FILES = {
    "mean_normal": "table1_mean_normal.csv",
    "mean_pareto": "table2_mean_pareto.csv",
    "variance_pareto": "table3_variance_pareto.csv",
    "tail_pareto": "table4_tail_pareto.csv",
}


def load_reference(name: str) -> list[CellResult]:
    """Load one of the bundled published rejection-rate tables."""
    if name not in _REFERENCE_FILES:
        raise KeyError(f"unknown reference table {name!r}; have {sorted(_REFERENCE_FILES)}")
    path = resources.files("lmsvtest.data") / _REFERENCE_FILES[name]
    return reference_from_csv(path)


def reference_from_csv(path) -> list[CellResult]:
    text = Path(path).read_text() if isinstance(path, (str, Path)) else path.read_text()
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    expected = "problem,family,hurst,n,alpha,h,tau,rate,replications".split(",")
    if header != expected:
        raise ValueError(f"unexpected reference CSV header {header}")
    cells = []
    for line in lines[1:]:
        problem, family, hurst, n, alpha, h, tau, rate, reps = line.split(",")
        reps = int(reps)
        cells.append(
            CellResult(
                problem=problem,
                family=family,
                hurst=float(hurst),
                n=int(n),
                alpha=None if alpha == "" else float(alpha),
                h=float(h),
                tau=float(tau),
                level=0.05,
                replications=reps,
                rejections=round(float(rate) * reps),
            )
        )
    return cells
