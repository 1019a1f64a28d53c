"""Monte Carlo rejection-rate experiments over (H, n, alpha, h) grids.

Streams are keyed by cell coordinates and replication index, never by
execution order, so cells are independent, and within a grid row the same
replication reuses the same base stream for every shift height (common
random numbers across h).

A grid row is evaluated in fixed-size chunks of replications: each
replication draws from its own two keyed streams into its row of the chunk,
one FFT turns the chunk's normals into FGN paths, and each statistic is
evaluated along the last axis of the whole chunk. The stream layout is the
one lmsv.simulate_series uses, so the counts are those of evaluating one
replication at a time, whatever the chunk size.
"""

from __future__ import annotations

import json
import math
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
from .dist import CenteredPareto, Pareto, RngStream, StandardNormal
from .stats import Transform, TrimSpec

FAMILIES = ("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon")
PROBLEMS = ("mean", "variance", "tail")

_PROBLEM_TRANSFORM = {
    "mean": Transform.IDENTITY,
    "variance": Transform.SQUARE,
    "tail": Transform.LOG_ABS,
}

_PROBLEM_KEY = {"mean": 1, "variance": 2, "tail": 3}

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
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.replications < 100:
            raise ValueError("need at least 100 replications")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown families {sorted(unknown)}")
        if not self.families or not self.hursts or not self.lengths or not self.shifts:
            raise ValueError("families, hursts, lengths, and shifts must be non-empty")
        self._noise(self.alphas[0] if self.alphas else None)  # validates kind
        for family in self.families:
            _validate_family(family, self.problem, self.noise_kind)
        if self.noise_kind != "normal" and not self.alphas:
            raise ValueError("Pareto-type noise needs at least one alpha")
        if self.problem == "variance" and min(self.shifts) <= 0:
            raise ValueError(
                f"variance shifts scale the post-change segment and must be positive, "
                f"got {min(self.shifts)}"
            )

    def _noise(self, alpha: float | None):
        if self.noise_kind == "normal":
            return StandardNormal()
        if alpha is None:
            raise ValueError("Pareto-type noise needs alpha")
        if self.noise_kind == "centered_pareto":
            return CenteredPareto(alpha)
        if self.noise_kind == "pareto":
            return Pareto(alpha)
        raise ValueError(f"unknown noise kind {self.noise_kind!r}")

    @property
    def alpha_grid(self) -> tuple[float | None, ...]:
        return self.alphas if self.alphas else (None,)

    def to_json(self) -> str:
        payload = {
            "problem": self.problem,
            "noise": self.noise_kind,
            "alphas": list(self.alphas),
            "hursts": list(self.hursts),
            "lengths": list(self.lengths),
            "shifts": list(self.shifts),
            "families": list(self.families),
            "tau": self.tau,
            "level": self.level,
            "replications": self.replications,
            "seed": self.seed,
            "trim": [self.trim.tau1, self.trim.tau2],
            "table_budget": [self.budget.path_count, self.budget.path_length],
            "max_workers": self.max_workers,
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        trim = raw.get("trim", [0.15, 0.85])
        budget = raw.get("table_budget", [10_000, 2_048])
        return ExperimentConfig(
            problem=raw["problem"],
            noise_kind=raw["noise"],
            alphas=tuple(raw.get("alphas", [])),
            hursts=tuple(raw["hursts"]),
            lengths=tuple(raw["lengths"]),
            shifts=tuple(raw["shifts"]),
            families=tuple(raw["families"]),
            tau=raw.get("tau", 0.5),
            level=raw.get("level", 0.05),
            replications=raw.get("replications", 1000),
            seed=raw.get("seed", 0),
            trim=TrimSpec(tau1=trim[0], tau2=trim[1]),
            budget=TableBudget(path_count=budget[0], path_length=budget[1]),
            max_workers=raw.get("max_workers", 1),
        )

    @staticmethod
    def load(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_json(Path(path).read_text())


def _validate_family(family: str, problem: str, noise_kind: str) -> None:
    if problem == "mean":
        if noise_kind not in ("normal", "centered_pareto"):
            raise ValueError("the mean problem needs mean-zero innovations")
        if family in ("wilcoxon", "sn_wilcoxon") and noise_kind != "centered_pareto":
            raise ValueError(
                "Wilcoxon families for the mean problem need centered Pareto "
                "innovations (the limit factor degenerates under normal noise)"
            )
    if problem == "variance" and noise_kind != "centered_pareto":
        raise ValueError("the variance problem uses centered Pareto innovations")
    if problem == "tail":
        if noise_kind != "pareto":
            raise ValueError("the tail problem uses non-centered Pareto innovations")
        if family in ("wilcoxon", "sn_wilcoxon"):
            raise ValueError(
                "no limit theory is available for Wilcoxon families in the "
                "tail problem"
            )


# ---------------------------------------------------------------------------
# Critical-value table bookkeeping


def _table_key(family: TableFamily, m: int, hurst: float, trim: TrimSpec | None):
    trim_key = None if trim is None else (round(trim.tau1, 6), round(trim.tau2, 6))
    return (family.value, m, round(hurst, 6), trim_key)


class TableSet:
    """Immutable lookup of critical-value tables keyed by (family, m, H, trim)."""

    def __init__(self, tables: list[CriticalValueTable]):
        self._tables: dict = {}
        for table in tables:
            self._tables[_table_key(table.family, table.m, table.hurst, table.trim)] = table

    def get(
        self, family: TableFamily, m: int, hurst: float, trim: TrimSpec | None
    ) -> CriticalValueTable:
        key = _table_key(family, m, hurst, trim)
        if key not in self._tables:
            raise MissingTableError(
                f"no critical-value table for family={family.value}, m={m}, "
                f"H={hurst}, trim={key[3]}"
            )
        return self._tables[key]

    def tables(self) -> list[CriticalValueTable]:
        return list(self._tables.values())

    def versions(self) -> list[dict]:
        return [
            {
                "family": t.family.value,
                "m": t.m,
                "hurst": t.hurst,
                "trim": None if t.trim is None else [t.trim.tau1, t.trim.tau2],
                "meta": t.meta,
            }
            for t in self._tables.values()
        ]


def required_tables(cfg: ExperimentConfig) -> list[tuple[TableFamily, int, float, TrimSpec | None]]:
    """Table keys an experiment needs, given its problem and families."""
    needed: dict = {}
    for hurst in cfg.hursts:
        for family in cfg.families:
            if family in ("cusum", "wilcoxon"):
                if cfg.problem == "mean" and family == "cusum":
                    continue  # Brownian case uses the analytic Kolmogorov law
                needed[_table_key(TableFamily.CUSUM_BRIDGE_SUP, 1, hurst, None)] = (
                    TableFamily.CUSUM_BRIDGE_SUP, 1, hurst, None,
                )
            elif family == "sn_cusum":
                h_eff = 0.5 if cfg.problem == "mean" else hurst
                needed[_table_key(TableFamily.SN_RATIO, 1, h_eff, cfg.trim)] = (
                    TableFamily.SN_RATIO, 1, h_eff, cfg.trim,
                )
            else:  # sn_wilcoxon
                needed[_table_key(TableFamily.SN_RATIO, 1, hurst, cfg.trim)] = (
                    TableFamily.SN_RATIO, 1, hurst, cfg.trim,
                )
    return list(needed.values())


def ensure_tables(cfg: ExperimentConfig, existing: TableSet | None = None) -> TableSet:
    """Build any missing critical-value tables for an experiment.

    Table streams are keyed by the table coordinates (not by build order), so
    the resulting set is deterministic in (cfg.seed, budget) and indifferent
    to which other tables exist.
    """
    tables = [] if existing is None else existing.tables()
    have = {_table_key(t.family, t.m, t.hurst, t.trim) for t in tables}
    levels = tuple(sorted({0.90, 0.95, 0.99, round(1.0 - cfg.level, 6)}))
    base = RngStream(cfg.seed).substream(0xC71)
    for family, m, hurst, trim in required_tables(cfg):
        key = _table_key(family, m, hurst, trim)
        if key in have:
            continue
        stream = base.substream(
            1 if family is TableFamily.CUSUM_BRIDGE_SUP else 2, m, _float_key(hurst)
        )
        tables.append(
            asymp.critical_values(
                family, m, hurst, stream, trim=trim, levels=levels, budget=cfg.budget
            )
        )
        have.add(key)
    return TableSet(tables)


# ---------------------------------------------------------------------------
# Test plans: normalization and critical value per (family, row)


@dataclass(frozen=True)
class _TestPlan:
    family: str
    normalization: float
    critical_value: float


def _plans_for_row(
    cfg: ExperimentConfig, hurst: float, n: int, alpha: float | None, tables: TableSet
) -> list[_TestPlan]:
    q = round(1.0 - cfg.level, 6)
    plans = []
    for family in cfg.families:
        if family == "cusum":
            if cfg.problem == "mean":
                setup = hermite_rank_and_coeff(MeanChange(cfg._noise(alpha)))
                norm = math.sqrt(n) * setup.sigma
                cv = kolmogorov_quantile(q)
            else:
                if cfg.problem == "variance":
                    setup = hermite_rank_and_coeff(VarianceChange(alpha))
                else:
                    setup = hermite_rank_and_coeff(asymp.TailChange())
                norm = dnm_exact(hurst, setup.m, n) * setup.coeff / math.factorial(setup.m)
                cv = tables.get(TableFamily.CUSUM_BRIDGE_SUP, setup.m, hurst, None).quantile(q)
            plans.append(_TestPlan(family, norm, cv))
        elif family == "wilcoxon":
            if cfg.problem == "mean":
                setup = hermite_rank_and_coeff(MeanChangeWilcoxon(alpha))
            else:
                setup = hermite_rank_and_coeff(VarianceChangeWilcoxon(alpha))
            norm = n * dnm_exact(hurst, setup.m, n) * setup.coeff / math.factorial(setup.m)
            cv = tables.get(TableFamily.CUSUM_BRIDGE_SUP, setup.m, hurst, None).quantile(q)
            plans.append(_TestPlan(family, norm, cv))
        elif family == "sn_cusum":
            h_eff = 0.5 if cfg.problem == "mean" else hurst
            cv = tables.get(TableFamily.SN_RATIO, 1, h_eff, cfg.trim).quantile(q)
            plans.append(_TestPlan(family, 1.0, cv))
        else:  # sn_wilcoxon
            cv = tables.get(TableFamily.SN_RATIO, 1, hurst, cfg.trim).quantile(q)
            plans.append(_TestPlan(family, 1.0, cv))
    return plans


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


def _row_paths(cfg: ExperimentConfig, hurst: float, n: int, alpha: float | None):
    """Yield (h, paths) for each chunk of a grid row and each shift height.

    paths has one row per replication of the chunk. Replication r draws its
    FGN normals from _row_stream(...).substream(r).substream(0) and its
    innovations from .substream(1), exactly as lmsv.simulate_series does
    with the stream .substream(r), so its path does not depend on the chunk
    it lands in.
    """
    params = fgn.FgnParams(hurst, n)
    noise = cfg._noise(alpha)
    cut = lmsv.change_point_index(n, cfg.tau)
    base = _row_stream(cfg, hurst, n, alpha)
    gaussian = isinstance(noise, StandardNormal)
    for start in range(0, cfg.replications, _CHUNK):
        reps = range(start, min(start + _CHUNK, cfg.replications))
        normals = np.empty((len(reps), fgn.embedding_size(n)))
        draws = np.empty((len(reps), n))
        for row, rep in enumerate(reps):
            rep_stream = base.substream(rep)
            rep_stream.substream(0).generator().standard_normal(out=normals[row])
            rng = rep_stream.substream(1).generator()
            if gaussian:
                rng.standard_normal(out=draws[row])
            else:
                rng.random(out=draws[row])

        vol = np.exp(fgn.paths_from_normals(params, normals))
        if gaussian:
            eps = draws
        else:
            u = 1.0 - draws
            if cfg.problem != "tail":
                eps = u ** (-1.0 / noise.alpha) * noise.scale
                if isinstance(noise, CenteredPareto):
                    eps -= noise.mean_shift

        for h in cfg.shifts:
            if cfg.problem == "mean":
                x = vol * eps
                x[:, cut:] += h
            elif cfg.problem == "variance":
                x = vol * eps
                x[:, cut:] *= h
            else:
                alphas = np.full(n, noise.alpha)
                alphas[cut:] += h
                x = vol * u ** (-1.0 / alphas) * noise.scale
            yield h, x


def _evaluate_row(cfg: ExperimentConfig, hurst: float, n: int, alpha: float | None,
                  tables: TableSet) -> list[CellResult]:
    plans = _plans_for_row(cfg, hurst, n, alpha, tables)
    families = tuple(plan.family for plan in plans)
    transform = _PROBLEM_TRANSFORM[cfg.problem]
    rejections = {(p.family, h): 0 for p in plans for h in cfg.shifts}
    for h, x in _row_paths(cfg, hurst, n, alpha):
        results = stats.evaluate(families, x, transform, cfg.trim)
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

    When `tables` is omitted the needed critical-value tables are simulated
    on the fly (deterministically in cfg.seed). A provided table set must
    already contain every required key, otherwise MissingTableError names
    the missing one.
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
    # Resolve all plans up front so a missing table fails before any work.
    for _, hurst, n, alpha, _ in rows:
        _plans_for_row(cfg, hurst, n, alpha, tables)

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
