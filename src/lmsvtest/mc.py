"""Monte Carlo rejection-rate experiments over (H, n, alpha, h) grids.

Streams are keyed by cell coordinates and replication index, never by
execution order, so cells are independent, and within a grid row the same
replication reuses the same base stream for every shift height (common
random numbers across h).

A grid row is evaluated in chunks of replications sized by their normals
by the block rule of tables (fgn.block_rows, 1 MiB: 128 replications at
n = 500, 64 at 1000, 32 at 2000), so a worker's working set does not grow
with n: each replication draws from its own two keyed streams into its row
of the chunk, paths_from_normals turns the chunk's normals into FGN paths,
and each statistic is reduced to its per-row suprema in the row blocks of
the kernels, so no profile of the chunk is kept. The chunk's paths come
from lmsv.simulate_batch, which keeps each replication on its own streams,
so the counts are those of evaluating one replication at a time, whatever
the chunk size. A NaN supremum, which a shift that overflows the doubles
leaves, is refused by its h.

Every row draws only its null chunk and reads every family at every shift
from it (stats.shift_sups, by the rule of lmsv.shift_rule). The counts
equal those of evaluating each shifted chunk unless a sum statistic lies
within rounding of its critical value.

Every test follows one rule, resolve_plan: the problem and the family fix
the transform, the normalization and the limit table; the plan's verdict
is the one comparison with the critical value. Every table comes from one
rule too, ensure_tables: a table the caller provides first (refused below
the run's budget or without its level), then the package grid, then
simulation. A run resolves every row's plans once, before any replication.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import platform
import struct
import time
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, asymp, dist, fgn, lmsv, stats
from .asymp import (
    E_EXP_2Y,
    CriticalValueTable,
    TableBudget,
    TableFamily,
    dnm_exact,
    kolmogorov_quantile,
    wilcoxon_limit_factor,
)
from .dist import NoiseSpec, RngStream, make_noise, noise_moments
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

#: The domain of each numeric key that has one of its own, checked entry by
#: entry on a grid. hursts, alphas, trim and table_budget follow the rules
#: of the plans and the types that own them, and are refused by key too.
_KEY_DOMAINS = {
    "lengths": dist.LENGTH, "shifts": dist.FINITE, "tau": dist.UNIT_INTERVAL,
    "level": dist.LEVEL, "seed": dist.SEED, "max_workers": dist.COUNT,
    "replications": dist.Domain("be an integer >= 100", lambda r: r >= 100, integer=True),
}

#: The config key behind each argument of resolve_plan that a PlanError names.
_PLAN_KEYS = {"hurst": "hursts", "noise": "alphas"}


@contextlib.contextmanager
def _key(name: str | None = None):
    """Name the config key at fault in a refusal raised inside: the key of
    the argument a PlanError names, else `name`."""
    try:
        yield
    except (TypeError, ValueError) as err:
        key = _PLAN_KEYS.get(getattr(err, "argument", None), name)
        if key is None:
            raise
        raise type(err)(f"{key}: {err}") from None


def _float_key(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


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
    max_workers: int = field(default_factory=asymp.default_workers)

    def __post_init__(self) -> None:
        for name in ("families", "hursts", "lengths", "shifts", "alphas"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)):  # a string would read as its letters
                raise TypeError(f"{name} must be a list, got {values!r}")
            if len(set(values)) != len(values):  # a repeat would run, and count, its cells twice
                raise ValueError(f"{name} repeats an entry: {list(values)}")
        # A float count fails only deep in a run, and a NaN shift never rejects.
        for key, domain in _KEY_DOMAINS.items():
            values = getattr(self, key)
            for value in values if isinstance(values, (tuple, list)) else (values,):
                domain.require(key, value)
        if not self.families or not self.hursts or not self.lengths or not self.shifts:
            raise ValueError("families, hursts, lengths, and shifts must be non-empty")
        # A row that cannot run is refused here, not after the tables and the
        # rows before it.
        if any(family.startswith("sn_") for family in self.families):
            for n in self.lengths:
                self.trim.window(n)
        _grid_plans(self)  # each row's own plans, without their tables

    @property
    def alpha_grid(self) -> tuple[float | None, ...]:
        return self.alphas if self.alphas else (None,)

    def to_json(self) -> str:
        payload = {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        for name in ("hursts", "shifts", "alphas"):  # 1 and 1.0 are one value, one text
            payload[name] = [float(value) for value in payload[name]]
        payload["tau"], payload["level"] = float(self.tau), float(self.level)
        payload["trim"] = [self.trim.tau1, self.trim.tau2]
        payload["table_budget"] = [self.budget.path_count, self.budget.path_length]
        return json.dumps(payload, indent=2)

    def sha256(self) -> str:
        """The hex sha256 of to_json() at max_workers = 1, which names the
        configuration in a run's meta: the counts, and so the name, do not
        depend on the worker count. The payload is edited, not the config,
        whose copy would resolve every plan again."""
        import hashlib  # it loads OpenSSL, about 5 ms: not at import

        payload = json.loads(self.to_json())
        payload["max_workers"] = 1
        return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        """The configuration of a to_json payload. A key left out takes the
        field's default; an unknown key is refused."""
        names = {key: name for name, key in _JSON_KEYS.items()}
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("invalid experiment config: need an object of keys, "
                             f"got {type(payload).__name__}")
        kwargs = {names.get(key, key): tuple(value) if isinstance(value, list) else value
                  for key, value in payload.items()}
        try:
            for name, build in (("trim", TrimSpec), ("budget", TableBudget)):
                if name in kwargs:
                    with _key(_JSON_KEYS.get(name, name)):
                        kwargs[name] = build(*kwargs[name])
            return ExperimentConfig(**kwargs)
        except TypeError as err:  # a missing or an unknown key, or a malformed trim or budget
            raise ValueError(f"invalid experiment config: {err}") from None

    @staticmethod
    def load(path: str | Path) -> "ExperimentConfig":
        """Read a config file; a file that is not a valid config is named in the error."""
        try:
            return ExperimentConfig.from_json(Path(path).read_text())
        except ValueError as err:  # a file that is not JSON too
            raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Critical-value table bookkeeping


def _table_key(family: TableFamily, hurst: float, trim: TrimSpec | None):
    trim_key = None if trim is None else (round(trim.tau1, 6), round(trim.tau2, 6))
    return (family.value, round(hurst, 6), trim_key)


def _budget_of(table: CriticalValueTable) -> tuple[int, int]:
    return table.meta.get("path_count", 0), table.meta.get("path_length", 0)


class TableSet:
    """Critical-value tables keyed by (family, H, trim), each with its source,
    built from (table, source) pairs, as resolve_table returns them. Every
    problem here has Hermite rank 1, and so has every table.

    The source is "loaded" (read from files by the caller), "package" (the
    grid shipped in lmsvtest/data/tables) or "simulated".
    """

    def __init__(self, entries):
        self._entries = {_table_key(t.family, t.hurst, t.trim): (t, source)
                         for t, source in entries}

    @classmethod
    def read(cls, directory, source: str = "loaded") -> "TableSet":
        """Every *.json table of `directory`, a Path or a resource directory, in
        name order. Anything but a directory is refused (NotADirectoryError), and
        a file that is not a valid table is named in the ValueError."""
        if not directory.is_dir():
            raise NotADirectoryError(f"{directory} is not a directory")
        files = sorted((f for f in directory.iterdir() if f.name.endswith(".json")),
                       key=lambda f: f.name)
        return cls((CriticalValueTable.load(f), source) for f in files)

    def find(
        self, family: TableFamily, hurst: float, trim: TrimSpec | None
    ) -> tuple[CriticalValueTable, str] | None:
        """(table, source) of a key, or None when the set has no such table."""
        return self._entries.get(_table_key(family, hurst, trim))

    def versions(self) -> list[dict]:
        return [
            {
                "family": t.family.value,
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


def table_stream(seed: int, family: TableFamily, hurst: float) -> RngStream:
    """Random stream of the simulated table (family, H) for a seed.

    Experiments, `lmsvtest critvals` and `lmsvtest test` all simulate from
    this stream, so one seed gives one table per key, whichever command
    builds it. Streams are keyed by the table coordinates, not by build
    order; SN tables of one H share their paths across trims. The key holds
    the Hermite rank 1 of every table, as the streams of the shipped tables do.
    """
    kind = 1 if family is TableFamily.CUSUM_BRIDGE_SUP else 2
    return RngStream(seed).substream(0xC71).substream(kind, 1, _float_key(hurst))


@functools.cache
def _package_tables() -> TableSet:
    """The standard grid shipped in lmsvtest/data/tables, read on first use.

    Every file is `lmsvtest critvals ... --seed 0` at the default budget, so
    each equals the table resolve_table simulates for seed 0.
    """
    return TableSet.read(resources.files("lmsvtest.data") / "tables", source="package")


def resolve_table(
    family: TableFamily,
    hurst: float,
    trim: TrimSpec | None,
    *,
    seed: int,
    budget: TableBudget,
    level: float,
    loaded: TableSet | None = None,
    workers: int | None = None,
) -> tuple[CriticalValueTable, str]:
    """Find or simulate one critical-value table for a test at significance
    `level`; returns (table, source).

    Lookup order:
    1. the table of the same key in `loaded`. It is refused (ValueError)
       when its path count or path length is below `budget`, or when it
       lacks the quantile 1 - level; a larger one is accepted.
    2. the package table of the same key, when its budget equals `budget`
       exactly and it has every level of table_levels(level). The package
       grid is read at most once per process, here, on first need.
    3. otherwise a table simulated from table_stream(seed, family, hurst)
       at table_levels(level) on `workers` threads (default:
       asymp.default_workers()).
    """
    entry = None if loaded is None else loaded.find(family, hurst, trim)
    if entry is not None:
        count, length = _budget_of(entry[0])
        if count < budget.path_count or length < budget.path_length:
            raise ValueError(
                f"critical-value table {family.value} H={hurst} has budget {count} x "
                f"{length}, below the requested {budget.path_count} x {budget.path_length}"
            )
        q, quantiles = round(1.0 - level, 6), entry[0].quantiles
        if q not in quantiles:
            raise ValueError(f"loaded critical-value table {family.value} H={hurst} lacks "
                             f"the level {q} (has {sorted(quantiles)})")
        return entry
    levels = table_levels(level)
    entry = _package_tables().find(family, hurst, trim)
    if entry is not None:
        table = entry[0]
        if (_budget_of(table) == (budget.path_count, budget.path_length)
                and all(round(lv, 6) in table.quantiles for lv in levels)):
            return entry
    table = asymp.critical_values(
        family, 1, hurst, table_stream(seed, family, hurst),
        trim=trim, levels=levels, budget=budget, workers=workers,
    )
    return table, "simulated"


def required_tables(cfg: ExperimentConfig) -> list[tuple[TableFamily, float, TrimSpec | None]]:
    """Table keys an experiment's plans need, in the run's order."""
    keys = (plan.table for plans in _grid_plans(cfg).values() for plan in plans)
    return [key for key in dict.fromkeys(keys) if key is not None]


def ensure_tables(cfg: ExperimentConfig, existing: TableSet | None = None) -> TableSet:
    """Every table the experiment needs, and no other.

    Each needed table is looked up by resolve_table at cfg.budget: first in
    `existing` (refused when below the budget or without the level), then
    in the package grid (exact key, budget and levels), and otherwise
    simulated from table_stream(cfg.seed, ...). A package table is a seed-0
    table, so at the package budget the tables do not depend on cfg.seed. A
    simulated table runs on cfg.max_workers threads. Tables of `existing`
    that the experiment does not need are left out.
    """
    keys = required_tables(cfg)
    # The loaded tables first, so one that cannot serve is refused before
    # any table is simulated; the set keeps the run's order.
    first = sorted(keys, key=lambda key: existing is None or existing.find(*key) is None)
    found = {key: resolve_table(*key, seed=cfg.seed, budget=cfg.budget, level=cfg.level,
                                loaded=existing, workers=cfg.max_workers) for key in first}
    return TableSet(found[key] for key in keys)


# ---------------------------------------------------------------------------
# Test plans: transform, normalization and critical value of one test


class PlanError(ValueError):
    """The limit theory does not cover a (problem, family, noise, H) combination.
    `argument` names the argument of resolve_plan at fault, when one alone is."""

    def __init__(self, message: str, argument: str | None = None):
        super().__init__(message)
        self.argument = argument


@dataclass(frozen=True)
class Plan:
    """How one family tests one problem. `table` is the key (family,
    effective H, trim) of the limit table, None for the Kolmogorov law; the
    normalization and the critical value are None when not resolved.
    `lmsvtest test` without --problem tests under Plan(family, --psi, None,
    1.0, --critical-value). verdict is the one comparison of a statistic
    with a critical value, for an experiment's counts and `test` alike."""

    family: str
    transform: Transform
    table: tuple[TableFamily, float, TrimSpec | None] | None
    normalization: float | None = None
    critical_value: float | None = None

    def verdict(self, sup):
        """The normalized statistic sup / normalization and whether it
        exceeds the critical value, elementwise over an array of suprema;
        the second is None when the plan has no critical value."""
        value = sup / self.normalization
        return value, None if self.critical_value is None else value > self.critical_value


#: Innovation laws the limit theory of each problem covers, its Pareto-type law last.
_PROBLEM_NOISE = {"mean": ("normal", "centered_pareto"), "variance": ("centered_pareto",),
                  "tail": ("pareto",)}


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

    A given H must lie in (0, 1). The mean cusum and sn_cusum limits are
    Brownian and do not use H; every other plan needs H > 1/2, where the
    d_{n,m} normalizations and the fBm tables hold. `noise` is the
    innovation law, or None when it is unknown: a plan that needs it (a mean
    Wilcoxon plan, or a normalization that uses alpha) is then refused with
    a PlanError that names `noise`. `sigma` replaces the mean CUSUM's Brownian scale that
    the noise law implies, and must be finite and > 0. At alpha <= 2, where
    E X^2 is infinite, every variance plan and the mean cusum plan without
    `sigma` are refused. Here is the one rule of the limit constants c: the mean
    cusum divides by sqrt(n) sigma, sigma = sqrt(Var(eps) E exp(2Y)) by default,
    the variance, tail and Wilcoxon plans by d_{n,1} c, with c = 2 e^2 Var(eps),
    1 (log|x|) or the Wilcoxon factor (times n for the rank sums), the SN plans
    by 1. With `n` the plan carries its normalization; with `level` and `lookup`,
    a callable from a table key to its CriticalValueTable, its critical value.
    Raises PlanError for what the limit theory does not cover.
    """
    if problem not in PROBLEMS or family not in FAMILIES:
        raise PlanError(f"unknown problem {problem!r} or family {family!r}")
    if hurst is not None and not dist.UNIT_INTERVAL.holds(hurst):
        raise PlanError(f"the Hurst index must lie in (0, 1), got H = {hurst}", "hurst")
    kind = None if noise is None else noise.kind
    if kind not in (None, *_PROBLEM_NOISE[problem]):
        raise PlanError(f"the {problem} problem needs {' or '.join(_PROBLEM_NOISE[problem])} "
                        f"innovations, got {kind}")
    if "wilcoxon" in family and problem == "tail":
        raise PlanError("no limit theory is available for Wilcoxon families in the tail problem")
    if "wilcoxon" in family and kind == "normal":
        raise PlanError("Wilcoxon families for the mean problem need centered Pareto "
                        "innovations (the limit factor degenerates under normal noise)")
    if "wilcoxon" in family and problem == "mean" and kind is None:
        raise PlanError(f"the mean {family} test needs centered Pareto innovations and their "
                        f"tail index alpha", "noise")
    brownian = problem == "mean" and family in ("cusum", "sn_cusum")
    if not brownian and (hurst is None or hurst <= 0.5):
        raise PlanError(f"the {problem} {family} test needs long memory, H > 1/2, got H = "
                        f"{hurst}; only the mean cusum and sn_cusum tests do not use H", "hurst")
    if (sigma is not None and (problem, family) == ("mean", "cusum")
            and not dist.POSITIVE.holds(sigma)):
        raise PlanError(f"the mean cusum test needs a finite sigma > 0, got sigma = {sigma}",
                        "sigma")
    variance = None if noise is None else noise_moments(noise).variance
    if not (variance is None or 0.0 < variance < math.inf) and (
            problem == "variance" or ((problem, family) == ("mean", "cusum") and sigma is None)):
        # Infinite at alpha <= 2, and 0.0 where c^2 / alpha^2 underflows.
        raise PlanError(f"the {problem} {family} test needs a finite innovation variance "
                        f"above 0, got {variance} at alpha = {noise.alpha}", "noise")

    if family in ("cusum", "wilcoxon"):
        table = None if brownian else (TableFamily.CUSUM_BRIDGE_SUP, hurst, None)
    else:
        table = (TableFamily.SN_RATIO, 0.5 if brownian else hurst, trim)
    normalization = critical_value = None
    if n is not None:
        if family in ("sn_cusum", "sn_wilcoxon"):
            normalization = 1.0
        elif brownian:
            if sigma is None and noise is None:
                raise PlanError("the mean cusum test needs sigma or the innovation law")
            if sigma is None:
                sigma = math.sqrt(variance * E_EXP_2Y)
            normalization = math.sqrt(n) * sigma
            if normalization == math.inf:
                raise PlanError(f"the mean cusum normalization sqrt(n) sigma overflows at "
                                f"sigma = {sigma}, n = {n}", "sigma")
        else:
            if problem != "tail" and noise is None:
                raise PlanError(f"the {problem} {family} test needs the innovation tail index "
                                f"alpha", "noise")
            scale = n if family == "wilcoxon" else 1  # the rank sums carry a factor n
            if family == "wilcoxon":
                coeff = wilcoxon_limit_factor(problem, noise.alpha).value
            else:  # 2 e^2 Var(eps) for the variance cusum, 1 for the tail cusum
                coeff = 2.0 * E_EXP_2Y * variance if problem == "variance" else 1.0
            normalization = scale * dnm_exact(hurst, 1, n) * coeff
    if lookup is not None:
        q = round(1.0 - level, 6)
        critical_value = kolmogorov_quantile(q) if table is None else lookup(*table).quantile(q)
    return Plan(family, PROBLEM_TRANSFORM[problem], table, normalization, critical_value)


def _grid_plans(cfg: ExperimentConfig, tables: TableSet | None = None) -> dict[tuple, list[Plan]]:
    """Every grid row's plans, one per family, keyed (H, n, alpha) in the run's
    order; with `tables` each carries its critical value. An alpha the noise
    law refuses, a shift height that law cannot take and a plan the limit
    theory does not cover are refused by their config keys."""
    noises = {}
    for alpha in cfg.alpha_grid:
        with _key("alphas"):
            noises[alpha] = make_noise(cfg.noise_kind, alpha)  # refuses alphas under normal noise
        with _key("shifts"):
            for h in cfg.shifts:  # a variance scale h > 0, a tail index alpha + h > 0
                lmsv._check_change(noises[alpha], lmsv.CHANGES[cfg.problem](h, cfg.tau))
    lookup = None if tables is None else lambda *key: tables.find(*key)[0]
    with _key():
        return {(hurst, n, alpha): [resolve_plan(cfg.problem, family, hurst, noise, cfg.trim,
                                                 n=n, level=cfg.level, lookup=lookup)
                                    for family in cfg.families]
                for hurst in cfg.hursts for n in cfg.lengths for alpha, noise in noises.items()}


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
                  plans: list[Plan]) -> list[CellResult]:
    families = tuple(plan.family for plan in plans)
    params = fgn.FgnParams(hurst, n)
    noise = make_noise(cfg.noise_kind, alpha)
    cut = lmsv.change_point_index(n, cfg.tau)
    base = _row_stream(cfg, hurst, n, alpha)
    rejections = {(p.family, h): 0 for p in plans for h in cfg.shifts}
    step = fgn.block_rows(n)
    try:
        for start in range(0, cfg.replications, step):
            streams = base.substreams(range(start, min(start + step, cfg.replications)))
            eps, x0 = lmsv.simulate_batch(params, noise, lmsv.NoChange(), streams)[1:]
            direction, gain = lmsv.shift_rule(cfg.problem, noise, cut, eps)
            # Only the tail's direction keeps the innovations: the latent path and
            # every other eps are freed before the statistics run.
            del eps
            try:
                sups = stats.shift_sups(families, x0, plans[0].transform, direction,
                                        {h: gain(h) for h in cfg.shifts}, cfg.trim)
            except ValueError as err:  # names its h: an overflowing shift leaves a NaN supremum
                raise ValueError(f"shifts: {err}") from None
            for plan in plans:
                for h in cfg.shifts:
                    reject = plan.verdict(sups[plan.family, h])[1]
                    rejections[(plan.family, h)] += int(np.count_nonzero(reject))
    except MemoryError as err:  # names its row; a MemoryError of numpy has no text
        row = f"H = {hurst:g}, n = {n}" + ("" if alpha is None else f", alpha = {alpha:g}")
        raise MemoryError(f"row {row}: {str(err) or 'MemoryError'}") from None

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


def run_experiment(cfg: ExperimentConfig, tables: TableSet | None = None) -> ExperimentReport:
    """Run the full rejection-rate grid of an experiment configuration.

    The tables come from ensure_tables(cfg, existing=tables), as for
    `lmsvtest experiment --tables`: a provided table first (ValueError when
    below cfg.budget or without the level), then the package grid, then
    simulation. Every row's plans are resolved before any replication runs,
    and the wall time in the report's meta covers the tables. The rows are
    dealt to cfg.max_workers threads by the rule that deals a table's
    batches (asymp._deal), so an interrupt stops the run after the rows
    under way; the cells come back in grid order, and no count depends on
    the worker count.
    """
    start = time.monotonic()
    tables = ensure_tables(cfg, existing=tables)
    rows = [(cfg, *row, plans) for row, plans in _grid_plans(cfg, tables).items()]

    cells = [cell for row in asymp._deal(lambda g: _evaluate_row(*rows[g]), len(rows),
                                         cfg.max_workers) for cell in row]

    meta = {
        "config_sha256": cfg.sha256(),
        "versions": {"lmsvtest": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
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
_REFERENCE_HEADER = "problem,family,hurst,n,alpha,h,tau,rate,replications"

#: How _read_cells parses each numeric column; the others stay strings.
_CELL_PARSERS = {"hurst": float, "n": int, "alpha": lambda s: None if s == "" else float(s),
                 "h": float, "tau": float, "level": float, "replications": int,
                 "rejections": int}


def _exact(x: float) -> str:
    """x in the short %g form where that reads back as x, else in full."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def cells_to_csv(cells: list[CellResult], path: str | Path) -> None:
    """Tidy CSV: one row per (family, cell), with the exact rejection count.
    Every coordinate reads back as the same float."""
    lines = [_CELLS_HEADER]
    for c in cells:
        alpha = "" if c.alpha is None else _exact(c.alpha)
        lines.append(
            f"{c.problem},{c.family},{_exact(c.hurst)},{c.n},{alpha},{_exact(c.h)},"
            f"{_exact(c.tau)},{_exact(c.level)},{c.replications},{c.rejections},"
            f"{c.rate:.6f},{c.standard_error:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def cells_from_csv(path: str | Path) -> list[CellResult]:
    return _read_cells(path, _CELLS_HEADER)


def _read_cells(path, header: str) -> list[CellResult]:
    """The cells of a CSV in the cells format or in the published-table format.

    `header` names the format. A published table has no rejections column:
    its count is round(rate x replications), at level 0.05. An empty file,
    another header, a header with no rows and a row whose field count
    differs from the header's are refused with ValueError.
    """
    lines = (Path(path) if isinstance(path, str) else path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty; expected the header {header}")
    names = header.split(",")
    if lines[0].split(",") != names:
        raise ValueError(f"unexpected header {lines[0].split(',')} in {path}; expected {names}")
    if len(lines) == 1:
        raise ValueError(f"{path} has a header and no cells")
    cells = []
    for number, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(names):
            raise ValueError(f"line {number} of {path} has {len(values)} fields, the header "
                             f"{len(names)}: {line!r}")
        row = {name: _CELL_PARSERS.get(name, str)(value) for name, value in zip(names, values)}
        if "rejections" not in row:  # a published table gives the rate alone
            row.update(level=0.05, rejections=round(float(row["rate"]) * row["replications"]))
        cells.append(CellResult(**{f.name: row[f.name] for f in fields(CellResult)}))
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
    """A local cell, its reference partner and the z-score between their rates."""

    cell: CellResult
    reference: CellResult
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
    """Per-cell z-scores of local rates against the rates of a published
    table (reference_from_csv), which are given to three decimals.

    Both sides are treated as independent binomial proportions, the
    reference at the value within 0.0005 of its rate that lies nearest the
    local rate; cells with |z| > max_z are flagged. Every local cell must
    have a reference partner, otherwise the grids are considered
    mismatched. A max_z that is NaN, infinite or negative is refused: no z
    exceeds NaN, and a bound of inf passes even an infinite z.
    """
    dist.NONNEGATIVE.require("max_z", max_z)
    indexed = {
        (r.problem, r.family, r.hurst, r.n, r.alpha, r.h, r.tau): r for r in reference
    }
    rows = []
    for c in cells:
        key = (c.problem, c.family, c.hurst, c.n, c.alpha, c.h, c.tau)
        ref = indexed.get(key)
        if ref is None:
            raise ValueError(f"reference table has no cell for {key}")
        ref_rate = min(max(c.rate, ref.rate - 0.0005), ref.rate + 0.0005)
        z = _two_proportion_z(c.rate, c.replications, ref_rate, ref.replications)
        rows.append(CellComparison(c, ref, z, abs(z) > max_z))
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
        raise ValueError(f"unknown reference table {name!r}; have {sorted(_REFERENCE_FILES)}")
    path = resources.files("lmsvtest.data") / _REFERENCE_FILES[name]
    return reference_from_csv(path)


def reference_from_csv(path) -> list[CellResult]:
    return _read_cells(path, _REFERENCE_HEADER)
