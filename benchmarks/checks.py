"""Correctness checks of each round's outputs, computed apart from lmsvtest.

Rejection counts are compared with the paper's published rates by a pooled
two-proportion z that this file computes itself. Critical-value tables are
compared with the Kolmogorov law (H = 0.5 bridge) or with a reference
ensemble drawn here from exact Cholesky fGn, its functional evaluated by the
definition. Each check returns (attempted, failed, wrong, note): `failed`
counts operations that raised or failed their check, `wrong` those that
produced an output that failed its check.
"""

import csv
import json
import math
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "lmsvtest" / "data"

#: Largest |z| a cell may show against the published rate. The binomial z
#: leaves out the Monte Carlo error of the simulated critical value that all
#: replications of a cell share (2000-path tables in reps_variance_pareto),
#: so its tails are wider than normal: over more than 25 seeds each, the
#: largest |z| was 4.66 among the 96 variance cells and 3.87 among the 48
#: desk cells. A wrong normalization or critical value moves cells by tens.
Z_LIMIT = 7.0

#: Table quantiles: width, in standard errors, of the distribution-free
#: order-statistic interval (expressed on the probability scale).
TABLE_Z = 4.5
#: The reference ensemble lives on a 256-point grid, the tables on 2048
#: points; the supremum over the finer grid of a rough path is slightly
#: larger. The shift this causes in probability stays below this allowance.
GRID_ALLOWANCE = 0.01
REFERENCE_PATHS = 4000
REFERENCE_GRID = 256
TRIM = (0.15, 0.85)
LEVELS = (0.90, 0.95, 0.99)


def _key(family, hurst, n, alpha, h):
    return (family, float(hurst), int(n), None if alpha in (None, "") else float(alpha), float(h))


def published(csv_name):
    """(family, H, n, alpha, h) -> (rate, replications) of a published table."""
    with open(DATA / csv_name, newline="") as handle:
        return {
            _key(r["family"], r["hurst"], r["n"], r["alpha"], r["h"]):
                (float(r["rate"]), int(r["replications"]))
            for r in csv.DictReader(handle)
        }


def pooled_z(rejections, replications, ref_rate, ref_replications):
    """Pooled two-proportion z of a local count against a published rate.

    The published rates are rounded to three decimals, so the comparison is
    with the value within 0.0005 of the published one that lies nearest to
    the local rate; otherwise one miss in 500 against a published 1.000 alone
    gives |z| = 3.2.
    """
    rate = rejections / replications
    ref_rate = min(max(rate, ref_rate - 0.0005, 0.0), ref_rate + 0.0005, 1.0)
    pooled = (rejections + ref_rate * ref_replications) / (replications + ref_replications)
    var = pooled * (1.0 - pooled) * (1.0 / replications + 1.0 / ref_replications)
    if var == 0.0:
        return 0.0 if rate == ref_rate else math.inf
    return (rate - ref_rate) / math.sqrt(var)


def check_cells(cells, expected, reference):
    """cells: key -> (replications, rejections); expected: iterable of keys."""
    failed = wrong = 0
    worst = 0.0
    for key in expected:
        if key not in cells:
            failed += 1
            continue
        reps, rejections = cells[key]
        rate, ref_reps = reference[key]
        ok = reps > 0 and 0 <= rejections <= reps
        if ok:
            z = abs(pooled_z(rejections, reps, rate, ref_reps))
            worst = max(worst, z)
            ok = z <= Z_LIMIT
        if not ok:
            failed += 1
            wrong += 1
    return len(expected), failed, wrong, f"max |z| = {worst:.2f}"


def check_desk(work, seed):
    config = json.loads((work / "table1_desk.json").read_text())
    expected = [
        _key(f, hurst, n, None, h)
        for f in config["families"] for hurst in config["hursts"]
        for n in config["lengths"] for h in config["shifts"]
    ]
    report = work / "report"
    cells = {}
    try:
        with open(report / "cells.csv", newline="") as handle:
            for r in csv.DictReader(handle):
                reps = int(r["replications"])
                count = float(r["rate"]) * reps
                if abs(count - round(count)) > 1e-3:
                    raise ValueError(f"rate {r['rate']} is not a count out of {reps}")
                cells[_key(r["family"], r["hurst"], r["n"], r["alpha"], r["h"])] = (reps, round(count))
        with open(report / "report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != len(expected) // len(config["families"]):
            raise ValueError(f"report.csv has {len(rows)} rows")
        meta = json.loads((report / "meta.json").read_text())
        if meta["seed"] != seed or meta["replications"] != config["replications"]:
            raise ValueError("meta.json does not describe this run")
    except (OSError, ValueError, KeyError) as err:
        return len(expected), len(expected), 0, f"report unreadable: {err}"
    return check_cells(cells, expected, published("table1_mean_normal.csv"))


def check_reps(result, grid):
    expected = [
        _key(f, hurst, n, alpha, h)
        for f in grid["families"] for hurst in grid["hursts"] for n in grid["lengths"]
        for alpha in grid["alphas"] for h in grid["shifts"]
    ]
    cells = {
        _key(f, hurst, n, alpha, h): (reps, rejections)
        for f, hurst, n, alpha, h, reps, rejections in result.get("cells", [])
    }
    return check_cells(cells, expected, published("table3_variance_pareto.csv"))


# ---------------------------------------------------------------------------
# Critical-value tables


def _fbm_paths(hurst, count, grid, rng):
    """fBm on j/grid, j = 0..grid, from exact fGn by Cholesky factorization."""
    import numpy as np

    k = np.arange(grid, dtype=float)
    two_h = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    cov = gamma[np.abs(np.arange(grid)[:, None] - np.arange(grid)[None, :])]
    y = rng.standard_normal((count, grid)) @ np.linalg.cholesky(cov).T
    z = np.zeros((count, grid + 1))
    z[:, 1:] = np.cumsum(y, axis=1) / grid**hurst
    return z


def _bridge_sup(z):
    import numpy as np

    t = np.arange(z.shape[1]) / (z.shape[1] - 1)
    return np.max(np.abs(z - t * z[:, -1:]), axis=1)


def _sn_ratio_sup(z):
    """sup over t in the trimmed window of |Z(t) - t Z(1)| divided by
    sqrt(int_0^t (Z(s) - s/t Z(t))^2 ds + int_t^1 (Z(s) - Z(t) - (s-t)/(1-t)
    (Z(1) - Z(t)))^2 ds), each integral a trapezoid sum of its integrand.
    Both integrands vanish at their end points, so each trapezoid sum is the
    plain sum times the grid step."""
    import numpy as np

    n = z.shape[1] - 1
    s = np.arange(n + 1) / n
    best = np.full(z.shape[0], -np.inf)
    for k in range(max(int(TRIM[0] * n), 1), min(int(TRIM[1] * n), n - 1) + 1):
        t, zt, z1 = s[k], z[:, k:k + 1], z[:, -1:]
        left = z[:, :k + 1] - (s[:k + 1] / t) * zt
        right = z[:, k:] - zt - ((s[k:] - t) / (1.0 - t)) * (z1 - zt)
        denom = (np.einsum("ij,ij->i", left, left) + np.einsum("ij,ij->i", right, right)) / n
        best = np.maximum(best, np.abs(zt - t * z1)[:, 0] / np.sqrt(denom))
    return best


def reference_ensembles(seed):
    """Sorted reference values per (family, H) of the tables checked against them."""
    import numpy as np

    rng = np.random.default_rng([seed % 2**64, 0x7AB1E])
    fbm08 = _fbm_paths(0.8, REFERENCE_PATHS, REFERENCE_GRID, rng)
    brownian = _fbm_paths(0.5, REFERENCE_PATHS, REFERENCE_GRID, rng)
    return {
        ("bridge", 0.8): np.sort(_bridge_sup(fbm08)),
        ("sn", 0.8): np.sort(_sn_ratio_sup(fbm08)),
        ("sn", 0.5): np.sort(_sn_ratio_sup(brownian)),
    }


def check_table(path, family, hurst, count, reference):
    """Return (ok, note) for one critvals output file of `count` paths."""
    import numpy as np
    from scipy import stats

    try:
        table = json.loads(Path(path).read_text())
        quantiles = {float(k): float(v) for k, v in table["quantiles"].items()}
        if int(table["meta"]["path_count"]) != count:
            raise ValueError(f"path_count {table['meta']['path_count']} instead of {count}")
    except (OSError, ValueError, KeyError) as err:
        return False, f"unreadable: {err}"
    values = [quantiles.get(level, math.nan) for level in LEVELS]
    if not all(math.isfinite(v) and v > 0 for v in values) or values != sorted(values) \
            or len(set(values)) != len(values):
        return False, f"quantiles {values} not finite, positive and increasing"
    notes = []
    for level, q in zip(LEVELS, values):
        if (family, hurst) == ("bridge", 0.5):
            prob, ref_count, allowance = float(stats.kstwobign.cdf(q)), math.inf, 0.0
        else:
            ref = reference[(family, hurst)]
            prob = np.searchsorted(ref, q, side="right") / ref.size
            ref_count, allowance = ref.size, GRID_ALLOWANCE
        tol = TABLE_Z * math.sqrt(level * (1 - level) * (1 / count + 1 / ref_count)) + allowance
        notes.append(f"F({q:.4f})={prob:.4f}")
        if abs(prob - level) > tol:
            return False, f"level {level}: reference probability {prob:.4f} beyond +-{tol:.4f}"
    return True, " ".join(notes)
