"""Exact rejection counts for every valid (problem, noise, family) combination.

The counts were produced by the one-replication-at-a-time engine that
preceded the chunked one. Any change to the replication engine, the path
synthesis or the statistic kernels must leave every one of them unchanged:
the stream layout and the arithmetic are part of the contract, so a changed
count means a changed experiment, not noise. 150 replications leave a
partial last chunk.
"""

import pytest

from lmsvtest import mc
from lmsvtest.asymp import TableBudget

COMMON = dict(
    hursts=(0.6, 0.85),
    lengths=(300,),
    replications=150,
    seed=11,
    budget=TableBudget(500, 256),
)

CASES = {
    "mean_normal": dict(
        problem="mean", noise_kind="normal", shifts=(0.0, 0.5),
        families=("cusum", "sn_cusum"),
    ),
    "mean_centered_pareto": dict(
        problem="mean", noise_kind="centered_pareto", alphas=(2.5,), shifts=(0.0, 0.5),
        families=mc.FAMILIES,
    ),
    "variance_centered_pareto": dict(
        problem="variance", noise_kind="centered_pareto", alphas=(4.5,), shifts=(1.0, 1.5),
        families=mc.FAMILIES,
    ),
    "tail_pareto": dict(
        problem="tail", noise_kind="pareto", alphas=(1.0,), shifts=(0.0, 0.5),
        families=("cusum", "sn_cusum"),
    ),
}

#: (family, H, h) -> rejections out of 150.
GOLDEN = {
    "mean_normal": {
        ("cusum", 0.6, 0.0): 6, ("cusum", 0.6, 0.5): 38,
        ("sn_cusum", 0.6, 0.0): 6, ("sn_cusum", 0.6, 0.5): 40,
        ("cusum", 0.85, 0.0): 9, ("cusum", 0.85, 0.5): 25,
        ("sn_cusum", 0.85, 0.0): 5, ("sn_cusum", 0.85, 0.5): 66,
    },
    "mean_centered_pareto": {
        ("cusum", 0.6, 0.0): 6, ("cusum", 0.6, 0.5): 10,
        ("wilcoxon", 0.6, 0.0): 104, ("wilcoxon", 0.6, 0.5): 150,
        ("sn_cusum", 0.6, 0.0): 1, ("sn_cusum", 0.6, 0.5): 37,
        ("sn_wilcoxon", 0.6, 0.0): 6, ("sn_wilcoxon", 0.6, 0.5): 141,
        ("cusum", 0.85, 0.0): 2, ("cusum", 0.85, 0.5): 6,
        ("wilcoxon", 0.85, 0.0): 40, ("wilcoxon", 0.85, 0.5): 142,
        ("sn_cusum", 0.85, 0.0): 9, ("sn_cusum", 0.85, 0.5): 62,
        ("sn_wilcoxon", 0.85, 0.0): 7, ("sn_wilcoxon", 0.85, 0.5): 99,
    },
    "variance_centered_pareto": {
        ("cusum", 0.6, 1.0): 61, ("cusum", 0.6, 1.5): 99,
        ("wilcoxon", 0.6, 1.0): 21, ("wilcoxon", 0.6, 1.5): 108,
        ("sn_cusum", 0.6, 1.0): 8, ("sn_cusum", 0.6, 1.5): 12,
        ("sn_wilcoxon", 0.6, 1.0): 6, ("sn_wilcoxon", 0.6, 1.5): 52,
        ("cusum", 0.85, 1.0): 30, ("cusum", 0.85, 1.5): 46,
        ("wilcoxon", 0.85, 1.0): 12, ("wilcoxon", 0.85, 1.5): 25,
        ("sn_cusum", 0.85, 1.0): 1, ("sn_cusum", 0.85, 1.5): 5,
        ("sn_wilcoxon", 0.85, 1.0): 7, ("sn_wilcoxon", 0.85, 1.5): 23,
    },
    "tail_pareto": {
        ("cusum", 0.6, 0.0): 21, ("cusum", 0.6, 0.5): 89,
        ("sn_cusum", 0.6, 0.0): 5, ("sn_cusum", 0.6, 0.5): 35,
        ("cusum", 0.85, 0.0): 14, ("cusum", 0.85, 0.5): 28,
        ("sn_cusum", 0.85, 0.0): 8, ("sn_cusum", 0.85, 0.5): 13,
    },
}


def _counts(name):
    report = mc.run_experiment(mc.ExperimentConfig(**CASES[name], **COMMON))
    return {(c.family, c.hurst, c.h): c.rejections for c in report.cells}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_counts(name):
    assert _counts(name) == GOLDEN[name]
