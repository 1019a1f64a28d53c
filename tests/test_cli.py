"""End-to-end tests of the command-line interface."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lmsvtest import asymp, cli, mc, stats
from lmsvtest.cli import (EXIT_COMPUTATION, EXIT_FLAGGED, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE,
                          _build_parser, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: simulate's numeric flags, each with the flags under which it is read, and
#: the values of _BAD_VALUES with which it runs; it is refused at the others.
_SIMULATE_FLAGS = [
    ("--n", (), ()),
    ("--hurst", (), ()),
    ("--alpha", ("--noise", "pareto"), ("1e308",)),
    ("--alpha", ("--noise", "centered-pareto"), ("1e308",)),
    ("--scale", ("--noise", "pareto", "--alpha", "2"), ()),
    ("--h", ("--change", "mean"), ("-1", "0", "1e308")),
    ("--h", ("--change", "variance"), ()),
    ("--h", ("--change", "tail", "--noise", "pareto", "--alpha", "2"), ("-1", "0", "1e308")),
    ("--tau", ("--change", "mean", "--h", "1"), ()),
    ("--seed", (), ("0",)),
    ("--stream-id", (), ("0",)),
]
_BAD_VALUES = ("nan", "inf", "-1", "0", "1e308")
_SIMULATE_CASES = [
    (flag, value, context, value in runs)
    for flag, context, runs in _SIMULATE_FLAGS for value in _BAD_VALUES
] + [
    # A tail shift to a tail index of -1 or 0, a tail index whose reciprocal
    # overflows, and the flags normal noise has no use for.
    ("--h", "-3", ("--change", "tail", "--noise", "pareto", "--alpha", "2"), False),
    ("--h", "-2", ("--change", "tail", "--noise", "pareto", "--alpha", "2"), False),
    ("--alpha", "1e-320", ("--noise", "pareto"), False),
    ("--alpha", "3", ("--noise", "normal"), False),
    ("--alpha", "3", ("--noise", "normal", "--scale", "-2"), False),
    ("--scale", "2", ("--noise", "normal"), False),
]


class TestSimulate:
    @pytest.mark.parametrize("flag, value, context, runs", _SIMULATE_CASES, ids=[
        " ".join((flag, value) + context) for flag, value, context, _ in _SIMULATE_CASES])
    def test_numeric_flag_runs_finite_or_is_refused_by_name(self, capsys, flag, value,
                                                            context, runs):
        # Exit 0 with every value finite, or exit 1 with one error line that
        # names the flag; pytest turns any warning into a failure.
        argv = {"--n": "64", "--hurst": "0.7", flag: value}
        code, out, err = run(capsys, "simulate", *[a for item in argv.items() for a in item],
                             *context)
        if runs:
            assert (code, err) == (EXIT_OK, "")
            assert np.all(np.isfinite(np.array(out.split(), dtype=float)))
        else:
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert re.search(re.escape(flag) + r"\b", err), err

    def test_writes_requested_rows(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "simulate", "--n", "500", "--hurst", "0.7", "--noise", "normal",
            "--seed", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 500

    def test_idempotent_given_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--n", "100", "--hurst", "0.8",
                "--noise", "centered-pareto", "--alpha", "4", "--change", "mean",
                "--h", "1", "--tau", "0.5", "--seed", "11", "--out", str(path),
            )
            assert code == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_latent_columns(self, capsys, tmp_path):
        out = tmp_path / "latent.csv"
        code, _, _ = run(
            capsys, "simulate", "--n", "50", "--hurst", "0.6", "--latent",
            "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert all(len(r) == 3 for r in rows)
        y, eps, x = np.array(rows, dtype=float).T
        assert np.allclose(np.exp(y) * eps, x)

    def test_invalid_alpha_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--n", "10", "--hurst", "0.7",
            "--noise", "centered-pareto", "--alpha", "0.9", "--change", "mean",
        )
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--n", "10", "--hurst", "0.7", "--bogus")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags,digest", [
        ("--noise normal --change none",
         "1ae582eb76a57d900457b2cbe40af80ad28a3dace8c11283468a2c6e9fd9adfb"),
        ("--noise normal --change mean --h 0.5",
         "db75c262faa76b5e8c8d523274a0f462d5aa72b321f63d4478de6acd4803d0ed"),
        ("--noise centered-pareto --alpha 2.5 --change variance --h 0.5",
         "bcb7953aabc0349b8c728f17fd8d4518cb4e6468a027925b0fdfa0cf30424d97"),
        ("--noise pareto --alpha 2.5 --change tail --h 0.5",
         "a1c898a9a04f57e369e1c1354294ce33ffdc5d590e0e6063fb3eb703518fb543"),
        ("--noise pareto --alpha 2.5 --scale 2 --change tail --h 0.5",
         "960e5b641113084b6b2ff179d2e69346ccfefdb3f4465a0d30776fdd7308cb0f"),
    ])
    def test_latent_output_is_pinned(self, capsys, flags, digest):
        # Digests of the path synthesis as first recorded; a refactor of the
        # synthesis must reproduce every bit of y, eps and x.
        code, out, _ = run(capsys, "simulate", "--n", "300", "--hurst", "0.7", *flags.split(),
                           "--seed", "20261018", "--stream-id", "3", "--latent")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture()
def shifted_series(capsys, tmp_path):
    path = tmp_path / "shifted.csv"
    code, _, _ = run(
        capsys, "simulate", "--n", "500", "--hurst", "0.6", "--noise", "normal",
        "--change", "mean", "--h", "2", "--tau", "0.5", "--seed", "5",
        "--out", str(path),
    )
    assert code == EXIT_OK
    return path


@pytest.fixture()
def null_series(capsys, tmp_path):
    path = tmp_path / "null.csv"
    code, _, _ = run(
        capsys, "simulate", "--n", "1000", "--hurst", "0.8", "--noise", "centered-pareto",
        "--alpha", "4.5", "--seed", "6", "--out", str(path),
    )
    assert code == EXIT_OK
    return path


@pytest.fixture()
def pareto_series(capsys, tmp_path):
    path = tmp_path / "pareto.csv"
    code, _, _ = run(
        capsys, "simulate", "--n", "300", "--hurst", "0.7", "--noise", "centered-pareto",
        "--alpha", "4.5", "--seed", "3", "--out", str(path),
    )
    assert code == EXIT_OK
    return path


#: test's numeric flags, each with a problem and family whose plan reads it,
#: and the values of _BAD_VALUES with which it runs; it is refused at the others.
_TEST_FLAGS = [
    ("--hurst", ("--problem", "variance", "--family", "cusum", "--alpha", "4.5"), ()),
    ("--alpha", ("--problem", "variance", "--family", "cusum", "--hurst", "0.7"), ()),
    ("--sigma", ("--problem", "mean", "--family", "cusum"), ()),
    ("--tau1", ("--problem", "mean", "--family", "sn_cusum"), ()),
    ("--tau2", ("--problem", "mean", "--family", "sn_cusum"), ()),
    ("--critical-value", ("--problem", "mean", "--family", "cusum"), ("-1", "0", "1e308")),
    ("--level", ("--problem", "mean", "--family", "sn_cusum"), ()),
    ("--table-seed", ("--problem", "mean", "--family", "sn_cusum"), ("0",)),
]
_TEST_CASES = [
    (flag, value, context, value in runs)
    for flag, context, runs in _TEST_FLAGS for value in _BAD_VALUES
] + [
    # --sigma where no plan reads it: another family, another problem, no problem.
    ("--sigma", "1", ("--problem", "mean", "--family", "sn_cusum"), False),
    ("--sigma", "1", ("--problem", "variance", "--family", "cusum", "--alpha", "4.5",
                      "--hurst", "0.7"), False),
    ("--sigma", "1", ("--family", "cusum"), False),
    # H at or below 1/2 where the plan needs long memory.
    ("--hurst", "0.3", ("--problem", "variance", "--family", "sn_cusum", "--alpha", "4.5"),
     False),
    # Levels in (0, 1) that are 0 or 1 at six decimals, the precision of a table.
    ("--level", "1e-7", ("--problem", "mean", "--family", "sn_cusum"), False),
    ("--level", "0.9999999", ("--problem", "mean", "--family", "sn_cusum"), False),
]


class TestTest:
    @pytest.mark.parametrize("flag, value, context, runs", _TEST_CASES, ids=[
        " ".join((flag, value) + context) for flag, value, context, _ in _TEST_CASES])
    def test_numeric_flag_runs_finite_or_is_refused_by_name(self, capsys, pareto_series, flag,
                                                            value, context, runs):
        # Exit 0 with every number of the outcome finite, or exit 1 with one
        # error line that names the flag.
        code, out, err = run(capsys, "test", "--input", str(pareto_series), flag, value,
                             *context)
        if runs:
            assert (code, err) == (EXIT_OK, "")
            numbers = [v for v in json.loads(out).values() if isinstance(v, float)]
            assert numbers and all(math.isfinite(v) for v in numbers)
        else:
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert re.search(re.escape(flag) + r"\b", err), err

    def test_cusum_rejects_large_shift(self, capsys, shifted_series):
        code, out, _ = run(
            capsys, "test", "--input", str(shifted_series), "--family", "cusum",
            "--psi", "identity", "--problem", "mean", "--sigma", str(math.exp(1.0)),
        )
        assert code == EXIT_OK
        outcome = json.loads(out)
        assert outcome["reject"] is True
        assert abs(outcome["argmax_k"] - 250) < 50

    def test_constant_series_is_degenerate(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("\n".join(["5.0"] * 200) + "\n")
        code, out, _ = run(
            capsys, "test", "--input", str(path), "--family", "sn_cusum",
        )
        assert code == EXIT_OK

        def refuse(token):  # Infinity, -Infinity and NaN are not JSON (RFC 8259)
            raise AssertionError(f"non-standard JSON token {token}")

        outcome = json.loads(out, parse_constant=refuse)
        assert outcome["degenerate"] is True
        assert outcome["statistic"] is None

    @pytest.mark.parametrize("flags, line", [
        (("--family", "cusum", "--problem", "mean", "--sigma", "2"),
         '{"family": "cusum", "statistic": 5.451619969975616, "normalization": '
         '44.721359549995796, "argmax_k": 259, "critical_value": 1.358098639322801, '
         '"reject": true, "degenerate": false}'),
        (("--family", "sn_cusum", "--psi", "identity", "--critical-value", "1"),
         '{"family": "sn_cusum", "statistic": 15.415822459699976, "normalization": 1.0, '
         '"argmax_k": 256, "critical_value": 1.0, "reject": true, "degenerate": false}'),
    ], ids=["problem-mean-sigma", "psi-critical-value"])
    def test_stdout_is_pinned(self, capsys, shifted_series, flags, line):
        # The keys in their order, and every number in full precision.
        code, out, err = run(capsys, "test", "--input", str(shifted_series), *flags)
        assert (code, out, err) == (EXIT_OK, line + "\n", "")

    @pytest.mark.parametrize("values, flags", [
        (5, ("--problem", "variance", "--hurst", "0.65", "--alpha", "4.5")),
        (2, ()),
    ], ids=["5-variance", "2-no-problem"])
    def test_a_series_too_short_for_the_sn_window_is_refused_first(
        self, capsys, tmp_path, monkeypatch, values, flags
    ):
        # floor(0.15 n) = 0: the variance run simulated a 10 000 x 2048 SN
        # table first (2.1 s), and both ended in exit 2 naming no flag.
        path = tmp_path / "short.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, values + 1)))
        monkeypatch.setattr(asymp, "critical_values", _never_called)
        monkeypatch.setattr(stats, "evaluate", _never_called)
        code, out, err = run(capsys, "test", "--input", str(path), "--family", "sn_cusum",
                             *flags)
        _refused_by_name(code, out, err, EXIT_USAGE, "--input")
        assert "--tau1 and --tau2" in err

    @pytest.mark.parametrize("flags", [
        ("--problem", "tail", "--hurst", "0.65", "--family", "cusum"),
        ("--psi", "log-abs", "--family", "sn_cusum", "--tau1", "0.25", "--tau2", "0.75"),
    ], ids=["problem-tail", "psi-log-abs"])
    def test_a_zero_under_the_log_transform_is_refused_first(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        # The tail run simulated a 10 000 x 2048 bridge table first (1.5 s),
        # and both ended in exit 2 naming neither the input nor the line.
        path = tmp_path / "zero.csv"
        path.write_text("x\n1.5\n0.0\n-2.0\n3.1\n0.7\n-1.2\n2.2\n0.9\n")
        monkeypatch.setattr(asymp, "critical_values", _never_called)
        monkeypatch.setattr(stats, "evaluate", _never_called)
        code, out, err = run(capsys, "test", "--input", str(path), *flags)
        _refused_by_name(code, out, err, EXIT_USAGE, "--input")
        assert "line 3" in err and " ".join(flags[:2]) in err

    @pytest.mark.parametrize("text, message", [
        ("0.5\n1.5\nabc\n2.0\n", "non-numeric value 'abc' on line 4"),
        ("0.5\n", "fewer than 2 observations"),
    ], ids=["non-numeric", "one-value"])
    def test_an_unreadable_series_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "series.csv"
        path.write_text("x\n" + text)  # the header line is tolerated, and counted
        code, out, err = run(capsys, "test", "--input", str(path), "--family", "cusum")
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_a_header_line_is_tolerated(self, capsys, tmp_path, shifted_series):
        headed = tmp_path / "headed.csv"
        headed.write_text("x\n" + shifted_series.read_text())
        outs = [run(capsys, "test", "--input", str(path), "--family", "cusum")
                for path in (shifted_series, headed)]
        assert outs[0][0] == EXIT_OK and outs[1] == outs[0]

    def test_rank_families_invariant_under_exp(self, capsys, tmp_path, shifted_series):
        transformed = tmp_path / "exp.csv"
        values = [float(v) for v in shifted_series.read_text().strip().splitlines()]
        transformed.write_text("\n".join(f"{math.exp(v):.17g}" for v in values) + "\n")
        outs = []
        for path in (shifted_series, transformed):
            for family in ("wilcoxon", "sn_wilcoxon"):
                code, out, _ = run(
                    capsys, "test", "--input", str(path), "--family", family,
                )
                assert code == EXIT_OK
                outs.append(json.loads(out)["statistic"])
        assert outs[0] == pytest.approx(outs[2], rel=1e-12)
        assert outs[1] == pytest.approx(outs[3], rel=1e-12)

    def test_profile_export(self, capsys, tmp_path, shifted_series):
        profile = tmp_path / "profile.csv"
        code, _, _ = run(
            capsys, "test", "--input", str(shifted_series), "--family", "cusum",
            "--profile-out", str(profile),
        )
        assert code == EXIT_OK
        lines = profile.read_text().strip().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 1 + 500

    def test_an_overflowing_series_is_computation_error(self, capsys, tmp_path):
        # The partial sums of values near 1e307 overflow to a NaN statistic,
        # which was printed as NaN with exit 0.
        x = np.random.default_rng(1).standard_normal(200)
        x[100:] += 1e307
        path = tmp_path / "overflow.csv"
        path.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
        code, out, err = run(capsys, "test", "--input", str(path), "--family", "sn_cusum")
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err == "error: the sn_cusum supremum is NaN: " \
                      "the statistic overflows double precision\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("family", ["cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"])
    def test_non_finite_input_is_usage_error(self, capsys, tmp_path, family, bad):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["0.5", "1.5", bad, "-0.25", "2.0"]) + "\n")
        code, out, err = run(capsys, "test", "--input", str(path), "--family", family)
        assert code == EXIT_USAGE
        assert out == ""
        assert "line 3" in err

    @pytest.mark.parametrize("family,problem,psi", [
        ("sn_cusum", "variance", "square"), ("sn_wilcoxon", "variance", "square"),
        ("sn_cusum", "tail", "log-abs"),
    ])
    def test_problem_sets_its_transform(self, capsys, null_series, family, problem, psi):
        code, out, _ = run(capsys, "test", "--input", str(null_series), "--family", family,
                           "--problem", problem, "--hurst", "0.8")
        assert code == EXIT_OK
        code, free, _ = run(capsys, "test", "--input", str(null_series), "--family", family,
                            "--psi", psi)
        assert code == EXIT_OK
        assert json.loads(out)["statistic"] == json.loads(free)["statistic"]

    def test_psi_contradicting_problem_is_usage_error(self, capsys, null_series):
        code, out, err = run(capsys, "test", "--input", str(null_series), "--family", "sn_cusum",
                             "--problem", "variance", "--hurst", "0.8", "--psi", "identity")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--psi identity" in err

    @pytest.mark.parametrize("family", ["wilcoxon", "sn_wilcoxon"])
    def test_mean_wilcoxon_needs_alpha(self, capsys, shifted_series, family):
        # Without --alpha the noise law is unknown, and under normal noise the
        # mean Wilcoxon limit degenerates; experiments refuse that plan too.
        argv = ("test", "--input", str(shifted_series), "--family", family,
                "--problem", "mean", "--hurst", "0.7")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--alpha" in err
        code, out, _ = run(capsys, *argv, "--alpha", "2.5")
        assert code == EXIT_OK
        assert json.loads(out)["family"] == family

    @pytest.mark.parametrize("hurst", ["0.5", "0.3"])
    @pytest.mark.parametrize("family", ["cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"])
    def test_short_memory_hurst_is_usage_error(self, capsys, null_series, family, hurst):
        code, out, err = run(capsys, "test", "--input", str(null_series), "--family", family,
                             "--problem", "variance", "--hurst", hurst, "--alpha", "4.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "H > 1/2" in err

    @pytest.mark.parametrize("problem, hurst", [("variance", "1.0"), ("variance", "1.5"),
                                                ("mean", "1.2"), ("mean", "0")])
    def test_hurst_outside_the_unit_interval_is_usage_error(self, capsys, null_series,
                                                            problem, hurst):
        # A bad flag value: refused before any table is looked up or simulated.
        code, out, err = run(capsys, "test", "--input", str(null_series), "--family", "cusum",
                             "--problem", problem, "--hurst", hurst, "--alpha", "4.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "(0, 1)" in err

    @pytest.mark.parametrize("family", ["cusum", "wilcoxon", "sn_cusum"])
    def test_infinite_variance_is_usage_error(self, capsys, null_series, family):
        # E X^2 is infinite at alpha <= 2: the variance problem has no limit theory.
        code, out, err = run(capsys, "test", "--input", str(null_series), "--family", family,
                             "--problem", "variance", "--hurst", "0.8", "--alpha", "2.0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite innovation variance" in err

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_sigma_not_finite_and_positive_is_usage_error(self, capsys, shifted_series, sigma):
        # sigma = 0 divided by zero; -1 and nan never rejected.
        code, out, err = run(capsys, "test", "--input", str(shifted_series), "--family", "cusum",
                             "--problem", "mean", "--sigma", sigma)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite sigma > 0" in err

    @pytest.mark.parametrize("problem", [None, "mean"])
    @pytest.mark.parametrize("cv", ["nan", "inf"])
    def test_non_finite_critical_value_is_usage_error(self, capsys, shifted_series, cv, problem):
        argv = ["test", "--input", str(shifted_series), "--family", "cusum",
                "--critical-value", cv]
        if problem is not None:
            argv += ["--problem", problem, "--sigma", "1"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "argument --critical-value: must be finite" in err

    @pytest.mark.parametrize("level", ["1.5", "nan", "0", "-0.5"])
    def test_level_outside_the_unit_interval_is_usage_error(self, capsys, shifted_series,
                                                            level):
        # It was a computation error naming the table levels 1 - level, 0.9, 0.95, 0.99.
        code, out, err = run(capsys, "test", "--input", str(shifted_series), "--family",
                             "sn_cusum", "--problem", "mean", "--level", level)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--level" in err and "0.95" not in err

    def test_reversed_trim_is_usage_error(self, capsys, shifted_series):
        code, out, err = run(capsys, "test", "--input", str(shifted_series), "--family",
                             "sn_cusum", "--problem", "mean", "--tau1", "0.9", "--tau2", "0.1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--tau1 and --tau2" in err

    def test_infinite_alpha_is_usage_error(self, capsys, shifted_series):
        code, out, err = run(capsys, "test", "--input", str(shifted_series), "--family", "cusum",
                             "--problem", "mean", "--alpha", "inf")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--alpha" in err and "finite alpha > 1" in err

    def test_huge_alpha_is_refused_by_name(self, capsys, shifted_series):
        # (alpha - 1)^2 raised OverflowError in dist.noise_moments, a traceback.
        code, out, err = run(capsys, "test", "--input", str(shifted_series), "--family",
                             "wilcoxon", "--problem", "mean", "--hurst", "0.7", "--alpha", "1e308")
        assert code == EXIT_COMPUTATION
        assert out == ""
        assert "Wilcoxon factor needs 1 < alpha <= 4.5e+06, got 1e+308" in err

    def test_missing_input_is_computation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "test", "--input", str(tmp_path / "nope.csv"), "--family", "cusum",
        )
        assert code == EXIT_COMPUTATION


class TestCritvals:
    def test_writes_table(self, capsys, tmp_path):
        out = tmp_path / "bridge.json"
        code, _, _ = run(
            capsys, "critvals", "--family", "bridge", "--hurst", "0.5",
            "--paths", "2000", "--grid", "512", "--seed", "9", "--out", str(out),
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["family"] == "cusum_bridge_sup"
        assert 1.2 < payload["quantiles"]["0.950000"] < 1.5

    @pytest.mark.parametrize("family, hurst", [("bridge", "0.8"), ("sn", "0.5")],
                             ids=["bridge_h0.8", "sn_h0.5"])
    def test_regenerates_shipped_table(self, capsys, tmp_path, family, hurst):
        # The cheapest bridge table of the package grid, and the SN table of
        # the mean problem, from the documented command.
        from importlib import resources

        name = f"{family}_h{hurst}.json"
        out = tmp_path / name
        code, _, _ = run(
            capsys, "critvals", "--family", family, "--hurst", hurst, "--paths", "10000",
            "--grid", "2048", "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        shipped = json.loads((resources.files("lmsvtest.data") / "tables" / name).read_text())
        fresh = json.loads(out.read_text())
        assert fresh["quantiles"].keys() == shipped["quantiles"].keys()
        for level, value in shipped["quantiles"].items():
            assert fresh["quantiles"][level] == pytest.approx(value, rel=1e-12)
        assert fresh["meta"]["stream_id"] == shipped["meta"]["stream_id"]

    def test_empty_trimmed_window_is_refused(self, capsys, tmp_path):
        # floor(0.15 * 6) = 0: the SN window is empty, as ExperimentConfig refuses it.
        out = tmp_path / "sn.json"
        code, _, err = run(capsys, "critvals", "--family", "sn", "--hurst", "0.5",
                           "--paths", "20", "--grid", "6", "--out", str(out))
        assert code == EXIT_USAGE
        assert "--grid with --tau1 and --tau2: trimmed window" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--family", "bridge", "--hurst", "0.7", "--paths", "0"), "--paths"),
        (("--family", "bridge", "--hurst", "0.7", "--grid", "1"), "--grid"),
        (("--family", "bridge", "--hurst", "1.5"), "--hurst"),
        (("--family", "sn", "--hurst", "0.5", "--grid", "4"), "--grid with --tau1 and --tau2"),
    ], ids=["paths-0", "grid-1", "hurst-1.5", "sn-grid-4"])
    def test_bad_flag_value_is_usage_error(self, capsys, tmp_path, flags, named):
        out = tmp_path / "table.json"
        code, _, err = run(capsys, "critvals", *flags, "--out", str(out))
        assert code == EXIT_USAGE
        assert named in err
        assert not out.exists()

    def test_unallocatable_budget_is_computation_error(self, capsys, tmp_path):
        # The values of 1e14 paths, 800 TB, fail to allocate at once; numpy's
        # MemoryError was a traceback.
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "critvals", "--family", "bridge", "--hurst", "0.7",
                                "--paths", "100000000000000", "--grid", "64", "--out", str(out))
        assert (code, stdout) == (EXIT_COMPUTATION, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("family", ["sn", "bridge"])
    def test_reversed_trim_is_usage_error(self, capsys, tmp_path, family):
        out = tmp_path / "table.json"
        code, _, err = run(capsys, "critvals", "--family", family, "--hurst", "0.7",
                           "--tau1", "0.9", "--tau2", "0.1", "--out", str(out))
        assert code == EXIT_USAGE
        assert "--tau1 and --tau2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, out", [
        pytest.param("critvals", "missing/sn.json", id="missing/sn.json"),
        pytest.param("critvals", "directory", id="directory"),
        *(pytest.param(command, out, id=f"{command} {out}")
          for command in ("simulate", "test", "compare") for out in ("missing/x.csv", "directory")),
    ])
    def test_an_out_that_cannot_be_written_is_refused_before_simulating(
        self, capsys, tmp_path, tmp_path_factory, monkeypatch, command, out
    ):
        # critvals simulated the table (2.6 s at 20 000 paths), then failed to
        # write it with exit 2. simulate, test and compare computed too, then
        # exited 2 with an OSError that named no flag.
        argv, flag, computation = _writing_commands(tmp_path_factory.mktemp("inputs"))[command]
        monkeypatch.setattr(*computation, _never_called)
        (tmp_path / "directory").mkdir()
        code, stdout, err = run(capsys, *argv, flag, str(tmp_path / out))
        _refused_by_name(code, stdout, err, EXIT_USAGE, flag)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]
        assert not any((tmp_path / "directory").iterdir())

    def test_an_interrupt_ends_in_one_error_line(self, tmp_path):
        # SIGINT 1.5 s into a table of about 8 s on 2 CPUs: the batches under
        # way finish, and the command ends in one line and the shell's 130.
        # A shell that runs the suite as a background job hands its children
        # SIGINT ignored, and Python then installs no KeyboardInterrupt
        # handler, so the child takes the default disposition back first.
        out = tmp_path / "sn.json"
        src = str(Path(mc.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "lmsvtest.cli", "critvals", "--family", "sn", "--hurst",
             "0.7", "--paths", "60000", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        time.sleep(1.5)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stdout, stderr) == (EXIT_INTERRUPTED, "", "error: interrupted\n")
        assert not out.exists()

    def test_never_reads_package_grid(self, capsys, tmp_path, monkeypatch):
        from lmsvtest import mc

        def refuse():
            raise AssertionError("critvals read the package grid")

        monkeypatch.setattr(mc, "_package_tables", refuse)
        code, _, _ = run(
            capsys, "critvals", "--family", "sn", "--hurst", "0.5", "--paths", "200",
            "--grid", "64", "--seed", "0", "--out", str(tmp_path / "sn.json"),
        )
        assert code == EXIT_OK


class TestSeedFlags:
    @pytest.mark.parametrize("flag", ["--seed", "--stream-id"])
    @pytest.mark.parametrize("value", ["-1", str(2**64), "1.5"])
    def test_simulate_refuses_a_seed_outside_64_bits(self, capsys, flag, value):
        # RngStream reads seeds modulo 2^64: --seed -1 gave the draws of 2^64 - 1.
        code, out, err = run(capsys, "simulate", "--n", "20", "--hurst", "0.7", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument {flag}: must be an integer in [0, 2^64)" in err

    def test_critvals_refuses_a_seed_outside_64_bits(self, capsys, tmp_path):
        out = tmp_path / "sn.json"
        code, _, err = run(capsys, "critvals", "--family", "sn", "--hurst", "0.5",
                           "--paths", "200", "--grid", "64", "--seed", "-1", "--out", str(out))
        assert code == EXIT_USAGE
        assert "argument --seed" in err
        assert not out.exists()

    def test_test_refuses_a_table_seed_outside_64_bits(self, capsys, shifted_series):
        code, out, err = run(capsys, "test", "--input", str(shifted_series), "--family",
                             "sn_cusum", "--problem", "mean", "--table-seed", str(2**64))
        assert code == EXIT_USAGE
        assert out == ""
        assert "argument --table-seed" in err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "20", "--hurst", "0.7",
                           "--seed", str(2**64 - 1), "--stream-id", str(2**64 - 1))
        assert code == EXIT_OK
        assert len(out.splitlines()) == 20


#: sha256 of cells.csv of `lmsvtest experiment` on the bundled table1_desk.json.
DESK_CELLS_SHA256 = "441760d266df1c5722736944bf13f8a387b7a2779012dd952166c54469dd7bd4"


def _never_called(*args, **kwargs):
    raise AssertionError("computed before the inputs and outputs were checked")


def _writing_commands(inputs):
    """Each command with an output file: its arguments but the output, the
    output's flag, and the (module, name) of the computation that a refused
    location must come before. Its input files are written to `inputs`."""
    series, report = inputs / "series.csv", inputs / "cells.csv"
    np.savetxt(series, np.random.default_rng(0).standard_normal(100))
    mc.cells_to_csv(mc.load_reference("mean_normal"), report)
    return {
        "critvals": (("critvals", "--family", "sn", "--hurst", "0.7", "--paths", "20000"),
                     "--out", (asymp, "critical_values")),
        "simulate": (("simulate", "--n", "100", "--hurst", "0.7"),
                     "--out", (cli, "simulate_components")),
        "test": (("test", "--input", str(series), "--family", "sn_cusum"),
                 "--profile-out", (stats, "evaluate")),
        "compare": (("compare", "--report", str(report), "--reference", "builtin:mean_normal"),
                    "--out", (mc, "compare_to_reference")),
    }


def _write_config(path, **overrides):
    config = {
        "problem": "variance", "noise": "centered_pareto", "alphas": [4.5],
        "hursts": [0.75], "lengths": [60], "shifts": [1.0],
        "families": ["cusum", "sn_cusum"], "replications": 100, "seed": 5,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def _shipped_table_as(tmp_path, name, **changes):
    """A --tables directory holding the shipped table `name` with `changes`."""
    from importlib import resources

    table = json.loads((resources.files("lmsvtest.data") / "tables" / name).read_text())
    tables = tmp_path / "tables"
    tables.mkdir()
    (tables / name).write_text(json.dumps({**table, **changes}))
    return tables


class TestErrorLines:
    """A computation error ends in one error line with its text: never an
    empty one, and never a quoted one."""

    def test_an_error_without_text_is_named_by_its_class(self, capsys, monkeypatch):
        # A MemoryError in numpy's FFT of the circulant row has no text.
        from lmsvtest import fgn

        def exhausted(n, hurst):
            raise MemoryError()

        monkeypatch.setattr(fgn, "_embedding_eigenvalues", exhausted)
        code, out, err = run(capsys, "simulate", "--n", "77", "--hurst", "0.6543")
        assert (code, out, err) == (EXIT_COMPUTATION, "", "error: MemoryError\n")

    def test_a_row_out_of_memory_is_named_by_its_row(self, capsys, tmp_path, monkeypatch):
        # It ended in the line "error: MemoryError", which named no row.
        from lmsvtest import lmsv

        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(lmsv, "simulate_batch", exhausted)
        config = _write_config(tmp_path / "config.json", hursts=[0.7])
        code, out, err = run(capsys, "experiment", "--config", str(config), "--out-dir",
                             str(tmp_path / "run"))
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err == "error: row H = 0.7, n = 60, alpha = 4.5: MemoryError\n"

    def test_a_key_error_reads_without_quotes(self, capsys, monkeypatch, pareto_series):
        def missing(*args, **kwargs):
            raise KeyError("level 0.95 not tabulated for sn_ratio (have [0.9, 0.99])")

        monkeypatch.setattr(stats, "evaluate", missing)
        code, out, err = run(capsys, "test", "--input", str(pareto_series), "--problem",
                             "variance", "--family", "sn_cusum", "--hurst", "0.7", "--alpha",
                             "4.5")
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err == "error: level 0.95 not tabulated for sn_ratio (have [0.9, 0.99])\n"


class TestTableResolution:
    def test_commands_resolve_one_table_per_seed_and_key(self, capsys, tmp_path, monkeypatch,
                                                         shifted_series):
        # H = 0.75 is outside the package grid, so each command simulates.
        # A stub records the stream each command asks for and simulates at
        # 200 x 64 in place of the default 10000 x 2048 (the experiment's
        # config asks for 200 x 64, so its run accepts the stub's tables).
        from lmsvtest import asymp

        real = asymp.critical_values
        streams = []

        def recording(family, m, hurst, stream, **kwargs):
            streams.append((family.value, hurst, stream))
            kwargs["budget"] = asymp.TableBudget(200, 64)
            return real(family, m, hurst, stream, **kwargs)

        monkeypatch.setattr(asymp, "critical_values", recording)
        quantiles = {}
        for family in ("bridge", "sn"):
            out = tmp_path / f"{family}.json"
            code, _, _ = run(capsys, "critvals", "--family", family, "--hurst", "0.75",
                             "--seed", "5", "--out", str(out))
            assert code == EXIT_OK
            quantiles[family] = json.loads(out.read_text())["quantiles"]["0.950000"]
        for family, table in (("cusum", "bridge"), ("sn_cusum", "sn")):
            code, out, _ = run(capsys, "test", "--input", str(shifted_series), "--family", family,
                               "--problem", "variance", "--hurst", "0.75", "--alpha", "4.5",
                               "--table-seed", "5")
            assert code == EXIT_OK
            assert json.loads(out)["critical_value"] == quantiles[table]
        config = _write_config(tmp_path / "config.json", table_budget=[200, 64])
        code, _, _ = run(capsys, "experiment", "--config", str(config),
                         "--out-dir", str(tmp_path / "run"))
        assert code == EXIT_OK

        assert len(streams) == 6
        for family in ("cusum_bridge_sup", "sn_ratio"):
            assert len({s for f, _, s in streams if f == family}) == 1
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert {t["source"] for t in meta["tables"]} == {"simulated"}

    def test_test_command_uses_the_package_table(self, capsys, monkeypatch, shifted_series):
        from importlib import resources

        from lmsvtest import asymp

        def refuse(*args, **kwargs):
            raise AssertionError("a critical-value table was simulated")

        monkeypatch.setattr(asymp, "critical_values", refuse)
        code, out, _ = run(capsys, "test", "--input", str(shifted_series), "--family", "sn_cusum",
                           "--problem", "variance", "--hurst", "0.8", "--table-seed", "9")
        assert code == EXIT_OK
        shipped = json.loads(
            (resources.files("lmsvtest.data") / "tables" / "sn_h0.8.json").read_text()
        )
        assert json.loads(out)["critical_value"] == shipped["quantiles"]["0.950000"]

    def test_given_critical_value_builds_no_table(self, capsys, monkeypatch, shifted_series):
        from lmsvtest import asymp

        def refuse(*args, **kwargs):
            raise AssertionError("a critical-value table was simulated")

        monkeypatch.setattr(asymp, "critical_values", refuse)
        code, out, _ = run(capsys, "test", "--input", str(shifted_series), "--family", "sn_cusum",
                           "--problem", "variance", "--hurst", "0.75", "--critical-value", "3.5")
        assert code == EXIT_OK
        assert json.loads(out)["critical_value"] == 3.5

    def test_loaded_table_below_budget_is_refused(self, capsys, tmp_path):
        tables = tmp_path / "tables"
        tables.mkdir()
        code, _, _ = run(capsys, "critvals", "--family", "sn", "--hurst", "0.5", "--paths", "200",
                         "--grid", "64", "--out", str(tables / "sn.json"))
        assert code == EXIT_OK
        config = _write_config(tmp_path / "config.json", problem="mean", noise="normal",
                               alphas=[], hursts=[0.7], shifts=[0.0], table_budget=[2000, 512])
        code, _, err = run(capsys, "experiment", "--config", str(config),
                           "--out-dir", str(tmp_path / "run"), "--tables", str(tables))
        assert code == EXIT_COMPUTATION
        assert "200 x 64" in err and "2000 x 512" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("quantiles, path_count, message", [
        ({0.9: 1.0}, 10_000, "loaded critical-value table cusum_bridge_sup H=0.65 lacks the "
                             "level 0.95 (has [0.9])"),
        ({0.9: 1.0, 0.95: 1.2, 0.99: 1.5}, 1_000,
         "critical-value table cusum_bridge_sup H=0.65 has budget 1000 x 2048, below the "
         "requested 10000 x 2048"),
    ], ids=["level", "budget"])
    def test_loaded_table_that_cannot_serve_is_refused_first(self, capsys, tmp_path, monkeypatch,
                                                             pareto_series, quantiles,
                                                             path_count, message):
        # Both were refused only after the H 0.65 SN table, ahead of the
        # bridge table, had been simulated; the level was refused by the
        # table's own lookup, which did not say the table was loaded.
        from lmsvtest import asymp

        tables = tmp_path / "tables"
        tables.mkdir()
        asymp.CriticalValueTable(asymp.TableFamily.CUSUM_BRIDGE_SUP, 0.65, None, quantiles,
                                 {"path_count": path_count, "path_length": 2_048}).save(
            tables / "bridge_h0.65.json")
        monkeypatch.setattr(asymp, "critical_values", _never_called)
        config = _write_config(tmp_path / "config.json", hursts=[0.65],
                               families=["sn_cusum", "cusum"])
        code, out, err = run(capsys, "experiment", "--config", str(config),
                             "--out-dir", str(tmp_path / "run"), "--tables", str(tables))
        assert (code, out, err) == (EXIT_COMPUTATION, "", f"error: {message}\n")
        assert not (tmp_path / "run").exists()
        code, out, err = run(capsys, "test", "--input", str(pareto_series), "--problem",
                             "variance", "--family", "cusum", "--hurst", "0.65", "--alpha",
                             "4.5", "--tables", str(tables))
        assert (code, out, err) == (EXIT_COMPUTATION, "", f"error: {message}\n")

    def test_loaded_table_is_recorded_as_loaded(self, capsys, tmp_path):
        tables = tmp_path / "tables"
        tables.mkdir()
        code, _, _ = run(capsys, "critvals", "--family", "sn", "--hurst", "0.5", "--paths", "400",
                         "--grid", "512", "--out", str(tables / "sn.json"))
        assert code == EXIT_OK
        config = _write_config(tmp_path / "config.json", problem="mean", noise="normal",
                               alphas=[], hursts=[0.7], shifts=[0.0], table_budget=[200, 256])
        code, _, _ = run(capsys, "experiment", "--config", str(config),
                         "--out-dir", str(tmp_path / "run"), "--tables", str(tables))
        assert code == EXIT_OK
        [entry] = json.loads((tmp_path / "run" / "meta.json").read_text())["tables"]
        assert entry["source"] == "loaded"
        assert (entry["meta"]["path_count"], entry["meta"]["path_length"]) == (400, 512)

    def test_meta_records_only_the_tables_the_run_uses(self, capsys, tmp_path):
        # Given all ten shipped tables, a mean sn_cusum run uses the H 0.5 SN table.
        from importlib import resources

        with resources.as_file(resources.files("lmsvtest.data") / "tables") as tables:
            assert len(list(tables.glob("*.json"))) == 10
            config = _write_config(tmp_path / "config.json", problem="mean", noise="normal",
                                   alphas=[], hursts=[0.7], lengths=[100], shifts=[0.0],
                                   families=["sn_cusum"])
            code, _, _ = run(capsys, "experiment", "--config", str(config),
                             "--out-dir", str(tmp_path / "run"), "--tables", str(tables))
        assert code == EXIT_OK
        [entry] = json.loads((tmp_path / "run" / "meta.json").read_text())["tables"]
        assert (entry["family"], entry["hurst"], entry["source"]) == ("sn_ratio", 0.5, "loaded")

    def test_alphas_with_normal_noise_are_refused(self, capsys, tmp_path):
        config = _write_config(tmp_path / "config.json", problem="mean", noise="normal",
                               alphas=[3.0, 5.0], hursts=[0.7], lengths=[100], shifts=[0.0])
        code, _, err = run(capsys, "experiment", "--config", str(config),
                           "--out-dir", str(tmp_path / "run"))
        assert code == EXIT_COMPUTATION
        assert "normal noise" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["test", "experiment"])
    @pytest.mark.parametrize("given", ["missing", "file"])
    def test_tables_that_is_not_a_directory_is_refused(self, capsys, tmp_path, shifted_series,
                                                       command, given):
        # Both commands ran on the package grid, with exit 0, before.
        tables = tmp_path / "missing" if given == "missing" else shifted_series
        if command == "test":
            argv = ["test", "--input", str(shifted_series), "--problem", "mean",
                    "--family", "sn_cusum"]
        else:
            argv = ["experiment", "--config", str(_write_config(tmp_path / "config.json")),
                    "--out-dir", str(tmp_path / "run")]
        code, out, err = run(capsys, *argv, "--tables", str(tables))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: --tables: {tables} is not a directory\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["test", "experiment"])
    def test_a_table_of_another_hermite_rank_is_refused(self, capsys, tmp_path, pareto_series,
                                                        command):
        # Tables are keyed without the rank, as every table has rank 1. A file
        # of rank 2 was passed over, and the run took the package table with
        # exit 0.
        tables = _shipped_table_as(tmp_path, "sn_h0.7.json", m=2,
                                   quantiles={"0.900000": 99.0, "0.950000": 99.0,
                                              "0.990000": 99.0})
        if command == "test":
            argv = ["test", "--input", str(pareto_series), "--problem", "variance",
                    "--family", "sn_cusum", "--hurst", "0.7", "--alpha", "4.5"]
        else:
            argv = ["experiment", "--config", str(_write_config(tmp_path / "config.json")),
                    "--out-dir", str(tmp_path / "run")]
        code, out, err = run(capsys, *argv, "--tables", str(tables))
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err == (f"error: {tables / 'sn_h0.7.json'}: only Hermite rank m = 1 is "
                       "supported, got m = 2\n")
        assert not (tmp_path / "run").exists()

    def test_non_table_json_is_named(self, capsys, tmp_path):
        tables = tmp_path / "tables"
        tables.mkdir()
        stray = _write_config(tables / "stray.json")
        config = _write_config(tmp_path / "config.json")
        code, _, err = run(capsys, "experiment", "--config", str(config),
                           "--out-dir", str(tmp_path / "run"), "--tables", str(tables))
        assert code == EXIT_COMPUTATION
        assert str(stray) in err


class TestExperimentAndCompare:
    def test_desk_run_and_compare(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "problem": "mean",
            "noise": "normal",
            "hursts": [0.6],
            "lengths": [200],
            "shifts": [0.0, 1.0],
            "families": ["cusum", "sn_cusum"],
            "replications": 300,
            "seed": 13,
            "table_budget": [2000, 512],
        }))
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys, "experiment", "--config", str(config), "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        assert (out_dir / "cells.csv").exists()
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "meta.json").exists()

        # Comparing against a mismatched reference grid is an error.
        code, _, err = run(
            capsys, "compare", "--report", str(out_dir / "cells.csv"),
            "--reference", "builtin:mean_normal",
        )
        assert code == EXIT_COMPUTATION

    def test_meta_wall_time_covers_table_building(self, capsys, tmp_path, monkeypatch):
        from lmsvtest import mc

        built = []
        ensure_tables = mc.ensure_tables

        def timed_ensure_tables(*args, **kwargs):
            start = time.monotonic()
            tables = ensure_tables(*args, **kwargs)
            built.append(time.monotonic() - start)
            return tables

        monkeypatch.setattr(mc, "ensure_tables", timed_ensure_tables)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "problem": "mean", "noise": "normal", "hursts": [0.7], "lengths": [60],
            "shifts": [0.0], "families": ["sn_cusum"], "replications": 100,
            "table_budget": [2000, 512],
        }))
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == EXIT_OK
        meta = json.loads((out_dir / "meta.json").read_text())
        assert len(built) == 1
        assert meta["wall_time_seconds"] >= built[0]

    def test_compare_self_is_clean(self, capsys, tmp_path):
        from lmsvtest import mc

        cells = mc.load_reference("mean_normal")
        path = tmp_path / "cells.csv"
        mc.cells_to_csv(cells, path)
        code, out, _ = run(
            capsys, "compare", "--report", str(path), "--reference", "builtin:mean_normal",
        )
        assert code == EXIT_OK
        assert "0 flagged" in out

    def test_bundled_desk_config_agrees_with_reference(self, capsys, tmp_path):
        # Full desk-scale mean-change run from the bundled config (24 report
        # rows), followed by a comparison against the published rates: no
        # cell may sit more than 3 combined standard errors away.
        from importlib import resources

        config = tmp_path / "table1_desk.json"
        config.write_text(
            (resources.files("lmsvtest.data") / "table1_desk.json").read_text()
        )
        # It runs at the default worker count, every CPU of the process.
        assert "max_workers" not in json.loads(config.read_text())
        out_dir = tmp_path / "desk"
        code, _, _ = run(
            capsys, "experiment", "--config", str(config), "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        report_rows = (out_dir / "report.csv").read_text().strip().splitlines()
        assert len(report_rows) == 1 + 24

        code, out, _ = run(
            capsys, "compare", "--report", str(out_dir / "cells.csv"),
            "--reference", "builtin:mean_normal",
        )
        assert code == EXIT_OK, out
        # The bundled seed's counts, pinned byte for byte: a change to the
        # engine that moves any count moves this digest.
        digest = hashlib.sha256((out_dir / "cells.csv").read_bytes()).hexdigest()
        assert digest == DESK_CELLS_SHA256

    def test_compare_flags_corruption(self, capsys, tmp_path):
        from lmsvtest import mc

        cells = mc.load_reference("mean_normal")
        bad = cells[0]
        cells[0] = mc.CellResult(
            problem=bad.problem, family=bad.family, hurst=bad.hurst, n=bad.n,
            alpha=bad.alpha, h=bad.h, tau=bad.tau, level=bad.level,
            replications=bad.replications,
            rejections=bad.rejections + round(0.2 * bad.replications),
        )
        path = tmp_path / "cells.csv"
        mc.cells_to_csv(cells, path)
        code, out, _ = run(
            capsys, "compare", "--report", str(path), "--reference", "builtin:mean_normal",
            "--out", str(tmp_path / "diff.csv"),
        )
        assert code == EXIT_FLAGGED
        assert [line for line in out.splitlines() if line.startswith("FLAGGED")] == [
            "FLAGGED cusum H=0.6 n=500 alpha=None h=0: local 0.246 vs reference 0.046 (z=28.23)"
        ]
        header, first, *_ = (tmp_path / "diff.csv").read_text().splitlines()
        assert header == "family,hurst,n,alpha,h,local_rate,reference_rate,z,flagged"
        # The published 0.046 is read as 0.0465, the value in its rounding
        # nearest the local rate.
        assert first == "cusum,0.6,500,,0,0.2460,0.0460,28.229,1"

    def test_empty_report_is_refused(self, capsys, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("")
        code, _, err = run(capsys, "compare", "--report", str(path),
                           "--reference", "builtin:mean_normal")
        assert code == EXIT_COMPUTATION
        assert f"{path} is empty" in err

    def test_header_only_report_is_refused(self, capsys, tmp_path):
        # What a run that wrote no cells leaves: it compared 0 cells and passed.
        from lmsvtest import mc

        path = tmp_path / "cells.csv"
        mc.cells_to_csv([], path)
        code, out, err = run(capsys, "compare", "--report", str(path),
                             "--reference", "builtin:mean_normal")
        assert code == EXIT_COMPUTATION
        assert f"{path} has a header and no cells" in err
        assert "compared" not in out

    def test_compare_reads_a_reference_given_by_its_path(self, capsys, tmp_path):
        from importlib import resources

        reference = tmp_path / "published.csv"
        reference.write_text(
            (resources.files("lmsvtest.data") / "table1_mean_normal.csv").read_text())
        path = tmp_path / "cells.csv"
        mc.cells_to_csv(mc.load_reference("mean_normal"), path)
        code, out, err = run(capsys, "compare", "--report", str(path),
                             "--reference", str(reference))
        assert (code, err) == (EXIT_OK, "")
        assert out == "96 cells compared, max |z| = 0.000, 0 flagged\n"

    def test_an_unknown_builtin_reference_is_refused_by_its_flag(self, capsys, tmp_path):
        # It exited 2 with the message of a KeyError, which named no flag.
        path = tmp_path / "cells.csv"
        mc.cells_to_csv(mc.load_reference("mean_normal"), path)
        code, out, err = run(capsys, "compare", "--report", str(path),
                             "--reference", "builtin:nope")
        _refused_by_name(code, out, err, EXIT_USAGE, "--reference")
        assert "unknown reference table 'nope'" in err

    @pytest.mark.parametrize("out_dir", ["file", "file/run"])
    def test_an_out_dir_where_a_file_is_is_refused_before_running(
        self, capsys, tmp_path, monkeypatch, out_dir
    ):
        # The whole run (1.4 s on the desk config) came before the mkdir that
        # failed, with exit 2.
        monkeypatch.setattr(mc, "run_experiment", _never_called)
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, "experiment", "--config",
                             str(_write_config(tmp_path / "config.json")),
                             "--out-dir", str(tmp_path / out_dir))
        _refused_by_name(code, out, err, EXIT_USAGE, "--out-dir")
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("max_z", ["nan", "-1"])
    def test_max_z_nan_or_negative_is_refused(self, capsys, tmp_path, max_z):
        # A NaN bound flags no cell, so a comparison would always pass. A bad
        # flag value, refused by the flag's name before any file is read.
        from lmsvtest import mc

        path = tmp_path / "cells.csv"
        mc.cells_to_csv(mc.load_reference("mean_normal"), path)
        code, out, err = run(capsys, "compare", "--report", str(path),
                             "--reference", "builtin:mean_normal", "--max-z", max_z)
        assert code == EXIT_USAGE
        assert "argument --max-z: must be finite and >= 0" in err
        assert "compared" not in out

    @pytest.mark.parametrize("overrides, h", [
        # At h = 1e160 the SN terms overflowed; under the scale rule that row
        # now runs (cusum and sn_cusum reject 100 of 100). At h = 1e308 the
        # bridge h B of the step overflows itself.
        ({"shifts": [0.0, 1e308]}, "1e+308"),
        # Every squared value of this row stays finite at h = 5.6e152, but the
        # sum of some replication's squares overflows and leaves a NaN bridge.
        # The SN terms of a finite bridge no longer overflow: at h = 1e150
        # this row now runs.
        ({"problem": "variance", "noise": "centered_pareto", "alphas": [4.5],
          "families": ["cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"],
          "shifts": [1.0, 5.6e152]}, "5.6e+152"),
    ], ids=["mean-normal", "variance-centered-pareto"])
    def test_an_overflowing_shift_is_refused_by_its_h(self, capsys, tmp_path, overrides, h):
        # The desk grid at one small row. sn_cusum read a NaN supremum at
        # this h, which exceeds no critical value: 0 of 100 rejections next
        # to cusum's 100 of 100, with exit 0.
        from importlib import resources

        config = json.loads((resources.files("lmsvtest.data") / "table1_desk.json").read_text())
        config.update(hursts=[0.7], lengths=[100], replications=100, table_budget=[200, 64],
                      **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", "--config", str(path),
                             "--out-dir", str(tmp_path / "run"))
        assert (code, out) == (EXIT_COMPUTATION, "")
        [line] = err.splitlines()
        assert line.startswith("error: shifts: ") and f"h = {h}" in line, line
        assert "sn_cusum supremum" in line and "is NaN" in line, line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"trim": None}, "invalid experiment config"),
        ({"trim": [0.1, 0.5, 0.9]}, "invalid experiment config"),
        ({"table_budget": 5}, "invalid experiment config"),
        ({"shifts": [1.0, 1.0]}, "shifts repeats an entry"),
        ({"replications": 100.5}, "invalid experiment config: replications must be an integer"),
        ({"lengths": [60.0]}, "invalid experiment config: lengths must be an integer"),
        ({"max_workers": True}, "invalid experiment config: max_workers must be an integer"),
        ({"seed": 1.5}, "invalid experiment config: seed must be an integer"),
        ({"table_budget": [300.5, 64]},
         "invalid experiment config: table_budget: path_count must be an"),
        ({"table_budget": [300, True]},
         "invalid experiment config: table_budget: path_length must be an"),
        ({"shifts": [1.0, math.nan]}, "shifts must be finite"),
        ({"shifts": [1.0, math.inf]}, "shifts must be finite"),
        ({"seed": -1}, "seed must be an integer in [0, 2^64), got -1"),
        ({"seed": 2**64}, "seed must be an integer in [0, 2^64)"),
        ({"max_workers": 0}, "max_workers must be an integer >= 1"),
        # A grid key given as one value, which read as its letters or as no list.
        ({"families": "cusum"}, "families must be a list, got 'cusum'"),
        ({"hursts": 0.6}, "hursts must be a list, got 0.6"),
        # A whole file that is not a config: a traceback, or an error without its file.
        ("[1, 2]", "need an object of keys, got list"),
        ('"x"', "need an object of keys, got str"),
        ("not json", "Expecting value"),
    ], ids=["trim-null", "trim-three-values", "budget-scalar", "repeated-shift",
            "replications-float", "length-float", "workers-bool", "seed-float",
            "budget-count-float", "budget-length-bool", "shift-nan", "shift-inf",
            "seed-negative", "seed-2^64", "workers-zero", "families-string",
            "hursts-scalar", "file-list", "file-string", "file-not-json"])
    def test_malformed_config_is_refused(self, capsys, tmp_path, overrides, message):
        config = tmp_path / "config.json"
        if isinstance(overrides, str):
            config.write_text(overrides)
        else:
            _write_config(config, **overrides)
        code, out, err = run(capsys, "experiment", "--config", str(config),
                             "--out-dir", str(tmp_path / "run"))
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err.startswith(f"error: {config}: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "run").exists()


def _refused_by_name(code, out, err, exit_code, name):
    """Exit `exit_code` with one error line that names the flag or key, and no output."""
    assert (code, out) == (exit_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(r"(?<![\w-])" + re.escape(name) + r"\b", err), err


#: critvals' and compare's numeric flags, and the values of _BAD_VALUES with
#: which each runs; it is refused at the others.
_CRITVALS_FLAGS = [("--hurst", ()), ("--tau1", ()), ("--tau2", ()), ("--paths", ()),
                   ("--grid", ()), ("--levels", ()), ("--seed", ("0",))]
_CRITVALS_CASES = [(flag, value, value in runs)
                   for flag, runs in _CRITVALS_FLAGS for value in _BAD_VALUES] + [
    # Levels in (0, 1) that are 0 or 1 at six decimals, the precision of a table.
    ("--levels", "1e-9", False), ("--levels", "0.9999999", False)]
_COMPARE_CASES = [("--max-z", value, value in ("0", "1e308")) for value in _BAD_VALUES]

#: Every numeric key of an experiment config, with the entry a case sets
#: (None for a scalar, the only entry of a grid, or the index in a pair),
#: and the values of _BAD_VALUES with which the run ends in exit 0.
_CONFIG_KEYS = [
    ("hursts", None, ()), ("lengths", None, ()), ("shifts", None, ("-1", "0")),
    ("alphas", None, ()), ("tau", None, ()), ("level", None, ()), ("replications", None, ()),
    ("seed", None, ("0",)), ("max_workers", None, ()), ("trim", 0, ()), ("trim", 1, ()),
    ("table_budget", 0, ()), ("table_budget", 1, ()),
]
_CONFIG_CASES = [(key, entry, value, value in runs)
                 for key, entry, runs in _CONFIG_KEYS for value in _BAD_VALUES] + [
    ("level", None, "1e-7", False), ("level", None, "0.9999999", False)]

#: The mean problem under centered Pareto noise, at one small row; its
#: sn_cusum table is the package's.
_WALKER_CONFIG = {
    "problem": "mean", "noise": "centered_pareto", "alphas": [4.5], "hursts": [0.7],
    "lengths": [60], "shifts": [1.0], "families": ["cusum", "sn_cusum"],
    "replications": 100, "seed": 5, "trim": [0.15, 0.85], "table_budget": [10000, 2048],
}


class TestEveryNumericInput:
    """Each numeric flag of every command and each numeric config key, at
    NaN, inf, -1, 0 and 1e308: it runs with finite output, or it is refused
    with one error line that names it, with exit 1 for a flag and 2 for a
    config key, and never with a traceback."""

    def test_every_numeric_flag_and_key_has_its_cases(self):
        # The parser's numeric flags: those whose type is neither a path nor a string.
        [commands] = [a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        cases = {"simulate": _SIMULATE_CASES, "test": _TEST_CASES,
                 "critvals": _CRITVALS_CASES, "compare": _COMPARE_CASES}
        for command, parser in commands.choices.items():
            numeric = {action.option_strings[0] for action in parser._actions
                       if action.type not in (None, Path)}
            covered = {(flag, value) for flag, value, *_ in cases.get(command, ())}
            assert {(flag, value) for flag in numeric for value in _BAD_VALUES} <= covered, command
        # A config's numeric keys: every field but the strings.
        keys = {mc._JSON_KEYS.get(f.name, f.name) for f in dataclasses.fields(mc.ExperimentConfig)
                if "str" not in f.type}
        assert keys == {key for key, _, _ in _CONFIG_KEYS}

    @pytest.mark.parametrize("flag, value, runs", _CRITVALS_CASES,
                             ids=[f"{flag} {value}" for flag, value, _ in _CRITVALS_CASES])
    def test_critvals(self, capsys, tmp_path, flag, value, runs):
        out = tmp_path / "table.json"
        argv = {"--family": "sn", "--hurst": "0.7", "--paths": "200", "--grid": "64",
                "--out": str(out), flag: value}
        code, stdout, err = run(capsys, "critvals", *[a for item in argv.items() for a in item])
        if runs:
            assert (code, err) == (EXIT_OK, "")
            quantiles = json.loads(out.read_text())["quantiles"]
            assert quantiles and all(math.isfinite(q) for q in quantiles.values())
        else:
            _refused_by_name(code, stdout, err, EXIT_USAGE, flag)
            assert not out.exists()

    def test_critvals_reads_repeated_levels_as_one(self, capsys, tmp_path):
        # critical_values reads its levels as a set: one 0.9 quantile.
        out = tmp_path / "table.json"
        code, _, err = run(capsys, "critvals", "--family", "sn", "--hurst", "0.7", "--paths",
                           "200", "--grid", "64", "--levels", "0.9", "0.9", "--out", str(out))
        assert (code, err) == (EXIT_OK, "")
        assert list(json.loads(out.read_text())["quantiles"]) == ["0.900000"]

    @pytest.mark.parametrize("flag, value, runs", _COMPARE_CASES,
                             ids=[f"{flag} {value}" for flag, value, _ in _COMPARE_CASES])
    def test_compare(self, capsys, tmp_path, flag, value, runs):
        # The reference against itself: every z is 0, so no bound flags a cell.
        report = tmp_path / "cells.csv"
        mc.cells_to_csv(mc.load_reference("mean_normal"), report)
        code, out, err = run(capsys, "compare", "--report", str(report),
                             "--reference", "builtin:mean_normal", flag, value)
        if runs:
            assert (code, err) == (EXIT_OK, "")
            assert out == "96 cells compared, max |z| = 0.000, 0 flagged\n"
        else:
            _refused_by_name(code, out, err, EXIT_USAGE, flag)

    @pytest.mark.parametrize("key, entry, value, runs", _CONFIG_CASES, ids=[
        f"{key}{'' if entry is None else f'[{entry}]'} {value}"
        for key, entry, value, _ in _CONFIG_CASES])
    def test_config_key(self, capsys, tmp_path, key, entry, value, runs):
        config = json.loads(json.dumps(_WALKER_CONFIG))
        number = int(value) if value.lstrip("-").isdigit() else float(value)
        if entry is None and isinstance(config.get(key), list):
            config[key] = [number]
        elif entry is None:
            config[key] = number
        else:
            config[key][entry] = number
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", "--config", str(path),
                             "--out-dir", str(tmp_path / "run"))
        if runs:
            assert (code, err) == (EXIT_OK, "")
            rows = (tmp_path / "run" / "cells.csv").read_text().splitlines()[1:]
            rates = [float(v) for row in rows for v in row.split(",")[-2:]]  # rate and se
            assert rates and all(math.isfinite(v) for v in rates)
        else:
            _refused_by_name(code, out, err, EXIT_COMPUTATION, key)
            assert not (tmp_path / "run").exists()
