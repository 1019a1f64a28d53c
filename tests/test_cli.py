"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from lmsvtest.cli import EXIT_COMPUTATION, EXIT_FLAGGED, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
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


class TestTest:
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
        assert json.loads(out)["degenerate"] is True

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

    @pytest.mark.parametrize("hurst", ["0.5", "0.3"])
    @pytest.mark.parametrize("family", ["cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"])
    def test_short_memory_hurst_is_usage_error(self, capsys, null_series, family, hurst):
        code, out, err = run(capsys, "test", "--input", str(null_series), "--family", family,
                             "--problem", "variance", "--hurst", hurst, "--alpha", "4.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "H > 1/2" in err

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

    def test_regenerates_shipped_table(self, capsys, tmp_path):
        # The cheapest table of the package grid, from its documented command.
        from importlib import resources

        out = tmp_path / "bridge_h0.8.json"
        code, _, _ = run(
            capsys, "critvals", "--family", "bridge", "--hurst", "0.8", "--paths", "10000",
            "--grid", "2048", "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        shipped = json.loads(
            (resources.files("lmsvtest.data") / "tables" / "bridge_h0.8.json").read_text()
        )
        fresh = json.loads(out.read_text())
        assert fresh["quantiles"].keys() == shipped["quantiles"].keys()
        for level, value in shipped["quantiles"].items():
            assert fresh["quantiles"][level] == pytest.approx(value, rel=1e-12)
        assert fresh["meta"]["stream_id"] == shipped["meta"]["stream_id"]

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


def _write_config(path, **overrides):
    config = {
        "problem": "variance", "noise": "centered_pareto", "alphas": [4.5],
        "hursts": [0.75], "lengths": [60], "shifts": [1.0],
        "families": ["cusum", "sn_cusum"], "replications": 100, "seed": 5,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


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
        assert "FLAGGED" in out
        assert (tmp_path / "diff.csv").exists()
