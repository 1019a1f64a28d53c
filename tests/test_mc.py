"""Tests for the Monte Carlo experiment harness."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lmsvtest import asymp, fgn, lmsv, mc
from lmsvtest.asymp import CriticalValueTable, TableBudget, TableFamily
from lmsvtest.dist import RngStream, make_noise
from lmsvtest.stats import TrimSpec


def _small_cfg(**overrides):
    defaults = dict(
        problem="mean",
        noise_kind="normal",
        hursts=(0.6,),
        lengths=(120,),
        shifts=(0.0, 1.0),
        families=("cusum", "sn_cusum"),
        replications=200,
        seed=7,
        budget=TableBudget(2_000, 512),
    )
    defaults.update(overrides)
    return mc.ExperimentConfig(**defaults)


class TestConfig:
    def test_roundtrip_json(self):
        cfg = _small_cfg()
        again = mc.ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_rejects_too_few_replications(self):
        with pytest.raises(ValueError):
            _small_cfg(replications=50)

    def test_rejects_wilcoxon_for_mean_normal(self):
        with pytest.raises(ValueError, match="Wilcoxon"):
            _small_cfg(families=("wilcoxon",))

    def test_rejects_wilcoxon_for_tail(self):
        with pytest.raises(ValueError, match="tail"):
            _small_cfg(
                problem="tail", noise_kind="pareto", alphas=(1.0,),
                families=("cusum", "sn_wilcoxon"),
            )

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_rejects_nonpositive_variance_shift(self, h):
        with pytest.raises(ValueError, match="positive"):
            _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                       shifts=(1.0, h))

    @pytest.mark.parametrize("hurst", [0.5, 0.3])
    @pytest.mark.parametrize("family", mc.FAMILIES)
    def test_rejects_short_memory_hurst(self, family, hurst):
        with pytest.raises(mc.PlanError, match="H > 1/2"):
            _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                       shifts=(1.0,), families=(family,), hursts=(0.7, hurst))

    def test_brownian_mean_plans_do_not_use_hurst(self):
        cfg = _small_cfg(hursts=(0.3, 0.5), families=("cusum", "sn_cusum"))
        assert [key[2] for key in mc.required_tables(cfg)] == [0.5]

    def test_rejects_every_invalid_alpha(self):
        with pytest.raises(ValueError, match="alpha > 1"):
            _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5, 0.5),
                       shifts=(1.0,), families=("sn_cusum",))

    def test_from_json_takes_the_dataclass_defaults(self):
        required = dict(problem="mean", hursts=(0.7,), lengths=(100,), shifts=(0.0,),
                        families=("cusum",))
        text = json.dumps({"noise": "normal", **required})
        assert mc.ExperimentConfig.from_json(text) == mc.ExperimentConfig(
            noise_kind="normal", **required)

    def test_from_json_refuses_an_unknown_key(self):
        text = _small_cfg().to_json().replace('"replications"', '"replicatons"')
        with pytest.raises(ValueError, match="replicatons"):
            mc.ExperimentConfig.from_json(text)

    def test_rejects_missing_alphas(self):
        with pytest.raises(ValueError):
            _small_cfg(noise_kind="centered_pareto", alphas=())

    def test_bundled_desk_config_loads(self):
        from importlib import resources

        text = (resources.files("lmsvtest.data") / "table1_desk.json").read_text()
        cfg = mc.ExperimentConfig.from_json(text)
        assert cfg.problem == "mean"
        assert len(cfg.hursts) * len(cfg.lengths) * len(cfg.shifts) == 24


class TestTables:
    def test_missing_table_error_names_key(self):
        cfg = _small_cfg()
        empty = mc.TableSet([])
        with pytest.raises(mc.MissingTableError, match="sn_ratio"):
            mc.run_experiment(cfg, tables=empty)

    def test_required_tables_mean_problem(self):
        cfg = _small_cfg(hursts=(0.6, 0.9))
        needed = mc.required_tables(cfg)
        # CUSUM in the mean problem uses the analytic Kolmogorov value, and
        # the SN-CUSUM limit is Brownian, so one SN table at H = 0.5 suffices.
        assert len(needed) == 1
        family, m, hurst, trim = needed[0]
        assert (family.value, m, hurst) == ("sn_ratio", 1, 0.5)

    def test_required_tables_variance_problem(self):
        cfg = _small_cfg(
            problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
            families=("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"),
            shifts=(1.0,), hursts=(0.6,),
        )
        needed = {(f.value, h) for f, _, h, _ in mc.required_tables(cfg)}
        assert needed == {("cusum_bridge_sup", 0.6), ("sn_ratio", 0.6)}


def _fake_table(family, hurst, path_count, path_length, trim=None):
    # A hand-made table: only its key, its budget and its quantiles matter here.
    return CriticalValueTable(
        family=family, m=1, hurst=hurst, trim=trim,
        quantiles={0.9: 1.0, 0.95: 1.2, 0.99: 1.5},
        meta={"path_count": path_count, "path_length": path_length},
    )


class TestTableLookup:
    @pytest.mark.parametrize("budget", [(1_999, 512), (2_000, 256), (200, 64)])
    def test_loaded_table_below_budget_is_refused(self, budget):
        cfg = _small_cfg()
        small = _fake_table(TableFamily.SN_RATIO, 0.5, *budget, trim=cfg.trim)
        with pytest.raises(ValueError, match="below the requested 2000 x 512"):
            mc.ensure_tables(cfg, existing=mc.TableSet([small]))

    def test_provided_table_below_budget_is_refused_by_run_experiment(self):
        cfg = _small_cfg()
        small = _fake_table(TableFamily.SN_RATIO, 0.5, 200, 64, trim=cfg.trim)
        with pytest.raises(ValueError, match="200 x 64, below the requested 2000 x 512"):
            mc.run_experiment(cfg, tables=mc.TableSet([small]))

    @pytest.mark.parametrize("budget", [(2_000, 512), (4_000, 512), (2_000, 1_024)])
    def test_loaded_table_at_or_above_budget_is_used(self, monkeypatch, budget):
        cfg = _small_cfg()
        table = _fake_table(TableFamily.SN_RATIO, 0.5, *budget, trim=cfg.trim)
        monkeypatch.setattr(asymp, "critical_values", _refuse_simulation)
        tables = mc.ensure_tables(cfg, existing=mc.TableSet([table]))
        assert tables.find(TableFamily.SN_RATIO, 1, 0.5, cfg.trim) == (table, "loaded")

    def test_meta_records_each_table_source(self):
        # Mean SN-CUSUM needs the H = 0.5 SN table; variance CUSUM a bridge
        # table at the row's H.
        cfg = _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                         hursts=(0.6, 0.7), shifts=(1.0,), families=("cusum",),
                         replications=100, budget=TableBudget())
        loaded = _fake_table(TableFamily.CUSUM_BRIDGE_SUP, 0.6, 10_000, 2_048)
        report = mc.run_experiment(cfg, mc.ensure_tables(cfg, existing=mc.TableSet([loaded])))
        sources = {v["hurst"]: v["source"] for v in report.meta["tables"]}
        assert sources == {0.6: "loaded", 0.7: "package"}

        simulated = mc.run_experiment(_small_cfg())
        [entry] = simulated.meta["tables"]
        assert entry["source"] == "simulated"
        assert (entry["meta"]["path_count"], entry["meta"]["path_length"]) == (2_000, 512)

    def test_table_stream_keeps_the_experiment_convention(self):
        stream = mc.table_stream(7, TableFamily.SN_RATIO, 1, 0.5)
        assert stream == RngStream(7).substream(0xC71).substream(2, 1, mc._float_key(0.5))
        bridge = mc.table_stream(7, TableFamily.CUSUM_BRIDGE_SUP, 1, 0.5)
        assert bridge == RngStream(7).substream(0xC71).substream(1, 1, mc._float_key(0.5))


def _refuse_simulation(*args, **kwargs):
    raise AssertionError("a critical-value table was simulated")


_SHIPPED_HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9)


class TestPackageGrid:
    def test_shipped_files_cover_exactly_the_grid(self):
        directory = resources.files("lmsvtest.data") / "tables"
        files = sorted(f.name for f in directory.iterdir())
        assert len(files) == 10
        keys = set()
        for name in files:
            table = CriticalValueTable.from_json((directory / name).read_text())
            assert table.m == 1
            assert sorted(table.quantiles) == [0.9, 0.95, 0.99]
            assert (table.meta["path_count"], table.meta["path_length"]) == (10_000, 2_048)
            assert table.meta["seed"] == 0
            assert table.meta["stream_id"] == mc.table_stream(
                0, table.family, 1, table.hurst).stream_id
            trim = None if table.trim is None else (table.trim.tau1, table.trim.tau2)
            keys.add((table.family, table.hurst, trim))
        assert keys == {
            (family, hurst, trim)
            for hurst in _SHIPPED_HURSTS
            for family, trim in ((TableFamily.CUSUM_BRIDGE_SUP, None),
                                 (TableFamily.SN_RATIO, (0.15, 0.85)))
        }

    def test_default_budget_experiment_simulates_no_table(self, monkeypatch):
        monkeypatch.setattr(asymp, "critical_values", _refuse_simulation)
        cfg = _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                         hursts=(0.6, 0.9), shifts=(1.0,), families=mc.FAMILIES,
                         replications=100, budget=TableBudget())
        report = mc.run_experiment(cfg)
        assert {v["source"] for v in report.meta["tables"]} == {"package"}
        assert len(report.meta["tables"]) == 4

    def test_other_budgets_and_uncovered_keys_simulate(self, monkeypatch):
        built = []

        def recording(family, m, hurst, stream, **kwargs):
            built.append((family, hurst, kwargs["budget"], kwargs["levels"]))
            return _fake_table(family, hurst, kwargs["budget"].path_count,
                               kwargs["budget"].path_length, trim=kwargs["trim"])

        monkeypatch.setattr(asymp, "critical_values", recording)
        mc.ensure_tables(_small_cfg(budget=TableBudget(2_000, 512)))
        mc.ensure_tables(_small_cfg(budget=TableBudget(20_000, 2_048)))
        mc.ensure_tables(_small_cfg(budget=TableBudget(), level=0.025))  # needs 0.975
        mc.ensure_tables(_small_cfg(budget=TableBudget(), trim=TrimSpec(0.1, 0.9)))
        mc.ensure_tables(_small_cfg(problem="variance", noise_kind="centered_pareto",
                                    alphas=(4.5,), shifts=(1.0,), hursts=(0.75,),
                                    budget=TableBudget()))
        assert [(b.path_count, b.path_length) for _, _, b, _ in built] == [
            (2_000, 512), (20_000, 2_048), *[(10_000, 2_048)] * 4,
        ]
        assert built[2][3] == (0.9, 0.95, 0.975, 0.99)
        assert {key[:2] for key in built[4:]} == {
            (TableFamily.CUSUM_BRIDGE_SUP, 0.75), (TableFamily.SN_RATIO, 0.75),
        }

    def test_grid_is_not_read_at_import(self):
        code = ("import lmsvtest, lmsvtest.cli, lmsvtest.mc as mc; "
                "print(mc._package_tables.cache_info().currsize)")
        src = str(Path(mc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert out.strip() == "0"


class TestRunExperiment:
    def test_deterministic(self):
        cfg = _small_cfg()
        a = mc.run_experiment(cfg)
        b = mc.run_experiment(cfg)
        assert [(c.family, c.h, c.rejections) for c in a.cells] == [
            (c.family, c.h, c.rejections) for c in b.cells
        ]

    def test_power_exceeds_size(self):
        report = mc.run_experiment(_small_cfg(shifts=(0.0, 2.0), lengths=(200,)))
        for family in ("cusum", "sn_cusum"):
            size = report.cell(family=family, h=0.0)
            power = report.cell(family=family, h=2.0)
            # Stochastic ordering sanity with a 2-standard-error allowance.
            slack = 2 * (size.standard_error + power.standard_error)
            assert power.rate >= size.rate - slack

    def test_cell_independence(self):
        # Removing a grid length must not change the other cells' counts.
        full = mc.run_experiment(_small_cfg(lengths=(120, 80)))
        part = mc.run_experiment(_small_cfg(lengths=(120,)))
        for c in part.cells:
            other = full.cell(family=c.family, h=c.h, n=c.n)
            assert other.rejections == c.rejections

    def test_common_random_numbers_couple_shifts(self):
        # With shared streams across h the power curve is monotone here.
        report = mc.run_experiment(_small_cfg(shifts=(0.0, 0.5, 1.0, 2.0), lengths=(200,)))
        rates = [report.cell(family="cusum", h=h).rate for h in (0.0, 0.5, 1.0, 2.0)]
        assert rates == sorted(rates)

    def test_worker_pool_matches_serial(self):
        cfg = _small_cfg(lengths=(80, 120))
        serial = mc.run_experiment(cfg)
        parallel = mc.run_experiment(_small_cfg(lengths=(80, 120), max_workers=2))
        key = lambda c: (c.family, c.n, c.h)
        assert sorted(
            [(c.family, c.n, c.h, c.rejections) for c in serial.cells]
        ) == sorted([(c.family, c.n, c.h, c.rejections) for c in parallel.cells])

    def test_meta_records_tables_and_seed(self):
        report = mc.run_experiment(_small_cfg())
        assert report.meta["seed"] == 7
        assert report.meta["tables"]
        assert report.meta["wall_time_seconds"] >= 0


_ENGINE_CASES = {
    "mean_normal": dict(shifts=(0.0, 1.0)),
    "mean_centered_pareto": dict(noise_kind="centered_pareto", alphas=(2.5,),
                                 families=mc.FAMILIES),
    "variance": dict(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                     shifts=(1.0, 2.0), families=mc.FAMILIES),
    "tail": dict(problem="tail", noise_kind="pareto", alphas=(1.0,), shifts=(0.0, 0.5)),
}

_CHANGES = {"mean": lmsv.MeanShift, "variance": lmsv.VarianceScale, "tail": lmsv.TailShift}


class TestChunkedEngine:
    @pytest.mark.parametrize("name", ["variance", "tail"])
    def test_counts_do_not_depend_on_chunk_size(self, monkeypatch, name):
        cfg = _small_cfg(replications=150, **_ENGINE_CASES[name])
        tables = mc.ensure_tables(cfg)

        def counts():
            return [(c.family, c.h, c.rejections) for c in mc.run_experiment(cfg, tables).cells]

        default = counts()
        for chunk in (1, 7):
            monkeypatch.setattr(mc, "_CHUNK", chunk)
            assert counts() == default

    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_paths_follow_simulate_series_layout(self, name):
        cfg = _small_cfg(**_ENGINE_CASES[name])
        hurst, n = cfg.hursts[0], cfg.lengths[0]
        alpha = cfg.alpha_grid[0]
        base = mc._row_stream(cfg, hurst, n, alpha)
        changes = [_CHANGES[cfg.problem](h, cfg.tau) for h in cfg.shifts]
        chunk = lmsv.simulate_batch(fgn.FgnParams(hurst, n), make_noise(cfg.noise_kind, alpha),
                                    changes, [base.substream(rep) for rep in range(mc._CHUNK)])
        for h, change in zip(cfg.shifts, changes):
            _, _, paths = next(chunk)
            assert change.h == h
            spec = lmsv.SeriesSpec(fgn.FgnParams(hurst, n), make_noise(cfg.noise_kind, alpha),
                                   _CHANGES[cfg.problem](h, cfg.tau))
            for rep in (0, 1, mc._CHUNK - 1):
                assert np.array_equal(paths[rep], lmsv.simulate_series(spec, base.substream(rep)))


class TestSerialization:
    def test_cells_csv_roundtrip(self, tmp_path):
        report = mc.run_experiment(_small_cfg())
        path = tmp_path / "cells.csv"
        mc.cells_to_csv(report.cells, path)
        loaded = mc.cells_from_csv(path)
        assert [(c.family, c.h, c.rejections) for c in loaded] == [
            (c.family, c.h, c.rejections) for c in report.cells
        ]

    def test_cells_csv_keeps_counts_the_rate_rounds_away(self, tmp_path):
        # 3333333 / 10^7 prints as rate 0.333333, which reads back as 3333330.
        cell = mc.CellResult(
            problem="mean", family="cusum", hurst=0.7, n=500, alpha=None, h=1.0,
            tau=0.5, level=0.05, replications=10_000_000, rejections=3_333_333,
        )
        path = tmp_path / "cells.csv"
        mc.cells_to_csv([cell], path)
        assert mc.cells_from_csv(path) == [cell]
        header, row = path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["rejections"], fields["rate"]) == ("3333333", "0.333333")

    def test_report_csv_shape(self, tmp_path):
        report = mc.run_experiment(_small_cfg())
        path = tmp_path / "report.csv"
        mc.report_to_csv(report, path)
        lines = path.read_text().strip().splitlines()
        # One row per (H, n, h) cell with per-family rate columns.
        assert len(lines) == 1 + 2
        assert lines[0].split(",")[:5] == ["hurst", "n", "alpha", "h", "tau"]


class TestReferenceTables:
    @pytest.mark.parametrize(
        "name,count",
        [("mean_normal", 96), ("mean_pareto", 288), ("variance_pareto", 288), ("tail_pareto", 144)],
    )
    def test_bundled_tables_load(self, name, count):
        cells = mc.load_reference(name)
        assert len(cells) == count
        assert all(0.0 <= c.rate <= 1.0 for c in cells)
        assert all(c.replications == 5000 for c in cells)

    def test_spot_values(self):
        t1 = mc.load_reference("mean_normal")
        cell = next(
            c for c in t1
            if c.family == "cusum" and c.hurst == 0.9 and c.n == 2000 and c.h == 0.0
        )
        assert cell.rate == pytest.approx(0.101)
        t3 = mc.load_reference("variance_pareto")
        cell = next(
            c for c in t3
            if c.family == "sn_wilcoxon" and c.hurst == 0.6 and c.n == 500
            and c.alpha == 4.5 and c.h == 1.0
        )
        assert cell.rate == pytest.approx(0.040)


class TestComparison:
    def test_identical_tables_give_zero_z(self):
        reference = mc.load_reference("mean_normal")
        result = mc.compare_to_reference(reference, reference)
        assert result.max_abs_z == 0.0
        assert not result.flagged

    def test_corrupted_cell_is_flagged(self):
        reference = mc.load_reference("mean_normal")
        local = list(reference)
        victim = local[0]
        corrupted = mc.CellResult(
            problem=victim.problem,
            family=victim.family,
            hurst=victim.hurst,
            n=victim.n,
            alpha=victim.alpha,
            h=victim.h,
            tau=victim.tau,
            level=victim.level,
            replications=victim.replications,
            rejections=victim.rejections + round(0.2 * victim.replications),
        )
        local[0] = corrupted
        result = mc.compare_to_reference(local, reference)
        assert len(result.flagged) == 1
        assert result.flagged[0].family == victim.family

    def test_grid_mismatch_raises(self):
        reference = mc.load_reference("mean_normal")
        stray = mc.CellResult(
            problem="mean", family="cusum", hurst=0.42, n=500, alpha=None,
            h=0.0, tau=0.5, level=0.05, replications=1000, rejections=50,
        )
        with pytest.raises(ValueError, match="no cell"):
            mc.compare_to_reference([stray], reference)
