"""Tests for the Monte Carlo experiment harness."""

import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import lmsvtest
from lmsvtest import asymp, fgn, lmsv, mc, stats
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

    def test_sha256_names_the_configuration(self):
        cfg = _small_cfg()
        assert cfg.sha256() == _small_cfg().sha256()
        assert cfg.sha256() == mc.ExperimentConfig.from_json(cfg.to_json()).sha256()
        assert re.fullmatch("[0-9a-f]{64}", cfg.sha256())
        assert _small_cfg(shifts=(0, 1)).sha256() == cfg.sha256()  # equal to (0.0, 1.0)
        assert _small_cfg(seed=8).sha256() != cfg.sha256()
        assert _small_cfg(shifts=(0.0, 2.0)).sha256() != cfg.sha256()
        # The counts do not depend on the worker count, nor does the name.
        assert {_small_cfg(max_workers=w).sha256() for w in (1, 2, 3)} == {cfg.sha256()}

    def test_sha256_resolves_no_plan(self, monkeypatch):
        # It hashed a copy of the config at one worker, which resolved every
        # plan of the grid again.
        cfg = mc.ExperimentConfig.load(resources.files("lmsvtest.data") / "table1_desk.json")
        calls = []
        monkeypatch.setattr(mc, "_grid_plans", lambda *args: calls.append(args))
        assert cfg.sha256() == "79340f677c7431c27c403bce1f52357abe240fff224c58abacab06a870343943"
        assert calls == []

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

    @pytest.mark.parametrize("shift", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_a_non_finite_shift(self, shift):
        # The mean-shift path would count no rejection at a NaN shift.
        with pytest.raises(ValueError, match="shifts must be finite"):
            _small_cfg(shifts=(0.0, shift))

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_rejects_nonpositive_variance_shift(self, h):
        with pytest.raises(ValueError, match="positive"):
            _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                       shifts=(1.0, h))

    @pytest.mark.parametrize("shift", [-1.5, -1.0])
    def test_rejects_a_tail_shift_to_a_nonpositive_index(self, shift):
        # At alpha + h = -0.5 the draws are no Pareto law, and at 0 they are
        # infinite; both grids are refused when the config is built.
        with pytest.raises(ValueError, match="post-change Pareto tail index"):
            _small_cfg(problem="tail", noise_kind="pareto", alphas=(1.0,), shifts=(0.0, shift),
                       hursts=(0.7,), lengths=(200,), replications=100)

    def test_rejects_a_tail_shift_whose_draws_overflow(self):
        # alpha + h = 0.001 is a tail index, but its draws c * u^(-1000) pass
        # the largest double below u = 0.5; the run failed after its tables.
        with pytest.raises(ValueError, match="post-change .* largest draw"):
            _small_cfg(problem="tail", noise_kind="pareto", alphas=(2.0,), shifts=(0.0, -1.999),
                       hursts=(0.7,), lengths=(200,), families=("cusum",), replications=100)

    @pytest.mark.parametrize("hurst", [0.5, 0.3])
    @pytest.mark.parametrize("family", mc.FAMILIES)
    def test_rejects_short_memory_hurst(self, family, hurst):
        with pytest.raises(mc.PlanError, match="H > 1/2"):
            _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                       shifts=(1.0,), families=(family,), hursts=(0.7, hurst))

    def test_brownian_mean_plans_do_not_use_hurst(self):
        cfg = _small_cfg(hursts=(0.3, 0.5), families=("cusum", "sn_cusum"))
        assert [key[1] for key in mc.required_tables(cfg)] == [0.5]

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

    @pytest.mark.parametrize("name, overrides", [
        ("families", {"families": ("cusum", "sn_cusum", "cusum")}),
        ("hursts", {"hursts": (0.7, 0.7)}),
        ("lengths", {"lengths": (120, 120)}),
        ("shifts", {"shifts": (0.0, 1.0, 0.0)}),
        ("alphas", {"problem": "variance", "noise_kind": "centered_pareto",
                    "alphas": (4.5, 4.5), "shifts": (1.0,), "hursts": (0.7,)}),
    ], ids=["families", "hursts", "lengths", "shifts", "alphas"])
    def test_rejects_a_repeated_grid_entry(self, name, overrides):
        # A repeated family or shift ran twice into one cell and doubled its
        # count; a repeated H, n or alpha gave two cells with one key.
        with pytest.raises(ValueError, match=f"{name} repeats an entry"):
            _small_cfg(**overrides)

    @pytest.mark.parametrize("overrides, name", [
        ({"replications": 100.5}, "replications"),
        ({"replications": True}, "replications"),
        ({"lengths": (120, 240.0)}, "lengths"),
        ({"max_workers": 2.0}, "max_workers"),
        ({"seed": 7.5}, "seed"),
    ], ids=["replications-float", "replications-bool", "length-float", "workers-float",
            "seed-float"])
    def test_rejects_a_non_integer_count(self, overrides, name):
        # A float count passed the range checks and failed deep in a run.
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            _small_cfg(**overrides)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        # RngStream reads a seed modulo 2^64: -1 gave the tables of 2^64 - 1.
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            _small_cfg(seed=seed)

    @pytest.mark.parametrize("budget, name", [
        ((300.5, 64), "path_count"), ((True, 64), "path_count"), ((300, 64.0), "path_length"),
    ], ids=["count-float", "count-bool", "length-float"])
    def test_table_budget_rejects_a_non_integer_count(self, budget, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            TableBudget(*budget)
        assert TableBudget(np.int64(300), 64).path_count == 300

    def test_from_json_refuses_an_unknown_key(self):
        text = _small_cfg().to_json().replace('"replications"', '"replicatons"')
        with pytest.raises(ValueError, match="replicatons"):
            mc.ExperimentConfig.from_json(text)

    def test_rejects_an_empty_family_list(self):
        with pytest.raises(ValueError, match="families, hursts, lengths, and shifts must be "
                                             "non-empty"):
            _small_cfg(families=())

    def test_rejects_missing_alphas(self):
        with pytest.raises(ValueError):
            _small_cfg(noise_kind="centered_pareto", alphas=())

    def test_rejects_alphas_with_normal_noise(self):
        # Normal noise has no tail index: each alpha would rerun the same
        # experiment under a label that means nothing.
        with pytest.raises(ValueError, match="normal noise"):
            _small_cfg(alphas=(3.0, 5.0), hursts=(0.7,), lengths=(100,), replications=100)

    def test_bundled_desk_config_loads(self):
        from importlib import resources

        text = (resources.files("lmsvtest.data") / "table1_desk.json").read_text()
        cfg = mc.ExperimentConfig.from_json(text)
        assert cfg.problem == "mean"
        assert len(cfg.hursts) * len(cfg.lengths) * len(cfg.shifts) == 24

    # Each grid below cannot run; it is refused at construction, before a row
    # or a table is computed.
    @pytest.mark.parametrize("lengths, match", [((500, 5), "trimmed window starts below k=1"),
                                                ((500, 1), "lengths must .* >= 2"),
                                                ((0,), "lengths must .* >= 2")])
    def test_rejects_an_unrunnable_length(self, lengths, match):
        with pytest.raises(ValueError, match=match):
            _small_cfg(lengths=lengths)

    def test_trimmed_window_binds_only_the_sn_families(self):
        assert _small_cfg(lengths=(5,), families=("cusum",)).lengths == (5,)

    @pytest.mark.parametrize("hurst, problem, families", [
        (1.0, "variance", ("cusum", "sn_wilcoxon")),
        (1.2, "mean", ("cusum",)),
        (1.0, "mean", ("sn_cusum",)),
        (0.0, "mean", ("cusum",)),
    ])
    def test_rejects_hurst_outside_the_unit_interval(self, hurst, problem, families):
        pareto = {"noise_kind": "centered_pareto", "alphas": (4.5,), "shifts": (1.0,)}
        with pytest.raises(mc.PlanError, match=r"must lie in \(0, 1\)"):
            _small_cfg(hursts=(0.7, hurst), problem=problem, families=families,
                       **(pareto if problem == "variance" else {}))


    # E X^2 is infinite at alpha <= 2. Such a grid is refused here, not after its tables.
    @pytest.mark.parametrize("problem, family, alpha", [
        ("variance", "cusum", 2.0), ("variance", "wilcoxon", 2.0), ("variance", "sn_cusum", 1.5),
        ("variance", "sn_wilcoxon", 2.0), ("mean", "cusum", 1.5), ("mean", "cusum", 2.0),
    ])
    def test_rejects_infinite_variance_plans(self, problem, family, alpha):
        with pytest.raises(mc.PlanError, match="finite innovation variance"):
            _small_cfg(problem=problem, noise_kind="centered_pareto", alphas=(alpha,),
                       shifts=(1.0,), families=(family,))

    def test_infinite_tail_index_is_refused_for_what_it_is(self):
        # It was refused for "a finite innovation variance, alpha > 2", and inf > 2.
        with pytest.raises(ValueError, match="finite alpha > 1") as err:
            _small_cfg(noise_kind="centered_pareto", alphas=(float("inf"),))
        assert "alpha > 2" not in str(err.value)

    def test_variance_that_underflows_is_refused(self):
        # At alpha = 1e308 the variance c^2 / alpha^2 reads 0.0, and (alpha - 1)^2
        # raised OverflowError.
        with pytest.raises(mc.PlanError, match="finite innovation variance above 0, got 0.0"):
            _small_cfg(noise_kind="centered_pareto", alphas=(1e308,))

    def test_out_of_domain_wilcoxon_factor_is_refused_before_a_table(self, monkeypatch):
        # Resolved without n, the plan never reached the factor, which was
        # refused only after the bridge table had been simulated.
        monkeypatch.setattr(asymp, "critical_values", _refuse_simulation)
        with pytest.raises(ValueError, match="mean Wilcoxon factor needs"):
            _small_cfg(noise_kind="centered_pareto", alphas=(1e7,), families=("wilcoxon",),
                       hursts=(0.75,), budget=TableBudget(3000, 1024))

    def test_heavy_tailed_mean_tests_without_sigma_are_kept(self):
        cfg = _small_cfg(noise_kind="centered_pareto", alphas=(1.5,),
                         families=("wilcoxon", "sn_cusum", "sn_wilcoxon"))
        assert cfg.alphas == (1.5,)


class TestResolvePlan:
    # Normalizations at H 0.7 and n 1000, pinned to the bit.
    @pytest.mark.parametrize("problem, family, kind, alpha, expected", [
        ("mean", "cusum", "normal", None, 85.95961900177693),
        ("mean", "cusum", "centered_pareto", 4.0, 40.52175300291232),
        ("mean", "wilcoxon", "centered_pareto", 4.0, 11618.265080408588),
        ("variance", "cusum", "centered_pareto", 4.5, 273.37284711525956),
        ("variance", "wilcoxon", "centered_pareto", 4.5, 26387.685056631522),
        ("tail", "cusum", "pareto", 1.0, 125.89254117941668),
    ])
    def test_normalizations_are_pinned(self, problem, family, kind, alpha, expected):
        plan = mc.resolve_plan(problem, family, 0.7, make_noise(kind, alpha), TrimSpec(), n=1000)
        assert plan.normalization == expected

    # The limit constant of each plan: at n = 1, sqrt(n) = d_{1,1} = 1, so the
    # normalization is the constant itself.
    @pytest.mark.parametrize("problem, family, kind, alpha, constant", [
        ("mean", "cusum", "normal", None, math.exp(1.0)),  # sqrt(1 * e^2)
        ("mean", "cusum", "centered_pareto", 4.0, math.sqrt(4.0 / 18.0 * math.exp(2.0))),
        # 2 e^2 alpha / ((alpha - 2)(alpha - 1)^2) at alpha = 4.5: 2.171478.
        ("variance", "cusum", "centered_pareto", 4.5, 2.0 * math.exp(2.0) * 4.5 / (2.5 * 3.5**2)),
        ("tail", "cusum", None, None, 1.0),
        ("variance", "wilcoxon", "centered_pareto", 4.5,
         asymp.wilcoxon_limit_factor("variance", 4.5).value),
        ("mean", "sn_cusum", "centered_pareto", 4.5, 1.0),
        ("variance", "sn_wilcoxon", "centered_pareto", 4.5, 1.0),
    ], ids=["mean-cusum-normal", "mean-cusum-pareto", "variance-cusum", "tail-cusum",
            "variance-wilcoxon", "mean-sn_cusum", "variance-sn_wilcoxon"])
    def test_limit_constants(self, problem, family, kind, alpha, constant):
        noise = None if kind is None else make_noise(kind, alpha)
        plan = mc.resolve_plan(problem, family, 0.7, noise, TrimSpec(), n=1)
        assert plan.normalization == pytest.approx(constant)

    def test_given_sigma_skips_the_variance_check(self):
        plan = mc.resolve_plan("mean", "cusum", None, make_noise("centered_pareto", 1.5),
                               TrimSpec(), n=100, sigma=2.0)
        assert plan.normalization == 20.0

    @pytest.mark.parametrize("problem, family, hurst, kind, n, match", [
        ("drift", "cusum", 0.7, None, None, "unknown problem 'drift'"),
        ("variance", "cusum", 0.7, "normal", None,
         "the variance problem needs centered_pareto innovations, got normal"),
        ("mean", "cusum", None, None, 100, "needs sigma or the innovation law"),
        ("variance", "cusum", 0.7, None, 100, "needs the innovation tail index alpha"),
        ("tail", "wilcoxon", 0.7, None, 100, "no limit theory .* in the tail problem"),
        ("mean", "wilcoxon", 0.7, "normal", 100, "degenerates under normal noise"),
    ], ids=["unknown-problem", "variance-normal", "mean-cusum-no-law", "variance-no-law",
            "tail-wilcoxon", "mean-wilcoxon-normal"])
    def test_a_plan_outside_the_theory_is_refused(self, problem, family, hurst, kind, n, match):
        noise = None if kind is None else make_noise(kind)
        with pytest.raises(mc.PlanError, match=match):
            mc.resolve_plan(problem, family, hurst, noise, TrimSpec(), n=n)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_sigma_not_finite_and_positive_is_refused(self, sigma):
        with pytest.raises(mc.PlanError, match="finite sigma > 0"):
            mc.resolve_plan("mean", "cusum", None, None, TrimSpec(), n=100, sigma=sigma)

    def test_sigma_binds_only_the_mean_cusum(self):
        # The CLI passes the series' standard deviation to every plan; it is
        # zero for a constant series, which the SN plans still take.
        plan = mc.resolve_plan("mean", "sn_cusum", None, None, TrimSpec(), n=100, sigma=0.0)
        assert plan.normalization == 1.0


class TestTables:
    def test_run_experiment_completes_a_partial_table_set(self, monkeypatch):
        # A provided set follows the rule of `experiment --tables`: the tables
        # it lacks come from the package grid, so the counts equal a run
        # given the complete set.
        cfg = _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                         shifts=(1.0,), families=("cusum", "sn_cusum"), replications=100,
                         budget=TableBudget())
        complete = mc.ensure_tables(cfg)
        bridge = complete.find(TableFamily.CUSUM_BRIDGE_SUP, 0.6, None)[0]
        monkeypatch.setattr(asymp, "critical_values", _refuse_simulation)
        partial = mc.run_experiment(cfg, tables=mc.TableSet([(bridge, "loaded")]))
        sources = {v["family"]: v["source"] for v in partial.meta["tables"]}
        assert sources == {"cusum_bridge_sup": "loaded", "sn_ratio": "package"}
        assert partial.cells == mc.run_experiment(cfg, tables=complete).cells

    def test_simulated_tables_run_on_max_workers_threads(self, monkeypatch):
        workers = []
        simulate = asymp.critical_values

        def spy(*args, **kwargs):
            workers.append(kwargs["workers"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(asymp, "critical_values", spy)
        mc.ensure_tables(_small_cfg(budget=TableBudget(200, 64), max_workers=2))
        assert workers == [2]

    def test_required_tables_mean_problem(self):
        cfg = _small_cfg(hursts=(0.6, 0.9))
        needed = mc.required_tables(cfg)
        # CUSUM in the mean problem uses the analytic Kolmogorov value, and
        # the SN-CUSUM limit is Brownian, so one SN table at H = 0.5 suffices.
        assert len(needed) == 1
        family, hurst, trim = needed[0]
        assert (family.value, hurst) == ("sn_ratio", 0.5)

    def test_required_tables_variance_problem(self):
        cfg = _small_cfg(
            problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
            families=("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"),
            shifts=(1.0,), hursts=(0.6,),
        )
        needed = {(f.value, h) for f, h, _ in mc.required_tables(cfg)}
        assert needed == {("cusum_bridge_sup", 0.6), ("sn_ratio", 0.6)}


def _fake_table(family, hurst, path_count, path_length, trim=None):
    # A hand-made table: only its key, its budget and its quantiles matter here.
    return CriticalValueTable(
        family=family, hurst=hurst, trim=trim,
        quantiles={0.9: 1.0, 0.95: 1.2, 0.99: 1.5},
        meta={"path_count": path_count, "path_length": path_length},
    )


class TestTableLookup:
    @pytest.mark.parametrize("budget", [(1_999, 512), (2_000, 256), (200, 64)])
    def test_loaded_table_below_budget_is_refused(self, budget):
        cfg = _small_cfg()
        small = _fake_table(TableFamily.SN_RATIO, 0.5, *budget, trim=cfg.trim)
        with pytest.raises(ValueError, match="below the requested 2000 x 512"):
            mc.ensure_tables(cfg, existing=mc.TableSet([(small, "loaded")]))

    @pytest.mark.parametrize("quantiles, budget, match", [
        ({0.9: 1.0}, (10_000, 2_048), r"bridge_sup H=0.65 lacks the level 0.95 \(has \[0.9\]\)"),
        ({0.9: 1.0, 0.95: 1.2, 0.99: 1.5}, (1_000, 2_048),
         "H=0.65 has budget 1000 x 2048, below the requested 2000 x 512"),
    ], ids=["level", "budget"])
    def test_loaded_table_is_refused_before_any_table_is_simulated(self, monkeypatch, quantiles,
                                                                  budget, match):
        # The loaded bridge table is the second key; the SN table of the
        # first was simulated before the loaded one was refused.
        cfg = _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                         hursts=(0.65,), shifts=(1.0,), families=("sn_cusum", "cusum"))
        assert [key[0] for key in mc.required_tables(cfg)] == [TableFamily.SN_RATIO,
                                                                TableFamily.CUSUM_BRIDGE_SUP]
        bridge = CriticalValueTable(TableFamily.CUSUM_BRIDGE_SUP, 0.65, None, quantiles,
                                    {"path_count": budget[0], "path_length": budget[1]})
        monkeypatch.setattr(asymp, "critical_values", _refuse_simulation)
        with pytest.raises(ValueError, match=match):
            mc.ensure_tables(cfg, existing=mc.TableSet([(bridge, "loaded")]))

    def test_provided_table_below_budget_is_refused_by_run_experiment(self):
        cfg = _small_cfg()
        small = _fake_table(TableFamily.SN_RATIO, 0.5, 200, 64, trim=cfg.trim)
        with pytest.raises(ValueError, match="200 x 64, below the requested 2000 x 512"):
            mc.run_experiment(cfg, tables=mc.TableSet([(small, "loaded")]))

    @pytest.mark.parametrize("budget", [(2_000, 512), (4_000, 512), (2_000, 1_024)])
    def test_loaded_table_at_or_above_budget_is_used(self, monkeypatch, budget):
        cfg = _small_cfg()
        table = _fake_table(TableFamily.SN_RATIO, 0.5, *budget, trim=cfg.trim)
        monkeypatch.setattr(asymp, "critical_values", _refuse_simulation)
        tables = mc.ensure_tables(cfg, existing=mc.TableSet([(table, "loaded")]))
        assert tables.find(TableFamily.SN_RATIO, 0.5, cfg.trim) == (table, "loaded")

    def test_meta_records_each_table_source(self):
        # Mean SN-CUSUM needs the H = 0.5 SN table; variance CUSUM a bridge
        # table at the row's H.
        cfg = _small_cfg(problem="variance", noise_kind="centered_pareto", alphas=(4.5,),
                         hursts=(0.6, 0.7), shifts=(1.0,), families=("cusum",),
                         replications=100, budget=TableBudget())
        loaded = _fake_table(TableFamily.CUSUM_BRIDGE_SUP, 0.6, 10_000, 2_048)
        existing = mc.TableSet([(loaded, "loaded")])
        report = mc.run_experiment(cfg, mc.ensure_tables(cfg, existing=existing))
        sources = {v["hurst"]: v["source"] for v in report.meta["tables"]}
        assert sources == {0.6: "loaded", 0.7: "package"}

        simulated = mc.run_experiment(_small_cfg())
        [entry] = simulated.meta["tables"]
        assert entry["source"] == "simulated"
        assert (entry["meta"]["path_count"], entry["meta"]["path_length"]) == (2_000, 512)

    def test_table_stream_keeps_the_experiment_convention(self):
        stream = mc.table_stream(7, TableFamily.SN_RATIO, 0.5)
        assert stream == RngStream(7).substream(0xC71).substream(2, 1, mc._float_key(0.5))
        bridge = mc.table_stream(7, TableFamily.CUSUM_BRIDGE_SUP, 0.5)
        assert bridge == RngStream(7).substream(0xC71).substream(1, 1, mc._float_key(0.5))


def _refuse_simulation(*args, **kwargs):
    raise AssertionError("a critical-value table was simulated")


_SHIPPED_HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9)


class TestPackageGrid:
    def test_read_of_the_package_directory_is_the_package_grid(self):
        # One reader serves --tables and the package grid, so the shipped
        # directory read as a path holds the grid's tables, key by key.
        with resources.as_file(resources.files("lmsvtest.data") / "tables") as directory:
            loaded = mc.TableSet.read(directory)
        package = mc._package_tables()
        assert len(package._entries) == 10 and loaded._entries.keys() == package._entries.keys()
        for key, (table, source) in package._entries.items():
            assert source == "package" and loaded._entries[key] == (table, "loaded")

    def test_shipped_files_cover_exactly_the_grid(self):
        directory = resources.files("lmsvtest.data") / "tables"
        files = sorted(f.name for f in directory.iterdir())
        assert len(files) == 10
        keys = set()
        for name in files:
            text = (directory / name).read_text()
            table = CriticalValueTable.from_json(text)
            assert json.loads(text)["m"] == 1
            assert sorted(table.quantiles) == [0.9, 0.95, 0.99]
            assert (table.meta["path_count"], table.meta["path_length"]) == (10_000, 2_048)
            assert table.meta["seed"] == 0
            assert table.meta["stream_id"] == mc.table_stream(
                0, table.family, table.hurst).stream_id
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

    def test_import_loads_no_pool_machinery(self):
        # multiprocessing pulls in socket and subprocess, concurrent.futures
        # pulls in logging: only a pool needs them.
        code = ("import sys, lmsvtest.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        src = str(Path(mc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert out.strip() == "[]"

    def test_one_worker_loads_no_pool_machinery_and_starts_no_thread(self):
        # A one-worker table and a two-row experiment at one worker run every
        # item in the calling thread, with nothing imported for threads.
        code = """if True:
            import sys, threading
            from lmsvtest import asymp, mc
            from lmsvtest.dist import RngStream
            asymp.critical_values(asymp.TableFamily.CUSUM_BRIDGE_SUP, 1, 0.5, RngStream(1),
                                  budget=asymp.TableBudget(1_100, 64), workers=1)
            cfg = mc.ExperimentConfig(
                problem="mean", noise_kind="normal", hursts=(0.6, 0.8), lengths=(120,),
                shifts=(0.0, 1.0), families=("cusum",), replications=100, seed=7,
                budget=asymp.TableBudget(500, 256), max_workers=1)
            assert len(mc.run_experiment(cfg).cells) == 4
            print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)),
                  threading.active_count())
        """
        src = str(Path(mc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert out.strip() == "[] 1"

    def test_runs_without_scipy(self, tmp_path):
        # The import, and each path that used scipy: the Kolmogorov quantile
        # (a mean cusum run), the Wilcoxon factor (a variance wilcoxon test)
        # and the quantile intervals (a critvals table).
        code = f"""if True:
            import json, sys
            import lmsvtest, lmsvtest.cli as cli, lmsvtest.mc as mc
            def scipy_modules():
                return sorted(m for m in sys.modules if m.startswith("scipy"))
            found = {{"import": scipy_modules()}}
            mc.run_experiment(mc.ExperimentConfig(
                problem="mean", noise_kind="normal", hursts=(0.6,), lengths=(120,),
                shifts=(0.0,), families=("cusum",), replications=100, seed=7))
            found["mean cusum"] = scipy_modules()
            series = r"{tmp_path / 'variance.csv'}"
            codes = [cli.main(["simulate", "--n", "500", "--hurst", "0.7", "--noise",
                               "centered-pareto", "--alpha", "4.5", "--seed", "1",
                               "--out", series])]
            codes.append(cli.main(["test", "--input", series, "--problem", "variance",
                                   "--family", "wilcoxon", "--hurst", "0.7", "--alpha", "4.5"]))
            found["variance wilcoxon"] = scipy_modules()
            codes.append(cli.main(["critvals", "--family", "bridge", "--hurst", "0.8",
                                   "--paths", "200", "--grid", "64",
                                   "--out", r"{tmp_path / 'bridge.json'}"]))
            found["critvals"] = scipy_modules()
            print(json.dumps({{"codes": codes, "found": found}}))
        """
        src = str(Path(mc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        assert result["found"] == {"import": [], "mean cusum": [], "variance wilcoxon": [],
                                   "critvals": []}


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

    def test_a_cell_lookup_matches_exactly_one_cell(self):
        report = mc.ExperimentReport(cells=mc.load_reference("mean_normal"), meta={})
        assert report.cell(family="cusum", hurst=0.6, n=500, h=0.0).rate == 0.046
        with pytest.raises(KeyError, match="0 cells match"):
            report.cell(family="wilcoxon")
        with pytest.raises(KeyError, match="48 cells match"):
            report.cell(family="cusum")

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

    def test_worker_pool_matches_serial(self, monkeypatch):
        # Four rows on one, two and three workers: the same cells, in grid order.
        # Every row runs in this process, on the calling thread and at most
        # workers - 1 others.
        ran = []
        evaluate_row = mc._evaluate_row

        def recording(*args):
            ran.append((os.getpid(), threading.get_ident()))
            return evaluate_row(*args)

        monkeypatch.setattr(mc, "_evaluate_row", recording)
        cells = []
        for workers in (1, 2, 3):
            ran.clear()
            cells.append(mc.run_experiment(_small_cfg(hursts=(0.6, 0.8), lengths=(80, 120),
                                                      max_workers=workers)).cells)
            assert len(ran) == 4 and {pid for pid, _ in ran} == {os.getpid()}
            others = {thread for _, thread in ran} - {threading.get_ident()}
            assert len(others) <= workers - 1, (workers, len(others))
        assert len(cells[0]) == 16
        assert cells[1] == cells[0] and cells[2] == cells[0]

    def test_rows_on_two_workers_run_from_standard_input(self, tmp_path):
        # A script read from standard input has no importable __main__: a
        # process pool that spawned its workers failed there (BrokenProcessPool).
        script = f"""if True:
            from lmsvtest import asymp, mc
            cfg = mc.ExperimentConfig(
                problem="mean", noise_kind="normal", hursts=(0.6, 0.8), lengths=(120,),
                shifts=(0.0, 1.0), families=("cusum", "sn_cusum"), replications=200,
                seed=7, budget=asymp.TableBudget(500, 256), max_workers=2)
            mc.cells_to_csv(mc.run_experiment(cfg).cells, r"{tmp_path / 'cells.csv'}")
        """
        src = str(Path(mc.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-"], input=script, capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONPATH": src})
        assert len(mc.cells_from_csv(tmp_path / "cells.csv")) == 8

    def test_max_workers_defaults_to_the_cpus_of_the_process(self):
        assert _small_cfg().max_workers == asymp.default_workers() >= 1

    def test_meta_records_tables_and_seed(self):
        report = mc.run_experiment(_small_cfg())
        assert report.meta["seed"] == 7
        assert report.meta["tables"]
        assert report.meta["wall_time_seconds"] >= 0

    def test_meta_records_versions_and_config_hash(self):
        cfg = _small_cfg()
        meta = mc.run_experiment(cfg).meta
        assert meta["config_sha256"] == cfg.sha256()
        assert meta["versions"] == {"lmsvtest": lmsvtest.__version__,
                                    "python": platform.python_version(),
                                    "numpy": np.__version__}


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
    @pytest.mark.parametrize("name", ["variance", "tail", "mean_normal", "mean_centered_pareto"])
    def test_counts_do_not_depend_on_chunk_size(self, monkeypatch, name):
        # Two rows at two workers; the chunks counted are those the rows ran,
        # so the patched chunk size is seen on every worker.
        cfg = _small_cfg(replications=150, hursts=(0.6, 0.8), max_workers=2,
                         **_ENGINE_CASES[name])
        tables = mc.ensure_tables(cfg)
        chunks, drawn = [], set()
        simulate_batch = lmsv.simulate_batch

        def counting(params, noise, change, streams):
            chunks.append(len(streams))
            drawn.add(change)
            return simulate_batch(params, noise, change, streams)

        monkeypatch.setattr(lmsv, "simulate_batch", counting)

        def counts():
            chunks.clear()
            return [(c.family, c.h, c.rejections) for c in mc.run_experiment(cfg, tables).cells]

        default = counts()
        assert chunks == [150, 150]
        assert drawn == {lmsv.NoChange()}  # every row draws its null chunk alone
        width = fgn.embedding_size(cfg.lengths[0])
        for normals, rows in ((1, 1), (7 * width, 7)):
            monkeypatch.setattr(fgn, "BLOCK_NORMALS", normals)
            assert fgn.block_rows(cfg.lengths[0]) == rows
            assert counts() == default
            assert len(chunks) == 2 * -(-150 // rows) and max(chunks) == rows

    def test_chunk_rule(self):
        assert [fgn.block_rows(n) for n in (120, 300, 500, 1000, 2000)] == [512, 128, 128, 64, 32]
        assert fgn.block_rows(300_000) == 1
        # tests/test_golden.py runs 150 replications at n = 300: one full
        # chunk, then a partial one.
        rows = fgn.block_rows(300)
        assert rows < 150 < 2 * rows

    def test_a_row_holds_one_chunk_not_its_profiles(self):
        # One n = 2000 variance row, all four families, at one worker: 32
        # replications of 4096 normals per chunk, and per-row suprema. Chunks
        # of 64 that kept every (64, 2000) profile peaked at 15.6 MiB.
        cfg = mc.ExperimentConfig(
            problem="variance", noise_kind="centered_pareto", alphas=(4.5,), hursts=(0.7,),
            lengths=(2000,), shifts=(1.0, 2.0), families=mc.FAMILIES, replications=100,
            seed=3, budget=TableBudget(500, 256))
        plans = mc._grid_plans(cfg, mc.ensure_tables(cfg))[0.7, 2000, 4.5]
        row = lambda: mc._evaluate_row(cfg, 0.7, 2000, 4.5, plans)
        counts = row()  # warm: the eigenvalues, the weights and the FFT plans
        tracemalloc.start()
        try:
            assert row() == counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak / 2**20

    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_paths_follow_simulate_series_layout(self, name):
        cfg = _small_cfg(**_ENGINE_CASES[name])
        hurst, n = cfg.hursts[0], cfg.lengths[0]
        alpha = cfg.alpha_grid[0]
        base = mc._row_stream(cfg, hurst, n, alpha)
        rows = fgn.block_rows(n)
        streams = [base.substream(rep) for rep in range(rows)]
        for h in cfg.shifts:
            spec = lmsv.SeriesSpec(fgn.FgnParams(hurst, n), make_noise(cfg.noise_kind, alpha),
                                   _CHANGES[cfg.problem](h, cfg.tau))
            _, _, paths = lmsv.simulate_batch(spec.fgn, spec.noise, spec.change, streams)
            for rep in (0, 1, rows - 1):
                assert np.array_equal(paths[rep], lmsv.simulate_series(spec, base.substream(rep)))


def _null_chunk(hurst, n, noise, rows=64, seed=31):
    return lmsv.simulate_batch(fgn.FgnParams(hurst, n), noise, lmsv.NoChange(),
                               RngStream(seed).substreams(range(rows)))[2]


def _shifted(x0, cut, h):
    x = x0.copy()
    x[:, cut:] += h
    return x


def _shift_sups(problem, families, x0, cut, shifts, trim=TrimSpec(), noise=None, eps=None):
    """stats.shift_sups of the null chunk x0 by the rule of lmsv.shift_rule,
    which reads the noise and the innovations eps for the tail alone."""
    direction, gain = lmsv.shift_rule(problem, noise, cut, eps)
    return stats.shift_sups(families, x0, mc.PROBLEM_TRANSFORM[problem], direction,
                            {h: gain(h) for h in shifts}, trim)


def _check_row_counts(name, n, shifts):
    """A row's counts are those of evaluating each shifted chunk that
    simulate_batch draws on the row's streams, and the shifts give different
    counts."""
    cfg = _small_cfg(lengths=(n,), **{**_ENGINE_CASES[name], "shifts": shifts})
    hurst, alpha = cfg.hursts[0], cfg.alpha_grid[0]
    plans = mc._grid_plans(cfg, mc.ensure_tables(cfg))[hurst, n, alpha]
    streams = mc._row_stream(cfg, hurst, n, alpha).substreams(range(cfg.replications))
    expected = {}
    for h in cfg.shifts:
        _, _, x = lmsv.simulate_batch(fgn.FgnParams(hurst, n), make_noise(cfg.noise_kind, alpha),
                                      lmsv.CHANGES[cfg.problem](h, cfg.tau), streams)
        results = stats.evaluate(cfg.families, x, mc.PROBLEM_TRANSFORM[cfg.problem], cfg.trim)
        for plan in plans:
            value = results[plan.family].sup_value / plan.normalization
            expected[plan.family, h] = int(np.count_nonzero(value > plan.critical_value))
    cells = mc._evaluate_row(cfg, hurst, n, alpha, plans)
    assert {(c.family, c.h): c.rejections for c in cells} == expected
    assert len(set(expected.values())) > 2  # the shifts give different counts


class TestMeanShiftReuse:
    """Mean rows take every shift of every family from the null chunk
    (stats.shift_sups under the mean rule of lmsv.shift_rule): the sum
    families from its bridge, the rank families from each shifted block."""

    @pytest.mark.parametrize("n", [500, 2000])
    def test_sups_match_evaluate_on_each_shifted_series(self, n):
        # 0 and 1 are the desk shifts; 0.37, 2.5 and -4 are not.
        shifts, families, trim = (0.0, 1.0, 0.37, 2.5, -4.0), mc.FAMILIES, TrimSpec()
        cut = lmsv.change_point_index(n, 0.5)
        x0 = _null_chunk(0.8, n, make_noise("normal"))
        sups = _shift_sups("mean", families, x0, cut, shifts, trim)
        for h in shifts:
            results = stats.evaluate(families, _shifted(x0, cut, h), trim=trim)
            for family in ("cusum", "sn_cusum"):
                np.testing.assert_allclose(sups[family, h], results[family].sup_value,
                                           rtol=1e-10, atol=0)
            for family in ("wilcoxon", "sn_wilcoxon"):
                assert np.array_equal(sups[family, h], results[family].sup_value)
        at_zero = stats.evaluate(families, x0, trim=trim)
        for family in families:
            assert np.array_equal(sups[family, 0.0], at_zero[family].sup_value)

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e155])
    def test_extreme_scales_read_as_each_shifted_chunk(self, scale):
        # The scale rule of evaluate holds for every shift: the mean path
        # read inf at 1e-170, a value 4.7e-6 off at 1e-160, and refused
        # 1e155 as NaN. At h = 1 a chunk of 1e-170 is piecewise constant
        # to the doubles, and both read its degenerate +inf.
        n, families = 500, mc.FAMILIES
        cut = lmsv.change_point_index(n, 0.5)
        x0 = _null_chunk(0.8, n, make_noise("normal"), rows=16) * scale
        sups = _shift_sups("mean", families, x0, cut, (0.0, 1.0))
        for h in (0.0, 1.0):
            expected = stats.evaluate(families, _shifted(x0, cut, h))
            for family in families:
                if h == 0.0:
                    assert np.array_equal(sups[family, h], expected[family].sup_value), family
                else:
                    np.testing.assert_allclose(sups[family, h], expected[family].sup_value,
                                               rtol=1e-10, atol=0, err_msg=family)

    @pytest.mark.parametrize("h", [0.0, 0.25, 0.5, 1.0])
    def test_heavy_tails_read_as_each_shifted_chunk(self, h):
        # Centered Pareto innovations at alpha = 2.5, the Table 2 cells that
        # disagree with the published power: the rank families are the
        # ranks of the shifted chunk bit for bit, and the sum families its
        # bridge to rounding (1.1e-12 relative here, as before the rank
        # families shared the pass).
        n, families = 500, mc.FAMILIES
        cut = lmsv.change_point_index(n, 0.5)
        x0 = _null_chunk(0.9, n, make_noise("centered_pareto", 2.5), rows=128)
        sups = _shift_sups("mean", families, x0, cut, (h,))
        expected = stats.evaluate(families, _shifted(x0, cut, h))
        for family in ("wilcoxon", "sn_wilcoxon"):
            assert np.array_equal(sups[family, h], expected[family].sup_value), family
        for family in ("cusum", "sn_cusum"):
            np.testing.assert_allclose(sups[family, h], expected[family].sup_value, rtol=1e-10,
                                       atol=0, err_msg=family)

    def test_a_shift_that_ties_every_row_reads_its_pair_counts(self):
        # At h = 1e17 the post-change values of a centered-Pareto chunk round
        # together, so every row is tied and its wilcoxon profile comes from
        # its pair counts, in O(n log n).
        n, h = 2000, 1e17
        cut = lmsv.change_point_index(n, 0.5)
        x0 = _null_chunk(0.7, n, make_noise("centered_pareto", 4.5), rows=32)
        sups = _shift_sups("mean", ("wilcoxon",), x0, cut, (h,))
        x = _shifted(x0, cut, h)
        assert stats._ranked(x)[1].all()
        assert np.array_equal(sups["wilcoxon", h], stats.wilcoxon(x).sup_value)
        assert sups["wilcoxon", h][0] == stats.wilcoxon_by_definition(x[0]).sup_value

    @pytest.mark.parametrize("name", ["mean_normal", "mean_centered_pareto"])
    @pytest.mark.parametrize("n", [500, 2000])
    def test_row_counts_equal_per_shift_evaluation(self, name, n):
        _check_row_counts(name, n, (0.0, 0.37, 1.0, 2.5))


#: The noise and the shifts of each problem's null chunk, the first shift at g = 0.
_SHIFT_CASES = {
    "mean": (make_noise("centered_pareto", 2.5), (0.0, 1.0, 0.37, -4.0)),
    "variance": (make_noise("centered_pareto", 4.5), (1.0, 2.0, 0.37, 3.5)),
    "tail": (make_noise("pareto", 1.0), (0.0, 0.5, -0.5, 2.0)),
}


def _shifted_chunks(problem, n, rows=64, seed=31):
    """(eps, x0) of a null chunk and the x of each shift of _SHIFT_CASES, each
    drawn on the same streams."""
    noise, shifts = _SHIFT_CASES[problem]
    streams = RngStream(seed).substreams(range(rows))

    def draw(change):
        return lmsv.simulate_batch(fgn.FgnParams(0.7, n), noise, change, streams)

    _, eps, x0 = draw(lmsv.NoChange())
    return eps, x0, [draw(lmsv.CHANGES[problem](h, 0.5))[2] for h in shifts]


class TestShiftRule:
    """Variance and tail rows read every shift from their null chunk too, by
    one rule (lmsv.shift_rule, stats.shift_sups), as mean rows do."""

    @pytest.mark.parametrize("problem", ["mean", "variance", "tail"])
    def test_direction_and_gain_make_each_shifted_chunk(self, problem):
        # z0 + g D is the transformed chunk of each change, to rounding, and
        # D is 0 up to the cut.
        n = 500
        cut = lmsv.change_point_index(n, 0.5)
        noise, shifts = _SHIFT_CASES[problem]
        eps, x0, shifted = _shifted_chunks(problem, n)
        transform = mc.PROBLEM_TRANSFORM[problem]
        direction, gain = lmsv.shift_rule(problem, noise, cut, eps)
        z0 = transform.apply(x0)
        d = direction(slice(0, len(x0)), z0)
        assert d.shape == ((1, n) if problem == "mean" else z0.shape)
        assert not d[:, :cut].any() and d[:, cut:].all()
        assert gain(shifts[0]) == 0.0
        for h, x in zip(shifts, shifted):
            np.testing.assert_allclose(z0 + gain(h) * d, transform.apply(x), rtol=1e-12,
                                       atol=1e-12, err_msg=f"h = {h}")

    @pytest.mark.parametrize("problem", ["variance", "tail"])
    @pytest.mark.parametrize("n", [500, 2000])
    def test_sups_match_row_sups_of_each_shifted_chunk(self, problem, n):
        # The sum families to rounding; the variance rank families bit for
        # bit; every family at g = 0 bit for bit as the null chunk reads.
        cut = lmsv.change_point_index(n, 0.5)
        noise, shifts = _SHIFT_CASES[problem]
        eps, x0, shifted = _shifted_chunks(problem, n)
        sups = _shift_sups(problem, mc.FAMILIES, x0, cut, shifts, noise=noise, eps=eps)
        for h, x in zip(shifts, shifted):
            expected = stats.evaluate(mc.FAMILIES, x, mc.PROBLEM_TRANSFORM[problem])
            for family in mc.FAMILIES:
                sup = expected[family].sup_value
                if h == shifts[0] or (problem, family) in (("variance", "wilcoxon"),
                                                           ("variance", "sn_wilcoxon")):
                    assert np.array_equal(sups[family, h], sup), (family, h)
                elif family in ("cusum", "sn_cusum"):
                    np.testing.assert_allclose(sups[family, h], sup, rtol=1e-10,
                                               atol=0, err_msg=f"{family} at h = {h}")

    @pytest.mark.parametrize("name, shifts", [("variance", (0.37, 1.0, 2.0, 2.5)),
                                              ("tail", (0.0, 0.37, 1.0, 2.5))])
    @pytest.mark.parametrize("n", [500, 2000])
    def test_row_counts_equal_per_shift_evaluation(self, name, shifts, n):
        _check_row_counts(name, n, shifts)

    def test_a_gain_past_the_doubles_is_refused_by_its_h(self):
        # A variance scale of 1e160 has the gain h^2 - 1 = inf, and inf times
        # the zeros of D before the cut is NaN: refused, not ranked.
        eps, x0, _ = _shifted_chunks("variance", 200, rows=4)
        with pytest.raises(ValueError, match=r"the gain at h = 1e\+160 is inf"):
            _shift_sups("variance", ("wilcoxon",), x0, 100, (1.0, 1e160))


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

    def test_cells_csv_reads_back_every_coordinate(self, tmp_path):
        # %g wrote H = 0.6666666666 as 0.666667, a cell that no longer equals
        # itself; a value %g keeps exactly is still written short.
        cell = mc.CellResult(
            problem="variance", family="cusum", hurst=0.6666666666, n=500, alpha=4.5,
            h=1 / 3, tau=0.5, level=0.0123456789, replications=1000, rejections=7,
        )
        path = tmp_path / "cells.csv"
        mc.cells_to_csv([cell], path)
        assert mc.cells_from_csv(path) == [cell]
        row = path.read_text().splitlines()[1]
        assert row.startswith("variance,cusum,0.6666666666,500,4.5,0.3333333333333333,0.5,"
                              "0.0123456789,1000,7,")

    @pytest.mark.parametrize("read", [mc.cells_from_csv, mc.reference_from_csv],
                             ids=["cells", "reference"])
    def test_refuses_an_empty_file_and_a_short_row(self, tmp_path, read):
        path = tmp_path / "table.csv"
        if read is mc.cells_from_csv:
            mc.cells_to_csv(mc.load_reference("mean_normal"), path)
        else:
            path.write_text((resources.files("lmsvtest.data") / "table1_mean_normal.csv")
                            .read_text())
        header, row, *_ = path.read_text().splitlines()
        assert len(read(path)) == 96
        path.write_text("")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} is empty"):
            read(path)
        path.write_text(f"{header}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} has a header and no cells"):
            read(path)
        path.write_text(f"{header}\n{row}\n{row.rsplit(',', 1)[0]}\n")
        with pytest.raises(ValueError, match="line 3 of .* fields"):
            read(path)

    def test_refuses_the_other_format(self, tmp_path):
        # A published table read as a cells file, by its header.
        path = tmp_path / "table.csv"
        path.write_text((resources.files("lmsvtest.data") / "table1_mean_normal.csv").read_text())
        with pytest.raises(ValueError, match="unexpected header .* expected"):
            mc.cells_from_csv(path)

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
        assert result.flagged[0].cell.family == victim.family

    def test_grid_mismatch_raises(self):
        reference = mc.load_reference("mean_normal")
        stray = mc.CellResult(
            problem="mean", family="cusum", hurst=0.42, n=500, alpha=None,
            h=0.0, tau=0.5, level=0.05, replications=1000, rejections=50,
        )
        with pytest.raises(ValueError, match="no cell"):
            mc.compare_to_reference([stray], reference)

    def test_a_published_rate_reads_as_its_nearest_unrounded_value(self):
        # Table 1 at seed 777: cusum, H = 0.8, n = 1000, h = 1 read 998 of 1000
        # against a published 1.000 of 5000, z = -3.16 and a flag. The
        # published rate is rounded to three decimals, so it may be 0.9995.
        [published] = [c for c in mc.load_reference("mean_normal")
                       if (c.family, c.hurst, c.n, c.h) == ("cusum", 0.8, 1000, 1.0)]
        assert (published.rate, published.replications) == (1.0, 5000)
        local = mc.CellResult("mean", "cusum", 0.8, 1000, None, 1.0, 0.5, 0.05, 1000, 998)
        [row] = mc.compare_to_reference([local], [published]).rows
        assert not row.flagged and row.z_score == pytest.approx(-1.58, abs=0.005)
        assert row.reference is published

    @pytest.mark.parametrize("max_z", [float("nan"), -1.0, float("inf")])
    def test_max_z_nan_or_negative_is_refused(self, max_z):
        # inf flags no cell either, not even one whose z is infinite.
        reference = mc.load_reference("mean_normal")
        with pytest.raises(ValueError, match="max_z must be finite and >= 0"):
            mc.compare_to_reference(reference, reference, max_z=max_z)
