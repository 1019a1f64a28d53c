"""Spans around the calls into lmsvtest's modules, installed from outside.

install() replaces every public function of the seven modules, wherever a
module holds it by name, with a wrapper that records a span
[name, start, end, parent index, attributes] in memory. That covers the
names `mc` and `cli` import from other modules (`mc` calls `dnm_exact`,
`hermite_rank_and_coeff` and `kolmogorov_quantile` of `asymp` by bare name).
`RngStream.generator` is wrapped on the class, and the private row worker
`mc._evaluate_row` too, so that replication time can be split by series
length. layer_metrics() turns the spans into the per-layer metrics.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("mc", "fgn", "dist", "stats", "asymp", "lmsv", "cli")
KERNELS = ("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon")
LENGTHS = (500, 1000, 2000)


def _sample_attrs(args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"n": args[0].n, "paths": 1 if size is None else size}


def _row_attrs(args, kwargs):
    return {"n": args[2], "reps": args[0].replications}


def _table_attrs(args, kwargs):
    from lmsvtest import asymp

    return {"paths": kwargs.get("budget", asymp.TableBudget()).path_count}


ATTRS = {
    "fgn.sample": _sample_attrs,
    "mc._evaluate_row": _row_attrs,
    "asymp.critical_values": _table_attrs,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock, attrs = self.spans, self._stack, time.perf_counter, ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          attrs(args, kwargs) if attrs else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def install():
    import importlib

    from lmsvtest.dist import RngStream

    modules = {short: importlib.import_module(f"lmsvtest.{short}") for short in MODULES}
    recorder = Recorder()
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
    row = modules["mc"]._evaluate_row
    wrappers[row] = recorder.wrap("mc._evaluate_row", row)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    RngStream.generator = recorder.wrap("dist.generator", RngStream.generator)
    return recorder


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from one round's spans."""
    total, own, calls, paths = defaultdict(float), defaultdict(float), Counter(), Counter()
    row_reps, row_time = Counter(), defaultdict(float)
    child_time = [0.0] * len(spans)
    tables_in_run = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "mc.ensure_tables" and spans[parent][0] == "mc.run_experiment":
                tables_in_run += end - start
    for (name, start, end, _, attrs), children in zip(spans, child_time):
        total[name] += end - start
        own[name] += end - start - children
        calls[name] += 1
        if name == "mc._evaluate_row":
            row_reps[attrs["n"]] += attrs["reps"]
            row_time[attrs["n"]] += end - start
        elif attrs:
            paths[name] += attrs["paths"]

    replications_s = total["mc.run_experiment"] - tables_in_run
    m = {
        "mc.ensure_tables_s": (total["mc.ensure_tables"], "s"),
        "mc.replications_s": (replications_s, "s"),
        "mc.reps_per_s": (_rate(sum(row_reps.values()), replications_s), "1/s"),
    }
    for n in LENGTHS:
        m[f"mc.reps_per_s.n{n}"] = (_rate(row_reps[n], row_time[n]), "1/s")
    m["mc.report_write_s"] = (total["mc.cells_to_csv"] + total["mc.report_to_csv"], "s")
    m["fgn.sample_s"] = (own["fgn.sample"], "s")
    m["fgn.sample_calls"] = (calls["fgn.sample"], "count")
    m["fgn.sample_paths"] = (paths["fgn.sample"], "count")
    m["fgn.autocovariance_calls"] = (calls["fgn.autocovariance"], "count")
    m["dist.generator_calls"] = (calls["dist.generator"], "count")
    m["dist.generator_s"] = (total["dist.generator"], "s")
    for kernel in KERNELS:
        m[f"stats.{kernel}_s"] = (own[f"stats.{kernel}"], "s")
        m[f"stats.{kernel}_calls"] = (calls[f"stats.{kernel}"], "count")
    m["stats.ranks_s"] = (total["stats.ranks"], "s")
    m["stats.ranks_calls"] = (calls["stats.ranks"], "count")
    m["asymp.critical_values_s"] = (total["asymp.critical_values"], "s")
    m["asymp.table_paths_per_s"] = (
        _rate(paths["asymp.critical_values"], total["asymp.critical_values"]), "1/s")
    m["asymp.simulate_hermite_paths_s"] = (total["asymp.simulate_hermite_paths"], "s")
    m["asymp.functional_s"] = (own["asymp.critical_values"], "s")
    for fn in ("wilcoxon_limit_factor", "dnm_exact"):
        m[f"asymp.{fn}_s"] = (total[f"asymp.{fn}"], "s")
        m[f"asymp.{fn}_calls"] = (calls[f"asymp.{fn}"], "count")
    m["lmsv.simulate_components_calls"] = (calls["lmsv.simulate_components"], "count")
    m["cli.overhead_s"] = (own["cli.main"], "s")
    return m
