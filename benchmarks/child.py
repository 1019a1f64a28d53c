"""One round of one workload, in a fresh interpreter started by run.py.

Usage: child.py WORKLOAD SEED SPAWNED_AT WORK_DIR [--setup-only] [--trace]

SPAWNED_AT is the parent's time.monotonic() taken just before it started
this process (CLOCK_MONOTONIC is shared by all processes of the machine), so
setup_s covers interpreter start, `import lmsvtest` and building the inputs.
The round writes WORK_DIR/result.json; with --trace it also writes the spans
to WORK_DIR/spans.json. An exception raised by the timed call is recorded in
the result, not raised, so that the parent counts its operations as failed.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The H = 0.5 bridge table is the Brownian case, built with segment refinement.
CRITVALS_TABLES = (("bridge", 0.5), ("bridge", 0.8), ("sn", 0.5), ("sn", 0.8))
#: Paths x grid points of each critvals_grid table (the CLI's defaults, passed
#: explicitly so that the workload does not follow a change of defaults).
CRITVALS_BUDGET = (10_000, 2_048)


#: reps_variance_pareto: the variance problem under centered Pareto noise,
#: 2 x 2 x 3 rows of 4 families x 2 shifts; 2000 x 512 tables cost about a
#: twentieth of the round.
VARIANCE_GRID = dict(
    problem="variance",
    noise_kind="centered_pareto",
    alphas=(4.5, 6.0),
    hursts=(0.6, 0.9),
    lengths=(500, 1000, 2000),
    shifts=(1.0, 2.0),
    families=("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"),
    replications=500,
    max_workers=1,
)
VARIANCE_TABLE_BUDGET = (2000, 512)


def build_desk(seed, work):
    from lmsvtest import cli

    raw = json.loads((SRC / "lmsvtest" / "data" / "table1_desk.json").read_text())
    raw["seed"] = seed
    raw["max_workers"] = 1
    config = work / "table1_desk.json"
    config.write_text(json.dumps(raw))
    argv = ["experiment", "--config", str(config), "--out-dir", str(work / "report")]
    return lambda: {"exit_codes": [cli.main(argv)]}


def build_reps(seed, work):
    from lmsvtest import asymp, mc

    cfg = mc.ExperimentConfig(seed=seed, budget=asymp.TableBudget(*VARIANCE_TABLE_BUDGET),
                              **VARIANCE_GRID)

    def call():
        report = mc.run_experiment(cfg)
        return {
            "cells": [
                [c.family, c.hurst, c.n, c.alpha, c.h, c.replications, c.rejections]
                for c in report.cells
            ]
        }

    return call


def build_critvals(seed, work):
    from lmsvtest import cli

    argvs = [
        ["critvals", "--family", family, "--hurst", str(hurst), "--seed", str(seed),
         "--paths", str(CRITVALS_BUDGET[0]), "--grid", str(CRITVALS_BUDGET[1]),
         "--out", str(work / f"{family}_{hurst}.json")]
        for family, hurst in CRITVALS_TABLES
    ]
    return lambda: {"exit_codes": [cli.main(argv) for argv in argvs]}


BUILDERS = {
    "desk_mean_normal": build_desk,
    "reps_variance_pareto": build_reps,
    "critvals_grid": build_critvals,
}


def main(argv):
    workload, seed, spawned_at, work = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    setup_only, trace = "--setup-only" in argv[4:], "--trace" in argv[4:]
    sys.path.insert(0, str(SRC))
    import lmsvtest

    if Path(lmsvtest.__file__).resolve().parent != SRC / "lmsvtest":
        sys.exit(f"imported lmsvtest from {lmsvtest.__file__}, not from {SRC}")
    call = BUILDERS[workload](seed, work)
    recorder = None
    if trace:
        sys.path.insert(0, str(HERE))
        import tracing

        recorder = tracing.install()
    start = time.monotonic()
    result = {"setup_s": start - spawned_at}
    if not setup_only:
        try:
            result.update(call())
        except Exception:
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.monotonic() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        (work / "spans.json").write_text(json.dumps(recorder.spans))
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
