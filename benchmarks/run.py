"""Benchmark of lmsvtest: the desk experiment, a replication-heavy grid and a
table-heavy grid.

    python3 benchmarks/run.py --workload desk_mean_normal --seed 1 --seconds 40 --trace 0

Every round of a workload runs in a fresh interpreter (benchmarks/child.py),
one after the other, with BLAS and OpenMP pinned to one thread, so no cache,
table or output directory carries over from one round to the next. Rounds
repeat while the next one is expected to end within --seconds: with today's
round lengths and 40 s, two rounds of desk_mean_normal and of
reps_variance_pareto, one of critvals_grid. --trace 0 prints the end-to-end
metrics: medians over the rounds of wall_s and peak_rss_mb, and of setup_s
over the rounds and six set-up-only probes. --trace 1 runs one traced round
and prints the per-layer metrics. Every round's outputs are checked. The last
line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import child

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Operations of one round: grid cells, or tables for critvals_grid.
OPERATIONS = {"desk_mean_normal": 48, "reps_variance_pareto": 96, "critvals_grid": 4}
#: Set-up-only probes before the rounds, and as many after them, so that the
#: setup_s median spans the run's drift in host speed.
PROBES_PER_SIDE = 3
#: A run must end within 180 s; a round still going by then is killed.
DEADLINE_S = 165.0


class BenchError(Exception):
    pass


def run_child(workload, seed, work, deadline, *flags):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(spawned_at),
           str(work), *flags]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the child
        raise BenchError(f"a {workload} round did not finish before the deadline") from err
    if proc.returncode != 0 or not (work / "result.json").is_file():
        raise BenchError(f"a {workload} round exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads((work / "result.json").read_text())
    result["elapsed_s"] = time.monotonic() - spawned_at
    if "error" in result:
        sys.stderr.write(f"{workload}: the timed call raised\n{result['error']}")
    return result


def check_round(workload, seed, work, result, reference):
    """(attempted, failed, wrong) for one round; logs a note to stderr."""
    ops = OPERATIONS[workload]
    if "error" in result:
        return ops, ops, 0
    if workload == "desk_mean_normal":
        if result["exit_codes"] == [0]:
            attempted, failed, wrong, note = checks.check_desk(work, seed)
        else:
            attempted, failed, wrong, note = ops, ops, 0, f"exit codes {result['exit_codes']}"
    elif workload == "reps_variance_pareto":
        attempted, failed, wrong, note = checks.check_reps(result, child.VARIANCE_GRID)
    else:
        attempted, failed, wrong, notes = ops, 0, 0, []
        for (family, hurst), code in zip(child.CRITVALS_TABLES, result["exit_codes"]):
            ok, text = (checks.check_table(work / f"{family}_{hurst}.json", family, hurst,
                                           child.CRITVALS_BUDGET[0], reference)
                        if code == 0 else (False, f"exit code {code}"))
            failed += not ok
            wrong += not ok and code == 0
            notes.append(f"{family} H={hurst}: {text}")
        note = "; ".join(notes)
    sys.stderr.write(f"{workload} seed {seed}: wall {result['wall_s']:.3f} s, "
                     f"{attempted - failed}/{attempted} ok; {note}\n")
    return attempted, failed, wrong


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setups, rounds = [], []

        def probe():
            work = base / f"probe{len(setups)}"
            work.mkdir()
            setups.append(run_child(workload, seed, work, deadline, "--setup-only")["setup_s"])

        for _ in range(0 if trace else PROBES_PER_SIDE):
            probe()
        measured = 0.0
        while True:
            work = base / f"round{len(rounds)}"
            work.mkdir()
            result = run_child(workload, seed, work, deadline, *(["--trace"] if trace else []))
            rounds.append((work, result))
            measured += result["elapsed_s"]
            if trace or measured + result["elapsed_s"] > seconds:
                break
        for _ in range(0 if trace else PROBES_PER_SIDE):
            probe()
        reference = checks.reference_ensembles(seed) if workload == "critvals_grid" else None
        attempted = failed = wrong = 0
        for work, result in rounds:
            a, f, w = check_round(workload, seed, work, result, reference)
            attempted, failed, wrong = attempted + a, failed + f, wrong + w
        if trace:
            import tracing

            work, result = rounds[0]
            spans = json.loads((work / "spans.json").read_text())
            shutil.copy(work / "spans.json", OUT / f"spans_{workload}_seed{seed}.json")
            metrics = tracing.layer_metrics(spans)
            sys.stderr.write(f"traced round: wall_s {result['wall_s']:.3f} s, {len(spans)} spans\n")
        else:
            setups += [r["setup_s"] for _, r in rounds]
            metrics = {
                "wall_s": (statistics.median(r["wall_s"] for _, r in rounds), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for _, r in rounds), "MB"),
            }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"{len(rounds)} round(s): {attempted} operations attempted, {failed} failed")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (checks.SRC / "lmsvtest" / "__init__.py").is_file():
        sys.exit(f"no lmsvtest sources under {checks.SRC}")
    # The checks run numpy in this process too; pin it before it is imported.
    os.environ.update({var: "1" for var in THREAD_VARS})
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        sys.exit(f"benchmark failed: {err}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
