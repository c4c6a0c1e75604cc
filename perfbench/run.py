"""Seeded benchmark of l2growth: four workloads, every answer checked.

Run from the root of a checkout (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload abelian_large --seed 1 --seconds 20 --trace 0

Workloads: ``abelian_large``, ``congruence``, ``suites``, ``bounds_sweep``
(see ``workloads.py``).  One process runs one workload in a closed loop:
a task starts when the previous one has finished.  Every task's answers are
printed beside their oracle values; the last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time (the median of
``SETUP_SAMPLES`` fresh processes, timed at even steps through the run
while the task loop pauses), task throughput, median and 90th-percentile
task time, and peak resident memory.  Throughput and task times are given
at reference speed (the ``_ref_s`` metrics): every ``REF_EVERY_S`` of loop
time the loop pauses to time ``reference_work``, a fixed computation of the
benchmark's own, and the run's task times are scaled by ``REF_NOMINAL_S``
over that computation's trimmed mean time (raised to the workload's
``ref_exponent``, which is below 1 where the workload slows less than the
reference when the host is busy).  On a shared 2-vCPU x86-64 host the
speed of one process drifts by a quarter and more within minutes; the
scaling cancels most of that drift and leaves every change in the
library's own speed in full.  The unscaled figures are printed beside them.

The loop runs at least ``MIN_TASKS`` tasks, so the 90th percentile has at
least ten samples above it (a run with fewer is marked incorrect), and
stops on the round boundary nearest to ``--seconds``, so every run holds
the same mix of task sizes.  Before each task the garbage of the previous
one is collected, outside the task's time, and the objects made in set-up
are frozen out of the collector's reach, so a task's time does not depend
on what ran before it.

``--trace 1`` runs the untraced loop for half the time, replays the same
tasks with every layer wrapped (see ``spans.py``) and reports per-layer
counts and self times, plus the tracing overhead.

BLAS runs single-threaded; ``L2GROWTH_CAPS`` must be unset, so the library
runs at its default caps.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BLAS_THREADS = 1
SETUP_SAMPLES = 5  # fresh processes timed for setup_s
MIN_TASKS = 100  # the fewest tasks whose 90th percentile has ten samples above it
REF_EVERY_S = 0.25  # loop seconds between two timings of reference_work
# reference_work's time at reference speed: a round figure near its time on
# a shared 2-vCPU x86-64 host
REF_NOMINAL_S = 0.006
ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["abelian_large", "congruence", "suites", "bounds_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the clock reading when ready, exit")
    return parser.parse_args(argv)


def _environment(caps) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "caps": asdict(caps),
        "L2GROWTH_CAPS": os.environ.get("L2GROWTH_CAPS"),
    }


def _time_setup(args) -> float:
    """Set-up seconds of one fresh process, from spawn to first task ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    return float(proc.stdout.strip().splitlines()[-1]) - start


def reference_work() -> float:
    """Seconds taken by a fixed computation that does not touch l2growth.

    Like the library, it mixes Python tuple and dict traffic with small
    integer matrix products in numpy.
    """
    import numpy as np

    start = time.perf_counter()
    seen = {}
    x = (1, 0, 0, 1)
    for i in range(4000):
        x = ((3 * x[0] + x[1]) % 1009, (5 * x[1] + x[2]) % 1009,
             (x[2] + 7 * x[3]) % 1009, (2 * x[3] + x[0]) % 1009)
        seen[x] = i
    a = (np.arange(96 * 96, dtype=np.int64).reshape(96, 96) * 7919 + 3) % 97
    for _ in range(6):
        a = (a @ a.T + 1) % 97
    elapsed = time.perf_counter() - start
    assert len(seen) > 1000 and a.shape == (96, 96)
    return elapsed


def trimmed_mean(values, cut=0.1):
    """Mean of the values left when the lowest and highest ``cut`` shares are
    dropped: it follows the host's speed through a run but not the rare
    timing that a stall of the whole machine stretches several times over."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def run_tasks(workload, count=None, seconds=None, min_tasks=0, pause=None, ref=None,
              tracer=None, log=print):
    """Run tasks in order until ``count`` are done, or until at least
    ``min_tasks`` are done and the round boundary nearest to ``seconds`` is
    reached (judged by the mean round time so far).

    ``pause``, if given, is called ``SETUP_SAMPLES`` times at even steps of
    ``seconds``, between tasks.  ``ref``, if given, is a list that gets a
    timing of ``reference_work`` every ``REF_EVERY_S`` of loop time.  Their
    time, like the garbage collection before each task, is not loop time.
    Returns (records, loop seconds); a record is (index, seconds, ok).
    A task that raises, or whose answer disagrees with its oracle, fails.
    """
    records = []
    pauses, paused = 0, 0.0
    start = time.perf_counter()
    for index, task in enumerate(workload.tasks):
        elapsed = time.perf_counter() - start - paused
        if count is not None and index >= count:
            break
        while pause is not None and pauses < SETUP_SAMPLES and \
                elapsed >= pauses * seconds / SETUP_SAMPLES:
            p0 = time.perf_counter()
            pause()
            paused += time.perf_counter() - p0
            pauses += 1
        rounds = index // workload.round_size
        if seconds is not None and rounds and index >= min_tasks \
                and index % workload.round_size == 0 \
                and elapsed + elapsed / rounds / 2 >= seconds:
            break
        p0 = time.perf_counter()
        gc.collect()
        if ref is not None and elapsed >= len(ref) * REF_EVERY_S:
            ref.append(reference_work())
        paused += time.perf_counter() - p0
        span = tracer.begin_task(index) if tracer is not None else None
        t0 = time.perf_counter()
        error = None
        try:
            outcome = workload.run(task)
        except Exception:  # a failed task is counted and reported, not fatal
            outcome, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        t1 = time.perf_counter()
        if span is not None:
            tracer.end_task(span)
        ok = outcome is not None and outcome.ok
        records.append((index, t1 - t0, ok))
        checks = ("; ".join(f"{c.name}={c.got} oracle={c.want}" + ("" if c.ok else " MISMATCH")
                            for c in outcome.checks) if outcome is not None else error)
        log(f"task {index} {'ok' if ok else 'FAIL'} {t1 - t0:.4f}s "
            f"{'/'.join(map(str, task.key))} {checks}")
    return records, time.perf_counter() - start - paused


def summarize(records, wall: float) -> dict:
    """End-to-end loop figures from task records (see the module docstring)."""
    times = [r[1] for r in records]
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]
    return {
        "tasks": len(times),
        "failed": sum(1 for r in records if not r[2]),
        "tasks_per_s": len(times) / wall,
        "task_p50_s": statistics.median(times),
        "task_p90_s": p90,
        "above_p90": sum(1 for t in times if t > p90),
        "task_max_s": max(times),
    }


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("ratio") else "count"


def _traced_run(args, workload, plain: dict, wall: float, tracing):
    """Replay the untraced run's tasks with every layer wrapped.

    Returns (per-layer metrics, traced task records, originals restored).
    """
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced, traced_wall = run_tasks(workload, count=plain["tasks"], tracer=tracer)
    finally:
        stale = tracing.uninstall(patches)
    if stale:
        print(f"error: wrappers left in place: {stale}", file=sys.stderr)
    layer = tracer.layer_metrics()
    layer.update({
        "trace.tasks": len(traced),
        "trace.spans": len(tracer.spans),
        "trace.untraced_tasks_per_s": plain["tasks_per_s"],
        "trace.traced_tasks_per_s": len(traced) / traced_wall,
        "trace.overhead_ratio": traced_wall / wall,
    })
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layer.items()}
    return metrics, traced, not stale


def repeat_share(workload, n: int) -> float:
    keys = [t.key for t in workload.tasks[:n]]
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if os.environ.get("L2GROWTH_CAPS"):
        print("error: L2GROWTH_CAPS is set; the benchmark runs at default caps",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "l2growth" / "__init__.py").is_file():
        print(f"error: no l2growth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import l2growth
    import spans as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    gc.collect()
    gc.freeze()
    if args.setup_only:
        print(repr(time.perf_counter()))
        workload.close()
        return 0

    try:
        env = _environment(l2growth.DEFAULT_CAPS)
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            records, wall = run_tasks(workload, seconds=args.seconds / 2)
        else:
            setup, ref = [], []
            records, wall = run_tasks(workload, seconds=args.seconds, min_tasks=MIN_TASKS,
                                      pause=lambda: setup.append(_time_setup(args)), ref=ref)
        plain = summarize(records, wall)
        failed, attempted = plain["failed"], plain["tasks"]
        correct = True
        if args.trace:
            metrics, traced, correct = _traced_run(args, workload, plain, wall, tracing)
            failed += sum(1 for r in traced if not r[2])
            attempted += len(traced)
        else:
            if plain["above_p90"] < 10:
                print(f"error: only {plain['above_p90']} task times above the 90th "
                      "percentile; it needs ten", file=sys.stderr)
                correct = False
            ref_s = trimmed_mean(ref)
            scale = (REF_NOMINAL_S / ref_s) ** workload.ref_exponent
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "tasks_per_ref_s": {"value": plain["tasks_per_s"] / scale, "unit": "1/s"},
                "task_p50_ref_s": {"value": plain["task_p50_s"] * scale, "unit": "s"},
                "task_p90_ref_s": {"value": plain["task_p90_s"] * scale, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
            print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
            print(f"reference_work: {len(ref)} timings, trimmed mean {ref_s * 1e3:.3f} ms, "
                  f"mean {statistics.mean(ref) * 1e3:.3f} ms, median "
                  f"{statistics.median(ref) * 1e3:.3f} ms; scale {scale:.4f}")
            print(f"reference_work timings (ms): {' '.join(f'{t * 1e3:.3f}' for t in ref)}")
            print(f"unscaled: tasks_per_s {plain['tasks_per_s']:.6g} 1/s, task_p50_s "
                  f"{plain['task_p50_s']:.6g} s, task_p90_s {plain['task_p90_s']:.6g} s")
        print(f"tasks {plain['tasks']} in {wall:.2f}s; p90 has {plain['above_p90']} "
              f"samples above it; slowest task {plain['task_max_s']:.4f}s; repeated "
              f"(complex, subgroup) pairs {repeat_share(workload, plain['tasks']):.1%}")
        print(f"metric fail_ratio = {failed / max(attempted, 1):.6g} 1 "
              f"({failed} of {attempted} tasks)")
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")
        result = {"correct": correct and failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
