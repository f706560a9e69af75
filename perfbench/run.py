#!/usr/bin/env python3
"""proprio benchmark: one workload per process, closed loop, numpy and stdlib only.

    python3 perfbench/run.py --workload odometry-trot --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and METRICS.md): odometry-trot, classify-stream,
pipeline-short. With --trace 0 the run measures the end-to-end metrics with
nothing wrapped. With --trace 1 it first runs the workload untraced for
half of --seconds, then wraps each layer's public functions at the module
attributes callers reach them through (perlayer.py), sets up again and runs
a fixed number of traced calls, and reports per-layer metrics plus the
tracing overhead against the untraced half.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it describe the machine and list every metric in a table.
The script imports proprio from src/ next to this directory only.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is timed in this many child processes plus the measuring process
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

def _limit_blas_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_proprio():
    sys.path.insert(0, SRC)
    import proprio

    if not os.path.abspath(proprio.__file__).startswith(SRC + os.sep):
        raise ImportError(f"proprio imported from {proprio.__file__}, not from {SRC}")


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """sha256 over src/**/*.py, so a result names the code it measured without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _blas_runtime_threads():
    """Threads OpenBLAS reports at run time, or None if the library is not OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(nproc):
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its config and returns nothing
        blas = {}
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_runtime_threads(),
        "blas_thread_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


Call = collections.namedtuple("Call", "wall work attempted failed scale cpu")


def run_calls(wl, probe, deadline=None, count=None):
    """Call wl until `deadline` (at least once) or `count` times.

    Each record carries `scale`, the probe's nominal time over the mean of
    the probes timed just before and just after the call, and the process
    CPU seconds the call used; a call that raised has wall None.
    """
    calls = []
    before = probe()
    while True:
        cpu0 = os.times()
        try:
            wall, work, attempted, failed = wl.call()
        except Exception:  # a call that raises is a failed operation, not a crash
            traceback.print_exc()
            wall, work, attempted, failed = None, 0, 1, 1
        cpu1 = os.times()
        after = probe()
        cpu = cpu1.user + cpu1.system - cpu0.user - cpu0.system
        scale = probe.NOMINAL_S / ((before + after) / 2.0)
        calls.append(Call(wall, work, attempted, failed, scale, cpu))
        before = after
        if count is not None and len(calls) >= count:
            return calls
        if deadline is not None and time.perf_counter() >= deadline:
            return calls


def _median(values):
    return statistics.median(values) if values else float("nan")


def call_seconds(calls):
    """Median wall time of one successful call, scaled to nominal host speed."""
    return _median([c.wall * c.scale for c in calls if c.wall is not None])


def per_work_seconds(calls, normalized=True):
    """Median over successful calls of wall seconds per unit of work."""
    return _median([c.wall / c.work * (c.scale if normalized else 1.0)
                    for c in calls if c.wall is not None and c.work > 0])


def setup_samples(args):
    """Set-up seconds of SETUP_CHILDREN fresh processes doing only the set-up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
            check=True, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>16.6g} {unit:<8} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = _limit_blas_threads()
    samples = [] if args.setup_only or args.trace else setup_samples(args)

    start = time.perf_counter()
    _import_proprio()
    import hostprobe
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, ROOT)
    try:
        wl.setup(args.seed)
        setup_s = time.perf_counter() - start
        probe = hostprobe.HostProbe()
        samples.append(setup_s * probe.NOMINAL_S / probe())
        if args.setup_only:
            print(json.dumps({"setup_s": samples[-1]}))
            return 0
        if args.trace:
            correct, calls, metrics = traced_run(wl, probe, args)
        else:
            correct = True
            calls = run_calls(wl, probe, deadline=time.perf_counter() + args.seconds)
            metrics = [
                ("setup_s", statistics.median(samples), "s",
                 f"median of {len(samples)} set-ups at nominal host speed"),
                ("throughput_per_s", 1.0 / per_work_seconds(calls), "1/s",
                 f"{wl.work} per second at nominal host speed"),
                ("wall_s", call_seconds(calls), "s", "one call at nominal host speed"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
            ]
        quality = wl.quality()
    finally:
        wl.close()

    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    if not all(math.isfinite(value) for _, value, _, _ in metrics):
        # only when every call failed; JSON has no NaN and the result is not correct
        correct = False
        metrics = [(n, v if math.isfinite(v) else 0.0, u, note) for n, v, u, note in metrics]
    print("machine: " + json.dumps(machine_info(nproc), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls; host at "
          f"{_median([1.0 / c.scale for c in calls]):.4g} x the probe's nominal time")
    print_table([
        (wl.rate_name, 1.0 / per_work_seconds(calls, normalized=False), "1/s", f"{wl.work}, as measured"),
        ("failed_ratio", failed / max(attempted, 1), "1", f"{failed} of {attempted} {wl.unit} failed"),
    ] + [(name, value, unit, "median over calls") for name, (value, unit) in quality.items()])
    print("result:")
    print_table(metrics)
    result = {
        "correct": bool(correct and failed == 0 and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }
    print(json.dumps(result))
    return 0


def traced_run(wl, probe, args):
    """Untraced half, then a traced set-up and fixed traced calls; per-layer rows."""
    import perlayer
    from tracer import Tracer

    untraced = run_calls(wl, probe, deadline=time.perf_counter() + args.seconds / 2.0)
    done = [c for c in untraced if c.wall is not None]
    cpu_util = sum(c.cpu for c in done) / sum(c.wall for c in done) if done else float("nan")

    tracer = Tracer()
    tracer.install(perlayer.trace_targets())
    try:
        wl.setup(args.seed, warm=False)
        traced = run_calls(wl, probe, count=wl.traced_calls)
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    overhead_pct = 100.0 * (per_work_seconds(traced) / per_work_seconds(untraced) - 1.0)
    run = {"cpu_util": cpu_util, "overhead_pct": overhead_pct,
           **{name: value for name, (value, _) in wl.quality().items()}}
    rows = []
    for name, value, unit, absent in perlayer.per_layer_metrics(summary, tracer.counters, run):
        note = "absent: never called in this workload" if absent else (
            "computed" if name in perlayer.COMPUTED else "")
        rows.append((name, value, unit, note))
    missing = sorted(wl.expected - set(summary))
    for name in missing:
        print(f"error: {name} was never called, but {wl.name} must reach it", file=sys.stderr)
    return not missing, untraced + traced, rows


if __name__ == "__main__":
    sys.exit(main())
