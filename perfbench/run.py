"""Benchmark of the thinfilm solvers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coarsen2d --seed 1 --seconds 40 --trace 0

``--workload`` is one of coarsen2d, converge, film3d, or ``all`` (each
workload in its own process, one after the other).  With ``--trace 0`` the
run times as many units of the workload as fit in ``--seconds`` (at least
one, and at least MIN_STEPS steps) and reports the end-to-end metrics listed
in BENCHMARK.json, its times scaled to the reference host speed (see
hostspeed.py); with ``--trace 1`` it alternates untraced and traced
units and reports the per-layer metrics, including the tracing overhead,
and writes all spans to ``perfbench/out``.  Every unit's outputs are
checked.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
only when every check passed.  Without the package sources under ``src``
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: a second one spins on the other core and makes the
# timings depend on what else that core runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# glibc malloc options (mallopt parameter numbers from malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def fix_allocator() -> None:
    """Serve every array from the heap and never return it to the system.

    By default glibc moves its mmap threshold as arrays are freed, so
    whether a field-sized array costs fresh page faults depends on the
    allocation history of the process, and timings of one workload split
    into two modes from run to run.  Fixed thresholds remove that.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest allowed value
    libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("coarsen2d", "converge", "film3d")

# Steps pooled per timed run, so that p90 has at least ten samples beyond it.
MIN_STEPS = 100

# Set-up takes milliseconds, so it is repeated after the timed units, when
# the allocator and caches are warm, and its median reported.
SETUP_REPS = 101

# Counts that must repeat exactly across units of one seed.
EXACT_COUNTS = (
    "psd.iters", "psd.line_evals", "spectral.solves", "spectral.transforms",
    "grid.lap.calls", "grid.inner.calls", "energy.calls",
    "experiments.forcing.calls",
)


def import_package():
    """Import thinfilm from this checkout's ``src``, or return None."""
    src = ROOT / "src"
    if not (src / "thinfilm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import thinfilm

    if Path(thinfilm.__file__).resolve().parent != (src / "thinfilm").resolve():
        return None
    return thinfilm


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def end_to_end(units: list, setup_times: list) -> tuple:
    """End-to-end metrics of untraced units, with their sample counts.

    Times are at the reference host speed: units carry the host-speed kernel
    times, and ``setup_times`` holds (set-up time, kernel time) pairs.
    """
    import hostspeed
    import numpy as np

    scaled = [u.at_reference_speed() for u in units]
    step_ms = np.concatenate([steps for steps, _ in scaled]) * 1e3
    p50, p90 = np.percentile(step_ms, [50, 90])
    setup_s = [t * hostspeed.REFERENCE_S / k for t, k in setup_times]
    metrics = {
        "steps_per_s": statistics.median(
            len(u.step_times) / wall for u, (_, wall) in zip(units, scaled)
        ),
        "step_ms.p50": float(p50),
        "step_ms.p90": float(p90),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "steps_per_s": f"median of {len(units)} units",
        "step_ms.p50": f"{step_ms.size} steps",
        "step_ms.p90": f"{step_ms.size} steps",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "peak_rss_mb": "whole process",
    }
    samples["host"] = host_report(units, setup_times)
    return metrics, samples


def host_report(units: list, setup_times: list) -> str:
    """The host's slowness over the run and the unscaled figures, for the log."""
    import hostspeed
    import numpy as np

    kernel = np.concatenate([u.kernel_s for u in units] + [[k for _, k in setup_times]])
    step_ms = np.concatenate([u.step_times for u in units]) * 1e3
    raw_steps_per_s = statistics.median(len(u.step_times) / u.wall for u in units)
    return (
        f"host-speed kernel {np.median(kernel) / hostspeed.REFERENCE_S:.3f}x its "
        f"reference time (median of {kernel.size}; quartiles "
        f"{np.percentile(kernel, 25) / hostspeed.REFERENCE_S:.3f}x, "
        f"{np.percentile(kernel, 75) / hostspeed.REFERENCE_S:.3f}x); unscaled: "
        f"steps_per_s {raw_steps_per_s:.4g} (kernel pauses included), "
        f"step_ms.p50 {np.percentile(step_ms, 50):.4g}, "
        f"step_ms.p90 {np.percentile(step_ms, 90):.4g}, "
        f"setup_s {statistics.median(t for t, _ in setup_times):.4g}"
    )


def per_layer(untraced: list, traced: list, summaries: list, checks) -> tuple:
    """Per-layer metrics: medians over the traced units."""
    metrics = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key in EXACT_COUNTS:
            checks.check(
                len(set(values)) == 1, f"count {key} did not repeat: {values}"
            )
        metrics[key] = (
            values[0] if isinstance(values[0], int) else statistics.median(values)
        )
    checks.check(
        metrics["psd.iters"] == untraced[0].psd_iters,
        f"traced psd.iters {metrics['psd.iters']} != untraced {untraced[0].psd_iters}",
    )
    samples = {key: f"median of {len(traced)} traced units" for key in metrics}
    untraced_wall = statistics.median(u.wall for u in untraced)
    metrics["trace.untraced_unit_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = metrics["trace.unit_s"] / untraced_wall - 1.0
    metrics["unit.steps"] = len(untraced[0].step_times)
    samples["trace.untraced_unit_s"] = f"median of {len(untraced)} untraced units"
    samples["trace.overhead_ratio"] = "ratio of the two medians"
    samples["unit.steps"] = "per unit"
    return metrics, samples


def bench(workload, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run units of ``workload`` for about ``seconds``; return checks and metrics.

    Artifacts go to a scratch directory under ``out_dir`` that is removed
    afterwards; a traced run leaves its spans in ``out_dir``.
    """
    import hostspeed
    import tracing
    import workloads

    workdir = out_dir / f"work_{os.getpid()}"
    checks = workloads.Checks()
    units, traced, summaries, tracers = [], [], [], []
    started = time.perf_counter()
    last_started = started

    def time_left() -> bool:
        """Whether another unit (or pair) as long as the last one fits."""
        nonlocal last_started
        now = time.perf_counter()
        fits = (now - started) + (now - last_started) <= seconds
        last_started = now
        return fits

    try:
        if not trace:
            while True:
                units.append(
                    workloads.run_unit(workload, workdir, checks, host_speed=True)
                )
                enough = sum(len(u.step_times) for u in units) >= MIN_STEPS
                if not time_left() and enough:
                    break
            setup_times = []
            for _ in range(SETUP_REPS):
                kernel = hostspeed.kernel_s()
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append((time.perf_counter() - t0, kernel))
        else:
            # Untraced and traced units alternate, so that a slow spell of
            # the machine does not read as tracing overhead.
            while True:
                units.append(workloads.run_unit(workload, workdir, checks))
                tracer = tracing.Tracer(run_id=len(tracers))
                unit = workloads.run_unit(workload, workdir, checks, tracer)
                tracer.counts["io.write.bytes"] += unit.io_bytes
                tracer.counts["io.read.bytes"] += unit.io_bytes
                tracers.append(tracer)
                traced.append(unit)
                summaries.append(
                    tracing.summarize(tracer.spans, tracer.counts, unit.start,
                                      unit.wall, len(unit.step_times))
                )
                if not time_left():
                    break
    except Exception:
        # A step that raised is already counted; the aborted unit adds one.
        traceback.print_exc()
        checks.check(False, "unit aborted")
        return {"checks": checks, "metrics": {}, "samples": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = units + traced
    checks.check(
        all(
            u.signature == every[0].signature and u.psd_iters == every[0].psd_iters
            for u in every
        ),
        "units of one seed did not repeat exactly",
    )
    if trace:
        tracing.write_spans(
            out_dir / f"trace_{workload.name}_seed{workload.seed}.csv", tracers
        )
        metrics, samples = per_layer(units, traced, summaries, checks)
    else:
        metrics, samples = end_to_end(units, setup_times)
    return {"checks": checks, "metrics": metrics, "samples": samples}


def report(name: str, seed: int, trace: bool, outcome: dict) -> dict:
    """Print the metrics by name and unit; return the result object."""
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    checks, metrics = outcome["checks"], outcome["metrics"]
    correct = checks.failed == 0 and set(metrics) == set(specs)
    for message in checks.messages:
        print(f"check failed: {message}")
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, unit in specs.items():
        if key in metrics:
            print(f"  {key} = {metrics[key]!r} {unit} ({outcome['samples'][key]})")
        else:
            print(f"  {key} missing")
    ratio = checks.failed / max(checks.attempted, 1)
    print(f"  fail_ratio = {checks.failed}/{checks.attempted} = {ratio!r}")
    if "host" in outcome["samples"]:
        print(f"  {outcome['samples']['host']}")
    return {
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in specs.items()
            if key in metrics
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fix_allocator()
    if import_package() is None:
        print(f"error: thinfilm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed)
    outcome = bench(workload, args.seconds, bool(args.trace), OUT_DIR)
    result = report(args.workload, args.seed, bool(args.trace), outcome)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
