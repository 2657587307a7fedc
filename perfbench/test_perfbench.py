"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from thinfilm import io as tfio  # noqa: E402


def tiny(name: str):
    return {
        "coarsen2d": workloads.Coarsen2d(
            n=16, length=1.6, rungs=((6, 0.001), (3, 0.004)),
            snapshot_times=(0.003, 0.006, 0.018),
        ),
        "converge": workloads.Converge(n_values=(8, 12, 16), fo_n=8, fo_nt=(4, 8, 16)),
        "film3d": workloads.Film3d(n=8, length=1.0, steps=4),
    }[name]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed(name, trace, tmp_path, capsys):
    outcome = run.bench(tiny(name), 0.0, trace, tmp_path)
    result = run.report(name, 0, trace, outcome)
    specs = run.metric_specs()["per_layer" if trace else "end_to_end"]
    printed = capsys.readouterr().out
    assert result["correct"], outcome["checks"].messages
    assert set(result["metrics"]) == set(specs)
    for key, unit in specs.items():
        assert f"  {key} = " in printed and f" {unit} (" in printed
    assert json.loads(json.dumps(result)) == result
    assert (tmp_path / f"trace_{name}_seed0.csv").exists() == trace
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("work_")] == []


def test_self_time_arithmetic():
    spans = [
        ["schemes.step", 0.0, 10.0, -1, 0],
        ["psd.solve", 1.0, 9.0, 0, 0],
        ["psd.line_search", 2.0, 5.0, 1, 0],
        ["schemes.line_eval", 2.5, 4.0, 2, 0],
        ["spectral.solve_preconditioner", 5.0, 7.0, 1, 0],
        ["spectral.fft", 5.5, 6.5, 4, 0],
        ["grid.inner", 7.0, 7.5, 1, 0],
        ["energy.discrete_energy", 9.5, 9.9, 0, 0],
        ["grid.inner", 9.6, 9.7, 7, 0],
    ]
    counts = tracing.Counter({"psd.iters": 4, "psd.line_evals": 12})
    out = tracing.summarize(spans, counts, start=0.0, wall=12.0, steps=2)
    assert out["psd.solve.s"] == 8.0
    # psd: solve 8 - (3 + 2 + 0.5) + line_search 3 - 1.5
    assert out["psd.self_s"] == pytest.approx(2.5 + 1.5)
    assert out["psd.line_search.self_s"] == pytest.approx(1.5)
    # schemes: step 10 - 8 - 0.4, plus line_eval 1.5 with no children
    assert out["schemes.self_s"] == pytest.approx(1.6 + 1.5)
    assert out["schemes.step.s"] == 10.0
    assert out["spectral.s"] == 2.0 and out["spectral.fft.s"] == 1.0
    assert out["spectral.solves"] == 1
    assert out["grid.inner.calls"] == 2
    assert out["grid.inner.s"] == pytest.approx(0.6)
    assert out["energy.s"] == pytest.approx(0.4) and out["energy.calls"] == 1
    assert out["psd.iters_per_step"] == 2.0 and out["psd.line_evals_per_iter"] == 3.0
    assert out["trace.uncovered_s"] == 2.0


def test_spans_outside_the_timed_window_are_left_out():
    spans = [
        ["experiments.run", 1.0, 3.0, -1, 0],
        ["grid.lap", 1.5, 2.0, 0, 0],
        ["io.write", 3.5, 3.9, -1, 0],  # a check after the timed region
        ["grid.lap", 3.6, 3.7, 2, 0],
    ]
    out = tracing.summarize(spans, tracing.Counter(), start=0.5, wall=3.0, steps=1)
    assert out["io.write.s"] == 0.0
    assert out["grid.lap.calls"] == 1
    assert out["trace.uncovered_s"] == pytest.approx(1.0)


def test_nested_same_layer_spans_count_once():
    spans = [
        ["spectral.hminus1_norm", 0.0, 4.0, -1, 0],
        ["spectral.hminus1_inner", 0.5, 3.5, 0, 0],
        ["spectral.inv_neg_lap", 1.0, 3.0, 1, 0],
    ]
    out = tracing.summarize(spans, tracing.Counter(), start=0.0, wall=4.0, steps=0)
    assert out["spectral.s"] == 4.0 and out["spectral.solves"] == 1


def test_counts_repeat_exactly(tmp_path):
    summaries = []
    for _ in range(2):
        tracer = tracing.Tracer()
        unit = workloads.run_unit(tiny("coarsen2d"), tmp_path, workloads.Checks(), tracer)
        summaries.append(
            tracing.summarize(tracer.spans, tracer.counts, unit.start, unit.wall,
                              len(unit.step_times))
        )
    for key in run.EXACT_COUNTS:
        assert summaries[0][key] == summaries[1][key], key
    assert summaries[0]["psd.iters"] > 0 and summaries[0]["spectral.transforms"] > 0


def test_tracing_leaves_results_and_package_unchanged(tmp_path):
    import thinfilm
    from thinfilm import schemes, spectral

    before = (vars(schemes.Bdf2Scheme)["step"], vars(spectral.SpectralSolver)["inv_neg_lap"],
              thinfilm.random_initial_data, schemes.lap)
    plain = workloads.run_unit(tiny("film3d"), tmp_path, workloads.Checks())
    traced = workloads.run_unit(
        tiny("film3d"), tmp_path, workloads.Checks(), tracing.Tracer()
    )
    after = (vars(schemes.Bdf2Scheme)["step"], vars(spectral.SpectralSolver)["inv_neg_lap"],
             thinfilm.random_initial_data, schemes.lap)
    assert plain.signature == traced.signature
    assert before == after


def test_corrupted_snapshot_trips_a_check(tmp_path, monkeypatch):
    write = tfio.write_field_snapshot

    def corrupt(path, grid, values, t):
        write(path, grid, values, t)
        raw = bytearray(Path(path).read_bytes())
        raw[-1] ^= 1
        Path(path).write_bytes(bytes(raw))

    monkeypatch.setattr(tfio, "write_field_snapshot", corrupt)
    checks = workloads.Checks()
    workloads.run_unit(tiny("coarsen2d"), tmp_path, checks)
    assert checks.failed == 1
    assert "bit-identical" in checks.messages[0]


def test_wrong_reference_trips_a_check(tmp_path):
    workload = tiny("film3d")
    right = workloads.run_unit(workload, tmp_path, workloads.Checks()).signature[0]
    for expected, failed in ((right, 0), (right * (1 + 1e-6), 1)):
        workload.reference = {"final_energy": {"0": expected}, "rel_tol": 1e-9}
        checks = workloads.Checks()
        workloads.run_unit(workload, tmp_path, checks)
        assert checks.failed == failed


def test_rising_energy_fails_steps_and_the_run(tmp_path, monkeypatch, capsys):
    from thinfilm import energy

    rising = itertools.count()
    monkeypatch.setattr(energy, "modified_energy", lambda *args: float(next(rising)))
    outcome = run.bench(tiny("film3d"), 0.0, False, tmp_path)
    result = run.report("film3d", 0, False, outcome)
    assert not result["correct"]
    # Every step after the first of each four-step unit fails.
    units = run.MIN_STEPS // 4
    assert result["failed"] == 3 * units
    assert "modified energy rose" in capsys.readouterr().out


def test_times_are_scaled_to_the_reference_host_speed():
    ref = hostspeed.REFERENCE_S
    # Kernel pause 0.5 s, step 1 s, pause 0.5 s, step 3 s, 1 s of artifacts;
    # the kernel took three times its reference time between the steps, so
    # both steps ran at half the reference speed on average.
    unit = workloads.UnitResult(
        0.0, 6.0, step_times=[1.0, 3.0], step_ends=[1.5, 5.0],
        kernel_s=[ref, 3 * ref, ref], paused_s=[0.5, 0.5],
    )
    steps, wall = unit.at_reference_speed()
    assert list(steps) == pytest.approx([0.5, 1.5])
    assert wall == pytest.approx(0.5 + 1.5 + 1.0)
    metrics, _ = run.end_to_end([unit], [(0.002, 2 * ref), (0.001, ref), (0.5, ref)])
    assert metrics["steps_per_s"] == pytest.approx(2 / 3.0)
    assert metrics["step_ms.p50"] == pytest.approx(1000.0)
    assert metrics["setup_s"] == pytest.approx(0.001)


def test_timed_units_time_the_kernel_next_to_every_step(tmp_path):
    unit = workloads.run_unit(
        tiny("converge"), tmp_path, workloads.Checks(), host_speed=True
    )
    assert len(unit.kernel_s) == len(unit.step_times) + 1
    assert len(unit.paused_s) == len(unit.step_ends) == len(unit.step_times)
    assert all(p >= k > 0 for p, k in zip(unit.paused_s, unit.kernel_s))
    steps, wall = unit.at_reference_speed()
    assert steps.size == len(unit.step_times) and 0 < wall


def test_timed_run_pools_at_least_min_steps(tmp_path):
    outcome = run.bench(tiny("film3d"), 0.0, False, tmp_path)
    assert outcome["samples"]["step_ms.p90"] == f"{run.MIN_STEPS} steps"


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "film3d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_matches_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
