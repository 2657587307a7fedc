"""The benchmark's workloads, each a fixed unit of work plus its checks.

A unit is the work one user-visible run performs: ``coarsen2d`` evolves
seeded droplet data through a two-rung step-size ladder and writes and
reads back its artifacts, ``converge`` runs both manufactured convergence
ladders, ``film3d`` steps seeded 3D data with the two-step scheme.  The
benchmark repeats a unit as often as its time allows; every repetition does
identical work, so counts must repeat exactly.

Every ``scheme.step`` is timed and its result checked by a
:class:`StepRecorder` installed on the scheme classes for the duration of a
unit; in a timed run it also times the host-speed kernel (``hostspeed``)
before each step.  Unit-level checks (references, slopes, artifact round
trips) run after the timed region.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from thinfilm import energy, experiments, psd, schemes, spectral
from thinfilm import grid as tfgrid
from thinfilm import io as tfio
import hostspeed
from tracing import Patches

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Number of data seeds with stored reference values; --seed selects one.
DATA_SEEDS = 16

# Cumulative drift of the conserved mean allowed over a unit.  The schemes
# hold each step's drift to 1e-12 relative; observed drift is at rounding.
MASS_TOL = 1e-10

# Slack on the modified-energy decay, as in the repository's own
# acceptance test of structure preservation.
ENERGY_SLACK = 1e-8


class Checks:
    """Tally of correctness checks: each failed check is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


class StepRecorder:
    """Times each ``scheme.step`` and checks the state and report it returns.

    A step counts as one attempted operation; it fails if it raises or if
    any of its checks fails.  ``energy_decay`` enables the check that the
    two-step scheme's modified energy does not increase (unforced runs).
    With ``host_speed`` the host-speed kernel is timed before each step.
    """

    def __init__(self, checks: Checks, energy_decay: bool, host_speed: bool = False):
        self.checks = checks
        self.energy_decay = energy_decay
        self.host_speed = host_speed
        self.times: list = []
        self.ends: list = []
        self.kernel_s: list = []
        self.paused_s: list = []
        self.iters = 0
        self._last_modified: dict = {}

    def install(self, patches) -> None:
        for cls in (schemes.FirstOrderScheme, schemes.Bdf2Scheme):
            patches.set(cls, "step", self._timed(vars(cls)["step"]))

    def _timed(self, step):
        def timed_step(scheme, state, dt, forcing=None):
            if self.host_speed:
                paused = time.perf_counter()
                self.kernel_s.append(hostspeed.kernel_s())
                self.paused_s.append(time.perf_counter() - paused)
            start = time.perf_counter()
            try:
                new_state, report = step(scheme, state, dt, forcing)
            except Exception:
                self.checks.check(False, f"step {len(self.times)} raised")
                raise
            end = time.perf_counter()
            self.times.append(end - start)
            self.ends.append(end)
            self._check(scheme, state, new_state, report)
            return new_state, report

        return timed_step

    def _check(self, scheme, state, new_state, report) -> None:
        self.iters += report.psd_iters
        phi = new_state.phi
        problems = []
        if not report.final_residual <= scheme.psd_config.tol:
            problems.append(f"residual {report.final_residual:.3e} above tol")
        if not (report.min_phi > 0.0 and float(np.min(phi)) > 0.0):
            problems.append("field not strictly positive")
        drift = abs(float(np.mean(phi)) - state.beta0)
        if not drift <= MASS_TOL * max(1.0, abs(state.beta0)):
            problems.append(f"mean drifted by {drift:.3e}")
        if self.energy_decay and report.modified_energy is not None:
            last = self._last_modified.get(id(scheme))
            if last is not None and not (
                report.modified_energy <= last + ENERGY_SLACK * (1.0 + abs(last))
            ):
                problems.append(
                    f"modified energy rose from {last!r} to {report.modified_energy!r}"
                )
            self._last_modified[id(scheme)] = report.modified_energy
        self.checks.check(
            not problems, f"step {len(self.times) - 1}: " + "; ".join(problems)
        )


@dataclass
class UnitResult:
    """What one unit produced: timings, counts and the values checked."""

    start: float  # perf_counter at the start of the timed region
    wall: float
    io_bytes: int = 0
    signature: tuple = ()
    step_times: list = field(default_factory=list)
    psd_iters: int = 0
    step_ends: list = field(default_factory=list)  # perf_counter after each step
    # Host-speed kernel times: one before each step, one after the unit;
    # and the wall time each of the first spent inside the unit.
    kernel_s: list = field(default_factory=list)
    paused_s: list = field(default_factory=list)

    def at_reference_speed(self) -> tuple:
        """Step times and the unit's wall time at the reference host speed.

        The wall time, less the kernel's pauses, is cut at the end of every
        step.  Each piece (a step and the work that prepared it) is scaled by
        the mean of the kernel times right before and right after its step;
        the last piece (the work after the last step) by the kernel time
        after the unit.
        """
        kernel = np.asarray(self.kernel_s)
        scale = hostspeed.REFERENCE_S / np.append(
            (kernel[:-1] + kernel[1:]) / 2, kernel[-1]
        )
        marks = [self.start] + list(self.step_ends) + [self.start + self.wall]
        pieces = np.diff(marks)
        pieces[:-1] -= self.paused_s
        steps = np.asarray(self.step_times) * scale[:-1]
        return steps, float(np.dot(pieces, scale))


def within(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


@dataclass
class Coarsen2d:
    """Seeded droplet run: a cold start at dt1, a restart at dt2, artifacts."""

    seed: int = 0
    n: int = 128
    length: float = 12.8
    eps: float = 0.02
    rungs: tuple = ((80, 0.001), (20, 0.004))  # (steps, dt) per ladder rung
    snapshot_times: tuple = (0.04, 0.08, 0.16)
    tol: float = 1e-9
    reference: Optional[dict] = None

    name = "coarsen2d"
    energy_decay = True

    @property
    def data_seed(self) -> int:
        return self.seed % DATA_SEEDS

    def _schedule(self):
        rungs, t = [], 0.0
        for steps, dt in self.rungs:
            t += steps * dt
            rungs.append((t, dt))
        return tuple(rungs)

    def setup(self) -> None:
        grid = tfgrid.Grid(2, self.n, self.length)
        params = energy.PhysParams(self.eps)
        scheme = schemes.Bdf2Scheme(
            grid, params, spectral.SpectralSolver(grid), psd.SolverConfig(tol=self.tol)
        )
        phi0 = experiments.random_initial_data(grid, self.data_seed)
        scheme.cold_start(phi0, self.rungs[0][1])
        schemes.restart_state(grid, phi0)

    def run(self, workdir: Path, checks: Checks) -> UnitResult:
        schedule = self._schedule()
        config = experiments.CoarseningConfig(
            n=self.n,
            length=self.length,
            eps=self.eps,
            seed=self.data_seed,
            t_end=schedule[-1][0],
            schedule=schedule,
            snapshot_times=self.snapshot_times,
            psd=psd.SolverConfig(tol=self.tol),
        )
        outdir = workdir / self.name
        if outdir.exists():
            shutil.rmtree(outdir)
        outdir.mkdir(parents=True)

        start = time.perf_counter()
        run = experiments.run_coarsening(config)
        # Artifacts as the coarsen command writes them, then read back.
        log_path = outdir / "energy.csv"
        tfio.write_energy_log(log_path, run.records)
        snap_paths = []
        for i, (t, values) in enumerate(run.snapshots):
            path = outdir / f"snapshot_{i:02d}_t{t:.6g}.tfgf"
            tfio.write_field_snapshot(path, run.grid, values, t)
            snap_paths.append(path)
        records = tfio.read_energy_log(log_path)
        snaps = [tfio.read_field_snapshot(p) for p in snap_paths]
        wall = time.perf_counter() - start

        steps = sum(s for s, _ in self.rungs)
        checks.check(
            math.isclose(run.final_t, schedule[-1][0], rel_tol=1e-12)
            and len(run.records) == steps + 1,
            f"run ended at t={run.final_t} with {len(run.records)} records",
        )
        checks.check(
            len(snaps) == len(self.snapshot_times)
            and all(
                g == run.grid and t == t0 and v.tobytes() == v0.tobytes()
                for (g, v, t), (t0, v0) in zip(snaps, run.snapshots)
            ),
            "snapshots did not read back bit-identical",
        )
        reprint = outdir / "energy_reprint.csv"
        tfio.write_energy_log(reprint, records)
        checks.check(
            reprint.read_bytes() == log_path.read_bytes(),
            "energy.csv did not re-print byte-for-byte",
        )
        final_energy = run.records[-1].energy
        if self.reference is not None:
            expected = self.reference["final_energy"][str(self.data_seed)]
            checks.check(
                within(final_energy, expected, self.reference["rel_tol"]),
                f"final energy {final_energy!r} differs from reference {expected!r}",
            )
        written = [log_path] + snap_paths
        written += [p.with_name(p.name + ".meta") for p in snap_paths]
        io_bytes = sum(p.stat().st_size for p in written)
        return UnitResult(start, wall, io_bytes, (final_energy,))


@dataclass
class Converge:
    """Manufactured ladders: BDF2 in space-time, first order in time."""

    seed: int = 0
    n_values: tuple = (32, 48, 64, 96)
    fo_n: int = 64
    fo_nt: tuple = (20, 40, 80, 160)
    eps: float = 0.5
    tol: float = 1e-9
    reference: Optional[dict] = None

    name = "converge"
    energy_decay = False  # the manufactured source feeds energy in

    def setup(self) -> None:
        profile = experiments.ManufacturedSolution()
        params = energy.PhysParams(self.eps)
        config = psd.SolverConfig(tol=self.tol)
        for n in self.n_values:
            grid = tfgrid.Grid(2, n, 1.0)
            scheme = schemes.Bdf2Scheme(grid, params, psd_config=config)
            source = profile.forcing(grid, self.eps, 0.0)
            scheme.cold_start(profile.sample(grid, 0.0), 0.5 * grid.h, forcing=source)
        grid = tfgrid.Grid(2, self.fo_n, 1.0)
        schemes.FirstOrderScheme(grid, params, spectral.SpectralSolver(grid), config)
        schemes.initial_state(grid, profile.sample(grid, 0.0))

    def run(self, workdir: Path, checks: Checks) -> UnitResult:
        config = psd.SolverConfig(tol=self.tol)
        start = time.perf_counter()
        bdf2 = experiments.run_convergence_bdf2(
            self.n_values, eps=self.eps, psd_config=config
        )
        first = experiments.run_convergence_first_order(
            n=self.fo_n, nt_values=self.fo_nt, eps=self.eps, psd_config=config
        )
        wall = time.perf_counter() - start

        checks.check(
            -2.2 <= bdf2.slope_l2 <= -1.8,
            f"BDF2 l2 slope {bdf2.slope_l2} not near -2",
        )
        checks.check(
            -1.1 <= first.slope_l2 <= -0.9,
            f"first-order l2 slope {first.slope_l2} not near -1",
        )
        errors = bdf2.errors_l2 + first.errors_l2
        if self.reference is not None:
            expected = self.reference["errors_l2"]
            checks.check(
                len(errors) == len(expected)
                and all(
                    within(e, x, self.reference["rel_tol"])
                    for e, x in zip(errors, expected)
                ),
                f"l2 errors {errors} differ from reference {expected}",
            )
        return UnitResult(start, wall, 0, tuple(errors))


@dataclass
class Film3d:
    """Seeded 3D two-step run from restart history."""

    seed: int = 0
    n: int = 48
    length: float = 6.4
    eps: float = 0.1
    dt: float = 0.01
    # Seeded data relaxes with 7-10 iterations per step until about step 45,
    # where phase separation sets in and the count climbs past 30; the unit
    # stays in the first regime.  Of 30 steps the three with 9 iterations
    # hold the 90th percentile, so p90 does not straddle two counts.
    steps: int = 30
    tol: float = 1e-9
    reference: Optional[dict] = None

    name = "film3d"
    energy_decay = True

    @property
    def data_seed(self) -> int:
        return self.seed % DATA_SEEDS

    def _build(self):
        grid = tfgrid.Grid(3, self.n, self.length)
        scheme = schemes.Bdf2Scheme(
            grid,
            energy.PhysParams(self.eps),
            spectral.SpectralSolver(grid),
            psd.SolverConfig(tol=self.tol),
        )
        phi0 = experiments.random_initial_data(grid, self.data_seed)
        return scheme, schemes.restart_state(grid, phi0)

    def setup(self) -> None:
        self._build()

    def run(self, workdir: Path, checks: Checks) -> UnitResult:
        start = time.perf_counter()
        scheme, state = self._build()
        for _ in range(self.steps):
            state, report = scheme.step(state, self.dt)
        wall = time.perf_counter() - start

        checks.check(
            state.step_index == self.steps, f"stopped after {state.step_index} steps"
        )
        if self.reference is not None:
            expected = self.reference["final_energy"][str(self.data_seed)]
            checks.check(
                within(report.energy, expected, self.reference["rel_tol"]),
                f"final energy {report.energy!r} differs from reference {expected!r}",
            )
        return UnitResult(start, wall, 0, (report.energy,))


WORKLOADS = {w.name: w for w in (Coarsen2d, Converge, Film3d)}


def make(name: str, seed: int):
    """The named workload at its benchmark size, checked against reference.json."""
    reference = json.loads(REFERENCE_PATH.read_text())[name]
    return WORKLOADS[name](seed=seed, reference=reference)


def run_unit(
    workload, workdir: Path, checks: Checks, tracer=None, host_speed: bool = False
) -> UnitResult:
    """Run one unit with the step recorder (and ``tracer``) installed.

    With ``host_speed`` the host-speed kernel is timed before every step and
    once after the unit (see :meth:`UnitResult.at_reference_speed`).
    """
    recorder = StepRecorder(checks, workload.energy_decay, host_speed)
    patches = Patches()
    try:
        if tracer is not None:
            import thinfilm

            tracer.install(thinfilm, patches)
        recorder.install(patches)
        result = workload.run(workdir, checks)
    finally:
        patches.undo()
    result.step_times = recorder.times
    result.psd_iters = recorder.iters
    result.step_ends = recorder.ends
    if host_speed:
        result.kernel_s = recorder.kernel_s + [hostspeed.kernel_s()]
        result.paused_s = recorder.paused_s
    return result
