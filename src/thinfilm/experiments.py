"""Reference experiments: accuracy studies and droplet coarsening.

Accuracy is measured against a manufactured profile on the unit square,

    Phi(x, y, t) = 1 + (1 / 2 pi) sin(2 pi x) cos(2 pi y) cos(t),

driven through the discrete equations by the source

    S = dPhi/dt - lap_h( mu_h(Phi) ),

built from the same grid operators the schemes use.  The sampled profile
then satisfies the semi-discrete system exactly, so measured errors are
purely temporal and expose clean first/second order slopes without a
spatial error floor.

The coarsening study evolves seeded random initial data 2 + 0.1 (2r - 1)
on a (0, 12.8)^2 box with eps = 0.02 through a piecewise-constant step-size
ladder, restarting the two-step scheme (phi_prev = phi) at every ladder
rung, and records the energy history plus field snapshots.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import PhysParams, discrete_energy, mu_exact
from .errors import (
    InsufficientDataError,
    NonPositiveValueError,
    PositivityLostError,
    UnfinishedError,
)
from .grid import Grid, lap, mean, norm_2, norm_inf
from .io import EnergyRecord
from .psd import SolverConfig
from .schemes import Bdf2Scheme, FirstOrderScheme, initial_state, restart_state
from .spectral import SpectralSolver

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form positive profile on the periodic unit square."""

    amplitude: float = 1.0 / _TWO_PI
    base: float = 1.0

    def _check(self, grid: Grid) -> None:
        if grid.dim != 2:
            raise ValueError("manufactured profile is two-dimensional")

    def sample(self, grid: Grid, t: float) -> np.ndarray:
        self._check(grid)
        x, y = grid.coordinates()
        return self.base + self.amplitude * np.sin(_TWO_PI * x) * np.cos(
            _TWO_PI * y
        ) * math.cos(t)

    def time_derivative(self, grid: Grid, t: float) -> np.ndarray:
        self._check(grid)
        x, y = grid.coordinates()
        return -self.amplitude * np.sin(_TWO_PI * x) * np.cos(_TWO_PI * y) * math.sin(
            t
        )

    def forcing(self, grid: Grid, eps: float, t: float) -> np.ndarray:
        """Source making the sampled profile satisfy the discrete flow."""
        phi = self.sample(grid, t)
        s = self.time_derivative(grid, t) - lap(grid, mu_exact(grid, phi, eps))
        m = mean(grid, s)
        # Rounding alone leaves a mean of order eps_mach * |S|_inf; anything
        # materially larger would signal a broken assembly.
        assert abs(m) <= 1e-13 * max(1.0, norm_inf(s)), (
            f"forcing mean {m:.3e} out of tolerance"
        )
        return s


def forcing_term(t: float, grid: Grid, eps: float) -> np.ndarray:
    """Source of the default manufactured profile at time t."""
    return ManufacturedSolution().forcing(grid, eps, t)


@dataclass
class ConvergenceTable:
    """Errors at a ladder of resolutions with log-log least-squares fits."""

    resolutions: list
    errors_l2: list
    errors_linf: list
    slope_l2: float
    intercept_l2: float
    slope_linf: float
    intercept_linf: float

    @classmethod
    def from_errors(cls, resolutions, errors_l2, errors_linf):
        if len(resolutions) < 3:
            raise InsufficientDataError(
                f"need at least 3 resolutions to fit, got {len(resolutions)}"
            )
        if any(e <= 0.0 for e in errors_l2) or any(e <= 0.0 for e in errors_linf):
            raise NonPositiveValueError("errors must be positive for a log-log fit")
        logr = np.log(np.asarray(resolutions, dtype=float))
        c2 = np.polyfit(logr, np.log(errors_l2), 1)
        cinf = np.polyfit(logr, np.log(errors_linf), 1)
        return cls(
            resolutions=list(resolutions),
            errors_l2=list(errors_l2),
            errors_linf=list(errors_linf),
            slope_l2=float(c2[0]),
            intercept_l2=float(c2[1]),
            slope_linf=float(cinf[0]),
            intercept_linf=float(cinf[1]),
        )


def run_convergence_first_order(
    n: int = 128,
    nt_values=(100, 200, 400, 800),
    eps: float = 0.5,
    t_final: float = 1.0,
    length: float = 1.0,
    psd_config: Optional[SolverConfig] = None,
    on_resolution=None,
) -> ConvergenceTable:
    """Temporal refinement of the one-step scheme at fixed spatial grid.

    Errors are measured against the sampled manufactured profile at
    t_final; the expected l2 slope against the step count is -1.
    """
    grid = Grid(2, n, length)
    solver = SpectralSolver(grid)
    profile = ManufacturedSolution()
    scheme = FirstOrderScheme(grid, PhysParams(eps), solver, psd_config)
    exact = profile.sample(grid, t_final)
    errors_l2, errors_linf = [], []
    for nt in nt_values:
        dt = t_final / nt
        state = initial_state(grid, profile.sample(grid, 0.0))
        for k in range(1, nt + 1):
            source = profile.forcing(grid, eps, k * dt)
            state, _ = scheme.step(state, dt, forcing=source)
        diff = state.phi - exact
        errors_l2.append(norm_2(grid, diff))
        errors_linf.append(norm_inf(diff))
        if on_resolution is not None:
            on_resolution(nt, errors_l2[-1], errors_linf[-1])
    return ConvergenceTable.from_errors(list(nt_values), errors_l2, errors_linf)


def run_convergence_bdf2(
    n_values=(32, 48, 64, 96),
    eps: float = 0.5,
    t_final: float = 1.0,
    dt_factor: float = 0.5,
    length: float = 1.0,
    a0: Optional[float] = None,
    a_stab: Optional[float] = None,
    psd_config: Optional[SolverConfig] = None,
    on_resolution=None,
) -> ConvergenceTable:
    """Joint space-time refinement of the two-step scheme with dt = factor*h.

    History is synthesized by the ghost start, so the whole run is second
    order and both error norms fit slope -2 against n.
    """
    profile = ManufacturedSolution()
    errors_l2, errors_linf = [], []
    for n in n_values:
        grid = Grid(2, n, length)
        dt = dt_factor * grid.h
        steps = int(round(t_final / dt))
        if abs(steps * dt - t_final) > 1e-9 * t_final:
            raise ValueError(
                f"dt = {dt} does not divide t_final = {t_final} (n = {n})"
            )
        scheme = Bdf2Scheme(grid, PhysParams(eps, a0, a_stab), psd_config=psd_config)
        phi0 = profile.sample(grid, 0.0)
        state = scheme.cold_start(phi0, dt, forcing=profile.forcing(grid, eps, 0.0))
        for k in range(1, steps + 1):
            source = profile.forcing(grid, eps, k * dt)
            state, _ = scheme.step(state, dt, forcing=source)
        diff = state.phi - profile.sample(grid, t_final)
        errors_l2.append(norm_2(grid, diff))
        errors_linf.append(norm_inf(diff))
        if on_resolution is not None:
            on_resolution(n, errors_l2[-1], errors_linf[-1])
    return ConvergenceTable.from_errors(list(n_values), errors_l2, errors_linf)


def random_initial_data(grid: Grid, seed: int) -> np.ndarray:
    """Seeded uniform perturbation 2 + 0.1 (2r - 1), r ~ U[0, 1).

    The stream is a PCG64 generator filled in C order; golden tests pin the
    exact values, so the generator identity is part of the format.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return 2.0 + 0.1 * (2.0 * rng.random(grid.shape) - 1.0)


def fit_power_law(times, values, t_min: float, t_max: float):
    """Least-squares fit values ~ a * t^b over the window [t_min, t_max].

    Returns (a, b).  Requires at least three window points with positive
    times and values.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    sel = (t >= t_min) & (t <= t_max)
    if int(np.sum(sel)) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples in [{t_min}, {t_max}], got {int(np.sum(sel))}"
        )
    t, v = t[sel], v[sel]
    if np.any(t <= 0.0):
        raise NonPositiveValueError("fit window contains non-positive times")
    if np.any(v <= 0.0):
        raise NonPositiveValueError("fit window contains non-positive values")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return float(np.exp(intercept)), float(slope)


DEFAULT_SCHEDULE = ((100.0, 0.001), (500.0, 0.004), (2000.0, 0.008), (6000.0, 0.02))
DEFAULT_SNAPSHOT_TIMES = (
    6.0, 20.0, 40.0, 60.0, 100.0, 200.0, 300.0, 400.0, 500.0, 900.0, 2000.0, 6000.0,
)


@dataclass
class CoarseningConfig:
    """Inputs of the coarsening study.

    The schedule is a ladder of (segment end time, dt) rungs covering
    (0, t_end]; dt must be non-decreasing along the ladder.  Every rung
    change restarts the two-step scheme with duplicated history.
    """

    n: int = 128
    length: float = 12.8
    eps: float = 0.02
    seed: int = 0
    t_end: float = 6000.0
    schedule: tuple = DEFAULT_SCHEDULE
    snapshot_times: tuple = DEFAULT_SNAPSHOT_TIMES
    a0: Optional[float] = None
    a_stab: Optional[float] = None
    record_cutoff: float = 100.0
    record_every_late: int = 10
    psd: SolverConfig = field(default_factory=SolverConfig)
    wall_clock_budget: Optional[float] = None

    def __post_init__(self):
        if not (self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        prev_end, prev_dt = 0.0, 0.0
        for seg_end, dt in self.schedule:
            if not (seg_end > prev_end and dt > 0.0 and dt >= prev_dt):
                raise ValueError(f"bad schedule rung ({seg_end}, {dt})")
            prev_end, prev_dt = seg_end, dt
        if self.record_every_late < 1:
            raise ValueError("record_every_late must be >= 1")


@dataclass
class CoarseningRun:
    """Outputs: energy history, snapshots (time, field), final state."""

    grid: Grid
    records: list
    snapshots: list
    final_phi: np.ndarray
    final_t: float


def run_coarsening(config: CoarseningConfig, progress=None) -> CoarseningRun:
    """Evolve seeded random data through the step-size ladder.

    Records every step up to record_cutoff, then every record_every_late-th
    step (and each rung's last step).  Snapshots are taken at the last
    completed step at or before each requested time; requests beyond the
    end of the run are dropped.  Raises UnfinishedError carrying partial
    results if the wall-clock budget runs out; propagates solver failures
    as-is.  ``progress(steps, t, iters, line_evals)``, when given, is called
    every 1000 steps with the CG iterations and line evaluations of those
    1000 steps.
    """
    grid = Grid(2, config.n, config.length)
    params = PhysParams(config.eps, config.a0, config.a_stab)
    solver = SpectralSolver(grid)
    scheme = Bdf2Scheme(grid, params, solver, config.psd)
    phi0 = random_initial_data(grid, config.seed)

    records: list = []
    snapshots: list = []
    pending = sorted(config.snapshot_times)
    nan = float("nan")

    first_dt = config.schedule[0][1]
    try:
        state = scheme.cold_start(phi0, first_dt)
    except PositivityLostError:
        state = restart_state(grid, phi0)
    records.append(
        EnergyRecord(
            t=0.0,
            energy=discrete_energy(grid, phi0, config.eps),
            modified_energy=nan,
            mass=mean(grid, phi0),
            min_phi=float(np.min(phi0)),
            psd_iters=0,
            residual=nan,
        )
    )

    def flush_snapshots(current_t: float, upcoming_t: Optional[float]) -> None:
        # upcoming_t None means no further steps: satisfy requests up to the
        # achieved time and silently drop the ones beyond it.
        threshold = current_t + 1e-9 if upcoming_t is None else upcoming_t - 1e-9
        while pending and pending[0] < threshold:
            pending.pop(0)
            snapshots.append((current_t, state.phi.copy()))

    def partial() -> CoarseningRun:
        return CoarseningRun(grid, records, snapshots, state.phi.copy(), state.t)

    # Clip the ladder to t_end up front so every segment knows its successor
    # (needed to align snapshots with the true next step time).
    segments = []
    seg_start = 0.0
    for seg_end, dt in config.schedule:
        if seg_start >= config.t_end - 1e-12:
            break
        seg_stop = min(seg_end, config.t_end)
        nsteps = int(math.floor((seg_stop - seg_start) / dt + 1e-9))
        if nsteps >= 1:
            segments.append((seg_start, dt, nsteps))
        seg_start = seg_stop

    clock_start = time.monotonic()
    total_steps = 0
    window_iters = window_evals = 0
    if segments:
        flush_snapshots(0.0, segments[0][0] + segments[0][1])
    for iseg, (seg_start, dt, nsteps) in enumerate(segments):
        if iseg > 0:
            state = restart_state(grid, state.phi, state.t)
        for k in range(1, nsteps + 1):
            if (
                config.wall_clock_budget is not None
                and time.monotonic() - clock_start > config.wall_clock_budget
            ):
                raise UnfinishedError(
                    f"wall clock budget exceeded at t = {state.t:.6g}",
                    partial=partial(),
                )
            state, report = scheme.step(state, dt)
            t_now = seg_start + k * dt
            state.t = t_now
            total_steps += 1
            window_iters += report.psd_iters
            window_evals += report.line_evals
            last_of_segment = k == nsteps
            if (
                t_now <= config.record_cutoff + 1e-12
                or total_steps % config.record_every_late == 0
                or last_of_segment
            ):
                records.append(
                    EnergyRecord(
                        t=t_now,
                        energy=report.energy,
                        modified_energy=(
                            nan
                            if report.modified_energy is None
                            else report.modified_energy
                        ),
                        mass=mean(grid, state.phi),
                        min_phi=report.min_phi,
                        psd_iters=report.psd_iters,
                        residual=report.final_residual,
                    )
                )
            if not last_of_segment:
                upcoming = seg_start + (k + 1) * dt
            elif iseg + 1 < len(segments):
                upcoming = segments[iseg + 1][0] + segments[iseg + 1][1]
            else:
                upcoming = None
            flush_snapshots(t_now, upcoming)
            if progress is not None and total_steps % 1000 == 0:
                progress(total_steps, t_now, window_iters, window_evals)
                window_iters = window_evals = 0
    flush_snapshots(state.t, None)
    return CoarseningRun(grid, records, snapshots, state.phi.copy(), state.t)
