"""Reference experiments: accuracy studies and droplet coarsening.

Accuracy is measured against a manufactured profile on the unit square
(the only box it accepts),

    Phi(x, y, t) = 1 + (1 / 2 pi) sin(2 pi x) cos(2 pi y) cos(t),

driven through the discrete equations by the source

    S = dPhi/dt - lap_h( mu_h(Phi) ),

built from the same grid operators the schemes use.  The sampled profile
then satisfies the semi-discrete system exactly, so measured errors are
purely temporal and expose clean first/second order slopes without a
spatial error floor.  A forcing whose mean exceeds rounding raises
NonZeroMeanError.

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

from .energy import PhysParams, _bulk_potential, discrete_energy
from .errors import (
    ConfigError,
    InsufficientDataError,
    NonPositiveValueError,
    NonZeroMeanError,
    PositivityLostError,
    ThinFilmError,
    UnfinishedError,
    check_count,
    check_nonnegative_finite,
    check_positive_finite,
    check_real,
)
from .grid import Grid, lap, norm_2, norm_inf
from .io import EnergyRecord
from .psd import SolverConfig
from .schemes import Bdf2Scheme, FirstOrderScheme, restart_state

_TWO_PI = 2.0 * math.pi
# Phi = _BASE + _AMPLITUDE sin(2 pi x) cos(2 pi y) cos(t) >= 1 - 1/(2 pi) > 0.
_AMPLITUDE = 1.0 / _TWO_PI
_BASE = 1.0


class ManufacturedSolution:
    """Closed-form positive profile on the periodic unit square.

    The profile's shape is built once per grid and kept by the instance, as
    a study steps each rung hundreds of times; it is read-only, since every
    call on that grid gets the same array.
    """

    def __init__(self):
        self._profiles = {}

    def _profile(self, grid: Grid) -> np.ndarray:
        """_AMPLITUDE sin(2 pi x) cos(2 pi y), the shape both time factors scale."""
        profile = self._profiles.get(grid)
        if profile is None:
            # On a box of non-integer side the profile is not even periodic.
            if grid.dim != 2 or grid.length != 1.0:
                raise ValueError(
                    "manufactured profile lives on the unit square, "
                    f"got dim {grid.dim}, length {grid.length}"
                )
            x, y = grid.coordinates()
            profile = _AMPLITUDE * np.sin(_TWO_PI * x) * np.cos(_TWO_PI * y)
            profile.flags.writeable = False
            self._profiles[grid] = profile
        return profile

    def sample(self, grid: Grid, t: float) -> np.ndarray:
        check_nonnegative_finite("t", t)
        return _BASE + self._profile(grid) * math.cos(t)

    def forcing(self, grid: Grid, eps: float, t: float) -> np.ndarray:
        """Source making the sampled profile satisfy the discrete flow.

        The profile's shape P is an eigenfunction of the 5-point Laplacian,
        lap_h P = -lam P with lam = (8 / h^2) sin^2(pi h), so with
        mu_h(Phi) = N(Phi) - eps^2 lap_h(Phi), N the bulk potential,

            S = P (-sin t + eps^2 lam^2 cos t) - lap_h N(Phi),

        one Laplacian per call.
        """
        check_positive_finite("eps", eps)
        check_nonnegative_finite("t", t)
        profile = self._profile(grid)
        cos_t = math.cos(t)
        lam = (8.0 / (grid.h * grid.h)) * math.sin(math.pi * grid.h) ** 2
        bulk = _bulk_potential(_BASE + profile * cos_t)
        s = profile * (-math.sin(t) + eps**2 * lam**2 * cos_t) - lap(grid, bulk)
        m = float(s.sum() / s.size)
        # Rounding alone leaves a mean of order eps_mach * |S|_inf; anything
        # materially larger would signal a broken assembly.
        if not abs(m) <= 1e-13 * max(1.0, norm_inf(s)):
            raise NonZeroMeanError(f"forcing mean {m:.3e} out of tolerance")
        return s


def _loglog_fit(x, y, what: str):
    """Least-squares line log y = slope log x + intercept; returns both.

    Needs at least three distinct x (``what`` names them in the error) and
    finite positive x and y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    distinct = np.unique(x).size
    if distinct < 3:
        raise InsufficientDataError(f"need 3 distinct {what} to fit, got {distinct}")
    # nan fails every comparison, so require the good range rather than
    # refuse the bad one.
    if not ((x > 0.0) & (x < math.inf) & (y > 0.0) & (y < math.inf)).all():
        raise NonPositiveValueError(
            f"{what} and their values must be finite and positive for a log-log fit"
        )
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


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
        l2 = _loglog_fit(resolutions, errors_l2, "resolutions")
        linf = _loglog_fit(resolutions, errors_linf, "resolutions")
        # (slope, intercept) pairs, in field order
        return cls(list(resolutions), list(errors_l2), list(errors_linf), *l2, *linf)


def _check_study(t_final: float, ladder) -> None:
    check_positive_finite("t_final", t_final)
    # The fit needs three distinct rungs: refuse a ladder with fewer before
    # the first step.
    if len(set(ladder)) < 3:
        raise ConfigError(f"need at least 3 rungs to fit, got {list(ladder)}")


def _convergence_table(runs, profile, eps, t_final, on_resolution):
    """March each (label, scheme, state, dt, steps) run under the forcing.

    The error is measured against the profile sampled at t_final, not at
    the accumulated state time.
    """
    labels, errors_l2, errors_linf = [], [], []
    for label, scheme, state, dt, steps in runs:
        grid = scheme.grid
        for k in range(1, steps + 1):
            source = profile.forcing(grid, eps, k * dt)
            state, _ = scheme.step(state, dt, forcing=source)
        diff = state.phi - profile.sample(grid, t_final)
        labels.append(label)
        errors_l2.append(norm_2(grid, diff))
        errors_linf.append(norm_inf(diff))
        if on_resolution is not None:
            on_resolution(label, errors_l2[-1], errors_linf[-1])
    return ConvergenceTable.from_errors(labels, errors_l2, errors_linf)


def run_convergence_first_order(
    n: int = 128,
    nt_values=(100, 200, 400, 800),
    eps: float = 0.5,
    t_final: float = 1.0,
    psd_config: Optional[SolverConfig] = None,
    on_resolution=None,
) -> ConvergenceTable:
    """Temporal refinement of the one-step scheme at fixed spatial grid.

    Errors are measured against the sampled manufactured profile at
    t_final; the expected l2 slope against the step count is -1.
    """
    _check_study(t_final, nt_values)
    for nt in nt_values:
        check_count("step count", nt, 1)
    grid = Grid(2, n, 1.0)
    profile = ManufacturedSolution()
    scheme = FirstOrderScheme(grid, PhysParams(eps), psd_config=psd_config)
    runs = (
        (nt, scheme, restart_state(grid, profile.sample(grid, 0.0)), t_final / nt, nt)
        for nt in nt_values
    )
    return _convergence_table(runs, profile, eps, t_final, on_resolution)


def run_convergence_bdf2(
    n_values=(32, 48, 64, 96),
    eps: float = 0.5,
    t_final: float = 1.0,
    dt_factor: float = 0.5,
    a0: Optional[float] = None,
    a_stab: Optional[float] = None,
    psd_config: Optional[SolverConfig] = None,
    on_resolution=None,
) -> ConvergenceTable:
    """Joint space-time refinement of the two-step scheme with dt = factor*h.

    History is synthesized by Bdf2Scheme.cold_start, so the whole run is second
    order and both error norms fit slope -2 against n.  Every rung's dt must
    divide t_final, which is checked before the first step.
    """
    _check_study(t_final, n_values)
    check_positive_finite("dt_factor", dt_factor)
    profile = ManufacturedSolution()
    rungs = []
    for n in n_values:
        grid = Grid(2, n, 1.0)
        dt = dt_factor * grid.h
        steps = int(round(t_final / dt))
        if abs(steps * dt - t_final) > 1e-9 * t_final:
            raise ConfigError(f"dt = {dt} does not divide t_final = {t_final} (n = {n})")
        rungs.append((n, grid, dt, steps))

    def runs():
        for n, grid, dt, steps in rungs:
            scheme = Bdf2Scheme(grid, PhysParams(eps, a0, a_stab), psd_config=psd_config)
            phi0 = profile.sample(grid, 0.0)
            state = scheme.cold_start(phi0, dt, forcing=profile.forcing(grid, eps, 0.0))
            yield n, scheme, state, dt, steps

    return _convergence_table(runs(), profile, eps, t_final, on_resolution)


def random_initial_data(grid: Grid, seed: int) -> np.ndarray:
    """Seeded uniform perturbation 2 + 0.1 (2r - 1), r ~ U[0, 1).

    The stream is a PCG64 generator filled in C order; golden tests pin the
    exact values, so the generator identity is part of the format.
    """
    check_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return 2.0 + 0.1 * (2.0 * rng.random(grid.shape) - 1.0)


def fit_power_law(times, values, t_min: float, t_max: float):
    """Least-squares fit values ~ a * t^b over the window [t_min, t_max].

    Returns (a, b).  Requires at least three distinct times in the window,
    and finite positive times and values there; the window's bounds are
    reals >= 0, +inf allowed.
    """
    check_real("t_min", t_min, 0.0)
    check_real("t_max", t_max, 0.0)
    t = np.asarray(times, dtype=float)
    sel = (t >= t_min) & (t <= t_max)
    slope, intercept = _loglog_fit(
        t[sel], np.asarray(values, dtype=float)[sel], f"times in [{t_min}, {t_max}]"
    )
    return float(np.exp(intercept)), slope


@dataclass
class CoarseningConfig:
    """Inputs of the coarsening study.

    The schedule is a ladder of (segment end time, dt) rungs covering
    (0, t_end], so t_end lies within the ladder; dt must be non-decreasing
    along the ladder.  Every rung change restarts the two-step scheme with
    duplicated history.
    """

    n: int = 128
    length: float = 12.8
    eps: float = 0.02
    seed: int = 0
    t_end: float = 6000.0
    schedule: tuple = ((100.0, 0.001), (500.0, 0.004), (2000.0, 0.008), (6000.0, 0.02))
    snapshot_times: tuple = (
        6.0, 20.0, 40.0, 60.0, 100.0, 200.0, 300.0, 400.0, 500.0, 900.0, 2000.0, 6000.0,
    )
    record_cutoff: float = 100.0
    record_every_late: int = 10
    psd: SolverConfig = field(default_factory=SolverConfig)
    wall_clock_budget: float = math.inf

    def __post_init__(self):
        # The grid's, the parameters' and the seed's own rules, at construction.
        Grid(2, self.n, self.length)
        PhysParams(self.eps)
        check_count("seed", self.seed, 0)
        check_positive_finite("t_end", self.t_end)
        prev_end, prev_dt = 0.0, 0.0
        for seg_end, dt in self.schedule:
            check_real("schedule", seg_end)
            check_real("schedule", dt)
            if not (seg_end > prev_end and dt > 0.0 and dt >= prev_dt):
                raise ConfigError(f"bad schedule rung ({seg_end}, {dt})")
            prev_end, prev_dt = seg_end, dt
        # Past the last rung's end the run would stop early, without a word.
        if not self.t_end <= prev_end:
            raise ConfigError(f"t_end must lie in (0, {prev_end}], got {self.t_end}")
        check_count("record_every_late", self.record_every_late, 1)
        # nan fails every comparison: the run would drop records, scramble
        # the sorted snapshot requests and lose some, or never run out of
        # budget.  +inf is a time the run never reaches.
        check_real("record_cutoff", self.record_cutoff)
        for t in self.snapshot_times:
            check_real("snapshot_times", t)
        check_real("wall_clock_budget", self.wall_clock_budget, 0.0)


@dataclass
class CoarseningRun:
    """Outputs: energy history, snapshots (time, field), final state."""

    grid: Grid
    records: list
    snapshots: list
    final_phi: np.ndarray
    final_t: float


def _step_plan(config: CoarseningConfig):
    """Yield (t, dt, restart, last_of_rung) for each step of the clipped ladder.

    A rung runs whole steps from the time reached so far to
    min(rung end, t_end); a rung that fits no step is skipped and leaves
    the time where it was.  A rung whose steps land on its end (to 1e-9 of
    a step) hands the next rung its end exactly.  Every rung after the
    first one that takes a step restarts the two-step scheme.
    """
    start, fresh = 0.0, True
    for end, dt in config.schedule:
        if start >= config.t_end - 1e-12:
            return
        stop = min(end, config.t_end)
        nsteps = int(math.floor((stop - start) / dt + 1e-9))
        for k in range(1, nsteps + 1):
            yield start + k * dt, dt, k == 1 and not fresh, k == nsteps
        fresh = fresh and nsteps == 0
        reached = start + nsteps * dt
        start = stop if abs(stop - reached) <= 1e-9 * dt else reached


def run_coarsening(config: CoarseningConfig, progress=None) -> CoarseningRun:
    """Evolve seeded random data through the step-size ladder.

    Records every step up to record_cutoff, then every record_every_late-th
    step (and each rung's last step).  A snapshot request is served by the
    state (the initial one included) just before the first step that passes
    it by more than 1e-9, or by the final state; requests beyond the end of
    the run are dropped.  A run that stops early raises a ThinFilmError with
    the completed steps' run as its ``partial``: UnfinishedError when the
    wall-clock budget runs out, or a failed step's own error
    (SolverDivergedError, BarrierCollapseError, PositivityLostError, ...).
    ``progress(steps, t, iters, line_evals)``, when given, is called every
    1000 steps with the CG iterations and line evaluations of those 1000
    steps.
    """
    grid = Grid(2, config.n, config.length)
    scheme = Bdf2Scheme(grid, PhysParams(config.eps), psd_config=config.psd)
    phi0 = random_initial_data(grid, config.seed)
    first = next(_step_plan(config), None)
    # History is synthesized with the dt of the first step taken.
    dt0 = config.schedule[0][1] if first is None else first[1]
    try:
        state = scheme.cold_start(phi0, dt0)
    except PositivityLostError:
        state = restart_state(grid, phi0)
    records = [
        EnergyRecord(
            t=0.0,
            energy=discrete_energy(grid, phi0, config.eps),
            modified_energy=math.nan,
            mass=float(phi0.sum() / phi0.size),
            min_phi=float(phi0.min()),
            psd_iters=0,
            residual=math.nan,
        )
    ]
    snapshots: list = []
    pending = sorted(config.snapshot_times, reverse=True)

    def serve_snapshots(below: float) -> None:
        while pending and pending[-1] < below:
            pending.pop()
            snapshots.append((state.t, state.phi.copy()))

    clock_start = time.monotonic()
    window_iters = window_evals = 0
    try:
        for steps, (t, dt, restart, last_of_rung) in enumerate(_step_plan(config), 1):
            serve_snapshots(t - 1e-9)
            if time.monotonic() - clock_start > config.wall_clock_budget:
                raise UnfinishedError(f"wall clock budget exceeded at t = {state.t:.6g}")
            if restart:
                state = restart_state(grid, state.phi, state.t)
            state, report = scheme.step(state, dt)
            state.t = t
            window_iters += report.psd_iters
            window_evals += report.line_evals
            if (
                t <= config.record_cutoff + 1e-12
                or steps % config.record_every_late == 0
                or last_of_rung
            ):
                records.append(
                    EnergyRecord(
                        t=t,
                        energy=report.energy,
                        modified_energy=report.modified_energy,
                        mass=float(state.phi.sum() / state.phi.size),
                        min_phi=report.min_phi,
                        psd_iters=report.psd_iters,
                        residual=report.final_residual,
                    )
                )
            if progress is not None and steps % 1000 == 0:
                progress(steps, t, window_iters, window_evals)
                window_iters = window_evals = 0
    except ThinFilmError as exc:
        exc.partial = CoarseningRun(grid, records, snapshots, state.phi.copy(), state.t)
        raise
    serve_snapshots(state.t + 1e-9)
    return CoarseningRun(grid, records, snapshots, state.phi.copy(), state.t)
