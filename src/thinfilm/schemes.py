"""Positivity-preserving implicit time steppers for the film equation.

The evolution is the mass-conserving gradient flow

    d phi / dt = lap(mu),    mu = -(8/3)(phi^-9 - phi^-3) - eps^2 lap(phi),

discretized on a periodic staggered grid.  Two steppers are provided.

FirstOrderScheme treats the convex potential term phi^-9 and the surface
term implicitly and the concave term phi^-3 explicitly:

    (phi' - phi) / dt = lap[ -(8/3) phi'^-9 + (8/3) phi^-3 - eps^2 lap phi' ].

Bdf2Scheme is the stabilized two-step variant, second order in time:

    (3/2 phi' - 2 phi + 1/2 phi_prev) / dt = lap(mu'),
    mu' = -(8/3)(phi'^-9 - phi'^-3) + (8/3) a0 (phi' - phi_hat)
          - a_stab dt lap(phi' - phi) - eps^2 lap(phi'),

with phi_hat = 2 phi - phi_prev, a0 at least the convexity constant
a0_star() and a_stab >= (4/9) a0^2.

Every step is posed as the Euler-Lagrange equation of a strictly convex
functional on the fixed-mean slice and solved by preconditioned nonlinear
CG (PR+); iterates stay strictly positive through the line-search barrier,
so the singular potential is never evaluated at a non-positive height.  An
optional source field S (mean-zero) turns the mass balance into
d phi / dt = lap(mu) + S; its lifted contribution (-lap)^{-1}(S - mean S)
enters the residual additively and is assembled once per step.

restart_state (either scheme) and Bdf2Scheme.cold_start refuse start data
that is not finite and strictly positive; cold_start and step share one
rule for dt and one for the source (grid-shaped, finite, mean-zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import energy as _energy
from .energy import PhysParams, a0_star, check_positive
from .errors import (
    ConfigError,
    InvalidCoefficientsError,
    NonPositiveFieldError,
    NonZeroMeanError,
    PositivityLostError,
    SolverDivergedError,
)
from .grid import Grid, inner, lap, norm_inf
from .psd import SolverConfig, barrier_alpha, psd_solve
from .spectral import SpectralSolver

_STEP_MASS_TOL = 1e-12
_FORCING_MEAN_TOL = 1e-12


def _check_dt(dt: float) -> None:
    if not (0.0 < dt < math.inf):
        raise InvalidCoefficientsError(f"dt must be positive and finite, got {dt}")


@dataclass
class StepState:
    """Trajectory point: current field, previous field, time bookkeeping.

    beta0 is the conserved volume average fixed by the initial data; every
    produced state must match it to relative 1e-10.
    """

    phi: np.ndarray
    phi_prev: np.ndarray
    t: float
    beta0: float
    step_index: int


@dataclass
class StepReport:
    """Per-step diagnostics returned alongside the new state.

    line_evals sums the line-search evaluations of the solve, restarts
    counts its CG directions reset to the preconditioned gradient, and
    capped its line searches that stopped at the positivity barrier's cap.
    precond_a1 is the identity coefficient of the step's preconditioner
    (see StepSystem); final_residual is measured in the fixed metric.
    modified_energy is nan for the first-order scheme, which has none.
    """

    psd_iters: int
    final_residual: float
    energy: float
    modified_energy: float
    min_phi: float
    mass_drift: float
    line_evals: int
    restarts: int
    capped: int
    precond_a1: float


def _start_mean(grid: Grid, phi0: np.ndarray) -> float:
    """Mean beta0 of finite, strictly positive start data (a +inf makes it inf)."""
    grid.validate_field(phi0)
    check_positive(phi0, "start data")
    beta0 = float(np.mean(phi0))
    if not math.isfinite(beta0):
        raise NonPositiveFieldError(f"start data must be finite, mean = {beta0}")
    return beta0


def restart_state(grid: Grid, phi0: np.ndarray, t: float = 0.0) -> StepState:
    """Two-level state with duplicated history, phi_prev = phi0.

    Either scheme starts from it; a two-step step taken from it (as after a
    time-step-size change) degrades to first order locally without
    disturbing the energy decay.
    """
    beta0 = _start_mean(grid, phi0)
    return StepState(phi0.copy(), phi0.copy(), t, beta0, 0)


# Kept only because perfbench/workloads.py calls this name; package code
# calls restart_state.
initial_state = restart_state


class StepSystem:
    """One implicit step, whose residual has the common form

        r(phi) = (8/3)(phi^-9 [- phi^-3]) - linear phi + stiffness lap(phi)
                 - (-lap)^{-1}(weight phi - history) / dt + constant,

    the bracketed term present when ``concave`` (the phi^-3 term taken
    implicitly).  r is the negative gradient, on the fixed-mean slice, of
    the strictly convex step functional

        J(phi) = ||weight phi - history||_{-1}^2 / (2 weight dt)
                 + <(1/3) phi^-8 [- (4/3) phi^-2], 1> + (linear/2) ||phi||^2
                 + (stiffness/2) ||grad phi||^2 - <phi, constant>.

    Write r(phi) = B(phi) + K phi + c with B the pointwise inverse-power
    term and K linear.  Then K = I - L0 for the operator
    L0 = a0 (-lap)^{-1} + a1 I + a2 (-lap) with (a0, a1, a2) =
    ``coefficients``, which depend on dt alone; L0 is the fixed metric of
    the solver's stop.  The preconditioner is Lc = L0 + shift I, so
    K = (1 + shift) I - Lc: its identity coefficient
    a1 + shift = max(median(linear - B'(phi)), 0) is the median of the
    Hessian diagonal at the point of the step's first ``residual`` call,
    read from that call's pointwise pass.  ``precondition(rp)`` returns
    (Lc^{-1} rp, <L0^{-1} rp, rp>).

    psd_solve looks ``residual``, ``precondition`` and ``directional`` up on
    the instance as it calls them, so methods wrapped on the instance after
    assembly see every call.  ``directional(phi, (d, s), r)`` takes a
    direction d together with its image s = Lc d, so K d = (1 + shift) d - s
    costs no transform, and the residual r at phi, which must be the last
    one the system handed out.  It returns (g, residual_at).  g(alpha) returns the
    pair (value, slope) of g(alpha) = -<r(phi + alpha d), d> and
    g'(alpha) = <-B'(phi + alpha d) d, d> - <K d, d>: one pointwise pass and
    two dots per trial alpha.  g(0) costs two dots and no pass while the
    pass that produced r is still held: its slope comes from the curvature
    -B' of that pass.  residual_at(alpha) = r(phi + alpha d) costs one pass,
    unless the last pass of the step was this direction's trial at the same
    alpha: the line search ends at a trial it evaluated, as a rule its last,
    and that pass is then reused, to the same bits.  Both agree with the
    naive evaluation through ``residual`` to rounding error whenever s = Lc d
    to rounding error.
    """

    def __init__(self, grid: Grid, solver: SpectralSolver, dt: float, *,
                 concave: bool, linear: float, stiffness: float, weight: float,
                 history: np.ndarray, constant: np.ndarray):
        self.grid, self.solver, self.dt, self.concave = grid, solver, dt, concave
        self.linear, self.stiffness, self.weight = linear, stiffness, weight
        self.history, self.constant = history, constant
        self.coefficients = (weight / dt, linear + 1.0, stiffness)
        self.shift = None
        # Scratch fields of the pointwise pass, shared by every residual and
        # line trial of the step.  After a pass, bulk holds B(x) and curv
        # holds the curvature -B'(x) / curv_scale, both at the point x of
        # that pass; work is free.
        self._work, self._bulk, self._curv = (np.empty(grid.shape) for _ in range(3))
        self._curv_scale = 8.0 if concave else 24.0
        # The last residual handed out and its affine part K phi + c, which
        # the line closures take instead of re-deriving it as r - B(phi): the
        # rounding of that difference is on the scale of B (about 1e12 at
        # phi = 0.05) and would stay in every carried residual after it.
        self._r = self._affine = None
        # What the scratch fields hold the pass of: the affine part of a
        # residual's point, or a direction's K d after a trial at
        # _held_alpha along it.  Every pass sets it.
        self._held = self._held_alpha = None

    def _pass(self, x: np.ndarray) -> None:
        """Fill bulk and curv at x; x may be work itself."""
        work, bulk, curv = self._work, self._bulk, self._curv
        np.divide(1.0, x, out=work)
        np.multiply(work, work, out=bulk)
        np.multiply(bulk, work, out=bulk)  # x^-3
        np.multiply(bulk, bulk, out=curv)
        np.multiply(curv, bulk, out=curv)  # x^-9
        if self.concave:
            # B = (8/3)(x^-9 - x^-3) and
            # -B' = (8/3)(9 x^-10 - 3 x^-4) = 8 x^-1 (2 x^-9 + (x^-9 - x^-3))
            np.subtract(curv, bulk, out=bulk)
            np.multiply(curv, 2.0, out=curv)
            np.add(curv, bulk, out=curv)
            np.multiply(bulk, 8.0 / 3.0, out=bulk)
        else:
            # -B' = 24 x^-10, B = (8/3) x^-9
            np.multiply(curv, 8.0 / 3.0, out=bulk)
        np.multiply(curv, work, out=curv)

    def residual(self, phi: np.ndarray) -> np.ndarray:
        check_positive(phi, "iterate")
        affine = self.stiffness * lap(self.grid, phi)
        if self.linear:
            affine -= self.linear * phi
        # weight phi - history, formed in the free scratch field, is mean-free
        # in exact arithmetic (mass conservation), but its mean cancels to
        # rounding on the scale of phi, not of the increment: finish the
        # cancellation before the solve.
        lifted = np.subtract(self.weight * phi, self.history, out=self._work)
        lifted -= np.mean(lifted)
        affine -= self.solver.inv_neg_lap(lifted) / self.dt
        affine += self.constant
        self._pass(phi)
        if self.shift is None:
            # The (upper) median of the curvature: one partition of a copy
            # in the scratch field that the pass leaves free.
            flat = self._work.reshape(-1)
            np.copyto(flat, self._curv.reshape(-1))
            k = flat.size // 2
            flat.partition(k)
            c = max(self.linear + self._curv_scale * flat[k], 0.0)
            self.shift = c - self.coefficients[1]
        r = self._bulk + affine
        self._r = r
        self._affine = self._held = affine
        return r

    def precondition(self, rp: np.ndarray) -> tuple:
        if self.shift is None:
            raise ValueError("precondition needs the step's first residual")
        return self.solver.solve_preconditioner(rp, *self.coefficients, self.shift)

    def directional(self, phi: np.ndarray, direction: tuple, r_phi: np.ndarray):
        if r_phi is not self._r:
            raise ValueError("directional needs the last residual the step system handed out")
        d, image = direction
        grid, affine = self.grid, self._affine
        work, bulk, curv = self._work, self._bulk, self._curv
        scale, curv_scale = grid.cell_volume, self._curv_scale
        kd = (1.0 + self.shift) * d
        kd -= image
        dflat = d.ravel()
        s0 = inner(grid, affine, d)
        s1 = inner(grid, kd, d)

        def trial(alpha: float) -> None:
            np.multiply(d, alpha, out=work)
            np.add(work, phi, out=work)
            if not work.min() > 0.0:
                raise NonPositiveFieldError("line trial point is not strictly positive")
            self._pass(work)
            # kd is new with every direction, so a pass is never reused
            # along another one.
            self._held, self._held_alpha = kd, alpha

        def g(alpha: float) -> tuple:
            # At alpha = 0 the pass of the residual at phi, when still held,
            # serves: g(0) then costs two dots and no pass.
            if not (alpha == 0.0 and self._held is affine):
                trial(alpha)
            value = -(scale * float(np.dot(bulk.ravel(), dflat)) + s0 + alpha * s1)
            # g' = <-B' d, d> - <K d, d>, with d^2 never stored
            np.multiply(curv, d, out=work)
            return value, curv_scale * scale * float(np.dot(work.ravel(), dflat)) - s1

        def residual_at(alpha: float) -> np.ndarray:
            # The scratch fields still hold the pass at phi + alpha d when
            # the last pass was this direction's trial at alpha.
            if not (self._held is kd and self._held_alpha == alpha):
                trial(alpha)
            moved = affine + alpha * kd
            out = bulk + moved
            self._r = out
            self._affine = self._held = moved
            return out

        return g, residual_at


class _SchemeBase:
    def __init__(
        self,
        grid: Grid,
        params: PhysParams,
        solver: Optional[SpectralSolver] = None,
        psd_config: Optional[SolverConfig] = None,
    ):
        self.grid = grid
        self.params = params
        self.solver = solver if solver is not None else SpectralSolver(grid)
        if self.solver.grid != grid:
            raise ConfigError(f"solver grid {self.solver.grid} is not the scheme's {grid}")
        self.psd_config = psd_config if psd_config is not None else SolverConfig()

    def _mean_free_source(self, forcing: np.ndarray) -> np.ndarray:
        """The source minus its mean; a nan mean or an infinite scale fails
        the test, so only a finite source with a rounding-level mean passes."""
        self.grid.validate_field(forcing)
        m = float(np.mean(forcing))
        if not abs(m) <= _FORCING_MEAN_TOL * max(1.0, norm_inf(forcing)) < math.inf:
            raise NonZeroMeanError(
                f"source field must be finite and mean-zero, got mean {m:.3e}"
            )
        return forcing - m

    def _finish_step(self, state: StepState, phi_new: np.ndarray, trace,
                     system: StepSystem) -> tuple:
        min_phi = float(np.min(phi_new))
        if not min_phi > 0.0:
            raise PositivityLostError(f"step produced min phi = {min_phi}")
        # Consistency is judged per step (a broken solve shifts the mean far
        # beyond rounding in a single update); the cumulative drift against
        # the conserved mean is reported for monitoring.
        new_mean = float(np.mean(phi_new))
        step_drift = abs(new_mean - float(np.mean(state.phi)))
        if step_drift > _STEP_MASS_TOL * max(1.0, abs(state.beta0)):
            raise SolverDivergedError(
                f"mass drifted by {step_drift:.3e} in one step; solve is inconsistent",
                phi_new, trace,
            )
        drift = abs(new_mean - state.beta0)
        report = StepReport(
            psd_iters=trace.iterations,
            final_residual=trace.residual_norms[-1],
            energy=_energy.discrete_energy(self.grid, phi_new, self.params.eps),
            modified_energy=math.nan,
            min_phi=min_phi,
            mass_drift=drift,
            line_evals=sum(trace.line_evals),
            restarts=trace.restarts,
            capped=trace.capped,
            precond_a1=system.coefficients[1] + system.shift,
        )
        new_state = StepState(
            phi=phi_new,
            phi_prev=state.phi,
            t=state.t + system.dt,
            beta0=state.beta0,
            step_index=state.step_index + 1,
        )
        return new_state, report

    def _warm_start(self, state: StepState) -> np.ndarray:
        """Extrapolated initial iterate, or state.phi under duplicated history.

        Starting from phi + theta (phi - phi_prev) with theta capped at half
        the positivity barrier cuts the CG iteration count on smooth
        trajectories; the increment is mean-free, so the conserved mean is
        untouched, and the solution of the convex step problem is the same.
        """
        delta = state.phi - state.phi_prev
        if not np.any(delta):
            return state.phi
        theta = min(1.0, barrier_alpha(state.phi, delta, 0.5))
        return state.phi + theta * delta


class FirstOrderScheme(_SchemeBase):
    """Unconditionally energy-stable convex-splitting stepper."""

    def step_system_from(
        self, phi_old: np.ndarray, dt: float, forcing: Optional[np.ndarray] = None
    ) -> StepSystem:
        _check_dt(dt)
        check_positive(phi_old, "previous state")
        inv_old = 1.0 / phi_old
        constant = -(8.0 / 3.0) * (inv_old * inv_old * inv_old)
        if forcing is not None:
            constant += self.solver.inv_neg_lap(self._mean_free_source(forcing))
        return StepSystem(
            self.grid, self.solver, dt, concave=False, linear=0.0,
            stiffness=self.params.eps**2, weight=1.0, history=phi_old,
            constant=constant,
        )

    def step(
        self, state: StepState, dt: float, forcing: Optional[np.ndarray] = None
    ) -> tuple:
        """Advance one step; returns (new_state, report)."""
        system = self.step_system_from(state.phi, dt, forcing)
        phi_new, trace = psd_solve(
            self.grid, system, self._warm_start(state), self.psd_config
        )
        return self._finish_step(state, phi_new, trace, system)


class Bdf2Scheme(_SchemeBase):
    """Stabilized two-step stepper, second-order accurate in time.

    Requires params.a0 >= a0_star() and params.a_stab >= (4/9) a0^2 so the
    implicit part is convex and the modified energy decays.
    """

    def __init__(self, grid, params, solver=None, psd_config=None):
        super().__init__(grid, params, solver, psd_config)
        slack = 1e-12
        if params.a0 < a0_star() - slack:
            raise InvalidCoefficientsError(
                f"a0 = {params.a0} below the convexity constant {a0_star()}"
            )
        if params.a_stab < (4.0 / 9.0) * params.a0**2 - slack:
            raise InvalidCoefficientsError(
                f"a_stab = {params.a_stab} below the floor {(4.0 / 9.0) * params.a0 ** 2}"
            )

    def step_system_from(
        self,
        phi_old: np.ndarray,
        phi_older: np.ndarray,
        dt: float,
        forcing: Optional[np.ndarray] = None,
    ) -> StepSystem:
        _check_dt(dt)
        p = self.params
        check_positive(phi_old, "previous state")
        check_positive(phi_older, "second-previous state")
        linear = (8.0 / 3.0) * p.a0
        phi_hat = 2.0 * phi_old - phi_older
        # Terms independent of the iterate, assembled once per step.
        constant = linear * phi_hat - p.a_stab * dt * lap(self.grid, phi_old)
        if forcing is not None:
            constant += self.solver.inv_neg_lap(self._mean_free_source(forcing))
        return StepSystem(
            self.grid, self.solver, dt, concave=True, linear=linear,
            stiffness=p.eps**2 + p.a_stab * dt, weight=1.5,
            history=2.0 * phi_old - 0.5 * phi_older, constant=constant,
        )

    def cold_start(
        self,
        phi0: np.ndarray,
        dt: float,
        t: float = 0.0,
        forcing: Optional[np.ndarray] = None,
    ) -> StepState:
        """Two-level state at t whose history is one explicit step back,
        phi_prev = phi0 - dt (lap(mu(phi0)) + S0), S0 the mean-adjusted source.

        dt, phi0 and the source are checked by the rules of step and
        restart_state.  PositivityLostError when phi_prev is not strictly
        positive: shrink dt or fall back to restart_state.
        """
        _check_dt(dt)
        beta0 = _start_mean(self.grid, phi0)
        rate = lap(self.grid, _energy.mu_exact(self.grid, phi0, self.params.eps))
        if forcing is not None:
            rate = rate + self._mean_free_source(forcing)
        phi_prev = phi0 - dt * rate
        if not np.all(phi_prev > 0.0):
            raise PositivityLostError(
                "synthesized history lost positivity; reduce dt or use restart_state"
            )
        return StepState(phi0.copy(), phi_prev, t, beta0, 0)

    def step(
        self, state: StepState, dt: float, forcing: Optional[np.ndarray] = None
    ) -> tuple:
        """Advance one step; returns (new_state, report)."""
        system = self.step_system_from(state.phi, state.phi_prev, dt, forcing)
        phi_new, trace = psd_solve(
            self.grid, system, self._warm_start(state), self.psd_config
        )
        new_state, report = self._finish_step(state, phi_new, trace, system)
        # Reuse the report's F(phi_new) rather than evaluating it again.
        report.modified_energy = _energy.modified_energy(
            self.grid, self.solver, phi_new, state.phi, self.params.a0, dt,
            report.energy,
        )
        return new_state, report
