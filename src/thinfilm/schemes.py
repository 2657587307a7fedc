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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import energy as _energy
from .energy import PhysParams, a0_star, check_positive
from .errors import (
    InvalidCoefficientsError,
    MaxItersExceededError,
    MissingHistoryError,
    NonPositiveFieldError,
    NonZeroMeanError,
    PositivityLostError,
    SolverDivergedError,
)
from .grid import Grid, grad_norm_2, inner, lap, mean, norm_inf
from .psd import SolverConfig, barrier_alpha, psd_solve
from .spectral import SpectralSolver

_STEP_MASS_TOL = 1e-12
_FORCING_MEAN_TOL = 1e-12


def _deflate(u: np.ndarray) -> np.ndarray:
    """Project out the mean of a field that is mean-free in exact arithmetic.

    The time-increment combinations fed to the inverse Laplacian cancel to
    rounding error in the mean (mass conservation), but on the scale of phi
    rather than of the increment, so the cancellation must be finished
    explicitly before the spectral solve.
    """
    return u - np.mean(u)


def _coefficients(dt: float, linear: float, stiffness: float, weight: float) -> tuple:
    """(a0, a1, a2) of the preconditioner L = I - K of a step residual with
    linear part K = stiffness lap - linear I - (weight / dt) (-lap)^{-1}."""
    return (weight / dt, linear + 1.0, stiffness)


def _check_dt(dt: float) -> None:
    if not (dt > 0.0):
        raise InvalidCoefficientsError(f"dt must be positive, got {dt}")


@dataclass
class StepState:
    """Trajectory point: current field, optional history, time bookkeeping.

    beta0 is the conserved volume average fixed by the initial data; every
    produced state must match it to relative 1e-10.
    """

    phi: np.ndarray
    phi_prev: Optional[np.ndarray]
    t: float
    beta0: float
    step_index: int = 0


@dataclass
class StepReport:
    """Per-step diagnostics returned alongside the new state.

    line_evals sums the line-search evaluations of the solve and restarts
    counts its CG directions reset to the preconditioned gradient.
    """

    psd_iters: int
    final_residual: float
    energy: float
    modified_energy: Optional[float]
    min_phi: float
    mass_drift: float
    line_evals: int = 0
    restarts: int = 0


@dataclass
class StepSystem:
    """Closures defining one implicit step, exposed for solver diagnostics.

    The residual is r(phi) = B(phi) + K phi + c with B the pointwise
    inverse-power term and K linear, and ``precondition`` solves L d = rp
    with L = I - K exactly.  ``directional(phi, (d, s), r)`` takes a
    direction d together with its image s = L d, so K d = d - s costs no
    transform, and returns (g, residual_at).  g(alpha) returns the pair
    (value, slope) of g(alpha) = -<r(phi + alpha d), d> and
    g'(alpha) = <-B'(phi + alpha d) d, d> - <K d, d>: one pointwise pass and
    two dots per trial alpha.  g(0) costs two dots and no pass while the
    pass that produced r is still held: its slope comes from the curvature
    -B' carried from that pass.  residual_at(alpha) = r(phi + alpha d).
    Both agree with the naive evaluation through ``residual`` to rounding
    error whenever s = L d to rounding error.
    """

    residual: Callable
    functional: Callable
    precondition: Callable
    phi_init: np.ndarray
    directional: Callable


def initial_state(grid: Grid, phi0: np.ndarray, t: float = 0.0) -> StepState:
    """One-level starting state for the first-order scheme."""
    grid.validate_field(phi0)
    check_positive(phi0, "initial data")
    return StepState(phi0.copy(), None, t, mean(grid, phi0), 0)


def restart_state(grid: Grid, phi0: np.ndarray, t: float = 0.0) -> StepState:
    """Two-level state with duplicated history, phi_prev = phi0.

    Used when (re)starting the two-step scheme without usable history, e.g.
    after a time-step-size change; the first step taken from it degrades to
    first order locally without disturbing the energy decay.
    """
    grid.validate_field(phi0)
    check_positive(phi0, "restart data")
    return StepState(phi0.copy(), phi0.copy(), t, mean(grid, phi0), 0)


def ghost_init(
    grid: Grid,
    phi0: np.ndarray,
    params: PhysParams,
    dt: float,
    forcing: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Synthesize history one step before t=0 by explicit backward Euler.

    Returns phi_prev = phi0 - dt (lap(mu(phi0)) + S0) where S0 is the
    optional mean-adjusted source at t=0.  Raises PositivityLostError when
    the synthesized field is not strictly positive, in which case the
    caller should shrink dt or fall back to :func:`restart_state`.
    """
    check_positive(phi0, "initial data")
    rate = lap(grid, _energy.mu_exact(grid, phi0, params.eps))
    if forcing is not None:
        rate = rate + (forcing - mean(grid, forcing))
    phi_prev = phi0 - dt * rate
    if not np.all(phi_prev > 0.0):
        raise PositivityLostError(
            "synthesized history lost positivity; reduce dt or use restart_state"
        )
    return phi_prev


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
        self.psd_config = psd_config if psd_config is not None else SolverConfig()

    def _lift_forcing(self, forcing: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """(-lap)^{-1} of the mean-adjusted source, or None."""
        if forcing is None:
            return None
        m = mean(self.grid, forcing)
        if abs(m) > _FORCING_MEAN_TOL * max(1.0, norm_inf(forcing)):
            raise NonZeroMeanError(
                f"source field must be mean-zero, got mean {m:.3e}"
            )
        return self.solver.inv_neg_lap(forcing - m)

    def _finish_step(self, state: StepState, phi_new: np.ndarray, trace, dt: float,
                     modified: Optional[float]) -> tuple:
        min_phi = float(np.min(phi_new))
        if not min_phi > 0.0:
            raise PositivityLostError(f"step produced min phi = {min_phi}")
        # Consistency is judged per step (a broken solve shifts the mean far
        # beyond rounding in a single update); the cumulative drift against
        # the conserved mean is reported for monitoring.
        step_drift = abs(mean(self.grid, phi_new) - mean(self.grid, state.phi))
        if step_drift > _STEP_MASS_TOL * max(1.0, abs(state.beta0)):
            raise SolverDivergedError(
                f"mass drifted by {step_drift:.3e} in one step; solve is inconsistent"
            )
        drift = abs(mean(self.grid, phi_new) - state.beta0)
        report = StepReport(
            psd_iters=trace.iterations,
            final_residual=trace.residual_norms[-1],
            energy=_energy.discrete_energy(self.grid, phi_new, self.params.eps),
            modified_energy=modified,
            min_phi=min_phi,
            mass_drift=drift,
            line_evals=sum(trace.line_evals),
            restarts=trace.restarts,
        )
        new_state = StepState(
            phi=phi_new,
            phi_prev=state.phi,
            t=state.t + dt,
            beta0=state.beta0,
            step_index=state.step_index + 1,
        )
        return new_state, report

    def _solve(self, system: StepSystem, phi_init: Optional[np.ndarray] = None):
        try:
            return psd_solve(
                self.grid,
                system.residual,
                system.precondition,
                system.phi_init if phi_init is None else phi_init,
                self.psd_config,
                directional=system.directional,
            )
        except MaxItersExceededError as exc:
            rate = exc.trace.mean_tail_contraction()
            raise SolverDivergedError(
                f"{exc}; mean tail contraction "
                f"{'n/a' if rate is None else format(rate, '.4f')} per iteration, "
                f"best iterate min phi {float(np.min(exc.phi)):.3e}",
                trace=exc.trace,
            ) from exc

    def preconditioner_coefficients(self, dt: float) -> tuple:
        """(a0, a1, a2) of L = a0 (-lap)^{-1} + a1 I + a2 (-lap).

        L = I - K for the linear part K of the step residual.
        """
        _check_dt(dt)
        return _coefficients(dt, **self._linear_terms(dt))

    def _warm_start(self, state: StepState) -> Optional[np.ndarray]:
        """Extrapolated initial iterate, or None without usable history.

        Starting from phi + theta (phi - phi_prev) with theta capped at half
        the positivity barrier cuts the CG iteration count on smooth
        trajectories; the increment is mean-free, so the conserved mean is
        untouched, and the solution of the convex step problem is the same.
        """
        if state.phi_prev is None:
            return None
        delta = state.phi - state.phi_prev
        if not np.any(delta):
            return None
        theta = min(1.0, barrier_alpha(state.phi, delta, 0.5))
        return state.phi + theta * delta

    def _step_system(
        self,
        phi_old: np.ndarray,
        dt: float,
        *,
        concave: bool,
        linear: float,
        stiffness: float,
        weight: float,
        history: np.ndarray,
        constant: np.ndarray,
    ) -> StepSystem:
        """Closures of one step whose residual has the common form

            r(phi) = (8/3)(phi^-9 [- phi^-3]) - linear phi + stiffness lap(phi)
                     - (-lap)^{-1}(weight phi - history) / dt + constant,

        the bracketed term present when ``concave`` (the phi^-3 term taken
        implicitly).  r is the negative gradient of a strictly convex
        functional on the fixed-mean slice.  Its linear part is
        K = stiffness lap - linear I - (weight / dt) (-lap)^{-1} = I - L for
        the preconditioner L with the coefficients of :func:`_coefficients`.
        """
        grid, solver = self.grid, self.solver
        ones = np.ones(grid.shape)
        scale = grid.cell_volume
        # Scratch fields of the pointwise pass, shared by every residual and
        # line trial of the step.  After a pass, bulk holds B(x) and curv
        # holds the curvature -B'(x) / curv_scale, both at the point x of
        # that pass; work is free.
        work, bulk, curv = (np.empty(grid.shape) for _ in range(3))
        curv_scale = 8.0 if concave else 24.0
        # The affine part K phi + c of the last residual handed out, with
        # that residual.  When it comes back as the residual at phi, the
        # line closures reuse it instead of re-deriving it as r - B(phi):
        # the rounding of that difference is on the scale of B (about 1e12
        # at phi = 0.05) and would stay in every carried residual after it.
        # "held" is the affine part of the point whose pass the scratch
        # fields hold, or None after a line trial.
        carried = {"held": None}

        def bulk_pass(x: np.ndarray) -> None:
            """Fill bulk and curv at x; x may be work itself."""
            np.divide(1.0, x, out=work)
            np.multiply(work, work, out=bulk)
            np.multiply(bulk, work, out=bulk)  # x^-3
            np.multiply(bulk, bulk, out=curv)
            np.multiply(curv, bulk, out=curv)  # x^-9
            if concave:
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

        def residual(phi: np.ndarray) -> np.ndarray:
            check_positive(phi, "iterate")
            affine = stiffness * lap(grid, phi)
            if linear:
                affine -= linear * phi
            affine -= solver.inv_neg_lap(_deflate(weight * phi - history)) / dt
            affine += constant
            bulk_pass(phi)
            r = bulk + affine
            carried.update(r=r, affine=affine, held=affine)
            return r

        def functional(phi: np.ndarray) -> float:
            check_positive(phi, "iterate")
            inv = 1.0 / phi
            inv2 = inv * inv
            inv8 = (inv2 * inv2) * (inv2 * inv2)
            value = solver.hminus1_norm(_deflate(weight * phi - history)) ** 2 / (
                2.0 * weight * dt
            )
            bulk = inv8 / 3.0 - (4.0 / 3.0) * inv2 if concave else inv8 / 3.0
            value += inner(grid, bulk, ones)
            if linear:
                value += 0.5 * linear * inner(grid, phi, phi)
            value += 0.5 * stiffness * grad_norm_2(grid, phi) ** 2
            value -= inner(grid, phi, constant)
            return value

        a0c, a1c, a2c = _coefficients(dt, linear, stiffness, weight)

        def precondition(rp: np.ndarray) -> np.ndarray:
            return solver.solve_preconditioner(rp, a0c, a1c, a2c)

        def directional(phi: np.ndarray, direction: tuple, r_phi: np.ndarray):
            d, image = direction
            if carried.get("r") is r_phi:
                affine = carried["affine"]
            else:
                bulk_pass(phi)
                affine = r_phi - bulk
                carried["held"] = affine
            kd = d - image
            dflat = d.ravel()
            s0 = inner(grid, affine, d)
            s1 = inner(grid, kd, d)

            def trial(alpha: float) -> None:
                np.multiply(d, alpha, out=work)
                np.add(work, phi, out=work)
                if not work.min() > 0.0:
                    raise NonPositiveFieldError(
                        "line trial point is not strictly positive"
                    )
                bulk_pass(work)
                carried["held"] = None

            def g(alpha: float) -> tuple:
                # At alpha = 0 the pass of the residual at phi, when still
                # held, serves: g(0) then costs two dots and no pass.
                if not (alpha == 0.0 and carried["held"] is affine):
                    trial(alpha)
                value = -(scale * float(np.dot(bulk.ravel(), dflat)) + s0 + alpha * s1)
                # g' = <-B' d, d> - <K d, d>, with d^2 never stored
                np.multiply(curv, d, out=work)
                return value, curv_scale * scale * float(np.dot(work.ravel(), dflat)) - s1

            def residual_at(alpha: float) -> np.ndarray:
                trial(alpha)
                moved = affine + alpha * kd
                out = bulk + moved
                carried.update(r=out, affine=moved, held=moved)
                return out

            return g, residual_at

        return StepSystem(residual, functional, precondition, phi_old, directional)


class FirstOrderScheme(_SchemeBase):
    """Unconditionally energy-stable convex-splitting stepper."""

    def _linear_terms(self, dt: float) -> dict:
        return dict(linear=0.0, stiffness=self.params.eps**2, weight=1.0)

    def residual(
        self,
        phi: np.ndarray,
        phi_old: np.ndarray,
        dt: float,
        forcing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Residual field whose mean-zero projection vanishes at the step."""
        system = self.step_system_from(phi_old, dt, forcing)
        return system.residual(phi)

    def functional(
        self,
        phi: np.ndarray,
        phi_old: np.ndarray,
        dt: float,
        forcing: Optional[np.ndarray] = None,
    ) -> float:
        """Strictly convex per-step functional minimized by the solve."""
        system = self.step_system_from(phi_old, dt, forcing)
        return system.functional(phi)

    def step_system_from(
        self, phi_old: np.ndarray, dt: float, forcing: Optional[np.ndarray] = None
    ) -> StepSystem:
        _check_dt(dt)
        check_positive(phi_old, "previous state")
        inv_old = 1.0 / phi_old
        constant = -(8.0 / 3.0) * (inv_old * inv_old * inv_old)
        lift = self._lift_forcing(forcing)
        if lift is not None:
            constant += lift
        return self._step_system(
            phi_old, dt, concave=False, history=phi_old, constant=constant,
            **self._linear_terms(dt),
        )

    def step(
        self, state: StepState, dt: float, forcing: Optional[np.ndarray] = None
    ) -> tuple:
        """Advance one step; returns (new_state, report)."""
        system = self.step_system_from(state.phi, dt, forcing)
        phi_new, trace = self._solve(system, self._warm_start(state))
        return self._finish_step(state, phi_new, trace, dt, None)


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

    def _linear_terms(self, dt: float) -> dict:
        p = self.params
        return dict(
            linear=(8.0 / 3.0) * p.a0, stiffness=p.eps**2 + p.a_stab * dt, weight=1.5
        )

    def residual(
        self,
        phi: np.ndarray,
        phi_old: np.ndarray,
        phi_older: np.ndarray,
        dt: float,
        forcing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        system = self.step_system_from(phi_old, phi_older, dt, forcing)
        return system.residual(phi)

    def functional(
        self,
        phi: np.ndarray,
        phi_old: np.ndarray,
        phi_older: np.ndarray,
        dt: float,
        forcing: Optional[np.ndarray] = None,
    ) -> float:
        system = self.step_system_from(phi_old, phi_older, dt, forcing)
        return system.functional(phi)

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
        terms = self._linear_terms(dt)
        phi_hat = 2.0 * phi_old - phi_older
        # Terms independent of the iterate, assembled once per step.
        constant = terms["linear"] * phi_hat - p.a_stab * dt * lap(self.grid, phi_old)
        lift = self._lift_forcing(forcing)
        if lift is not None:
            constant = constant + lift
        return self._step_system(
            phi_old, dt, concave=True, history=2.0 * phi_old - 0.5 * phi_older,
            constant=constant, **terms,
        )

    def cold_start(
        self,
        phi0: np.ndarray,
        dt: float,
        t: float = 0.0,
        forcing: Optional[np.ndarray] = None,
    ) -> StepState:
        """Two-level state at t with history synthesized by :func:`ghost_init`."""
        phi_prev = ghost_init(self.grid, phi0, self.params, dt, forcing)
        state = restart_state(self.grid, phi0, t)
        state.phi_prev = phi_prev
        return state

    def step(
        self, state: StepState, dt: float, forcing: Optional[np.ndarray] = None
    ) -> tuple:
        """Advance one step; returns (new_state, report)."""
        if state.phi_prev is None:
            raise MissingHistoryError(
                "two-step scheme needs phi_prev; use cold_start or restart_state"
            )
        system = self.step_system_from(state.phi, state.phi_prev, dt, forcing)
        phi_new, trace = self._solve(system, self._warm_start(state))
        modified = _energy.modified_energy(
            self.grid, self.solver, phi_new, state.phi,
            self.params.eps, self.params.a0, dt,
        )
        return self._finish_step(state, phi_new, trace, dt, modified)
