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
d phi / dt = lap(mu) + S.  It enters through the history: a step system
forms history + dt (S - mean S), so the one inverse Laplacian of the
step's first residual, (-lap)^{-1}(weight phi - history) / dt, lifts the
source together with the time difference, at no transform of its own.

Every field argument goes through Grid.field, or Grid.height where it must
be strictly positive; start data must be finite too, and cold_start and
step share one rule for dt and one for the source (finite and mean-zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import energy as _energy
from .energy import PhysParams, a0_star
from .errors import (
    ConfigError,
    InvalidCoefficientsError,
    NonPositiveFieldError,
    NonZeroMeanError,
    PositivityLostError,
    SolverDivergedError,
    check_nonnegative_finite,
    check_positive,
    check_positive_finite,
)
from .grid import Grid, inner, lap, norm_inf
from .psd import SolverConfig, barrier_alpha, psd_solve
from .spectral import SpectralSolver

_STEP_MASS_TOL = 1e-12
_FORCING_MEAN_TOL = 1e-12
_SPENT = "a direction serves one hand-over; its K d is spent"


@dataclass
class StepState:
    """Trajectory point: current field, previous field, time bookkeeping.

    beta0 is the conserved volume average fixed by the initial data; every
    produced state must match it to relative 1e-10.  lap_phi is lap(phi) on
    the scheme's grid, or None: a step carries the Laplacian its energy
    took, and the next two-step assembly reads it as lap(phi_old) instead
    of computing it again, after checking its shape (ValueError) as that
    of phi and phi_prev.  restart_state and cold_start leave it None; a
    caller that changes phi must drop it too.
    """

    phi: np.ndarray
    phi_prev: np.ndarray
    t: float
    beta0: float
    step_index: int
    lap_phi: Optional[np.ndarray] = None


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


def _start_data(grid: Grid, phi0: np.ndarray) -> tuple:
    """(phi0, beta0): start data through Grid.height, and its finite mean."""
    phi0 = grid.height(phi0, "start data")
    beta0 = float(phi0.sum() / phi0.size)
    if not math.isfinite(beta0):
        raise NonPositiveFieldError(f"start data must be finite, mean = {beta0}")
    return phi0, beta0


def restart_state(grid: Grid, phi0: np.ndarray, t: float = 0.0) -> StepState:
    """Two-level state with duplicated history, phi_prev = phi0.

    Either scheme starts from it; a two-step step taken from it (as after a
    time-step-size change) degrades to first order locally without
    disturbing the energy decay.  Both levels are float64 copies of phi0,
    taken through Grid.height; t must be non-negative and finite.
    """
    check_nonnegative_finite("t", t)
    phi0, beta0 = _start_data(grid, phi0)
    return StepState(phi0.copy(), phi0.copy(), t, beta0, 0)


# Kept only because perfbench/workloads.py calls this name; package code
# calls restart_state.
initial_state = restart_state


class StepSystem:
    """One implicit step, whose residual has the common form

        r(phi) = (8/3)(phi^-9 [- phi^-3]) - linear phi + stiffness lap(phi)
                 - (-lap)^{-1}(weight phi - history) / dt + constant,

    the bracketed term present when ``concave`` (the phi^-3 term taken
    implicitly), on the grid of ``solver``, which the system carries as
    ``grid``.  A source S, when the step has one, is part of ``history``
    (as + dt S), so its lift shares the inverse Laplacian of the first
    residual.  r is the negative gradient, on the fixed-mean slice, of
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
    read from that call's pointwise pass.  ``precondition(rp, limit)``
    returns (Lc^{-1} rp, <L0^{-1} rp, rp>), with None for Lc^{-1} rp when
    ``limit`` is not None and sqrt(<L0^{-1} rp, rp>) <= limit.

    psd_solve looks ``residual``, ``precondition`` and ``directional`` up on
    the instance as it calls them, so methods wrapped on the instance after
    assembly see every call.  ``directional(phi, (d, s), r)`` takes a
    direction d together with its image s = Lc d, so K d = (1 + shift) d - s
    costs no transform, and the residual r at phi, and returns
    (g, residual_at).  g(alpha) returns g(alpha) = -<r(phi + alpha d), d>
    for a trial alpha > 0: one pointwise pass and one dot.  g.slope()
    returns g'(alpha) = <-B'(phi + alpha d) d, d> - <K d, d> at the last
    trial, from that trial's pass: one multiply and one dot, paid only when
    asked for, which line_search does only to step from the trial.  A trial
    forms its point phi + alpha d as fl(phi + fl(alpha d)).  The seed slope
    g'(0) comes with g, as g.seed_slope, from the curvature -B' of the pass
    that produced r; the value g(0) = -<r, d> is the caller's.
    residual_at(alpha) returns the pair (phi + alpha d, r(phi + alpha d))
    from the pass and the point of the direction's last trial, which must be
    at alpha.  g and residual_at agree with the naive evaluation through
    ``residual`` to rounding error whenever s = Lc d to rounding error.

    Ownership.  ``history`` and ``constant`` are zero-argument callables
    that form the two fields anew at each call.  They reference, and do
    not own, the caller's time levels, lap(phi_old) and source; only
    ``residual`` calls them, and the fields they form die with the call.
    The system owns the scratch fields of the pointwise pass (work, bulk,
    curv) and the affine part K phi + c of the last residual, which it
    keeps to itself.  One marker, the owner of the held pass, decides every
    refusal (ValueError).  The owner is the residual that the pass
    produced, until a search consumes it; or the K d of the direction whose
    last trial the pass is; or nothing.  So ``directional`` takes only the
    residual that owns the pass, and consumes it: a residual serves one
    search, and a trial since refuses it.  g.slope() answers, and
    residual_at hands over, only while the pass is its direction's last
    trial, and residual_at only at that trial's alpha.  The closures of one
    ``directional`` call own its K d, a point field allocated at their
    first trial, and the alpha of their last trial.  residual_at forms the
    new affine part K phi_new + c = (K phi + c) + alpha K d in K d's array,
    so a direction serves one hand-over, after which its g, g.slope and
    residual_at refuse.  residual_at hands the point field over with the
    pair, to be the caller's new iterate.  It writes the new residual into
    the scratch field work, which is free once its pass is done, and hands
    work over as that residual; the system allocates the next work at its
    next use.  Every residual, of ``residual`` and residual_at alike, is an
    array that the receiver owns and may overwrite (psd_solve deflates it
    in place), shared with nothing the system still holds; the system reads
    a handed-out residual only for its identity, in ``directional``.
    """

    def __init__(self, solver: SpectralSolver, dt: float, *,
                 concave: bool, linear: float, stiffness: float, weight: float,
                 history: Callable[[], np.ndarray], constant: Callable[[], np.ndarray]):
        self.grid, self.solver, self.dt, self.concave = solver.grid, solver, dt, concave
        self.linear, self.stiffness, self.weight = linear, stiffness, weight
        self.history, self.constant = history, constant
        self.coefficients = (weight / dt, linear + 1.0, stiffness)
        self.shift = None
        # Scratch fields of the pointwise pass, shared by every residual and
        # line trial of the step.  After a pass, bulk holds B(x) and curv
        # holds the curvature -B'(x) / curv_scale, both at the point x of
        # that pass; work is free.  residual_at hands work over as the new
        # residual, and work is None until its next use allocates another
        # (_scratch).
        self._work, self._bulk, self._curv = (np.empty(self.grid.shape) for _ in range(3))
        self._curv_scale = 8.0 if concave else 24.0
        # The owner of the held pass (see Ownership), and the affine part
        # K phi + c of the last residual, which the line closures take
        # instead of re-deriving it as r - B(phi): the rounding of that
        # difference is on the scale of B (about 1e12 at phi = 0.05) and
        # would stay in every carried residual after it.
        self._owner = self._affine = None

    def _scratch(self) -> np.ndarray:
        """The free scratch field work; a new one after residual_at handed
        the last one over."""
        if self._work is None:
            self._work = np.empty(self.grid.shape)
        return self._work

    def _pass(self, x: np.ndarray) -> None:
        """Fill bulk and curv at x, which is not one of the scratch fields."""
        work, bulk, curv = self._scratch(), self._bulk, self._curv
        np.divide(1.0, x, out=work)
        np.square(work, out=bulk)
        np.multiply(bulk, work, out=bulk)  # x^-3
        np.square(bulk, out=curv)
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
        # cancellation before the solve.  history and constant are formed
        # here and die with their statements.
        lifted = np.subtract(self.weight * phi, self.history(), out=self._scratch())
        lifted -= lifted.sum() / lifted.size
        affine -= self.solver.inv_neg_lap(lifted) / self.dt
        affine += self.constant()
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
        self._owner, self._affine = r, affine
        return r

    def precondition(self, rp: np.ndarray, limit: Optional[float]) -> tuple:
        if self.shift is None:
            raise ValueError("precondition needs the step's first residual")
        return self.solver.solve_preconditioner(
            rp, *self.coefficients, self.shift, limit
        )

    def directional(self, phi: np.ndarray, direction: tuple, r_phi: np.ndarray):
        if r_phi is not self._owner:
            raise ValueError(
                "directional needs the last residual the step system handed out, "
                "unsearched and with no line trial since"
            )
        d, image = direction
        grid, affine = self.grid, self._affine
        bulk, curv = self._bulk, self._curv
        scale, curv_scale = grid.cell_volume, self._curv_scale
        kd = (1.0 + self.shift) * d
        kd -= image
        dflat = d.ravel()
        s0 = inner(grid, affine, d)
        s1 = inner(grid, kd, d)
        # The direction's point field, allocated at its first trial, and
        # the alpha of its last trial.
        point = last = None

        def held_slope() -> float:
            # g' = <-B' d, d> - <K d, d> at the point of the held pass, with
            # d^2 never stored
            work = self._scratch()
            np.multiply(curv, d, out=work)
            return curv_scale * scale * float(np.dot(work.ravel(), dflat)) - s1

        def slope() -> float:
            if kd is None:
                raise ValueError(_SPENT)
            if self._owner is not kd:
                raise ValueError("g.slope needs its direction's last trial, with no pass since")
            return held_slope()

        def g(alpha: float) -> float:
            nonlocal point, last
            if kd is None:
                raise ValueError(_SPENT)
            # The trial overwrites the point and then the pass, which no
            # longer serve a residual or an earlier trial.
            self._owner = None
            if point is None:
                point = np.empty(grid.shape)
            np.multiply(d, alpha, out=point)
            np.add(point, phi, out=point)
            check_positive(point, "line trial point")
            self._pass(point)
            self._owner, last = kd, alpha
            return -(scale * float(np.dot(bulk.ravel(), dflat)) + s0 + alpha * s1)

        def residual_at(alpha: float) -> tuple:
            nonlocal kd
            if kd is None:
                raise ValueError(_SPENT)
            if not (self._owner is kd and last == alpha):
                raise ValueError("residual_at needs its search's last trial, at that alpha")
            # The new affine part affine + alpha kd, formed in kd's array (the
            # product commutes, so the bits are those of alpha * kd); the
            # residual goes into the free scratch field, which is handed over
            # with it.
            np.multiply(kd, alpha, out=kd)
            kd += affine
            out = np.add(bulk, kd, out=self._work)
            self._owner, self._affine = out, kd
            kd = self._work = None
            return point, out

        g.slope = slope
        # The pass at phi is still held: it produced r, which this search
        # consumes.
        g.seed_slope = held_slope()
        self._owner = None
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

    def _source(self, forcing: Optional[np.ndarray]) -> Optional[tuple]:
        """The checked source and its mean, (S, mean S), or None without a
        source; a nan mean or an infinite scale fails the check, so only a
        finite source with a rounding-level mean passes.  S is taken through
        Grid.field."""
        if forcing is None:
            return None
        forcing = self.grid.field(forcing, "source")
        m = float(forcing.sum() / forcing.size)
        if not abs(m) <= _FORCING_MEAN_TOL * max(1.0, norm_inf(forcing)) < math.inf:
            raise NonZeroMeanError(
                f"source field must be finite and mean-zero, got mean {m:.3e}"
            )
        return forcing, m

    @staticmethod
    def _with_source(history: np.ndarray, dt: float, source: Optional[tuple]) -> np.ndarray:
        """history + dt (S - mean S) for source = (S, mean S), or history
        itself without a source."""
        if source is None:
            return history
        forcing, m = source
        return history + dt * (forcing - m)

    def _finish_step(self, state: StepState, phi_new: np.ndarray, trace,
                     system: StepSystem) -> tuple:
        min_phi = float(phi_new.min())
        if not min_phi > 0.0:
            raise PositivityLostError(f"step produced min phi = {min_phi}")
        # Consistency is judged per step (a broken solve shifts the mean far
        # beyond rounding in a single update); the cumulative drift against
        # the conserved mean is reported for monitoring.
        new_mean = float(phi_new.sum() / phi_new.size)
        step_drift = abs(new_mean - float(state.phi.sum() / state.phi.size))
        if step_drift > _STEP_MASS_TOL * max(1.0, abs(state.beta0)):
            raise SolverDivergedError(
                f"mass drifted by {step_drift:.3e} in one step; solve is inconsistent",
                phi_new, trace,
            )
        drift = abs(new_mean - state.beta0)
        lap_new = lap(self.grid, phi_new)
        report = StepReport(
            psd_iters=trace.iterations,
            final_residual=trace.residual_norms[-1],
            energy=_energy._energy_with_lap(
                self.grid, phi_new, lap_new, self.params.eps
            ),
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
            lap_phi=lap_new,
        )
        return new_state, report

    def _warm_start(self, state: StepState) -> np.ndarray:
        """Extrapolated initial iterate phi + theta (phi - phi_prev), theta = 1
        capped at half the positivity barrier: it cuts the CG iteration count
        on smooth trajectories, and is phi to the bit under duplicated
        history.  The increment is mean-free, so the conserved mean is
        untouched, and the solution of the convex step problem is the same.
        """
        phi = self.grid.field(state.phi, "previous state")
        delta = phi - self.grid.field(state.phi_prev, "second-previous state")
        theta = min(1.0, barrier_alpha(phi, delta, 0.5))
        return phi + theta * delta


class FirstOrderScheme(_SchemeBase):
    """Unconditionally energy-stable convex-splitting stepper."""

    def step_system_from(
        self, phi_old: np.ndarray, dt: float, forcing: Optional[np.ndarray] = None
    ) -> StepSystem:
        check_positive_finite("dt", dt, InvalidCoefficientsError)
        phi_old = self.grid.height(phi_old, "previous state")
        source = self._source(forcing)

        def constant() -> np.ndarray:
            inv_old = 1.0 / phi_old
            return -(8.0 / 3.0) * (np.square(inv_old) * inv_old)

        return StepSystem(
            self.solver, dt, concave=False, linear=0.0,
            stiffness=self.params.eps**2, weight=1.0,
            history=lambda: self._with_source(phi_old, dt, source), constant=constant,
        )

    def step(
        self, state: StepState, dt: float, forcing: Optional[np.ndarray] = None
    ) -> tuple:
        """Advance one step; returns (new_state, report)."""
        system = self.step_system_from(state.phi, dt, forcing)
        phi_new, trace = psd_solve(system, self._warm_start(state), self.psd_config)
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
        *,
        lap_old: Optional[np.ndarray] = None,
    ) -> StepSystem:
        """The step's system; lap_old is lap(phi_old) when the caller has
        it (a state's lap_phi), and is computed otherwise."""
        check_positive_finite("dt", dt, InvalidCoefficientsError)
        p = self.params
        phi_old = self.grid.height(phi_old, "previous state")
        phi_older = self.grid.height(phi_older, "second-previous state")
        if lap_old is None:
            lap_old = lap(self.grid, phi_old)
        else:
            lap_old = self.grid.field(lap_old, "lap_old")
        linear = (8.0 / 3.0) * p.a0
        source = self._source(forcing)

        # Terms independent of the iterate, formed by the step's residual.
        def constant() -> np.ndarray:
            return linear * (2.0 * phi_old - phi_older) - p.a_stab * dt * lap_old

        def history() -> np.ndarray:
            return self._with_source(2.0 * phi_old - 0.5 * phi_older, dt, source)

        return StepSystem(
            self.solver, dt, concave=True, linear=linear,
            stiffness=p.eps**2 + p.a_stab * dt, weight=1.5,
            history=history, constant=constant,
        )

    def cold_start(
        self, phi0: np.ndarray, dt: float, forcing: Optional[np.ndarray] = None
    ) -> StepState:
        """Two-level state at t = 0 whose history is one explicit step back,
        phi_prev = phi0 - dt (lap(mu(phi0)) + S0), S0 the mean-adjusted source.

        dt, phi0 and the source are checked by the rules of step and
        restart_state, and phi0 is taken in float64 as there.
        PositivityLostError when phi_prev is not strictly positive: shrink
        dt or fall back to restart_state.
        """
        check_positive_finite("dt", dt, InvalidCoefficientsError)
        phi0, beta0 = _start_data(self.grid, phi0)
        rate = lap(self.grid, _energy.mu_exact(self.grid, phi0, self.params.eps))
        if forcing is not None:
            forcing, m = self._source(forcing)
            rate = rate + (forcing - m)
        phi_prev = phi0 - dt * rate
        if not (phi_prev > 0.0).all():
            raise PositivityLostError(
                "synthesized history lost positivity; reduce dt or use restart_state"
            )
        return StepState(phi0.copy(), phi_prev, 0.0, beta0, 0)

    def step(
        self, state: StepState, dt: float, forcing: Optional[np.ndarray] = None
    ) -> tuple:
        """Advance one step; returns (new_state, report)."""
        system = self.step_system_from(
            state.phi, state.phi_prev, dt, forcing, lap_old=state.lap_phi
        )
        phi_new, trace = psd_solve(system, self._warm_start(state), self.psd_config)
        new_state, report = self._finish_step(state, phi_new, trace, system)
        # Reuse the report's F(phi_new) rather than evaluating it again.
        report.modified_energy = _energy.modified_energy(
            self.solver, phi_new, state.phi, self.params.a0, dt, report.energy
        )
        return new_state, report
