"""Preconditioned nonlinear CG (PR+) for the per-step nonlinear systems.

Each implicit time step is the Euler-Lagrange equation of a strictly convex
functional over the affine slice of fields with fixed mean, minimized here
by preconditioned nonlinear conjugate gradients with the Polak-Ribiere+
update (Nocedal-Wright, Numerical Optimization, ch. 5).  One iteration:

    residual   r   = residual(phi)             (zero at the solution)
    gradient   p   = Lc^{-1} (r - mean r)      (Lc the preconditioner)
    direction  d   = p + beta d_prev,  beta = max(0, <p, rp - rp_prev> / res_prev^2)
    step       phi <- phi + alpha d            (formed by the step system)

with rp = r - mean r and res^2 = <p, rp>, inner products taken on the
grid that the step system carries.  The direction falls back to p
(a restart) whenever it is not a descent direction, <d, rp> <= 0.  Its
preconditioner image Lc d = rp + beta Lc d_prev is carried along at no
transform cost and handed to the step system with d.

Two norms of rp are kept apart.  res, in the metric of Lc, drives PR+.
The stop is sqrt(<L0^{-1} rp, rp>) <= tol in a fixed metric L0 that the
step system hands back with each preconditioner solve: a step system may
fit Lc to its data (StepSystem shifts its identity coefficient to the
step's curvature), and a stop in the metric of Lc would move with it,
since a larger Lc shrinks the norm of the same residual.

alpha approximates the root of the scalar derivative g(alpha) along d,
found by a positivity-aware line search: the update may consume at most a fixed
fraction of the distance to the positivity barrier, so every iterate stays
strictly positive and keeps its mean.

g is strictly increasing with g(0) = -<d, rp> < 0, and blows up to +inf at
the barrier when the barrier is finite, so its root is unique.  The search
is a Newton iteration on g with a bisection safeguard (Numerical Recipes,
rtsafe), seeded by the slope g'(0) that the step system carries from the
last residual it assembled.  A trial's slope g' is taken on demand, only
when the search steps from that trial, so the trial it returns at costs
no slope.  Where a Newton step would leave the bracket or stall, or a
trial reports no finite slope, the search bisects the bracket, or doubles
the step while g has not yet changed sign.  If the safety cap
itself is still downhill the capped step is taken as is; the iteration
remains a descent step.

The CG loop does not need the root itself, only a step that keeps PR+
convergent (Gilbert-Nocedal, SIAM J. Optim. 2, 1992): a search ends at the
first trial with |g(alpha)| <= _WOLFE_TOL |g(0)|, a strong-Wolfe curvature
condition with sigma = 1e-6.  Every search ends at its last trial, so a
step system carries that trial's pointwise pass into the next residual,
and that trial's point phi + alpha d into the next iterate: a direction's
closures own the field its trials write their point into, and hand it
over, as the new iterate, with the residual there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BarrierCollapseError,
    SolverDivergedError,
    check_count,
    check_positive_finite,
)
from .grid import inner

# Fraction of the distance to the positivity barrier a step may consume.
_ALPHA_SAFETY = 0.99
# The line search's stop on |g| relative to |g(0)|: a strong-Wolfe
# curvature condition with sigma = 1e-6.
_WOLFE_TOL = 1e-6
# Relative width at which a bracket counts as collapsed.
_LINE_TOL = 1e-12
# Factor by which the line search widens its trial step while g < 0.
_GROWTH = 2.0


@dataclass
class SolverConfig:
    """Stopping rule of the CG loop."""

    tol: float = 1e-9
    max_iters: int = 500

    def __post_init__(self):
        check_positive_finite("tol", self.tol)
        check_count("max_iters", self.max_iters, 1)


@dataclass
class PsdTrace:
    """Per-iteration history of one nonlinear solve.

    residual_norms holds the stop norm sqrt(<L0^{-1} rp, rp>) of
    rp = r - mean r in the solve's fixed metric L0, measured at the top of
    each iteration, including the accepting one, so
    it has one more entry than alphas.  restarts counts the iterations whose
    conjugate direction was not downhill and was reset to p, and capped the
    line searches that returned the step cap just inside the positivity
    barrier.
    """

    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    line_evals: list = field(default_factory=list)
    restarts: int = 0
    capped: int = 0

    @property
    def iterations(self) -> int:
        return len(self.alphas)

    def mean_tail_contraction(self) -> float | None:
        """Geometric-mean residual ratio per iteration over the trailing half.

        (rn[-1] / rn[start]) ** (1 / k) for the k iterations after
        start = len(rn) // 2.  The CG residual is not monotone, so the
        largest one-step ratio can exceed 1 on a solve that converges;
        this rate reads below 1 there.  None when fewer than three
        residuals were recorded.
        """
        rn = self.residual_norms
        if len(rn) < 3:
            return None
        start = len(rn) // 2
        if not rn[start] > 0.0:
            return None
        return (rn[-1] / rn[start]) ** (1.0 / (len(rn) - 1 - start))


def barrier_alpha(phi: np.ndarray, d: np.ndarray, safety: float) -> float:
    """Largest safe step keeping phi + alpha d strictly positive.

    Returns safety * min(-phi_i / d_i) over entries with d_i < 0, or +inf
    when no entry decreases, computed in one pass as -1 / min(d / phi).
    """
    m = float((d / phi).min())
    return safety * (-1.0 / m) if m < 0.0 else math.inf


def _step_cap(alpha_barrier: float) -> float:
    """Longest step a line search returns: just inside a finite barrier."""
    return alpha_barrier * (1.0 - 1e-12) if math.isfinite(alpha_barrier) else math.inf


def _newton(alpha: float, value: float, slope: float) -> float:
    """Newton point alpha - g/g', or nan when the slope is not finite and positive."""
    if slope > 0.0 and math.isfinite(slope):
        return alpha - value / slope
    return math.nan


def line_search(g, alpha_barrier: float, g0: tuple) -> float:
    """Step along an increasing scalar derivative g to near its positive root.

    g(alpha) returns g(alpha), and g.slope() returns g'(alpha) at the last
    trial; ``g0`` is the pair (g(0), g'(0)), which the caller already has.
    The search asks for a trial's slope only to step from it, so never for
    the trial it returns at.  A slope that is not finite and positive gives
    no Newton step from its trial.  Accepts alpha_barrier = +inf for
    barrier-free directions.

    One rule picks every trial (Numerical Recipes, rtsafe).  The first is
    the Newton step from 0 (1 without a slope), at most half the barrier.
    Each later one is the Newton step from the last trial when it lies
    inside the current bracket and is at most half the move before the
    last (as fast as bisection); otherwise the search bisects the bracket
    once g has changed sign, and doubles the step toward the cap before.
    Every return is the last trial g evaluated:

    - the first with |g(alpha)| <= _WOLFE_TOL |g(0)|;
    - the downhill end of a bracket narrower than _LINE_TOL * alpha, where
      g < 0, so still a descent step (rounding of g above the Wolfe bound),
      evaluated once more to be the last trial;
    - the step cap, when even the capped step stays downhill (a
      barrier-limited descent step).

    BarrierCollapseError is raised when g stays negative until the doubling
    overflows or no stop is met in 456 trials.
    """
    value0, slope0 = g0
    if not value0 < 0.0:
        raise ValueError(f"g(0) must be negative for a descent direction, got {value0}")

    cap = _step_cap(alpha_barrier)
    if not cap > 0.0:
        raise BarrierCollapseError("positivity barrier leaves no admissible step")

    gstop = _WOLFE_TOL * abs(value0)
    # [lo, hi] holds the root once a trial has turned g non-negative
    # (bracketed); until then hi is the cap.
    lo, hi = 0.0, cap
    bracketed = False
    newton = _newton(0.0, value0, slope0)
    a = min(newton if 0.0 < newton < math.inf else 1.0, alpha_barrier / 2.0, cap)
    move, move_before = a, math.inf
    for _ in range(456):
        value = g(a)
        # Overflow of the singular terms past the barrier shows up as nan/inf;
        # either way the trial step was too long.
        value = math.inf if math.isnan(value) else value
        if abs(value) <= gstop:
            return a
        if value < 0.0:
            if a >= cap:
                return cap
            lo = a
        else:
            hi, bracketed = a, True
        if bracketed and hi - lo <= _LINE_TOL * hi:
            g(lo)
            return lo
        x = _newton(a, value, g.slope())
        if not (lo < x < hi and abs(x - a) <= 0.5 * move_before):
            x = 0.5 * (lo + hi) if bracketed else min(a * _GROWTH, cap)
            if not math.isfinite(x):
                raise BarrierCollapseError(
                    "directional derivative never changed sign before overflow"
                )
        move_before, move = move, abs(x - a)
        a = x
    raise BarrierCollapseError(
        f"line search failed to resolve a root in [{lo}, {hi}]"
    )


def _line_step(system, phi: np.ndarray, direction: tuple, r: np.ndarray,
               slope: float, trace: PsdTrace) -> tuple:
    """One line search along d = direction[0] from phi, whose residual r the
    system handed out last; returns the pair (phi_new, r(phi_new)) from
    residual_at and records the search in ``trace``.

    The direction's closures die on return, and with them what they hold,
    before the next iteration's preconditioner solve.
    """
    evals = 0
    g_inner, residual_at = system.directional(phi, direction, r)

    def g(alpha: float) -> float:
        nonlocal evals
        evals += 1
        return g_inner(alpha)

    g.slope = g_inner.slope
    barrier = barrier_alpha(phi, direction[0], _ALPHA_SAFETY)
    alpha = line_search(g, barrier, (-slope, g_inner.seed_slope))
    pair = residual_at(alpha)
    trace.alphas.append(alpha)
    trace.line_evals.append(evals)
    trace.capped += alpha == _step_cap(barrier)
    return pair


def psd_solve(system, phi_init: np.ndarray, cfg: SolverConfig):
    """Drive preconditioned nonlinear CG until the metric residual meets tol.

    ``system`` is a step system (schemes.StepSystem); it carries its
    ``grid``, whose inner product the solve uses, and the solve looks its
    methods up on the instance as it calls them.  system.residual(phi)
    returns the full residual field and is called once, at phi_init;
    system.precondition(rp, limit) returns (Lc^{-1} rp, <L0^{-1} rp, rp>)
    for a mean-zero field rp, with Lc the preconditioner and L0 the fixed
    metric of the stop.  The solve passes limit = cfg.tol, the bound of its
    own stop sqrt(<L0^{-1} rp, rp>) <= tol, and the system may return None
    for Lc^{-1} rp exactly when that stop holds: the accepting iteration
    never reads it, so a spectral solve skips its inverse transform.
    system.directional(phi, (d, s), r) takes the iterate, the residual there
    that the system handed out last, a direction d and its image s = Lc d,
    and returns (g, residual_at); the solve searches once from each
    residual and calls residual_at once per direction.  g(alpha) is
    g(alpha) = -<r(phi + alpha d), d> at a trial alpha > 0, g.slope() its
    derivative at the last trial, taken on demand (line_search asks for it
    only to step from that trial), and g.seed_slope is g'(0).
    residual_at(alpha) is called right after the search, at its last trial,
    and returns the pair (phi_new, r(phi_new)) for phi_new = phi + alpha d,
    formed as fl(phi + fl(alpha d)), so it may take that trial's work and
    point.  The search is seeded with g(0) = -<d, rp> from the deflated
    residual, which the solve has (the undeflated inner product carries
    rounding of order mean(r) sum(d), large near the barrier), and with
    g.seed_slope, which step systems read from the state they carry at phi;
    g is never called at 0.  g, g.slope, g.seed_slope and residual_at must
    agree with the naive evaluations through system.residual to rounding
    error.  g.slope and g.seed_slope are attributes of g set before
    directional returns, so a wrapper that copies g's attributes
    (functools.wraps) keeps them.

    Ownership.  The solve copies phi_init and drops the caller's array.  It
    owns every array a system hands it, and the system never writes to one
    again: each residual and iterate, and each Lc^{-1} rp, which is
    therefore not rp itself (ValueError).  It overwrites them: r is deflated
    in place into rp = r - mean r (the r that directional receives is that
    deflated array), Lc^{-1} rp into p, and after a restart p and rp become
    d and s, which later iterations combine in place.  So a system must not
    read a residual it handed out, and a caller that keeps one must copy
    it.  One search's closures, and what they hold, die when the search
    ends, so the next preconditioner solve runs beside phi, r, d, s and
    rp_prev only.

    Returns (phi, trace); raises SolverDivergedError carrying the last
    iterate (every step descends, so it is the best one) and the trace when
    the budget runs out or a stop norm is not finite (an overflow).
    """
    grid = system.grid
    phi = grid.height(phi_init, "initial iterate").copy()
    # The copy is the solve's iterate; the caller's array is not read again.
    del phi_init
    trace = PsdTrace()

    r = system.residual(phi)
    d = s = rp_prev = None
    res2_prev = 0.0
    for _ in range(cfg.max_iters):
        # Deflated in place: the solve owns every residual handed to it, and
        # r itself becomes rp.  Means as sum / size: on these float64 fields
        # the same bits as np.mean, without its wrapper.
        rp = r
        rp -= rp.sum() / rp.size
        # Deflate once more: the first subtraction leaves a rounding-level
        # mean on the scale of r itself, which can dwarf a nearly converged
        # rp and trip the solver's mean check.
        rp -= rp.sum() / rp.size
        p, stop2 = system.precondition(rp, cfg.tol)
        stop = math.sqrt(stop2)
        trace.residual_norms.append(stop)
        if stop <= cfg.tol:
            return phi, trace
        if not math.isfinite(stop):
            raise SolverDivergedError(f"CG stop norm {stop} is not finite", phi, trace)
        if p is rp:
            raise ValueError("precondition must hand over an array of its own, not rp")
        # Pin the gradient to the fixed-mean tangent space exactly: the
        # spectral solve leaves a rounding-level mean whose per-step bias
        # would otherwise accumulate over very long runs.
        p -= p.sum() / p.size
        res2 = max(inner(grid, p, rp), 0.0)

        # Polak-Ribiere+: beta is clipped at zero, and a direction that is
        # not downhill is replaced by p.  The image s = Lc d follows d
        # through the same combination, since Lc p = rp.
        beta = 0.0 if d is None else (res2 - inner(grid, p, rp_prev)) / res2_prev
        slope = 0.0
        if beta > 0.0:
            d *= beta
            d += p
            s *= beta
            s += rp
            slope = inner(grid, d, rp)
            if not slope > 0.0:
                trace.restarts += 1
        if not slope > 0.0:
            # d and s are combined in place from here on: p and rp are this
            # iteration's own arrays, and rp is done with once beta is taken
            # from it as rp_prev.
            d, s, slope = p, rp, res2
        # p lives on only as d; rp (which is r) only as rp_prev.
        del p
        rp_prev, res2_prev = rp, res2
        phi, r = _line_step(system, phi, (d, s), r, slope, trace)

    rate = trace.mean_tail_contraction()
    raise SolverDivergedError(
        f"CG residual {trace.residual_norms[-1]:.3e} above tol {cfg.tol:.1e} "
        f"after {cfg.max_iters} iterations; mean tail contraction "
        f"{'n/a' if rate is None else format(rate, '.4f')} per iteration, "
        f"best iterate min phi {float(phi.min()):.3e}",
        phi=phi,
        trace=trace,
    )
