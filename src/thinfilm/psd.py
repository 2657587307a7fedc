"""Preconditioned nonlinear CG (PR+) for the per-step nonlinear systems.

Each implicit time step is the Euler-Lagrange equation of a strictly convex
functional over the affine slice of fields with fixed mean, minimized here
by preconditioned nonlinear conjugate gradients with the Polak-Ribiere+
update (Nocedal-Wright, Numerical Optimization, ch. 5).  One iteration:

    residual   r   = residual_fn(phi)          (zero at the solution)
    gradient   p   = L^{-1} (r - mean r)       (L from the preconditioner)
    direction  d   = p + beta d_prev,  beta = max(0, <p, rp - rp_prev> / res_prev^2)
    step       phi <- phi + alpha d

with rp = r - mean r and res^2 = <p, rp>.  The direction falls back to p
(a restart) whenever it is not a descent direction, <d, rp> <= 0.  Its
preconditioner image L d = rp + beta L d_prev is carried along at no
transform cost, for step systems that can use it.

alpha is the root of the scalar derivative g(alpha) along d, located by a
positivity-aware line search: the update may consume at most a fixed
fraction of the distance to the positivity barrier, so every iterate stays
strictly positive and keeps its mean.

g is strictly increasing with g(0) = -<d, rp> < 0, and blows up to +inf at
the barrier when the barrier is finite, so its root is unique.  The search
is a safeguarded Newton iteration on g, seeded by the slope g'(0) that the
step system carries from the last residual it assembled; where a Newton
step would leave the bracket or stall, a sign change is bracketed by
geometric expansion and resolved by Illinois-damped false position, which
is the whole method for a residual function without a slope.  Of its three
stops (|g| small, bracket narrow, Newton correction small; see
line_search), the last ends most searches: rounding puts a noise floor
under g that lies above the first stop near the root.  If the safety cap
itself is still downhill the capped step is taken as is; the iteration
remains a descent step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BarrierCollapseError,
    MaxItersExceededError,
    NonPositiveFieldError,
)
from .grid import Grid, inner

# Fraction of the distance to the positivity barrier a step may consume.
_ALPHA_SAFETY = 0.99
# Relative stopping tolerance of the line search: on g, on the bracket, and
# on the error of a final Newton correction.
_LINE_TOL = 1e-12
# Factor by which the line search widens its trial step while g < 0.
_GROWTH = 2.0


@dataclass
class SolverConfig:
    """Stopping rule of the CG loop."""

    tol: float = 1e-9
    max_iters: int = 500

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class PsdTrace:
    """Per-iteration history of one nonlinear solve.

    residual_norms holds the preconditioned metric norm sqrt(<p, r - mean r>)
    measured at the top of each iteration, including the accepting one, so
    it has one more entry than alphas.  restarts counts the iterations whose
    conjugate direction was not downhill and was reset to p.
    """

    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    line_evals: list = field(default_factory=list)
    functional_values: list | None = None
    restarts: int = 0

    @property
    def iterations(self) -> int:
        return len(self.alphas)

    def tail_contraction(self) -> float | None:
        """Largest residual ratio over the trailing half of the iteration.

        None when fewer than three residuals were recorded.
        """
        rn = self.residual_norms
        if len(rn) < 3:
            return None
        start = len(rn) // 2
        ratios = [rn[i + 1] / rn[i] for i in range(start, len(rn) - 1) if rn[i] > 0.0]
        return max(ratios) if ratios else None

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


def barrier_alpha(phi: np.ndarray, d: np.ndarray, safety: float = 0.99) -> float:
    """Largest safe step keeping phi + alpha d strictly positive.

    Returns safety * min(-phi_i / d_i) over entries with d_i < 0, or +inf
    when no entry decreases, computed in one pass as -1 / min(d / phi).
    """
    m = float(np.min(d / phi))
    return safety * (-1.0 / m) if m < 0.0 else math.inf


def _eval_g(g, alpha: float) -> tuple:
    value, slope = g(alpha)
    # Overflow of the singular terms past the barrier shows up as nan/inf;
    # either way the trial step was too long.
    return (math.inf if math.isnan(value) else float(value)), float(slope)


def _newton(alpha: float, value: float, slope: float) -> float:
    """Newton point alpha - g/g', or nan when the slope is not finite and positive."""
    if slope > 0.0 and math.isfinite(slope):
        return alpha - value / slope
    return math.nan


def line_search(g, alpha_barrier: float, g0: tuple | None = None) -> float:
    """Locate the positive root of an increasing scalar derivative g.

    g(alpha) returns the pair (g(alpha), g'(alpha)).  A slope that is not
    finite and positive (nan when unknown) rules out the Newton step from
    that point; with no slope at all the search is the plain bracketing
    method below.  ``g0`` is the pair at alpha = 0 when the caller already
    has it.  Accepts alpha_barrier = +inf for barrier-free directions.

    The first trial is the Newton step from 0 (1 without a slope), at most
    half the barrier.  Each later trial is the Newton step from the last
    one when it stays inside the current bracket and is at most half the
    move before the last (as fast as bisection); otherwise alpha doubles
    while g < 0, and inside a sign-change bracket Illinois false position
    takes over (a midpoint when the interpolant leaves the bracket).
    Three stops:

    - |g(alpha)| <= _LINE_TOL |g(0)|;
    - the bracket is narrower than _LINE_TOL * alpha (its midpoint is
      returned);
    - after a Newton move m, the correction c = |g/g'| is at most
      sqrt(_LINE_TOL) * alpha and at most m^2 / alpha; the corrected point
      is returned.  Its error is K c^2 with K = g'' / 2g', and the move
      measures K = c / m^2 <= 1 / alpha, so the error is at most
      _LINE_TOL * alpha.

    The third stop is what ends a search on the step systems: g there is
    a small difference of large inner products whose rounding lies above
    _LINE_TOL |g(0)| near the root, so the first stop is out of reach and
    the second only comes after the bracket has been ground down to
    rounding width.

    When even the capped step stays downhill the cap is returned (a
    barrier-limited descent step).
    """
    if g0 is None:
        g0 = _eval_g(g, 0.0)
    value0, slope0 = g0
    if not value0 < 0.0:
        raise ValueError(f"g(0) must be negative for a descent direction, got {value0}")

    cap = alpha_barrier * (1.0 - 1e-12) if math.isfinite(alpha_barrier) else math.inf
    if not cap > 0.0:
        raise BarrierCollapseError("positivity barrier leaves no admissible step")

    gtol = _LINE_TOL * abs(value0)
    ntol = math.sqrt(_LINE_TOL)
    # [lo, hi] holds the root once a trial has turned g non-negative
    # (bracketed); until then hi is the cap.
    lo, glo = 0.0, value0
    hi, ghi = cap, math.nan
    bracketed = False
    side = 0
    newton = _newton(0.0, value0, slope0)
    a = min(newton if 0.0 < newton < math.inf else 1.0, alpha_barrier / 2.0, cap)
    took_newton = a == newton
    move, move_before = a, math.inf
    expansions = 0
    # At most 200 expansions and 256 steps inside the bracket.
    for _ in range(456):
        value, slope = _eval_g(g, a)
        if abs(value) <= gtol:
            return a
        if value < 0.0:
            if a >= cap:
                return cap
            lo, glo = a, value
            # Illinois: when the same endpoint survives twice in a row,
            # halve its stored value so the interpolant moves off it.
            if bracketed:
                if side < 0 and math.isfinite(ghi):
                    ghi *= 0.5
                side = -1
        else:
            if bracketed:
                if side > 0:
                    glo *= 0.5
                side = 1
            hi, ghi, bracketed = a, value, True
        if bracketed and hi - lo <= _LINE_TOL * hi:
            return 0.5 * (lo + hi)

        x = _newton(a, value, slope)
        step = abs(x - a)
        inside = lo < x < hi
        if took_newton and inside and step <= ntol * a and step * a <= move * move:
            return x
        took_newton = inside and step <= 0.5 * move_before
        if not took_newton:
            if not bracketed:
                expansions += 1
                if expansions > 200 or not math.isfinite(a):
                    raise BarrierCollapseError(
                        "directional derivative never changed sign during expansion"
                    )
                x = min(a * _GROWTH, cap)
            elif math.isfinite(ghi):
                x = (lo * ghi - hi * glo) / (ghi - glo)
                if not (lo < x < hi):
                    x = 0.5 * (lo + hi)
            else:
                x = 0.5 * (lo + hi)
        move_before, move = move, abs(x - a)
        a = x
    raise BarrierCollapseError(
        f"line search failed to resolve a root in [{lo}, {hi}]"
    )


def psd_solve(
    grid: Grid,
    residual_fn,
    precondition,
    phi_init: np.ndarray,
    cfg: SolverConfig | None = None,
    functional=None,
    directional=None,
):
    """Drive preconditioned nonlinear CG until the metric residual meets tol.

    residual_fn(phi) returns the full residual field; precondition(r)
    applies L^{-1} to a mean-zero field.  Returns (phi, trace); raises
    MaxItersExceededError carrying the best iterate when the budget runs
    out.  When ``functional`` is given its value is recorded at phi_init and
    after every update.

    ``directional``, when given, is a factory (phi, (d, s), r) ->
    (g, residual_at) for the direction d and its preconditioner image
    s = L d.  g(alpha) returns the pair (g, g') of
    g(alpha) = -<residual_fn(phi + alpha d), d> and its derivative, used
    for the line search in place of assembling the residual at every trial
    point; residual_at(alpha) = residual_fn(phi + alpha d) carries the
    residual to the next iteration.  g(0) seeds the search with its slope
    and is not counted as a line evaluation; step systems answer it from
    the state they carry at phi.  Its value is replaced by -<d, rp> from
    the deflated residual: the undeflated inner product carries rounding
    of order mean(r) sum(d), large near the barrier.  Schemes supply factories that exploit
    the affine structure of their residuals; both closures must agree with
    the naive evaluations to rounding error.  Without a factory the slope
    is unknown (nan) and the line search falls back to false position.
    """
    cfg = cfg or SolverConfig()
    phi = np.array(phi_init, dtype=float, copy=True)
    if not np.all(phi > 0.0):
        raise NonPositiveFieldError("initial iterate must be strictly positive")
    trace = PsdTrace()
    if functional is not None:
        trace.functional_values = [float(functional(phi))]

    r = None
    d = s = rp_prev = None
    res2_prev = 0.0
    for _ in range(cfg.max_iters):
        if r is None:
            r = residual_fn(phi)
        rp = r - np.mean(r)
        # Deflate once more: the first subtraction leaves a rounding-level
        # mean on the scale of r itself, which can dwarf a nearly converged
        # rp and trip the solver's mean check.
        rp -= np.mean(rp)
        p = precondition(rp)
        # Pin the gradient to the fixed-mean tangent space exactly: the
        # spectral solve leaves a rounding-level mean whose per-step bias
        # would otherwise accumulate over very long runs.
        p -= np.mean(p)
        res2 = max(inner(grid, p, rp), 0.0)
        res = math.sqrt(res2)
        trace.residual_norms.append(res)
        if res <= cfg.tol:
            return phi, trace

        # Polak-Ribiere+: beta is clipped at zero, and a direction that is
        # not downhill is replaced by p.  The image s = L d follows d
        # through the same combination, since L p = rp.
        beta = 0.0 if d is None else (res2 - inner(grid, p, rp_prev)) / res2_prev
        slope = 0.0
        if beta > 0.0:
            d = p + beta * d
            s = rp + beta * s
            slope = inner(grid, d, rp)
            if not slope > 0.0:
                trace.restarts += 1
        if not slope > 0.0:
            d, s, slope = p, rp, res2
        rp_prev, res2_prev = rp, res2

        evals = 0
        residual_at = None
        if directional is not None:
            g_inner, residual_at = directional(phi, (d, s), r)
            slope0 = g_inner(0.0)[1]
        else:

            def g_inner(alpha: float, _phi=phi, _d=d) -> tuple:
                return -inner(grid, residual_fn(_phi + alpha * _d), _d), math.nan

            slope0 = math.nan

        def g(alpha: float) -> tuple:
            nonlocal evals
            evals += 1
            return g_inner(alpha)

        alpha = line_search(
            g, barrier_alpha(phi, d, _ALPHA_SAFETY), g0=(-slope, slope0)
        )
        if not (alpha > 0.0):
            raise BarrierCollapseError(f"line search returned alpha = {alpha}")
        phi = phi + alpha * d
        r = residual_at(alpha) if residual_at is not None else None
        trace.alphas.append(alpha)
        trace.line_evals.append(evals)
        if functional is not None:
            trace.functional_values.append(float(functional(phi)))

    raise MaxItersExceededError(
        f"CG residual {trace.residual_norms[-1]:.3e} above tol {cfg.tol:.1e} "
        f"after {cfg.max_iters} iterations",
        phi=phi,
        trace=trace,
    )
