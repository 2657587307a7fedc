"""Preconditioned steepest descent for the per-step nonlinear systems.

Each implicit time step is the Euler-Lagrange equation of a strictly convex
functional over the affine slice of fields with fixed mean, minimized here
by preconditioned steepest descent.  One iteration:

    residual   r   = residual_fn(phi)          (zero at the solution)
    direction  d   = L^{-1} (r - mean r)       (L from the preconditioner)
    step       phi <- phi + alpha d

with alpha the root of the scalar derivative g(alpha) along d, located by a
positivity-aware line search: the update may consume at most a fixed
fraction of the distance to the positivity barrier, so every iterate stays
strictly positive and keeps its mean.

g is strictly increasing with g(0) = -<L d, d> < 0, and blows up to +inf at
the barrier when the barrier is finite, so a sign change is bracketed by
geometric expansion and then resolved by Illinois-damped false position
(regula falsi that halves the stored value of an endpoint kept twice in a
row, with a midpoint fallback when the interpolant leaves the bracket).
If the safety cap itself is still downhill the capped step is taken as is;
the iteration remains a descent step.
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
# Relative stopping tolerance of the line search, on g and on the bracket.
_LINE_TOL = 1e-12
# Factor by which the line search widens its trial step while g < 0.
_GROWTH = 2.0


@dataclass
class SolverConfig:
    """Stopping rule of the descent loop."""

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

    residual_norms holds the preconditioned metric norm sqrt(<d, r - mean r>)
    measured at the top of each iteration, including the accepting one, so
    it has one more entry than alphas.
    """

    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    line_evals: list = field(default_factory=list)
    functional_values: list | None = None

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


def barrier_alpha(phi: np.ndarray, d: np.ndarray, safety: float = 0.99) -> float:
    """Largest safe step keeping phi + alpha d strictly positive.

    Returns safety * min(-phi_i / d_i) over entries with d_i < 0, or +inf
    when no entry decreases.
    """
    neg = d < 0.0
    if not np.any(neg):
        return math.inf
    return safety * float(np.min(-phi[neg] / d[neg]))


def _eval_g(g, alpha: float) -> float:
    value = float(g(alpha))
    # Overflow of the singular terms past the barrier shows up as nan/inf;
    # either way the trial step was too long.
    return math.inf if math.isnan(value) else value


def line_search(g, alpha_barrier: float, g0: float | None = None) -> float:
    """Locate the positive root of an increasing scalar derivative g.

    Accepts alpha_barrier = +inf for barrier-free directions.  Stops when
    |g(alpha)| <= _LINE_TOL |g(0)| or the bracket width drops below
    _LINE_TOL * alpha.  When even the capped step stays downhill the cap is
    returned (a barrier-limited descent step).
    """
    if g0 is None:
        g0 = _eval_g(g, 0.0)
    if not g0 < 0.0:
        raise ValueError(f"g(0) must be negative for a descent direction, got {g0}")

    cap = alpha_barrier * (1.0 - 1e-12) if math.isfinite(alpha_barrier) else math.inf
    if not cap > 0.0:
        raise BarrierCollapseError("positivity barrier leaves no admissible step")

    lo, glo = 0.0, g0
    a = min(1.0, alpha_barrier / 2.0, cap)
    ga = _eval_g(g, a)
    expansions = 0
    while ga < 0.0:
        if a >= cap:
            return cap
        lo, glo = a, ga
        expansions += 1
        if expansions > 200 or not math.isfinite(a):
            raise BarrierCollapseError(
                "directional derivative never changed sign during expansion"
            )
        a = min(a * _GROWTH, cap)
        ga = _eval_g(g, a)
    if ga == 0.0:
        return a
    hi, ghi = a, ga

    # Illinois-damped false position: interpolate through the bracket, and
    # when the same endpoint survives twice in a row halve its stored value,
    # which unsticks the stalled side and keeps the contraction superlinear.
    gtol = _LINE_TOL * abs(g0)
    side = 0
    for _ in range(256):
        width = hi - lo
        if width <= _LINE_TOL * hi:
            return 0.5 * (lo + hi)
        if math.isfinite(ghi):
            x = (lo * ghi - hi * glo) / (ghi - glo)
            if not (lo < x < hi):
                x = 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
        gx = _eval_g(g, x)
        if abs(gx) <= gtol:
            return x
        if gx < 0.0:
            lo, glo = x, gx
            if side < 0 and math.isfinite(ghi):
                ghi *= 0.5
            side = -1
        else:
            hi, ghi = x, gx
            if side > 0:
                glo *= 0.5
            side = 1
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
    """Drive the preconditioned descent until the metric residual meets tol.

    residual_fn(phi) returns the full residual field; precondition(r)
    applies L^{-1} to a mean-zero field.  Returns (phi, trace); raises
    MaxItersExceededError carrying the best iterate when the budget runs
    out.  When ``functional`` is given its value is recorded at phi_init and
    after every update.

    ``directional``, when given, is a factory (phi, d, r) -> (g, residual_at)
    with g(alpha) = -<residual_fn(phi + alpha d), d>, used for the line
    search in place of assembling the residual at every trial point, and
    residual_at(alpha) = residual_fn(phi + alpha d), used to carry the
    residual to the next iteration.  Schemes supply factories
    that exploit the affine structure of their residuals; both closures
    must agree with the naive evaluations to rounding error.
    """
    cfg = cfg or SolverConfig()
    phi = np.array(phi_init, dtype=float, copy=True)
    if not np.all(phi > 0.0):
        raise NonPositiveFieldError("initial iterate must be strictly positive")
    trace = PsdTrace()
    if functional is not None:
        trace.functional_values = [float(functional(phi))]

    r = None
    for _ in range(cfg.max_iters):
        if r is None:
            r = residual_fn(phi)
        rp = r - np.mean(r)
        # Deflate once more: the first subtraction leaves a rounding-level
        # mean on the scale of r itself, which can dwarf a nearly converged
        # rp and trip the solver's mean check.
        rp -= np.mean(rp)
        d = precondition(rp)
        # Pin the direction to the fixed-mean tangent space exactly: the
        # spectral solve leaves a rounding-level mean whose per-step bias
        # would otherwise accumulate over very long runs.
        d -= np.mean(d)
        res = math.sqrt(max(inner(grid, d, rp), 0.0))
        trace.residual_norms.append(res)
        if res <= cfg.tol:
            return phi, trace

        evals = 0
        residual_at = None
        if directional is not None:
            g_inner, residual_at = directional(phi, d, r)
        else:

            def g_inner(alpha: float, _phi=phi, _d=d) -> float:
                return -inner(grid, residual_fn(_phi + alpha * _d), _d)

        def g(alpha: float) -> float:
            nonlocal evals
            evals += 1
            return g_inner(alpha)

        alpha = line_search(g, barrier_alpha(phi, d, _ALPHA_SAFETY), g0=-(res * res))
        if not (alpha > 0.0):
            raise BarrierCollapseError(f"line search returned alpha = {alpha}")
        phi = phi + alpha * d
        r = residual_at(alpha) if residual_at is not None else None
        trace.alphas.append(alpha)
        trace.line_evals.append(evals)
        if functional is not None:
            trace.functional_values.append(float(functional(phi)))

    raise MaxItersExceededError(
        f"descent residual {trace.residual_norms[-1]:.3e} above tol {cfg.tol:.1e} "
        f"after {cfg.max_iters} iterations",
        phi=phi,
        trace=trace,
    )
