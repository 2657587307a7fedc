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


def barrier_alpha(phi: np.ndarray, d: np.ndarray, safety: float = 0.99) -> float:
    """Largest safe step keeping phi + alpha d strictly positive.

    Returns safety * min(-phi_i / d_i) over entries with d_i < 0, or +inf
    when no entry decreases, computed in one pass as -1 / min(d / phi).
    """
    m = float(np.min(d / phi))
    return safety * (-1.0 / m) if m < 0.0 else math.inf


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
    """Drive preconditioned nonlinear CG until the metric residual meets tol.

    residual_fn(phi) returns the full residual field; precondition(r)
    applies L^{-1} to a mean-zero field.  Returns (phi, trace); raises
    MaxItersExceededError carrying the best iterate when the budget runs
    out.  When ``functional`` is given its value is recorded at phi_init and
    after every update.

    ``directional``, when given, is a factory (phi, (d, s), r) ->
    (g, residual_at) for the direction d and its preconditioner image
    s = L d, with g(alpha) = -<residual_fn(phi + alpha d), d>, used for the
    line search in place of assembling the residual at every trial point,
    and residual_at(alpha) = residual_fn(phi + alpha d), used to carry the
    residual to the next iteration.  Schemes supply factories that exploit
    the affine structure of their residuals; both closures must agree with
    the naive evaluations to rounding error.
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
        else:

            def g_inner(alpha: float, _phi=phi, _d=d) -> float:
                return -inner(grid, residual_fn(_phi + alpha * _d), _d)

        def g(alpha: float) -> float:
            nonlocal evals
            evals += 1
            return g_inner(alpha)

        alpha = line_search(g, barrier_alpha(phi, d, _ALPHA_SAFETY), g0=-slope)
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
