"""Free energy and chemical potentials of the droplet film model.

The film height phi > 0 carries the singular two-term potential

    U(x) = (1/3) x^-8 - (4/3) x^-2,

and the discrete free energy on a periodic staggered grid is

    F(phi) = <U(phi), 1> + (eps^2 / 2) ||grad phi||_2^2,

with ||grad phi||_2 the forward-difference norm :func:`grid.grad_norm_2`.
The gradient term is evaluated by summation by parts, as
-(eps^2 / 2) <phi, lap phi>, from the stencil Laplacian: a step has
lap(phi) of its new field at hand, so its energy costs one dot more than
the bulk term, and the next two-step assembly reuses that field.

Two convex/concave splittings of F drive the time schemes: the plain one,
F = [<(1/3) phi^-8, 1> + (eps^2/2)||grad phi||^2] - [<(4/3) phi^-2, 1>],
and a stabilized one that adds (4/3) a0 <phi^2, 1> to both halves so the
non-gradient part f(x) = U(x) + (4/3) a0 x^2 is convex on (0, inf).  The
smallest constant achieving that convexity is returned by :func:`a0_star`.

Negative powers are formed by explicit repeated multiplication of the
reciprocal, never through transcendental ``pow``, so results are bitwise
reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidCoefficientsError, check_nonnegative_finite, check_positive,
                     check_positive_finite)
from .grid import Grid, grad_norm_2, inner, lap, norm_2
from .spectral import SpectralSolver


def a0_star() -> float:
    """Smallest a0 making U(x) + (4/3) a0 x^2 convex on (0, inf).

    Equals (9/5) (2/15)^(2/3): the curvature 24 x^-10 - 8 x^-4 attains its
    minimum -(8/3) a0_star at x = (2/15)^(-1/6).
    """
    return (9.0 / 5.0) * (2.0 / 15.0) ** (2.0 / 3.0)


@dataclass(frozen=True)
class PhysParams:
    """Model and stabilization parameters shared by the time steppers.

    a0 defaults to the sharp convexity constant :func:`a0_star`; the
    second-difference coefficient a_stab defaults to its admissible floor
    (4/9) a0^2.
    """

    eps: float
    a0: float = None
    a_stab: float = None

    def __post_init__(self):
        check_positive_finite("eps", self.eps)
        if self.a0 is None:
            object.__setattr__(self, "a0", a0_star())
        check_positive_finite("a0", self.a0)
        if self.a_stab is None:
            object.__setattr__(self, "a_stab", (4.0 / 9.0) * self.a0**2)
        check_nonnegative_finite("a_stab", self.a_stab)


def _recip_powers_2_8(phi: np.ndarray):
    """(phi^-2, phi^-8) by repeated squaring, in two fresh fields."""
    inv2 = np.divide(1.0, phi, dtype=float)
    np.square(inv2, out=inv2)
    inv8 = np.square(inv2)
    np.square(inv8, out=inv8)
    return inv2, inv8


def _recip_powers_3_9(phi: np.ndarray):
    """(phi^-3, phi^-9) by repeated multiplication."""
    inv = np.divide(1.0, phi, dtype=float)
    inv3 = np.square(inv) * inv
    return inv3, np.square(inv3) * inv3


def discrete_energy(grid: Grid, phi: np.ndarray, eps: float) -> float:
    """Total discrete free energy F(phi), computed in float64."""
    phi = np.asarray(phi, dtype=float)
    check_positive(phi)
    return _energy_with_lap(grid, phi, lap(grid, phi), eps)


def _energy_with_lap(grid: Grid, phi: np.ndarray, lap_phi: np.ndarray,
                     eps: float) -> float:
    """F(phi) from lap_phi = lap(phi), for a strictly positive phi.

    The gradient term is -(eps^2 / 2) <phi, lap phi>, equal to
    (eps^2 / 2) ||grad phi||^2 by summation by parts.
    """
    # inv8 / 3 - (4/3) inv2, in place in the ladder's two fields.
    inv2, bulk = _recip_powers_2_8(phi)
    bulk /= 3.0
    inv2 *= 4.0 / 3.0
    bulk -= inv2
    return (
        grid.cell_volume * float(bulk.sum())
        - 0.5 * eps**2 * inner(grid, phi, lap_phi)
    )


def splitting_first_order(grid: Grid, phi: np.ndarray, eps: float):
    """Convex/concave halves (Fc, Fe) with F = Fc - Fe, plain splitting."""
    check_positive(phi)
    inv2, inv8 = _recip_powers_2_8(phi)
    fc = (
        grid.cell_volume * float(inv8.sum()) / 3.0
        + 0.5 * eps**2 * grad_norm_2(grid, phi) ** 2
    )
    fe = (4.0 / 3.0) * grid.cell_volume * float(inv2.sum())
    return fc, fe


def splitting_stabilized(grid: Grid, phi: np.ndarray, eps: float, a0: float):
    """Convex/concave halves (Fc, Fe) of the quadratically stabilized split.

    Fc = <U(phi) + (4/3) a0 phi^2, 1> + (eps^2/2)||grad phi||^2 and
    Fe = (4/3) a0 <phi^2, 1>, so again F = Fc - Fe.
    """
    check_positive(phi)
    quad = (4.0 / 3.0) * a0 * inner(grid, phi, phi)
    return discrete_energy(grid, phi, eps) + quad, quad


def modified_energy(
    solver: SpectralSolver,
    phi_new: np.ndarray,
    phi_old: np.ndarray,
    a0: float,
    dt: float,
    energy: float,
) -> float:
    """Two-level Lyapunov functional of the stabilized two-step scheme.

    F(phi_new) + (1/(4 dt)) ||phi_new - phi_old||_{-1}^2
               + (4/3) a0 ||phi_new - phi_old||_2^2,

    on the grid of ``solver``, with ``energy`` = F(phi_new) as the caller
    has already evaluated it, so eps enters only through ``energy``.  dt
    must be positive and finite, and both fields must have the grid's shape.
    """
    check_positive_finite("dt", dt, InvalidCoefficientsError)
    solver.grid.validate_field(phi_new)
    solver.grid.validate_field(phi_old)
    diff = np.subtract(phi_new, phi_old, dtype=float)
    # The increment is mean-free up to rounding on the scale of phi; finish
    # the cancellation so the H^-1 solve accepts near-stationary steps.
    return (
        energy
        + solver.hminus1_norm(diff - diff.sum() / diff.size) ** 2 / (4.0 * dt)
        + (4.0 / 3.0) * a0 * norm_2(solver.grid, diff) ** 2
    )


def _bulk_potential(phi: np.ndarray) -> np.ndarray:
    """U'(phi) = -(8/3)(phi^-9 - phi^-3), the pointwise part of mu_exact."""
    inv3, inv9 = _recip_powers_3_9(phi)
    return -(8.0 / 3.0) * (inv9 - inv3)


def mu_exact(grid: Grid, phi: np.ndarray, eps: float) -> np.ndarray:
    """Chemical potential -(8/3)(phi^-9 - phi^-3) - eps^2 lap(phi), in float64."""
    phi = np.asarray(phi, dtype=float)
    check_positive(phi)
    return _bulk_potential(phi) - eps**2 * lap(grid, phi)


def mu_first_order(
    grid: Grid, phi_new: np.ndarray, phi_old: np.ndarray, eps: float
) -> np.ndarray:
    """Splitting potential: implicit convex part at phi_new, concave at phi_old.

    -(8/3) phi_new^-9 + (8/3) phi_old^-3 - eps^2 lap(phi_new).
    """
    check_positive(phi_new, "phi_new")
    check_positive(phi_old, "phi_old")
    _, inv9 = _recip_powers_3_9(phi_new)
    inv3_old, _ = _recip_powers_3_9(phi_old)
    return (
        -(8.0 / 3.0) * inv9 + (8.0 / 3.0) * inv3_old - eps**2 * lap(grid, phi_new)
    )


def mu_bdf2(
    grid: Grid,
    phi_new: np.ndarray,
    phi_check: np.ndarray,
    phi_old: np.ndarray,
    params: PhysParams,
    dt: float,
) -> np.ndarray:
    """Stabilized two-step potential, in float64.

    -(8/3)(phi_new^-9 - phi_new^-3) + (8/3) a0 (phi_new - phi_check)
      - a_stab dt lap(phi_new - phi_old) - eps^2 lap(phi_new),
    where phi_check is the extrapolated history 2 phi^n - phi^{n-1}.
    """
    phi_new, phi_check, phi_old = (
        np.asarray(u, dtype=float) for u in (phi_new, phi_check, phi_old)
    )
    check_positive(phi_new, "phi_new")
    inv3, inv9 = _recip_powers_3_9(phi_new)
    return (
        -(8.0 / 3.0) * (inv9 - inv3)
        + (8.0 / 3.0) * params.a0 * (phi_new - phi_check)
        - params.a_stab * dt * lap(grid, phi_new - phi_old)
        - params.eps**2 * lap(grid, phi_new)
    )
