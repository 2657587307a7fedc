"""Every step has one solution, for any dt: the paper's unique solvability.

Each step below is solved three times, from three starts with the step's
mean: the previous state, the flat mean, and a rough random field, and once
more from the first start with the line search's stop at 1e-6.  The
solutions must agree in the max norm to within a bound that follows from
the solver's stop rule and the step functional's convexity alone, derived
in :func:`agreement_bound`; the bound is not fitted to the gaps, and each
case prints the two side by side (run with ``-s``).
"""

import math

import numpy as np
import pytest

from thinfilm import (
    Bdf2Scheme,
    FirstOrderScheme,
    Grid,
    PhysParams,
    SolverConfig,
    norm_inf,
    psd,
    random_initial_data,
)
from thinfilm.psd import psd_solve

CFG = SolverConfig(tol=1e-9, max_iters=2000)
GRIDS = {
    "2d-16": (Grid(2, 16, 1.0), 0.1),
    "2d-32": (Grid(2, 32, 3.2), 0.05),
    "1d-32": (Grid(1, 32, 1.0), 0.02),
}


def stencil_eigenvalues(grid):
    """Eigenvalues of -lap on the grid's nonzero Fourier modes, from the
    closed form sum_d (4 / h^2) sin^2(pi k_d / n)."""
    line = (4.0 / grid.h**2) * np.sin(np.pi * np.arange(grid.n) / grid.n) ** 2
    lam = sum(np.meshgrid(*([line] * grid.dim), indexing="ij"))
    return lam.ravel()[1:]


def agreement_bound(system, tol):
    """Largest max-norm gap between two solves that both met the stop rule.

    A step system's residual is r = -grad J of its step functional J on
    the fixed-mean slice, in the grid inner product, and its Hessian is
    H = D + linear I + M on mean-zero fields, with D + linear >= 0
    pointwise (D = U''(phi) for the two-step scheme, whose a0 makes
    U'' + (8/3) a0 >= 0; D = 24 phi^-10 for the first-order one) and

        M = L0 - a1 I = a0 (-lap)^{-1} + a2 (-lap),

    L0 the stop's metric, (a0, a1, a2) = system.coefficients.  So H >= M.
    For two solves phi_1, phi_2 with the same mean, e = phi_1 - phi_2 is
    mean-free, and integrating H along the segment between them gives

        ||e||_M^2 <= <rp_2 - rp_1, e> <= ||rp_2 - rp_1||_{M^-1} ||e||_M,

    rp_i the deflated residuals.  Each solve stopped at
    ||rp_i||_{L0^-1} <= tol, and per Fourier mode of -lap (eigenvalue lam,
    M_lam = a0 / lam + a2 lam, L0_lam = M_lam + a1)
    ||rp||_{M^-1}^2 <= kappa ||rp||_{L0^-1}^2 with
    kappa = max L0_lam / M_lam = 1 + a1 / min M_lam.  Hence
    ||e||_M <= 2 sqrt(kappa) tol.  Finally, in the orthonormal exponentials,
    each of modulus 1 / sqrt(|Omega|), Cauchy-Schwarz gives

        max |e| <= ||e||_M sqrt(sum_lam (1 / M_lam) / |Omega|).
    """
    a0, a1, a2 = system.coefficients
    lam = stencil_eigenvalues(system.grid)
    m = a0 / lam + a2 * lam
    kappa = 1.0 + a1 / m.min()
    return 2.0 * math.sqrt(kappa) * tol * math.sqrt(float(np.sum(1.0 / m)) / system.grid.volume)


def start_data(grid):
    """random_initial_data plus 0.8 sin(2 pi i / n) along the first array axis."""
    wave = np.sin(2.0 * np.pi * np.arange(grid.n) / grid.n)
    return random_initial_data(grid, 1) + 0.8 * wave.reshape((grid.n,) + (1,) * (grid.dim - 1))


def starts(phi_old):
    """phi_old, the flat mean, and a uniform(0.2, 5) field rescaled to that mean."""
    mean = float(phi_old.sum() / phi_old.size)
    rough = np.random.default_rng(7).uniform(0.2, 5.0, phi_old.shape)
    return [phi_old, np.full(phi_old.shape, mean), rough * (mean / (rough.sum() / rough.size))]


@pytest.mark.parametrize("dt", [1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("scheme", ["first-order", "bdf2"])
@pytest.mark.parametrize("case", list(GRIDS))
def test_step_solution_does_not_depend_on_the_start(case, scheme, dt, monkeypatch):
    grid, eps = GRIDS[case]
    params = PhysParams(eps=eps)
    phi_old = start_data(grid)
    if scheme == "bdf2":
        stepper, levels = Bdf2Scheme(grid, params), (phi_old, phi_old)
    else:
        stepper, levels = FirstOrderScheme(grid, params), (phi_old,)

    # A fresh system per start: each fits its preconditioner's shift to
    # its own start, while the stop's metric L0 depends on dt alone.
    solutions = [
        psd_solve(stepper.step_system_from(*levels, dt), start, CFG)[0]
        for start in starts(phi_old)
    ]
    # The line search's stop moves only the path to the solution.
    monkeypatch.setattr(psd, "_WOLFE_TOL", 1e-6)
    solutions.append(
        psd_solve(stepper.step_system_from(*levels, dt), phi_old, CFG)[0]
    )
    gap = max(norm_inf(other - solutions[0]) for other in solutions[1:])
    bound = agreement_bound(stepper.step_system_from(*levels, dt), CFG.tol)
    print(f"[unique] {case} {scheme} dt={dt:g}: gap {gap:.2e} <= bound {bound:.2e}")
    assert gap <= bound
