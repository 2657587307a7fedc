"""Reference implementations that tests compare the package against.

None of these runs on a solver path.  The dense matrices are assembled by
index arithmetic, sharing no code with the stencil or FFT paths; the
curvature, the step functional and the largest tail ratio are the
closed forms that the package's claims are checked against; the recorders
see every iterate a solve visits; source_in_constant assembles a forced
step with its source lifted by a solve of its own; PlainSpectral repeats
the spectral solves through numpy's own rfftn/irfftn; roll_lap and
roll_grad_norm_2 are the stencils as shifted copies by np.roll, whose
floating-point operations and their order the package's slice stencils
keep; grad_form_energy takes the energy's gradient term as a norm of
forward differences, and two_laplacian_forcing the manufactured source as
the Laplacian of the full chemical potential, where the package reads
both off the stencil Laplacian.
"""

import math

import numpy as np

from thinfilm import grad_norm_2, inner, lap, mu_exact
from thinfilm.errors import check_positive
from thinfilm.schemes import StepSystem


def _neighbours(grid, axis, step):
    """Flat index of each cell's periodic neighbour ``step`` cells along an
    array axis, for the cells in C order."""
    coords = np.indices(grid.shape).reshape(grid.dim, -1)
    coords[axis] += step
    return np.ravel_multi_index(coords, grid.shape, mode="wrap")


def _zero_matrix(grid):
    assert grid.num_cells <= 12**3, "dense matrices are for grids of at most 12^3 cells"
    return np.zeros((grid.num_cells, grid.num_cells))


def dense_grad_matrices(grid):
    """Explicit matrices of the cell-to-face forward difference, one per
    physical direction; div is the negated transpose of each."""
    cells = np.arange(grid.num_cells)
    inv_h = 1.0 / grid.h
    mats = []
    for direction in range(grid.dim):
        mat = _zero_matrix(grid)
        axis = grid.dim - 1 - direction  # x varies along the last array axis
        mat[cells, _neighbours(grid, axis, 1)] += inv_h
        mat[cells, cells] -= inv_h
        mats.append(mat)
    return mats


def dense_neg_lap_matrix(grid):
    """Explicit matrix of -lap on tiny grids, assembled by index arithmetic."""
    cells = np.arange(grid.num_cells)
    inv_h2 = 1.0 / grid.h**2
    mat = _zero_matrix(grid)
    mat[cells, cells] += 2.0 * grid.dim * inv_h2
    for axis in range(grid.dim):
        for step in (-1, 1):
            mat[cells, _neighbours(grid, axis, step)] -= inv_h2
    return mat


def dense_preconditioner_matrix(grid, a0, a1, a2):
    """Explicit matrix of a0 (-lap)^{-1} + a1 I + a2 (-lap) on tiny grids.

    The inverse-Laplacian block uses the pseudoinverse, whose action on
    mean-zero vectors coincides with the mean-zero spectral solve.
    """
    neg_lap = dense_neg_lap_matrix(grid)
    eye = np.eye(grid.num_cells)
    return a0 * np.linalg.pinv(neg_lap) + a1 * eye + a2 * neg_lap


def roll_lap(grid, u):
    """(-2 dim u + sum over array axes of u[i+1] + u[i-1]) / h^2, the
    neighbours added axis by axis as periodic shifts, u[i+1] first."""
    out = -2.0 * grid.dim * u.astype(float, copy=True)
    for axis in range(u.ndim):
        out += np.roll(u, -1, axis=axis)
        out += np.roll(u, 1, axis=axis)
    return out / (grid.h * grid.h)


def roll_grad_norm_2(grid, u):
    """sqrt(h^dim sum_d sum_i ((u[i+1] - u[i]) / h)^2), accumulated
    direction by direction (x first) as periodic shifts."""
    acc = 0.0
    for direction in range(grid.dim):
        delta = (np.roll(u, -1, axis=grid.axis_of(direction)) - u) / grid.h
        acc += float(np.sum(delta * delta))
    return float(np.sqrt(grid.cell_volume * acc))


def grad_form_energy(grid, phi, eps):
    """F(phi) = <U(phi), 1> + (eps^2 / 2) grad_norm_2(phi)^2."""
    inv2 = 1.0 / phi**2
    bulk = inv2**4 / 3.0 - (4.0 / 3.0) * inv2
    gradient = 0.5 * eps**2 * grad_norm_2(grid, phi) ** 2
    return grid.cell_volume * float(bulk.sum()) + gradient


def two_laplacian_forcing(profile, grid, eps, t):
    """The manufactured source dPhi/dt - lap(mu_exact(Phi)) on the unit
    square, Phi = 1 + sin(2 pi x) cos(2 pi y) cos(t) / (2 pi) as sampled
    by ``profile``: two Laplacians, one of them inside mu_exact."""
    x, y = grid.coordinates()
    shape = np.sin(2.0 * math.pi * x) * np.cos(2.0 * math.pi * y) / (2.0 * math.pi)
    mu = mu_exact(grid, profile.sample(grid, t), eps)
    return shape * -math.sin(t) - lap(grid, mu)


def potential_curvature(x, a0):
    """Second derivative (8/3)(9 x^-10 - 3 x^-4 + a0) of the stabilized core.

    Accepts scalars or arrays of strictly positive x.
    """
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    inv2 = inv * inv
    inv4 = inv2 * inv2
    inv10 = inv4 * inv4 * inv2
    return (8.0 / 3.0) * (9.0 * inv10 - 3.0 * inv4 + a0)


def step_functional(system, phi):
    """The strictly convex functional whose negative gradient is
    ``system.residual`` on the fixed-mean slice (schemes.StepSystem)."""
    check_positive(phi, "iterate")
    grid, weight = system.grid, system.weight
    inv = 1.0 / phi
    inv2 = inv * inv
    inv8 = (inv2 * inv2) * (inv2 * inv2)
    lifted = weight * phi - system.history()
    value = system.solver.hminus1_norm(lifted - np.mean(lifted)) ** 2 / (
        2.0 * weight * system.dt
    )
    bulk = inv8 / 3.0 - (4.0 / 3.0) * inv2 if system.concave else inv8 / 3.0
    value += grid.cell_volume * float(bulk.sum())
    if system.linear:
        value += 0.5 * system.linear * inner(grid, phi, phi)
    value += 0.5 * system.stiffness * grad_norm_2(grid, phi) ** 2
    value -= inner(grid, phi, system.constant())
    return value


def tail_contraction(trace):
    """Largest residual ratio over the trailing half of a psd_solve trace.

    None when fewer than three residuals were recorded.
    """
    rn = trace.residual_norms
    if len(rn) < 3:
        return None
    start = len(rn) // 2
    ratios = [rn[i + 1] / rn[i] for i in range(start, len(rn) - 1) if rn[i] > 0.0]
    return max(ratios) if ratios else None


def record_steps(system, record):
    """Wrap system.directional so that every residual_at also calls
    record(phi, d, alpha, phi_new, r) with its iterate, direction and step
    and the pair (phi_new, r) it returns, before the solve sees the pair."""
    directional = system.directional

    def recorded(phi, direction, r_phi):
        g, residual_at = directional(phi, direction, r_phi)

        def at(alpha):
            phi_new, r = residual_at(alpha)
            record(phi, direction[0], alpha, phi_new, r)
            return phi_new, r

        return g, at

    system.directional = recorded


def record_functional(system, functional, phi0):
    """Record the functional at phi0 and at every new iterate of a solve
    (record_steps); returns the record."""
    values = [float(functional(phi0))]
    record_steps(
        system, lambda phi, d, alpha, phi_new, r: values.append(float(functional(phi_new)))
    )
    return values


def source_in_constant(scheme, levels, dt, forcing):
    """The unforced step system of ``scheme`` on the time levels ``levels``
    (phi_old, and phi_older for the two-step scheme) with the lifted source
    (-lap)^{-1}(S - mean S) added to its constant: a transform pair of its
    own, where the package folds dt (S - mean S) into the history."""
    unforced = scheme.step_system_from(*levels, dt)
    lifted = scheme.solver.inv_neg_lap(forcing - np.mean(forcing))
    return StepSystem(
        scheme.solver, dt, concave=unforced.concave, linear=unforced.linear,
        stiffness=unforced.stiffness, weight=unforced.weight,
        history=unforced.history, constant=lambda: unforced.constant() + lifted,
    )


class PlainSpectral:
    """SpectralSolver's solves through plain np.fft.rfftn/irfftn.

    Every transform allocates its own arrays and the factors are rebuilt on
    every call, out of place; the floating-point operations and their order
    are those of thinfilm.spectral, so its results must be equal to the
    bit.  No input checks.
    """

    def __init__(self, grid):
        self.grid = grid
        self.axes = tuple(range(grid.dim))
        half = grid.n // 2 + 1
        lam_line = (4.0 / grid.h**2) * np.sin(np.pi * np.arange(grid.n) / grid.n) ** 2
        lines = [lam_line] * (grid.dim - 1) + [lam_line[:half]]
        self.eig = sum(np.meshgrid(*lines, indexing="ij", sparse=True))
        self.eig.flat[0] = 1.0
        self.weight = np.full(half, 2.0 * grid.cell_volume / grid.num_cells)
        self.weight[0] /= 2.0
        if grid.n % 2 == 0:
            self.weight[-1] /= 2.0

    def inv_neg_lap(self, f):
        fhat = np.fft.rfftn(f - float(np.mean(f)), axes=self.axes) / self.eig
        fhat.flat[0] = 0.0
        return np.fft.irfftn(fhat, s=self.grid.shape, axes=self.axes)

    def hminus1_norm(self, f):
        fhat = np.fft.rfftn(f, axes=self.axes)
        q = (np.square(fhat.real) + np.square(fhat.imag)) / self.eig * self.weight
        q.flat[0] = 0.0
        return float(np.sqrt(max(float(q.sum()), 0.0)))

    def solve_preconditioner(self, r, a0, a1, a2, shift=0.0):
        big_l = self.eig * a2 + (1.0 / self.eig) * a0 + a1
        root = np.sqrt((1.0 / big_l) * self.weight)
        ratio = 1.0 / ((big_l + shift) * root)
        rhat = np.fft.rfftn(r, axes=self.axes) * root
        rhat.flat[0] = 0.0
        norm2 = float(np.vdot(rhat, rhat).real)
        return np.fft.irfftn(rhat * ratio, s=self.grid.shape, axes=self.axes), norm2
