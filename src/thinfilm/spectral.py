"""FFT-diagonalized solves for the periodic staggered Laplacian.

The periodic 2*dim+1 point Laplacian is diagonal in the discrete Fourier
basis with the exact stencil eigenvalues

    lambda_k = sum_d (4 / h^2) sin^2(pi k_d / n),

not the continuous symbol |2 pi k / L|^2.  Using the stencil eigenvalues
makes the transform-space division the exact inverse of the grid operator,
so inverting and re-applying the stencil round-trips to rounding error.

The zero mode is handled by explicit projection: inputs must be mean-zero
(within tolerance), and the mode-0 output coefficient is pinned to zero,
which drops the actual mean and fixes the additive constant of every solve.
The inverse Laplacian also subtracts the mean before its transform.

The H^-1 norm and the preconditioner's metric are both Parseval sums over
the rfftn half spectrum with one weight w_k = 2 h^dim / N (N cells), halved
at the last-axis modes 0 and n/2, which stand for no conjugate pair.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidCoefficientsError, NonZeroMeanError
from .grid import Grid, inner, norm_inf

# Admissible mean of a solver input, relative to max|f| times the box volume.
_MEAN_TOL = 1e-10


class SpectralSolver:
    """Inverse Laplacian, H^-1 products, and preconditioner solves.

    Eigenvalue tables are precomputed once per grid, so instances should be
    created once and reused across time steps.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        half = grid.n // 2 + 1
        lam_line = (4.0 / grid.h**2) * np.sin(np.pi * np.arange(grid.n) / grid.n) ** 2
        # Per-axis eigenvalue lines summed over the rfftn output shape; the
        # last array axis is the half-spectrum axis.
        lines = [lam_line] * (grid.dim - 1) + [lam_line[:half]]
        self._eig_safe = sum(np.meshgrid(*lines, indexing="ij", sparse=True))
        # Safe divisor: mode 0 is never used (pinned to zero after division).
        self._eig_safe.flat[0] = 1.0
        # Parseval weight along the half-spectrum axis (module docstring).
        self._weight = np.full(half, 2.0 * grid.cell_volume / grid.num_cells)
        self._weight[0] /= 2.0
        if grid.n % 2 == 0:
            self._weight[-1] /= 2.0
        self._axes = tuple(range(grid.dim))
        # Half-spectrum factors of the last preconditioner solve's
        # (a0, a1, a2, shift): _root = sqrt(w / L), w the Parseval weight,
        # and _ratio = 1 / ((L + shift) _root).  A step's solves all share
        # one key, so its first solve rebuilds them, in place.
        self._solve_key = None
        self._root = self._ratio = None

    def _check_mean(self, f: np.ndarray) -> float:
        """Check the shape and mean of a solver input; returns the mean."""
        self.grid.validate_field(f)
        m = float(np.mean(f))
        tol = _MEAN_TOL * norm_inf(f) * self.grid.volume
        if abs(m) > tol:
            raise NonZeroMeanError(
                f"field mean {m:.3e} exceeds tolerance {tol:.3e}; subtract it first"
            )
        return m

    def inv_neg_lap(self, f: np.ndarray) -> np.ndarray:
        """Solve -lap(psi) = f for the mean-zero psi.

        ``f`` must be mean-zero within tolerance (NonZeroMeanError otherwise).
        """
        m = self._check_mean(f)
        fhat = np.fft.rfftn(f - m, axes=self._axes)
        fhat /= self._eig_safe
        fhat.flat[0] = 0.0
        return np.fft.irfftn(fhat, s=self.grid.shape, axes=self._axes)

    def hminus1_inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """H^-1 inner product <f, (-lap)^{-1} g> of two mean-zero fields."""
        self._check_mean(f)
        return inner(self.grid, f, self.inv_neg_lap(g))

    def hminus1_norm(self, f: np.ndarray) -> float:
        """H^-1 norm sqrt(<f, (-lap)^{-1} f>) of a mean-zero field.

        One forward transform: by Parseval the square is
        sum_k w_k |f_k|^2 / lambda_k over the half spectrum, mode 0 dropped.
        """
        self._check_mean(f)
        fhat = np.fft.rfftn(f, axes=self._axes)
        q = np.square(fhat.real)
        q += np.square(fhat.imag)
        q /= self._eig_safe
        q *= self._weight
        q.flat[0] = 0.0
        return float(np.sqrt(max(float(q.sum()), 0.0)))

    def solve_preconditioner(
        self, r: np.ndarray, a0: float, a1: float, a2: float, shift: float = 0.0
    ) -> tuple:
        """Solve (L + shift I) d = r with L = a0 (-lap)^{-1} + a1 I + a2 (-lap).

        Requires a0 > 0, a1, a2 >= 0 and a1 + shift >= 0, so L and L + shift I
        are positive definite on the mean-zero subspace; ``r`` must be
        mean-zero within tolerance.  Returns the mean-zero solution d and
        the squared norm <L^{-1} r, r> of r in the metric of the unshifted
        L, read off the same forward transform.
        """
        if not (a0 > 0.0 and a1 >= 0.0 and a2 >= 0.0 and a1 + shift >= 0.0):
            raise InvalidCoefficientsError(
                f"need a0 > 0, a1 >= 0, a2 >= 0, a1 + shift >= 0, "
                f"got ({a0}, {a1}, {a2}) and shift {shift}"
            )
        self._check_mean(r)
        key = (a0, a1, a2, shift)
        if self._solve_key != key:
            # Rebuilt every step, so in place and without temporaries, into
            # buffers allocated by the first solve: other allocation orders
            # raised the peak memory of a 48^3 run by up to 2 MB.
            if self._root is None:
                self._root = np.empty(self._eig_safe.shape)
                self._ratio = np.empty(self._eig_safe.shape)
            eig, root, ratio = self._eig_safe, self._root, self._ratio
            # ratio = L
            np.multiply(eig, a2, out=ratio)
            np.reciprocal(eig, out=root)
            root *= a0
            ratio += root
            ratio += a1
            np.reciprocal(ratio, out=root)
            root *= self._weight
            np.sqrt(root, out=root)
            ratio += shift
            ratio *= root
            np.reciprocal(ratio, out=ratio)
            self._solve_key = key
        # By Parseval, <L^{-1} r, r> is the squared norm of r_hat _root; the
        # mean of r only reaches mode 0, which is dropped.
        rhat = np.fft.rfftn(r, axes=self._axes)
        rhat *= self._root
        rhat.flat[0] = 0.0
        norm2 = float(np.vdot(rhat, rhat).real)
        rhat *= self._ratio
        return np.fft.irfftn(rhat, s=self.grid.shape, axes=self._axes), norm2

    def solve_preconditioner_with_poisson(
        self, r: np.ndarray, a0: float, a1: float, a2: float
    ) -> tuple:
        """Solve L d = r and -lap(psi) = d; returns (d, psi).

        No solver path uses it: the step systems get L d without a transform.
        """
        d, _ = self.solve_preconditioner(r, a0, a1, a2)
        return d, self.inv_neg_lap(d)
