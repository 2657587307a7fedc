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

The preconditioner's two real tables are held as complex arrays whose
imaginary parts are exactly +0.0.  numpy multiplies a complex spectrum by
a real array by casting the real one to complex in buffered chunks; a
complex table skips the cast, at twice the table's memory.  The products
are the same bits: (a + ib)(c + i0) = (ac - b0) + i(bc + a0), and adding
a zero leaves ac and bc as they are.

Every transform runs in one half-spectrum buffer that the solver owns, as
one numpy call per axis without the n-D wrappers' set-up: the forward
transform is an rfft along the last axis into the buffer, then an in-place
fft along each leading axis from the last to the first; the inverse is an
in-place ifft along each leading axis from the first to the last, then one
last-axis irfft into a fresh real array.  These are the calls of numpy's
rfftn/irfftn in their order, so the bits are theirs too.
Every returned field is a fresh array that shares no memory with the
buffer or with an earlier result; a solver is therefore not re-entrant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidCoefficientsError, NonZeroMeanError
from .grid import Grid, inner, norm_inf

# Admissible mean of a solver input, relative to max|f| times the box volume.
_MEAN_TOL = 1e-10


class SpectralSolver:
    """Inverse Laplacian, H^-1 products, and preconditioner solves.

    Eigenvalue tables and ``_hat``, the half-spectrum buffer that every
    transform runs in, are allocated once per grid, so instances should be
    created once and reused across time steps.  The buffer makes a solver
    not re-entrant: no call may start while another runs (say, from a
    second thread).  Every returned field is a fresh array.
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
        # Parseval weight (module docstring), before the halving that
        # _halve_unpaired applies.
        self._weight = 2.0 * grid.cell_volume / grid.num_cells
        self._hat = np.empty(self._eig_safe.shape, dtype=complex)
        # Preconditioner tables (see solve_preconditioner): _big_l = L and
        # _root = sqrt(w / L), w the Parseval weight, for _l_key =
        # (a0, a1, a2), and _ratio = 1 / ((L + shift) _root) for _shift.
        # _root and _ratio are complex with a zero imaginary part (module
        # docstring).
        self._l_key = self._shift = None
        self._big_l = self._root = self._ratio = None

    def _check_mean(self, f: np.ndarray) -> float:
        """Check the shape, finiteness and mean of a solver input; returns the
        mean, summed in float64 whatever the dtype of f.  A nan entry makes
        the mean nan, an infinite one the tolerance.

        The bound with |f[0]| in place of max|f| is settled first: it is the
        smaller, so when it holds the full test holds too, and max|f| is not
        taken.  An inf or nan entry makes the mean fail it.  Only a finite
        field whose full tolerance overflows, which the full test refuses,
        can pass it instead.
        """
        self.grid.validate_field(f)
        f = np.asarray(f, dtype=float)
        m = float(f.sum() / f.size)
        volume = self.grid.volume
        if abs(m) <= _MEAN_TOL * abs(float(f.flat[0])) * volume < math.inf:
            return m
        tol = _MEAN_TOL * norm_inf(f) * volume
        if not abs(m) <= tol < np.inf:
            raise NonZeroMeanError(
                f"field not finite or its mean {m:.3e} above tolerance {tol:.3e}"
            )
        return m

    def _halve_unpaired(self, q: np.ndarray) -> None:
        """Halve a half-spectrum field in place at the last-axis modes 0 and,
        for even n, n/2, which stand for no conjugate pair: the Parseval
        weight's halving, as two column scalings and no row loop."""
        q[..., 0] *= 0.5
        if self.grid.n % 2 == 0:
            q[..., -1] *= 0.5

    def _forward(self, f: np.ndarray) -> np.ndarray:
        """rfftn of f into the owned buffer, which it returns."""
        hat = self._hat
        np.fft.rfft(f, axis=-1, out=hat)
        for ax in range(self.grid.dim - 2, -1, -1):
            np.fft.fft(hat, axis=ax, out=hat)
        return hat

    def _inverse(self) -> np.ndarray:
        """irfftn of the owned buffer, which it overwrites, as a fresh array."""
        hat = self._hat
        for ax in range(self.grid.dim - 1):
            np.fft.ifft(hat, axis=ax, out=hat)
        return np.fft.irfft(hat, n=self.grid.n, axis=-1)

    def inv_neg_lap(self, f: np.ndarray) -> np.ndarray:
        """Solve -lap(psi) = f for the mean-zero psi.

        ``f`` must be mean-zero within tolerance (NonZeroMeanError otherwise).
        """
        m = self._check_mean(f)
        fhat = self._forward(f - m)
        fhat /= self._eig_safe
        fhat.flat[0] = 0.0
        return self._inverse()

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
        fhat = self._forward(f)
        q = np.square(fhat.real)
        q += np.square(fhat.imag)
        q /= self._eig_safe
        q *= self._weight
        self._halve_unpaired(q)
        q.flat[0] = 0.0
        return float(np.sqrt(max(float(q.sum()), 0.0)))

    def solve_preconditioner(
        self, r: np.ndarray, a0: float, a1: float, a2: float, shift: float = 0.0,
        limit: float | None = None,
    ) -> tuple:
        """Solve (L + shift I) d = r with L = a0 (-lap)^{-1} + a1 I + a2 (-lap).

        Requires finite a0 > 0, a1, a2 >= 0 and a1 + shift >= 0, so L and
        L + shift I are positive definite on the mean-zero subspace; ``r``
        must be mean-zero within tolerance.  Returns the mean-zero solution d and
        the squared norm norm2 = <L^{-1} r, r> of r in the metric of the
        unshifted L, read off the same forward transform.  With a ``limit``,
        d is None when sqrt(norm2) <= limit, and the inverse transform is
        not paid for; without one, d is always solved for.

        The half-spectrum tables of L and sqrt(w / L) are kept for the last
        (a0, a1, a2), so a run at one dt builds them once; the table of
        1 / ((L + shift) sqrt(w / L)) is kept for the last shift and rebuilt
        from them when the shift changes, as every step's does.
        """
        if not (0.0 < a0 < math.inf and 0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf
                and 0.0 <= a1 + shift < math.inf):
            raise InvalidCoefficientsError(
                f"need 0 < a0 < inf, 0 <= a1, a2 < inf, 0 <= a1 + shift < inf, "
                f"got ({a0}, {a1}, {a2}) and shift {shift}"
            )
        self._check_mean(r)
        if self._l_key != (a0, a1, a2):
            # In place and without temporaries, into tables allocated by the
            # first solve: other allocation orders raised the peak memory of
            # a 48^3 run by up to 2 MB.
            if self._big_l is None:
                shape = self._eig_safe.shape
                self._big_l = np.empty(shape)
                self._root, self._ratio = (np.zeros(shape, complex) for _ in range(2))
            # Real parts only, through views: the imaginary parts stay +0.0.
            eig, big_l, root = self._eig_safe, self._big_l, self._root.real
            np.multiply(eig, a2, out=big_l)
            np.reciprocal(eig, out=root)
            root *= a0
            big_l += root
            big_l += a1
            np.reciprocal(big_l, out=root)
            root *= self._weight
            self._halve_unpaired(root)
            np.sqrt(root, out=root)
            self._l_key, self._shift = (a0, a1, a2), None
        if self._shift != shift:
            ratio = self._ratio.real
            np.add(self._big_l, shift, out=ratio)
            ratio *= self._root.real
            np.reciprocal(ratio, out=ratio)
            self._shift = shift
        # By Parseval, <L^{-1} r, r> is the squared norm of r_hat _root; the
        # mean of r only reaches mode 0, which is dropped.
        rhat = self._forward(r)
        rhat *= self._root
        rhat.flat[0] = 0.0
        norm2 = float(np.vdot(rhat, rhat).real)
        if limit is not None and math.sqrt(norm2) <= limit:
            return None, norm2
        rhat *= self._ratio
        return self._inverse(), norm2

    def solve_preconditioner_with_poisson(
        self, r: np.ndarray, a0: float, a1: float, a2: float
    ) -> tuple:
        """Solve L d = r and -lap(psi) = d; returns (d, psi).

        No solver path uses it: the step systems get L d without a transform.
        """
        d, _ = self.solve_preconditioner(r, a0, a1, a2)
        return d, self.inv_neg_lap(d)
