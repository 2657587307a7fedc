"""Spectral solves checked against eigenmode closed forms and pseudoinverses.

The Fourier path must invert the 2*dim+1 point stencil exactly, so single
trigonometric modes (eigenvectors of any periodic circulant) give closed-form
expected values with the stencil eigenvalue (4/h^2) sin^2(pi k/n), and
pseudoinverse solves of the dense matrices give matrix-level oracles.
"""

import math

import numpy as np
import pytest

from oracles import PlainSpectral, dense_neg_lap_matrix, dense_preconditioner_matrix
from thinfilm import spectral as spectral_module
from thinfilm import (
    Grid,
    InvalidCoefficientsError,
    NonZeroMeanError,
    SpectralSolver,
    lap,
    norm_inf,
)


def reference_neg_lap_matrix(grid):
    """Dense -lap assembled column by column through the stencil, unlike
    the index walk of oracles.dense_neg_lap_matrix."""
    size = grid.num_cells
    mat = np.zeros((size, size))
    basis = np.zeros(grid.shape)
    for col in range(size):
        basis.flat[col] = 1.0
        mat[:, col] = -lap(grid, basis).ravel()
        basis.flat[col] = 0.0
    return mat


def stencil_eigenvalue(grid, k):
    return (4.0 / grid.h**2) * math.sin(math.pi * k / grid.n) ** 2


def mode_1d(grid, k, kind="cos"):
    (x,) = grid.coordinates()
    fn = np.cos if kind == "cos" else np.sin
    return fn(2.0 * np.pi * k * x / grid.length)


def random_mean_zero(grid, seed):
    u = np.random.default_rng(seed).standard_normal(grid.shape)
    return u - np.mean(u)


class TestEigenmodes:
    def test_eigenvalue_hand_values(self):
        grid = Grid(1, 4, 1.0)
        # 4/h^2 = 64: lambda_1 = 64 sin^2(pi/4) = 32, lambda_2 = 64.
        assert stencil_eigenvalue(grid, 1) == pytest.approx(32.0, rel=1e-15)
        assert stencil_eigenvalue(grid, 2) == pytest.approx(64.0, rel=1e-15)
        # The continuous symbol (2 pi k / L)^2 would give ~39.48 for k=1;
        # the exact-inverse property below distinguishes the two.
        assert abs(stencil_eigenvalue(grid, 1) - (2.0 * math.pi) ** 2) > 7.0

    def test_inv_neg_lap_single_mode_n4(self):
        grid = Grid(1, 4, 1.0)
        solver = SpectralSolver(grid)
        f = mode_1d(grid, 1)
        assert np.allclose(solver.inv_neg_lap(f), f / 32.0, atol=1e-15)
        g = np.array([1.0, -1.0, 1.0, -1.0])  # sin mode at k = n/2
        assert np.allclose(solver.inv_neg_lap(g), g / 64.0, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_inv_neg_lap_modes_1d(self, k):
        grid = Grid(1, 16, 2.5)
        solver = SpectralSolver(grid)
        lam = stencil_eigenvalue(grid, k)
        for kind in ("cos", "sin"):
            f = mode_1d(grid, k, kind)
            if norm_inf(f) < 0.5:
                continue  # cos mode vanishes at centers for k = n/2
            assert np.max(np.abs(solver.inv_neg_lap(f) - f / lam)) <= 1e-13

    def test_inv_neg_lap_product_mode_2d(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        x, y = grid.coordinates()
        f = np.cos(2.0 * np.pi * 3 * x) * np.sin(2.0 * np.pi * 1 * y)
        lam = stencil_eigenvalue(grid, 3) + stencil_eigenvalue(grid, 1)
        assert np.max(np.abs(solver.inv_neg_lap(f) - f / lam)) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
    def test_stencil_roundtrip(self, dim, n):
        grid = Grid(dim, n, 1.8)
        solver = SpectralSolver(grid)
        f = random_mean_zero(grid, 7 * dim)
        back = -lap(grid, solver.inv_neg_lap(f))
        assert np.max(np.abs(back - f)) <= 1e-11 * norm_inf(f)

    def test_output_mean_zero(self):
        grid = Grid(2, 16, 1.0)
        solver = SpectralSolver(grid)
        psi = solver.inv_neg_lap(random_mean_zero(grid, 3))
        assert abs(float(np.mean(psi))) <= 1e-14


class TestHminus1:
    def test_single_mode_norm_closed_form(self):
        grid = Grid(1, 16, 2.0)
        solver = SpectralSolver(grid)
        c, k = 3.0, 2
        f = c * mode_1d(grid, k)
        # ||f||_2^2 = c^2 L / 2, so ||f||_{H^-1}^2 = c^2 L / (2 lambda_k).
        expected = math.sqrt(c**2 * grid.length / (2.0 * stencil_eigenvalue(grid, k)))
        assert solver.hminus1_norm(f) == pytest.approx(expected, rel=1e-13)

    def test_inner_matches_pinv_oracle(self):
        grid = Grid(2, 6, 1.3)
        solver = SpectralSolver(grid)
        f = random_mean_zero(grid, 21)
        g = random_mean_zero(grid, 22)
        pinv = np.linalg.pinv(reference_neg_lap_matrix(grid))
        expected = grid.cell_volume * float(f.ravel() @ pinv @ g.ravel())
        assert solver.hminus1_inner(f, g) == pytest.approx(expected, rel=1e-11)
        assert solver.hminus1_inner(f, g) == pytest.approx(
            solver.hminus1_inner(g, f), rel=1e-11
        )

    @pytest.mark.parametrize("dim, n", [(1, 16), (1, 7), (2, 8), (2, 9), (3, 6), (3, 5)])
    def test_norm_matches_inner_product(self, dim, n):
        """The one-transform Parseval norm, with its half-spectrum weights,
        against <f, (-lap)^{-1} f> through the inverse Laplacian."""
        grid = Grid(dim, n, 1.3)
        solver = SpectralSolver(grid)
        f = random_mean_zero(grid, 30 + dim)
        assert solver.hminus1_norm(f) ** 2 == pytest.approx(
            solver.hminus1_inner(f, f), rel=1e-13
        )

    def test_inner_checks_both_fields(self):
        """f is held to the rules of g: grid shape and zero mean."""
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 8)
        with pytest.raises(ValueError, match="shape"):
            solver.hminus1_inner(r.ravel()[::-1].reshape(4, 16), r)
        with pytest.raises(NonZeroMeanError):
            solver.hminus1_inner(r + 0.01, r)

    def test_norm_positive_definite(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        f = random_mean_zero(grid, 5)
        assert solver.hminus1_norm(f) > 0.0
        assert solver.hminus1_norm(np.zeros(grid.shape)) == 0.0


class TestPreconditionerSolve:
    def test_pure_inverse_laplacian_coefficients(self):
        # L = (-lap)^{-1} alone, so L d = r means d = -lap(r).
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 9)
        d, _ = solver.solve_preconditioner(r, 1.0, 0.0, 0.0)
        assert np.max(np.abs(d + lap(grid, r))) <= 1e-11 * norm_inf(d)

    def test_single_mode_closed_form(self):
        grid = Grid(1, 16, 1.0)
        solver = SpectralSolver(grid)
        a0, a1, a2 = 10.0, 1.0, 0.04
        k = 3
        f = mode_1d(grid, k, "sin")
        lam = stencil_eigenvalue(grid, k)
        d, _ = solver.solve_preconditioner(f, a0, a1, a2)
        assert np.max(np.abs(d - f / (a0 / lam + a1 + a2 * lam))) <= 1e-14

    @pytest.mark.parametrize("coeffs", [(10.0, 1.0, 0.04), (0.5, 0.0, 1.0)])
    def test_matches_dense_pseudoinverse(self, coeffs):
        grid = Grid(2, 6, 1.3)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 47)
        mat = dense_preconditioner_matrix(grid, *coeffs)
        expected = (np.linalg.pinv(mat) @ r.ravel()).reshape(grid.shape)
        d, _ = solver.solve_preconditioner(r, *coeffs)
        assert np.max(np.abs(d - expected)) <= 1e-11

    @pytest.mark.parametrize("dim, n", [(2, 6), (2, 7), (1, 8), (1, 7), (3, 4), (3, 5)])
    @pytest.mark.parametrize("shift", [0.0, 3.5, -0.8])
    def test_shifted_solve_and_unshifted_metric_norm(self, dim, n, shift):
        # d solves (L + shift I) d = r; the norm is <L^{-1} r, r> of the
        # unshifted L whatever the shift (odd n: no Nyquist mode).  The
        # Parseval weight lies along the last array axis in every dim.
        grid = Grid(dim, n, 1.3)
        solver = SpectralSolver(grid)
        coeffs = (10.0, 1.0, 0.04)
        r = random_mean_zero(grid, 48)
        mat = dense_preconditioner_matrix(grid, *coeffs)
        d, norm2 = solver.solve_preconditioner(r, *coeffs, shift)
        shifted = mat + shift * np.eye(grid.num_cells)
        expected = (np.linalg.pinv(shifted) @ r.ravel()).reshape(grid.shape)
        assert np.max(np.abs(d - expected)) <= 1e-11
        metric = grid.cell_volume * r.ravel() @ np.linalg.pinv(mat) @ r.ravel()
        assert norm2 == pytest.approx(metric, rel=1e-12)

    def test_alternating_coefficients_match_fresh_solvers(self):
        # One solver caches the factors of the last coefficients and shift;
        # switching back and forth must give what a fresh solver and the
        # dense matrix give.
        grid = Grid(2, 6, 1.3)
        shared = SpectralSolver(grid)
        cases = [(10.0, 1.0, 0.04, 0.0), (10.0, 1.0, 0.04, 2.5), (0.5, 0.0, 1.0, 0.3)]
        for k in range(7):
            a0, a1, a2, shift = cases[k % 3]
            r = random_mean_zero(grid, 60 + k)
            d, norm2 = shared.solve_preconditioner(r, a0, a1, a2, shift)
            fresh = SpectralSolver(grid).solve_preconditioner(r, a0, a1, a2, shift)
            assert np.array_equal(d, fresh[0]) and norm2 == fresh[1]
            mat = dense_preconditioner_matrix(grid, a0, a1, a2)
            dense = np.linalg.pinv(mat + shift * np.eye(grid.num_cells))
            expected = (dense @ r.ravel()).reshape(grid.shape)
            assert np.max(np.abs(d - expected)) <= 1e-11

    def test_grid_space_roundtrip(self):
        # Verify a0 (-lap)^{-1} d + a1 d - a2 lap(d) reproduces r.
        grid = Grid(2, 16, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 13)
        a0, a1, a2 = 100.0, 1.0, 0.01
        d, _ = solver.solve_preconditioner(r, a0, a1, a2)
        back = a0 * solver.inv_neg_lap(d) + a1 * d - a2 * lap(grid, d)
        assert np.max(np.abs(back - r)) <= 1e-11 * norm_inf(r)

    def test_solution_is_mean_zero_and_deterministic(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 2)
        d1, _ = solver.solve_preconditioner(r, 3.0, 1.0, 0.2)
        d2, _ = solver.solve_preconditioner(r, 3.0, 1.0, 0.2)
        assert np.array_equal(d1, d2)
        assert abs(float(np.mean(d1))) <= 1e-14

    @pytest.mark.parametrize("coeffs", [
        (0.0, 1.0, 1.0), (-1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (1.0, 0.0, -0.5),
        (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
    ])
    def test_rejects_indefinite_coefficients(self, coeffs):
        grid = Grid(1, 8, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 1)
        with pytest.raises(InvalidCoefficientsError):
            solver.solve_preconditioner(r, *coeffs)
        with pytest.raises(InvalidCoefficientsError):
            solver.solve_preconditioner_with_poisson(r, *coeffs)

    def test_rejects_a_shift_below_minus_a1(self):
        grid = Grid(1, 8, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 1)
        solver.solve_preconditioner(r, 1.0, 0.5, 0.0, -0.5)
        with pytest.raises(InvalidCoefficientsError):
            solver.solve_preconditioner(r, 1.0, 0.5, 0.0, -0.6)

    def test_rejects_an_infinite_shift(self):
        """a1 + shift must be finite too: a shift of inf returned a zero
        solution, as if every mode were damped away."""
        grid = Grid(1, 8, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 1)
        with pytest.raises(InvalidCoefficientsError):
            solver.solve_preconditioner(r, 1.0, 0.5, 0.0, math.inf)


class TestFusedPoissonSolve:
    def test_first_output_bitwise_matches_plain_solve(self):
        grid = Grid(2, 16, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 31)
        a0, a1, a2 = 1500.0, 2.2528, 0.0104
        d_fused, _ = solver.solve_preconditioner_with_poisson(r, a0, a1, a2)
        assert np.array_equal(d_fused, solver.solve_preconditioner(r, a0, a1, a2)[0])

    def test_second_output_is_poisson_solve_of_first(self):
        grid = Grid(2, 16, 1.0)
        solver = SpectralSolver(grid)
        r = random_mean_zero(grid, 32)
        d, psi = solver.solve_preconditioner_with_poisson(r, 100.0, 1.0, 0.25)
        assert np.max(np.abs(psi - solver.inv_neg_lap(d))) <= 1e-12 * max(
            norm_inf(psi), 1e-300
        )
        assert abs(float(np.mean(psi))) <= 1e-14


class TestInputDtypes:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64])
    def test_same_results_as_float64_input(self, dtype):
        """Half +2 and half -2 along the first axis: exact in every dtype,
        with a float16 sum of either half past float16's largest value."""
        grid = Grid(3, 48, 6.4)
        f = np.full(grid.shape, 2, dtype=dtype)
        f[24:] = -2
        solver = SpectralSolver(grid)
        assert np.array_equal(solver.inv_neg_lap(f), solver.inv_neg_lap(f.astype(float)))
        assert solver.hminus1_norm(f) == solver.hminus1_norm(f.astype(float))


class TestOwnedBuffer:
    """Every transform runs in one buffer the solver owns; the results are
    those of plain rfftn/irfftn to the bit, and always fresh arrays."""

    @pytest.mark.parametrize(
        "dim, n", [(1, 16), (1, 7), (2, 128), (2, 33), (3, 48), (3, 5)]
    )
    def test_bit_identical_to_plain_transforms(self, dim, n):
        """PlainSpectral multiplies by real tables; the solver's tables
        sqrt(w / L) and 1 / ((L + shift) sqrt(w / L)) are complex with
        imaginary parts of exactly +0.0, for the same bits, also at a
        second shift under two of the keys."""
        grid = Grid(dim, n, 1.3)
        solver, plain = SpectralSolver(grid), PlainSpectral(grid)
        # The factors of the last coefficients are cached: alternate them.
        cases = [(10.0, 1.0, 0.04, 0.0), (1500.0, 2.2528, 0.0104, 3.5),
                 (0.5, 0.8, 1.0, -0.8), (10.0, 1.0, 0.04, 0.0),
                 (10.0, 1.0, 0.04, 2.0), (1500.0, 2.2528, 0.0104, 3.5),
                 (1500.0, 2.2528, 0.0104, 12.0)]
        for k, coeffs in enumerate(cases):
            f = random_mean_zero(grid, 70 + k)
            with_mean = f + 1e-12 * norm_inf(f)  # below the mean tolerance
            assert np.array_equal(solver.inv_neg_lap(with_mean), plain.inv_neg_lap(with_mean))
            assert solver.hminus1_norm(f) == plain.hminus1_norm(f)
            d, norm2 = solver.solve_preconditioner(f, *coeffs)
            d_plain, norm2_plain = plain.solve_preconditioner(f, *coeffs)
            assert np.array_equal(d, d_plain)
            assert norm2 == norm2_plain
            # a limit the stop norm does not meet changes nothing
            limited = solver.solve_preconditioner(f, *coeffs, limit=0.5 * math.sqrt(norm2))
            assert np.array_equal(limited[0], d_plain) and limited[1] == norm2_plain
            for table in (solver._root, solver._ratio):
                assert table.dtype == complex
                assert not table.imag.any() and not np.signbit(table.imag).any()

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 6)])
    def test_tables_kept_per_step_size_and_shift(self, monkeypatch, dim, n):
        """One solver fed the keys (dt1, s1), (dt1, s2), (dt2, s3), (dt1, s1)
        of a two-step run, and then (dt2, s1), a new dt at the last shift,
        returns PlainSpectral's bits on every call, and builds the table of
        sqrt(w / L), its one np.sqrt, only when dt changes."""
        grid = Grid(dim, n, 1.3)
        solver, plain = SpectralSolver(grid), PlainSpectral(grid)
        sqrts = [0]
        sqrt = np.sqrt

        def counted(*args, **kwargs):
            sqrts[0] += 1
            return sqrt(*args, **kwargs)

        monkeypatch.setattr(np, "sqrt", counted)

        def coefficients(dt):  # (a0, a1, a2) of a two-step system at eps = 0.1
            return 1.5 / dt, 1.9, 0.01 + 0.4 * dt

        keys = [(0.01, 3.5), (0.01, -0.8), (0.004, 12.0), (0.01, 3.5), (0.004, 3.5)]
        builds = []
        for k, (dt, shift) in enumerate(keys):
            f = random_mean_zero(grid, 90 + k)
            coeffs = coefficients(dt)
            before = sqrts[0]
            d, norm2 = solver.solve_preconditioner(f, *coeffs, shift)
            builds.append(sqrts[0] - before)
            d_plain, norm2_plain = plain.solve_preconditioner(f, *coeffs, shift)
            assert np.array_equal(d, d_plain) and norm2 == norm2_plain
        assert builds == [1, 0, 1, 1, 1]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_results_share_no_memory(self, dim):
        grid = Grid(dim, 6, 1.3)
        solver = SpectralSolver(grid)
        first = solver.inv_neg_lap(random_mean_zero(grid, 81))
        kept = first.copy()
        second, _ = solver.solve_preconditioner(random_mean_zero(grid, 82), 3.0, 1.0, 0.2)
        third = solver.inv_neg_lap(random_mean_zero(grid, 83))
        results = (first, second, third)
        for i, a in enumerate(results):
            assert not np.shares_memory(a, solver._hat)
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_limit_drops_the_solution_exactly_at_the_stop(self, dim):
        grid = Grid(dim, 7, 1.3)
        solver = SpectralSolver(grid)
        coeffs = (10.0, 1.0, 0.04, 2.0)
        r = random_mean_zero(grid, 84)
        d, norm2 = solver.solve_preconditioner(r, *coeffs)
        stop = math.sqrt(norm2)
        assert solver.solve_preconditioner(r, *coeffs, limit=stop) == (None, norm2)
        below = solver.solve_preconditioner(r, *coeffs, limit=math.nextafter(stop, 0.0))
        assert np.array_equal(below[0], d) and below[1] == norm2
        # without a limit even a zero residual gets its (zero) solution
        zero = np.zeros(grid.shape)
        d0, norm0 = solver.solve_preconditioner(zero, *coeffs)
        assert norm0 == 0.0 and np.array_equal(d0, zero)
        assert solver.solve_preconditioner(zero, *coeffs, limit=0.0) == (None, 0.0)


class TestZeroModeHandling:
    def test_rejects_nonzero_mean(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        with pytest.raises(NonZeroMeanError):
            solver.inv_neg_lap(np.ones(grid.shape))
        with pytest.raises(NonZeroMeanError):
            solver.solve_preconditioner(
                random_mean_zero(grid, 4) + 0.01, 1.0, 1.0, 1.0
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda solver, f: solver.inv_neg_lap(f),
            lambda solver, f: solver.hminus1_norm(f),
            lambda solver, f: solver.hminus1_inner(f, random_mean_zero(solver.grid, 9)),
            lambda solver, f: solver.solve_preconditioner(f, 1.0, 1.0, 1.0),
        ],
        ids=["inv_neg_lap", "hminus1_norm", "hminus1_inner", "solve_preconditioner"],
    )
    def test_rejects_non_finite_entry(self, call, bad):
        """One nan or infinite entry makes the field unusable, not its mean
        tolerance infinite."""
        grid = Grid(2, 8, 1.0)
        f = random_mean_zero(grid, 7)
        f.flat[3] = bad
        with pytest.raises(NonZeroMeanError, match="finite"):
            call(SpectralSolver(grid), f)

    # On Grid(1, 8, 2.0): the mean bound with |f[0]| = 1 = max|f|, and the
    # full bound with max|f| = 4 where |f[0]| = 0.5.
    HEAD_BOUND = 1e-10 * 1.0 * 2.0
    FULL_BOUND = 1e-10 * 4.0 * 2.0

    @pytest.mark.parametrize("head, big, mean, bad, settled", [
        (0.0, 1.0, 0.0, None, True),
        (0.0, 1.0, 1e-12, None, False),
        (1e-300, 1.0, 1e-12, None, False),
        (1.0, 1.0, 0.0, (5, math.inf), False),
        (1.0, 1.0, 0.0, (5, -math.inf), False),
        (1.0, 1.0, 0.0, (5, math.nan), False),
        (1.0, 1.0, 0.0, (0, math.inf), False),
        (1.0, 1.0, 0.0, (0, math.nan), False),
        (1.0, 0.5, HEAD_BOUND, None, True),
        (1.0, 0.5, math.nextafter(HEAD_BOUND, math.inf), None, False),
        (1.0, 0.5, -math.nextafter(HEAD_BOUND, math.inf), None, False),
        (0.5, 4.0, FULL_BOUND, None, False),
        (0.5, 4.0, math.nextafter(FULL_BOUND, math.inf), None, False),
        (0.5, 4.0, -math.nextafter(FULL_BOUND, math.inf), None, False),
    ], ids=[
        "f0 zero, mean zero", "f0 zero, mean inside", "f0 tiny, mean inside",
        "inf away", "-inf away", "nan away", "inf at f0", "nan at f0",
        "f0 bound", "f0 bound + 1 ulp", "-(f0 bound + 1 ulp)",
        "full bound", "full bound + 1 ulp", "-(full bound + 1 ulp)",
    ])
    def test_first_entry_bound_keeps_every_verdict(
        self, monkeypatch, head, big, mean, bad, settled
    ):
        """The bound with |f[0]| settles a field only where the full test
        with max|f| passes it, and max|f| is then not taken; every other
        field gets the full test's verdict and message."""
        grid = Grid(1, 8, 2.0)
        # Every pair cancels exactly, so the mean is ``mean`` to the bit.
        f = np.array([head, -head, big, -big, 0.0, 0.0, 0.0, 8.0 * mean])
        assert float(f.sum() / f.size) == mean
        if bad is not None:
            f[bad[0]] = bad[1]
        m = float(f.sum() / f.size)
        tol = 1e-10 * norm_inf(f) * grid.volume
        passes = abs(m) <= tol < math.inf

        full_tests = []

        def counted_norm_inf(u):
            full_tests.append(u)
            return norm_inf(u)

        monkeypatch.setattr(spectral_module, "norm_inf", counted_norm_inf)
        solver = SpectralSolver(grid)
        if passes:
            checked, mean = solver._check_mean(f)
            assert checked is f and mean == m
        else:
            with pytest.raises(NonZeroMeanError) as excinfo:
                solver._check_mean(f)
            assert str(excinfo.value) == (
                f"field not finite or its mean {m:.3e} above tolerance {tol:.3e}"
            )
        assert len(full_tests) == (0 if settled else 1)
        assert passes or not settled

    def test_tolerates_and_removes_roundoff_mean(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        f = random_mean_zero(grid, 6)
        f += 1e-12 * norm_inf(f)  # below the relative mean tolerance
        psi = solver.inv_neg_lap(f)
        assert abs(float(np.mean(psi))) <= 1e-14


class TestDenseOracles:
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 6), (3, 4)])
    def test_dense_neg_lap_matches_stencil_columns(self, dim, n):
        grid = Grid(dim, n, 1.1)
        assert np.max(
            np.abs(dense_neg_lap_matrix(grid) - reference_neg_lap_matrix(grid))
        ) <= 1e-12 / grid.h**2

    def test_dense_matrix_is_symmetric_psd(self):
        grid = Grid(2, 5, 1.0)
        mat = dense_neg_lap_matrix(grid)
        assert np.allclose(mat, mat.T)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[0] >= -1e-10
        assert abs(eigs[0]) <= 1e-10  # constant null vector
        assert eigs[1] > 0.1
