"""Energy, chemical potentials, and stabilization constants.

Oracles: closed-form constant-field values, compensated-summation quadrature,
difference quotients of an independently coded potential, and the dense
stencil matrix of tests/oracles.py and its pseudoinverse for the screened
norm.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import dense_neg_lap_matrix, grad_form_energy, potential_curvature
from thinfilm import (
    Grid,
    NonPositiveFieldError,
    PhysParams,
    SpectralSolver,
    a0_star,
    discrete_energy,
    inner,
    lap,
    modified_energy,
    mu_exact,
    norm_2,
)
from thinfilm.energy import (
    mu_bdf2,
    mu_first_order,
    splitting_first_order,
    splitting_stabilized,
)
from thinfilm.errors import check_positive


def potential(x):
    """Reference potential (1/3) x^-8 - (4/3) x^-2, coded independently."""
    return x**-8 / 3.0 - (4.0 / 3.0) * x**-2


def positive_field(grid, seed, low=0.5, high=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, grid.shape)


class TestConvexityConstant:
    def test_closed_form_value(self):
        # Curvature of the core is 24 x^-10 - 8 x^-4 + (8/3) a0; its minimum
        # over x > 0 sits at x = 7.5^(1/6), giving the sharp constant below.
        x_star = 7.5 ** (1.0 / 6.0)
        sharp = -(24.0 * x_star**-10 - 8.0 * x_star**-4) * 3.0 / 8.0
        assert a0_star() == pytest.approx(sharp, rel=1e-14)
        assert a0_star() == pytest.approx(0.4697841169402637, rel=1e-13)

    def test_curvature_nonnegative_at_sharp_constant(self):
        x = np.geomspace(1e-2, 1e2, 20001)
        assert float(np.min(potential_curvature(x, a0_star()))) >= -1e-10

    def test_curvature_dips_below_without_margin(self):
        x = np.geomspace(1e-2, 1e2, 20001)
        assert float(np.min(potential_curvature(x, a0_star() - 0.01))) < 0.0

    def test_curvature_hand_value_and_scalar_input(self):
        # (8/3)(9 - 3 + a0) at x = 1.
        assert potential_curvature(1.0, 0.0) == pytest.approx(16.0, rel=1e-15)
        assert potential_curvature(1.0, 3.0) == pytest.approx(24.0, rel=1e-15)

    @pytest.mark.parametrize("x", [0.3, 0.7, 1.0, 1.9, 4.0])
    def test_curvature_is_second_derivative_of_core(self, x):
        a0 = 0.8

        def core(y):
            return potential(y) + (4.0 / 3.0) * a0 * y**2

        def second_diff(s):
            return (core(x + s) - 2.0 * core(x) + core(x - s)) / s**2

        # Richardson-extrapolated central difference, step scaled with x.
        s = 0.01 * x
        fd = (4.0 * second_diff(0.5 * s) - second_diff(s)) / 3.0
        assert potential_curvature(x, a0) == pytest.approx(fd, rel=1e-6)


class TestPhysParams:
    def test_defaults_are_sharp_constants(self):
        p = PhysParams(eps=0.1)
        assert p.a0 == a0_star()
        assert p.a_stab == (4.0 / 9.0) * a0_star() ** 2

    def test_stab_floor_tracks_custom_a0(self):
        p = PhysParams(eps=0.1, a0=1.5)
        assert p.a_stab == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysParams(eps=0.0)
        with pytest.raises(ValueError):
            PhysParams(eps=-1.0)
        with pytest.raises(ValueError):
            PhysParams(eps=0.1, a0=-1.0)
        with pytest.raises(ValueError):
            PhysParams(eps=0.1, a_stab=-0.1)
        for kwargs in ({"eps": math.inf}, {"a0": math.inf}, {"a_stab": math.inf}):
            with pytest.raises(ValueError):
                PhysParams(**{"eps": 0.1, **kwargs})

    def test_frozen(self):
        p = PhysParams(eps=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.eps = 0.2


class TestPositivityGuard:
    def test_reports_minimum(self):
        with pytest.raises(NonPositiveFieldError, match="-3"):
            check_positive(np.array([1.0, -3.0, 2.0]))

    def test_zero_rejected(self):
        with pytest.raises(NonPositiveFieldError):
            check_positive(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("values, passes, minimum", [
        ([1.0, 2.0], True, None),
        ([5e-324, 1.0], True, None),  # the smallest subnormal is > 0
        ([1.0, np.inf], True, None),
        ([np.inf, np.inf], True, None),
        ([1.0, 0.0], False, "0.0"),
        ([1.0, -0.0], False, "-0.0"),
        ([1.0, -5e-324], False, "-5e-324"),
        ([1.0, -np.inf], False, "-inf"),
        ([1.0, np.nan], False, "nan"),
        ([np.nan, -1.0], False, "nan"),
        ([3, 1], True, None),
        ([3, 0], False, "0.0"),
    ])
    def test_verdict_table(self, values, passes, minimum):
        """One verdict per entry kind, the same as every entry > 0."""
        phi = np.array(values)
        assert passes == bool((phi > 0.0).all())
        if passes:
            check_positive(phi)
        else:
            with pytest.raises(NonPositiveFieldError) as err:
                check_positive(phi)
            assert str(err.value) == f"field must be strictly positive, min = {minimum}"

    def test_all_entry_points_guarded(self):
        grid = Grid(1, 4, 1.0)
        bad = np.array([1.0, 1.0, -0.5, 1.0])
        good = np.ones(4)
        params = PhysParams(eps=0.1)
        with pytest.raises(NonPositiveFieldError):
            discrete_energy(grid, bad, 0.1)
        with pytest.raises(NonPositiveFieldError):
            splitting_first_order(grid, bad, 0.1)
        with pytest.raises(NonPositiveFieldError):
            splitting_stabilized(grid, bad, 0.1, 1.0)
        with pytest.raises(NonPositiveFieldError):
            mu_exact(grid, bad, 0.1)
        with pytest.raises(NonPositiveFieldError):
            mu_first_order(grid, bad, good, 0.1)
        with pytest.raises(NonPositiveFieldError):
            mu_first_order(grid, good, bad, 0.1)
        with pytest.raises(NonPositiveFieldError):
            mu_bdf2(grid, bad, good, good, params, 0.1)


class TestDiscreteEnergy:
    def test_constant_field_closed_form(self):
        grid = Grid(2, 8, 2.0)
        # F(c) = |Omega| U(c) for constants; gradient part vanishes.
        for c in (1.0, 2.0, 0.5):
            phi = np.full(grid.shape, c)
            assert discrete_energy(grid, phi, 0.3) == pytest.approx(
                grid.volume * potential(c), rel=1e-13
            )
        assert discrete_energy(grid, np.ones(grid.shape), 0.3) == pytest.approx(
            -grid.volume, rel=1e-13
        )

    def test_matches_fsum_quadrature(self):
        grid = Grid(2, 6, 1.5)
        eps = 0.25
        phi = positive_field(grid, 10)
        bulk = grid.cell_volume * math.fsum(potential(v) for v in phi.ravel())
        sq = []
        for d in range(2):
            diff = (np.roll(phi, -1, axis=grid.axis_of(d)) - phi) / grid.h
            sq.extend(float(v) ** 2 for v in diff.ravel())
        gradsq = grid.cell_volume * math.fsum(sq)
        expected = bulk + 0.5 * eps**2 * gradsq
        assert discrete_energy(grid, phi, eps) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 12)])
    def test_summation_by_parts_matches_gradient_form(self, dim, n):
        """The gradient term -(eps^2/2) <phi, lap phi> agrees with
        (eps^2/2) grad_norm_2(phi)^2, the form it replaced, to rounding."""
        grid = Grid(dim, n, 1.7)
        phi = positive_field(grid, 12 + dim)
        for eps in (0.02, 0.5):
            assert discrete_energy(grid, phi, eps) == pytest.approx(
                grad_form_energy(grid, phi, eps), rel=1e-13
            )

    def test_gradient_term_scales_with_eps(self):
        grid = Grid(1, 8, 1.0)
        phi = positive_field(grid, 11)
        f0 = discrete_energy(grid, phi, 1e-8)
        f1 = discrete_energy(grid, phi, 0.5)
        f2 = discrete_energy(grid, phi, 1.0)
        assert f2 - f0 == pytest.approx(4.0 * (f1 - f0), rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_other_dtypes_computed_in_float64(self, dtype):
        """Heights of 0.2-0.4: phi^-8 reaches 390625, past float16's largest
        value, 65504, and float32 rounds the bulk sum.  The energy and the
        chemical potential are those of the field cast to float64 first."""
        grid = Grid(2, 32, 3.2)
        phi = positive_field(grid, 48, 0.2, 0.4).astype(dtype)
        wide = phi.astype(float)
        assert discrete_energy(grid, phi, 0.1) == discrete_energy(grid, wide, 0.1)
        assert np.array_equal(mu_exact(grid, phi, 0.1), mu_exact(grid, wide, 0.1))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_splitting_oracles_computed_in_float64(self, dtype):
        """The same fields through the splitting energies and potentials:
        their reciprocal powers are taken in float64, so each result is that
        of the field cast to float64 first (float16 overflowed to inf, and
        float32 rounded)."""
        grid = Grid(2, 32, 3.2)
        phi = positive_field(grid, 48, 0.2, 0.4).astype(dtype)
        wide = phi.astype(float)
        history = positive_field(grid, 49, 0.2, 0.4)
        params = PhysParams(eps=0.1)
        assert splitting_first_order(grid, phi, 0.1) == splitting_first_order(grid, wide, 0.1)
        assert splitting_stabilized(grid, phi, 0.1, 2.0) == splitting_stabilized(
            grid, wide, 0.1, 2.0
        )
        for narrow_out, wide_out in (
            (mu_first_order(grid, phi, phi, 0.1), mu_first_order(grid, wide, wide, 0.1)),
            (mu_bdf2(grid, phi, history, history, params, 0.01),
             mu_bdf2(grid, wide, history, history, params, 0.01)),
        ):
            assert np.array_equal(narrow_out, wide_out)


class TestSplittings:
    def test_plain_split_reconstructs_energy(self):
        grid = Grid(2, 8, 1.0)
        phi = positive_field(grid, 20)
        fc, fe = splitting_first_order(grid, phi, 0.3)
        assert fc - fe == pytest.approx(discrete_energy(grid, phi, 0.3), rel=1e-12)

    def test_plain_split_halves(self):
        grid = Grid(1, 6, 1.0)
        phi = positive_field(grid, 21)
        fc, fe = splitting_first_order(grid, phi, 0.0 + 1e-30)
        one = np.ones(grid.shape)
        assert fe == pytest.approx(
            (4.0 / 3.0) * inner(grid, phi**-2, one), rel=1e-12
        )
        assert fc == pytest.approx(inner(grid, phi**-8, one) / 3.0, rel=1e-12)

    def test_stabilized_split_reconstructs_energy(self):
        grid = Grid(2, 8, 1.0)
        phi = positive_field(grid, 22)
        a0 = a0_star()
        fc, fe = splitting_stabilized(grid, phi, 0.3, a0)
        assert fc - fe == pytest.approx(discrete_energy(grid, phi, 0.3), rel=1e-12)
        assert fe == pytest.approx((4.0 / 3.0) * a0 * inner(grid, phi, phi), rel=1e-13)

    def test_stabilized_convex_half_is_convex(self):
        # Midpoint convexity of Fc along random segments of positive fields.
        grid = Grid(1, 8, 1.0)
        a0 = a0_star()
        for seed in range(5):
            u = positive_field(grid, 100 + seed, 0.4, 3.0)
            v = positive_field(grid, 200 + seed, 0.4, 3.0)
            fc_u = splitting_stabilized(grid, u, 0.2, a0)[0]
            fc_v = splitting_stabilized(grid, v, 0.2, a0)[0]
            fc_mid = splitting_stabilized(grid, 0.5 * (u + v), 0.2, a0)[0]
            assert fc_mid <= 0.5 * (fc_u + fc_v) + 1e-12 * (abs(fc_u) + abs(fc_v))


class TestChemicalPotentials:
    def test_mu_exact_term_by_term(self):
        grid = Grid(2, 6, 1.3)
        eps = 0.4
        phi = positive_field(grid, 30)
        expected = (
            -(8.0 / 3.0) * (phi.ravel() ** -9 - phi.ravel() ** -3)
            + eps**2 * dense_neg_lap_matrix(grid) @ phi.ravel()
        )
        assert np.max(np.abs(mu_exact(grid, phi, eps).ravel() - expected)) <= 1e-11

    def test_mu_exact_constant_one_is_critical(self):
        grid = Grid(2, 8, 1.0)
        mu = mu_exact(grid, np.ones(grid.shape), 0.7)
        assert np.max(np.abs(mu)) <= 1e-13

    def test_mu_exact_is_energy_gradient(self):
        grid = Grid(2, 6, 1.0)
        eps = 0.3
        phi = positive_field(grid, 31)
        v = np.random.default_rng(32).standard_normal(grid.shape)
        s = 1e-5
        fd = (
            discrete_energy(grid, phi + s * v, eps)
            - discrete_energy(grid, phi - s * v, eps)
        ) / (2.0 * s)
        assert inner(grid, mu_exact(grid, phi, eps), v) == pytest.approx(
            fd, rel=1e-6, abs=1e-8
        )

    def test_mu_first_order_splits_old_and_new(self):
        grid = Grid(1, 8, 1.0)
        eps = 0.2
        new = positive_field(grid, 33)
        old = positive_field(grid, 34)
        expected = (
            -(8.0 / 3.0) * new**-9
            + (8.0 / 3.0) * old**-3
            - eps**2 * lap(grid, new)
        )
        assert np.allclose(mu_first_order(grid, new, old, eps), expected, atol=1e-12)

    def test_mu_first_order_collapses_to_exact(self):
        grid = Grid(2, 8, 1.0)
        phi = positive_field(grid, 35)
        assert np.allclose(
            mu_first_order(grid, phi, phi, 0.4),
            mu_exact(grid, phi, 0.4),
            atol=1e-12,
        )

    def test_mu_bdf2_collapses_to_exact_on_flat_history(self):
        grid = Grid(2, 8, 1.0)
        phi = positive_field(grid, 36)
        params = PhysParams(eps=0.4)
        assert np.allclose(
            mu_bdf2(grid, phi, phi, phi, params, 0.01),
            mu_exact(grid, phi, 0.4),
            atol=1e-12,
        )

    def test_mu_bdf2_term_by_term(self):
        grid = Grid(1, 8, 1.0)
        params = PhysParams(eps=0.3, a0=0.6, a_stab=0.5)
        dt = 0.02
        new = positive_field(grid, 37)
        chk = positive_field(grid, 38)
        old = positive_field(grid, 39)
        expected = (
            -(8.0 / 3.0) * (new**-9 - new**-3)
            + (8.0 / 3.0) * params.a0 * (new - chk)
            - params.a_stab * dt * lap(grid, new - old)
            - params.eps**2 * lap(grid, new)
        )
        assert np.allclose(mu_bdf2(grid, new, chk, old, params, dt), expected, atol=1e-12)


class TestModifiedEnergy:
    def test_assembly_against_pinv_oracle(self):
        """On the unit square and off it: the cell volume and the H^-1
        solve both come from the solver's grid."""
        for length in (1.0, 3.2):
            grid = Grid(2, 6, length)
            solver = SpectralSolver(grid)
            params = PhysParams(eps=0.3)
            dt = 0.01
            new = positive_field(grid, 40)
            old = new + 0.01 * np.random.default_rng(41).standard_normal(grid.shape)
            old -= np.mean(old - new)  # make the increment mean-free
            diff = (new - old).ravel()

            pinv = np.linalg.pinv(dense_neg_lap_matrix(grid))
            hm1_sq = grid.cell_volume * float(diff @ pinv @ diff)
            expected = (
                discrete_energy(grid, new, params.eps)
                + hm1_sq / (4.0 * dt)
                + (4.0 / 3.0) * params.a0 * norm_2(grid, new - old) ** 2
            )
            got = modified_energy(solver, new, old, params.a0, dt,
                                  discrete_energy(grid, new, params.eps))
            assert got == pytest.approx(expected, rel=1e-9), length

    def test_float32_levels_taken_in_float64(self):
        grid = Grid(2, 12, 1.0)
        solver = SpectralSolver(grid)
        new = positive_field(grid, 46).astype(np.float32)
        old = (new + 0.01 * np.random.default_rng(47).standard_normal(grid.shape)).astype(
            np.float32
        )
        got = modified_energy(solver, new, old, a0_star(), 0.01, 1.0)
        want = modified_energy(solver, new.astype(float), old.astype(float), a0_star(), 0.01, 1.0)
        assert got == want

    def test_hminus1_term_matches_hminus1_inner(self):
        grid = Grid(2, 12, 1.0)
        solver = SpectralSolver(grid)
        dt = 0.01
        new = positive_field(grid, 45)
        old = new + 0.05 * np.sin(2 * np.pi * grid.coordinates()[1])
        diff = new - old
        diff -= np.mean(diff)
        expected = (
            discrete_energy(grid, new, 0.3)
            + solver.hminus1_inner(diff, diff) / (4.0 * dt)
            + (4.0 / 3.0) * a0_star() * norm_2(grid, new - old) ** 2
        )
        got = modified_energy(solver, new, old, a0_star(), dt,
                              discrete_energy(grid, new, 0.3))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_reduces_to_energy_for_stationary_pair(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        phi = positive_field(grid, 42)
        got = modified_energy(solver, phi, phi.copy(), a0_star(), 0.01,
                              discrete_energy(grid, phi, 0.3))
        assert got == pytest.approx(discrete_energy(grid, phi, 0.3), rel=1e-13)

    def test_dominates_plain_energy(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        new = positive_field(grid, 43)
        old = new + 0.05 * np.sin(2 * np.pi * grid.coordinates()[0])
        energy = discrete_energy(grid, new, 0.3)
        assert modified_energy(solver, new, old, a0_star(), 0.01,
                               energy) >= energy
