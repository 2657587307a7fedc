"""Implicit steppers: residual algebra, step invariants, and history logic.

The residual oracles rebuild every term from scratch with a dense
pseudoinverse for the nonlocal part; gradient identities are checked by
central differences of the step functionals; the conservation, positivity,
and dissipation guarantees are asserted over multi-step runs.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

from oracles import (
    dense_neg_lap_matrix,
    dense_preconditioner_matrix,
    potential_curvature,
    step_functional,
    tail_contraction,
)
from thinfilm import psd as psd_module
from thinfilm import schemes as schemes_module
from thinfilm import (
    Bdf2Scheme,
    ConfigError,
    FirstOrderScheme,
    Grid,
    InvalidCoefficientsError,
    NonPositiveFieldError,
    NonZeroMeanError,
    PhysParams,
    PositivityLostError,
    SolverConfig,
    SolverDivergedError,
    SpectralSolver,
    a0_star,
    barrier_alpha,
    discrete_energy,
    initial_state,
    inner,
    lap,
    line_search,
    modified_energy,
    mu_exact,
    norm_inf,
    psd_solve,
    restart_state,
)


def apply_pinv(grid, pinv, u):
    v = u - np.mean(u)
    return (pinv @ v.ravel()).reshape(grid.shape)


def positive_field(grid, seed, low=0.6, high=1.6):
    return np.random.default_rng(seed).uniform(low, high, grid.shape)


def smooth_field(grid, amp=0.2):
    x, y = grid.coordinates()
    return 1.0 + amp * np.sin(2.0 * np.pi * x / grid.length) * np.cos(
        2.0 * np.pi * y / grid.length
    )


def fixed_metric_norm(scheme, system, phi):
    """sqrt(<L0^{-1} rp, rp>) of the residual assembled afresh at phi, in the
    step's fixed metric L0 = the preconditioner without its shift."""
    r = system.residual(phi)
    rp = r - np.mean(r)
    rp -= np.mean(rp)
    return math.sqrt(scheme.solver.solve_preconditioner(rp, *system.coefficients)[1])


def mean_zero_forcing(grid, seed):
    s = np.random.default_rng(seed).standard_normal(grid.shape)
    return s - np.mean(s)


def holding(grid, value, field=None):
    """field (by default a mean-zero source) with value in one cell."""
    out = mean_zero_forcing(grid, 60) if field is None else field
    out[1, 2] = value
    return out


@pytest.fixture
def setup():
    grid = Grid(2, 8, 1.0)
    params = PhysParams(eps=0.5)
    fo = FirstOrderScheme(grid, params)
    bdf2 = Bdf2Scheme(grid, params)
    return grid, params, fo, bdf2


class TestResidualOracles:
    def test_first_order_term_by_term(self, setup):
        grid, params, fo, _ = setup
        dt = 0.1
        phi_old = positive_field(grid, 1)
        phi = positive_field(grid, 2)
        forcing = mean_zero_forcing(grid, 3)
        pinv = np.linalg.pinv(dense_neg_lap_matrix(grid))
        expected = (
            (8.0 / 3.0) * phi**-9
            - (8.0 / 3.0) * phi_old**-3
            + params.eps**2 * lap(grid, phi)
            - apply_pinv(grid, pinv, phi - phi_old) / dt
            + apply_pinv(grid, pinv, forcing)
        )
        got = fo.step_system_from(phi_old, dt, forcing).residual(phi)
        assert norm_inf(got - expected) <= 1e-11 * max(1.0, norm_inf(got))

    def test_bdf2_term_by_term(self, setup):
        grid, params, _, bdf2 = setup
        dt = 0.05
        phi_older = positive_field(grid, 4)
        phi_old = positive_field(grid, 5)
        phi = positive_field(grid, 6)
        forcing = mean_zero_forcing(grid, 7)
        pinv = np.linalg.pinv(dense_neg_lap_matrix(grid))
        phi_hat = 2.0 * phi_old - phi_older
        expected = (
            (8.0 / 3.0) * (phi**-9 - phi**-3)
            - (8.0 / 3.0) * params.a0 * (phi - phi_hat)
            + (params.eps**2 + params.a_stab * dt) * lap(grid, phi)
            - params.a_stab * dt * lap(grid, phi_old)
            - apply_pinv(grid, pinv, 1.5 * phi - 2.0 * phi_old + 0.5 * phi_older) / dt
            + apply_pinv(grid, pinv, forcing)
        )
        got = bdf2.step_system_from(phi_old, phi_older, dt, forcing).residual(phi)
        assert norm_inf(got - expected) <= 1e-11 * max(1.0, norm_inf(got))

    def test_forcing_enters_as_additive_lift(self, setup):
        grid, params, fo, bdf2 = setup
        solver = SpectralSolver(grid)
        dt = 0.1
        phi_old = positive_field(grid, 8)
        phi = positive_field(grid, 9)
        forcing = mean_zero_forcing(grid, 10)
        lift = solver.inv_neg_lap(forcing)
        diff_fo = fo.step_system_from(phi_old, dt, forcing).residual(
            phi
        ) - fo.step_system_from(phi_old, dt).residual(phi)
        assert norm_inf(diff_fo - lift) <= 1e-13 * max(1.0, norm_inf(lift))
        diff_b = bdf2.step_system_from(phi_old, phi_old, dt, forcing).residual(
            phi
        ) - bdf2.step_system_from(phi_old, phi_old, dt).residual(phi)
        assert norm_inf(diff_b - lift) <= 1e-13 * max(1.0, norm_inf(lift))

    def test_forcing_must_be_mean_zero(self, setup):
        grid, _, fo, _ = setup
        phi = positive_field(grid, 11)
        with pytest.raises(NonZeroMeanError):
            fo.step_system_from(phi, 0.1, np.ones(grid.shape)).residual(phi)

    def test_residual_rejects_nonpositive_iterate(self, setup):
        grid, _, fo, bdf2 = setup
        phi_old = positive_field(grid, 12)
        bad = phi_old.copy()
        bad.flat[3] = -0.1
        with pytest.raises(NonPositiveFieldError):
            fo.step_system_from(phi_old, 0.1).residual(bad)
        with pytest.raises(NonPositiveFieldError):
            bdf2.step_system_from(phi_old, phi_old, 0.1).residual(bad)


class TestGradientIdentity:
    """The residual is the negative gradient of the step functional along
    mean-zero directions."""

    def directional_check(self, system, grid, phi, seed):
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        v -= np.mean(v)
        s = 1e-5
        fd = (
            step_functional(system, phi + s * v) - step_functional(system, phi - s * v)
        ) / (2.0 * s)
        pairing = -inner(grid, system.residual(phi), v)
        assert pairing == pytest.approx(fd, rel=2e-5, abs=1e-8)

    def test_first_order(self, setup):
        grid, _, fo, _ = setup
        dt = 0.1
        phi_old = positive_field(grid, 20)
        phi = positive_field(grid, 21)
        forcing = mean_zero_forcing(grid, 22)
        system = fo.step_system_from(phi_old, dt, forcing)
        self.directional_check(system, grid, phi, 23)

    def test_bdf2(self, setup):
        grid, _, _, bdf2 = setup
        dt = 0.05
        phi_older = positive_field(grid, 24)
        phi_old = positive_field(grid, 25)
        phi = positive_field(grid, 26)
        system = bdf2.step_system_from(phi_old, phi_older, dt)
        self.directional_check(system, grid, phi, 27)


class TestDirectionalFactory:
    @staticmethod
    def make_system(setup, which, phi_old, dt, shift=None):
        """The step system; a given shift replaces the one its first
        residual would choose, so a fresh system can share another's Lc."""
        _, _, fo, bdf2 = setup
        if which == "fo":
            scheme, system = fo, fo.step_system_from(phi_old, dt)
        else:
            scheme, system = bdf2, bdf2.step_system_from(phi_old, phi_old, dt)
        system.shift = shift
        return scheme, system

    @staticmethod
    def gradient(system, phi):
        """Residual, its deflation rp, and the preconditioned gradient p."""
        r = system.residual(phi)
        rp = r - np.mean(r)
        rp -= np.mean(rp)
        return r, rp, system.precondition(rp)[0]

    @staticmethod
    def dense_image(grid, system, d):
        """Lc d through the dense preconditioner matrix, no FFT involved."""
        a0, a1, a2 = system.coefficients
        mat = dense_preconditioner_matrix(grid, a0, a1 + system.shift, a2)
        return (mat @ d.ravel()).reshape(grid.shape)

    @staticmethod
    def assert_matches_naive(grid, system, phi, d, g, residual_at, alphas):
        for alpha in alphas:
            r_trial = system.residual(phi + alpha * d)
            naive_g = -inner(grid, r_trial, d)
            scale = max(1.0, abs(naive_g))
            assert abs(g(alpha)[0] - naive_g) <= 1e-10 * scale
            assert norm_inf(residual_at(alpha) - r_trial) <= 1e-10 * max(
                1.0, norm_inf(r_trial)
            )

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_matches_naive_evaluations(self, setup, which):
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 30)
        phi = positive_field(grid, 31)
        _, system = self.make_system(setup, which, phi_old, dt)
        r, rp, d = self.gradient(system, phi)
        g, residual_at = system.directional(phi, (d, rp), r)  # L p = rp
        self.assert_matches_naive(
            grid, system, phi, d, g, residual_at, (0.0, 0.01, 0.2)
        )

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_rejects_a_residual_it_did_not_hand_out(self, setup, which):
        """The line closures take the affine part of the last residual the
        system handed out; a copy of it, or an earlier one, is refused."""
        grid = setup[0]
        phi_old = positive_field(grid, 40)
        phi = positive_field(grid, 41)
        _, system = self.make_system(setup, which, phi_old, 0.08)
        r, rp, d = self.gradient(system, phi)
        with pytest.raises(ValueError):
            system.directional(phi, (d, rp), r.copy())
        system.residual(positive_field(grid, 42))
        with pytest.raises(ValueError):
            system.directional(phi, (d, rp), r)

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_cg_direction_with_carried_image(self, setup, which):
        """K d = (1 + shift) d - Lc d from the carried image Lc d, with the
        shift far from zero."""
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 38)
        _, system = self.make_system(setup, which, phi_old, dt)
        phi0 = positive_field(grid, 39, 0.4, 1.4)
        r0, rp0, p0 = self.gradient(system, phi0)
        assert abs(system.shift) > 1.0
        g0, _ = system.directional(phi0, (p0, rp0), r0)
        alpha0 = line_search(g0, barrier_alpha(phi0, p0), g0(0.0))
        phi1 = phi0 + alpha0 * p0
        r1, rp1, p1 = self.gradient(system, phi1)
        beta = inner(grid, p1, rp1 - rp0) / inner(grid, p0, rp0)
        assert beta > 0.0
        d = p1 + beta * p0
        image = rp1 + beta * rp0  # L d carried without a transform
        g, residual_at = system.directional(phi1, (d, image), r1)
        self.assert_matches_naive(
            grid, system, phi1, d, g, residual_at, (0.0, 0.3 * alpha0, alpha0)
        )

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_arbitrary_direction_with_independent_image(self, setup, which):
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 32)
        phi = positive_field(grid, 33)
        _, system = self.make_system(setup, which, phi_old, dt)
        r = system.residual(phi)
        d = np.random.default_rng(34).standard_normal(grid.shape)
        d -= np.mean(d)
        d *= 0.01
        # d never went through precondition; its image comes from the dense L
        image = self.dense_image(grid, system, d)
        g, residual_at = system.directional(phi, (d, image), r)
        self.assert_matches_naive(grid, system, phi, d, g, residual_at, (0.1,))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_slope_matches_centred_difference(self, which, dim):
        grid = Grid(dim, 8, 1.0)
        params = PhysParams(eps=0.5)
        scheme = FirstOrderScheme(grid, params) if which == "fo" else Bdf2Scheme(grid, params)
        dt = 0.08
        phi_old = positive_field(grid, 70 + dim)
        system = (
            scheme.step_system_from(phi_old, dt)
            if which == "fo"
            else scheme.step_system_from(phi_old, phi_old, dt)
        )
        phi = positive_field(grid, 72 + dim)
        r = system.residual(phi)
        d = np.random.default_rng(74 + dim).standard_normal(grid.shape)
        d -= np.mean(d)
        d *= 0.05
        g, _ = system.directional(phi, (d, self.dense_image(grid, system, d)), r)

        def naive_g(alpha):
            return -inner(grid, system.residual(phi + alpha * d), d)

        h = 1e-5
        for alpha in (0.0, 0.5, 1.0):
            slope = g(alpha)[1]
            fd = (naive_g(alpha + h) - naive_g(alpha - h)) / (2.0 * h)
            assert slope > 0.0
            assert slope == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_seeded_slope_equals_fresh_evaluation(self, setup, which):
        """After residual_at carries the residual to phi1, the next direction's
        g(0) slope comes from the carried curvature; a step system that never
        saw phi1 computes it from a fresh pass."""
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 80)
        _, system = self.make_system(setup, which, phi_old, dt)
        phi0 = positive_field(grid, 81)
        r0, rp0, p0 = self.gradient(system, phi0)
        g0, residual_at = system.directional(phi0, (p0, rp0), r0)
        alpha0 = line_search(g0, barrier_alpha(phi0, p0), g0(0.0))
        phi1 = phi0 + alpha0 * p0
        r1 = residual_at(alpha0)
        d = np.random.default_rng(82).standard_normal(grid.shape)
        d -= np.mean(d)
        image = self.dense_image(grid, system, d)
        seeded = system.directional(phi1, (d, image), r1)[0](0.0)[1]

        _, fresh_system = self.make_system(setup, which, phi_old, dt, system.shift)
        r_fresh = fresh_system.residual(phi1)
        fresh = fresh_system.directional(phi1, (d, image), r_fresh)[0](0.0)[1]
        assert seeded == pytest.approx(fresh, rel=1e-12)

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_g0_after_a_trial_matches_fresh_evaluation(self, setup, which):
        """g(0) skips its pass only while the pass at phi is held; after a
        trial has overwritten it, g(0) evaluates phi afresh."""
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 84)
        phi = positive_field(grid, 85)
        _, system = self.make_system(setup, which, phi_old, dt)
        r, rp, d = self.gradient(system, phi)
        g, _ = system.directional(phi, (d, rp), r)
        held = g(0.0)
        g(0.3 * barrier_alpha(phi, d))
        again = g(0.0)

        _, other = self.make_system(setup, which, phi_old, dt)
        r_other = other.residual(phi)
        fresh = other.directional(phi, (d, rp), r_other)[0](0.0)
        for got in (held, again):
            assert got[0] == pytest.approx(fresh[0], rel=1e-12)
            assert got[1] == pytest.approx(fresh[1], rel=1e-12)
        assert held[0] == pytest.approx(-inner(grid, r, d), rel=1e-10)

    @pytest.mark.parametrize("between", ["nothing", "other trial", "residual"])
    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_residual_at_reuses_only_the_last_trial(self, setup, which, between):
        """residual_at(alpha) right after g(alpha) takes that trial's pass,
        and gives the same bits as a fresh system that evaluates phi + alpha d;
        after any other pass it evaluates afresh, to the same bits."""
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 87)
        phi = positive_field(grid, 88)
        _, system = self.make_system(setup, which, phi_old, dt)
        r, rp, d = self.gradient(system, phi)
        alpha = 0.4 * barrier_alpha(phi, d)
        g, residual_at = system.directional(phi, (d, rp), r)
        g(alpha)
        if between == "other trial":
            g(0.5 * alpha)
        elif between == "residual":
            system.residual(positive_field(grid, 89))
        got = residual_at(alpha)

        _, fresh_system = self.make_system(setup, which, phi_old, dt)
        r_fresh = fresh_system.residual(phi)
        fresh = fresh_system.directional(phi, (d, rp), r_fresh)[1](alpha)
        assert np.array_equal(got, fresh)

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_pass_never_reused_along_another_direction(self, setup, which):
        """After a trial at alpha along d, a new direction at the same alpha
        must not take that pass, even when it is the same array changed in
        place (as the CG update does)."""
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 90)
        phi = positive_field(grid, 91)
        _, system = self.make_system(setup, which, phi_old, dt)
        r, rp, d = self.gradient(system, phi)
        alpha = 0.3 * barrier_alpha(phi, d)
        g, _ = system.directional(phi, (d, rp), r)
        g(alpha)
        d *= 0.5
        image = 0.5 * rp
        _, residual_at = system.directional(phi, (d, image), r)
        got = residual_at(alpha)
        naive = system.residual(phi + alpha * d)
        assert norm_inf(got - naive) <= 1e-10 * max(1.0, norm_inf(naive))

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_line_trial_guards_positivity(self, setup, which):
        grid = setup[0]
        phi_old = positive_field(grid, 35)
        _, system = self.make_system(setup, which, phi_old, 0.1)
        phi = positive_field(grid, 36)
        r = system.residual(phi)
        d = -np.ones(grid.shape) + mean_zero_forcing(grid, 37) * 1e-3
        d -= np.mean(d) + 1.0  # strongly negative direction
        g, _ = system.directional(phi, (d, self.dense_image(grid, system, d)), r)
        with pytest.raises(NonPositiveFieldError):
            g(1e6)


class TestPreconditionerCoefficients:
    def test_first_order_values(self, setup):
        grid, params, fo, _ = setup
        a0, a1, a2 = fo.step_system_from(np.ones(grid.shape), 0.25).coefficients
        assert a0 == pytest.approx(4.0, rel=1e-15)
        assert a1 == 1.0
        assert a2 == pytest.approx(params.eps**2, rel=1e-15)

    def test_bdf2_values(self, setup):
        grid, params, _, bdf2 = setup
        dt = 0.25
        ones = np.ones(grid.shape)
        a0, a1, a2 = bdf2.step_system_from(ones, ones, dt).coefficients
        assert a0 == pytest.approx(6.0, rel=1e-15)
        assert a1 == pytest.approx((8.0 / 3.0) * params.a0 + 1.0, rel=1e-15)
        assert a2 == pytest.approx(params.eps**2 + params.a_stab * dt, rel=1e-15)

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_identity_coefficient_is_the_median_hessian_diagonal(self, setup, which):
        """a1 + shift is the (upper) median of the Hessian diagonal at the
        first residual's point, kept for the step; the report carries it."""
        grid, params, fo, bdf2 = setup
        dt = 0.05
        phi = positive_field(grid, 96, 0.5, 2.5)
        if which == "fo":
            scheme, system = fo, fo.step_system_from(phi, dt)
            diagonal = 24.0 * phi**-10
        else:
            scheme, system = bdf2, bdf2.step_system_from(phi, phi, dt)
            diagonal = potential_curvature(phi, params.a0)
        assert system.shift is None
        with pytest.raises(ValueError, match="first residual"):
            system.precondition(np.zeros(grid.shape))
        system.residual(phi)
        median = np.sort(diagonal.ravel())[grid.num_cells // 2]
        a1 = system.coefficients[1]
        assert a1 + system.shift == pytest.approx(median, rel=1e-12)
        system.residual(2.0 * phi)
        assert a1 + system.shift == pytest.approx(median, rel=1e-12)
        state = initial_state(grid, phi) if which == "fo" else restart_state(grid, phi)
        _, report = scheme.step(state, dt)
        assert report.precond_a1 == pytest.approx(median, rel=1e-12)

    def test_nonpositive_dt_rejected(self, setup):
        grid, _, fo, bdf2 = setup
        ones = np.ones(grid.shape)
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(InvalidCoefficientsError, match="dt"):
                fo.step_system_from(ones, bad)
            with pytest.raises(InvalidCoefficientsError, match="dt"):
                bdf2.step_system_from(ones, ones, bad)

    def test_bdf2_rejects_weak_stabilization(self):
        grid = Grid(2, 8, 1.0)
        with pytest.raises(InvalidCoefficientsError):
            Bdf2Scheme(grid, PhysParams(eps=0.1, a0=0.3))
        with pytest.raises(InvalidCoefficientsError):
            Bdf2Scheme(grid, PhysParams(eps=0.1, a0=0.6, a_stab=0.1))
        # the sharp constants themselves are admissible
        Bdf2Scheme(grid, PhysParams(eps=0.1))
        Bdf2Scheme(grid, PhysParams(eps=0.1, a0=a0_star()))

    @pytest.mark.parametrize("kind", [FirstOrderScheme, Bdf2Scheme])
    def test_solver_for_another_grid_rejected(self, kind):
        """A solver built for another box would invert a Laplacian 4x off
        (L = 2 against 1) and still converge: refused on construction."""
        grid, params = Grid(2, 16, 1.0), PhysParams(eps=0.1)
        for other in (Grid(2, 16, 2.0), Grid(2, 32, 1.0), Grid(3, 16, 1.0)):
            with pytest.raises(ConfigError, match="solver grid"):
                kind(grid, params, SpectralSolver(other))
        # an equal grid built separately is the same grid
        assert kind(grid, params, SpectralSolver(Grid(2, 16, 1.0))).grid == grid


class TestLinearPart:
    """The residual's linear part K and the preconditioner L obey K = I - L."""

    @staticmethod
    def build(which, dim):
        grid = Grid(dim, 8, 1.0)
        params = PhysParams(eps=0.5)
        dt = 0.08
        if which == "fo":
            scheme = FirstOrderScheme(grid, params)
            linear, stiffness, weight = 0.0, params.eps**2, 1.0
        else:
            scheme = Bdf2Scheme(grid, params)
            linear = (8.0 / 3.0) * params.a0
            stiffness = params.eps**2 + params.a_stab * dt
            weight = 1.5
        d = np.random.default_rng(60 + dim).standard_normal(grid.shape)
        d -= np.mean(d)
        ild = scheme.solver.inv_neg_lap(d)
        kd = stiffness * lap(grid, d) - linear * d - weight * ild / dt
        return grid, scheme, dt, d, ild, kd

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_identity_minus_preconditioner(self, which, dim):
        grid, scheme, dt, d, ild, kd = self.build(which, dim)
        ones = np.ones(grid.shape)
        if which == "fo":
            system = scheme.step_system_from(ones, dt)
        else:
            system = scheme.step_system_from(ones, ones, dt)
        a0, a1, a2 = system.coefficients
        ld = a0 * ild + a1 * d - a2 * lap(grid, d)
        assert norm_inf((d - ld) - kd) <= 1e-13 * norm_inf(kd)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_residual_is_affine_with_that_part(self, which, dim):
        grid, scheme, dt, d, _, kd = self.build(which, dim)
        phi_old = positive_field(grid, 62)
        if which == "fo":
            system = scheme.step_system_from(phi_old, dt)
        else:
            system = scheme.step_system_from(phi_old, phi_old, dt)

        def bulk(phi):
            inv3 = phi**-3.0
            return (8.0 / 3.0) * (inv3**3 - (inv3 if which == "bdf2" else 0.0))

        phi = positive_field(grid, 63)
        step = 0.05 * d / norm_inf(d)
        change = system.residual(phi + step) - system.residual(phi)
        change -= bulk(phi + step) - bulk(phi)
        k_step = 0.05 * kd / norm_inf(d)
        assert norm_inf(change - k_step) <= 1e-12 * norm_inf(k_step)


class TestNearBarrier:
    @staticmethod
    def well_data():
        """64^2 film with a well down to min phi = 0.05."""
        grid = Grid(2, 64, 6.4)
        x, y = grid.coordinates()
        c = 0.5 * grid.length
        well = 1.0 - 0.95 * np.exp(-((x - c) ** 2 + (y - c) ** 2) / 0.4096)
        phi0 = well + 0.01 * np.random.default_rng(0).random(grid.shape)
        phi0 += 0.05 - np.min(phi0)
        return grid, phi0

    def test_bdf2_step_converges_at_default_budget(self):
        """A well with min phi = 0.05: the step's solution exists for any dt,
        and the default SolverConfig reaches it."""
        grid, phi0 = self.well_data()
        scheme = Bdf2Scheme(grid, PhysParams(eps=0.02))
        state = restart_state(grid, phi0)
        new_state, report = scheme.step(state, 1e-3)
        assert report.final_residual <= scheme.psd_config.tol
        assert report.psd_iters < scheme.psd_config.max_iters
        assert report.psd_iters <= 150
        # the carried residual has not drifted: a fresh assembly agrees, in
        # the fixed metric
        system = scheme.step_system_from(phi0, phi0, 1e-3)
        assert fixed_metric_norm(scheme, system, new_state.phi) <= scheme.psd_config.tol
        assert np.all(new_state.phi > 0.0)
        assert np.mean(new_state.phi) == pytest.approx(np.mean(phi0), abs=1e-12)

    def test_failed_solve_reports_its_mean_contraction(self):
        """The first-order solve from the well converges slowly and is not
        monotone: its largest one-step ratio over the last half exceeds 1,
        while the residual contracts on average, and the message says so."""
        grid, phi0 = self.well_data()
        scheme = FirstOrderScheme(
            grid, PhysParams(eps=0.02), psd_config=SolverConfig(max_iters=100)
        )
        with pytest.raises(SolverDivergedError) as excinfo:
            scheme.step(initial_state(grid, phi0), 1e-3)
        err = excinfo.value
        found = re.search(r"mean tail contraction (\S+) per iteration", str(err))
        rate = float(found.group(1))
        rn = err.trace.residual_norms
        start = len(rn) // 2
        assert rate == pytest.approx(
            (rn[-1] / rn[start]) ** (1.0 / (len(rn) - 1 - start)), abs=1e-4
        )
        assert rate < 1.0
        assert tail_contraction(err.trace) > 1.0


class TestFixedMetricStop:
    @pytest.mark.parametrize("which, level", [("fo", 0.5), ("bdf2", 2.0)])
    def test_trace_norm_is_the_fixed_metric_norm(self, which, level):
        """The stop norm is sqrt(<L0^{-1} rp, rp>) whether the preconditioner
        Lc = L0 + shift I lies far above L0 (first order near phi = 0.5) or
        below it (BDF2 near phi = 2)."""
        grid = Grid(2, 10, 1.0)
        params = PhysParams(eps=0.1)
        phi_old = level * positive_field(grid, 95, 0.9, 1.1)
        dt = 0.01
        if which == "fo":
            scheme = FirstOrderScheme(grid, params)
            system = scheme.step_system_from(phi_old, dt)
        else:
            scheme = Bdf2Scheme(grid, params)
            system = scheme.step_system_from(phi_old, phi_old, dt)
        carried = []
        exact = system.directional

        def directional(phi, direction, r_phi):
            g, residual_at = exact(phi, direction, r_phi)

            def recorded(alpha):
                carried.append(residual_at(alpha))
                return carried[-1]

            return g, recorded

        system.directional = directional
        _, trace = psd_solve(grid, system, phi_old, scheme.psd_config)
        assert system.shift > 1e3 if which == "fo" else system.shift < -1.0
        rp = (carried[-1] - np.mean(carried[-1])).ravel()
        a0, a1, a2 = system.coefficients
        fixed = np.linalg.pinv(dense_preconditioner_matrix(grid, a0, a1, a2))
        expected = math.sqrt(grid.cell_volume * rp @ fixed @ rp)
        assert trace.residual_norms[-1] == pytest.approx(expected, rel=1e-8)
        assert trace.residual_norms[-1] <= scheme.psd_config.tol
        # the norm in the metric of Lc would have read otherwise
        shifted = np.linalg.pinv(
            dense_preconditioner_matrix(grid, a0, a1 + system.shift, a2)
        )
        own = math.sqrt(grid.cell_volume * rp @ shifted @ rp)
        assert not own == pytest.approx(expected, rel=0.1)

    def test_first_order_tall_spike_converges(self):
        """A 16^2 film of ones with one cell at 1e4: the first-order step's
        solution exists, and the default SolverConfig reaches it."""
        grid = Grid(2, 16, 1.0)
        phi0 = np.ones(grid.shape)
        phi0[3, 5] = 1e4
        scheme = FirstOrderScheme(grid, PhysParams(eps=0.01))
        new_state, report = scheme.step(initial_state(grid, phi0), 0.01)
        assert report.final_residual <= scheme.psd_config.tol
        system = scheme.step_system_from(phi0, 0.01)
        assert fixed_metric_norm(scheme, system, new_state.phi) <= scheme.psd_config.tol
        assert np.all(new_state.phi > 0.0)
        assert np.mean(new_state.phi) == pytest.approx(np.mean(phi0), rel=1e-12)


class TestStatesAndHistory:
    def test_initial_state_copies_and_records_mean(self):
        grid = Grid(2, 8, 1.0)
        phi0 = positive_field(grid, 40)
        state = initial_state(grid, phi0, t=1.5)
        assert np.array_equal(state.phi_prev, phi0)
        assert state.phi_prev is not state.phi
        assert state.t == 1.5
        assert state.beta0 == pytest.approx(np.mean(phi0), rel=1e-15)
        phi0[0, 0] = 99.0
        assert state.phi[0, 0] != 99.0

    def test_restart_state_duplicates_history(self):
        grid = Grid(2, 8, 1.0)
        phi0 = positive_field(grid, 41)
        state = restart_state(grid, phi0)
        assert np.array_equal(state.phi, state.phi_prev)
        assert state.phi is not state.phi_prev

    def test_initial_data_must_be_positive(self):
        grid = Grid(1, 4, 1.0)
        with pytest.raises(NonPositiveFieldError):
            initial_state(grid, np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(NonPositiveFieldError):
            restart_state(grid, np.zeros(4))

    @pytest.mark.parametrize(
        "call, error",
        [
            pytest.param(
                lambda g, fo, bdf2, phi: bdf2.cold_start(phi, 1e-3,
                                                         forcing=np.ones(g.shape)),
                NonZeroMeanError, id="cold_start-mean-1-source",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: bdf2.cold_start(phi, 1e-3, forcing=np.zeros(g.n)),
                ValueError, id="cold_start-1d-source",
            ),
            *(
                pytest.param(
                    lambda g, fo, bdf2, phi, dt=dt: bdf2.cold_start(phi, dt),
                    InvalidCoefficientsError, id=f"cold_start-dt-{dt}",
                )
                for dt in (0.0, -1e-3, math.nan, math.inf)
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: bdf2.cold_start(phi, 1e-3,
                                                         forcing=holding(g, math.nan)),
                NonZeroMeanError, id="cold_start-nan-source",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: fo.step(initial_state(g, phi), 1e-3,
                                                 holding(g, math.nan)),
                NonZeroMeanError, id="fo-step-nan-source",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: bdf2.step(restart_state(g, phi), 1e-3,
                                                   holding(g, math.nan)),
                NonZeroMeanError, id="bdf2-step-nan-source",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: fo.step(initial_state(g, phi), 1e-3,
                                                 holding(g, math.inf)),
                NonZeroMeanError, id="fo-step-inf-source",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: initial_state(g, holding(g, math.inf, phi)),
                NonPositiveFieldError, id="initial_state-inf-data",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: restart_state(g, holding(g, math.inf, phi)),
                NonPositiveFieldError, id="restart_state-inf-data",
            ),
            pytest.param(
                lambda g, fo, bdf2, phi: bdf2.cold_start(holding(g, math.inf, phi), 1e-3),
                NonPositiveFieldError, id="cold_start-inf-data",
            ),
        ],
    )
    def test_entry_rules_shared_by_every_start_and_step(self, setup, call, error):
        """dt, the start data and the source each have one rule, which
        cold_start, the state constructors and step all apply."""
        grid, _, fo, bdf2 = setup
        with pytest.raises(error):
            call(grid, fo, bdf2, smooth_field(grid))

    @staticmethod
    def ghost(grid, params, phi0, dt, forcing=None):
        """The history cold_start synthesizes one step before the start."""
        return Bdf2Scheme(grid, params).cold_start(phi0, dt, forcing=forcing).phi_prev

    def test_ghost_init_is_explicit_backward_step(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        dt = 1e-4
        expected = phi0 - dt * lap(grid, mu_exact(grid, phi0, params.eps))
        assert np.allclose(self.ghost(grid, params, phi0, dt), expected, atol=1e-14)

    def test_ghost_init_linear_in_dt(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        g1 = self.ghost(grid, params, phi0, 1e-5) - phi0
        g2 = self.ghost(grid, params, phi0, 2e-5) - phi0
        assert norm_inf(g2 - 2.0 * g1) <= 1e-12 * norm_inf(g1)

    def test_ghost_init_applies_mean_adjusted_forcing(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        dt = 1e-4
        # The draw minus its mean: a source with a material mean is refused.
        forcing = mean_zero_forcing(grid, 42)
        expected = phi0 - dt * (
            lap(grid, mu_exact(grid, phi0, params.eps))
            + forcing
            - np.mean(forcing)
        )
        got = self.ghost(grid, params, phi0, dt, forcing)
        assert np.allclose(got, expected, atol=1e-14)

    def test_ghost_init_positivity_guard(self):
        grid = Grid(2, 16, 1.0)
        params = PhysParams(eps=0.1)
        phi0 = positive_field(grid, 43, 0.15, 1.0)  # steep field, huge rate
        with pytest.raises(PositivityLostError):
            self.ghost(grid, params, phi0, 1.0)

    def test_cold_start_packs_ghost_history(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        dt = 1e-4
        state = Bdf2Scheme(grid, params).cold_start(phi0, dt, t=0.25)
        assert np.array_equal(state.phi, phi0)
        assert state.phi is not phi0
        assert (state.t, state.step_index) == (0.25, 0)
        assert state.beta0 == np.mean(phi0)
        assert np.array_equal(state.phi_prev, self.ghost(grid, params, phi0, dt))

    def test_bdf2_steps_from_initial_state(self, setup):
        """Either scheme starts from the one start state: duplicated history."""
        grid, _, _, bdf2 = setup
        phi0 = positive_field(grid, 44)
        new_state, report = bdf2.step(initial_state(grid, phi0), 0.01)
        restarted, _ = bdf2.step(restart_state(grid, phi0), 0.01)
        assert np.array_equal(new_state.phi, restarted.phi)
        assert report.final_residual <= 1e-9
        assert math.isfinite(report.modified_energy)


class TestStepBehavior:
    def test_constant_field_is_fixed_point_first_order(self, setup):
        grid, _, fo, _ = setup
        state = initial_state(grid, np.full(grid.shape, 1.3))
        new_state, report = fo.step(state, 0.5)
        assert report.psd_iters == 0
        assert norm_inf(new_state.phi - 1.3) <= 1e-14

    def test_constant_field_is_fixed_point_bdf2(self, setup):
        grid, _, _, bdf2 = setup
        state = restart_state(grid, np.full(grid.shape, 0.8))
        new_state, report = bdf2.step(state, 0.5)
        assert report.psd_iters == 0
        assert norm_inf(new_state.phi - 0.8) <= 1e-14

    def test_step_bookkeeping(self, setup):
        grid, _, fo, _ = setup
        phi0 = smooth_field(grid)
        state = initial_state(grid, phi0, t=2.0)
        new_state, report = fo.step(state, 0.125)
        assert new_state.t == pytest.approx(2.125, rel=1e-15)
        assert new_state.step_index == 1
        assert new_state.beta0 == state.beta0
        assert np.array_equal(new_state.phi_prev, state.phi)
        assert report.final_residual <= 1e-9
        assert report.psd_iters >= 1
        assert report.energy == pytest.approx(
            discrete_energy(grid, new_state.phi, 0.5), rel=1e-13
        )
        assert report.min_phi == pytest.approx(float(np.min(new_state.phi)), rel=1e-15)
        assert math.isnan(report.modified_energy)

    def test_bdf2_reports_modified_energy(self, setup):
        grid, params, _, bdf2 = setup
        state = restart_state(grid, smooth_field(grid))
        solver = bdf2.solver
        new_state, report = bdf2.step(state, 0.01)
        expected = modified_energy(
            grid, solver, new_state.phi, state.phi, params.a0, 0.01,
            discrete_energy(grid, new_state.phi, params.eps),
        )
        # F(phi_new) is evaluated once per step, to the same bits
        assert report.modified_energy == expected
        assert report.energy == discrete_energy(grid, new_state.phi, params.eps)

    def test_warm_start_does_not_change_solution(self, setup):
        grid, _, fo, _ = setup
        dt = 0.05
        state = initial_state(grid, smooth_field(grid))
        state1, _ = fo.step(state, dt)
        warm, _ = fo.step(state1, dt)  # history present: warm-started
        cold_in = initial_state(grid, state1.phi.copy(), t=state1.t)
        cold, _ = fo.step(cold_in, dt)  # same problem, plain start
        assert norm_inf(warm.phi - cold.phi) <= 1e-7

    def test_large_step_stays_positive_and_dissipates(self, setup):
        grid, params, fo, _ = setup
        state = initial_state(grid, positive_field(grid, 50, 0.4, 2.2))
        energy = discrete_energy(grid, state.phi, params.eps)
        for _ in range(5):
            state, report = fo.step(state, 10.0)  # far beyond any CFL-type limit
            assert report.min_phi > 0.0
            assert report.energy <= energy + 1e-10 * (1.0 + abs(energy))
            energy = report.energy

    def test_first_order_invariants_multi_step(self, setup):
        grid, params, fo, _ = setup
        state = initial_state(grid, smooth_field(grid, amp=0.4))
        energy = discrete_energy(grid, state.phi, params.eps)
        for _ in range(8):
            state, report = fo.step(state, 0.02)
            assert report.mass_drift <= 1e-10 * max(1.0, abs(state.beta0))
            assert report.min_phi > 0.0
            assert report.energy <= energy + 1e-10 * (1.0 + abs(energy))
            energy = report.energy
        assert np.mean(state.phi) == pytest.approx(state.beta0, abs=1e-12)

    def test_bdf2_invariants_multi_step(self, setup):
        grid, params, _, bdf2 = setup
        state = restart_state(grid, smooth_field(grid, amp=0.4))
        mod_prev = None
        for _ in range(8):
            state, report = bdf2.step(state, 0.02)
            assert report.mass_drift <= 1e-10 * max(1.0, abs(state.beta0))
            assert report.min_phi > 0.0
            if mod_prev is not None:
                assert report.modified_energy <= mod_prev + 1e-8 * (
                    1.0 + abs(mod_prev)
                )
            mod_prev = report.modified_energy

    def test_forced_step_conserves_mass(self, setup):
        grid, _, fo, bdf2 = setup
        forcing = mean_zero_forcing(grid, 51)
        state = initial_state(grid, smooth_field(grid))
        state, report = fo.step(state, 0.01, forcing)
        assert report.mass_drift <= 1e-11
        state2 = restart_state(grid, smooth_field(grid))
        state2, report2 = bdf2.step(state2, 0.01, forcing)
        assert report2.mass_drift <= 1e-11

    def test_exhausted_budget_reports_the_failed_solve(self, setup):
        grid, params, _, _ = setup
        short = FirstOrderScheme(grid, params, psd_config=SolverConfig(max_iters=2))
        state = initial_state(grid, positive_field(grid, 52))
        with pytest.raises(SolverDivergedError) as excinfo:
            short.step(state, 0.02)
        err = excinfo.value
        assert err.trace.iterations == 2
        assert err.trace.residual_norms[-1] > 1e-9
        message = str(err)
        assert f"{err.trace.residual_norms[-1]:.3e}" in message
        assert "tail contraction" in message and "min phi" in message

    def test_mass_drift_raises_with_the_solve_payload(self, setup, monkeypatch):
        """A solve whose result moved the mean fails the step; the error
        carries that result and the solve's trace."""
        grid, _, fo, _ = setup
        solve, seen = schemes_module.psd_solve, {}

        def drifting_solve(*args):
            phi, trace = solve(*args)
            seen["phi"], seen["trace"] = phi + 1e-6, trace
            return seen["phi"], trace

        monkeypatch.setattr(schemes_module, "psd_solve", drifting_solve)
        with pytest.raises(SolverDivergedError, match="mass drifted") as excinfo:
            fo.step(restart_state(grid, smooth_field(grid)), 0.01)
        assert excinfo.value.phi is seen["phi"]
        assert excinfo.value.trace is seen["trace"]

    def test_report_counts_line_evaluations(self, setup):
        grid, _, fo, _ = setup
        phi_old = smooth_field(grid, amp=0.4)
        _, trace = psd_solve(grid, fo.step_system_from(phi_old, 0.02), phi_old)
        _, report = fo.step(initial_state(grid, smooth_field(grid, amp=0.4)), 0.02)
        assert report.psd_iters == trace.iterations
        assert report.line_evals == sum(trace.line_evals) >= report.psd_iters
        assert report.restarts == trace.restarts

    @pytest.mark.parametrize("scheme_cls, fixed", [(FirstOrderScheme, 4), (Bdf2Scheme, 5)])
    def test_transforms_per_step(self, monkeypatch, scheme_cls, fixed):
        """An unforced step pays one rfft/irfft pair per CG iteration.

        On top of them come the pairs of the first residual and of the
        accepting iteration's preconditioner solve, and for the two-step
        scheme the one forward transform of the modified energy's H^-1 norm.
        """
        transforms = [0]
        for name in ("rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                transforms[0] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        grid = Grid(2, 32, 3.2)
        scheme = scheme_cls(grid, PhysParams(eps=0.1))
        state = restart_state(grid, positive_field(grid, 60, 0.8, 1.2))
        for _ in range(3):
            before = transforms[0]
            state, report = scheme.step(state, 0.01)
            assert report.psd_iters >= 2
            assert transforms[0] - before == 2 * report.psd_iters + fixed

    @pytest.mark.parametrize("scheme_cls", [FirstOrderScheme, Bdf2Scheme])
    def test_pointwise_passes_per_step(self, monkeypatch, scheme_cls):
        """An unforced step pays one pointwise pass per line evaluation.

        On top of them comes the pass of the first residual.  Every search
        of these steps ends at a trial it evaluated, whose pass the next
        residual reuses; the pass starts with the only np.divide with out=.
        """
        passes = [0]
        original = np.divide

        def counted(*args, **kwargs):
            passes[0] += "out" in kwargs
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "divide", counted)
        grid = Grid(2, 32, 3.2)
        scheme = scheme_cls(grid, PhysParams(eps=0.1))
        state = restart_state(grid, positive_field(grid, 60, 0.8, 1.2))
        for _ in range(3):
            before = passes[0]
            state, report = scheme.step(state, 0.01)
            assert report.line_evals > report.psd_iters >= 2
            assert passes[0] - before == report.line_evals + 1

    @pytest.mark.parametrize("scheme_cls", [FirstOrderScheme, Bdf2Scheme])
    def test_closures_wrapped_after_assembly_see_every_call(
        self, monkeypatch, scheme_cls
    ):
        """psd_solve looks the step system's closures up when it calls them,
        so closures swapped in after step_system_from, as the benchmark's
        tracer does, see every call.  A step makes one residual call, one
        directional call per CG iteration, one preconditioner solve per
        iteration plus the accepting one, and one g call per line
        evaluation plus the g(0) of each search."""
        calls = Counter()
        assemble = scheme_cls.step_system_from

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def directional(fn):
            def made(*args):
                g, residual_at = fn(*args)
                return counted("g", g), counted("residual_at", residual_at)

            return made

        def assembled(self, *args, **kwargs):
            system = assemble(self, *args, **kwargs)
            system.residual = counted("residual", system.residual)
            system.precondition = counted("precondition", system.precondition)
            system.directional = counted("directional", directional(system.directional))
            return system

        monkeypatch.setattr(scheme_cls, "step_system_from", assembled)
        grid = Grid(2, 32, 3.2)
        scheme = scheme_cls(grid, PhysParams(eps=0.1))
        state = restart_state(grid, positive_field(grid, 60, 0.8, 1.2))
        for _ in range(3):
            calls.clear()
            state, report = scheme.step(state, 0.01)
            iters = report.psd_iters
            assert iters >= 2
            assert calls == {
                "residual": 1,
                "directional": iters,
                "precondition": iters + 1,
                "g": report.line_evals + iters,
                "residual_at": iters,
            }

    def test_capped_searches_are_counted(self, monkeypatch):
        """A BDF2 step system at dt = 10 solved from a start with a spike of
        1000 in one cell: the first search's root lies past the cap at 1% of
        the spike.  The trace counts the searches that a rule on the barrier
        (alpha >= barrier (1 - 1e-9)) calls capped."""
        by_rule = [0]
        search = psd_module.line_search

        def ruled(g, barrier, *args, **kwargs):
            alpha = search(g, barrier, *args, **kwargs)
            by_rule[0] += math.isfinite(barrier) and alpha >= barrier * (1.0 - 1e-9)
            return alpha

        monkeypatch.setattr(psd_module, "line_search", ruled)
        grid = Grid(2, 32, 1.0)
        scheme = Bdf2Scheme(grid, PhysParams(eps=0.1))
        phi_old = np.random.default_rng(1).uniform(1.8, 2.2, grid.shape)
        system = scheme.step_system_from(phi_old, phi_old, 10.0)
        start = phi_old.copy()
        start[16, 16] += 1000.0
        start -= 1000.0 / grid.num_cells
        phi, trace = psd_solve(grid, system, start)
        assert trace.residual_norms[-1] <= 1e-9
        assert trace.capped == by_rule[0] >= 1

    def test_custom_solver_config_respected(self, setup):
        grid, params, _, _ = setup
        loose = FirstOrderScheme(
            grid, params, psd_config=SolverConfig(tol=1e-4)
        )
        state = initial_state(grid, smooth_field(grid, amp=0.4))
        _, report = loose.step(state, 0.02)
        assert report.final_residual <= 1e-4
        tight = FirstOrderScheme(grid, params, psd_config=SolverConfig(tol=1e-11))
        _, report_tight = tight.step(state, 0.02)
        assert report_tight.final_residual <= 1e-11
        assert report_tight.psd_iters >= report.psd_iters

    def test_one_step_consistency_first_order(self, setup):
        # A single implicit step deviates from explicit Euler by O(dt^2):
        # halving dt must cut the deviation by roughly four.
        grid, params, fo, _ = setup
        phi0 = smooth_field(grid, amp=0.05)
        rate = lap(grid, mu_exact(grid, phi0, params.eps))

        def deviation(dt):
            state, _ = fo.step(initial_state(grid, phi0), dt)
            return norm_inf(state.phi - (phi0 + dt * rate))

        e_coarse = deviation(2.5e-5)
        e_fine = deviation(1.25e-5)
        assert e_coarse <= 1e-3
        assert 0.2 <= e_fine / e_coarse <= 0.4

    def test_one_step_consistency_bdf2_cold_start(self, setup):
        grid, params, _, bdf2 = setup
        phi0 = smooth_field(grid, amp=0.05)
        rate = lap(grid, mu_exact(grid, phi0, params.eps))

        def deviation(dt):
            state, _ = bdf2.step(bdf2.cold_start(phi0, dt), dt)
            return norm_inf(state.phi - (phi0 + dt * rate))

        e_coarse = deviation(2.5e-5)
        e_fine = deviation(1.25e-5)
        assert e_coarse <= 1e-3
        assert 0.2 <= e_fine / e_coarse <= 0.4
