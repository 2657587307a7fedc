"""Implicit steppers: residual algebra, step invariants, and history logic.

The residual oracles rebuild every term from scratch with a dense
pseudoinverse for the nonlocal part; gradient identities are checked by
central differences of the step functionals; the conservation, positivity,
and dissipation guarantees are asserted over multi-step runs.
"""

import math
import re

import numpy as np
import pytest

from thinfilm import (
    Bdf2Scheme,
    FirstOrderScheme,
    Grid,
    InvalidCoefficientsError,
    MissingHistoryError,
    NonPositiveFieldError,
    NonZeroMeanError,
    PhysParams,
    PositivityLostError,
    SolverConfig,
    SolverDivergedError,
    SpectralSolver,
    a0_star,
    barrier_alpha,
    dense_preconditioner_matrix,
    discrete_energy,
    ghost_init,
    initial_state,
    inner,
    lap,
    line_search,
    mean,
    modified_energy,
    mu_exact,
    norm_inf,
    psd_solve,
    restart_state,
)


def pinv_neg_lap(grid):
    size = grid.num_cells
    mat = np.zeros((size, size))
    basis = np.zeros(grid.shape)
    for col in range(size):
        basis.flat[col] = 1.0
        mat[:, col] = -lap(grid, basis).ravel()
        basis.flat[col] = 0.0
    return np.linalg.pinv(mat)


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


def mean_zero_forcing(grid, seed):
    s = np.random.default_rng(seed).standard_normal(grid.shape)
    return s - np.mean(s)


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
        pinv = pinv_neg_lap(grid)
        expected = (
            (8.0 / 3.0) * phi**-9
            - (8.0 / 3.0) * phi_old**-3
            + params.eps**2 * lap(grid, phi)
            - apply_pinv(grid, pinv, phi - phi_old) / dt
            + apply_pinv(grid, pinv, forcing)
        )
        got = fo.residual(phi, phi_old, dt, forcing)
        assert norm_inf(got - expected) <= 1e-11 * max(1.0, norm_inf(got))

    def test_bdf2_term_by_term(self, setup):
        grid, params, _, bdf2 = setup
        dt = 0.05
        phi_older = positive_field(grid, 4)
        phi_old = positive_field(grid, 5)
        phi = positive_field(grid, 6)
        forcing = mean_zero_forcing(grid, 7)
        pinv = pinv_neg_lap(grid)
        phi_hat = 2.0 * phi_old - phi_older
        expected = (
            (8.0 / 3.0) * (phi**-9 - phi**-3)
            - (8.0 / 3.0) * params.a0 * (phi - phi_hat)
            + (params.eps**2 + params.a_stab * dt) * lap(grid, phi)
            - params.a_stab * dt * lap(grid, phi_old)
            - apply_pinv(grid, pinv, 1.5 * phi - 2.0 * phi_old + 0.5 * phi_older) / dt
            + apply_pinv(grid, pinv, forcing)
        )
        got = bdf2.residual(phi, phi_old, phi_older, dt, forcing)
        assert norm_inf(got - expected) <= 1e-11 * max(1.0, norm_inf(got))

    def test_forcing_enters_as_additive_lift(self, setup):
        grid, params, fo, bdf2 = setup
        solver = SpectralSolver(grid)
        dt = 0.1
        phi_old = positive_field(grid, 8)
        phi = positive_field(grid, 9)
        forcing = mean_zero_forcing(grid, 10)
        lift = solver.inv_neg_lap(forcing)
        diff_fo = fo.residual(phi, phi_old, dt, forcing) - fo.residual(
            phi, phi_old, dt
        )
        assert norm_inf(diff_fo - lift) <= 1e-13 * max(1.0, norm_inf(lift))
        diff_b = bdf2.residual(phi, phi_old, phi_old, dt, forcing) - bdf2.residual(
            phi, phi_old, phi_old, dt
        )
        assert norm_inf(diff_b - lift) <= 1e-13 * max(1.0, norm_inf(lift))

    def test_forcing_must_be_mean_zero(self, setup):
        grid, _, fo, _ = setup
        phi = positive_field(grid, 11)
        with pytest.raises(NonZeroMeanError):
            fo.residual(phi, phi, 0.1, np.ones(grid.shape))

    def test_residual_rejects_nonpositive_iterate(self, setup):
        grid, _, fo, bdf2 = setup
        phi_old = positive_field(grid, 12)
        bad = phi_old.copy()
        bad.flat[3] = -0.1
        with pytest.raises(NonPositiveFieldError):
            fo.residual(bad, phi_old, 0.1)
        with pytest.raises(NonPositiveFieldError):
            bdf2.residual(bad, phi_old, phi_old, 0.1)


class TestGradientIdentity:
    """The residual is the negative gradient of the step functional along
    mean-zero directions."""

    def directional_check(self, value_fn, residual_fn, grid, phi, seed):
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        v -= np.mean(v)
        s = 1e-5
        fd = (value_fn(phi + s * v) - value_fn(phi - s * v)) / (2.0 * s)
        pairing = -inner(grid, residual_fn(phi), v)
        assert pairing == pytest.approx(fd, rel=2e-5, abs=1e-8)

    def test_first_order(self, setup):
        grid, _, fo, _ = setup
        dt = 0.1
        phi_old = positive_field(grid, 20)
        phi = positive_field(grid, 21)
        forcing = mean_zero_forcing(grid, 22)
        system = fo.step_system_from(phi_old, dt, forcing)
        self.directional_check(system.functional, system.residual, grid, phi, 23)

    def test_bdf2(self, setup):
        grid, _, _, bdf2 = setup
        dt = 0.05
        phi_older = positive_field(grid, 24)
        phi_old = positive_field(grid, 25)
        phi = positive_field(grid, 26)
        system = bdf2.step_system_from(phi_old, phi_older, dt)
        self.directional_check(system.functional, system.residual, grid, phi, 27)


class TestDirectionalFactory:
    @staticmethod
    def make_system(setup, which, phi_old, dt):
        _, _, fo, bdf2 = setup
        if which == "fo":
            return fo, fo.step_system_from(phi_old, dt)
        return bdf2, bdf2.step_system_from(phi_old, phi_old, dt)

    @staticmethod
    def gradient(system, phi):
        """Residual, its deflation rp, and the preconditioned gradient p."""
        r = system.residual(phi)
        rp = r - np.mean(r)
        rp -= np.mean(rp)
        return r, rp, system.precondition(rp)

    @staticmethod
    def dense_image(grid, scheme, dt, d):
        """L d through the dense preconditioner matrix, no FFT involved."""
        mat = dense_preconditioner_matrix(grid, *scheme.preconditioner_coefficients(dt))
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
        # r as assembled, and a copy that the system has not seen, whose
        # affine part the line closures must derive from r itself
        for r_in in (r, r.copy()):
            g, residual_at = system.directional(phi, (d, rp), r_in)  # L p = rp
            self.assert_matches_naive(
                grid, system, phi, d, g, residual_at, (0.0, 0.01, 0.2)
            )

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_cg_direction_with_carried_image(self, setup, which):
        grid = setup[0]
        dt = 0.08
        phi_old = positive_field(grid, 38)
        _, system = self.make_system(setup, which, phi_old, dt)
        phi0 = positive_field(grid, 39)
        r0, rp0, p0 = self.gradient(system, phi0)
        g0, _ = system.directional(phi0, (p0, rp0), r0)
        alpha0 = line_search(g0, barrier_alpha(phi0, p0))
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
        scheme, system = self.make_system(setup, which, phi_old, dt)
        r = system.residual(phi)
        d = np.random.default_rng(34).standard_normal(grid.shape)
        d -= np.mean(d)
        d *= 0.01
        # d never went through precondition; its image comes from the dense L
        image = self.dense_image(grid, scheme, dt, d)
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
        g, _ = system.directional(phi, (d, self.dense_image(grid, scheme, dt, d)), r)

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
        scheme, system = self.make_system(setup, which, phi_old, dt)
        phi0 = positive_field(grid, 81)
        r0, rp0, p0 = self.gradient(system, phi0)
        g0, residual_at = system.directional(phi0, (p0, rp0), r0)
        alpha0 = line_search(g0, barrier_alpha(phi0, p0))
        phi1 = phi0 + alpha0 * p0
        r1 = residual_at(alpha0)
        d = np.random.default_rng(82).standard_normal(grid.shape)
        d -= np.mean(d)
        image = self.dense_image(grid, scheme, dt, d)
        seeded = system.directional(phi1, (d, image), r1)[0](0.0)[1]

        _, fresh_system = self.make_system(setup, which, phi_old, dt)
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
        other.residual(positive_field(grid, 86))  # the pass at phi is gone
        fresh = other.directional(phi, (d, rp), r_other)[0](0.0)
        for got in (held, again):
            assert got[0] == pytest.approx(fresh[0], rel=1e-12)
            assert got[1] == pytest.approx(fresh[1], rel=1e-12)
        assert held[0] == pytest.approx(-inner(grid, r, d), rel=1e-10)

    @pytest.mark.parametrize("which", ["fo", "bdf2"])
    def test_line_trial_guards_positivity(self, setup, which):
        grid = setup[0]
        phi_old = positive_field(grid, 35)
        scheme, system = self.make_system(setup, which, phi_old, 0.1)
        phi = positive_field(grid, 36)
        r = system.residual(phi)
        d = -np.ones(grid.shape) + mean_zero_forcing(grid, 37) * 1e-3
        d -= np.mean(d) + 1.0  # strongly negative direction
        g, _ = system.directional(phi, (d, self.dense_image(grid, scheme, 0.1, d)), r)
        with pytest.raises(NonPositiveFieldError):
            g(1e6)


class TestPreconditionerCoefficients:
    def test_first_order_values(self, setup):
        _, params, fo, _ = setup
        a0, a1, a2 = fo.preconditioner_coefficients(0.25)
        assert a0 == pytest.approx(4.0, rel=1e-15)
        assert a1 == 1.0
        assert a2 == pytest.approx(params.eps**2, rel=1e-15)

    def test_bdf2_values(self, setup):
        _, params, _, bdf2 = setup
        dt = 0.25
        a0, a1, a2 = bdf2.preconditioner_coefficients(dt)
        assert a0 == pytest.approx(6.0, rel=1e-15)
        assert a1 == pytest.approx((8.0 / 3.0) * params.a0 + 1.0, rel=1e-15)
        assert a2 == pytest.approx(params.eps**2 + params.a_stab * dt, rel=1e-15)

    def test_nonpositive_dt_rejected(self, setup):
        _, _, fo, bdf2 = setup
        for bad in (0.0, -0.1):
            with pytest.raises(InvalidCoefficientsError):
                fo.preconditioner_coefficients(bad)
            with pytest.raises(InvalidCoefficientsError):
                bdf2.preconditioner_coefficients(bad)
            with pytest.raises(InvalidCoefficientsError):
                fo.step_system_from(np.ones((8, 8)), bad)

    def test_bdf2_rejects_weak_stabilization(self):
        grid = Grid(2, 8, 1.0)
        with pytest.raises(InvalidCoefficientsError):
            Bdf2Scheme(grid, PhysParams(eps=0.1, a0=0.3))
        with pytest.raises(InvalidCoefficientsError):
            Bdf2Scheme(grid, PhysParams(eps=0.1, a0=0.6, a_stab=0.1))
        # the sharp constants themselves are admissible
        Bdf2Scheme(grid, PhysParams(eps=0.1))
        Bdf2Scheme(grid, PhysParams(eps=0.1, a0=a0_star()))


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
        a0, a1, a2 = scheme.preconditioner_coefficients(dt)
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
        # the carried residual has not drifted: a fresh assembly agrees
        system = scheme.step_system_from(phi0, phi0, 1e-3)
        r = system.residual(new_state.phi)
        rp = r - np.mean(r)
        rp -= np.mean(rp)
        p = system.precondition(rp)
        assert math.sqrt(inner(grid, p, rp)) <= scheme.psd_config.tol
        assert np.all(new_state.phi > 0.0)
        assert mean(grid, new_state.phi) == pytest.approx(mean(grid, phi0), abs=1e-12)

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
        assert err.trace.tail_contraction() > 1.0


class TestStatesAndHistory:
    def test_initial_state_copies_and_records_mean(self):
        grid = Grid(2, 8, 1.0)
        phi0 = positive_field(grid, 40)
        state = initial_state(grid, phi0, t=1.5)
        assert state.phi_prev is None
        assert state.t == 1.5
        assert state.beta0 == pytest.approx(mean(grid, phi0), rel=1e-15)
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

    def test_ghost_init_is_explicit_backward_step(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        dt = 1e-4
        expected = phi0 - dt * lap(grid, mu_exact(grid, phi0, params.eps))
        assert np.allclose(ghost_init(grid, phi0, params, dt), expected, atol=1e-14)

    def test_ghost_init_linear_in_dt(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        g1 = ghost_init(grid, phi0, params, 1e-5) - phi0
        g2 = ghost_init(grid, phi0, params, 2e-5) - phi0
        assert norm_inf(g2 - 2.0 * g1) <= 1e-12 * norm_inf(g1)

    def test_ghost_init_applies_mean_adjusted_forcing(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        phi0 = smooth_field(grid)
        dt = 1e-4
        forcing = np.random.default_rng(42).standard_normal(grid.shape)
        expected = phi0 - dt * (
            lap(grid, mu_exact(grid, phi0, params.eps))
            + forcing
            - mean(grid, forcing)
        )
        got = ghost_init(grid, phi0, params, dt, forcing)
        assert np.allclose(got, expected, atol=1e-14)

    def test_ghost_init_positivity_guard(self):
        grid = Grid(2, 16, 1.0)
        params = PhysParams(eps=0.1)
        phi0 = positive_field(grid, 43, 0.15, 1.0)  # steep field, huge rate
        with pytest.raises(PositivityLostError):
            ghost_init(grid, phi0, params, 1.0)

    def test_cold_start_packs_ghost_history(self):
        grid = Grid(2, 8, 1.0)
        params = PhysParams(eps=0.5)
        bdf2 = Bdf2Scheme(grid, params)
        phi0 = smooth_field(grid)
        dt = 1e-4
        state = bdf2.cold_start(phi0, dt)
        assert np.array_equal(state.phi, phi0)
        assert np.allclose(
            state.phi_prev, ghost_init(grid, phi0, params, dt), atol=1e-15
        )

    def test_bdf2_requires_history(self, setup):
        grid, _, _, bdf2 = setup
        state = initial_state(grid, positive_field(grid, 44))
        with pytest.raises(MissingHistoryError):
            bdf2.step(state, 0.01)


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
        assert report.modified_energy is None

    def test_bdf2_reports_modified_energy(self, setup):
        grid, params, _, bdf2 = setup
        state = restart_state(grid, smooth_field(grid))
        solver = bdf2.solver
        new_state, report = bdf2.step(state, 0.01)
        expected = modified_energy(
            grid, solver, new_state.phi, state.phi, params.eps, params.a0, 0.01
        )
        assert report.modified_energy == pytest.approx(expected, rel=1e-12)

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
        assert mean(grid, state.phi) == pytest.approx(state.beta0, abs=1e-12)

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

    def test_report_counts_line_evaluations(self, setup):
        grid, _, fo, _ = setup
        system = fo.step_system_from(smooth_field(grid, amp=0.4), 0.02)
        _, trace = psd_solve(
            grid, system.residual, system.precondition, system.phi_init,
            directional=system.directional,
        )
        _, report = fo.step(initial_state(grid, smooth_field(grid, amp=0.4)), 0.02)
        assert report.psd_iters == trace.iterations
        assert report.line_evals == sum(trace.line_evals) >= report.psd_iters
        assert report.restarts == trace.restarts

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
