"""Descent driver and line search on synthetic problems with known answers.

The scalar searches get closed-form roots and an independent bisection
oracle; the full solver gets a quadratic problem it must finish in one
iteration and a strictly convex barrier problem with verifiable
stationarity, positivity, and monotonicity.
"""

import math

import numpy as np
import pytest

from thinfilm import (
    BarrierCollapseError,
    Grid,
    MaxItersExceededError,
    NonPositiveFieldError,
    SolverConfig,
    SpectralSolver,
    barrier_alpha,
    inner,
    line_search,
    norm_inf,
    psd_solve,
)


def bisect_root(g, lo, hi, iters=200):
    """Plain bisection oracle: root of increasing g in [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-9
        assert cfg.max_iters == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1.0},
            {"max_iters": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestBarrierAlpha:
    def test_hand_example(self):
        phi = np.array([1.0, 1.0])
        d = np.array([-2.0, 1.0])
        assert barrier_alpha(phi, d, 0.99) == pytest.approx(0.495, rel=1e-15)
        assert barrier_alpha(phi, d, 0.5) == pytest.approx(0.25, rel=1e-15)

    def test_infinite_when_nothing_decreases(self):
        assert barrier_alpha(np.array([1.0, 2.0]), np.array([0.0, 3.0])) == math.inf

    def test_binding_entry_wins(self):
        phi = np.array([4.0, 1.0, 9.0])
        d = np.array([-1.0, -0.5, -9.0])
        # distances to zero: 4, 2, 1 -> min is 1
        assert barrier_alpha(phi, d, 1.0) == pytest.approx(1.0, rel=1e-15)


def both_paths(f, df):
    """g -> (f, f') through the Newton path, and g -> (f, nan) through the
    false-position path a residual function without a slope gets."""
    return (lambda a: (f(a), df(a)), lambda a: (f(a), math.nan))


class TestLineSearch:
    def test_linear_root(self):
        for g in both_paths(lambda a: a - 1.0, lambda a: 1.0):
            assert line_search(g, math.inf) == pytest.approx(1.0, abs=1e-9)

    def test_cubic_root(self):
        for g in both_paths(lambda a: a**3 - 8.0, lambda a: 3.0 * a**2):
            assert line_search(g, math.inf) == pytest.approx(2.0, abs=1e-9)

    def test_barrier_blowup_root_matches_bisection_oracle(self):
        s = 10.0

        def f(a):
            return (1.0 - a) ** -9 - 1.0 - s if a < 1.0 else math.inf

        def df(a):
            return 9.0 * (1.0 - a) ** -10 if a < 1.0 else math.nan

        exact = 1.0 - (1.0 + s) ** (-1.0 / 9.0)
        oracle = bisect_root(f, 0.0, 1.0 - 1e-16)
        for g in both_paths(f, df):
            got = line_search(g, 1.0)
            assert got == pytest.approx(exact, abs=1e-11)
            assert got == pytest.approx(oracle, abs=1e-11)

    def test_steep_pole_root(self):
        """g = (1 - a)^-9 - 1 - 1e6: the doubling trials reach the cap next
        to the pole, where the Newton correction is tiny but the Newton
        model is off by the whole distance to the root."""
        s = 1e6

        def f(a):
            return (1.0 - a) ** -9 - 1.0 - s if a < 1.0 else math.inf

        def df(a):
            return 9.0 * (1.0 - a) ** -10 if a < 1.0 else math.nan

        exact = 1.0 - (1.0 + s) ** (-1.0 / 9.0)
        for g in both_paths(f, df):
            assert line_search(g, 1.0) == pytest.approx(exact, abs=1e-11)

    def test_capped_step_returned_when_still_downhill(self):
        for g in both_paths(lambda a: a - 10.0, lambda a: 1.0):
            got = line_search(g, 2.0)
            assert got == pytest.approx(2.0, rel=1e-11)
            assert got < 2.0  # strictly inside the barrier

    def test_root_beyond_unit_start_found_by_expansion(self):
        for g in both_paths(lambda a: a - 300.0, lambda a: 1.0):
            assert line_search(g, math.inf) == pytest.approx(300.0, rel=1e-9)

    def test_tiny_root_found(self):
        for g in both_paths(lambda a: a - 1e-7, lambda a: 1.0):
            assert line_search(g, math.inf) == pytest.approx(1e-7, rel=1e-6)

    def test_nan_treated_as_past_barrier(self):
        def f(a):
            return math.nan if a > 1.0 else a - 2.0

        def df(a):
            return math.nan if a > 1.0 else 1.0

        for g in both_paths(f, df):
            assert line_search(g, math.inf) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_uphill_start(self):
        for g in both_paths(lambda a: a + 1.0, lambda a: 1.0):
            with pytest.raises(ValueError):
                line_search(g, math.inf)

    def test_collapsed_barrier(self):
        for g in both_paths(lambda a: a - 1.0, lambda a: 1.0):
            with pytest.raises(BarrierCollapseError):
                line_search(g, 0.0)

    def test_respects_precomputed_g0(self):
        for slope0 in (1.0, math.nan):
            calls = []

            def g(a):
                calls.append(a)
                return a - 1.0, slope0

            line_search(g, math.inf, g0=(-1.0, slope0))
            assert 0.0 not in calls  # g(0) was supplied, never evaluated

    def test_newton_stop_below_the_noise_floor_of_g(self):
        """g linear with root 0.57 plus relative noise of 1e-10 of |g(0)|,
        far above the 1e-12 |g(0)| stop: the Newton-correction stop ends the
        search within 4 evaluations, at the root to 1e-9."""
        root = 0.57
        rng = np.random.default_rng(3)
        calls = []

        def g(a):
            calls.append(a)
            noise = 1e-10 * root * rng.uniform(-1.0, 1.0)
            return a - root + noise, 1.0 + 1e-3 * rng.standard_normal()

        got = line_search(g, math.inf, g0=(-root, 1.0))
        assert len(calls) <= 4
        assert got == pytest.approx(root, abs=1e-9)


def quadratic_problem(grid, solver, coeffs, seed):
    """Residual r(phi) = L (phi_star - phi) whose exact step is alpha = 1."""
    a0, a1, a2 = coeffs
    rng = np.random.default_rng(seed)
    phi_star = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    phi0 = phi_star + 0.05 * rng.standard_normal(grid.shape)
    phi0 -= np.mean(phi0) - np.mean(phi_star)  # same mean as the target

    def residual(phi):
        from thinfilm import lap

        diff = phi_star - phi
        diff = diff - np.mean(diff)
        return a0 * solver.inv_neg_lap(diff) + a1 * diff - a2 * lap(grid, diff)

    def precondition(r):
        return solver.solve_preconditioner(r, a0, a1, a2)

    return residual, precondition, phi_star, phi0


class TestPsdSolveQuadratic:
    def test_one_iteration_exact_convergence(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        residual, precondition, phi_star, phi0 = quadratic_problem(
            grid, solver, (5.0, 1.0, 0.04), seed=1
        )
        phi, trace = psd_solve(grid, residual, precondition, phi0)
        assert trace.iterations == 1
        assert trace.alphas[0] == pytest.approx(1.0, abs=1e-12)
        assert norm_inf(phi - phi_star) <= 1e-10
        assert trace.residual_norms[-1] <= 1e-9
        assert len(trace.residual_norms) == trace.iterations + 1

    def test_tail_contraction_none_for_short_trace(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        residual, precondition, _, phi0 = quadratic_problem(
            grid, solver, (5.0, 1.0, 0.04), seed=3
        )
        _, trace = psd_solve(grid, residual, precondition, phi0)
        assert trace.tail_contraction() is None


def barrier_problem(grid):
    """Strictly convex J(phi) = <1/phi + 2 phi^2, 1> minimized on a mean slice.

    The negative gradient is r = phi^-2 - 4 phi; stationarity on the slice
    means r - mean(r) = 0, and 1/phi blows up at the positivity barrier.
    """

    def residual(phi):
        return phi**-2 - 4.0 * phi

    def functional(phi):
        return inner(grid, 1.0 / phi + 2.0 * phi**2, np.ones(grid.shape))

    return residual, functional


class TestPsdSolveBarrier:
    def setup_method(self):
        self.grid = Grid(2, 8, 1.0)
        self.solver = SpectralSolver(self.grid)
        rng = np.random.default_rng(7)
        self.phi0 = rng.uniform(0.4, 1.6, self.grid.shape)

    def precondition(self, r):
        return self.solver.solve_preconditioner(r, 0.1, 8.0, 0.0)

    def test_converges_with_invariants(self):
        residual, functional = barrier_problem(self.grid)
        phi, trace = psd_solve(
            self.grid,
            residual,
            self.precondition,
            self.phi0,
            functional=functional,
        )
        # stationarity on the slice: the deflated residual is flat
        r = residual(phi)
        assert norm_inf(r - np.mean(r)) <= 1e-7
        assert trace.residual_norms[-1] <= 1e-9
        # mean preserved, positivity kept
        assert float(np.mean(phi)) == pytest.approx(
            float(np.mean(self.phi0)), abs=1e-12
        )
        assert np.all(phi > 0.0)
        # trace shape and bookkeeping
        assert len(trace.residual_norms) == trace.iterations + 1
        assert len(trace.line_evals) == trace.iterations
        assert all(e >= 1 for e in trace.line_evals)
        assert all(a > 0.0 for a in trace.alphas)
        # exact line search on a convex functional can never go uphill
        fv = trace.functional_values
        assert len(fv) == trace.iterations + 1
        assert all(b <= a + 1e-12 for a, b in zip(fv, fv[1:]))
        # asymptotic contraction of the metric residual
        tail = trace.tail_contraction()
        assert tail is not None and tail < 0.95

    def test_directional_fast_path_matches_naive(self):
        residual, _ = barrier_problem(self.grid)

        image_errors = []

        def directional(phi, direction, r_phi):
            d, image = direction
            # the image handed along with d is L d for the preconditioner
            ld = 0.1 * self.solver.inv_neg_lap(d) + 8.0 * d
            image_errors.append(norm_inf(image - ld) / norm_inf(ld))

            def g(alpha):
                return -inner(self.grid, residual(phi + alpha * d), d), math.nan

            def residual_at(alpha):
                return residual(phi + alpha * d)

            return g, residual_at

        phi_plain, trace_plain = psd_solve(
            self.grid, residual, self.precondition, self.phi0
        )
        phi_fast, trace_fast = psd_solve(
            self.grid, residual, self.precondition, self.phi0, directional=directional
        )
        assert trace_fast.iterations == trace_plain.iterations
        assert norm_inf(phi_fast - phi_plain) <= 1e-12
        assert len(image_errors) == trace_fast.iterations
        assert max(image_errors) <= 1e-10

    def test_budget_exhaustion_carries_best_iterate(self):
        residual, _ = barrier_problem(self.grid)
        cfg = SolverConfig(tol=1e-15, max_iters=3)
        with pytest.raises(MaxItersExceededError) as excinfo:
            psd_solve(self.grid, residual, self.precondition, self.phi0, cfg)
        err = excinfo.value
        assert err.phi is not None and np.all(err.phi > 0.0)
        assert err.trace.iterations == 3
        assert err.trace.residual_norms[-1] < err.trace.residual_norms[0]

    def test_rejects_nonpositive_start(self):
        residual, _ = barrier_problem(self.grid)
        bad = self.phi0.copy()
        bad.flat[0] = 0.0
        with pytest.raises(NonPositiveFieldError):
            psd_solve(self.grid, residual, self.precondition, bad)

    def test_solution_independent_of_start(self):
        residual, _ = barrier_problem(self.grid)
        other = self.phi0 + 0.2 * np.sin(
            2.0 * np.pi * self.grid.coordinates()[0]
        )
        other += np.mean(self.phi0) - np.mean(other)
        phi_a, _ = psd_solve(self.grid, residual, self.precondition, self.phi0)
        phi_b, _ = psd_solve(self.grid, residual, self.precondition, other)
        assert norm_inf(phi_a - phi_b) <= 1e-7
