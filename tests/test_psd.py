"""Descent driver and line search on synthetic problems with known answers.

The scalar searches get closed-form roots and an independent bisection
oracle; the full solver gets, as test-side step systems with exact line
slopes, a quadratic problem it must finish in one iteration and a strictly
convex barrier problem with verifiable stationarity, positivity, and
monotonicity.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dense_preconditioner_matrix, record_functional, tail_contraction
from thinfilm import (
    BarrierCollapseError,
    Grid,
    NonPositiveFieldError,
    SolverConfig,
    SolverDivergedError,
    SpectralSolver,
    inner,
    lap,
    norm_inf,
)
from thinfilm.psd import _WOLFE_TOL, barrier_alpha, line_search, psd_solve

# The default stopping rule, which every psd_solve call names.
CFG = SolverConfig()


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


class TestBarrierAlpha:
    def test_hand_example(self):
        phi = np.array([1.0, 1.0])
        d = np.array([-2.0, 1.0])
        assert barrier_alpha(phi, d, 0.99) == pytest.approx(0.495, rel=1e-15)
        assert barrier_alpha(phi, d, 0.5) == pytest.approx(0.25, rel=1e-15)

    def test_infinite_when_nothing_decreases(self):
        assert barrier_alpha(np.array([1.0, 2.0]), np.array([0.0, 3.0]), 0.99) == math.inf

    def test_binding_entry_wins(self):
        phi = np.array([4.0, 1.0, 9.0])
        d = np.array([-1.0, -0.5, -9.0])
        # distances to zero: 4, 2, 1 -> min is 1
        assert barrier_alpha(phi, d, 1.0) == pytest.approx(1.0, rel=1e-15)


def slope_g(f, df):
    """a -> (f(a), f'(a)): the pair of g and its slope at a trial."""
    return lambda a: (f(a), df(a))


def line_g(pair):
    """g in line_search's protocol from ``pair(a) = (g(a), g'(a))``: g(a)
    evaluates the pair and returns the value, and g.slope() returns the
    slope of the last trial.  g.trials and g.slopes count the calls."""

    def g(a):
        g.trials += 1
        value, g.last_slope = pair(a)
        return value

    def slope():
        g.slopes += 1
        return g.last_slope

    g.slope, g.trials, g.slopes = slope, 0, 0
    return g


def evaluated_search(pair, barrier, collapses=False):
    """line_search on the g of ``pair`` from its pair at 0, asserting that
    the step it returns is the alpha of g's last call and that the search
    asked for the slope of every trial it stepped from: every trial but the
    last, and but the one before it when the bracket ``collapses`` (the
    search then evaluates the bracket's downhill end once more, so the
    last trial repeats an earlier alpha); returns the step and the value of
    g there."""
    calls = []

    def recorded(a):
        out = pair(a)
        calls.append((a, out[0]))
        return out

    g = line_g(recorded)
    got = line_search(g, barrier, pair(0.0))
    last, value = calls[-1]
    assert got == last
    assert (got in [a for a, _ in calls[:-1]]) == collapses
    assert g.slopes == g.trials - 1 - collapses
    return got, value


def assert_wolfe_step(f, df, barrier, root):
    """The search ends at an evaluated trial with |g| <= _WOLFE_TOL |g(0)|,
    and the root lies within |g| / g' of it.

    For convex increasing g the slope between the step and the root is at
    least g' at the smaller of the two, which bounds the distance.  |g|
    carries the rounding of its evaluation, a few ulps of |g(0)| here."""
    g0 = abs(f(0.0))
    got, value = evaluated_search(slope_g(f, df), barrier)
    assert abs(value) <= _WOLFE_TOL * g0
    rounding = 4.0 * np.finfo(float).eps * g0
    assert abs(got - root) <= (abs(value) + rounding) / df(min(got, root))


class TestLineSearch:
    def test_linear_root(self):
        got, _ = evaluated_search(slope_g(lambda a: a - 1.0, lambda a: 1.0), math.inf)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_cubic_root(self):
        assert_wolfe_step(lambda a: a**3 - 8.0, lambda a: 3.0 * a**2, math.inf, 2.0)

    def test_barrier_blowup_root_matches_bisection_oracle(self):
        s = 10.0

        def f(a):
            return (1.0 - a) ** -9 - 1.0 - s if a < 1.0 else math.inf

        def df(a):
            return 9.0 * (1.0 - a) ** -10 if a < 1.0 else math.nan

        exact = 1.0 - (1.0 + s) ** (-1.0 / 9.0)
        oracle = bisect_root(f, 0.0, 1.0 - 1e-16)
        assert oracle == pytest.approx(exact, abs=1e-15)
        assert_wolfe_step(f, df, 1.0, oracle)

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
        assert_wolfe_step(f, df, 1.0, exact)

    def test_capped_step_returned_when_still_downhill(self):
        got, _ = evaluated_search(slope_g(lambda a: a - 10.0, lambda a: 1.0), 2.0)
        assert got == pytest.approx(2.0, rel=1e-11)
        assert got < 2.0  # strictly inside the barrier

    def test_root_beyond_unit_start_found_by_expansion(self):
        got, _ = evaluated_search(slope_g(lambda a: a - 300.0, lambda a: 1.0), math.inf)
        assert got == pytest.approx(300.0, rel=1e-9)

    def test_tiny_root_found(self):
        got, _ = evaluated_search(slope_g(lambda a: a - 1e-7, lambda a: 1.0), math.inf)
        assert got == pytest.approx(1e-7, rel=1e-6)

    def test_nan_treated_as_past_barrier(self):
        def f(a):
            return math.nan if a > 1.0 else a - 2.0

        def df(a):
            return math.nan if a > 1.0 else 1.0

        got, _ = evaluated_search(slope_g(f, df), math.inf, collapses=True)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_without_a_slope_the_search_doubles_then_bisects(self):
        """g = a - 300 reporting a nan slope everywhere: no trial gives a
        Newton step, so the search starts at 1, doubles while g < 0 and then
        bisects the bracket [256, 512] down to the Wolfe bound."""
        calls = []

        def g(a):
            calls.append(a)
            return a - 300.0, math.nan

        got = line_search(line_g(g), math.inf, (-300.0, math.nan))
        assert calls[:10] == [2.0**k for k in range(10)]
        lo, hi = 256.0, 512.0
        for a in calls[10:]:
            assert a == 0.5 * (lo + hi)
            lo, hi = (a, hi) if a < 300.0 else (lo, a)
        assert got == calls[-1]
        assert abs(got - 300.0) <= _WOLFE_TOL * 300.0

    def test_rejects_uphill_start(self):
        with pytest.raises(ValueError):
            line_search(line_g(slope_g(lambda a: a + 1.0, lambda a: 1.0)), math.inf, (1.0, 1.0))

    def test_collapsed_barrier(self):
        with pytest.raises(BarrierCollapseError):
            line_search(line_g(slope_g(lambda a: a - 1.0, lambda a: 1.0)), 0.0, (-1.0, 1.0))

    @pytest.mark.parametrize("slope", [1e-308, 1.0, math.nan])
    def test_never_returns_an_infinite_step(self, slope):
        """g = -1 for every alpha on an infinite barrier: the doubling
        overflows or the trial budget runs out, and the search raises
        instead of returning alpha = inf."""
        calls = []

        def g(a):
            calls.append(a)
            return -1.0, slope

        with pytest.raises(BarrierCollapseError):
            line_search(line_g(g), math.inf, (-1.0, slope))
        assert len(calls) <= 456
        assert all(math.isfinite(a) for a in calls)

    def test_respects_precomputed_g0(self):
        for slope0 in (1.0, math.nan):
            calls = []

            def g(a):
                calls.append(a)
                return a - 1.0, slope0

            line_search(line_g(g), math.inf, (-1.0, slope0))
            assert 0.0 not in calls  # g(0) was supplied, never evaluated

    def test_noise_below_the_wolfe_bound_ends_at_the_first_trial(self):
        """g linear with root 0.57 plus relative noise of 1e-10 of |g(0)|,
        below the _WOLFE_TOL |g(0)| stop: the Newton step from 0 lands on
        the root, and the search ends at that first trial."""
        root = 0.57
        rng = np.random.default_rng(3)
        calls = []

        def g(a):
            calls.append(a)
            noise = 1e-10 * root * rng.uniform(-1.0, 1.0)
            return a - root + noise, 1.0 + 1e-3 * rng.standard_normal()

        got = line_search(line_g(g), math.inf, (-root, 1.0))
        assert calls == [got]
        assert got == pytest.approx(root, abs=1e-10 * root)

    def test_noise_above_the_wolfe_bound_ends_at_the_downhill_end(self):
        """g linear with root 0.57 plus noise of up to 10 _WOLFE_TOL of |g(0)|
        that keeps |g| above the _WOLFE_TOL |g(0)| stop everywhere: the bracket
        collapses onto the root and the search returns its downhill end,
        evaluated once more as its last trial, where g < 0, within the noise
        of the root."""
        root = 0.57
        rng = np.random.default_rng(3)
        calls = []

        def g(a):
            noise = 10 * _WOLFE_TOL * root * rng.uniform(0.2, 1.0) * math.copysign(1.0, a - root)
            calls.append((a, a - root + noise))
            return calls[-1][1], 1.0 + 1e-3 * rng.standard_normal()

        got = line_search(line_g(g), math.inf, (-root, 1.0))
        assert len(calls) <= 457
        assert got == calls[-1][0]
        assert got in [a for a, _ in calls[:-1]]
        assert calls[-1][1] < 0.0
        assert 0.0 < root - got <= 10 * _WOLFE_TOL * root

    def test_cg_stop_returns_an_evaluated_trial(self):
        """The search ends at a point g evaluated, where
        |g| <= _WOLFE_TOL |g(0)|."""
        s = 10.0

        def f(a):
            return (1.0 - a) ** -9 - 1.0 - s if a < 1.0 else math.inf

        def df(a):
            return 9.0 * (1.0 - a) ** -10 if a < 1.0 else math.nan

        def cubic(a):
            return a**3 + a - 0.327

        def dcubic(a):
            return 3.0 * a**2 + 1.0

        # (g, g', barrier, |g(0)|)
        cases = [(f, df, 1.0, s), (cubic, dcubic, math.inf, 0.327)]
        for value, slope, barrier, g0 in cases:
            _, gvalue = evaluated_search(slope_g(value, slope), barrier)
            assert abs(gvalue) <= _WOLFE_TOL * g0


def step_system(grid, residual, hessian, precondition, image_of):
    """Test-side step system for psd_solve with exact line closures.

    residual(phi) is the negative gradient of a strictly convex functional
    and hessian(x, d) applies that functional's Hessian at x to d, so
    g(alpha) = -<residual(phi + alpha d), d> has the exact slope
    g'(alpha) = <hessian(phi + alpha d, d), d>.  The image s handed along
    with every direction d is compared with L d, image_of applying the
    preconditioner's L; the relative errors are collected in the system's
    image_errors.  g carries its slope at 0 as g.seed_slope, and the
    system counts the slopes its searches ask for in ``slopes``.
    """
    image_errors = []

    def directional(phi, direction, r_phi):
        d, image = direction
        ld = image_of(d)
        image_errors.append(norm_inf(image - ld) / norm_inf(ld))

        def pair(alpha):
            x = phi + alpha * d
            return -inner(grid, residual(x), d), inner(grid, hessian(x, d), d)

        def slope():
            system.slopes += 1
            return g.last_slope

        def residual_at(alpha):
            x = phi + alpha * d
            return x, residual(x)

        g = line_g(pair)
        g.slope = slope
        g.seed_slope = inner(grid, hessian(phi, d), d)
        return g, residual_at

    system = SimpleNamespace(
        grid=grid,
        residual=residual,
        precondition=precondition,
        directional=directional,
        image_errors=image_errors,
        slopes=0,
    )
    return system


def quadratic_problem(grid, solver, coeffs, seed):
    """Residual r(phi) = L (phi_star - phi) whose exact step is alpha = 1."""
    a0, a1, a2 = coeffs
    rng = np.random.default_rng(seed)
    phi_star = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    phi0 = phi_star + 0.05 * rng.standard_normal(grid.shape)
    phi0 -= np.mean(phi0) - np.mean(phi_star)  # same mean as the target

    def apply_l(u):
        u = u - np.mean(u)
        return a0 * solver.inv_neg_lap(u) + a1 * u - a2 * lap(grid, u)

    def precondition(r, limit):
        return solver.solve_preconditioner(r, a0, a1, a2, limit=limit)

    system = step_system(
        grid,
        lambda phi: apply_l(phi_star - phi),
        lambda x, d: apply_l(d),
        precondition,
        apply_l,
    )
    return system, phi_star, phi0


class TestPsdSolveQuadratic:
    def test_one_iteration_exact_convergence(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        system, phi_star, phi0 = quadratic_problem(
            grid, solver, (5.0, 1.0, 0.04), seed=1
        )
        phi, trace = psd_solve(system, phi0, CFG)
        assert trace.iterations == 1
        assert max(system.image_errors) <= 1e-12
        assert trace.alphas[0] == pytest.approx(1.0, abs=1e-12)
        assert norm_inf(phi - phi_star) <= 1e-10
        assert trace.residual_norms[-1] <= 1e-9
        assert len(trace.residual_norms) == trace.iterations + 1

    def test_tail_contraction_none_for_short_trace(self):
        grid = Grid(2, 8, 1.0)
        solver = SpectralSolver(grid)
        system, _, phi0 = quadratic_problem(grid, solver, (5.0, 1.0, 0.04), seed=3)
        _, trace = psd_solve(system, phi0, CFG)
        assert tail_contraction(trace) is None


def barrier_residual(phi):
    """Negative gradient of J(phi) = <1/phi + 2 phi^2, 1> (see below)."""
    return phi**-2 - 4.0 * phi


class TestPsdSolveBarrier:
    """Strictly convex J(phi) = <1/phi + 2 phi^2, 1> minimized on a mean slice.

    The negative gradient is r = phi^-2 - 4 phi and the Hessian is the
    pointwise 2 phi^-3 + 4; stationarity on the slice means
    r - mean(r) = 0, and 1/phi blows up at the positivity barrier.  As in
    the schemes, the preconditioner Lc = L0 + SHIFT I is shifted from the
    fixed metric L0 = 0.1 (-lap)^{-1} + 8 I of the stop.
    """

    L0 = (0.1, 8.0, 0.0)
    SHIFT = 4.0

    def setup_method(self):
        self.grid = Grid(2, 8, 1.0)
        self.solver = SpectralSolver(self.grid)
        rng = np.random.default_rng(7)
        self.phi0 = rng.uniform(0.4, 1.6, self.grid.shape)

    def precondition(self, r, limit):
        return self.solver.solve_preconditioner(r, *self.L0, self.SHIFT, limit)

    def apply_l(self, d):
        return 0.1 * self.solver.inv_neg_lap(d) + (8.0 + self.SHIFT) * d

    def functional(self, phi):
        return inner(self.grid, 1.0 / phi + 2.0 * phi**2, np.ones(self.grid.shape))

    def system(self, precondition=None):
        return step_system(
            self.grid,
            barrier_residual,
            lambda x, d: (2.0 * x**-3 + 4.0) * d,
            precondition or self.precondition,
            self.apply_l,
        )

    def test_converges_with_invariants(self):
        system = self.system()
        fv = record_functional(system, self.functional, self.phi0)
        phi, trace = psd_solve(system, self.phi0, CFG)
        # stationarity on the slice: the deflated residual is flat
        r = barrier_residual(phi)
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
        # a search asks for the slope of every trial but the one it returns
        assert system.slopes == sum(trace.line_evals) - trace.iterations
        # every direction arrives with its preconditioner image L d
        assert len(system.image_errors) == trace.iterations
        assert max(system.image_errors) <= 1e-10
        # exact line search on a convex functional can never go uphill
        assert len(fv) == trace.iterations + 1
        assert all(b <= a + 1e-12 for a, b in zip(fv, fv[1:]))
        # asymptotic contraction of the metric residual
        tail = tail_contraction(trace)
        assert tail is not None and tail < 0.95

    def test_stop_norm_is_in_the_fixed_metric(self):
        """Every recorded norm is sqrt(<L0^{-1} rp, rp>), not the norm in the
        metric of the shifted preconditioner that drives PR+."""
        records = []
        system = self.system()
        exact = system.directional

        def directional(phi, direction, r_phi):
            g, residual_at = exact(phi, direction, r_phi)

            def recorded(alpha):
                phi_new, r = residual_at(alpha)
                # A copy: psd_solve owns the residual it is handed and
                # deflates it, and may combine it into a direction image.
                records.append(r.copy())
                return phi_new, r

            return g, recorded

        system.directional = directional
        phi, trace = psd_solve(system, self.phi0, CFG)
        pinv = np.linalg.pinv(dense_preconditioner_matrix(self.grid, *self.L0))
        norms = []
        for r in [barrier_residual(self.phi0)] + records:
            rp = (r - np.mean(r)).ravel()
            norms.append(math.sqrt(self.grid.cell_volume * rp @ pinv @ rp))
        assert trace.residual_norms == pytest.approx(norms, rel=1e-9)
        shifted = np.linalg.pinv(
            dense_preconditioner_matrix(self.grid, 0.1, 8.0 + self.SHIFT, 0.0)
        )
        rp = (records[0] - np.mean(records[0])).ravel()
        assert math.sqrt(self.grid.cell_volume * rp @ shifted @ rp) < 0.9 * norms[1]

    def test_directional_fast_path_matches_naive(self):
        """Closures that carry the residual they are handed, as the schemes'
        do, against the naive ones that assemble it at every trial: the
        residual psd_solve hands over must be the one at phi."""
        naive = self.system()

        def directional(phi, direction, r_phi):
            d, image = direction
            inv2 = phi**-2

            def moved(alpha):
                # r(phi + alpha d) = r(phi) + (phi + alpha d)^-2 - phi^-2 - 4 alpha d
                x = phi + alpha * d
                return r_phi + (x**-2 - inv2) - 4.0 * alpha * d, x

            def pair(alpha):
                r, x = moved(alpha)
                curvature = (2.0 * x**-3 + 4.0) * d
                return -inner(self.grid, r, d), inner(self.grid, curvature, d)

            def residual_at(alpha):
                r, x = moved(alpha)
                return x, r

            g = line_g(pair)
            g.seed_slope = inner(self.grid, (2.0 * phi**-3 + 4.0) * d, d)
            return g, residual_at

        fast = SimpleNamespace(
            grid=self.grid,
            residual=barrier_residual,
            precondition=self.precondition,
            directional=directional,
        )
        phi_plain, trace_plain = psd_solve(naive, self.phi0, CFG)
        phi_fast, trace_fast = psd_solve(fast, self.phi0, CFG)
        assert trace_fast.iterations == trace_plain.iterations
        assert norm_inf(phi_fast - phi_plain) <= 1e-12
        assert len(naive.image_errors) == trace_plain.iterations
        assert max(naive.image_errors) <= 1e-10

    def test_overshooting_line_search_restarts_cg(self):
        """A search landing 1.5x past the line minimum makes PR+ restart.

        g reports the true directional derivative at alpha / 1.5 and its
        exact slope, so every accepted step overshoots; the next conjugate
        direction then points uphill and must be replaced by the
        preconditioned gradient.
        """
        system = self.system()
        exact = system.directional

        def directional(phi, direction, r_phi):
            g, residual_at = exact(phi, direction, r_phi)

            stretched = line_g(lambda alpha: (g(alpha / 1.5), g.slope() / 1.5))
            stretched.seed_slope = g.seed_slope / 1.5
            return stretched, residual_at

        system.directional = directional
        phi, trace = psd_solve(system, self.phi0, CFG)
        assert trace.restarts >= trace.iterations // 2
        assert trace.residual_norms[-1] <= 1e-9
        assert np.all(phi > 0.0)
        assert float(np.mean(phi)) == pytest.approx(
            float(np.mean(self.phi0)), abs=1e-12
        )

    def assert_returned_input_is_refused(self, phi0):
        """psd_solve with a preconditioner that returns its input rp raises
        ValueError before it writes to that array: rp is left as the
        preconditioner received it, to the bit."""
        handed = []

        def precondition(r, limit):
            handed.append((r, r.copy()))
            return r, inner(self.grid, r, r)

        with pytest.raises(ValueError, match="not rp"):
            psd_solve(self.system(precondition), phi0, CFG)
        (rp, received), = handed
        assert np.array_equal(rp, received)

    def test_refuses_a_preconditioner_that_returns_its_input(self):
        # p is deflated in place and later combined into the direction in
        # place, while rp is still read for the slope and the next beta.
        self.assert_returned_input_is_refused(self.phi0)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("seed", range(10))
    def test_returned_input_is_not_deflated_in_place(self, n, seed):
        # On draws where the mean of rp is not exactly zero, deflating the
        # returned input in place would change rp.
        self.grid = Grid(2, n, 1.0)
        self.solver = SpectralSolver(self.grid)
        self.assert_returned_input_is_refused(
            np.random.default_rng(seed).uniform(0.4, 1.6, self.grid.shape)
        )

    def test_budget_exhaustion_carries_best_iterate(self):
        cfg = SolverConfig(tol=1e-15, max_iters=3)
        with pytest.raises(SolverDivergedError) as excinfo:
            psd_solve(self.system(), self.phi0, cfg)
        err = excinfo.value
        assert err.phi is not None and np.all(err.phi > 0.0)
        assert err.trace.iterations == 3
        assert err.trace.residual_norms[-1] < err.trace.residual_norms[0]

    def test_rejects_nonpositive_start(self):
        bad = self.phi0.copy()
        bad.flat[0] = 0.0
        with pytest.raises(NonPositiveFieldError):
            psd_solve(self.system(), bad, CFG)

    def test_solution_independent_of_start(self):
        other = self.phi0 + 0.2 * np.sin(
            2.0 * np.pi * self.grid.coordinates()[0]
        )
        other += np.mean(self.phi0) - np.mean(other)
        phi_a, _ = psd_solve(self.system(), self.phi0, CFG)
        phi_b, _ = psd_solve(self.system(), other, CFG)
        assert norm_inf(phi_a - phi_b) <= 1e-7
