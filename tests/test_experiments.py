"""Experiment drivers: manufactured accuracy runs, fits, and coarsening.

The forcing construction is checked against a time difference quotient plus
an independently assembled dense stencil; the fits against synthetic exact
power laws; the coarsening driver against hand-enumerated step ladders,
snapshot alignment rules, and bitwise determinism.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import dense_neg_lap_matrix, two_laplacian_forcing
from thinfilm import (
    Bdf2Scheme,
    CoarseningConfig,
    ConfigError,
    ConvergenceTable,
    EnergyRecord,
    FirstOrderScheme,
    Grid,
    InsufficientDataError,
    ManufacturedSolution,
    NonPositiveValueError,
    NonZeroMeanError,
    PhysParams,
    PositivityLostError,
    SpectralSolver,
    UnfinishedError,
    fit_power_law,
    grad_norm_2,
    lap,
    norm_2,
    norm_inf,
    random_initial_data,
    run_coarsening,
    run_convergence_bdf2,
    run_convergence_first_order,
    restart_state,
)
from thinfilm import experiments
from thinfilm.experiments import _step_plan


class TestManufacturedSolution:
    def test_sample_hand_value(self):
        grid = Grid(2, 4, 1.0)
        profile = ManufacturedSolution()
        phi = profile.sample(grid, 0.0)
        # cell (y=0.125, x=0.125): 1 + (1/2pi) sin(pi/4) cos(pi/4)
        expected = 1.0 + (1.0 / (2.0 * math.pi)) * 0.5
        assert phi[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_profile_stays_positive(self):
        grid = Grid(2, 32, 1.0)
        profile = ManufacturedSolution()
        for t in (0.0, 0.5, 1.0, 3.0):
            assert float(np.min(profile.sample(grid, t))) > 0.8

    def test_forcing_against_independent_assembly(self):
        grid = Grid(2, 8, 1.0)
        eps = 0.5
        t, s = 0.6, 1e-6
        profile = ManufacturedSolution()
        phi = profile.sample(grid, t)
        neg_lap = dense_neg_lap_matrix(grid)
        mu = (
            -(8.0 / 3.0) * (phi.ravel() ** -9 - phi.ravel() ** -3)
            + eps**2 * neg_lap @ phi.ravel()
        )
        dphi_dt = (profile.sample(grid, t + s) - profile.sample(grid, t - s)) / (
            2.0 * s
        )
        oracle = dphi_dt.ravel() + neg_lap @ mu
        got = profile.forcing(grid, eps, t)
        err = np.max(np.abs(got.ravel() - oracle))
        assert err <= 1e-7  # difference-quotient floor
        assert err / max(np.max(np.abs(got)), 1.0) <= 1e-10
        # the forcing is assembled from the profile's own pieces, to the bit:
        # the shape times dPhi/dt's factor and the closed-form -eps^2 lap lap
        # factor, then -lap of the bulk potential
        x, y = grid.coordinates()
        two_pi = 2.0 * math.pi
        shape = (1.0 / two_pi) * np.sin(two_pi * x) * np.cos(two_pi * y)
        lam = (8.0 / (grid.h * grid.h)) * math.sin(math.pi * grid.h) ** 2
        inv = 1.0 / phi
        inv3 = inv * inv * inv
        bulk = -(8.0 / 3.0) * (inv3 * inv3 * inv3 - inv3)
        factor = -math.sin(t) + eps**2 * lam**2 * math.cos(t)
        assembled = shape * factor - lap(grid, bulk)
        assert np.array_equal(got, assembled)

    @pytest.mark.parametrize("n", [8, 32, 96])
    def test_profile_shape_is_a_stencil_eigenfunction(self, n):
        """lap_h P = -lam P with lam = (8 / h^2) sin^2(pi h), the identity
        that gives the forcing its closed-form bilaplacian term, to the
        rounding of the stencil: a few ulps of P times its weight 8 / h^2."""
        grid = Grid(2, n, 1.0)
        x, y = grid.coordinates()
        shape = np.sin(2.0 * math.pi * x) * np.cos(2.0 * math.pi * y)
        lam = (8.0 / grid.h**2) * math.sin(math.pi * grid.h) ** 2
        err = norm_inf(lap(grid, shape) + lam * shape)
        assert err <= 4.0 * np.finfo(float).eps * (8.0 / grid.h**2) * norm_inf(shape)

    @pytest.mark.parametrize("n", [8, 32, 96])
    def test_forcing_matches_two_laplacian_assembly(self, n):
        """The closed-form source against the stencil applied twice, to
        1e-12 relative plus the rounding of the oracle's own bilaplacian:
        a few ulps of Phi times eps^2 (8 / h^2)^2, which exceeds 1e-12
        relative from n = 32 on."""
        grid = Grid(2, n, 1.0)
        profile = ManufacturedSolution()
        for eps, t in ((0.5, 0.0), (0.5, 0.6), (0.1, 2.3)):
            got = profile.forcing(grid, eps, t)
            oracle = two_laplacian_forcing(profile, grid, eps, t)
            ulps = 4.0 * np.finfo(float).eps * norm_inf(profile.sample(grid, t))
            rounding = ulps * eps**2 * (8.0 / grid.h**2) ** 2
            assert norm_inf(got - oracle) <= 1e-12 * norm_inf(oracle) + rounding

    def test_forcing_is_mean_zero(self):
        grid = Grid(2, 16, 1.0)
        s = ManufacturedSolution().forcing(grid, 0.5, 0.3)
        assert abs(np.mean(s)) <= 1e-12

    def test_profile_is_built_once_per_grid_and_read_only(self):
        """Every call on an equal grid gets one cached, read-only profile;
        what sample and forcing return are fresh, writable fields."""
        profile = ManufacturedSolution()
        shape = profile._profile(Grid(2, 8, 1.0))
        assert profile._profile(Grid(2, 8, 1.0)) is shape
        assert not shape.flags.writeable
        with pytest.raises(ValueError):
            shape[0, 0] = 0.0
        for field in (profile.sample(Grid(2, 8, 1.0), 0.3),
                      profile.forcing(Grid(2, 8, 1.0), 0.5, 0.3)):
            assert field.flags.writeable and not np.shares_memory(field, shape)

    def test_zero_amplitude_profile_needs_no_forcing(self, monkeypatch):
        monkeypatch.setattr(experiments, "_AMPLITUDE", 0.0)
        grid = Grid(2, 8, 1.0)
        assert norm_inf(ManufacturedSolution().forcing(grid, 0.5, 0.4)) <= 1e-12

    def test_rejects_wrong_dimension(self):
        profile = ManufacturedSolution()
        with pytest.raises(ValueError):
            profile.sample(Grid(1, 8, 1.0), 0.0)
        with pytest.raises(ValueError):
            profile.sample(Grid(3, 4, 1.0), 0.0)

    def test_rejects_a_box_other_than_the_unit_square(self):
        grid = Grid(2, 16, 0.7)
        profile = ManufacturedSolution()
        with pytest.raises(ValueError, match="unit square"):
            profile.sample(grid, 0.0)
        with pytest.raises(ValueError, match="unit square"):
            profile.forcing(grid, 0.5, 0.3)

    def test_forcing_with_a_material_mean_raises(self, monkeypatch):
        """The mean guard is a raised error, not an assert that ``python -O``
        would strip."""
        monkeypatch.setattr(experiments, "lap", lambda grid, u: lap(grid, u) + 1e-6)
        with pytest.raises(NonZeroMeanError, match="forcing mean"):
            ManufacturedSolution().forcing(Grid(2, 16, 1.0), 0.5, 0.3)


class TestFits:
    def test_power_law_exact_recovery(self):
        t = np.geomspace(0.5, 300.0, 40)
        v = 3.7 * t**-0.33
        a, b = fit_power_law(t, v, 1.0, 100.0)
        assert a == pytest.approx(3.7, rel=1e-12)
        assert b == pytest.approx(-0.33, rel=1e-12)

    def test_window_excludes_outside_points(self):
        t = np.array([0.1, 1.0, 2.0, 4.0, 8.0, 500.0])
        v = 2.0 * t**-1.5
        v[0] = 1e9  # corrupted outside the window
        v[-1] = 1e-30
        a, b = fit_power_law(t, v, 1.0, 100.0)
        assert b == pytest.approx(-1.5, rel=1e-12)
        assert a == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_power_law_errors(self, bad):
        t = np.array([1.0, 2.0, 4.0])
        v = np.array([1.0, 0.5, 0.25])
        with pytest.raises(InsufficientDataError):
            fit_power_law(t, v, 10.0, 100.0)
        with pytest.raises(NonPositiveValueError):
            fit_power_law(np.array([0.0, 2.0, 4.0]), v, 0.0, 100.0)
        with pytest.raises(NonPositiveValueError):
            fit_power_law(t, np.array([1.0, -0.5, 0.25]), 0.5, 100.0)
        # nan passes a `<= 0` test; a value must be finite and positive
        with pytest.raises(NonPositiveValueError):
            fit_power_law(t, np.array([1.0, bad, 0.25]), 0.5, 100.0)
        with pytest.raises(NonPositiveValueError):
            fit_power_law(np.array([1.0, 2.0, math.inf]), v, 0.5, math.inf)
        # three samples are not three distinct times
        for times in ([5.0, 5.0, 5.0], [1.0, 1.0, 2.0]):
            with pytest.raises(InsufficientDataError):
                fit_power_law(np.array(times), np.array([1.0, 2.0, 3.0]), 0.5, 10.0)

    def test_convergence_table_exact_slopes(self):
        nt = [100, 200, 400, 800]
        e2 = [0.4 / k for k in nt]
        einf = [0.9 / k**2 for k in nt]
        tab = ConvergenceTable.from_errors(nt, e2, einf)
        assert tab.slope_l2 == pytest.approx(-1.0, abs=1e-12)
        assert tab.slope_linf == pytest.approx(-2.0, abs=1e-12)
        assert math.exp(tab.intercept_l2) == pytest.approx(0.4, rel=1e-12)
        assert tab.resolutions == nt

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_convergence_table_errors(self, bad):
        with pytest.raises(InsufficientDataError):
            ConvergenceTable.from_errors([10, 20], [1.0, 0.5], [1.0, 0.5])
        with pytest.raises(InsufficientDataError):  # two distinct abscissae
            ConvergenceTable.from_errors([10, 10, 20], [1.0, 0.9, 0.5], [1.0, 0.9, 0.5])
        with pytest.raises(NonPositiveValueError):
            ConvergenceTable.from_errors(
                [10, 20, 40], [1.0, 0.0, 0.25], [1.0, 0.5, 0.25]
            )
        with pytest.raises(NonPositiveValueError):
            ConvergenceTable.from_errors([10, 20, 40], [1.0, bad, 0.25], [1.0, 0.5, 0.2])
        with pytest.raises(NonPositiveValueError):
            ConvergenceTable.from_errors([10, 20, 40], [1.0, 0.5, 0.2], [1.0, 0.5, bad])
        # a resolution must be positive too: its logarithm is the abscissa
        errors = [1.0, 0.5, 0.2]
        for resolutions in ([0, 20, 40], [-10, 20, 40]):
            with pytest.raises(NonPositiveValueError):
                ConvergenceTable.from_errors(resolutions, errors, errors)


class TestConvergenceSmokes:
    def test_first_order_slope_small_ladder(self):
        seen = []
        tab = run_convergence_first_order(
            n=16,
            nt_values=(4, 8, 16),
            eps=0.5,
            t_final=0.1,
            on_resolution=lambda nt, e2, einf: seen.append((nt, e2, einf)),
        )
        assert -1.3 <= tab.slope_l2 <= -0.6
        assert -1.3 <= tab.slope_linf <= -0.6
        assert [s[0] for s in seen] == [4, 8, 16]
        assert [s[1] for s in seen] == tab.errors_l2
        assert all(e > 0 for e in tab.errors_linf)

    def test_bdf2_slope_small_ladder(self):
        tab = run_convergence_bdf2(n_values=(8, 12, 16), eps=0.5, t_final=0.25)
        assert -2.5 <= tab.slope_l2 <= -1.5
        assert -2.5 <= tab.slope_linf <= -1.5
        # joint refinement: errors strictly decreasing along the ladder
        assert tab.errors_l2[0] > tab.errors_l2[1] > tab.errors_l2[2]

    def test_bdf2_rejects_nondividing_dt(self):
        with pytest.raises(ValueError):
            run_convergence_bdf2(n_values=(10, 12, 14), t_final=0.33)

    def test_bdf2_checks_every_rung_before_the_first_step(self):
        """dt = 0.3 h divides t_final = 1 at n = 3 and 6 but not at n = 32;
        the ladder is refused before any rung is marched."""
        seen = []
        with pytest.raises(ConfigError, match="n = 32"):
            run_convergence_bdf2(
                n_values=(3, 6, 32), dt_factor=0.3,
                on_resolution=lambda *row: seen.append(row),
            )
        assert seen == []

    @pytest.mark.parametrize(
        "study, ladder",
        [
            (run_convergence_first_order, dict(n=8, nt_values=(2, 4))),
            (run_convergence_bdf2, dict(n_values=(8, 16))),
            (run_convergence_first_order, dict(n=8, nt_values=(4, 4, 4))),
            (run_convergence_bdf2, dict(n_values=(8, 8, 16))),
        ],
    )
    def test_refuses_a_ladder_too_short_to_fit_before_the_first_step(self, study, ladder):
        seen = []
        with pytest.raises(ConfigError, match="at least 3 rungs"):
            study(on_resolution=lambda *row: seen.append(row), **ladder)
        assert seen == []


class TestConvergenceInThePapersNorms:
    """The paper proves optimal rates in l-inf(0, T; H^-1) and
    l2(0, T; H^1), beside the final l2 error that criteria 2 and 3 fit.
    Each study takes the error e_k after every step under the manufactured
    source (eps 0.5, T 0.25): its H^-1 norm is that of e_k - mean e_k, and
    its H^1 seminorm is grad_norm_2(e_k).  All three slopes must lie in the
    bands of the benchmark's convergence check."""

    EPS, T = 0.5, 0.25

    def slopes(self, make_scheme, start, rungs):
        """(l-inf H^-1, l2 H^1, final l2) slopes against the labels of
        ``rungs``, (label, n, steps) each; start(scheme, profile, dt) is
        the state at t = 0."""
        profile = ManufacturedSolution()
        labels, norms = [], []
        for label, n, steps in rungs:
            grid = Grid(2, n, 1.0)
            scheme = make_scheme(grid)
            dt = self.T / steps
            state = start(scheme, profile, dt)
            worst_hm1 = sum_h1 = 0.0
            for k in range(1, steps + 1):
                source = profile.forcing(grid, self.EPS, k * dt)
                state, _ = scheme.step(state, dt, forcing=source)
                e = state.phi - profile.sample(grid, k * dt)
                worst_hm1 = max(worst_hm1, scheme.solver.hminus1_norm(e - e.mean()))
                sum_h1 += dt * grad_norm_2(grid, e) ** 2
            labels.append(label)
            norms.append((worst_hm1, math.sqrt(sum_h1), norm_2(grid, e)))
        return [float(np.polyfit(np.log(labels), np.log(col), 1)[0]) for col in zip(*norms)]

    def test_bdf2_second_order_in_every_norm(self):
        """Joint refinement at dt = h/2 from cold_start, n = 16/24/32/48."""

        def cold(scheme, profile, dt):
            grid = scheme.grid
            source = profile.forcing(grid, self.EPS, 0.0)
            return scheme.cold_start(profile.sample(grid, 0.0), dt, forcing=source)

        slopes = self.slopes(
            lambda grid: Bdf2Scheme(grid, PhysParams(self.EPS)), cold,
            [(n, n, n // 2) for n in (16, 24, 32, 48)],
        )
        print(f"BDF2 slopes (l-inf H^-1, l2 H^1, final l2): {slopes}")
        assert all(-2.2 <= s <= -1.8 for s in slopes)

    def test_first_order_first_order_in_every_norm(self):
        """Temporal refinement on 32^2, nt = 25/50/100/200."""

        def restart(scheme, profile, dt):
            return restart_state(scheme.grid, profile.sample(scheme.grid, 0.0))

        slopes = self.slopes(
            lambda grid: FirstOrderScheme(grid, PhysParams(self.EPS)), restart,
            [(nt, 32, nt) for nt in (25, 50, 100, 200)],
        )
        print(f"first-order slopes (l-inf H^-1, l2 H^1, final l2): {slopes}")
        assert all(-1.1 <= s <= -0.9 for s in slopes)


class TestRandomInitialData:
    def test_golden_values(self):
        grid = Grid(2, 4, 1.0)
        phi = random_initial_data(grid, 0)
        # pinned against the seeded generator stream: the exact values are
        # part of the reproducibility contract
        assert phi[0, 0] == pytest.approx(2.0273923374642909, rel=1e-15)
        assert phi[0, 1] == pytest.approx(1.9539573427527740, rel=1e-15)

    def test_range_and_mean(self):
        grid = Grid(2, 64, 12.8)
        phi = random_initial_data(grid, 7)
        assert float(np.min(phi)) >= 1.9
        assert float(np.max(phi)) < 2.1
        assert np.mean(phi) == pytest.approx(2.0, abs=2e-3)

    def test_deterministic_per_seed(self):
        grid = Grid(2, 16, 1.0)
        assert np.array_equal(
            random_initial_data(grid, 3), random_initial_data(grid, 3)
        )
        assert not np.array_equal(
            random_initial_data(grid, 3), random_initial_data(grid, 4)
        )


def tiny_config(**overrides):
    base = dict(
        n=16,
        length=1.6,
        eps=0.1,
        seed=0,
        t_end=0.02,
        schedule=((0.01, 0.002), (0.1, 0.005)),
        snapshot_times=(0.004, 0.008, 0.012, 999.0),
    )
    base.update(overrides)
    return CoarseningConfig(**base)


class TestCoarseningConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(t_end=0.0)
        with pytest.raises(ValueError):
            tiny_config(schedule=((0.01, 0.004), (0.1, 0.002)))  # dt decreases
        with pytest.raises(ValueError):
            tiny_config(schedule=((0.01, 0.002), (0.005, 0.004)))  # end decreases
        with pytest.raises(ValueError):
            tiny_config(schedule=((0.01, -0.1),))
        with pytest.raises(ValueError):
            tiny_config(record_every_late=0)
        with pytest.raises(ConfigError, match="record_cutoff"):
            tiny_config(record_cutoff=math.nan)
        for budget in (-1.0, math.nan):
            with pytest.raises(ConfigError, match="wall_clock_budget"):
                tiny_config(wall_clock_budget=budget)
        assert tiny_config(wall_clock_budget=0.0).wall_clock_budget == 0.0
        with pytest.raises(ConfigError, match="snapshot_times"):
            tiny_config(snapshot_times=(0.004, math.nan, 0.008))
        # a request beyond the end stays valid: it is dropped
        assert math.inf in tiny_config(snapshot_times=(0.004, math.inf)).snapshot_times

    def test_t_end_lies_within_the_ladder(self):
        """The ladder ends at 0.1: a later or non-finite t_end is refused
        instead of ending the run early or never."""
        for t_end in (0.2, math.inf, math.nan):
            with pytest.raises(ConfigError, match="t_end"):
                tiny_config(t_end=t_end)
        assert tiny_config(t_end=0.1).t_end == 0.1


class TestCoarseningRun:
    def test_step_ladder_and_snapshot_alignment(self):
        run = run_coarsening(tiny_config())
        # segment 1: five steps of 0.002; segment 2: two steps of 0.005
        times = [r.t for r in run.records]
        assert times == pytest.approx(
            [0.0, 0.002, 0.004, 0.006, 0.008, 0.01, 0.015, 0.02], abs=1e-12
        )
        assert run.final_t == pytest.approx(0.02, abs=1e-12)
        # snapshots sit on the last completed step at or before the request;
        # the request beyond the end of the run is dropped
        snap_times = [t for t, _ in run.snapshots]
        assert snap_times == pytest.approx([0.004, 0.008, 0.01], abs=1e-12)
        assert all(field.shape == (16, 16) for _, field in run.snapshots)

    def test_energy_dissipates_and_mass_constant(self):
        run = run_coarsening(tiny_config())
        energies = [r.energy for r in run.records]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-9 * (1.0 + abs(before))
        masses = [r.mass for r in run.records]
        assert max(masses) - min(masses) <= 1e-12
        assert all(r.min_phi > 0.0 for r in run.records)
        assert np.all(run.final_phi > 0.0)

    def test_record_thinning_after_cutoff(self):
        run = run_coarsening(
            tiny_config(record_cutoff=0.005, record_every_late=3)
        )
        times = [r.t for r in run.records]
        # t=0 and the dense range, then every 3rd step plus segment ends
        assert times == pytest.approx(
            [0.0, 0.002, 0.004, 0.006, 0.01, 0.015, 0.02], abs=1e-12
        )

    def test_bitwise_deterministic(self):
        run_a = run_coarsening(tiny_config())
        run_b = run_coarsening(tiny_config())
        assert [r.energy for r in run_a.records] == [r.energy for r in run_b.records]
        assert np.array_equal(run_a.final_phi, run_b.final_phi)
        for (ta, fa), (tb, fb) in zip(run_a.snapshots, run_b.snapshots):
            assert ta == tb
            assert np.array_equal(fa, fb)

    def test_wall_clock_budget_raises_with_partial(self):
        with pytest.raises(UnfinishedError) as excinfo:
            run_coarsening(tiny_config(wall_clock_budget=0.0))
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.final_t == 0.0
        assert len(partial.records) == 1  # the t=0 record
        assert np.all(partial.final_phi > 0.0)

    def test_schedule_clipped_to_t_end(self):
        run = run_coarsening(tiny_config(t_end=0.006, snapshot_times=()))
        assert run.final_t == pytest.approx(0.006, abs=1e-12)
        assert [r.t for r in run.records] == pytest.approx(
            [0.0, 0.002, 0.004, 0.006], abs=1e-12
        )

    def test_three_rungs_serve_boundary_and_duplicate_requests(self):
        run = run_coarsening(
            tiny_config(
                t_end=0.024,
                schedule=((0.006, 0.001), (0.012, 0.002), (0.03, 0.003)),
                snapshot_times=(
                    0.024, 0.0, 0.006, 0.0125, 0.0, 0.012, 0.006, 999.0, 0.024, 0.03,
                ),
            )
        )
        assert len(run.records) == 1 + 6 + 3 + 4
        snap_times = [t for t, _ in run.snapshots]
        # 0.0125 waits for the step to 0.015; 0.03 and 999 lie past the end
        assert snap_times == pytest.approx(
            [0.0, 0.0, 0.006, 0.006, 0.012, 0.012, 0.024, 0.024], abs=1e-12
        )
        fields = [f for _, f in run.snapshots]
        for i in (0, 2, 4, 6):
            assert np.array_equal(fields[i], fields[i + 1])
        assert np.array_equal(fields[0], random_initial_data(run.grid, 0))
        assert np.array_equal(fields[-1], run.final_phi)

    def test_first_rung_without_a_step_is_skipped(self):
        cfg = tiny_config(
            schedule=((0.001, 0.002), (0.01, 0.003), (0.02, 0.004)),
            snapshot_times=(0.0, 0.001, 0.0035, 0.004, 0.01, 0.012, 0.02),
        )
        plan = list(_step_plan(cfg))
        # the skipped first rung leaves t at 0, and the third rung starts
        # at 0.009, the time the second one reached
        assert [t for t, _, _, _ in plan] == pytest.approx(
            [0.003, 0.006, 0.009, 0.013, 0.017], abs=1e-12
        )
        assert [dt for _, dt, _, _ in plan] == [0.003] * 3 + [0.004] * 2
        assert [r for _, _, r, _ in plan] == [False, False, False, True, False]
        assert [e for _, _, _, e in plan] == [False, False, True, False, True]
        run = run_coarsening(cfg)
        assert [r.t for r in run.records] == pytest.approx(
            [0.0] + [t for t, _, _, _ in plan], abs=1e-12
        )
        assert [t for t, _ in run.snapshots] == pytest.approx(
            [0.0, 0.0, 0.003, 0.003, 0.009, 0.009], abs=1e-12
        )

    def test_cold_start_uses_the_first_stepping_rung(self):
        cfg = tiny_config(
            t_end=0.003, schedule=((0.001, 0.002), (0.01, 0.003)), snapshot_times=()
        )
        run = run_coarsening(cfg)
        grid = run.grid
        scheme = Bdf2Scheme(grid, PhysParams(cfg.eps), SpectralSolver(grid), cfg.psd)
        state = scheme.cold_start(random_initial_data(grid, cfg.seed), 0.003)
        _, report = scheme.step(state, 0.003)
        assert [r.t for r in run.records] == [0.0, 0.003]
        assert run.records[1].energy == report.energy

    def test_cold_start_falls_back_to_duplicated_history(self):
        """At dt = 1 the ghost state of the cold start loses positivity, so
        the run starts from restart_state and steps on from there."""
        cfg = CoarseningConfig(
            n=8, length=0.8, eps=0.02, seed=0, t_end=2.0,
            schedule=((2.0, 1.0),), snapshot_times=(),
        )
        run = run_coarsening(cfg)
        grid = run.grid
        scheme = Bdf2Scheme(grid, PhysParams(cfg.eps), SpectralSolver(grid), cfg.psd)
        phi0 = random_initial_data(grid, cfg.seed)
        with pytest.raises(PositivityLostError):
            scheme.cold_start(phi0, 1.0)
        state = restart_state(grid, phi0)
        expected = [run.records[0]]
        for t in (1.0, 2.0):
            state, report = scheme.step(state, 1.0)
            expected.append(
                EnergyRecord(
                    t=t,
                    energy=report.energy,
                    modified_energy=report.modified_energy,
                    mass=float(np.mean(state.phi)),
                    min_phi=report.min_phi,
                    psd_iters=report.psd_iters,
                    residual=report.final_residual,
                )
            )
        assert run.records == expected
        assert np.array_equal(run.final_phi, state.phi)

    def test_evenly_dividing_rungs_start_at_their_ends(self):
        cfg = tiny_config(
            t_end=0.024, schedule=((0.006, 0.001), (0.012, 0.002), (0.03, 0.003))
        )
        expected = (
            [0.0 + k * 0.001 for k in range(1, 7)]
            + [0.006 + k * 0.002 for k in range(1, 4)]
            + [0.012 + k * 0.003 for k in range(1, 5)]
        )
        assert [t for t, _, _, _ in _step_plan(cfg)] == expected

    def test_run_without_steps_serves_requests_at_zero(self):
        cfg = tiny_config(
            t_end=0.001, schedule=((0.01, 0.002),),
            snapshot_times=(0.0, 0.0005, 0.001, 0.0),
        )
        assert list(_step_plan(cfg)) == []
        run = run_coarsening(cfg)
        assert run.final_t == 0.0
        assert len(run.records) == 1
        phi0 = random_initial_data(run.grid, 0)
        assert [t for t, _ in run.snapshots] == [0.0, 0.0]
        assert all(np.array_equal(f, phi0) for _, f in run.snapshots)
        assert np.array_equal(run.final_phi, phi0)

    def test_default_plan_is_lazy(self):
        # 587,500 steps to t = 6000; a list of them would take tens of MB
        tracemalloc.start()
        try:
            steps = restarts = rung_ends = 0
            for t, _, restart, last_of_rung in _step_plan(CoarseningConfig()):
                steps += 1
                restarts += restart
                rung_ends += last_of_rung
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (steps, restarts, rung_ends) == (587_500, 3, 4)
        assert t == pytest.approx(6000.0, rel=1e-12)
        assert peak < 64 * 1024

    def test_default_config_matches_published_setup(self):
        cfg = CoarseningConfig()
        assert cfg.n == 128
        assert cfg.length == pytest.approx(12.8)
        assert cfg.eps == pytest.approx(0.02)
        assert cfg.t_end == 6000.0
        assert cfg.schedule[0] == (100.0, 0.001)
