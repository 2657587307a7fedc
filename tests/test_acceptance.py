"""End-to-end acceptance criteria for the package, one test per criterion.

Each test prints a single [PASS]/[FAIL] line naming the criterion; run with
``-s`` (or read captured output) to see them.  Criterion 7 repeats the full
coarsening study, 1e5 steps at N=128, and takes about 27 minutes (derived
from 160 s per 1e4 steps measured at that size, not timed as a whole): it
is skipped unless pytest is invoked with ``--runslow``.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    dense_grad_matrices,
    dense_neg_lap_matrix,
    potential_curvature,
    record_functional,
    step_functional,
    tail_contraction,
)
from thinfilm import (
    Bdf2Scheme,
    CoarseningConfig,
    FirstOrderScheme,
    Grid,
    PhysParams,
    SolverConfig,
    SpectralSolver,
    a0_star,
    discrete_energy,
    fit_power_law,
    grad_norm_2,
    inner,
    lap,
    random_initial_data,
    read_energy_log,
    read_field_snapshot,
    restart_state,
    run_coarsening,
    run_convergence_bdf2,
    run_convergence_first_order,
    write_energy_log,
    write_field_snapshot,
)
from thinfilm.cli import main
from thinfilm.energy import mu_first_order
from thinfilm.io import EnergyRecord
from thinfilm.psd import psd_solve


@contextmanager
def criterion(num: int, title: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {title}", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {num}: {title} ({elapsed:.1f}s)", flush=True)


class TestCriterion1Operators:
    def test_operator_identities_against_dense_oracles(self):
        with criterion(1, "stencil operators match dense oracles; duality holds"):
            for dim, n in ((2, 8), (3, 6)):
                grid = Grid(dim, n, 1.3)
                rng = np.random.default_rng(dim)
                u = rng.standard_normal(grid.shape)
                grads = dense_grad_matrices(grid)
                neg_lap = dense_neg_lap_matrix(grid)
                assert np.max(
                    np.abs(lap(grid, u).ravel() + neg_lap @ u.ravel())
                ) <= 1e-11
                dense_grad_norm = np.sqrt(grid.cell_volume * sum(
                    float(np.sum((g @ u.ravel()) ** 2)) for g in grads
                ))
                assert abs(grad_norm_2(grid, u) - dense_grad_norm) <= 1e-11
                # spectral inverse agrees with the dense pseudoinverse
                solver = SpectralSolver(grid)
                w = u - np.mean(u)
                psi_dense = (np.linalg.pinv(neg_lap) @ w.ravel()).reshape(
                    grid.shape
                )
                assert np.max(np.abs(solver.inv_neg_lap(w) - psi_dense)) <= 1e-11

            # summation by parts: -<u, lap v> = h^dim sum_d <G_d u, G_d v>
            for case in range(100):
                rng = np.random.default_rng(5000 + case)
                dim = int(rng.integers(1, 4))
                n = int(rng.integers(3, 9))
                grid = Grid(dim, n, float(rng.uniform(0.5, 3.0)))
                u = rng.standard_normal(grid.shape)
                v = rng.standard_normal(grid.shape)
                lhs = -inner(grid, u, lap(grid, v))
                rhs = grid.cell_volume * sum(
                    float((g @ u.ravel()) @ (g @ v.ravel()))
                    for g in dense_grad_matrices(grid)
                )
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestCriterion2FirstOrderConvergence:
    def test_temporal_order_one(self):
        with criterion(2, "one-step scheme is first order in time"):
            table = run_convergence_first_order(
                n=128, nt_values=(100, 200, 400, 800), eps=0.5, t_final=1.0
            )
            print(f"temporal slope (l2): {table.slope_l2:.4f}", flush=True)
            assert -1.15 <= table.slope_l2 <= -0.85
            errors = table.errors_l2
            assert errors[0] > errors[1] > errors[2] > errors[3]


class TestCriterion3Bdf2Convergence:
    def test_space_time_order_two(self):
        with criterion(3, "two-step scheme is second order under dt = h/2"):
            table = run_convergence_bdf2(
                n_values=(32, 48, 64, 96), eps=0.5, t_final=1.0, dt_factor=0.5
            )
            print(
                f"space-time slopes: l2 {table.slope_l2:.4f}, "
                f"linf {table.slope_linf:.4f}",
                flush=True,
            )
            assert -2.2 <= table.slope_l2 <= -1.8
            assert -2.2 <= table.slope_linf <= -1.8


class TestCriterion4StructurePreservation:
    def test_mass_positivity_energy_over_200_steps(self):
        with criterion(
            4, "200 steps conserve mass, keep positivity, dissipate energy"
        ):
            grid = Grid(2, 64, 1.0)
            params = PhysParams(eps=0.1)
            dt = 1e-3
            phi0 = random_initial_data(grid, 0)

            fo = FirstOrderScheme(grid, params)
            state = restart_state(grid, phi0)
            beta0 = state.beta0
            energy = discrete_energy(grid, phi0, params.eps)
            for _ in range(200):
                prev_energy = energy
                prev_phi = state.phi
                state, report = fo.step(state, dt)
                assert report.min_phi > 0.0
                assert report.mass_drift <= 1e-10 * max(1.0, abs(beta0))
                mu = mu_first_order(grid, state.phi, prev_phi, params.eps)
                dissipation = dt * grad_norm_2(grid, mu) ** 2
                assert report.energy + dissipation <= prev_energy + 1e-8 * (
                    1.0 + abs(prev_energy)
                )
                energy = report.energy

            bdf2 = Bdf2Scheme(grid, params)
            state = restart_state(grid, phi0)
            modified_prev = None
            for _ in range(200):
                state, report = bdf2.step(state, dt)
                assert report.min_phi > 0.0
                assert report.mass_drift <= 1e-10 * max(1.0, abs(beta0))
                if modified_prev is not None:
                    assert report.modified_energy <= modified_prev + 1e-8 * (
                        1.0 + abs(modified_prev)
                    )
                modified_prev = report.modified_energy


class TestCriterion5DescentSolver:
    """The solver on a real film step, with the step functional recorded at
    every iterate by oracles.record_functional."""

    def test_standard_step_solve_quality(self):
        with criterion(
            5, "descent meets 1e-9 within 100 iterations, monotone, contracting"
        ):
            grid = Grid(2, 64, 1.0)
            params = PhysParams(eps=0.1)
            scheme = FirstOrderScheme(grid, params)
            phi_old = random_initial_data(grid, 0)
            system = scheme.step_system_from(phi_old, 1e-3)
            fv = record_functional(
                system, lambda phi: step_functional(system, phi), phi_old
            )
            cfg = SolverConfig(tol=1e-9, max_iters=100)
            phi, trace = psd_solve(system, phi_old, cfg)
            assert trace.residual_norms[-1] < 1e-9
            assert trace.iterations <= 100
            assert len(fv) == trace.iterations + 1
            assert all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(fv, fv[1:]))
            tail = tail_contraction(trace)
            assert tail is not None and tail <= 0.95
            assert np.all(phi > 0.0)


class TestCriterion6ConvexitySplit:
    def test_stabilization_constant_is_sharp(self):
        with criterion(6, "stabilized core is convex exactly above a0_star"):
            x = np.geomspace(1e-2, 1e2, 200001)
            at_star = float(np.min(potential_curvature(x, a0_star())))
            below = float(np.min(potential_curvature(x, a0_star() - 0.01)))
            assert at_star >= -1e-10
            assert below < 0.0


@pytest.mark.slow
class TestCriterion7Coarsening:
    def test_coarsening_energy_decay(self):
        with criterion(
            7, "coarsening run dissipates energy with a power-law tail"
        ):
            config = CoarseningConfig(t_end=100.0, snapshot_times=(6.0, 20.0, 100.0))
            run = run_coarsening(config)
            assert run.final_t == pytest.approx(100.0, abs=1e-9)
            energies = [r.energy for r in run.records]
            for before, after in zip(energies, energies[1:]):
                assert after <= before + 1e-8 * (1.0 + abs(before))
            assert all(r.min_phi > 0.0 for r in run.records)
            masses = [r.mass for r in run.records]
            # run-level budget: per-step rounding drift accumulates over 1e5 steps
            assert max(masses) - min(masses) <= 1e-9 * max(1.0, abs(masses[0]))
            times = [r.t for r in run.records]
            excess = [e + run.grid.volume for e in energies]
            amplitude, exponent = fit_power_law(times, excess, 1.0, 100.0)
            print(
                f"coarsening fit on [1, 100]: excess ~ "
                f"{amplitude:.4f} * t^{exponent:.4f}",
                flush=True,
            )
            assert -0.35 <= exponent <= -0.05


class TestCriterion8Artifacts:
    def test_reproducible_io_and_cli(self, tmp_path):
        with criterion(8, "artifacts are bitwise reproducible and self-checking"):
            grid = Grid(2, 32, 1.0)
            values = random_initial_data(grid, 11)
            snap_a = tmp_path / "a.tfgf"
            snap_b = tmp_path / "b.tfgf"
            write_field_snapshot(snap_a, grid, values, 0.75)
            write_field_snapshot(snap_b, grid, values, 0.75)
            assert snap_a.read_bytes() == snap_b.read_bytes()
            grid2, values2, t2 = read_field_snapshot(snap_a)
            assert grid2 == grid and t2 == 0.75
            assert np.array_equal(values2, values)

            records = [
                EnergyRecord(0.0, -1.0, float("nan"), 2.0, 1.9, 0, float("nan")),
                EnergyRecord(1e-3, -1.25, -1.2, 2.0, 1.8, 21, 7.7e-10),
            ]
            csv_a = tmp_path / "a.csv"
            csv_b = tmp_path / "b.csv"
            write_energy_log(csv_a, records)
            write_energy_log(csv_b, read_energy_log(csv_a))
            assert csv_a.read_bytes() == csv_b.read_bytes()

            out_a, out_b = tmp_path / "run-a", tmp_path / "run-b"
            args = ["step", "--n", "32", "--eps", "0.1", "--dt", "0.001",
                    "--seed", "5"]
            assert main(args + ["--outdir", str(out_a)]) == 0
            assert main(args + ["--outdir", str(out_b)]) == 0
            assert (out_a / "out.tfgf").read_bytes() == (
                out_b / "out.tfgf"
            ).read_bytes()
