"""Fast built-in invariant checks behind the ``selftest`` CLI command.

Each check is a small self-contained function raising AssertionError with
a diagnostic message on failure.  The suite touches every layer (operators,
spectral solves, energies, line search, steppers, file formats) in a few
seconds; it is a smoke screen, not a substitute for the test suite.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from . import io as tfio
from .energy import (
    PhysParams,
    a0_star,
    discrete_energy,
    modified_energy,
    mu_first_order,
    potential_curvature,
    splitting_first_order,
)
from .experiments import random_initial_data
from .grid import Grid, div, grad, grad_norm_2, inner, inner_face, lap, mean, norm_2
from .psd import line_search, psd_solve
from .schemes import Bdf2Scheme, FirstOrderScheme, initial_state, restart_state
from .spectral import SpectralSolver, dense_neg_lap_matrix


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def check_summation_by_parts() -> None:
    for dim, n in ((2, 12), (3, 6)):
        grid = Grid(dim, n, 1.7)
        rng = _rng(10 + dim)
        psi = rng.standard_normal(grid.shape)
        f = tuple(rng.standard_normal(grid.shape) for _ in range(dim))
        lhs = inner(grid, psi, div(grid, f))
        rhs = -inner_face(grid, grad(grid, psi), f)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs)), f"sbp broke: {lhs} vs {rhs}"


def check_div_grad_is_lap() -> None:
    grid = Grid(2, 16, 2.0)
    u = _rng(11).standard_normal(grid.shape)
    err = np.max(np.abs(div(grid, grad(grid, u)) - lap(grid, u)))
    assert err <= 1e-11, f"div(grad) vs lap mismatch {err}"


def check_spectral_roundtrip() -> None:
    grid = Grid(2, 24, 1.0)
    solver = SpectralSolver(grid)
    f = _rng(12).standard_normal(grid.shape)
    f -= np.mean(f)
    psi = solver.inv_neg_lap(f)
    err = norm_2(grid, -lap(grid, psi) - f) / norm_2(grid, f)
    assert err <= 1e-11, f"spectral roundtrip residual {err}"
    assert abs(mean(grid, psi)) <= 1e-12


def check_spectral_dense_oracle() -> None:
    grid = Grid(2, 6, 1.3)
    solver = SpectralSolver(grid)
    f = _rng(13).standard_normal(grid.shape)
    f -= np.mean(f)
    dense = np.linalg.pinv(dense_neg_lap_matrix(grid)) @ f.ravel()
    err = np.max(np.abs(solver.inv_neg_lap(f).ravel() - dense))
    assert err <= 1e-11, f"dense oracle mismatch {err}"


def check_preconditioner_inverse() -> None:
    grid = Grid(2, 16, 1.0)
    solver = SpectralSolver(grid)
    r = _rng(14).standard_normal(grid.shape)
    r -= np.mean(r)
    a0c, a1c, a2c = 10.0, 1.0, 0.25
    d = solver.solve_preconditioner(r, a0c, a1c, a2c)
    back = a0c * solver.inv_neg_lap(d) + a1c * d - a2c * lap(grid, d)
    err = norm_2(grid, back - r) / norm_2(grid, r)
    assert err <= 1e-11, f"preconditioner inverse residual {err}"


def check_energy_constant_field() -> None:
    grid = Grid(2, 8, 2.0)
    c = 1.7
    phi = np.full(grid.shape, c)
    expected = (c**-8 / 3.0 - (4.0 / 3.0) * c**-2) * grid.volume
    got = discrete_energy(grid, phi, 0.3)
    assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected)), f"{got} vs {expected}"
    fc, fe = splitting_first_order(grid, phi, 0.3)
    assert abs((fc - fe) - got) <= 1e-12 * (1.0 + abs(got))


def check_curvature_constant() -> None:
    x = np.logspace(-2, 2, 4001)
    assert float(np.min(potential_curvature(x, a0_star()))) >= -1e-10
    assert float(np.min(potential_curvature(x, a0_star() - 0.01))) < 0.0


def check_bulk_derivative() -> None:
    grid = Grid(2, 8, 1.0)
    rng = _rng(15)
    phi = 1.5 + 0.3 * rng.random(grid.shape)
    psi = rng.standard_normal(grid.shape)
    s = 1e-5

    def bulk(p):
        inv = 1.0 / p
        inv2 = inv * inv
        inv8 = (inv2 * inv2) * (inv2 * inv2)
        return inner(grid, inv8, np.ones(grid.shape)) / 3.0

    inv = 1.0 / phi
    inv3 = inv * inv * inv
    analytic = inner(grid, -(8.0 / 3.0) * inv3 * inv3 * inv3, psi)
    numeric = (bulk(phi + s * psi) - bulk(phi - s * psi)) / (2.0 * s)
    err = abs(analytic - numeric) / (1.0 + abs(analytic))
    assert err <= 1e-6, f"bulk derivative mismatch {err}"


def check_line_search_roots() -> None:
    # Each root through the Newton path and through the slope-free path.
    s = 0.37
    exact = 1.0 - (1.0 + s) ** (-1.0 / 9.0)
    cases = (
        (lambda t: t - 1.0, lambda t: 1.0, math.inf, 1.0, "t-1"),
        (lambda t: t**3 - 8.0, lambda t: 3.0 * t**2, math.inf, 2.0, "t^3-8"),
        (
            lambda t: (1.0 - t) ** -9.0 - 1.0 - s,
            lambda t: 9.0 * (1.0 - t) ** -10.0,
            1.0,
            exact,
            "barrier",
        ),
    )
    for f, df, barrier, root, name in cases:
        for slope in (df, lambda t: math.nan):
            a = line_search(lambda t: (f(t), slope(t)), barrier)
            assert abs(a - root) <= 1e-10, f"root of {name}: {a} vs {root}"


def check_descent_on_standard_step() -> None:
    grid = Grid(2, 32, 1.0)
    scheme = FirstOrderScheme(grid, PhysParams(0.5))
    phi_old = random_initial_data(grid, 0)
    system = scheme.step_system_from(phi_old, 1e-2)
    phi, trace = psd_solve(
        grid, system.residual, system.precondition, system.phi_init,
        scheme.psd_config, functional=system.functional,
    )
    assert trace.residual_norms[-1] <= 1e-9
    assert trace.iterations <= 100, f"{trace.iterations} iterations"
    values = np.asarray(trace.functional_values)
    rises = np.diff(values) > 1e-12 * (1.0 + np.abs(values[:-1]))
    assert not np.any(rises), "step functional rose along the descent"
    assert np.all(phi > 0.0)


def check_first_order_invariants() -> None:
    grid = Grid(2, 24, 1.0)
    scheme = FirstOrderScheme(grid, PhysParams(0.1))
    state = initial_state(grid, random_initial_data(grid, 3))
    energy_prev = discrete_energy(grid, state.phi, 0.1)
    for _ in range(10):
        state, report = scheme.step(state, 1e-3)
        assert report.min_phi > 0.0
        assert report.mass_drift <= 1e-10
        mu = mu_first_order(grid, state.phi, state.phi_prev, 0.1)
        decay = report.energy + 1e-3 * grad_norm_2(grid, mu) ** 2
        assert decay <= energy_prev + 1e-8 * (1.0 + abs(energy_prev))
        energy_prev = report.energy


def check_bdf2_invariants() -> None:
    grid = Grid(2, 24, 1.0)
    params = PhysParams(0.1)
    scheme = Bdf2Scheme(grid, params)
    state = restart_state(grid, random_initial_data(grid, 4))
    dt = 1e-3
    prev_modified = modified_energy(
        grid, scheme.solver, state.phi, state.phi_prev, 0.1, params.a0, dt
    )
    for _ in range(8):
        state, report = scheme.step(state, dt)
        assert report.min_phi > 0.0
        assert report.mass_drift <= 1e-10
        assert report.modified_energy <= prev_modified + 1e-8 * (
            1.0 + abs(prev_modified)
        )
        prev_modified = report.modified_energy


def check_snapshot_roundtrip() -> None:
    grid = Grid(2, 6, 12.8)
    values = _rng(16).random(grid.shape) + 1.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.tfgf"
        tfio.write_field_snapshot(path, grid, values, 3.25)
        grid2, values2, t2 = tfio.read_field_snapshot(path)
        assert grid2 == grid and t2 == 3.25
        assert values2.tobytes() == values.tobytes(), "snapshot not bitwise stable"


def check_energy_log_fixpoint() -> None:
    records = [
        tfio.EnergyRecord(0.1, -54.25, float("nan"), 2.0, 1.9, 4, 1e-10),
        tfio.EnergyRecord(0.2, -54.5, -54.1, 2.0, 1.85, 5, 2e-11),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "energy.csv"
        tfio.write_energy_log(path, records)
        first = path.read_bytes()
        tfio.write_energy_log(path, tfio.read_energy_log(path))
        assert path.read_bytes() == first, "energy log is not a parse-print fixpoint"


CHECKS = (
    ("summation_by_parts", check_summation_by_parts),
    ("div_grad_is_lap", check_div_grad_is_lap),
    ("spectral_roundtrip", check_spectral_roundtrip),
    ("spectral_dense_oracle", check_spectral_dense_oracle),
    ("preconditioner_inverse", check_preconditioner_inverse),
    ("energy_constant_field", check_energy_constant_field),
    ("curvature_constant", check_curvature_constant),
    ("bulk_derivative", check_bulk_derivative),
    ("line_search_roots", check_line_search_roots),
    ("descent_on_standard_step", check_descent_on_standard_step),
    ("first_order_invariants", check_first_order_invariants),
    ("bdf2_invariants", check_bdf2_invariants),
    ("snapshot_roundtrip", check_snapshot_roundtrip),
    ("energy_log_fixpoint", check_energy_log_fixpoint),
)


def run_selftest(out=print) -> bool:
    """Run every check; report one line each; True when all passed."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            all_ok = False
            out(f"[FAIL] {name}: {exc}")
        else:
            out(f"[ ok ] {name}")
    return all_ok
