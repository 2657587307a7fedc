"""One table of refused inputs: every entry point x every bad value.

The package checks each scalar input with one of three shared rules in
``thinfilm.errors``: positive and finite, non-negative and finite (both
for reals, never a bool), or an integer count (never a bool) at least a
bound.  Each row names an entry point, the input it takes and the rule's
name for it; every bad value must raise the typed error, with the message
naming that input, so a refusal for some other reason does not count.  A
study refuses a bad step count before its first step.
"""

import math

import numpy as np
import pytest

from thinfilm import (
    Bdf2Scheme,
    CoarseningConfig,
    ConfigError,
    FirstOrderScheme,
    Grid,
    InvalidCoefficientsError,
    PhysParams,
    SolverConfig,
    SpectralSolver,
    discrete_energy,
    modified_energy,
    mu_exact,
    random_initial_data,
    restart_state,
    run_convergence_bdf2,
    run_convergence_first_order,
)

GRID = Grid(2, 8, 1.0)
PHI = 1.0 + 0.1 * np.cos(2.0 * np.pi * GRID.coordinates()[0])


def first_order_step(dt):
    FirstOrderScheme(GRID, PhysParams(0.1)).step(restart_state(GRID, PHI), dt)


def bdf2_step(dt):
    Bdf2Scheme(GRID, PhysParams(0.1)).step(restart_state(GRID, PHI), dt)


def bdf2_cold_start(dt):
    Bdf2Scheme(GRID, PhysParams(0.1)).cold_start(PHI, dt)


def first_order_study(**kwargs):
    run_convergence_first_order(**{"n": 8, "nt_values": (2, 4, 8), **kwargs})


def bdf2_study(**kwargs):
    run_convergence_bdf2(**{"n_values": (8, 16, 32), **kwargs})


# (label, entry point taking the bad value, name in the message, error type)
POSITIVE_FINITE = [
    ("Grid.length", lambda v: Grid(2, 8, v), "length", ConfigError),
    ("PhysParams.eps", lambda v: PhysParams(v), "eps", ConfigError),
    ("PhysParams.a0", lambda v: PhysParams(0.1, a0=v), "a0", ConfigError),
    ("SolverConfig.tol", lambda v: SolverConfig(tol=v), "tol", ConfigError),
    ("FirstOrderScheme.step", first_order_step, "dt", InvalidCoefficientsError),
    ("Bdf2Scheme.step", bdf2_step, "dt", InvalidCoefficientsError),
    ("Bdf2Scheme.cold_start", bdf2_cold_start, "dt", InvalidCoefficientsError),
    ("modified_energy.dt",
     lambda v: modified_energy(SpectralSolver(GRID), PHI, PHI, 1.0, v, 0.0), "dt",
     InvalidCoefficientsError),
    ("modified_energy.a0",
     lambda v: modified_energy(SpectralSolver(GRID), PHI, PHI, v, 1e-3, 0.0), "a0",
     InvalidCoefficientsError),
    ("discrete_energy.eps", lambda v: discrete_energy(GRID, PHI, v), "eps", ConfigError),
    ("mu_exact.eps", lambda v: mu_exact(GRID, PHI, v), "eps", ConfigError),
    ("CoarseningConfig.length", lambda v: CoarseningConfig(length=v), "length", ConfigError),
    ("CoarseningConfig.eps", lambda v: CoarseningConfig(eps=v), "eps", ConfigError),
    ("first_order_study.t_final", lambda v: first_order_study(t_final=v), "t_final",
     ConfigError),
    ("bdf2_study.t_final", lambda v: bdf2_study(t_final=v), "t_final", ConfigError),
    ("bdf2_study.dt_factor", lambda v: bdf2_study(dt_factor=v), "dt_factor",
     ConfigError),
]

# (label, entry point taking the bad value, name in the message)
NONNEGATIVE_FINITE = [
    ("PhysParams.a_stab", lambda v: PhysParams(0.1, a_stab=v), "a_stab"),
    ("restart_state.t", lambda v: restart_state(GRID, PHI, v), "t"),
]

# (label, entry point taking the bad value, name in the message, lowest count)
COUNTS = [
    ("Grid.dim", lambda v: Grid(v, 8, 1.0), "dim", 1),
    ("Grid.n", lambda v: Grid(2, v, 1.0), "n", 2),
    ("SolverConfig.max_iters", lambda v: SolverConfig(max_iters=v), "max_iters", 1),
    ("first_order_study.nt_values", lambda v: first_order_study(nt_values=(20, 40, v)),
     "step count", 1),
    ("random_initial_data.seed", lambda v: random_initial_data(GRID, v), "seed", 0),
    ("CoarseningConfig.record_every_late",
     lambda v: CoarseningConfig(record_every_late=v), "record_every_late", 1),
    ("CoarseningConfig.n", lambda v: CoarseningConfig(n=v), "n", 2),
    ("CoarseningConfig.seed", lambda v: CoarseningConfig(seed=v), "seed", 0),
]

CASES = [
    pytest.param(call, name, error, value, id=f"{label}={value!r}")
    for label, call, name, error in POSITIVE_FINITE
    for value in (0.0, -1.0, math.nan, math.inf, True, "1")
] + [
    pytest.param(call, name, ConfigError, value, id=f"{label}={value!r}")
    for label, call, name in NONNEGATIVE_FINITE
    for value in (-1.0, math.nan, math.inf, True, "1")
] + [
    pytest.param(call, name, ConfigError, value, id=f"{label}={value!r}")
    for label, call, name, low in COUNTS
    for value in (True, 2.5, low - 1)
]


@pytest.mark.parametrize("call, name, error, value", CASES)
def test_bad_input_is_refused(call, name, error, value):
    with pytest.raises(error, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("real", [np.float32, np.float64])
def test_numpy_floats_pass_the_positive_finite_rule(real):
    assert Grid(2, 8, real(2.0)).length == 2.0
    assert PhysParams(real(0.1), a0=real(1.0)).a0 == 1.0
    assert PhysParams(real(0.1), a_stab=real(0.0)).a_stab == 0.0
    assert SolverConfig(tol=real(0.5)).tol == 0.5
    bdf2_cold_start(real(1e-6))


def test_fractional_step_count_is_refused_before_the_first_step(monkeypatch):
    steps = []
    step = FirstOrderScheme.step

    def counted(self, *args, **kwargs):
        steps.append(args)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(FirstOrderScheme, "step", counted)
    with pytest.raises(ConfigError, match="^step count must be an integer >= 1, got 2.5$"):
        run_convergence_first_order(n=8, nt_values=(20, 40, 2.5))
    assert steps == []
