"""One table of refused inputs: every entry point x every bad value.

The package checks each scalar input with one of four shared rules in
``thinfilm.errors``: positive and finite, non-negative and finite, a real
in [low, inf] (all three for reals, never a bool), or an integer count
(never a bool, nor an integral float) at least a bound.  Each row names an
entry point, the input it takes and the rule's name for it; every bad
value must raise the typed error, with the message naming that input, so a
refusal for some other reason does not count.  A study refuses a bad step
count before its first step.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from thinfilm import (
    Bdf2Scheme,
    CoarseningConfig,
    ConfigError,
    FirstOrderScheme,
    Grid,
    InvalidCoefficientsError,
    ManufacturedSolution,
    PhysParams,
    SolverConfig,
    SpectralSolver,
    discrete_energy,
    fit_power_law,
    modified_energy,
    mu_exact,
    random_initial_data,
    restart_state,
    run_convergence_bdf2,
    run_convergence_first_order,
    write_field_snapshot,
)

GRID = Grid(2, 8, 1.0)
PHI = 1.0 + 0.1 * np.cos(2.0 * np.pi * GRID.coordinates()[0])
# A refused time writes nothing; one let through fails on the missing folder.
NOWHERE = Path(__file__).with_name("no-such-folder") / "field.tfgf"
TIMES = np.geomspace(1.0, 100.0, 5)


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
    ("CoarseningConfig.t_end", lambda v: CoarseningConfig(t_end=v), "t_end", ConfigError),
    ("ManufacturedSolution.forcing.eps",
     lambda v: ManufacturedSolution().forcing(GRID, v, 0.0), "eps", ConfigError),
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
    ("ManufacturedSolution.sample.t",
     lambda v: ManufacturedSolution().sample(GRID, v), "t"),
    ("ManufacturedSolution.forcing.t",
     lambda v: ManufacturedSolution().forcing(GRID, 0.5, v), "t"),
    ("write_field_snapshot.t", lambda v: write_field_snapshot(NOWHERE, GRID, PHI, v),
     "snapshot time"),
]

# (label, entry point taking the value, name in the message, low, values admitted)
REALS = [
    ("CoarseningConfig.schedule.end",
     lambda v: CoarseningConfig(schedule=((100.0, 0.001), (v, 0.02))), "schedule",
     -math.inf, (math.inf,)),
    ("CoarseningConfig.schedule.dt",
     lambda v: CoarseningConfig(schedule=((100.0, 0.001), (6000.0, v))), "schedule",
     -math.inf, (math.inf,)),
    ("CoarseningConfig.record_cutoff", lambda v: CoarseningConfig(record_cutoff=v),
     "record_cutoff", -math.inf, (-math.inf, math.inf)),
    ("CoarseningConfig.snapshot_times",
     lambda v: CoarseningConfig(snapshot_times=(6.0, v)), "snapshot_times", -math.inf,
     (-math.inf, math.inf)),
    ("CoarseningConfig.wall_clock_budget",
     lambda v: CoarseningConfig(wall_clock_budget=v), "wall_clock_budget", 0.0,
     (0.0, math.inf)),
    ("fit_power_law.t_min", lambda v: fit_power_law(TIMES, TIMES, v, 100.0), "t_min", 0.0,
     (0.0,)),
    ("fit_power_law.t_max", lambda v: fit_power_law(TIMES, TIMES, 1.0, v), "t_max", 0.0,
     (math.inf,)),
    ("modified_energy.energy",
     lambda v: modified_energy(SpectralSolver(GRID), PHI, PHI, 1.0, 1e-3, v), "energy",
     -math.inf, (-math.inf, math.inf)),
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
    for label, call, name, low, _ in REALS
    for value in (math.nan, True, "1") + ((low - 1.0,) if low > -math.inf else ())
] + [
    # An integral float is no count either: low + 2 passes as an integer.
    pytest.param(call, name, ConfigError, value, id=f"{label}={value!r}")
    for label, call, name, low in COUNTS
    for value in (True, 2.5, low - 1, float(low + 2))
] + [
    pytest.param(lambda v: Grid(v, 8, 1.0), "dim", ConfigError, 4, id="Grid.dim=4"),
]


@pytest.mark.parametrize("call, name, error, value", CASES)
def test_bad_input_is_refused(call, name, error, value):
    with pytest.raises(error, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{label}={value!r}")
    for label, call, _, _, admitted in REALS
    for value in admitted
])
def test_the_real_rule_admits_inf_and_its_finite_low(call, value):
    call(value)


@pytest.mark.parametrize("real, integer", [(np.float32, np.int32), (np.float64, np.int64)])
def test_numpy_scalars_pass_the_rules(real, integer):
    assert Grid(integer(2), integer(8), real(2.0)).shape == (8, 8)
    assert PhysParams(real(0.1), a0=real(1.0)).a0 == 1.0
    assert PhysParams(real(0.1), a_stab=real(0.0)).a_stab == 0.0
    assert SolverConfig(tol=real(0.5), max_iters=integer(3)).max_iters == 3
    CoarseningConfig(n=integer(8), seed=integer(1), record_every_late=integer(2),
                     wall_clock_budget=real(5.0))
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
