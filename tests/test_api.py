"""The package's public names, pinned, and the signatures read by position.

Adding or removing a public name has to change the list below, so every
change to the API surface shows up in review.  The benchmark's tracer reads
the barrier of ``line_search`` as its second positional argument, so that
signature is pinned too.
"""

import inspect

import thinfilm

PUBLIC_NAMES = [
    "BarrierCollapseError",
    "Bdf2Scheme",
    "CoarseningConfig",
    "CoarseningRun",
    "ConfigError",
    "ConvergenceTable",
    "DEFAULT_SCHEDULE",
    "DEFAULT_SNAPSHOT_TIMES",
    "EnergyRecord",
    "FirstOrderScheme",
    "FormatError",
    "Grid",
    "InsufficientDataError",
    "InvalidCoefficientsError",
    "ManufacturedSolution",
    "NonPositiveFieldError",
    "NonPositiveValueError",
    "NonZeroMeanError",
    "PhysParams",
    "PositivityLostError",
    "PsdTrace",
    "SolverConfig",
    "SolverDivergedError",
    "SpectralSolver",
    "StepReport",
    "StepState",
    "ThinFilmError",
    "UnfinishedError",
    "__version__",
    "a0_star",
    "barrier_alpha",
    "check_positive",
    "discrete_energy",
    "fit_power_law",
    "format_float",
    "grad_norm_2",
    "initial_state",
    "inner",
    "lap",
    "line_search",
    "load_config",
    "modified_energy",
    "mu_bdf2",
    "mu_exact",
    "mu_first_order",
    "norm_2",
    "norm_inf",
    "psd_solve",
    "random_initial_data",
    "read_energy_log",
    "read_field_snapshot",
    "restart_state",
    "run_coarsening",
    "run_convergence_bdf2",
    "run_convergence_first_order",
    "splitting_first_order",
    "splitting_stabilized",
    "write_energy_log",
    "write_field_snapshot",
]


def test_public_names_are_pinned_unique_and_resolve():
    names = thinfilm.__all__
    assert sorted(names) == PUBLIC_NAMES
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(thinfilm, name)]
    assert missing == []


def test_line_search_signature_is_pinned():
    """(g, alpha_barrier, g0): no tolerance knob, barrier second, and the
    pair at alpha = 0 always supplied by the caller."""
    params = inspect.signature(thinfilm.line_search).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        ("g", empty),
        ("alpha_barrier", empty),
        ("g0", empty),
    ]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
