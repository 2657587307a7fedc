"""The package's public names, pinned, and the signatures read by position.

Adding or removing a public name has to change the list below, so every
change to the API surface shows up in review, and no other public attribute
may stay reachable on the package.  The solver internals and test oracles
that the benchmark's tracer and workloads look up live in their own modules
only; the tracer reads the barrier of ``psd.line_search`` as its second
positional argument, so that signature is pinned too.
"""

import inspect
import types

import pytest

import thinfilm
from thinfilm import energy, errors, psd, schemes

PUBLIC_NAMES = [
    "BarrierCollapseError",
    "Bdf2Scheme",
    "CoarseningConfig",
    "CoarseningRun",
    "ConfigError",
    "ConvergenceTable",
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
    "discrete_energy",
    "fit_power_law",
    "format_float",
    "grad_norm_2",
    "inner",
    "lap",
    "load_config",
    "modified_energy",
    "mu_exact",
    "norm_2",
    "norm_inf",
    "random_initial_data",
    "read_energy_log",
    "read_field_snapshot",
    "restart_state",
    "run_coarsening",
    "run_convergence_bdf2",
    "run_convergence_first_order",
    "write_energy_log",
    "write_field_snapshot",
]


# Solver internals, test oracles, an input rule and the alias the benchmark
# calls: each lives in the module named here, and the package does not
# export it.
MODULE_ONLY = {
    "psd_solve": psd,
    "line_search": psd,
    "barrier_alpha": psd,
    "mu_first_order": energy,
    "mu_bdf2": energy,
    "splitting_first_order": energy,
    "splitting_stabilized": energy,
    "check_positive": errors,
    "initial_state": schemes,
}


def test_public_names_are_pinned_unique_and_resolve():
    names = thinfilm.__all__
    assert sorted(names) == PUBLIC_NAMES
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(thinfilm, name)]
    assert missing == []


def test_no_public_attribute_outside_all():
    """A leftover import cannot keep a retired name reachable: every
    attribute of the package without a leading underscore is a submodule
    or a name of ``__all__``."""
    stray = [
        name for name, value in vars(thinfilm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
        and name not in thinfilm.__all__
    ]
    assert stray == []


def test_module_only_names_resolve_in_their_modules_only():
    for name, module in MODULE_ONLY.items():
        assert callable(getattr(module, name)), name
        with pytest.raises(AttributeError):
            getattr(thinfilm, name)
    assert schemes.initial_state is schemes.restart_state


def test_line_search_signature_is_pinned():
    """(g, alpha_barrier, g0): no tolerance knob, barrier second, and the
    pair at alpha = 0 always supplied by the caller."""
    params = inspect.signature(psd.line_search).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        ("g", empty),
        ("alpha_barrier", empty),
        ("g0", empty),
    ]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
