"""Positivity-preserving, energy-stable solvers for a thin-film gradient flow.

The model evolves a strictly positive film height on a periodic staggered
grid by an H^-1 gradient flow of the energy

    F(phi) = integral of (1/3) phi^-8 - (4/3) phi^-2 + (eps^2/2) |grad phi|^2.

Two implicit steppers are provided: a first-order convex-splitting scheme
and a second-order stabilized BDF2 scheme.  Both keep the solution positive
and dissipate a (modified) energy for any time step, and both reduce each
step to a convex minimization solved by preconditioned nonlinear CG (PR+)
with a positivity-respecting line search.
"""

from .energy import (
    PhysParams,
    a0_star,
    discrete_energy,
    modified_energy,
    mu_exact,
)
from .errors import (
    BarrierCollapseError,
    ConfigError,
    FormatError,
    InsufficientDataError,
    InvalidCoefficientsError,
    NonPositiveFieldError,
    NonPositiveValueError,
    NonZeroMeanError,
    PositivityLostError,
    SolverDivergedError,
    ThinFilmError,
    UnfinishedError,
)
from .experiments import (
    CoarseningConfig,
    CoarseningRun,
    ConvergenceTable,
    ManufacturedSolution,
    fit_power_law,
    random_initial_data,
    run_coarsening,
    run_convergence_bdf2,
    run_convergence_first_order,
)
from .grid import (
    Grid,
    grad_norm_2,
    inner,
    lap,
    norm_inf,
    norm_2,
)
from .io import (
    EnergyRecord,
    format_float,
    load_config,
    read_energy_log,
    read_field_snapshot,
    write_energy_log,
    write_field_snapshot,
)
from .psd import PsdTrace, SolverConfig
from .schemes import (
    Bdf2Scheme,
    FirstOrderScheme,
    StepReport,
    StepState,
    restart_state,
)
from .spectral import SpectralSolver

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "lap",
    "inner",
    "norm_2",
    "norm_inf",
    "grad_norm_2",
    "SpectralSolver",
    "PhysParams",
    "a0_star",
    "discrete_energy",
    "modified_energy",
    "mu_exact",
    "SolverConfig",
    "PsdTrace",
    "FirstOrderScheme",
    "Bdf2Scheme",
    "StepState",
    "StepReport",
    "restart_state",
    "ManufacturedSolution",
    "ConvergenceTable",
    "run_convergence_first_order",
    "run_convergence_bdf2",
    "random_initial_data",
    "fit_power_law",
    "CoarseningConfig",
    "CoarseningRun",
    "run_coarsening",
    "EnergyRecord",
    "format_float",
    "write_field_snapshot",
    "read_field_snapshot",
    "write_energy_log",
    "read_energy_log",
    "load_config",
    "ThinFilmError",
    "NonZeroMeanError",
    "InvalidCoefficientsError",
    "NonPositiveFieldError",
    "PositivityLostError",
    "SolverDivergedError",
    "BarrierCollapseError",
    "InsufficientDataError",
    "NonPositiveValueError",
    "ConfigError",
    "FormatError",
    "UnfinishedError",
    "__version__",
]
