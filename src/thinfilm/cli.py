"""Command line driver.

Subcommands:

    converge1   temporal accuracy study of the one-step scheme (unit square)
    converge2   space-time accuracy study of the two-step scheme (unit square)
    coarsen     droplet coarsening run: energy log, snapshots, power-law fit
    step        advance a single implicit step (debugging aid)

Every option that feeds a library call takes that call's default, and the
runners build each call from the options that feed it.  Options may also
be supplied through ``--config FILE`` holding key=value lines.  A key is a
flag without its dashes, spelled with underscores or dashes (``n_list`` or
``n-list``), and the same parser reads it as that flag, ahead of the
explicit flags: flags beat file values, file values beat defaults.
Unknown names and prefixes of option names are refused in files and flags
alike; so are a file key ``config`` and a key spelled both ways.  Exit
codes: 0 success, 1 usage or config error (ConfigError, which the configs
raise for values they reject), 2 runtime failure.  Any other exception is
a defect and keeps its traceback.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .energy import PhysParams
from .errors import ConfigError, ThinFilmError
from .experiments import (
    CoarseningConfig,
    fit_power_law,
    random_initial_data,
    run_coarsening,
    run_convergence_bdf2,
    run_convergence_first_order,
)
from .grid import Grid
from .io import (
    format_float,
    load_config,
    read_field_snapshot,
    write_csv,
    write_energy_log,
    write_field_snapshot,
    write_key_values,
)
from .psd import SolverConfig
from .schemes import Bdf2Scheme, FirstOrderScheme, restart_state


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _entries(text: str):
    """The comma-separated entries of text; a blank text has none."""
    parts = text.split(",") if text.strip() else []
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return parts


def _int_list(text: str):
    return [int(part) for part in _entries(text)]


def _float_list(text: str):
    return [float(part) for part in _entries(text)]


def _scheme(text: str):
    if text not in ("fo", "bdf2"):
        raise argparse.ArgumentTypeError(f"must be fo or bdf2, got {text!r}")
    return text


def _call(v, name: str, **extra):
    """Call ``name``, looked up in this module now, with extra and the parsed
    options that feed it, under the parameter names they feed."""
    fed = {
        source[1]: getattr(v, option)
        for option, _, source, _ in _COMMANDS[v.command][2]
        if isinstance(source, tuple) and source[0].__name__ == name
    }
    return globals()[name](**fed, **extra)


def _run_converge(v) -> int:
    """converge1/converge2: print each rung, write convergence.csv and fit.txt."""
    label, study = {"converge1": ("nt", "run_convergence_first_order"),
                    "converge2": ("n", "run_convergence_bdf2")}[v.command]
    table = _call(
        v, study, psd_config=_call(v, "SolverConfig"),
        on_resolution=lambda r, e2, ei: print(
            f"{label}={r} err_l2={e2:.6e} err_linf={ei:.6e}", flush=True
        ),
    )
    outdir = Path(v.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = zip(table.resolutions, table.errors_l2, table.errors_linf)
    write_csv(outdir / "convergence.csv", f"{label},err_l2,err_linf", rows)
    keys = ("slope_l2", "intercept_l2", "slope_linf", "intercept_linf")
    write_key_values(outdir / "fit.txt", {key: getattr(table, key) for key in keys})
    print(f"slope_l2={table.slope_l2:.6f} slope_linf={table.slope_linf:.6f}")
    return 0


def _write_coarsening(outdir: Path, run, t_end: float) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    write_energy_log(outdir / "energy.csv", run.records)
    for i, (t, values) in enumerate(run.snapshots):
        name = f"snapshot_{i:02d}_t{t:.6g}.tfgf"
        write_field_snapshot(outdir / name, run.grid, values, t)
    # Fit the energy measured from the uniform unit film (F + |box|), the
    # series that stays positive while droplets coarsen.
    times = [r.t for r in run.records]
    excess = [r.energy + run.grid.volume for r in run.records]
    window = (1.0, min(100.0, t_end))
    try:
        amp, exponent = fit_power_law(times, excess, *window)
    except ThinFilmError as exc:
        write_key_values(outdir / "fit.txt", {"error": str(exc)})
        print(f"power-law fit skipped: {exc}")
    else:
        fit = dict(series="excess_energy", window_t_min=window[0],
                   window_t_max=window[1], amplitude=amp, exponent=exponent)
        write_key_values(outdir / "fit.txt", fit)
        print(f"excess energy ~ {amp:.4f} * t^{exponent:.4f} on {window}")


def _run_coarsen(v) -> int:
    config = _call(v, "CoarseningConfig", psd=_call(v, "SolverConfig"))
    outdir = Path(v.outdir)
    try:
        run = run_coarsening(
            config,
            progress=lambda steps, t, iters, evals: print(
                f"t={t:.6g} ({steps} steps; last 1000 steps: {iters} CG iterations, "
                f"{evals} line evaluations)",
                flush=True,
            ),
        )
    except ThinFilmError as exc:
        # A budget overrun or a failed step: write what the run has, then
        # exit 2 through main, naming the error's class.
        partial = getattr(exc, "partial", None)
        if partial is not None:
            _write_coarsening(outdir, partial, config.t_end)
        raise
    _write_coarsening(outdir, run, config.t_end)
    print(f"finished at t={run.final_t:.6g} with {len(run.records)} records")
    return 0


def _run_step(v) -> int:
    if v.input is not None:
        grid, phi0, t0 = read_field_snapshot(v.input)
    else:
        grid = Grid(2, v.n, v.length)
        phi0 = random_initial_data(grid, v.seed)
        t0 = 0.0
    kind = FirstOrderScheme if v.scheme == "fo" else Bdf2Scheme
    scheme = kind(grid, PhysParams(v.eps), psd_config=_call(v, "SolverConfig"))
    state, report = scheme.step(restart_state(grid, phi0, t0), v.dt)
    outdir = Path(v.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_field_snapshot(outdir / "out.tfgf", grid, state.phi, state.t)
    print(
        f"t={format_float(state.t)} energy={format_float(report.energy)} "
        f"modified_energy={format_float(report.modified_energy)} "
        f"min_phi={format_float(report.min_phi)} "
        f"psd_iters={report.psd_iters} precond_a1={format_float(report.precond_a1)} "
        f"line_evals={report.line_evals} restarts={report.restarts} capped={report.capped} "
        f"residual={format_float(report.final_residual)} "
        f"mass_drift={format_float(report.mass_drift)}"
    )
    return 0


_SOLVER_OPTS = (
    ("tol", float, (SolverConfig, "tol"), "CG residual tolerance"),
    ("max_iters", int, (SolverConfig, "max_iters"), "CG iteration budget per step"),
)

# command -> (help, runner, options); an option is (name, type, source,
# help), its flag the name with dashes for underscores.  Its source is the
# (call, parameter) pair it feeds, or its default if it feeds no call.
_FO, _BDF2, _CC = run_convergence_first_order, run_convergence_bdf2, CoarseningConfig
_COMMANDS = {
    "converge1": ("temporal accuracy study of the one-step scheme", _run_converge, (
        ("n", int, (_FO, "n"), "cells per direction (desk-scale default; "
                               "the full-scale study uses 256)"),
        ("nt", _int_list, (_FO, "nt_values"), "comma-separated step-count ladder"),
        ("eps", float, (_FO, "eps"), "interface width parameter"),
        ("tf", float, (_FO, "t_final"), "final time"),
        ("outdir", str, "converge1-out", "output directory"),
    ) + _SOLVER_OPTS),
    "converge2": ("space-time accuracy study of the two-step scheme (dt = factor * h)",
                  _run_converge, (
        ("n_list", _int_list, (_BDF2, "n_values"), "comma-separated grid ladder "
         "(desk-scale default; the full-scale study uses 48..192)"),
        ("eps", float, (_BDF2, "eps"), "interface width parameter"),
        ("tf", float, (_BDF2, "t_final"), "final time"),
        ("dt_factor", float, (_BDF2, "dt_factor"), "time step as a fraction of h"),
        ("a0", float, (_BDF2, "a0"),
         "stabilization constant (default: sharp convexity constant)"),
        ("a_stab", float, (_BDF2, "a_stab"),
         "second-difference coefficient (default: (4/9) a0^2)"),
        ("outdir", str, "converge2-out", "output directory"),
    ) + _SOLVER_OPTS),
    "coarsen": ("droplet coarsening run: energy log, snapshots, power-law fit",
                _run_coarsen, (
        ("n", int, (_CC, "n"), "cells per direction (desk-scale default)"),
        ("length", float, (_CC, "length"), "periodic box side"),
        ("eps", float, (_CC, "eps"), "interface width parameter"),
        ("seed", int, (_CC, "seed"), "seed of the random initial data (repo default)"),
        ("t_end", float, (_CC, "t_end"),
         "end time; the step-size ladder is truncated here"),
        ("snapshots", _float_list, (_CC, "snapshot_times"),
         "comma-separated snapshot request times"),
        ("record_every", int, (_CC, "record_every_late"),
         "late-time energy record stride (repo default)"),
        ("record_cutoff", float, (_CC, "record_cutoff"),
         "record every step up to this time (repo default)"),
        ("budget", float, (_CC, "wall_clock_budget"), "wall-clock budget in seconds"),
        ("outdir", str, "coarsen-out", "output directory"),
    ) + _SOLVER_OPTS),
    "step": ("advance a single implicit step from a seed or snapshot", _run_step, (
        ("scheme", _scheme, "fo", "stepper: fo or bdf2"),
        ("n", int, 64, "cells per direction (ignored with --input)"),
        ("length", float, 1.0, "periodic box side (ignored with --input)"),
        ("eps", float, 0.1, "interface width parameter"),
        ("dt", float, 1e-3, "time step"),
        ("seed", int, 0, "seed of the random initial data"),
        ("input", str, None, "start from this snapshot instead of a seed"),
        ("outdir", str, "step-out", "output directory"),
    ) + _SOLVER_OPTS),
}


def _build_parser():
    parser = _Parser(prog="thinfilm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (text, _, opts) in _COMMANDS.items():
        # No prefix matching: a file key "t" must not set --t-end.
        p = sub.add_parser(command, help=text, description=text, allow_abbrev=False)
        p.add_argument("--config", metavar="FILE",
                       help="key=value file providing option defaults")
        for name, parse, source, help_text in opts:
            # A (call, parameter) source: the default in the call's signature
            # (a config's constructor), a sequence as the list its parser makes.
            default = source
            if isinstance(source, tuple):
                default = inspect.signature(source[0]).parameters[source[1]].default
                default = list(default) if isinstance(default, tuple) else default
            # A help text that states its default itself (one computed at
            # run time) keeps it; every other gets the stored one.
            if "(default: " not in help_text:
                help_text = f"{help_text} (default: {default})"
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=parse,
                           default=default, metavar=name.upper(), help=help_text)
    return parser


def _file_flags(path) -> list:
    """The key=value pairs of a config file as --key=value flags."""
    pairs = load_config(path)
    flags = {"--" + key.replace("_", "-"): value for key, value in pairs.items()}
    if "--config" in flags:
        raise ConfigError(f"{path}: a config file cannot name another (key 'config')")
    if len(flags) < len(pairs):
        raise ConfigError(f"{path}: a key is given with underscores and with dashes")
    return [f"{flag}={value}" for flag, value in flags.items()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # The top-level parser takes no option but -h, so argv[0] is the
            # command; file flags go before the explicit ones, which win.
            args = parser.parse_args(argv[:1] + _file_flags(args.config) + argv[1:])
        return _COMMANDS[args.command][1](args)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 1
    except (ThinFilmError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
