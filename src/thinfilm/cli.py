"""Command line driver.

Subcommands:

    converge1   temporal accuracy study of the one-step scheme (unit square)
    converge2   space-time accuracy study of the two-step scheme (unit square)
    coarsen     droplet coarsening run: energy log, snapshots, power-law fit
    step        advance a single implicit step (debugging aid)

Options may also be supplied through ``--config FILE`` holding key=value
lines keyed by the option names (underscores, no leading dashes).  Explicit
flags beat config values, config values beat built-in defaults; keys a
command does not know are rejected.  Exit codes: 0 success, 1 usage or
config error (ConfigError, which the configs raise for values they reject),
2 runtime failure.  Any other exception is a defect and keeps its
traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .energy import PhysParams
from .errors import ConfigError, ThinFilmError, UnfinishedError
from .experiments import (
    DEFAULT_SNAPSHOT_TIMES,
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
from .schemes import Bdf2Scheme, FirstOrderScheme, initial_state, restart_state


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _int_list(text: str):
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str):
    return [float(part) for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class _Opt:
    name: str
    parse: object
    default: object
    help: str
    choices: tuple = None


_SOLVER_OPTS = (
    _Opt("tol", float, 1e-9, "CG residual tolerance"),
    _Opt("max_iters", int, 500, "CG iteration budget per step"),
)


def _opts_converge1():
    return (
        _Opt("n", int, 128, "cells per direction (desk-scale default; "
                            "the full-scale study uses 256)"),
        _Opt("nt", _int_list, [100, 200, 400, 800],
             "comma-separated step-count ladder"),
        _Opt("eps", float, 0.5, "interface width parameter"),
        _Opt("tf", float, 1.0, "final time"),
        _Opt("outdir", str, "converge1-out", "output directory"),
    ) + _SOLVER_OPTS


def _opts_converge2():
    return (
        _Opt("n_list", _int_list, [32, 48, 64, 96],
             "comma-separated grid ladder (desk-scale default; "
             "the full-scale study uses 48..192)"),
        _Opt("eps", float, 0.5, "interface width parameter"),
        _Opt("tf", float, 1.0, "final time"),
        _Opt("dt_factor", float, 0.5, "time step as a fraction of h"),
        _Opt("a0", float, None, "stabilization constant "
                                "(default: sharp convexity constant)"),
        _Opt("a_stab", float, None, "second-difference coefficient "
                                    "(default: (4/9) a0^2)"),
        _Opt("outdir", str, "converge2-out", "output directory"),
    ) + _SOLVER_OPTS


def _opts_coarsen():
    return (
        _Opt("n", int, 128, "cells per direction (desk-scale default)"),
        _Opt("length", float, 12.8, "periodic box side"),
        _Opt("eps", float, 0.02, "interface width parameter"),
        _Opt("seed", int, 0, "seed of the random initial data (repo default)"),
        _Opt("t_end", float, 6000.0, "end time; the step-size ladder is "
                                     "truncated here"),
        _Opt("snapshots", _float_list, list(DEFAULT_SNAPSHOT_TIMES),
             "comma-separated snapshot request times"),
        _Opt("record_every", int, 10, "late-time energy record stride "
                                      "(repo default)"),
        _Opt("record_cutoff", float, 100.0, "record every step up to this "
                                            "time (repo default)"),
        _Opt("budget", float, None, "optional wall-clock budget in seconds"),
        _Opt("outdir", str, "coarsen-out", "output directory"),
    ) + _SOLVER_OPTS


def _opts_step():
    return (
        _Opt("scheme", str, "fo", "stepper", choices=("fo", "bdf2")),
        _Opt("n", int, 64, "cells per direction (ignored with --input)"),
        _Opt("length", float, 1.0, "periodic box side (ignored with --input)"),
        _Opt("eps", float, 0.1, "interface width parameter"),
        _Opt("dt", float, 1e-3, "time step"),
        _Opt("seed", int, 0, "seed of the random initial data"),
        _Opt("input", str, None, "start from this snapshot instead of a seed"),
        _Opt("outdir", str, "step-out", "output directory"),
    ) + _SOLVER_OPTS


def _solver_config(v) -> SolverConfig:
    return SolverConfig(tol=v.tol, max_iters=v.max_iters)


def _run_converge(v) -> int:
    """converge1/converge2: print each rung, write convergence.csv and fit.txt."""
    if v.command == "converge1":
        label, study = "nt", run_convergence_first_order
        ladder = dict(n=v.n, nt_values=v.nt)
    else:
        label, study = "n", run_convergence_bdf2
        ladder = dict(
            n_values=v.n_list, dt_factor=v.dt_factor, a0=v.a0, a_stab=v.a_stab
        )
    table = study(
        eps=v.eps,
        t_final=v.tf,
        psd_config=_solver_config(v),
        on_resolution=lambda r, e2, ei: print(
            f"{label}={r} err_l2={e2:.6e} err_linf={ei:.6e}", flush=True
        ),
        **ladder,
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
    config = CoarseningConfig(
        n=v.n,
        length=v.length,
        eps=v.eps,
        seed=v.seed,
        t_end=v.t_end,
        snapshot_times=tuple(v.snapshots),
        record_cutoff=v.record_cutoff,
        record_every_late=v.record_every,
        psd=_solver_config(v),
        wall_clock_budget=v.budget,
    )
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
    except UnfinishedError as exc:
        if exc.partial is not None:
            _write_coarsening(outdir, exc.partial, v.t_end)
        print(f"error: UnfinishedError: {exc}", file=sys.stderr)
        return 2
    _write_coarsening(outdir, run, v.t_end)
    print(f"finished at t={run.final_t:.6g} with {len(run.records)} records")
    return 0


def _run_step(v) -> int:
    if v.input is not None:
        grid, phi0, t0 = read_field_snapshot(v.input)
    else:
        grid = Grid(2, v.n, v.length)
        phi0 = random_initial_data(grid, v.seed)
        t0 = 0.0
    params = PhysParams(v.eps)
    psd = _solver_config(v)
    if v.scheme == "fo":
        scheme = FirstOrderScheme(grid, params, psd_config=psd)
        state = initial_state(grid, phi0, t0)
    else:
        scheme = Bdf2Scheme(grid, params, psd_config=psd)
        state = restart_state(grid, phi0, t0)
    state, report = scheme.step(state, v.dt)
    outdir = Path(v.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_field_snapshot(outdir / "out.tfgf", grid, state.phi, state.t)
    modified = (
        "nan" if report.modified_energy is None else format_float(report.modified_energy)
    )
    print(
        f"t={format_float(state.t)} energy={format_float(report.energy)} "
        f"modified_energy={modified} min_phi={format_float(report.min_phi)} "
        f"psd_iters={report.psd_iters} precond_a1={format_float(report.precond_a1)} "
        f"line_evals={report.line_evals} "
        f"restarts={report.restarts} capped={report.capped} "
        f"residual={format_float(report.final_residual)} "
        f"mass_drift={format_float(report.mass_drift)}"
    )
    return 0


@dataclass(frozen=True)
class _Command:
    opts: tuple
    run: object
    help: str


_COMMANDS = {
    "converge1": _Command(
        _opts_converge1(), _run_converge,
        "temporal accuracy study of the one-step scheme",
    ),
    "converge2": _Command(
        _opts_converge2(), _run_converge,
        "space-time accuracy study of the two-step scheme (dt = factor * h)",
    ),
    "coarsen": _Command(
        _opts_coarsen(), _run_coarsen,
        "droplet coarsening run: energy log, snapshots, power-law fit",
    ),
    "step": _Command(
        _opts_step(), _run_step,
        "advance a single implicit step from a seed or snapshot",
    ),
}


def _build_parser():
    """The parser and its subparsers by command name."""
    parser = _Parser(prog="thinfilm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, description=cmd.help)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key=value file providing option defaults")
        for opt in cmd.opts:
            kwargs = {
                "dest": opt.name,
                "default": opt.default,
                "help": f"{opt.help} (default: {opt.default})",
                "metavar": opt.name.upper(),
            }
            if opt.choices is not None:
                kwargs["choices"] = opt.choices
            else:
                kwargs["type"] = opt.parse
            p.add_argument("--" + opt.name.replace("_", "-"), **kwargs)
    return parser, sub.choices


def _config_defaults(cmd: _Command, path) -> dict:
    """Parsed values of a config file, checked against the command's options."""
    known = {opt.name: opt for opt in cmd.opts}
    values = {}
    for key, text in load_config(path).items():
        opt = known.get(key)
        if opt is None:
            raise ConfigError(f"unknown config key {key!r} for this command")
        try:
            value = opt.parse(text)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if opt.choices is not None and value not in opt.choices:
            raise ConfigError(
                f"config key {key!r} must be one of {opt.choices}, got {value!r}"
            )
        values[key] = value
    return values


def main(argv=None) -> int:
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(argv)
        cmd = _COMMANDS[args.command]
        if args.config is not None:
            # File values become the defaults, so explicit flags still win.
            commands[args.command].set_defaults(**_config_defaults(cmd, args.config))
            args = parser.parse_args(argv)
        return cmd.run(args)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 1
    except (ThinFilmError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
