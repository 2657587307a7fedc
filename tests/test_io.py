"""Artifact formats and the command line driver.

The binary header is pinned byte for byte, text artifacts must be parse ->
print fixpoints, configs follow flag > file > default precedence, and the
driver's exit codes and reproducibility guarantees are exercised through
main() in process.
"""

import dataclasses
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thinfilm import (
    BarrierCollapseError,
    Bdf2Scheme,
    CoarseningConfig,
    CoarseningRun,
    ConfigError,
    ConvergenceTable,
    EnergyRecord,
    FormatError,
    Grid,
    InsufficientDataError,
    PositivityLostError,
    SolverConfig,
    SolverDivergedError,
    fit_power_law,
    format_float,
    load_config,
    read_energy_log,
    read_field_snapshot,
    run_coarsening,
    run_convergence_bdf2,
    run_convergence_first_order,
    write_energy_log,
    write_field_snapshot,
)
import thinfilm
from thinfilm import cli
from thinfilm.cli import main


def sample_records():
    nan = float("nan")
    return [
        EnergyRecord(0.0, -1.638400001, nan, 2.0, 1.9000001, 0, nan),
        EnergyRecord(0.1, -1.7, -1.65, 2.0, 1.85, 17, 8.3e-10),
        EnergyRecord(0.2, -1.75, -1.71, 2.0, 1.81, 12, 9.9e-10),
    ]


class TestFieldSnapshots:
    def test_roundtrip_bitwise(self, tmp_path):
        grid = Grid(2, 16, 2.5)
        values = np.random.default_rng(5).uniform(0.5, 2.0, grid.shape)
        path = tmp_path / "field.tfgf"
        write_field_snapshot(path, grid, values, 1.25)
        grid2, values2, t2 = read_field_snapshot(path)
        assert grid2 == grid
        assert t2 == 1.25
        assert np.array_equal(values2, values)
        assert values2.flags.writeable

    def test_header_bytes_frozen(self, tmp_path):
        grid = Grid(2, 4, 2.5)
        values = np.arange(16, dtype=float).reshape(4, 4) + 1.0
        path = tmp_path / "field.tfgf"
        write_field_snapshot(path, grid, values, 1.5)
        raw = path.read_bytes()
        expected_header = struct.pack("<4sIIIdd", b"TFGF", 1, 2, 4, 2.5, 1.5)
        assert raw[: len(expected_header)] == expected_header
        assert len(raw) == len(expected_header) + 16 * 8
        # payload is little-endian float64 in C order
        assert raw[len(expected_header):] == values.astype("<f8").tobytes()

    def test_sidecar_metadata(self, tmp_path):
        grid = Grid(2, 8, 1.0)
        path = tmp_path / "field.tfgf"
        write_field_snapshot(path, grid, np.ones(grid.shape), 0.5)
        meta = (tmp_path / "field.tfgf.meta").read_text()
        assert "magic=TFGF" in meta
        assert "version=1" in meta
        assert "n=8" in meta
        assert "time=0.5" in meta

    def test_rewrite_is_byte_identical(self, tmp_path):
        grid = Grid(2, 8, 1.0)
        values = np.random.default_rng(9).uniform(1.0, 2.0, grid.shape)
        a, b = tmp_path / "a.tfgf", tmp_path / "b.tfgf"
        write_field_snapshot(a, grid, values, 2.0)
        write_field_snapshot(b, grid, values, 2.0)
        assert a.read_bytes() == b.read_bytes()

    def test_no_leftover_temp_files(self, tmp_path):
        grid = Grid(2, 8, 1.0)
        write_field_snapshot(tmp_path / "f.tfgf", grid, np.ones(grid.shape), 0.0)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["f.tfgf", "f.tfgf.meta"]

    def test_corruption_detected(self, tmp_path):
        grid = Grid(2, 4, 1.0)
        path = tmp_path / "field.tfgf"
        write_field_snapshot(path, grid, np.ones(grid.shape), 0.0)
        raw = bytearray(path.read_bytes())

        bad_magic = tmp_path / "magic.tfgf"
        bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
        with pytest.raises(FormatError, match="magic"):
            read_field_snapshot(bad_magic)

        bad_version = tmp_path / "version.tfgf"
        bad_version.write_bytes(
            bytes(raw[:4]) + struct.pack("<I", 99) + bytes(raw[8:])
        )
        with pytest.raises(FormatError, match="version"):
            read_field_snapshot(bad_version)

        truncated = tmp_path / "short.tfgf"
        truncated.write_bytes(bytes(raw[:20]))
        with pytest.raises(FormatError, match="truncated"):
            read_field_snapshot(truncated)

        padded = tmp_path / "padded.tfgf"
        padded.write_bytes(bytes(raw) + b"\x00")
        with pytest.raises(FormatError, match="size"):
            read_field_snapshot(padded)

        bad_grid = tmp_path / "grid.tfgf"
        bad_grid.write_bytes(
            struct.pack("<4sIIIdd", b"TFGF", 1, 7, 4, 1.0, 0.0) + bytes(raw[32:])
        )
        with pytest.raises(FormatError, match="invalid header"):
            read_field_snapshot(bad_grid)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_time_the_writer_refuses_is_refused(self, tmp_path, t):
        """The reader raises FormatError on a header time that is not
        non-negative and finite; the writer refuses one with ValueError and
        writes nothing."""
        grid = Grid(2, 4, 1.0)
        path = tmp_path / "field.tfgf"
        path.write_bytes(
            struct.pack("<4sIIIdd", b"TFGF", 1, 2, 4, 1.0, t) + bytes(16 * 8)
        )
        with pytest.raises(FormatError, match="time"):
            read_field_snapshot(path)
        with pytest.raises(ValueError, match="time"):
            write_field_snapshot(tmp_path / "new.tfgf", grid, np.ones(grid.shape), t)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["field.tfgf"]


class TestEnergyLog:
    def test_roundtrip_values(self, tmp_path):
        path = tmp_path / "energy.csv"
        write_energy_log(path, sample_records())
        back = read_energy_log(path)
        assert len(back) == 3
        for orig, got in zip(sample_records(), back):
            assert got.t == orig.t
            assert got.energy == orig.energy
            assert got.psd_iters == orig.psd_iters
            assert (
                math.isnan(got.modified_energy)
                if math.isnan(orig.modified_energy)
                else got.modified_energy == orig.modified_energy
            )

    def test_parse_print_fixpoint(self, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_energy_log(first, sample_records())
        write_energy_log(second, read_energy_log(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,F\n0,1\n")
        with pytest.raises(FormatError, match="header"):
            read_energy_log(path)

    def test_bad_rows_rejected(self, tmp_path):
        from thinfilm.io import ENERGY_HEADER

        path = tmp_path / "bad.csv"
        path.write_text(ENERGY_HEADER + "\n1,2,3\n")
        with pytest.raises(FormatError, match="bad row"):
            read_energy_log(path)
        path.write_text(ENERGY_HEADER + "\n1,2,3,4,5,x,7\n")
        with pytest.raises(FormatError, match="bad row"):
            read_energy_log(path)


class TestFormatFloat:
    @pytest.mark.parametrize(
        "x",
        [0.1, math.pi, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 2.0, 4.9e-324],
    )
    def test_round_trip_exact(self, x):
        assert float(format_float(x)) == x

    def test_nan_and_inf(self):
        assert format_float(float("inf")) == "inf"
        assert math.isnan(float(format_float(float("nan"))))


class TestLoadConfig:
    def test_parses_pairs_comments_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# accuracy study\n"
            "\n"
            "eps = 0.25\n"
            "n=64\n"
            "outdir = results/run1\n"
        )
        assert load_config(path) == {
            "eps": "0.25",
            "n": "64",
            "outdir": "results/run1",
        }

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("eps=0.1\neps=0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a sentence\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)
        path.write_text("=0.5\n")
        with pytest.raises(ConfigError, match="empty key"):
            load_config(path)


class TestKeyValueRoundTrip:
    """load_config reads back exactly the pairs each key=value artifact holds."""

    def test_snapshot_meta(self, tmp_path):
        grid = Grid(2, 4, 2.5)
        path = tmp_path / "field.tfgf"
        write_field_snapshot(path, grid, np.ones(grid.shape), 0.1)
        pairs = load_config(tmp_path / "field.tfgf.meta")
        assert pairs == {
            "magic": "TFGF", "version": "1", "dim": "2", "n": "4",
            "length": "2.5", "time": "0.10000000000000001", "cells": "16",
        }

    def test_converge_fit(self, tmp_path, monkeypatch):
        table = ConvergenceTable.from_errors(
            [4, 8, 16], [0.1, 0.051, 0.026], [0.3, 0.16, 0.07]
        )
        monkeypatch.setattr(cli, "run_convergence_first_order", lambda **_: table)
        out = tmp_path / "c1"
        assert main(["converge1", "--outdir", str(out)]) == 0
        keys = ("slope_l2", "intercept_l2", "slope_linf", "intercept_linf")
        pairs = load_config(out / "fit.txt")
        assert list(pairs) == list(keys)
        assert all(float(pairs[key]) == getattr(table, key) for key in keys)
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "nt,err_l2,err_linf"
        assert [tuple(map(float, row.split(","))) for row in rows[1:]] == list(
            zip(table.resolutions, table.errors_l2, table.errors_linf)
        )

    @staticmethod
    def coarsening_run(times):
        grid = Grid(2, 4, 1.0)
        nan = float("nan")
        records = [
            EnergyRecord(t, 3.0 * t**-0.3 - grid.volume, nan, 1.0, 0.9, 0, nan)
            for t in times
        ]
        return CoarseningRun(grid, records, [], np.ones(grid.shape), times[-1])

    def test_coarsen_fit(self, tmp_path):
        times = [float(t) for t in np.geomspace(1.0, 100.0, 12)]
        run = self.coarsening_run(times)
        cli._write_coarsening(tmp_path, run, 6000.0)
        excess = [r.energy + run.grid.volume for r in run.records]
        amplitude, exponent = fit_power_law(times, excess, 1.0, 100.0)
        assert amplitude == pytest.approx(3.0, rel=1e-12)
        assert exponent == pytest.approx(-0.3, rel=1e-12)
        pairs = load_config(tmp_path / "fit.txt")
        assert list(pairs) == [
            "series", "window_t_min", "window_t_max", "amplitude", "exponent"
        ]
        assert pairs["series"] == "excess_energy"
        assert float(pairs["window_t_min"]) == 1.0
        assert float(pairs["window_t_max"]) == 100.0
        assert float(pairs["amplitude"]) == amplitude
        assert float(pairs["exponent"]) == exponent

    def test_coarsen_fit_error(self, tmp_path):
        times = [0.01, 0.02]
        run = self.coarsening_run(times)
        cli._write_coarsening(tmp_path, run, 0.02)
        excess = [r.energy + run.grid.volume for r in run.records]
        with pytest.raises(InsufficientDataError) as failure:
            fit_power_law(times, excess, 1.0, 0.02)
        assert load_config(tmp_path / "fit.txt") == {"error": str(failure.value)}


class TestCliStep:
    def test_step_writes_snapshot_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["step", "--n", "16", "--eps", "0.5", "--dt", "0.001",
             "--outdir", str(out)]
        )
        assert code == 0
        grid, phi, t = read_field_snapshot(out / "out.tfgf")
        assert grid.n == 16
        assert t == pytest.approx(0.001)
        assert np.all(phi > 0.0)
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "energy=" in line and "psd_iters=" in line
        assert "line_evals=" in line and "restarts=" in line
        assert re.search(r"\bcapped=0\b", line)
        # the preconditioner's identity coefficient, printed after psd_iters:
        # the first-order Hessian diagonal 24 phi^-10 at its median, > 0
        found = re.search(r"psd_iters=\d+ precond_a1=(\S+) ", line)
        assert found and 0.0 < float(found.group(1)) < math.inf

    def test_step_chains_from_snapshot(self, tmp_path):
        first = tmp_path / "first"
        assert main(["step", "--n", "16", "--eps", "0.5", "--dt", "0.001",
                     "--outdir", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["step", "--eps", "0.5", "--dt", "0.001",
                     "--input", str(first / "out.tfgf"),
                     "--outdir", str(second)]) == 0
        _, _, t = read_field_snapshot(second / "out.tfgf")
        assert t == pytest.approx(0.002)

    def test_bdf2_scheme_selectable(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["step", "--scheme", "bdf2", "--n", "16", "--eps", "0.5",
                     "--dt", "0.001", "--outdir", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "modified_energy=nan" not in line

    def test_seeded_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["step", "--n", "16", "--eps", "0.5", "--dt", "0.001", "--seed", "3"]
        assert main(args + ["--outdir", str(out_a)]) == 0
        assert main(args + ["--outdir", str(out_b)]) == 0
        assert (out_a / "out.tfgf").read_bytes() == (out_b / "out.tfgf").read_bytes()

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["step", "--input", str(tmp_path / "nope.tfgf"),
                     "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("t", [math.nan, -1.0])
    def test_input_with_a_refused_time_is_runtime_error(self, tmp_path, capsys, t):
        path = tmp_path / "bad.tfgf"
        path.write_bytes(
            struct.pack("<4sIIIdd", b"TFGF", 1, 2, 8, 1.0, t)
            + np.ones(64).astype("<f8").tobytes()
        )
        code = main(["step", "--input", str(path), "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FormatError: ")
        assert not (tmp_path / "out" / "out.tfgf").exists()


class TestCliConverge:
    """converge1/converge2 end to end: printed lines and written tables."""

    @staticmethod
    def expected_files(label, table):
        rows = [f"{label},err_l2,err_linf"] + [
            f"{res},{format_float(e2)},{format_float(einf)}"
            for res, e2, einf in zip(
                table.resolutions, table.errors_l2, table.errors_linf
            )
        ]
        fit = "".join(
            f"{key}={format_float(getattr(table, key))}\n"
            for key in ("slope_l2", "intercept_l2", "slope_linf", "intercept_linf")
        )
        return "\n".join(rows) + "\n", fit

    def check_run(self, out, capsys, label, table):
        csv, fit = self.expected_files(label, table)
        assert (out / "convergence.csv").read_text() == csv
        assert (out / "fit.txt").read_text() == fit
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{label}={res} err_l2={e2:.6e} err_linf={einf:.6e}"
            for res, e2, einf in zip(
                table.resolutions, table.errors_l2, table.errors_linf
            )
        ] + [f"slope_l2={table.slope_l2:.6f} slope_linf={table.slope_linf:.6f}"]

    def test_converge1_writes_the_library_table(self, tmp_path, capsys):
        out = tmp_path / "c1"
        args = ["converge1", "--n", "16", "--nt", "4,8,16", "--tf", "0.5",
                "--tol", "1e-10", "--outdir", str(out)]
        assert main(args) == 0
        table = run_convergence_first_order(
            n=16, nt_values=(4, 8, 16), eps=0.5, t_final=0.5,
            psd_config=SolverConfig(tol=1e-10),
        )
        self.check_run(out, capsys, "nt", table)
        assert -1.3 <= table.slope_l2 <= -0.7

    def test_converge2_takes_file_values_and_flags(self, tmp_path, capsys):
        out = tmp_path / "c2"
        cfg = tmp_path / "c2.cfg"
        cfg.write_text(
            f"n_list=8,12,16\na0=3.5\na_stab=6.0\noutdir={tmp_path / 'unused'}\n"
        )
        args = ["converge2", "--config", str(cfg), "--eps", "0.4",
                "--outdir", str(out)]
        assert main(args) == 0
        assert not (tmp_path / "unused").exists()
        table = run_convergence_bdf2(
            n_values=(8, 12, 16), eps=0.4, a0=3.5, a_stab=6.0
        )
        self.check_run(out, capsys, "n", table)
        assert -2.4 <= table.slope_l2 <= -1.6

    def test_config_keys_are_per_command(self, tmp_path, capsys):
        cfg = tmp_path / "c1.cfg"
        cfg.write_text("n_list=8,12,16\n")
        assert main(["converge1", "--config", str(cfg)]) == 1
        assert "unrecognized arguments: --n-list=8,12,16" in capsys.readouterr().err


class TestCliConfigMerge:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        file_out = tmp_path / "from-file"
        flag_out = tmp_path / "from-flag"
        # max-iters: a key may be spelled with dashes, as its flag is
        cfg.write_text(f"n=16\neps=0.5\ndt=0.001\nmax-iters=400\noutdir={file_out}\n")
        assert main(["step", "--config", str(cfg)]) == 0
        assert (file_out / "out.tfgf").exists()
        assert main(["step", "--config", str(cfg), "--outdir", str(flag_out)]) == 0
        assert (flag_out / "out.tfgf").exists()

    def test_console_entry_flag_beats_file(self, tmp_path):
        """``python -m thinfilm.cli`` reads sys.argv (main's argv=None path)."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=16\neps=0.5\ndt=0.001\noutdir={tmp_path / 'from-file'}\n")
        out = tmp_path / "from-flag"
        src = Path(thinfilm.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "thinfilm.cli", "step", "--n", "8",
             "--config", str(cfg), "--outdir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert read_field_snapshot(out / "out.tfgf")[0] == Grid(2, 8, 1.0)
        assert not (tmp_path / "from-file").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelength=7\n")
        assert main(["step", "--config", str(cfg)]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_config_value_must_parse(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=sixteen\n")
        assert main(["step", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError: argument --n: invalid int value: 'sixteen'" in err

    def test_config_choices_validated(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme=golden\n")
        assert main(["step", "--config", str(cfg)]) == 1
        assert "scheme" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("config=other.cfg\n", "cannot name another"),
            ("max_iters=400\nmax-iters=300\n", "with underscores and with dashes"),
        ],
    )
    def test_config_naming_a_file_or_a_key_twice_refused(
        self, text, message, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["step", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and message in err


class TestCliHelp:
    @pytest.mark.parametrize("command", ["converge1", "converge2", "coarsen", "step"])
    def test_help_names_every_flag_with_its_default(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        entries = re.split(r" (?=--[a-z][a-z0-9-]* [A-Z])", text.split(" options: ")[1])
        shown = {entry.split()[0]: entry for entry in entries}
        opts = vars(cli._build_parser().parse_args([command]))
        del opts["command"], opts["config"]
        own = {name: "(default: " in text for name, _, _, text in cli._COMMANDS[command][2]}
        for name, default in opts.items():
            entry = shown["--" + name.replace("_", "-")]
            assert entry.split()[1] == name.upper()
            # exactly one default: the help text's own, or else the stored one
            assert entry.count("(default: ") == 1, entry
            assert own[name] or entry.endswith(f"(default: {default})"), entry


class TestCliErrors:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["step", "--frobnicate", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_choice_is_usage_error(self, capsys):
        assert main(["step", "--scheme", "rk4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["selftest"]) == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["step", "--n", "8", "--sch", "bdf2"], None),
            (["coarsen", "--n", "8", "--length", "0.8", "--t-end", "0.002",
              "--budg", "5"], None),
            (["coarsen", "--n", "8", "--length", "0.8"], "t=0.002\n"),
        ],
    )
    def test_option_prefix_is_usage_error(self, argv, config, tmp_path, monkeypatch,
                                          capsys):
        """One spelling per option: a prefix of a flag or of a config key is unknown."""
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = argv + ["--config", "run.cfg"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: unrecognized arguments: --")

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge1", "--n", "8", "--nt", "4,,8,16"],
            ["converge1", "--n", "8", "--nt", "4,8,16,"],
            ["converge2", "--n-list", ",8,12,16"],
            ["coarsen", "--n", "8", "--length", "0.8", "--t-end", "0.002",
             "--snapshots", "0.001, ,0.002"],
        ],
    )
    def test_empty_list_entry_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "empty entry" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", " "])
    def test_empty_list_text_has_no_entries(self, text):
        args = cli._build_parser().parse_args(["coarsen", "--snapshots", text])
        assert args.snapshots == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["step", "--tol", "0"],
            ["step", "--n", "1"],
            ["step", "--eps", "0"],
            ["coarsen", "--t-end", "-1"],
            ["converge2", "--dt-factor", "0.3"],
            ["converge1", "--nt", "0,1,2"],
            ["converge2", "--dt-factor", "0"],
            ["step", "--length", "inf"],
            ["step", "--eps", "inf"],
            ["step", "--tol", "inf"],
            ["coarsen", "--t-end", "7000"],
            ["coarsen", "--n", "1"],
            ["converge2", "--n-list", "8,16,32", "--tf", "inf"],
            ["converge1", "--n", "8", "--nt", "2,4,8", "--tf", "nan"],
            ["converge2", "--n-list", "8,16,32", "--tf", "-1"],
            ["converge2", "--n-list", "8,16"],
            ["converge1", "--n", "8", "--nt", "2,4"],
            ["step", "--n", "8", "--seed", "-1"],
            ["coarsen", "--n", "8", "--length", "0.8", "--t-end", "0.002", "--seed", "-1"],
            ["coarsen", "--n", "8", "--length", "0.8", "--t-end", "0.002", "--budget", "nan"],
            ["coarsen", "--n", "8", "--length", "0.8", "--t-end", "0.002",
             "--record-cutoff", "nan"],
            ["coarsen", "--n", "8", "--length", "0.8", "--t-end", "0.003",
             "--snapshots", "0.001,nan,0.002"],
            ["converge1", "--n", "8", "--nt", "4,4,4"],
            ["converge2", "--n-list", "8,8,16"],
            ["converge1", "--length", "0.7"],
            ["step", "--n", "8", "--dt", "0"],
            ["step", "--n", "8", "--dt", "nan"],
            ["step", "--n", "8", "--dt", "-1"],
            ["converge2", "--n-list", "8,12,16", "--a0", "0.1"],
            ["converge2", "--n-list", "8,12,16", "--a-stab", "0"],
        ],
    )
    def test_out_of_range_value_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        """Values that parse but that the configs reject: one error line, exit 1."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_converge_config_with_a_box_length_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        """The manufactured studies run on the unit square only."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("n_list=8,16,32\nlength=2\n")
        assert main(["converge2", "--config", "run.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ")
        assert "length" in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize("scheme", ["fo", "bdf2"])
    def test_snapshot_holding_inf_is_runtime_error(self, scheme, tmp_path, capsys):
        """Start data with an infinite cell is refused before the first
        step: exit 2 with one error line naming the data, no traceback."""
        grid = Grid(2, 8, 1.0)
        phi = np.ones(grid.shape)
        phi[2, 5] = math.inf
        write_field_snapshot(tmp_path / "inf.tfgf", grid, phi, 0.0)
        code = main(["step", "--scheme", scheme, "--input", str(tmp_path / "inf.tfgf"),
                     "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NonPositiveFieldError: ")
        assert "must be finite" in err
        assert err.count("\n") == 1

    def test_value_error_inside_a_run_is_not_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        """Only values rejected while building a config are usage errors; a
        ValueError raised by the run itself is a defect and propagates."""

        def failing(*args, **kwargs):
            raise ValueError("raised inside the solve")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_coarsening", failing)
        with pytest.raises(ValueError, match="inside the solve"):
            main(["coarsen", "--n", "16", "--t-end", "0.01"])
        assert "ConfigError" not in capsys.readouterr().err


class TestCliCoarsen:
    def coarsen_args(self, outdir):
        return [
            "coarsen", "--n", "16", "--length", "1.6", "--eps", "0.1",
            "--t-end", "0.02", "--snapshots", "0.005,0.01",
            "--outdir", str(outdir),
        ]

    def test_artifacts_written(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.coarsen_args(out)) == 0
        records = read_energy_log(out / "energy.csv")
        assert len(records) == 21  # t=0 plus 20 steps of 0.001
        assert records[0].t == 0.0
        assert records[-1].t == pytest.approx(0.02)
        energies = [r.energy for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
        snaps = sorted(p.name for p in out.glob("*.tfgf"))
        assert snaps == ["snapshot_00_t0.005.tfgf", "snapshot_01_t0.01.tfgf"]
        _, phi, t = read_field_snapshot(out / "snapshot_00_t0.005.tfgf")
        assert t == pytest.approx(0.005)
        assert np.all(phi > 0.0)
        # fit window is empty this early: soft failure recorded in fit.txt
        assert (out / "fit.txt").read_text().startswith("error=")

    def test_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self.coarsen_args(out_a)) == 0
        assert main(self.coarsen_args(out_b)) == 0
        assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
        for name in ("snapshot_00_t0.005.tfgf", "snapshot_01_t0.01.tfgf"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_progress_line_reports_the_window_counts(self, tmp_path, capsys):
        out = tmp_path / "long"
        args = self.coarsen_args(out)
        args[args.index("--t-end") + 1] = "1.0"  # 1000 steps of 0.001
        assert main(args) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "last 1000" in l]
        assert len(lines) == 1
        found = re.fullmatch(
            r"t=1 \(1000 steps; last 1000 steps: (\d+) CG iterations, "
            r"(\d+) line evaluations\)",
            lines[0],
        )
        assert found is not None, lines[0]
        iters, evals = int(found.group(1)), int(found.group(2))
        records = read_energy_log(out / "energy.csv")
        assert len(records) == 1001  # every step is recorded up to t = 100
        assert iters == sum(r.psd_iters for r in records)
        assert evals >= iters  # every CG iteration evaluates g at least once

    def test_budget_exhaustion_writes_partial_and_exits_2(self, tmp_path, capsys):
        out = tmp_path / "partial"
        code = main(self.coarsen_args(out) + ["--budget", "0"])
        assert code == 2
        assert "UnfinishedError" in capsys.readouterr().err
        records = read_energy_log(out / "energy.csv")
        assert len(records) == 1 and records[0].t == 0.0

    @staticmethod
    def fail_fifth_step(monkeypatch, error):
        """Make Bdf2Scheme.step raise ``error`` on its 5th call."""
        step, calls = Bdf2Scheme.step, []

        def failing(self, state, dt, forcing=None):
            calls.append(dt)
            if len(calls) == 5:
                raise error
            return step(self, state, dt, forcing)

        monkeypatch.setattr(Bdf2Scheme, "step", failing)

    SOLVER_ERRORS = [
        SolverDivergedError("no convergence", None, None),
        BarrierCollapseError("no admissible step"),
        PositivityLostError("min phi = -1"),
    ]

    @pytest.mark.parametrize("error", SOLVER_ERRORS, ids=lambda e: type(e).__name__)
    def test_solver_failure_writes_partial_and_exits_2(
        self, tmp_path, capsys, monkeypatch, error
    ):
        """A step failing in the solver leaves the four completed steps'
        energy log, the snapshot served before it, and fit.txt, and the
        exit names the error's class."""
        self.fail_fifth_step(monkeypatch, error)
        out = tmp_path / "failed"
        args = self.coarsen_args(out) + ["--snapshots", "0.002,0.01"]
        assert main(args) == 2
        assert f"error: {type(error).__name__}: " in capsys.readouterr().err
        records = read_energy_log(out / "energy.csv")
        assert [r.t for r in records] == pytest.approx([0.0, 0.001, 0.002, 0.003, 0.004])
        assert sorted(p.name for p in out.glob("*.tfgf")) == ["snapshot_00_t0.002.tfgf"]
        assert (out / "fit.txt").read_text().startswith("error=")

    @pytest.mark.parametrize("error", SOLVER_ERRORS, ids=lambda e: type(e).__name__)
    def test_library_caller_gets_the_solver_error(self, monkeypatch, error):
        self.fail_fifth_step(monkeypatch, error)
        config = CoarseningConfig(n=16, length=1.6, eps=0.1, t_end=0.02,
                                  snapshot_times=(0.002, 0.01))
        with pytest.raises(type(error)) as excinfo:
            run_coarsening(config)
        assert excinfo.value is error
        partial = excinfo.value.partial
        assert partial.final_t == pytest.approx(0.004)
        assert len(partial.records) == 5
        assert [t for t, _ in partial.snapshots] == pytest.approx([0.002])
        # the state after the 4th step, as a run that ends there has it
        monkeypatch.undo()
        finished = run_coarsening(dataclasses.replace(config, t_end=0.004))
        assert np.array_equal(partial.final_phi, finished.final_phi)
        assert partial.records == finished.records
