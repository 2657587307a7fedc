"""Span tracing for the benchmark's traced run.

The tracer records spans from the benchmark's own files: it wraps the
layers' public functions where the calling modules bound them (module
attributes and class attributes), so the package itself carries no
instrumentation.  Every span is ``[name, start, end, parent, run]``; a
span's name starts with its layer (``psd.line_search``).  Spans and counts
stay in memory and are written out once, when the benchmark ends.

Self time of a span is its duration minus the durations of its direct
children.  A layer's inclusive time sums the spans of that layer that have
no ancestor in the same layer, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("grid", "spectral", "energy", "psd", "schemes", "experiments", "io")
_LAYER_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement, modules) -> None:
        """Replace ``original`` wherever one of ``modules`` bound it."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self, run_id: int = 0):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = run_id
        self._stack: list = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span; ``after(result, args)`` runs outside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def install(self, thinfilm, patches: Patches) -> None:
        """Wrap every measured boundary of the ``thinfilm`` package."""
        from thinfilm import energy, experiments, grid, io, psd, schemes, spectral

        modules = (thinfilm, grid, spectral, energy, psd, schemes, experiments, io)
        counts = self.counts

        for fname in ("lap", "inner", "grad_norm_2"):
            fn = getattr(grid, fname)
            patches.rebind(fn, self.wrap(f"grid.{fname}", fn), modules)
        for fname in (
            "discrete_energy", "modified_energy", "mu_exact", "mu_first_order",
            "mu_bdf2", "splitting_first_order", "splitting_stabilized",
        ):
            fn = getattr(energy, fname)
            patches.rebind(fn, self.wrap(f"energy.{fname}", fn), modules)

        def count_solve(result, _args):
            _phi, trace = result
            counts["psd.iters"] += trace.iterations
            counts["psd.line_evals"] += sum(trace.line_evals)

        def count_capped(alpha, args):
            # line_search returns its barrier cap when even the capped step
            # is still downhill; the cap sits a relative 1e-12 below it.
            counts["psd.line_searches"] += 1
            barrier = args[1]
            if math.isfinite(barrier) and alpha >= barrier * (1.0 - 1e-9):
                counts["psd.capped"] += 1

        patches.rebind(
            psd.psd_solve, self.wrap("psd.solve", psd.psd_solve, count_solve), modules
        )
        patches.rebind(
            psd.line_search,
            self.wrap("psd.line_search", psd.line_search, count_capped),
            modules,
        )
        patches.rebind(
            psd.barrier_alpha, self.wrap("psd.barrier_alpha", psd.barrier_alpha), modules
        )

        for method in (
            "inv_neg_lap", "hminus1_inner", "hminus1_norm",
            "solve_preconditioner", "solve_preconditioner_with_poisson",
        ):
            fn = vars(spectral.SpectralSolver)[method]
            patches.set(spectral.SpectralSolver, method, self.wrap(f"spectral.{method}", fn))

        def count_transform(out, args):
            counts["spectral.transforms"] += 1
            counts["spectral.bytes_computed"] += np.asarray(args[0]).nbytes + out.nbytes

        for fname in _FFT_NAMES:
            fn = getattr(np.fft, fname)
            patches.set(np.fft, fname, self.wrap("spectral.fft", fn, count_transform))

        for cls in (schemes.FirstOrderScheme, schemes.Bdf2Scheme):
            patches.set(cls, "step", self.wrap("schemes.step", vars(cls)["step"]))
            patches.set(
                cls, "step_system_from",
                self._wrap_assembly(vars(cls)["step_system_from"]),
            )

        for fname in ("run_coarsening", "run_convergence_first_order",
                      "run_convergence_bdf2"):
            fn = getattr(experiments, fname)
            patches.rebind(fn, self.wrap("experiments.run", fn), modules)
        solution = experiments.ManufacturedSolution
        patches.set(
            solution, "forcing", self.wrap("experiments.forcing", vars(solution)["forcing"])
        )
        patches.set(solution, "sample", self.wrap("experiments.init", vars(solution)["sample"]))
        patches.rebind(
            experiments.random_initial_data,
            self.wrap("experiments.init", experiments.random_initial_data),
            modules,
        )

        for fname in ("write_field_snapshot", "write_energy_log"):
            fn = getattr(io, fname)
            patches.rebind(fn, self.wrap("io.write", fn), modules)
        for fname in ("read_field_snapshot", "read_energy_log"):
            fn = getattr(io, fname)
            patches.rebind(fn, self.wrap("io.read", fn), modules)

    def _wrap_assembly(self, step_system_from):
        """Time the step assembly and the closures it hands to the solver."""
        wrap = self.wrap

        def wrap_directional(directional):
            def made(phi, d, r):
                out = directional(phi, d, r)
                if isinstance(out, tuple):
                    g, residual_at = out
                    return wrap("schemes.line_eval", g), wrap("schemes.line_eval", residual_at)
                return wrap("schemes.line_eval", out)

            return wrap("schemes.directional", made)

        def assembled(result, _args):
            result.residual = wrap("schemes.residual", result.residual)
            result.precondition = wrap("schemes.precondition", result.precondition)
            if result.directional is not None:
                result.directional = wrap_directional(result.directional)

        return wrap("schemes.assembly", step_system_from, assembled)


def write_spans(path, tracers) -> None:
    """Write the spans of all ``tracers`` as CSV: name,start,end,parent,run."""
    with open(path, "w") as handle:
        handle.write("name,start,end,parent,run\n")
        for tracer in tracers:
            handle.writelines(
                f"{name},{start!r},{end!r},{parent},{run}\n"
                for name, start, end, parent, run in tracer.spans
            )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list, counts: Counter, start: float, wall: float,
              steps: int) -> dict:
    """Per-layer metrics of one traced unit timed from ``start`` for ``wall`` s.

    Spans outside that window (the unit's checks call the package too) are
    left out.
    """
    n = len(spans)
    ancestors = [0] * n  # bit mask of the layers among each span's ancestors
    outside = [False] * n
    calls = Counter()
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    inclusive = defaultdict(float)
    outermost_calls = Counter()
    init_s = 0.0
    covered = 0.0
    for i, (name, begin, end, parent, _run) in enumerate(spans):
        if parent < 0:
            outside[i] = begin < start or end > start + wall
        else:
            outside[i] = outside[parent]
        if outside[i]:
            continue
        duration = end - begin
        layer = layer_of(name)
        # Self time: a span's duration, less the durations of its children.
        self_by_name[name] += duration
        self_by_layer[layer] += duration
        if parent >= 0:
            pname = spans[parent][0]
            self_by_name[pname] -= duration
            self_by_layer[layer_of(pname)] -= duration
            ancestors[i] = ancestors[parent] | _LAYER_BIT[layer_of(pname)]
        else:
            pname = None
            covered += duration
        calls[name] += 1
        total[name] += duration
        if not ancestors[i] & _LAYER_BIT[layer]:
            inclusive[layer] += duration
            if name != "spectral.fft":
                outermost_calls[layer] += 1
        if name == "experiments.init" and pname != "experiments.forcing":
            init_s += duration

    iters = counts["psd.iters"]
    searches = counts["psd.line_searches"]
    fft_s = total["spectral.fft"]
    io_s = total["io.write"] + total["io.read"]
    io_bytes = counts["io.write.bytes"] + counts["io.read.bytes"]
    return {
        "psd.iters": iters,
        "psd.iters_per_step": iters / steps if steps else 0.0,
        "psd.line_evals": counts["psd.line_evals"],
        "psd.line_evals_per_iter": counts["psd.line_evals"] / iters if iters else 0.0,
        "psd.capped_ratio": counts["psd.capped"] / searches if searches else 0.0,
        "psd.solve.s": total["psd.solve"],
        "psd.self_s": self_by_layer["psd"],
        "psd.line_search.self_s": self_by_name["psd.line_search"],
        "psd.barrier_alpha.s": total["psd.barrier_alpha"],
        "schemes.step.s": total["schemes.step"],
        "schemes.self_s": self_by_layer["schemes"],
        "schemes.assembly.s": total["schemes.assembly"],
        "schemes.line_eval.s": total["schemes.line_eval"],
        "spectral.solves": outermost_calls["spectral"],
        "spectral.transforms": counts["spectral.transforms"],
        "spectral.s": inclusive["spectral"],
        "spectral.fft.s": fft_s,
        "spectral.bytes_computed": counts["spectral.bytes_computed"],
        "spectral.gb_per_s_computed": (
            counts["spectral.bytes_computed"] / fft_s / 1e9 if fft_s else 0.0
        ),
        "grid.lap.calls": calls["grid.lap"],
        "grid.lap.s": total["grid.lap"],
        "grid.inner.calls": calls["grid.inner"],
        "grid.inner.s": total["grid.inner"],
        "grid.grad_norm_2.s": total["grid.grad_norm_2"],
        "grid.self_s": self_by_layer["grid"],
        "energy.calls": outermost_calls["energy"],
        "energy.s": inclusive["energy"],
        "experiments.forcing.calls": calls["experiments.forcing"],
        "experiments.forcing.s": total["experiments.forcing"],
        "experiments.init.s": init_s,
        "experiments.self_s": self_by_layer["experiments"],
        "io.write.bytes": counts["io.write.bytes"],
        "io.write.s": total["io.write"],
        "io.read.s": total["io.read"],
        "io.mb_per_s": io_bytes / io_s / 1e6 if io_s else 0.0,
        "trace.spans": n,
        "trace.unit_s": wall,
        "trace.uncovered_s": wall - covered,
    }
