"""Who owns the field-sized arrays of a step, and how many live at once.

A step's arrays each have one owner: the caller's StepState, the step
system, psd_solve, or the closures of one search.  An array dies when its
owner is done with it, so a warm step holds at most the fields counted in
TestStepPeakMemory.test_warm_step_peak_is_at_most_the_owned_fields, a
step system holds its pass scratch and affine part only, and no array
handed over shares memory with one it must stay apart from.  A spectral
solver holds its buffer and tables only (TestSpectralFootprint).
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

import thinfilm
from thinfilm import (
    Bdf2Scheme,
    FirstOrderScheme,
    Grid,
    PhysParams,
    SpectralSolver,
    random_initial_data,
    restart_state,
)


def warm_state(scheme, seed, dt):
    """A state after one step: the spectral tables are built, and the state
    carries its Laplacian and two distinct time levels."""
    state = restart_state(scheme.grid, random_initial_data(scheme.grid, seed))
    state, _ = scheme.step(state, dt)
    return state


def where_memory_peaks(run) -> str:
    """Run ``run`` traced, with a profile hook that reads the traced memory
    at every call and return; the package frames at the highest reading,
    innermost first, as "residual_at:350 <- _line_step:252 <- ...".  The
    hook slows the run down and allocates a little itself, so it is for a
    failure's message only, never for the measurement."""
    package = os.path.dirname(thinfilm.__file__)
    highest, where = -1, ""

    def hook(frame, event, arg):
        nonlocal highest, where
        current = tracemalloc.get_traced_memory()[0]
        if current > highest:
            frames = []
            while frame is not None:
                if frame.f_code.co_filename.startswith(package):
                    frames.append(f"{frame.f_code.co_name}:{frame.f_lineno}")
                frame = frame.f_back
            highest, where = current, " <- ".join(frames)

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return where


class TestStepPeakMemory:
    # Field-sized arrays that a warm step allocates and holds at its peak,
    # counted array by array in the test's docstring.
    OWNED = {Bdf2Scheme: 10, FirstOrderScheme: 10}
    # The solve's Python objects (closures, trace lists, scalars): 0.019 of
    # a 32^3 field measured.
    SMALL = 0.1

    @pytest.mark.parametrize("scheme_cls", [Bdf2Scheme, FirstOrderScheme])
    def test_warm_step_peak_is_at_most_the_owned_fields(self, scheme_cls):
        """The traced peak of one warm step on 32^3, in fields, is at most
        the count of the arrays it owns at its peak, which sits at a line
        trial, when the trial's point and its pass's scratch are formed.
        Tracing starts with the step, so the caller's StepState fields
        (phi, phi_prev, lap_phi) and the spectral solver's buffer and
        tables, all allocated before, are not counted.  On a failure the
        message names the frames where the memory peaks.

        | owner       | arrays at the peak                                | both schemes |
        |-------------|---------------------------------------------------|--------------|
        | StepSystem  | pass scratch: work, bulk, curv                    | 3            |
        | the search  | affine part at phi, K d, the trial point          | 3            |
        | psd_solve   | iterate phi, residual r (deflated in place, kept  | 4            |
        |             | as rp_prev), direction d, image s                 |              |
        | total       |                                                   | 10           |

        Not held: history and constant, which the first residual forms and
        drops; a new affine part, which residual_at forms in K d's array,
        and a new residual, which it forms in the scratch field work and
        hands over (the system allocates the next work at its next use);
        the warm start, which psd_solve drops once it has copied it (before
        Python 3.11 the caller's frame keeps a call's arguments until it
        returns, so there it is held: one more); a spare point field, which
        a direction allocates only at its first trial; the previous search's
        closures and p, which die before the next preconditioner solve; the
        copy r - mean r, since r is deflated in place.
        """
        grid = Grid(3, 32, 3.2)
        dt = 0.01
        scheme = scheme_cls(grid, PhysParams(eps=0.1))
        state = warm_state(scheme, 1, dt)
        field = grid.num_cells * 8
        owned = self.OWNED[scheme_cls] + (sys.version_info < (3, 11))

        tracemalloc.start()
        try:
            _, report = scheme.step(state, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.psd_iters >= 2  # a search after the first one
        assert peak / field <= owned + self.SMALL, "memory peaks at " + where_memory_peaks(
            lambda: scheme.step(state, dt)
        )

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("scheme_cls", [Bdf2Scheme, FirstOrderScheme])
    def test_system_holds_its_scratch_and_affine_part(self, scheme_cls, forced):
        """A step system assembled from a warm state, with its first
        residual taken, holds four fields: the pass scratch work, bulk and
        curv, and the affine part of that residual.  It references the
        caller's levels, lap(phi_old) and source, and forms history and
        constant only inside the residual.  The residual is counted apart:
        it is handed over, the caller's."""
        grid = Grid(3, 32, 3.2)
        dt = 0.01
        scheme = scheme_cls(grid, PhysParams(eps=0.1))
        state = warm_state(scheme, 1, dt)
        field = grid.num_cells * 8
        forcing = None
        if forced:
            forcing = np.random.default_rng(2).standard_normal(grid.shape)
            forcing -= forcing.sum() / forcing.size
        if scheme_cls is Bdf2Scheme:
            levels, kwargs = (state.phi, state.phi_prev), {"lap_old": state.lap_phi}
        else:
            levels, kwargs = (state.phi,), {}

        tracemalloc.start()
        try:
            system = scheme.step_system_from(*levels, dt, forcing, **kwargs)
            r = system.residual(state.phi)
            held = tracemalloc.get_traced_memory()[0] - r.nbytes
        finally:
            tracemalloc.stop()
        assert held / field <= 4 + self.SMALL


class TestOwnership:
    @pytest.mark.parametrize("scheme_cls", [Bdf2Scheme, FirstOrderScheme])
    def test_handed_over_arrays_share_no_memory(self, scheme_cls, monkeypatch):
        """No array a step hands over shares memory with one it must stay
        apart from: the iterate psd_solve returns, every point residual_at
        hands over (and its residual), the system's scratch fields (a
        residual is the field work of the passes before it, handed over),
        the point of a later trial, and the caller's StepState fields.
        Trial points are the arguments of the system's pointwise passes, so
        the check does not depend on who holds the point field."""
        grid = Grid(2, 16, 1.6)
        dt = 0.01
        scheme = scheme_cls(grid, PhysParams(eps=0.1))
        state = warm_state(scheme, 3, dt)
        caller = [state.phi, state.phi_prev, state.lap_phi]
        handed = []  # (point, residual) pairs in hand-over order
        # (number of hand-overs before it, a pass scratch field): work,
        # bulk and curv at every trial, bulk and curv at every hand-over,
        # where work itself goes over as the residual
        scratch = []
        # (number of hand-overs before it, point of a pass): the first
        # residual's iterate, then every trial's point
        passes = []
        assemble = scheme.step_system_from

        def recorded_system(*args, **kwargs):
            system = assemble(*args, **kwargs)
            directional, run_pass = system.directional, system._pass

            def recorded_pass(x):
                passes.append((len(handed), x))
                run_pass(x)

            def recorded(phi, direction, r_phi):
                g, residual_at = directional(phi, direction, r_phi)

                def g_recorded(alpha):
                    out = g(alpha)
                    scratch.extend(
                        (len(handed), field)
                        for field in (system._work, system._bulk, system._curv)
                    )
                    return out

                def residual_at_recorded(alpha):
                    pair = residual_at(alpha)
                    handed.append(pair)
                    scratch.extend((len(handed), field) for field in (system._bulk, system._curv))
                    return pair

                g_recorded.slope = g.slope
                g_recorded.seed_slope = g.seed_slope
                return g_recorded, residual_at_recorded

            system.directional, system._pass = recorded, recorded_pass
            return system

        monkeypatch.setattr(scheme, "step_system_from", recorded_system)
        new_state, report = scheme.step(state, dt)

        assert len(handed) == report.psd_iters >= 2
        returned = new_state.phi
        assert returned is handed[-1][0]

        def apart(a, b):
            return not np.shares_memory(a, b)

        for i, (point, residual) in enumerate(handed):
            assert apart(point, residual)
            for other in caller:
                assert apart(point, other) and apart(residual, other)
            for after, other in scratch:
                assert apart(point, other)
                if after > i:
                    assert apart(residual, other)
            for later_point, later_residual in handed[i + 1:]:
                assert apart(point, later_point) and apart(point, later_residual)
                assert apart(residual, later_point)
            for before, pass_point in passes:
                if before > i:
                    assert apart(point, pass_point)
        for other in caller + [field for _, field in scratch]:
            assert apart(returned, other)
        assert all(apart(returned, r) for _, r in handed)


class TestSpectralFootprint:
    # The solver's Python objects: under 1.5 kB measured.
    SMALL_BYTES = 4096

    @pytest.mark.parametrize("dim, n", [(1, 4096), (2, 128), (3, 33)])
    def test_solver_holds_its_buffer_and_tables_only(self, dim, n):
        """After a preconditioner solve a SpectralSolver holds, counted in
        float64 half spectra: the complex buffer (2), the eigenvalues (1),
        L (1) and the complex tables sqrt(w / L) and
        1 / ((L + shift) sqrt(w / L)) (2 each), 8 in all.  The step's
        peak test starts tracing once the tables exist, so a table that
        grows shows here only."""
        grid = Grid(dim, n, 1.3)
        half = grid.num_cells // n * (n // 2 + 1) * 8
        r = np.random.default_rng(5).standard_normal(grid.shape)
        r -= r.sum() / r.size
        # numpy sets up its FFT machinery at the first transform
        SpectralSolver(grid).solve_preconditioner(r, 10.0, 1.0, 0.04, 2.0)

        tracemalloc.start()
        try:
            solver = SpectralSolver(grid)
            d, _ = solver.solve_preconditioner(r, 10.0, 1.0, 0.04, 2.0)
            del d
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert abs(held - 8 * half) <= self.SMALL_BYTES
