"""Stencil calculus checked against independently assembled dense matrices.

The dense oracles (tests/oracles.py) build explicit matrices for the
difference operators with nothing but integer index arithmetic, sharing no
code with the library, and the quadrature oracle uses compensated
summation.  Agreement tolerances are
absolute on unit-scale random fields.  One table takes every field
argument of the package through the field rule of Grid.field and
Grid.height (norm_inf, which needs no grid, through its dtype half):
another shape or a complex, bool or object dtype is refused, and any other
array-like gives the bits of its C-contiguous float64 copy.
"""

import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_grad_matrices, dense_neg_lap_matrix, roll_grad_norm_2, roll_lap
from thinfilm import (
    Bdf2Scheme,
    FirstOrderScheme,
    Grid,
    NonPositiveFieldError,
    PhysParams,
    SpectralSolver,
    discrete_energy,
    grad_norm_2,
    inner,
    lap,
    modified_energy,
    mu_exact,
    norm_inf,
    norm_2,
    restart_state,
    write_field_snapshot,
)
from thinfilm.energy import mu_bdf2, mu_first_order, splitting_first_order, splitting_stabilized


def random_field(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.shape)


# One table of every field argument of the package, on an 8 x 8 grid.  The
# integer-valued bases survive every dtype of the tables: heights 2..4 for
# the arguments that must be positive (and for plain fields), a
# checkerboard whose rows sum to zero for those that must be mean-zero.
GRID = Grid(2, 8, 1.0)
PARAMS = PhysParams(0.1)
_I, _J = np.indices(GRID.shape)
BASES = {
    "height": 2.0 + (_I + 2 * _J) % 3,
    "mean-zero": (-1.0) ** (_I + _J) * (1 + _I % 4),
}
BASES["field"] = BASES["height"]
H, Z = BASES["height"], BASES["mean-zero"]
H_OTHER = H[::-1].copy()
SMOOTH = 1.0 + 0.1 * np.cos(2.0 * np.pi * GRID.coordinates()[0])


def snapshot_bytes(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.tfgf"
        write_field_snapshot(path, GRID, u, 0.5)
        return path.read_bytes(), (Path(tmp) / "field.tfgf.meta").read_bytes()


def first_order_residual(*args, **kwargs):
    return FirstOrderScheme(GRID, PARAMS).step_system_from(*args, **kwargs).residual(H)


def bdf2_residual(*args, **kwargs):
    return Bdf2Scheme(GRID, PARAMS).step_system_from(*args, **kwargs).residual(H)


# (name, kind of base, call taking the field as its one varied argument)
FIELD_ARGUMENTS = [
    ("lap", "field", lambda u: lap(GRID, u)),
    ("grad_norm_2", "field", lambda u: grad_norm_2(GRID, u)),
    ("norm_2", "field", lambda u: norm_2(GRID, u)),
    ("mu_exact", "height", lambda u: mu_exact(GRID, u, 0.1)),
    ("discrete_energy", "height", lambda u: discrete_energy(GRID, u, 0.1)),
    ("modified_energy", "field",
     lambda u: modified_energy(SpectralSolver(GRID), u, H_OTHER, 1.0, 0.01, 0.0)),
    ("modified_energy.phi_old", "field",
     lambda u: modified_energy(SpectralSolver(GRID), H_OTHER, u, 1.0, 0.01, 0.0)),
    ("restart_state", "height", lambda u: restart_state(GRID, u)),
    ("cold_start", "height", lambda u: Bdf2Scheme(GRID, PARAMS).cold_start(u, 1e-3)),
    ("FirstOrderScheme.step_system_from", "height", lambda u: first_order_residual(u, 1e-3)),
    ("Bdf2Scheme.step_system_from.phi_old", "height",
     lambda u: bdf2_residual(u, H_OTHER, 1e-3)),
    ("Bdf2Scheme.step_system_from.phi_older", "height",
     lambda u: bdf2_residual(H_OTHER, u, 1e-3)),
    ("Bdf2Scheme.step_system_from.lap_old", "field",
     lambda u: bdf2_residual(H_OTHER, H, 1e-3, lap_old=u)),
    ("step.source", "mean-zero",
     lambda u: FirstOrderScheme(GRID, PARAMS).step(restart_state(GRID, SMOOTH), 1e-3, u)),
    ("inv_neg_lap", "mean-zero", lambda u: SpectralSolver(GRID).inv_neg_lap(u)),
    ("hminus1_inner", "mean-zero", lambda u: SpectralSolver(GRID).hminus1_inner(u, Z)),
    ("hminus1_inner.g", "mean-zero", lambda u: SpectralSolver(GRID).hminus1_inner(Z, u)),
    ("hminus1_norm", "mean-zero", lambda u: SpectralSolver(GRID).hminus1_norm(u)),
    ("solve_preconditioner", "mean-zero",
     lambda u: SpectralSolver(GRID).solve_preconditioner(u, 1.0, 1.0, 1.0)),
    ("write_field_snapshot", "field", snapshot_bytes),
    ("mu_first_order.phi_new", "height", lambda u: mu_first_order(GRID, u, H_OTHER, 0.1)),
    ("mu_first_order.phi_old", "height", lambda u: mu_first_order(GRID, H_OTHER, u, 0.1)),
    ("mu_bdf2.phi_new", "height", lambda u: mu_bdf2(GRID, u, H, H_OTHER, PARAMS, 0.1)),
    ("mu_bdf2.phi_check", "field", lambda u: mu_bdf2(GRID, H, u, H_OTHER, PARAMS, 0.1)),
    ("mu_bdf2.phi_old", "field", lambda u: mu_bdf2(GRID, H, H_OTHER, u, PARAMS, 0.1)),
    ("splitting_first_order", "height", lambda u: splitting_first_order(GRID, u, 0.1)),
    ("splitting_stabilized", "height", lambda u: splitting_stabilized(GRID, u, 0.1, 1.0)),
    ("inner", "field", lambda u: inner(GRID, u, H_OTHER)),
    ("inner.v", "field", lambda u: inner(GRID, H_OTHER, u)),
    ("norm_inf", "field", norm_inf),
]
ENTRY_IDS = [name for name, _, _ in FIELD_ARGUMENTS]

# Each entry but norm_inf (max |u| needs no grid) with a field of another
# shape: the (4, 16) reshape under the entry's own name, then one row, an
# extra axis and a 0-d field.
SHAPE_CASES = [
    pytest.param(name, kind, call, u, id=name + suffix)
    for name, kind, call in FIELD_ARGUMENTS
    if name != "norm_inf"
    for suffix, u in (
        ("", BASES[kind].reshape(4, 16)),
        ("-one row", BASES[kind][:1]),
        ("-extra axis", BASES[kind][None]),
        ("-0-d", np.array(BASES[kind][0, 0])),
    )
]


def dtype_variant(base, variant):
    """base as the named array-like: another dtype, a list, or a layout."""
    if variant == "complex":
        return base + 0.5j
    if variant == "bool":
        return base != 0.0
    if variant in ("object", "int64", "float32"):
        return base.astype(variant)
    if variant == "list":
        return base.tolist()
    if variant == "fortran":
        return np.asfortranarray(base)
    wide = np.zeros(base.shape[:-1] + (2 * base.shape[-1],))
    wide[..., 1::2] = base
    return wide[..., 1::2]


def result_values(result):
    """A result as a flat list of float64 arrays and reprs of the rest."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [value for item in result for value in result_values(item)]
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64
        return [(result.shape, result.tobytes(order="C"))]
    return [repr(result)]


class TestGridGeometry:
    def test_spacing_and_volumes(self):
        grid = Grid(2, 8, 2.0)
        assert grid.h == 0.25
        assert grid.shape == (8, 8)
        assert grid.num_cells == 64
        assert grid.cell_volume == 0.0625
        assert grid.volume == 4.0

    def test_cell_centers_offset_half(self):
        grid = Grid(1, 4, 1.0)
        (x,) = grid.coordinates()
        assert np.allclose(x, [0.125, 0.375, 0.625, 0.875])

    def test_x_varies_along_last_axis(self):
        grid = Grid(2, 4, 1.0)
        x, y = grid.coordinates()
        # rows share y, columns share x
        assert np.allclose(x[0], x[3])
        assert np.allclose(y[:, 0], y[:, 3])
        assert x[0, 1] - x[0, 0] == pytest.approx(grid.h)
        assert y[1, 0] - y[0, 0] == pytest.approx(grid.h)
        assert grid.axis_of(0) == 1
        assert grid.axis_of(1) == 0

    def test_coordinates_3d_orientation(self):
        grid = Grid(3, 3, 3.0)
        x, y, z = grid.coordinates()
        assert x[0, 0, 1] - x[0, 0, 0] == pytest.approx(1.0)
        assert y[0, 1, 0] - y[0, 0, 0] == pytest.approx(1.0)
        assert z[1, 0, 0] - z[0, 0, 0] == pytest.approx(1.0)


class TestDifferenceOperators:
    def test_lap_1d_hand_example(self):
        grid = Grid(1, 4, 2.0)
        u = np.array([0.0, 1.0, 0.0, 0.0])
        # h = 1/2, stencil (1, -2, 1)/h^2
        assert np.allclose(lap(grid, u), [4.0, -8.0, 4.0, 0.0])

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 6)])
    def test_lap_matches_dense_oracle(self, dim, n):
        grid = Grid(dim, n, 2.3)
        u = random_field(grid, 37 + dim)
        expected = -(dense_neg_lap_matrix(grid) @ u.ravel())
        assert np.max(np.abs(lap(grid, u).ravel() - expected)) <= 1e-11

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_translation_equivariance(self, dim):
        grid = Grid(dim, 6, 1.0)
        u = random_field(grid, 77 + dim)
        shift = {"shift": 2, "axis": grid.axis_of(0)}
        assert np.allclose(
            lap(grid, np.roll(u, **shift)), np.roll(lap(grid, u), **shift)
        )
        assert grad_norm_2(grid, np.roll(u, **shift)) == pytest.approx(
            grad_norm_2(grid, u), rel=1e-13
        )

    def test_constants_annihilated(self):
        grid = Grid(2, 9, 3.0)
        u = np.full(grid.shape, 4.2)
        assert norm_inf(lap(grid, u)) <= 1e-14 / grid.h**2
        assert grad_norm_2(grid, u) == 0.0

    @pytest.mark.parametrize("name, kind, call, u", SHAPE_CASES)
    def test_field_of_another_grid_rejected(self, name, kind, call, u):
        """A (4, 16) field has the 64 cells of an 8 x 8 grid but not its
        shape, so its spacing is not the grid's; numpy would broadcast a
        field of one row, or a 0-d one, over the grid."""
        with pytest.raises(ValueError, match=r"shape \(.*\) does not match grid \(8, 8\)"):
            call(u)

    @pytest.mark.parametrize("variant", ["complex", "bool", "object"])
    @pytest.mark.parametrize("name, kind, call", FIELD_ARGUMENTS, ids=ENTRY_IDS)
    def test_field_of_another_kind_rejected(self, name, kind, call, variant):
        """Complex, bool and object fields are refused, not cast."""
        u = dtype_variant(BASES[kind], variant)
        with pytest.raises(ValueError, match=f"dtype {u.dtype} is not an integer or real float"):
            call(u)

    @pytest.mark.parametrize("variant", ["list", "int64", "float32", "fortran", "strided"])
    @pytest.mark.parametrize("name, kind, call", FIELD_ARGUMENTS, ids=ENTRY_IDS)
    def test_field_taken_as_its_float64_copy(self, name, kind, call, variant):
        """Any integer or real float array-like, in any layout, gives the
        result of its C-contiguous float64 copy, to the bit."""
        u = dtype_variant(BASES[kind], variant)
        expected = call(np.ascontiguousarray(u, dtype=float))
        assert result_values(call(u)) == result_values(expected)

    def test_c_contiguous_float64_field_is_the_callers_array(self):
        """No copy of a C-contiguous float64 field: the step's peak memory
        counts on it.  Another layout or dtype gives a fresh C-contiguous
        float64 array."""
        u = BASES["height"].copy()
        assert GRID.field(u) is u and GRID.height(u, "phi") is u
        for other in (np.asfortranarray(u), u.astype(np.float32)):
            wide = GRID.field(other)
            assert wide.dtype == np.float64 and wide.flags.c_contiguous
            assert not np.shares_memory(wide, other)

    def test_height_refuses_a_non_positive_field(self):
        with pytest.raises(NonPositiveFieldError, match="start data must be strictly positive"):
            GRID.height(-BASES["height"], "start data")

    def test_lap_output_mean_zero(self):
        grid = Grid(2, 16, 1.0)
        u = random_field(grid, 3)
        assert abs(np.mean(lap(grid, u))) <= 1e-12 * norm_inf(u) / grid.h**2


STENCIL_GRIDS = [(dim, n) for dim in (1, 2, 3) for n in (2, 3, 7, 16)] + [(2, 128), (3, 48)]


class TestRollFormula:
    """The slice stencils give the bits of the np.roll formulas."""

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_lap_bit_identical(self, dim, n):
        grid = Grid(dim, n, 1.3)
        u = random_field(grid, 40 + n)
        assert np.array_equal(lap(grid, u), roll_lap(grid, u))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lap_of_integer_field(self, dim):
        grid = Grid(dim, 7, 1.3)
        u = np.random.default_rng(dim).integers(-1000, 1000, grid.shape)
        out = lap(grid, u)
        assert out.dtype == np.float64
        assert np.array_equal(out, roll_lap(grid, u))

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_grad_norm_2_bit_identical(self, dim, n):
        grid = Grid(dim, n, 1.3)
        u = random_field(grid, 60 + n)
        assert grad_norm_2(grid, u) == roll_grad_norm_2(grid, u)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_other_dtypes_computed_in_float64(self, dim, dtype):
        """Entries up to a few hundred: their squares pass float16's largest
        value, 65504, and a float32 dot rounds in float32."""
        grid = Grid(dim, 7, 1.3)
        u = (100.0 * random_field(grid, 80 + dim)).astype(dtype)
        v = (100.0 * random_field(grid, 90 + dim)).astype(dtype)
        wide_u, wide_v = u.astype(float), v.astype(float)
        assert np.array_equal(lap(grid, u), lap(grid, wide_u))
        assert grad_norm_2(grid, u) == grad_norm_2(grid, wide_u)
        assert inner(grid, u, v) == inner(grid, wide_u, wide_v)
        assert norm_2(grid, u) == norm_2(grid, wide_u)

    @pytest.mark.parametrize("kind", ["float16", "float32", "int64", "fortran", "transposed", "sliced"])
    @pytest.mark.parametrize("n", [2, 3, 5, 48])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_layouts_and_dtypes(self, dim, n, kind):
        """Any dtype or memory layout gives the oracle's bits on the
        C-contiguous float64 copy, in a fresh C-contiguous output, and
        leaves the input as it was.  The contiguous axis's flat sweep only
        works in a C-ordered output: one that followed a Fortran-ordered
        input would reshape to a copy and lose the sweep's adds."""
        grid = Grid(dim, n, 1.3)
        rng = np.random.default_rng(1000 * dim + n)
        field = 100.0 * rng.standard_normal(grid.shape)
        if kind == "fortran":
            u = np.asfortranarray(field)
        elif kind == "transposed":
            u = field.T  # a view with reversed strides
        elif kind == "sliced":
            u = 100.0 * rng.standard_normal((2 * n,) * dim)[(slice(1, None, 2),) * dim]
        else:
            u = field.astype(kind)
        before = u.copy()
        expected = np.ascontiguousarray(u, dtype=float)
        out = lap(grid, u)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert not np.shares_memory(out, u)
        assert np.array_equal(out, roll_lap(grid, expected))
        assert grad_norm_2(grid, u) == roll_grad_norm_2(grid, expected)
        assert np.array_equal(u, before)


class TestInnerProductsAndNorms:
    def test_inner_matches_fsum_oracle(self):
        grid = Grid(2, 12, 1.9)
        u = random_field(grid, 101)
        v = random_field(grid, 102)
        expected = grid.cell_volume * math.fsum(
            float(a) * float(b) for a, b in zip(u.ravel(), v.ravel())
        )
        assert inner(grid, u, v) == pytest.approx(expected, abs=1e-13, rel=1e-13)

    @pytest.mark.parametrize("dim, n", [(1, 13), (2, 9), (3, 5)])
    def test_inner_and_norm_inf_on_fields_and_views(self, dim, n):
        grid = Grid(dim, n, 1.7)
        rng = np.random.default_rng(300 + dim)
        big = rng.standard_normal((2 * n,) * dim)
        fields = [
            rng.standard_normal(grid.shape),
            big[(slice(None, None, 2),) * dim],  # strided view
            big[(slice(1, None, 2),) * dim].T,  # strided, reversed axes
            -np.abs(rng.standard_normal(grid.shape)),  # max |u| at a negative entry
        ]
        for u in fields:
            assert norm_inf(u) == float(np.max(np.abs(u)))
            for v in fields:
                expected = grid.cell_volume * math.fsum(
                    float(a) * float(b) for a, b in zip(u.ravel(), v.ravel())
                )
                assert inner(grid, u, v) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("case", range(100))
    def test_summation_by_parts(self, case):
        rng = np.random.default_rng(1000 + case)
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(3, 9))
        grid = Grid(dim, n, float(rng.uniform(0.5, 3.0)))
        u = rng.standard_normal(grid.shape)
        v = rng.standard_normal(grid.shape)
        # -<u, lap v> = h^dim sum_d <G_d u, G_d v>, G_d the dense forward
        # difference; with v = u the right side is grad_norm_2(u)^2.
        grads = dense_grad_matrices(grid)
        lhs = -inner(grid, u, lap(grid, v))
        rhs = grid.cell_volume * sum(
            float((g @ u.ravel()) @ (g @ v.ravel())) for g in grads
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        energy = -inner(grid, u, lap(grid, u))
        assert abs(energy - grad_norm_2(grid, u) ** 2) <= 1e-12 * max(1.0, energy)

    def test_lap_is_symmetric_negative(self):
        grid = Grid(2, 7, 1.0)
        u = random_field(grid, 31)
        v = random_field(grid, 32)
        assert inner(grid, u, lap(grid, v)) == pytest.approx(
            inner(grid, lap(grid, u), v), rel=1e-12, abs=1e-12
        )
        assert inner(grid, u, lap(grid, u)) <= 1e-12

    def test_norm_p_hand_values(self):
        grid = Grid(1, 4, 2.0)
        u = np.array([1.0, -2.0, 2.0, -1.0])
        # h = 1/2: ||u||_2 = sqrt(5), ||u||_inf = 2
        assert norm_2(grid, u) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert norm_inf(u) == 2.0

    def test_norm_2_takes_its_field_once(self):
        """A float32 field is copied to float64 once, not once per factor of
        <u, u>; a float64 field keeps the bits of sqrt(h^dim u.u)."""
        grid = Grid(2, 128, 1.0)
        narrow = np.ones(grid.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            norm_2(grid, narrow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * grid.num_cells * 8
        flat = random_field(grid, 7).ravel()
        assert norm_2(grid, flat.reshape(grid.shape)) == math.sqrt(
            grid.cell_volume * float(np.dot(flat, flat)))

    def test_grad_norm_matches_dense_oracle(self):
        grid = Grid(2, 9, 1.4)
        u = random_field(grid, 91)
        expected = math.sqrt(grid.cell_volume * sum(
            float(np.sum((g @ u.ravel()) ** 2)) for g in dense_grad_matrices(grid)
        ))
        assert grad_norm_2(grid, u) == pytest.approx(expected, rel=1e-13)

    def test_norms_scale_with_volume(self):
        # Doubling the box at fixed n scales ||1||_2 by 2^(dim/2).
        u4 = np.ones((4, 4))
        assert norm_2(Grid(2, 4, 2.0), u4) == pytest.approx(
            2.0 * norm_2(Grid(2, 4, 1.0), u4), rel=1e-14
        )
