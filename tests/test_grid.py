"""Stencil calculus checked against independently assembled dense matrices.

The dense oracles (tests/oracles.py) build explicit matrices for the
difference operators with nothing but integer index arithmetic, sharing no
code with the library, and the quadrature oracle uses compensated
summation.  Agreement tolerances are
absolute on unit-scale random fields.
"""

import math

import numpy as np
import pytest

from oracles import dense_grad_matrices, dense_neg_lap_matrix, roll_grad_norm_2, roll_lap
from thinfilm import (
    Grid,
    SpectralSolver,
    discrete_energy,
    grad_norm_2,
    inner,
    lap,
    modified_energy,
    mu_exact,
    norm_inf,
    norm_2,
)


def random_field(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.shape)


class TestGridGeometry:
    def test_spacing_and_volumes(self):
        grid = Grid(2, 8, 2.0)
        assert grid.h == 0.25
        assert grid.shape == (8, 8)
        assert grid.num_cells == 64
        assert grid.cell_volume == 0.0625
        assert grid.volume == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0, 8, 1.0)
        with pytest.raises(ValueError):
            Grid(4, 8, 1.0)
        with pytest.raises(ValueError):
            Grid(2, 1, 1.0)
        with pytest.raises(ValueError):
            Grid(2, 8, 0.0)
        with pytest.raises(ValueError):
            Grid(2, 8, math.inf)
        with pytest.raises(ValueError):
            Grid(2, 8, 1.0).validate_field(np.zeros((8, 4)))
        # Counts must be integers; numpy integers count as such.
        with pytest.raises(ValueError, match="integer"):
            Grid(2, 16.0, 1.0)
        with pytest.raises(ValueError, match="integer"):
            Grid(1.0, 8, 1.0)
        # A bool is an Integral but no count.
        with pytest.raises(ValueError, match="integer"):
            Grid(True, 8, 1.0)
        with pytest.raises(ValueError, match="integer"):
            Grid(2, True, 1.0)
        assert Grid(np.int64(2), np.int32(8), 1.0).shape == (8, 8)

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

    @pytest.mark.parametrize(
        "call",
        [
            lap,
            grad_norm_2,
            lambda grid, u: mu_exact(grid, u, 0.1),
            lambda grid, u: discrete_energy(grid, u, 0.1),
            lambda grid, u: modified_energy(
                SpectralSolver(grid), u.reshape(grid.shape), u[:1, :8], 1.0, 0.01, 0.0
            ),
        ],
        ids=["lap", "grad_norm_2", "mu_exact", "discrete_energy", "modified_energy"],
    )
    def test_field_of_another_grid_rejected(self, call):
        """A (4, 16) field has the 64 cells of an 8 x 8 grid but not its
        shape, so its spacing is not the grid's.  modified_energy gets an
        old level of one row, which numpy would broadcast over the new one."""
        u = 1.0 + 0.1 * random_field(Grid(2, 8, 1.0), 5).reshape(4, 16)
        with pytest.raises(ValueError, match="shape"):
            call(Grid(2, 8, 1.0), u)

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
