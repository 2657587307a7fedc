"""Uniform periodic grid calculus.

Scalar unknowns live at cell centers of a uniform grid over a periodic box
(0, L)^dim with n cells per direction, h = L/n; no ghost layers are ever
stored.

Array convention: a cell field is an ndarray of shape (n,)*dim in C order
with the x index varying fastest, i.e. physical axis d corresponds to array
axis dim-1-d.

Two stencil operators: the standard 2*dim+1 point Laplacian :func:`lap`,
and the l^2 norm :func:`grad_norm_2` of the forward difference
(D_d u)_i = (u_{i+1} - u_i) / h along each direction, which defines the
gradient energy.  On a periodic grid the two are linked by summation by
parts, -<u, lap u> = grad_norm_2(u)^2, and the schemes evaluate the
energy through the left-hand side.  Inner products carry the uniform
quadrature weight h^dim.

Every field argument of the package is taken through :meth:`Grid.field`
(or :meth:`Grid.height`, strictly positive); :func:`norm_inf`, which needs
no grid, takes the dtype half of that rule.  Both stencils reach the
neighbours never through shifted copies of the field, and add (or
subtract) them in the order of the np.roll formulas (tests/oracles.py),
so their bits are those formulas'.  An axis reaches its neighbours
through slices (the interior shift plus the one wrapped layer), except the
contiguous (x) axis of :func:`lap`, which the solver calls in every step:
slicing it would cost numpy one inner loop per row, so lap takes it in one
shifted add over the whole flattened field.  That add pairs each row's end
cell with a cell of the neighbouring row, so the row ends are then redone
from the row's own wrapped cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, check_count, check_positive, check_positive_finite


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box (0, length)^dim with n cells per direction.

    The derived constants are computed once per instance and cached; they
    take no part in equality or the hash, which see the three fields only.
    """

    dim: int
    n: int
    length: float

    def __post_init__(self):
        check_count("dim", self.dim, 1)
        if self.dim > 3:
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        check_count("n", self.n, 2)
        check_positive_finite("length", self.length)

    @cached_property
    def h(self) -> float:
        return self.length / self.n

    @cached_property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @cached_property
    def num_cells(self) -> int:
        return self.n**self.dim

    @cached_property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @cached_property
    def volume(self) -> float:
        return self.length**self.dim

    def axis_of(self, direction: int) -> int:
        """Array axis carrying physical direction ``direction`` (0 = x)."""
        return self.dim - 1 - direction

    def coordinates(self) -> tuple:
        """Cell-center coordinate arrays (x, y, z)[:dim], each of full shape.

        Centers sit at (i + 1/2) h along every direction.
        """
        line = (np.arange(self.n) + 0.5) * self.h
        # meshgrid in ij order over array axes (slowest first), then return
        # physically ordered (x fastest axis last).
        mats = np.meshgrid(*([line] * self.dim), indexing="ij")
        return tuple(mats[self.axis_of(d)] for d in range(self.dim))

    def field(self, u, what: str = "field") -> np.ndarray:
        """u as a C-contiguous float64 field of this grid, the caller's own
        array when it is one already; ValueError, before any arithmetic, for
        another shape or a dtype that is not an integer or real float
        (complex, bool, object), with ``what`` naming u in the message."""
        u = np.asarray(u)
        if u.shape != self.shape:
            raise ValueError(f"{what} shape {u.shape} does not match grid {self.shape}")
        return _real_float64(u, what)

    def height(self, u, what: str) -> np.ndarray:
        """:meth:`field`, strictly positive (NonPositiveFieldError otherwise)."""
        u = self.field(u, what)
        check_positive(u, what)
        return u


def _real_float64(u: np.ndarray, what: str) -> np.ndarray:
    """The dtype half of :meth:`Grid.field`'s rule, for an ndarray u."""
    if u.dtype.kind not in "iuf":
        raise ValueError(f"{what} dtype {u.dtype} is not an integer or real float")
    return np.ascontiguousarray(u, dtype=float)


def lap(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Periodic 2*dim+1 point Laplacian
    (-2 dim u + sum over axes of u[i+1] + u[i-1]) / h^2, as a fresh
    C-contiguous float64 array.

    A leading axis adds its neighbours as slices of the field.  The
    contiguous axis adds each in one shifted add over the flattened field;
    that add gives each row's end cell its neighbour in the next (or
    previous) row, so the end cells are saved before it and redone from the
    saved value and the row's own wrapped cell after it.
    """
    u = grid.field(u)
    h2 = grid.h * grid.h
    # order="C": the flat adds need out.reshape(-1) to be a view.
    out = np.multiply(u, -2.0 * grid.dim, order="C")
    for ax in range(u.ndim - 1):
        # Views with axis ax first: out[i] += u[i + 1], then
        # out[i] += u[i - 1], periodically.
        o, v = out.swapaxes(0, ax), u.swapaxes(0, ax)
        o[:-1] += v[1:]
        o[-1:] += v[:1]
        o[1:] += v[:-1]
        o[:1] += v[-1:]
    flat_out, flat_u = out.reshape(-1), u.reshape(-1)
    saved = out[..., -1].copy()
    flat_out[:-1] += flat_u[1:]
    np.add(saved, u[..., 0], out=out[..., -1])
    saved = out[..., 0].copy()
    flat_out[1:] += flat_u[:-1]
    np.add(saved, u[..., -1], out=out[..., 0])
    out /= h2
    return out


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Cell inner product <u, v> = h^dim * sum(u v), in float64.

    Both fields are taken through :meth:`Grid.field`, then one dot of the
    flattened fields: no product temporary is formed.
    """
    u, v = grid.field(u, "u"), grid.field(v, "v")
    return grid.cell_volume * float(np.dot(u.ravel(), v.ravel()))


def norm_inf(u: np.ndarray) -> float:
    """max |u| of a field of any shape, as max(max u, -min u) without an
    abs temporary."""
    u = _real_float64(np.asarray(u), "u")
    return float(max(u.max(), -u.min()))


def norm_2(grid: Grid, u: np.ndarray) -> float:
    return float(np.sqrt(inner(grid, u, u)))


def grad_norm_2(grid: Grid, u: np.ndarray) -> float:
    """l^2 norm sqrt(h^dim sum_d sum_i (D_d u)_i^2) of the forward-difference
    gradient, one pass per direction, each a slice subtraction squared in
    place in one scratch field.
    """
    u = grid.field(u)
    h = grid.h
    delta = np.empty(u.shape)
    acc = 0.0
    for d in range(grid.dim):
        ax = grid.axis_of(d)
        dv, v = delta.swapaxes(0, ax), u.swapaxes(0, ax)
        np.subtract(v[1:], v[:-1], out=dv[:-1])
        np.subtract(v[:1], v[-1:], out=dv[-1:])
        delta /= h
        np.square(delta, out=delta)
        acc += float(delta.sum())
    return float(np.sqrt(grid.cell_volume * acc))
