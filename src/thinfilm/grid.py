"""Uniform periodic staggered-grid calculus.

Scalar unknowns live at cell centers of a uniform grid over a periodic box
(0, L)^dim with n cells per direction, h = L/n.  Vector quantities live at
face centers: component d of a face field sits on the faces orthogonal to
physical axis d.  Entry i of that component is the face between cells i and
i+1 (wrapping periodically), so no ghost layers are ever stored.

Array convention: a cell field is an ndarray of shape (n,)*dim in C order
with the x index varying fastest, i.e. physical axis d corresponds to array
axis dim-1-d.  A face field is a tuple of dim such arrays ordered (x, y, z).

The difference operators are a center-to-face and face-to-center pair:

    grad      : (D u)_{i+1/2} = (u_{i+1} - u_i) / h          (per axis)
    div       : (d f)_i       = (f_{i+1/2} - f_{i-1/2}) / h  (summed)

``div(grad(u))`` collapses to the standard 2*dim+1 point Laplacian, exposed
directly as :func:`lap`.  Inner products carry the uniform quadrature weight
h^dim; the face-field product uses the averaged-product definition
[f, g] = <avg(f*g), 1> which reduces to a plain weighted sum on periodic
grids (the reduction is exercised by the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box (0, length)^dim with n cells per direction."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 2:
            raise ConfigError(f"need at least 2 cells per direction, got {self.n}")
        if not (0.0 < self.length < math.inf):
            raise ConfigError(f"length must be positive and finite, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def num_cells(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
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
        if self.dim == 1:
            return (line.copy(),)
        # meshgrid in ij order over array axes (slowest first), then return
        # physically ordered (x fastest axis last).
        mats = np.meshgrid(*([line] * self.dim), indexing="ij")
        return tuple(mats[self.axis_of(d)] for d in range(self.dim))

    def validate_field(self, u: np.ndarray) -> None:
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} does not match grid {self.shape}")


def grad(grid: Grid, u: np.ndarray) -> tuple:
    """Center-to-face difference along every direction, ordered (x, y, z)."""
    h = grid.h
    return tuple(
        (np.roll(u, -1, axis=grid.axis_of(d)) - u) / h for d in range(grid.dim)
    )


def div(grid: Grid, f: tuple) -> np.ndarray:
    """Face-to-center divergence, the adjoint (up to sign) of :func:`grad`."""
    h = grid.h
    out = np.zeros(grid.shape)
    for d in range(grid.dim):
        ax = grid.axis_of(d)
        out += (f[d] - np.roll(f[d], 1, axis=ax)) / h
    return out


def lap(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Periodic 2*dim+1 point Laplacian, identical to div(grad(u))."""
    h2 = grid.h * grid.h
    out = -2.0 * grid.dim * u.astype(float, copy=True)
    for ax in range(u.ndim):
        out += np.roll(u, -1, axis=ax)
        out += np.roll(u, 1, axis=ax)
    return out / h2


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Cell inner product <u, v> = h^dim * sum(u v).

    One dot of the flattened fields: no product temporary is formed (a
    non-contiguous view is copied by ``ravel``).
    """
    return grid.cell_volume * float(np.dot(u.ravel(), v.ravel()))


def inner_face(grid: Grid, f: tuple, g: tuple) -> float:
    """Face inner product [f, g] = sum_d <avg_d(f_d g_d), 1>.

    Defined through the face-to-center average of the pointwise product;
    on periodic grids this equals the plain weighted sum over faces.
    """
    total = 0.0
    for d in range(grid.dim):
        ax = grid.axis_of(d)
        w = f[d] * g[d]
        total += float(np.sum(0.5 * (w + np.roll(w, 1, axis=ax))))
    return grid.cell_volume * total


def mean(grid: Grid, u: np.ndarray) -> float:
    """Volume average <u, 1> / |Omega|, a plain arithmetic mean."""
    return float(np.mean(u))


def norm_inf(u: np.ndarray) -> float:
    """max |u|, taken as max(max u, -min u) without an abs temporary."""
    return float(max(u.max(), -u.min()))


def norm_2(grid: Grid, u: np.ndarray) -> float:
    return float(np.sqrt(inner(grid, u, u)))


def grad_norm_2(grid: Grid, u: np.ndarray) -> float:
    """l^2 norm of the staggered gradient.

    Uses the periodic reduction of the face inner product to a plain
    weighted sum, so it costs one pass per direction.
    """
    h = grid.h
    acc = 0.0
    for d in range(grid.dim):
        ax = grid.axis_of(d)
        delta = (np.roll(u, -1, axis=ax) - u) / h
        acc += float(np.sum(delta * delta))
    return float(np.sqrt(grid.cell_volume * acc))
