"""Uniform periodic grid calculus.

Scalar unknowns live at cell centers of a uniform grid over a periodic box
(0, L)^dim with n cells per direction, h = L/n; no ghost layers are ever
stored.

Array convention: a cell field is an ndarray of shape (n,)*dim in C order
with the x index varying fastest, i.e. physical axis d corresponds to array
axis dim-1-d.

The schemes need two operators: the standard 2*dim+1 point Laplacian
:func:`lap`, and the l^2 norm :func:`grad_norm_2` of the forward
difference (D_d u)_i = (u_{i+1} - u_i) / h along each direction, which
carries the gradient energy.  On a periodic grid the two are linked by
summation by parts, -<u, lap u> = grad_norm_2(u)^2.  Inner products
carry the uniform quadrature weight h^dim.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box (0, length)^dim with n cells per direction."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be the integer 1, 2 or 3, got {self.dim!r}")
        if not _is_int(self.n) or self.n < 2:
            raise ConfigError(f"need an integer >= 2 cells per direction, got {self.n!r}")
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
        # meshgrid in ij order over array axes (slowest first), then return
        # physically ordered (x fastest axis last).
        mats = np.meshgrid(*([line] * self.dim), indexing="ij")
        return tuple(mats[self.axis_of(d)] for d in range(self.dim))

    def validate_field(self, u: np.ndarray) -> None:
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} does not match grid {self.shape}")


def lap(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Periodic 2*dim+1 point Laplacian."""
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


def norm_inf(u: np.ndarray) -> float:
    """max |u|, taken as max(max u, -min u) without an abs temporary."""
    return float(max(u.max(), -u.min()))


def norm_2(grid: Grid, u: np.ndarray) -> float:
    return float(np.sqrt(inner(grid, u, u)))


def grad_norm_2(grid: Grid, u: np.ndarray) -> float:
    """l^2 norm sqrt(h^dim sum_d sum_i (D_d u)_i^2) of the forward-difference
    gradient, one pass per direction."""
    h = grid.h
    acc = 0.0
    for d in range(grid.dim):
        ax = grid.axis_of(d)
        delta = (np.roll(u, -1, axis=ax) - u) / h
        acc += float(np.sum(delta * delta))
    return float(np.sqrt(grid.cell_volume * acc))
