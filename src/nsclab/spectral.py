"""Fourier representation of fields on the periodic box [0, L]^d.

Coefficients follow the Fourier-series convention: the forward transform
carries 1/n^d so that a field f(x) = sum_m c_m exp(i xi_m . x) has
``coeffs[m] == c_m`` independent of resolution, with xi_m = 2*pi*m/L and
m on the usual FFT integer lattice.

Conventions baked in here and relied on everywhere else:

* the Nyquist plane (|m_i| = n/2) is zeroed by every derivative because its
  sign is ambiguous there and it breaks Hermitian symmetry;
* reductions sum in a fixed (C-order) lattice order, so norms are bitwise
  reproducible for identical inputs;
* a State is one (nc, *shape) array in the order (a, v, theta[, q]); its
  components are SpectralField views of its rows, and finiteness is checked
  once per stack where it enters (construction, from_stacked, load_state).
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "State",
    "to_physical",
    "to_spectral",
    "random_field",
    "zero_field",
    "zero_state",
    "save_state",
    "load_state",
]


@dataclass(frozen=True)
class Grid:
    """Uniform torus grid: d dimensions, n points per axis, box length L."""

    d: int
    n: int
    L: float = 2.0 * np.pi

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 8, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def dx(self) -> float:
        return self.L / self.n

    def modes_1d(self) -> np.ndarray:
        """Integer mode numbers along one axis in FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def wavevectors(self) -> list:
        """List of d read-only arrays, full grid shape: components of xi."""
        return list(_cached_wavevectors(self))

    def wavenumber_magnitude(self) -> np.ndarray:
        return _cached_magnitude(self)

    def nyquist_mask(self) -> np.ndarray:
        """True where any mode index equals -n/2 (the Nyquist plane)."""
        return _cached_nyquist(self)

    def dealias_mask(self) -> np.ndarray:
        """True where every |m_i| <= n/3: the modes the 2/3 rule keeps."""
        return _cached_dealias(self)

    def mirror_indices(self) -> tuple:
        """Index arrays mapping each lattice point m to -m (mod n)."""
        idx = (-np.arange(self.n)) % self.n
        return np.ix_(*([idx] * self.d))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=32)
def _cached_wavevectors(grid: Grid) -> tuple:
    m = grid.modes_1d() * (2.0 * np.pi / grid.L)
    grids = np.meshgrid(*([m] * grid.d), indexing="ij")
    return tuple(_freeze(g) for g in grids)


@functools.lru_cache(maxsize=32)
def _cached_magnitude(grid: Grid) -> np.ndarray:
    return _freeze(np.sqrt(sum(x**2 for x in _cached_wavevectors(grid))))


@functools.lru_cache(maxsize=32)
def _cached_nyquist(grid: Grid) -> np.ndarray:
    m = grid.modes_1d()
    ny = np.abs(m) == grid.n // 2
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.d):
        shape = [1] * grid.d
        shape[axis] = grid.n
        mask |= ny.reshape(shape)
    return _freeze(mask)


@functools.lru_cache(maxsize=32)
def _cached_dealias(grid: Grid) -> np.ndarray:
    keep1d = np.abs(grid.modes_1d()) <= grid.n / 3.0
    return _freeze(np.logical_and.reduce(np.meshgrid(*([keep1d] * grid.d), indexing="ij")))


@dataclass
class SpectralField:
    """A scalar field stored as Fourier coefficients on a Grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite Fourier coefficients")

    @property
    def mean(self) -> complex:
        return complex(self.coeffs[(0,) * self.grid.d])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        mirrored = np.conj(self.coeffs[self.grid.mirror_indices()])
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(self.coeffs - mirrored)) <= tol * max(scale, 1.0))

    def hermitized(self) -> "SpectralField":
        """Project onto the Hermitian-symmetric subspace (real fields)."""
        return SpectralField(self.grid, _hermitize(self.grid, self.coeffs))

    def l2_norm(self) -> float:
        """Physical L2 norm, computed spectrally (Parseval, exact)."""
        return float(
            np.sqrt(self.grid.L**self.grid.d * np.sum(np.abs(self.coeffs) ** 2))
        )


def _hermitize(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """(c(m) + conj c(-m)) / 2 over the last d axes of coeffs."""
    return 0.5 * (coeffs + np.conj(coeffs[(..., *grid.mirror_indices())]))


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def to_physical(f: SpectralField) -> np.ndarray:
    """Sample the field on the grid; inverse of to_spectral."""
    return np.fft.ifftn(f.coeffs) * f.grid.n**f.grid.d


def to_spectral(grid: Grid, samples: np.ndarray) -> SpectralField:
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(
            f"sample shape {samples.shape} does not match grid {grid.shape}"
        )
    return SpectralField(grid, np.fft.fftn(samples) / grid.n**grid.d)


def _grad(grid: Grid, c: np.ndarray) -> np.ndarray:
    """The gradient of coefficients c as one (d, *grid.shape) stack, 0 on
    the Nyquist plane."""
    return 1j * np.stack(grid.wavevectors()) * np.where(grid.nyquist_mask(), 0.0, 1.0) * c


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 2.0,
) -> SpectralField:
    """Random Hermitian field with |coeff| ~ (1+|m|)^-decay, Nyquist-free
    and of zero mean."""
    shape = grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mag = grid.wavenumber_magnitude() * grid.L / (2.0 * np.pi)
    raw *= amplitude / (1.0 + mag) ** decay
    raw[grid.nyquist_mask()] = 0.0
    f = SpectralField(grid, raw).hermitized()
    f.coeffs[(0,) * grid.d] = 0.0
    return f


def _row_views(grid: Grid, rows: np.ndarray) -> list:
    """SpectralFields over the rows of a (k, *grid.shape) stack, built
    without the finiteness scan of SpectralField (the stack was checked
    where it entered)."""
    views = []
    for c in rows:
        f = SpectralField.__new__(SpectralField)
        f.grid, f.coeffs = grid, c
        views.append(f)
    return views


class State:
    """Density, velocity, temperature and heat-flux perturbation fields.

    The coefficients live in one complex array ``u`` of shape
    (nc, *grid.shape) in the order (a, v_1..v_d, theta[, q_1..q_d]): nc =
    2d + 2, or d + 2 for Fourier-law systems, whose ``q`` is None.  ``a``,
    ``v``, ``theta``, ``q`` and ``fields()`` are views of rows of ``u``, so
    none of them copies, and a write through
    ``st.theta.coeffs`` lands in the state.  The whole stack is checked
    finite once, on entry: the keyword constructor copies its fields into a
    new stack at t = 0, ``from_stacked`` wraps the array it is given at the
    time it is given.
    """

    def __init__(self, a: SpectralField, v, theta: SpectralField, q=None):
        grid, v = a.grid, tuple(v)
        comps = [a, *v, theta]
        if q is not None:
            q = tuple(q)
            comps += q
        if len(v) != grid.d or (q is not None and len(q) != grid.d):
            raise ValueError("velocity/heat-flux tuples must have d components")
        if any(f.grid != grid for f in comps):
            raise ValueError("all components must live on the same grid")
        self._wrap(grid, np.stack([f.coeffs for f in comps]), 0.0, q is not None)

    @classmethod
    def from_stacked(cls, grid: Grid, arr: np.ndarray, time: float, has_flux: bool) -> "State":
        """The State over arr (nc, *grid.shape); a complex128 arr is not copied."""
        st = cls.__new__(cls)
        st._wrap(grid, arr, time, has_flux)
        return st

    def _wrap(self, grid: Grid, u, time: float, has_flux: bool) -> None:
        u = np.asarray(u, dtype=np.complex128)
        shape = (2 * grid.d + 2 if has_flux else grid.d + 2, *grid.shape)
        if u.shape != shape:
            raise ValueError(f"stacked state shape {u.shape} does not match {shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("non-finite Fourier coefficients")
        self.grid, self.u, self.time = grid, u, time

    @property
    def has_flux(self) -> bool:
        return len(self.u) == 2 * self.grid.d + 2

    @property
    def a(self) -> SpectralField:
        return _row_views(self.grid, self.u[:1])[0]

    @property
    def v(self) -> tuple:
        return tuple(_row_views(self.grid, self.u[1 : 1 + self.grid.d]))

    @property
    def theta(self) -> SpectralField:
        return _row_views(self.grid, self.u[1 + self.grid.d : 2 + self.grid.d])[0]

    @property
    def q(self) -> tuple | None:
        return tuple(_row_views(self.grid, self.u[2 + self.grid.d :])) if self.has_flux else None

    def fields(self) -> list:
        return _row_views(self.grid, self.u)

    def component_labels(self) -> list:
        d = self.grid.d
        labels = ["a"] + [f"v{i+1}" for i in range(d)] + ["theta"]
        if self.has_flux:
            labels += [f"q{i+1}" for i in range(d)]
        return labels

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(f.is_hermitian(tol) for f in self.fields())

    def hermitized(self) -> "State":
        """Every component projected onto the Hermitian-symmetric subspace."""
        return State.from_stacked(self.grid, _hermitize(self.grid, self.u), self.time, self.has_flux)


def zero_state(grid: Grid) -> State:
    """The zero state of the relaxing system, heat flux included."""
    return State.from_stacked(grid, np.zeros((2 * grid.d + 2, *grid.shape), dtype=np.complex128), 0.0, True)


# Flat binary snapshot container.
#
# Layout (little-endian):
#   magic    4 bytes  b"SFLD"
#   version  uint32   1
#   d        uint32
#   n        uint32
#   L        float64
#   ncomp    uint32
#   time     float64
#   data     ncomp * n^d complex64, C order, components consecutive
_HEADER = struct.Struct("<4sIIIdId")
_MAGIC = b"SFLD"


def _load_stack(path):
    """Read back (grid, (ncomp, *grid.shape) coefficients, time): byte counts
    checked first, then one component row at a time into one complex64 row."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: header needs {_HEADER.size} bytes, found {len(header)}")
        magic, version, d, n, L, ncomp, time = _HEADER.unpack(header)
        if magic != _MAGIC or version != 1:
            raise ValueError(f"not a field container: {path}")
        count = n**d
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found == 8 * ncomp * count:
            grid = Grid(d=d, n=n, L=L)
            arr, row = np.empty((ncomp, *grid.shape), dtype=np.complex128), np.empty(grid.shape, dtype="<c8")
            for out in arr:
                found -= row.nbytes - fh.readinto(row)  # a short read leaves found at the bytes read
                out[...] = row  # complex64 to complex128 is exact
        if found != 8 * ncomp * count:
            raise ValueError(f"{path}: payload of {ncomp} fields needs {8 * ncomp * count} bytes, found {found}")
    return grid, arr, time


def save_state(path, state: State) -> None:
    """Write a snapshot, one component row at a time."""
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, grid.d, grid.n, grid.L, len(state.u), state.time))
        for row in state.u:
            fh.write(np.ascontiguousarray(row, dtype="<c8").tobytes())


def load_state(path) -> State:
    """Read a snapshot: 2d + 2 components carry the heat flux, d + 2 do not,
    and any other count is refused."""
    grid, arr, time = _load_stack(path)
    return State.from_stacked(grid, arr, time, len(arr) == 2 * grid.d + 2)
