"""Fourier representation of fields on the periodic box [0, L]^d.

Coefficients follow the Fourier-series convention: the forward transform
carries 1/n^d so that a field f(x) = sum_m c_m exp(i xi_m . x) has
``coeffs[m] == c_m`` independent of resolution, with xi_m = 2*pi*m/L and
m on the usual FFT integer lattice.

Conventions baked in here and relied on everywhere else:

* the Nyquist plane (|m_i| = n/2) is zeroed by every multiplier because its
  derivative sign is ambiguous and it breaks Hermitian symmetry;
* singular multipliers (inverse Laplacian, negative-order |xi|^s) map the
  zero mode to zero and refuse fields with nonzero mean;
* reductions sum in a fixed (C-order) lattice order, so norms are bitwise
  reproducible for identical inputs.
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
    "MeanValueError",
    "apply_multiplier",
    "to_physical",
    "to_spectral",
    "dealias_23",
    "field_lp_norm",
    "random_field",
    "zero_field",
    "zero_state",
    "save_fields",
    "load_fields",
    "save_state",
    "load_state",
]


class MeanValueError(ValueError):
    """A singular multiplier was fed a field with nonzero mean."""

    def __init__(self, mean_value):
        self.mean_value = mean_value
        super().__init__(
            f"singular multiplier requires zero mean, got mean {mean_value!r}"
        )


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
            raise ValueError(f"box length must be positive, got {self.L}")

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

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    @property
    def mean(self) -> complex:
        return complex(self.coeffs[(0,) * self.grid.d])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        mirrored = np.conj(self.coeffs[self.grid.mirror_indices()])
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(self.coeffs - mirrored)) <= tol * max(scale, 1.0))

    def hermitized(self) -> "SpectralField":
        """Project onto the Hermitian-symmetric subspace (real fields)."""
        mirrored = np.conj(self.coeffs[self.grid.mirror_indices()])
        return SpectralField(self.grid, 0.5 * (self.coeffs + mirrored))

    def l2_norm(self) -> float:
        """Physical L2 norm, computed spectrally (Parseval, exact)."""
        return float(
            np.sqrt(self.grid.L**self.grid.d * np.sum(np.abs(self.coeffs) ** 2))
        )


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


def _deriv_weight(grid: Grid) -> np.ndarray:
    """1 on derivative-safe modes, 0 on the Nyquist plane."""
    return np.where(grid.nyquist_mask(), 0.0, 1.0)


def apply_multiplier(f, m: str, *, j: int | None = None, sigma: float | None = None):
    """Apply a Fourier multiplier.

    m is one of 'grad_j' (component j, needs j), 'grad' (returns d-tuple),
    'div' (f must be a d-tuple, returns scalar), 'laplacian',
    'inv_neg_laplacian', 'lambda_sigma' (needs sigma).

    Singular multipliers ('inv_neg_laplacian', 'lambda_sigma' with sigma < 0)
    raise MeanValueError when the zero mode is nonzero.
    """
    if m == "div":
        fields = list(f)
        grid = fields[0].grid
        if len(fields) != grid.d:
            raise ValueError(f"div expects a {grid.d}-tuple, got {len(fields)} fields")
        xi = grid.wavevectors()
        w = _deriv_weight(grid)
        out = np.zeros(grid.shape, dtype=np.complex128)
        for comp, x in zip(fields, xi):
            out += 1j * x * w * comp.coeffs
        return SpectralField(grid, out)

    grid = f.grid
    xi = grid.wavevectors()
    w = _deriv_weight(grid)
    if m == "grad":
        return tuple(
            SpectralField(grid, 1j * x * w * f.coeffs) for x in xi
        )
    if m == "grad_j":
        if j is None or not 0 <= j < grid.d:
            raise ValueError(f"grad_j needs a component index in [0, {grid.d})")
        return SpectralField(grid, 1j * xi[j] * w * f.coeffs)
    if m == "laplacian":
        k2 = sum(x**2 for x in xi)
        return SpectralField(grid, -k2 * w * f.coeffs)
    if m == "inv_neg_laplacian":
        if abs(f.mean) > 0.0:
            raise MeanValueError(f.mean)
        k2 = sum(x**2 for x in xi)
        k2safe = np.where(k2 == 0.0, 1.0, k2)
        return SpectralField(grid, np.where(k2 == 0.0, 0.0, w * f.coeffs / k2safe))
    if m == "lambda_sigma":
        if sigma is None:
            raise ValueError("lambda_sigma needs sigma")
        if sigma < 0 and abs(f.mean) > 0.0:
            raise MeanValueError(f.mean)
        k = grid.wavenumber_magnitude()
        ksafe = np.where(k == 0.0, 1.0, k)
        mult = np.where(k == 0.0, 0.0, ksafe**sigma)
        return SpectralField(grid, mult * w * f.coeffs)
    raise ValueError(f"unknown multiplier {m!r}")


def dealias_23(f: SpectralField) -> SpectralField:
    """Zero every coefficient with any |m_i| > n/3 (2/3 rule); idempotent."""
    return SpectralField(f.grid, np.where(f.grid.dealias_mask(), f.coeffs, 0.0))


def field_lp_norm(f: SpectralField, p: float) -> float:
    """Physical L^p norm on the torus (Riemann sum at grid points)."""
    if p == 2:
        return f.l2_norm()
    vals = np.abs(to_physical(f))
    if np.isinf(p):
        return float(np.max(vals))
    cell = (f.grid.L / f.grid.n) ** f.grid.d
    return float((np.sum(vals**p) * cell) ** (1.0 / p))


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 2.0,
    zero_mean: bool = True,
) -> SpectralField:
    """Random Hermitian field with |coeff| ~ (1+|m|)^-decay, Nyquist-free."""
    shape = grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mag = grid.wavenumber_magnitude() * grid.L / (2.0 * np.pi)
    raw *= amplitude / (1.0 + mag) ** decay
    raw[grid.nyquist_mask()] = 0.0
    f = SpectralField(grid, raw).hermitized()
    if zero_mean:
        f.coeffs[(0,) * grid.d] = 0.0
    return f


@dataclass
class State:
    """Density, velocity, temperature and heat-flux perturbation fields.

    ``q`` may be None for Fourier-law (instantaneous heat flux) systems.
    """

    a: SpectralField
    v: tuple
    theta: SpectralField
    q: tuple | None = None
    time: float = 0.0

    def __post_init__(self):
        self.v = tuple(self.v)
        if self.q is not None:
            self.q = tuple(self.q)
        grid = self.a.grid
        d = grid.d
        if len(self.v) != d or (self.q is not None and len(self.q) != d):
            raise ValueError("velocity/heat-flux tuples must have d components")
        for f in self.fields():
            if f.grid != grid:
                raise ValueError("all components must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.a.grid

    @property
    def has_flux(self) -> bool:
        return self.q is not None

    def fields(self) -> list:
        out = [self.a, *self.v, self.theta]
        if self.q is not None:
            out.extend(self.q)
        return out

    def component_labels(self) -> list:
        d = self.grid.d
        labels = ["a"] + [f"v{i+1}" for i in range(d)] + ["theta"]
        if self.q is not None:
            labels += [f"q{i+1}" for i in range(d)]
        return labels

    def stacked(self) -> np.ndarray:
        """(n_comp, *grid.shape) complex array: a copy of the coefficients."""
        return np.stack([f.coeffs for f in self.fields()])

    @classmethod
    def from_stacked(cls, grid: Grid, arr: np.ndarray, time: float, has_flux: bool):
        d = grid.d
        comps = [SpectralField(grid, arr[i]) for i in range(arr.shape[0])]
        a = comps[0]
        v = tuple(comps[1 : 1 + d])
        theta = comps[1 + d]
        q = tuple(comps[2 + d : 2 + 2 * d]) if has_flux else None
        return cls(a=a, v=v, theta=theta, q=q, time=time)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(f.is_hermitian(tol) for f in self.fields())

    def copy(self) -> "State":
        return State(
            a=self.a.copy(),
            v=tuple(f.copy() for f in self.v),
            theta=self.theta.copy(),
            q=tuple(f.copy() for f in self.q) if self.q is not None else None,
            time=self.time,
        )


def zero_state(grid: Grid, with_flux: bool = True) -> State:
    d = grid.d
    return State(
        a=zero_field(grid),
        v=tuple(zero_field(grid) for _ in range(d)),
        theta=zero_field(grid),
        q=tuple(zero_field(grid) for _ in range(d)) if with_flux else None,
    )


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


def save_fields(path, fields, time: float = 0.0) -> None:
    """Write a list of same-grid fields to the flat binary container."""
    fields = list(fields)
    grid = fields[0].grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, grid.d, grid.n, grid.L, len(fields), time))
        for f in fields:
            if f.grid != grid:
                raise ValueError("all fields must share one grid")
            fh.write(np.ascontiguousarray(f.coeffs, dtype="<c8").tobytes())


def load_fields(path):
    """Read back (fields, time) from the flat binary container."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: header needs {_HEADER.size} bytes, found {len(header)}")
        magic, version, d, n, L, ncomp, time = _HEADER.unpack(header)
        if magic != _MAGIC or version != 1:
            raise ValueError(f"not a field container: {path}")
        count = n**d
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != 8 * ncomp * count:
            raise ValueError(f"{path}: payload of {ncomp} fields needs {8 * ncomp * count} bytes, found {found}")
        grid = Grid(d=d, n=n, L=L)
        fields = []
        for _ in range(ncomp):
            block = np.frombuffer(fh.read(8 * count), dtype="<c8").astype(np.complex128)
            fields.append(SpectralField(grid, block.reshape(grid.shape)))
    return fields, time


def save_state(path, state: State) -> None:
    save_fields(path, state.fields(), time=state.time)


def load_state(path, has_flux: bool = True) -> State:
    fields, time = load_fields(path)
    grid = fields[0].grid
    arr = np.stack([f.coeffs for f in fields])
    return State.from_stacked(grid, arr, time, has_flux)
