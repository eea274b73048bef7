"""Dyadic frequency bands, three-regime thresholds and hybrid semi-norms.

Band j is the sharp annulus 2^j <= |xi| < 2^(j+1); sharp cutoffs give an
exact partition of unity over the nonzero modes, so band reconstruction and
regime additivity are testable to roundoff.  Smooth cutoffs would only move
constants, and every consumer here is constant-tolerant.

Band membership is decided in one place, `band_labels`.  Each grid caches
one label array (C order, zero mode unlabelled) and the radial flow labels
its nodes the same way; every band sum is one `np.bincount` of a per-mode
density.  Band norms are taken on coefficient stacks (nc, *shape), a row
slice of `State.u` or a difference of two, rows combined pointwise; the
functions that take fields or field tuples stack them once.  Every band
quantity comes from a pass over all bands, and a caller that needs one band
indexes it.  For p = 2 all band norms of a stack come from one pass over
sum |c|^2 (Parseval), band inner products (in `diagnostics`) from one
pass over Re(conj f g).  For p != 2 each band that
some weight picks takes one complex inverse FFT of the stack: a real
transform would assume Hermitian input, which a single complex exponential
is not, and one batched transform over all bands holds every band's
samples at once (a larger peak, no faster).  A semi-norm is the band norms
dotted with a regime weight vector, 2^(js) on the bands the regime picks.

Regimes are split by a pair of dyadic indices (J0, Jeps).  Internally the
regimes are disjoint (low: j <= J0, medium: J0 < j < Jeps, high: j >= Jeps);
the overlapping convention that repeats the endpoint bands in adjacent
regimes, which the `diagnostics` tables read, is _regime_weights(...,
overlap=True).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import Grid, SpectralField, _freeze

__all__ = [
    "Thresholds",
    "ThresholdOrderError",
    "BandProfile",
    "make_thresholds",
    "floor_log2",
    "dyadic_range",
    "grid_band_range",
    "band_labels",
    "band_sums",
    "band_project",
    "regime_band_indices",
    "besov_seminorm",
    "bernstein_check",
    "BERNSTEIN_INEQUALITIES",
]

REGIMES = ("low", "med", "high", "lowmed", "medhigh", "all")


class ThresholdOrderError(ValueError):
    """Raised when the regime split is inverted (J0 > Jeps).

    Requires the relaxation time to be small enough for the chosen (K, k);
    otherwise the low/high frequency regimes swap and the hypocoercive
    stability mechanism is lost.
    """


def floor_log2(x) -> int:
    """floor(log2 x) computed exactly for rationals, round-half-down ties."""
    frac = Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**12)
    if frac <= 0:
        raise ValueError(f"floor_log2 needs a positive argument, got {x}")
    j = math.floor(math.log2(frac.numerator) - math.log2(frac.denominator))
    # fix float fringe cases near exact powers of two
    while Fraction(2) ** (j + 1) <= frac:
        j += 1
    while Fraction(2) ** j > frac:
        j -= 1
    return j


@dataclass(frozen=True)
class Thresholds:
    """Regime thresholds (K, k, eps) and the derived dyadic split (J0, Jeps)."""

    K: int
    k: float
    eps: float

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"K must be an integer >= 2, got {self.K}")
        if not 0 < self.k <= 1:
            raise ValueError(f"k must satisfy 0 < k <= 1, got {self.k}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.J0 > self.Jeps:
            raise ThresholdOrderError(
                f"threshold ordering J0 <= Jeps violated: J0={self.J0} > Jeps={self.Jeps} "
                f"(K={self.K}, k={self.k}, eps={self.eps}); the relaxation time is too "
                "large for this regime split"
            )

    @functools.cached_property
    def J0(self) -> int:
        return floor_log2(self.K)

    @functools.cached_property
    def Jeps(self) -> int:
        return -floor_log2(self.eps) + floor_log2(self.k)


def make_thresholds(K: int, k: float, eps: float) -> Thresholds:
    return Thresholds(K=int(K), k=k, eps=eps)


def dyadic_range(k_min: float, k_max: float) -> range:
    """Bands from the one holding k_min to the one holding k_max; frexp gives
    floor(log2 k) exactly, where a rounded log2 can reach the next integer."""
    return range(math.frexp(k_min)[1] - 1, math.frexp(k_max)[1])


@functools.lru_cache(maxsize=32)
def grid_band_range(grid: Grid) -> range:
    """Dyadic indices j whose annulus intersects the grid's nonzero modes."""
    return dyadic_range(2.0 * np.pi / grid.L, float(np.max(grid.wavenumber_magnitude())))


def band_labels(k: np.ndarray, bands: range) -> np.ndarray:
    """Label i >= 1 where 2^j <= k < 2^(j+1) for j = bands[i - 1]; 0 below
    the range (the zero mode), len(bands) + 1 above it."""
    return np.searchsorted(np.ldexp(1.0, np.arange(bands.start, bands.stop + 1)), k, side="right")


def band_sums(labels: np.ndarray, density: np.ndarray, nbands: int) -> np.ndarray:
    """Sum of `density` over each of the labels 1..nbands, in one pass."""
    return np.bincount(labels.ravel(), weights=density.ravel(), minlength=nbands + 2)[1 : nbands + 1]


@functools.lru_cache(maxsize=32)
def _grid_labels(grid: Grid) -> np.ndarray:
    return _freeze(band_labels(grid.wavenumber_magnitude(), grid_band_range(grid)))


def band_project(f: SpectralField, j: int) -> SpectralField:
    """Retain exactly the coefficients with 2^j <= |xi| < 2^(j+1)."""
    bands = grid_band_range(f.grid)
    keep = _grid_labels(f.grid) == j - bands.start + 1 if j in bands else False
    return SpectralField(f.grid, np.where(keep, f.coeffs, 0.0))


def _as_stack(f) -> tuple:
    """(grid, (nc, *shape) coefficients) of a field or a tuple of fields."""
    fields = list(f) if isinstance(f, (tuple, list)) else [f]
    return fields[0].grid, np.stack([x.coeffs for x in fields])


def _band_norms(grid: Grid, u: np.ndarray, p: float, keep=None) -> np.ndarray:
    """L^p norms of the pointwise euclidean magnitude of the rows of u
    (nc, *grid.shape), one per band of grid_band_range; at p = 2 u may be
    any sequence of rows, which spares stacking them.  At p != 2 only
    the bands where the mask `keep` is true are transformed; the others
    read 0."""
    bands = grid_band_range(grid)
    labels = _grid_labels(grid)
    if p == 2:
        density = sum(np.abs(c) ** 2 for c in u)
        return np.sqrt(grid.L**grid.d * band_sums(labels, density, len(bands)))
    axes = tuple(range(1, grid.d + 1))
    cell = (grid.L / grid.n) ** grid.d
    out = np.zeros(len(bands))
    for i in range(len(bands)) if keep is None else np.flatnonzero(keep):
        phys = np.fft.ifftn(np.where(labels == i + 1, u, 0.0), axes=axes) * grid.n**grid.d
        mags = np.sqrt(np.sum(np.abs(phys) ** 2, axis=0))
        out[i] = np.max(mags) if np.isinf(p) else (np.sum(mags**p) * cell) ** (1.0 / p)
    return out


def regime_band_indices(regime: str, th: Thresholds, bands) -> list:
    """Bands of `bands` that fall in `regime` under the disjoint convention,
    the split of the additivity identity low + med + high = all."""
    return _regime_bands(regime, th, bands, 0)


def _regime_bands(regime: str, th: Thresholds, bands, overlap: int) -> list:
    """Bands j of `bands` in the regime's interval lo <= j <= hi.  overlap = 1
    moves each edge of med and high out by one band, so that adjacent
    regimes share J0 (low, med) and Jeps - 1, Jeps (med, high)."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    j0, je, o, inf = th.J0, th.Jeps, overlap, math.inf
    lo, hi = {
        "low": (-inf, j0),
        "med": (j0 + 1 - o, je - 1 + o),
        "high": (je - o, inf),
        "lowmed": (-inf, je - 1 + o),
        "medhigh": (j0 + 1 - o, inf),
        "all": (-inf, inf),
    }[regime]
    return [j for j in bands if lo <= j <= hi]


def _regime_weights(bands: range, regime: str, th: Thresholds, s: float, overlap: bool = False) -> np.ndarray:
    """2^(js) on each band j of `bands` that `regime` picks, 0 on the others."""
    picked = _regime_bands(regime, th, bands, int(overlap))
    return np.array([2.0 ** (j * s) if j in picked else 0.0 for j in bands])


def besov_seminorm(f, s: float, p: float, regime: str, th: Thresholds) -> float:
    """Frequency-restricted homogeneous Besov semi-norm sum_j 2^(js) |f_j|_Lp
    over the bands of the disjoint split.

    f may be a single field or a tuple of components (combined pointwise).
    The band range is limited to the grid's populated annuli; at p != 2
    only the bands the regime picks are transformed.
    """
    grid, u = _as_stack(f)
    weights = _regime_weights(grid_band_range(grid), regime, th, s)
    return float(_band_norms(grid, u, p, weights != 0) @ weights)


@dataclass(frozen=True)
class BandProfile:
    """Per-band L2 norms of the components of a field tuple."""

    entries: dict  # band index -> {component label: norm}

    def rows(self):
        """(j, band_center, component, p, band_norm) rows for CSV export,
        p = 2."""
        for j in sorted(self.entries):
            center = 1.5 * 2.0**j
            for comp, val in self.entries[j].items():
                yield (j, center, comp, 2, val)


def band_profile(fields: dict) -> BandProfile:
    """Band decomposition of named fields: L2 norms per (band, component)."""
    stacks = {name: _as_stack(f) for name, f in fields.items()}
    norms = {name: _band_norms(grid, u, 2) for name, (grid, u) in stacks.items()}
    bands = grid_band_range(next(iter(stacks.values()))[0])
    entries = {}
    for i, j in enumerate(bands):
        row = {name: vals[i] for name, vals in norms.items() if vals[i] > 0.0}
        if row:
            entries[j] = row
    return BandProfile(entries=entries)


# The six band-wise embedding inequalities, lhs <= C * factor * rhs:
#   name                regime    lhs order, rhs order, factor(th, s')
BERNSTEIN_INEQUALITIES = (
    ("low-up", "low", lambda th, sp: float(th.K) ** sp, -1),
    ("high-gain", "high", lambda th, sp: (th.k * th.eps) ** sp, +1),
    ("lowmed-up", "lowmed", lambda th, sp: (th.k / th.eps) ** sp, -1),
    ("med-up", "med", lambda th, sp: (th.k / th.eps) ** sp, -1),
    ("med-gain", "med", lambda th, sp: float(th.K) ** (-sp), +1),
    ("medhigh-gain", "medhigh", lambda th, sp: float(th.K) ** (-sp), +1),
)


def bernstein_check(
    f_band: SpectralField,
    s: float,
    s_prime: float,
    p: float,
    th: Thresholds,
    c_bern: float = 4.0,
) -> list:
    """Evaluate the applicable band-wise embedding inequalities.

    f_band must be supported in a single dyadic band.  For each inequality
    whose regime contains that band, returns a dict with the two sides,
    their ratio and a violation flag (ratio > c_bern).  The +1 direction
    trades regularity down (rhs at s + s'), -1 trades it up (rhs at s - s').

    Known defect: the band norm is on both sides and cancels, so the ratio
    is 1 / (factor(th, s') 2^(sign j s')) for any field (to 1e-15 over 50
    random band fields, d = 2, n = 64): it tests threshold arithmetic only.
    """
    if not s_prime > 0:
        raise ValueError(f"s_prime must be positive, got {s_prime}")
    bands = grid_band_range(f_band.grid)
    occupied = [bands[i - 1] for i in np.unique(_grid_labels(f_band.grid)[f_band.coeffs != 0]) if i > 0]
    if len(occupied) != 1:
        raise ValueError(f"field must occupy exactly one band, found {occupied}")
    (j,) = occupied

    norm = float(_band_norms(*_as_stack(f_band), p, np.equal(bands, j))[j - bands.start])
    results = []
    for name, regime, factor, sign in BERNSTEIN_INEQUALITIES:
        if j not in _regime_bands(regime, th, [j], 1):
            continue
        # f_band lies in band j alone: a semi-norm of it is 2^(j s) |f_j|_Lp
        lhs = 2.0 ** (j * s) * norm
        rhs = factor(th, s_prime) * (2.0 ** (j * (s + sign * s_prime)) * norm)
        ratio = lhs / rhs if rhs > 0 else np.inf
        results.append(
            {
                "name": name,
                "regime": regime,
                "band": j,
                "lhs": lhs,
                "rhs": rhs,
                "ratio": ratio,
                "violated": bool(ratio > c_bern),
            }
        )
    return results
