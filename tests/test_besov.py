from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nsclab.besov import (
    REGIMES,
    ThresholdOrderError,
    _band_norms,
    _regime_bands,
    _regime_weights,
    band_profile,
    band_project,
    bernstein_check,
    besov_seminorm,
    floor_log2,
    grid_band_range,
    make_thresholds,
    regime_band_indices,
)
from nsclab.spectral import Grid, SpectralField, State, _grad, random_field, to_physical, zero_field
from oracles import split_seminorm


def test_threshold_examples():
    th = make_thresholds(8, 1, 1 / 64)
    assert (th.J0, th.Jeps) == (3, 6)
    th = make_thresholds(16, 0.5, 1 / 256)
    assert (th.J0, th.Jeps) == (4, 7)


def test_threshold_inversion_rejected():
    with pytest.raises(ThresholdOrderError, match="J0"):
        make_thresholds(8, 1, 1 / 4)


def test_threshold_validation():
    with pytest.raises(ValueError):
        make_thresholds(1, 1, 1e-2)
    with pytest.raises(ValueError):
        make_thresholds(8, 1.5, 1e-2)
    with pytest.raises(ValueError):
        make_thresholds(8, 1, 0.0)


def test_floor_log2_half_cases():
    assert floor_log2(8) == 3
    assert floor_log2(1) == 0
    assert floor_log2(0.5) == -1
    assert floor_log2(3) == 1
    assert floor_log2(0.09) == -4  # between 1/16 and 1/8


def test_single_mode_lands_in_band():
    g = Grid(d=2, n=64)
    f = zero_field(g)
    f.coeffs[9, 0] = 1.0  # |xi| = 9, band 3 (8 <= 9 < 16)
    for j in grid_band_range(g):
        norm = band_project(f, j).l2_norm()
        assert (norm > 0) == (j == 3)


def test_band_tie_half_open():
    g = Grid(d=1, n=64)
    f = zero_field(g)
    f.coeffs[8] = 1.0  # |xi| exactly 2^3: band 3, not band 2
    assert band_project(f, 2).l2_norm() == 0.0
    assert band_project(f, 3).l2_norm() > 0.0


def test_partition_of_unity(rng):
    g = Grid(d=2, n=64)
    f = random_field(g, rng)
    f.coeffs[0, 0] = rng.standard_normal()  # a mean, which no band holds
    rec = sum(band_project(f, j).coeffs for j in grid_band_range(g))
    rec[0, 0] += f.coeffs[0, 0]
    assert np.max(np.abs(rec - f.coeffs)) <= 1e-12


def test_seminorm_single_mode_hand_value():
    g = Grid(d=2, n=64, L=2 * np.pi)
    th = make_thresholds(8, 1, 1 / 16)
    f = zero_field(g)
    amp = 0.7
    f.coeffs[9, 0] = amp  # band 3 (low, since J0 = 3)
    s, p = 1.25, 2
    # complex exponential: |f| = amp, L2 norm = amp * L^(d/2)
    hand = 2.0 ** (3 * s) * amp * g.L ** (g.d / 2)
    got = besov_seminorm(f, s, p, "low", th)
    assert abs(got - hand) < 1e-12 * hand
    # quadrature oracle for the L4 norm of the same single mode
    phys = np.abs(to_physical(f))
    quad = (np.sum(phys**4) * (g.L / g.n) ** g.d) ** 0.25
    got4 = besov_seminorm(f, s, 4, "low", th)
    assert abs(got4 - 2.0 ** (3 * s) * quad) < 1e-12 * got4


def test_seminorm_triangle_vs_l2(rng):
    g = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    f = random_field(g, rng)
    assert besov_seminorm(f, 0, 2, "all", th) >= f.l2_norm() - 1e-12


def test_seminorm_zero_field():
    g = Grid(d=2, n=32)
    th = make_thresholds(8, 1, 1 / 16)
    for regime in ("low", "med", "high", "lowmed", "medhigh", "all"):
        assert besov_seminorm(zero_field(g), 0.5, 2, regime, th) == 0.0


def test_regime_additivity_exact(rng):
    g = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    f = random_field(g, rng)
    for s in (-0.5, 0.0, 1.0):
        total = besov_seminorm(f, s, 2, "all", th)
        parts = sum(besov_seminorm(f, s, 2, r, th) for r in ("low", "med", "high"))
        assert abs(total - parts) <= 1e-12 * max(total, 1.0)


def test_seminorm_scaling_exact(rng):
    g = Grid(d=2, n=32)
    th = make_thresholds(8, 1, 1 / 16)
    f = random_field(g, rng)
    base = besov_seminorm(f, 0.7, 2, "all", th)
    scaled = besov_seminorm(SpectralField(g, 3.5 * f.coeffs), 0.7, 2, "all", th)
    assert scaled == pytest.approx(3.5 * base, rel=1e-14)


def test_seminorm_band_monotonicity_in_s(rng):
    g = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    f = band_project(random_field(g, rng), 3)
    s = 0.4
    ratio = besov_seminorm(f, s + 1, 2, "all", th) / (2.0**3 * besov_seminorm(f, s, 2, "all", th))
    assert 1.0 - 1e-12 <= ratio <= 2.0  # within the band width factor


def test_regime_band_selection():
    th = make_thresholds(8, 1, 1 / 64)  # J0=3, Jeps=6
    bands = range(0, 9)
    assert regime_band_indices("low", th, bands) == [0, 1, 2, 3]
    assert regime_band_indices("med", th, bands) == [4, 5]
    assert regime_band_indices("high", th, bands) == [6, 7, 8]
    assert regime_band_indices("lowmed", th, bands) == list(range(0, 6))
    assert regime_band_indices("medhigh", th, bands) == list(range(4, 9))
    with pytest.raises(ValueError):
        regime_band_indices("ultralow", th, bands)


def test_bernstein_single_mode_gradient_identity():
    g = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    f = zero_field(g)
    f.coeffs[8, 0] = 1.0  # |xi| = 2^3 exactly
    gnorm = np.sqrt(sum(SpectralField(g, c).l2_norm() ** 2 for c in _grad(g, f.coeffs)))
    assert gnorm / f.l2_norm() == pytest.approx(8.0, rel=1e-12)
    # low-band inequality with K^(s') holds with ratio <= 2
    res = bernstein_check(f, s=1.0, s_prime=1.0, p=2, th=th)
    low = [r for r in res if r["name"] == "low-up"]
    assert low and low[0]["ratio"] <= 2.0


def test_bernstein_requires_single_band(rng):
    g = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    with pytest.raises(ValueError, match="one band"):
        bernstein_check(random_field(g, rng), 0.0, 1.0, 2, th)


def test_bernstein_suite_constants(rng):
    g = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    worst = {}
    for _ in range(100):
        f = random_field(g, rng, decay=0.0)
        for j in grid_band_range(g):
            band = band_project(f, j)
            if band.l2_norm() == 0.0:
                continue
            s = rng.uniform(-1.5, 1.5)
            sp = rng.uniform(0.1, 2.0)
            for res in bernstein_check(band, s, sp, 2, th):
                worst[res["name"]] = max(worst.get(res["name"], 0.0), res["ratio"])
                assert not res["violated"], res
    assert set(worst) == {"low-up", "high-gain", "lowmed-up", "med-up", "med-gain", "medhigh-gain"}
    assert all(v <= 4.0 for v in worst.values())


def test_band_profile_rows(rng):
    g = Grid(d=2, n=32)
    f = random_field(g, rng)
    prof = band_profile({"a": f})
    rows = list(prof.rows())
    assert rows and all(len(r) == 5 for r in rows)
    js = sorted({r[0] for r in rows})
    assert js == [j for j in grid_band_range(g) if band_project(f, j).l2_norm() > 0]


# ------------------------------------------ band norms on stacks (hypothesis)


@settings(max_examples=40, deadline=None)
@given(
    grid=hst.sampled_from([Grid(d=1, n=16), Grid(d=2, n=8), Grid(d=3, n=8)]),
    has_flux=hst.booleans(),
    p=hst.sampled_from([2.0, 3.0, 4.0, np.inf]),
    regime=hst.sampled_from(REGIMES),
    overlap=hst.booleans(),
    rows=hst.tuples(hst.integers(0, 7), hst.integers(1, 8)),
    seed=hst.integers(0, 2**32 - 1),
)
def test_seminorms_on_stacks_equal_field_tuples(grid, has_flux, p, regime, overlap, rows, seed):
    """The band norms of a row slice of State.u, or of a difference of two,
    dotted with the regime weights, equal besov_seminorm (split_seminorm
    under the overlapping split) on the same rows as a field tuple, bit for
    bit, and leave the stack as it was."""
    rng = np.random.default_rng(seed)
    nc = 2 * grid.d + 2 if has_flux else grid.d + 2
    shape = (nc, *grid.shape)
    st, other = (State.from_stacked(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0, has_flux) for _ in range(2))
    lo = min(rows[0], nc - 1)
    hi = min(max(lo + 1, rows[1]), nc)
    th = make_thresholds(2, 1.0, 1 / 8)  # J0 = 1, Jeps = 3
    ss = (-1.0, 0.5, 1.5)
    weights = [_regime_weights(grid_band_range(grid), regime, th, s, overlap) for s in ss]
    for u, fields in (
        (st.u[lo:hi], st.fields()[lo:hi]),
        (st.u[lo:hi] - other.u[lo:hi], [SpectralField(grid, x.coeffs - y.coeffs) for x, y in zip(st.fields()[lo:hi], other.fields()[lo:hi])]),
    ):
        before = u.copy()
        with mock.patch.object(np.fft, "ifftn", wraps=np.fft.ifftn) as ifftn:
            norms = _band_norms(grid, u, p, weights[0] != 0)
        # one transform per band the regime picks, none at p = 2
        assert ifftn.call_count == (0 if p == 2 else len(_regime_bands(regime, th, grid_band_range(grid), int(overlap))))
        assert [float(norms @ w) for w in weights] == [split_seminorm(tuple(fields), s, p, regime, th, overlap) for s in ss]
        assert np.array_equal(u, before)
