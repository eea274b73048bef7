"""The band ledger: one label array per grid (and per radial node set) and
band sums by bincount, against the per-band masks it replaced."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsclab.besov import (
    REGIMES,
    ThresholdOrderError,
    _grid_labels,
    band_labels,
    band_lp_norm,
    band_profile,
    besov_seminorm,
    grid_band_range,
    make_thresholds,
)
from nsclab.diagnostics import dissipation_quantity, effective_unknowns, lyapunov_high, lyapunov_low
from nsclab.evolve import RadialFlow, sharp_low_profile
from nsclab.model import ModelSpec
from nsclab.spectral import Grid, State, random_field
from nsclab.studies import lyapunov_l1
from oracles import (
    band_mask_reference,
    besov_seminorm_reference,
    dissipation_quantity_reference,
    lyapunov_high_reference,
    lyapunov_l1_reference,
    lyapunov_low_reference,
    radial_band_l2_norm_reference,
    radial_besov_proxy_reference,
    stack_lp_norm_reference,
)

REL = 1e-13

# Box lengths 2 pi 2^-m put lattice modes exactly on |xi| = 2^j.
box_lengths = st.one_of(
    st.sampled_from([2.0 * np.pi * 2.0**m for m in range(-3, 4)]),
    st.floats(0.5, 50.0),
)
seeds = st.integers(0, 2**32 - 1)
p_values = st.sampled_from([2.0, 3.0, 4.0, np.inf])


def close(got, ref, scale=None):
    return abs(got - ref) <= REL * (abs(ref) if scale is None else scale)


# ------------------------------------------------------------------ labels


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(4, 32), box_lengths)
def test_grid_labels_partition_nonzero_modes(d, half_n, L):
    grid = Grid(d=d, n=2 * half_n, L=L)
    bands = grid_band_range(grid)
    labels = _grid_labels(grid)
    k = grid.wavenumber_magnitude()
    for i, j in enumerate(bands, start=1):
        assert np.array_equal(labels == i, band_mask_reference(grid, j))
    # every nonzero mode carries exactly one label inside the band range
    assert labels[(0,) * d] == 0
    assert np.all((labels[k > 0] >= 1) & (labels[k > 0] <= len(bands)))


def test_band_labels_half_open_at_powers_of_two():
    bands = range(-3, 5)
    edges = np.ldexp(1.0, np.arange(-3, 6))
    k = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    labels = band_labels(k, bands)
    for i, j in enumerate(bands, start=1):
        assert np.array_equal(labels == i, (k >= 2.0**j) & (k < 2.0 ** (j + 1)))
    assert np.array_equal(labels == 0, k < 2.0**-3)
    assert np.array_equal(labels == len(bands) + 1, k >= 2.0**5)


@settings(max_examples=15, deadline=None)
@given(st.integers(-12, -2), st.integers(2, 12), st.integers(512, 1200))
def test_radial_node_labels_match_masks(log2_min, log2_max, nodes):
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, sharp_low_profile(1.5, 3), r_min=2.0**log2_min, r_max=2.0**log2_max, nodes=nodes)
    for i, j in enumerate(flow.band_range(), start=1):
        assert np.array_equal(flow.labels == i, (flow.r >= 2.0**j) & (flow.r < 2.0 ** (j + 1)))
    assert np.all((flow.labels >= 1) & (flow.labels <= len(flow.band_range())))


# ------------------------------------------------- torus norms vs masked sums


def _fields(grid, seed, count):
    rng = np.random.default_rng(seed)
    amp = 10.0 ** rng.uniform(-3, 1)
    return [random_field(grid, rng, amp, decay=rng.uniform(0.0, 3.0), zero_mean=False) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(1, 64), (2, 32), (3, 16), (3, 8)]),
    box_lengths,
    seeds,
    st.integers(1, 3),
    p_values,
    st.sampled_from(REGIMES),
    st.booleans(),
    st.floats(-2.0, 2.0),
    st.sampled_from([(2, 1.0), (4, 1.0), (8, 0.5)]),
    st.sampled_from([1 / 4, 1 / 16, 1 / 64]),
)
def test_besov_matches_masked_reference(dn, L, seed, count, p, regime, overlap, s, Kk, eps):
    d, n = dn
    try:
        th = make_thresholds(Kk[0], Kk[1], eps)
    except ThresholdOrderError:
        assume(False)
    grid = Grid(d=d, n=n, L=L)
    fields = _fields(grid, seed, count)
    f = fields[0] if count == 1 else tuple(fields)
    ref = besov_seminorm_reference(f, s, p, regime, th, overlap)
    assert close(besov_seminorm(f, s, p, regime, th, overlap), ref)
    bands = grid_band_range(grid)
    for j in [bands.start - 1, *bands, bands.stop]:
        assert close(band_lp_norm(f, j, p), stack_lp_norm_reference(fields, j, p))
    prof = band_profile({"f": f}, p=p, s=s)
    for j in bands:
        ref_j = stack_lp_norm_reference(fields, j, p)
        got = prof.entries.get(j, {}).get("f", 0.0)
        assert close(got, 2.0 ** (j * s) * ref_j)


# ------------------------------------------------ band functionals vs projections


def _state(grid, seed, amp):
    fields = _fields(grid, seed, 2 * grid.d + 2)
    fields = [type(f)(grid, amp / np.max(np.abs(f.coeffs)) * f.coeffs) for f in fields]
    d = grid.d
    return State(a=fields[0], v=tuple(fields[1 : 1 + d]), theta=fields[1 + d], q=tuple(fields[2 + d :]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 32), (2, 16), (3, 8)]), box_lengths, seeds, st.floats(0.05, 0.25), st.floats(1e-3, 0.5))
def test_band_functionals_match_projection_reference(dn, L, seed, eta, eps):
    d, n = dn
    grid = Grid(d=d, n=n, L=L)
    spec = ModelSpec(kind="nsc", d=d, eps=eps)
    # amplitude keeps |a| < 1 in physical space, so the density weight exists
    state = _state(grid, seed, 1e-3)
    q_mode = effective_unknowns(state, spec).Q
    bands = grid_band_range(grid)
    for j in [bands.start - 1, *bands, bands.stop]:
        lo = lyapunov_low(state, j, eta)
        value, norm_part, cross = lyapunov_low_reference(state, j, eta)
        assert close(lo.parts[0], norm_part)
        assert close(lo.parts[1], cross, scale=norm_part)
        assert close(lo.value, value, scale=norm_part)
        for weighted in (False, True):
            hi = lyapunov_high(state, j, eta, spec, density_weight=weighted)
            value, parts = lyapunov_high_reference(state, j, eta, spec, weighted)
            scale = parts[0] + parts[2]
            assert close(hi.value, value, scale=scale)
            assert all(close(x, y, scale=scale) for x, y in zip(hi.parts, parts))
        for regime in ("low", "high", "damped"):
            ref = dissipation_quantity_reference(state, j, regime, spec, q_mode)
            assert close(dissipation_quantity(state, j, regime, spec), ref)


# ------------------------------------------------------ radial flow vs masks


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.floats(-3.0, -1.0),
    seeds,
    st.floats(0.0, 3.0),
    st.floats(-1.0, 2.0),
    st.sampled_from([2.0, 3.0, 4.0]),
    st.sampled_from([("a",), ("w",), ("Q",), ("a", "v"), ("theta", "q")]),
)
def test_radial_band_norms_match_masked_reference(d, log_eps, seed, log_t, s, p, comps):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind="nsc", d=d, eps=10.0**log_eps)
    prof = sharp_low_profile(1.5, d, mix=rng.uniform(-1.0, 1.0, 4), r_cut=float(rng.uniform(0.5, 40.0)))
    flow = RadialFlow(spec, prof, r_max=64.0, nodes=512)
    t = 10.0**log_t
    u = flow.at(t)
    norms = flow.band_l2_norms(u, comps)
    for i, j in enumerate(flow.band_range()):
        assert close(norms[i], radial_band_l2_norm_reference(flow, u, comps, j))
    assert close(flow.besov_proxy(u, comps, s, p), radial_besov_proxy_reference(flow, u, comps, s, p))
    th = make_thresholds(2, 1.0, spec.eps)
    assert close(lyapunov_l1(flow, th, p, t), lyapunov_l1_reference(flow, th, p, t))


def test_radial_band_norms_partition_l2():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, sharp_low_profile(1.5, 3, r_cut=30.0), r_max=64.0, nodes=1024)
    u = flow.at(1.0)
    total = math.sqrt(np.sum(flow.band_l2_norms(u, ("a", "v")) ** 2))
    assert total == pytest.approx(flow.l2_norm(u, ("a", "v")), rel=1e-13)
