"""The band ledger: one label array per grid (and per radial node set) and
band sums by bincount, against the per-band masks it replaced."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsclab import evolve
from nsclab.besov import (
    REGIMES,
    ThresholdOrderError,
    _grid_labels,
    band_labels,
    _as_stack,
    _band_norms,
    dyadic_range,
    band_profile,
    grid_band_range,
    make_thresholds,
)
from nsclab.diagnostics import _band_functional, lyapunov_high, lyapunov_low
from nsclab.evolve import PropagatorKernel, RadialDataProfile, RadialFlow, sharp_low_profile
from nsclab.model import ModelSpec, reduced_blocks
from nsclab.spectral import Grid, State, random_field
from nsclab.studies import decay_fit, lyapunov_l1
from oracles import (
    kernel_apply,
    band_mask_reference,
    besov_seminorm_reference,
    dissipation_quantity_reference,
    lyapunov_high_reference,
    lyapunov_l1_reference,
    lyapunov_low_reference,
    radial_band_l2_norm_reference,
    radial_besov_proxy_reference,
    split_seminorm,
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
    r = np.logspace(math.log10(2.0**log2_min), math.log10(2.0**log2_max), nodes)
    bands = dyadic_range(r[0], r[-1])
    labels = band_labels(r, bands)
    for i, j in enumerate(bands, start=1):
        assert np.array_equal(labels == i, (r >= 2.0**j) & (r < 2.0 ** (j + 1)))
    assert np.all((labels >= 1) & (labels <= len(bands)))
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, sharp_low_profile(1.5, 3), r_max=2.0**log2_max, nodes=nodes)
    assert flow.bands == dyadic_range(flow.r[0], flow.r[-1])
    assert np.array_equal(flow.labels, band_labels(flow.r, flow.bands))


# ------------------------------------------------- torus norms vs masked sums


def _fields(grid, seed, count):
    rng = np.random.default_rng(seed)
    amp = 10.0 ** rng.uniform(-3, 1)
    fields = [random_field(grid, rng, amp, decay=rng.uniform(0.0, 3.0)) for _ in range(count)]
    for f in fields:  # a mean, which no band holds
        f.coeffs[(0,) * grid.d] = amp * rng.standard_normal()
    return fields


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
    assert close(split_seminorm(f, s, p, regime, th, overlap), ref)
    bands = grid_band_range(grid)
    for j, norm in zip(bands, _band_norms(*_as_stack(f), p), strict=True):
        assert close(norm, stack_lp_norm_reference(fields, j, p))
    prof = band_profile({"f": f})
    for j in bands:
        got = prof.entries.get(j, {}).get("f", 0.0)
        assert close(got, stack_lp_norm_reference(fields, j, 2))


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
    state = _state(grid, seed, 1e-3)
    bands = grid_band_range(grid)
    for j in [bands.start - 1, *bands, bands.stop]:
        lo = lyapunov_low(state, j, eta)
        value, norm_part, cross = lyapunov_low_reference(state, j, eta)
        assert close(lo.parts[0], norm_part)
        assert close(lo.parts[1], cross, scale=norm_part)
        assert close(lo.value, value, scale=norm_part)
        hi = lyapunov_high(state, j, eta, spec)
        value, parts = lyapunov_high_reference(state, j, eta, spec)
        assert close(hi.value, value, scale=parts[0])
        assert all(close(x, y, scale=parts[0]) for x, y in zip(hi.parts, parts))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 32), (2, 16), (3, 8)]), box_lengths, seeds, st.floats(0.05, 0.25), st.floats(1e-3, 0.5))
def test_band_dissipation_is_the_regime_multiple_of_the_norm_part(dn, L, seed, eta, eps):
    """On every band of the grid, D_j is 2^(2j) E_j at low frequency and
    E_j / eps^2 at high, and matches the dissipation of the band
    projections."""
    d, n = dn
    grid = Grid(d=d, n=n, L=L)
    spec = ModelSpec(kind="nsc", d=d, eps=eps)
    state = _state(grid, seed, 1e-3)
    for regime, factor in (("low", lambda j: 2.0 ** (2 * j)), ("high", lambda j: eps**-2)):
        rows = _band_functional(state, regime, spec, eta)
        assert list(rows) == list(grid_band_range(grid))
        for j, (norm_part, _, diss) in rows.items():
            assert close(diss, factor(j) * norm_part)
            assert close(diss, dissipation_quantity_reference(state, j, regime, spec))


# ------------------------------------------------------ radial flow vs masks


def _cut_profile(d, mix, r_cut):
    """Data |xi|^(1.5 - d/2) on |xi| <= r_cut, zero above, with the
    components weighted by mix."""
    amplitude = lambda r: np.where(r <= r_cut, r ** (1.5 - d / 2.0), 0.0)[:, None] * np.asarray(mix, dtype=complex)[None, :]
    return RadialDataProfile(amplitude=amplitude, sigma1=1.5, d=d)


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
# bands 4 and 5 of Q sit near 3e-158 here, with subnormal squares
@example(1, -2.3125, 4716631, 2.546875, 0.0, 2.0, ("Q",))
def test_radial_band_norms_match_masked_reference(d, log_eps, seed, log_t, s, p, comps):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind="nsc", d=d, eps=10.0**log_eps)
    prof = _cut_profile(d, rng.uniform(-1.0, 1.0, 4), float(rng.uniform(0.5, 40.0)))
    flow = RadialFlow(spec, prof, r_max=64.0, nodes=512)
    t = 10.0**log_t
    u = flow.at(t)
    for sigma in (0.0, s):
        norms = flow.band_norms(u, comps, sigma)
        top = float(np.max(norms))
        for i, j in enumerate(flow.bands):
            ref = radial_band_l2_norm_reference(flow, u, comps, j, sigma)
            # a band whose square is subnormal keeps only a few digits in either
            # sum; compare it absolutely, on the scale of the largest band
            assert close(norms[i], ref, scale=abs(ref) if ref * ref >= np.finfo(float).tiny else top)
    th = make_thresholds(2, 1.0, spec.eps)
    assert close(lyapunov_l1(flow, th, t), lyapunov_l1_reference(flow, th, p, t))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["nsc", "nsf"]),
    st.floats(-3.0, -1.0),
    st.floats(-3.0, 2.0),
    st.floats(-5.0, 3.0),
    seeds,
    st.sampled_from([evolve._COND_MAX, 10.0, 1.5]),
)
@example(3, "nsc", -2.0, 1.0, 0.0, 1, 1.5)
@example(3, "nsf", -2.0, 2.0, 1.0, 2, 1.5)
def test_radial_flow_kernel_lives_on_the_data_support(d, kind, log_eps, log_r_max, log_cut, seed, cond_max):
    """The flow's kernel has one row per node that carries data, and every
    sample is bit for bit the kernel over all nodes, exact zeros off the
    support; the cut radius runs from below the lowest node (no support)
    past r_max (every node).  The lowered condition limits put nodes on the
    expm fallback (44 of 409 on the first example, 83 of 426 on the second)."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind=kind, d=d, eps=10.0**log_eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_COND_MAX", cond_max)
        flow = RadialFlow(spec, _cut_profile(d, rng.uniform(-1.0, 1.0, 4), 10.0**log_cut), r_max=10.0**log_r_max, nodes=512)
        full = PropagatorKernel(reduced_blocks(spec, flow.r))
    carries = flow.u0.any(axis=1)
    assert flow.kernel.mats.shape[0] == np.count_nonzero(carries)
    for t in (0.0, *10.0 ** rng.uniform(-2.0, 3.0, 3)):
        u = flow.at(t)
        assert np.array_equal(u, kernel_apply(full, t, flow.u0))
        assert not u[~carries].any()


def test_radial_flow_of_zero_data_is_zero():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, _cut_profile(3, np.zeros(4), 30.0), r_max=64.0, nodes=512)
    assert flow.kernel.mats.shape[0] == 0
    u = flow.at(10.0)
    assert u.shape == (512, 4) and not u.any()
    assert not flow.band_norms(u, ("a", "v", "theta", "q")).any()


def test_radial_flow_support_reads_the_kept_columns():
    """A Fourier-law flow keeps (a, omega, theta): a profile that is nonzero
    only in sigma carries no data, so its kernel has no rows."""
    spec = ModelSpec(kind="nsf", d=3)
    flow = RadialFlow(spec, _cut_profile(3, [0.0, 0.0, 0.0, 1.0], 30.0), r_max=64.0, nodes=512)
    assert flow.support.size == 0 and flow.kernel.mats.shape == (0, 3, 3)
    assert flow.at(10.0).shape == (512, 3) and not flow.at(10.0).any()
    mixed = RadialFlow(spec, _cut_profile(3, [0.0, 0.0, 1.0, 1.0], 30.0), r_max=64.0, nodes=512)
    assert np.array_equal(mixed.support, np.flatnonzero(mixed.r <= 30.0))


def test_radial_band_norms_partition_l2():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, _cut_profile(3, np.ones(4), 30.0), r_max=64.0, nodes=1024)
    u = flow.at(1.0)
    total = math.sqrt(np.sum(flow.band_norms(u, ("a", "v")) ** 2))
    assert total == pytest.approx(radial_band_l2_norm_reference(flow, u, ("a", "v"), None), rel=1e-13)


@pytest.mark.parametrize("kind, p, sigma, sigma1", [("nsc", 2.0, 0.0, 1.5), ("nsc", 3.0, 0.25, 0.5), ("nsf", 2.0, -1.0, 1.5)])
def test_decay_fit_norms_match_reference(kind, p, sigma, sigma1):
    """decay_fit's norms: the Plancherel integral at p = 2, the band-summed
    proxy at p > 2, and (theta, eps q) as the root of the two squares."""
    spec = ModelSpec(kind=kind, d=3, eps=1e-2)
    prof = sharp_low_profile(sigma1, 3)
    times = np.logspace(0.0, 2.0, 20)
    rep = decay_fit(spec, prof, p, sigma, t_grid=times, r_max=64.0, nodes=512)
    flow = RadialFlow(spec, prof, r_max=64.0, nodes=512)
    if p == 2:
        norm = lambda u, comps: radial_band_l2_norm_reference(flow, u, comps, None, sigma)
    else:
        norm = lambda u, comps: radial_besov_proxy_reference(flow, u, comps, sigma, p)
    for t, av, tq in zip(times, rep.norms_av, rep.norms_tq, strict=True):
        u = flow.at(float(t))
        assert close(av, norm(u, ("a", "v")))
        ref = math.hypot(norm(u, ("theta",)), spec.eps * norm(u, ("q",))) if kind == "nsc" else norm(u, ("theta",))
        assert close(tq, ref)


def test_decay_fit_reports_quadrature_underflow():
    """Where every node has decayed below the smallest float, the fit
    raises instead of taking the log of 0."""
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    with pytest.raises(FloatingPointError, match="underflow"):
        decay_fit(spec, sharp_low_profile(1.5, 3), 2.0, 0.0, t_grid=np.logspace(298.0, 300.0, 20), nodes=512)
