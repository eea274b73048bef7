import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nsclab import spectral
from nsclab.spectral import (
    _HEADER,
    Grid,
    SpectralField,
    State,
    _grad,
    _load_stack,
    load_state,
    random_field,
    save_state,
    to_physical,
    to_spectral,
    zero_field,
    zero_state,
)

from oracles import convolve_modes, dealias_23


def field_lp_norm(f: SpectralField, p: float) -> float:
    """Physical L^p norm on the torus (Riemann sum at grid points)."""
    if p == 2:
        return f.l2_norm()
    vals = np.abs(to_physical(f))
    if np.isinf(p):
        return float(np.max(vals))
    cell = (f.grid.L / f.grid.n) ** f.grid.d
    return float((np.sum(vals**p) * cell) ** (1.0 / p))


def load_fields(path):
    """Read back (fields, time) from the flat binary container."""
    grid, arr, time = _load_stack(path)
    return [SpectralField(grid, c) for c in arr], time


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(d=4, n=16)
    with pytest.raises(ValueError):
        Grid(d=2, n=6)
    with pytest.raises(ValueError):
        Grid(d=2, n=17)
    with pytest.raises(ValueError):
        Grid(d=2, n=16, L=-1.0)


def test_single_mode_gradient_exact():
    g = Grid(d=2, n=16)
    f = zero_field(g)
    f.coeffs[3, 2] = 1.0 + 0.5j
    xi = [w[3, 2] for w in g.wavevectors()]
    out = _grad(g, f.coeffs)
    for comp, x in zip(out, xi):
        assert comp[3, 2] == 1j * x * (1.0 + 0.5j)
        comp[3, 2] = 0.0
        assert np.all(comp == 0.0)


def test_transform_round_trip(rng, grid2d):
    f = random_field(grid2d, rng)
    f.coeffs[0, 0] = rng.standard_normal()  # a mean
    samples = to_physical(f)
    back = to_spectral(grid2d, samples)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * max(1.0, scale)


def test_constant_field_physical_samples():
    g = Grid(d=1, n=16)
    f = zero_field(g)
    f.coeffs[0] = 3.25
    assert np.allclose(to_physical(f), 3.25)


def test_real_input_gives_hermitian_output(rng):
    g = Grid(d=2, n=16)
    samples = rng.standard_normal(g.shape)
    f = to_spectral(g, samples)
    assert f.is_hermitian(1e-12)


def test_mode_product_support_matches_convolution():
    g = Grid(d=1, n=32)
    f1, f2 = zero_field(g), zero_field(g)
    f1.coeffs[3] = 2.0
    f1.coeffs[-3] = 2.0
    f2.coeffs[5] = 1.0 - 1.0j
    f2.coeffs[-5] = 1.0 + 1.0j
    prod = to_spectral(g, to_physical(f1) * to_physical(f2))
    expected = convolve_modes(
        {(3,): 2.0, (-3,): 2.0}, {(5,): 1.0 - 1.0j, (-5,): 1.0 + 1.0j}
    )
    for m in range(-g.n // 2, g.n // 2):
        want = expected.get((m,), 0.0)
        assert abs(prod.coeffs[m % g.n] - want) < 1e-13


def test_dealias_rules(rng):
    g = Grid(d=2, n=32)  # keep |m_i| <= 10
    inside = zero_field(g)
    inside.coeffs[4, 5] = 1.0
    assert np.array_equal(dealias_23(inside).coeffs, inside.coeffs)
    outside = zero_field(g)
    outside.coeffs[12, 0] = 1.0
    assert np.all(dealias_23(outside).coeffs == 0.0)
    f = random_field(g, rng)
    once = dealias_23(f)
    twice = dealias_23(once)
    assert np.array_equal(once.coeffs, twice.coeffs)


def test_parseval(rng):
    g = Grid(d=2, n=32, L=5.0)
    f = random_field(g, rng)
    f.coeffs[0, 0] = rng.standard_normal()  # a mean
    phys = to_physical(f)
    lhs = np.sum(np.abs(phys) ** 2) * (g.L / g.n) ** g.d
    rhs = g.L**g.d * np.sum(np.abs(f.coeffs) ** 2)
    assert abs(lhs - rhs) <= 1e-10 * rhs
    assert abs(f.l2_norm() ** 2 - rhs) <= 1e-12 * rhs


def test_derivative_matches_analytic():
    g = Grid(d=1, n=64, L=3.0)
    x = np.arange(g.n) * g.L / g.n
    f = to_spectral(g, np.sin(2 * np.pi * x / g.L))
    df = to_physical(SpectralField(g, _grad(g, f.coeffs)[0]))
    exact = (2 * np.pi / g.L) * np.cos(2 * np.pi * x / g.L)
    assert np.max(np.abs(df.real - exact)) <= 1e-10


def test_hermitian_closure(rng, grid2d):
    f = random_field(grid2d, rng)
    for c in _grad(grid2d, f.coeffs):
        assert SpectralField(grid2d, c).is_hermitian(1e-12)
    assert dealias_23(f).is_hermitian(1e-12)


def test_nyquist_zeroed_by_derivatives():
    g = Grid(d=1, n=16)
    f = zero_field(g)
    f.coeffs[g.n // 2] = 1.0  # the Nyquist entry
    assert np.all(_grad(g, f.coeffs) == 0.0)


def test_lp_norm_single_mode():
    g = Grid(d=2, n=32, L=2.0)
    f = zero_field(g)
    f.coeffs[1, 0] = 0.5  # complex exponential, |f| = 0.5 everywhere
    assert abs(field_lp_norm(f, 4) - 0.5 * g.L ** (2 / 4)) < 1e-12
    assert abs(field_lp_norm(f, np.inf) - 0.5) < 1e-12


def test_state_round_trip_container(tmp_path, rng, grid2d):
    st = State.from_stacked(grid2d, np.stack([random_field(grid2d, rng).coeffs for _ in range(6)]), 1.75, True)
    path = tmp_path / "state.fld"
    save_state(path, st)
    back = load_state(path)
    assert back.time == 1.75
    assert back.grid == st.grid
    for f1, f2 in zip(st.fields(), back.fields()):
        # complex64 storage: single-precision round trip
        assert np.max(np.abs(f1.coeffs - f2.coeffs)) <= 1e-6 * max(1.0, np.max(np.abs(f1.coeffs)))


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda raw: raw[:20], "header needs 36 bytes, found 20"),
        (lambda raw: raw[:-3], "payload of 4 fields needs 2048 bytes, found 2045"),
        (lambda raw: raw + b"\0" * 8, "payload of 4 fields needs 2048 bytes, found 2056"),
    ],
    ids=["short-header", "truncated-payload", "trailing-bytes"],
)
def test_load_fields_checks_byte_counts(tmp_path, rng, cut, message):
    grid = Grid(d=1, n=64)
    path = tmp_path / "fields.fld"
    fields = [random_field(grid, rng) for _ in range(4)]
    save_state(path, State.from_stacked(grid, np.stack([f.coeffs for f in fields]), 0.5, True))
    fields, time = load_fields(path)
    assert len(fields) == 4 and time == 0.5
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_fields(path)


def test_load_state_holds_one_row_beyond_its_result(tmp_path, rng):
    # the complex128 stack is filled row by row through one complex64 row,
    # never from a copy of the whole payload
    grid = Grid(d=3, n=32)
    path = tmp_path / "nsc.fld"
    save_state(path, State.from_stacked(grid, np.stack([random_field(grid, rng).coeffs for _ in range(8)]), 0.25, True))
    load_state(path)
    tracemalloc.start()
    try:
        back = load_state(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.time == 0.25 and back.u.shape == (8, 32, 32, 32)
    assert peak <= back.u.nbytes + 8 * grid.n**grid.d + 64 * 1024


def test_load_state_short_read_is_a_byte_count_error(tmp_path, rng, monkeypatch):
    # the file shrinks after its size was read: the third of four 512-byte
    # rows comes back short and the fourth empty
    grid = Grid(d=1, n=64)
    path = tmp_path / "fields.fld"
    save_state(path, State.from_stacked(grid, np.stack([random_field(grid, rng).coeffs for _ in range(4)]), 0.5, True))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-700])
    monkeypatch.setattr(spectral.os, "fstat", lambda fd, stat=os.fstat: os.stat_result((*stat(fd)[:6], size, *stat(fd)[7:10])))
    with pytest.raises(ValueError, match="payload of 4 fields needs 2048 bytes, found 1348"):
        load_state(path)


def test_state_stacking(grid2d, rng):
    st = zero_state(grid2d)
    arr = st.u
    assert arr.shape == (6,) + grid2d.shape
    st2 = State.from_stacked(grid2d, arr, 0.5, True)
    assert st2.time == 0.5
    assert st2.component_labels() == ["a", "v1", "v2", "theta", "q1", "q2"]


def test_state_grid_mismatch(grid2d):
    other = Grid(d=2, n=16)
    with pytest.raises(ValueError):
        State(a=zero_field(grid2d), v=(zero_field(other), zero_field(other)), theta=zero_field(grid2d))


def test_load_state_checks_component_count(tmp_path, grid2d):
    path = tmp_path / "nsc.fld"
    save_state(path, zero_state(grid2d))
    assert load_state(path).has_flux
    # five components, neither NSF nor NSC at d = 2: the header says five and
    # the payload holds five
    raw = path.read_bytes()
    header = list(_HEADER.unpack(raw[: _HEADER.size]))
    header[5] = 5
    path.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size : -8 * grid2d.n**2])
    with pytest.raises(ValueError, match="shape"):
        load_state(path)


# ------------------------------------------------ one stacked State (hypothesis)

_state_grids = hst.sampled_from([Grid(d=1, n=16), Grid(d=2, n=8), Grid(d=3, n=8)])


def _random_stack(grid, has_flux, seed):
    shape = (2 * grid.d + 2 if has_flux else grid.d + 2, *grid.shape)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=30, deadline=None)
@given(grid=_state_grids, has_flux=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_state_components_are_views_of_one_stack(grid, has_flux, seed):
    arr = _random_stack(grid, has_flux, seed)
    st = State.from_stacked(grid, arr, 0.25, has_flux)
    assert st.u is arr and st.has_flux == has_flux
    assert (st.q is None) != has_flux
    named = [st.a, *st.v, st.theta, *(st.q or ())]
    assert len(named) == len(arr) == len(st.fields())
    for i, (f, g) in enumerate(zip(named, st.fields())):
        assert np.shares_memory(f.coeffs, arr) and np.shares_memory(g.coeffs, arr)
        assert f.grid == grid and np.array_equal(f.coeffs, arr[i]) and np.array_equal(g.coeffs, arr[i])
    zero = (0,) * grid.d
    st.theta.coeffs[zero] = 7.0 - 2.0j
    assert arr[1 + grid.d][zero] == 7.0 - 2.0j


@settings(max_examples=30, deadline=None)
@given(grid=_state_grids, has_flux=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_snapshot_component_count_decides_the_flux(tmp_path_factory, grid, has_flux, seed):
    # values that complex64 holds exactly come back bit for bit
    arr = _random_stack(grid, has_flux, seed).astype(np.complex64).astype(complex)
    path = tmp_path_factory.mktemp("snap") / "state.fld"
    save_state(path, State.from_stacked(grid, arr, 0.75, has_flux))
    back = load_state(path)
    assert back.has_flux == has_flux and back.grid == grid and back.time == 0.75
    assert np.array_equal(back.u, arr)


@settings(max_examples=30, deadline=None)
@given(grid=_state_grids, has_flux=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_state_hermitized_matches_per_field(grid, has_flux, seed):
    st = State.from_stacked(grid, _random_stack(grid, has_flux, seed), 1.5, has_flux)
    herm = st.hermitized()
    assert herm.time == 1.5 and herm.has_flux == has_flux and herm.is_hermitian(0.0)
    for f, h in zip(st.fields(), herm.fields()):
        assert np.array_equal(h.coeffs, f.hermitized().coeffs)


@settings(max_examples=30, deadline=None)
@given(grid=_state_grids, has_flux=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_state_keyword_constructor_copies_into_one_stack(grid, has_flux, seed):
    arr = _random_stack(grid, has_flux, seed)
    fields = [SpectralField(grid, c) for c in arr]
    d = grid.d
    st = State(a=fields[0], v=fields[1 : 1 + d], theta=fields[1 + d], q=fields[2 + d :] if has_flux else None)
    assert st.has_flux == has_flux and st.time == 0.0 and np.array_equal(st.u, arr)
    assert not any(np.shares_memory(st.u, f.coeffs) for f in fields)


@settings(max_examples=30, deadline=None)
@given(
    grid=_state_grids,
    has_flux=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
    bad=hst.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)]),
)
def test_from_stacked_rejects_bad_stacks(grid, has_flux, seed, bad):
    arr = _random_stack(grid, has_flux, seed)
    with pytest.raises(ValueError, match="shape"):
        State.from_stacked(grid, arr, 0.0, not has_flux)
    for wrong in (arr[:-1], np.concatenate([arr, arr[:1]])):
        with pytest.raises(ValueError, match="shape"):
            State.from_stacked(grid, wrong, 0.0, has_flux)
    rng = np.random.default_rng(seed)
    arr[tuple(int(rng.integers(m)) for m in arr.shape)] = bad
    with pytest.raises(ValueError, match="non-finite"):
        State.from_stacked(grid, arr, 0.0, has_flux)
