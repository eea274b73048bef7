"""Property tests of the eigendecomposed propagator kernel and the reduced
(longitudinal) generator it is built from."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nsclab.evolve import (
    PropagatorKernel,
    RadialFlow,
    _apply_modes,
    _torus_step,
    expm,
    mode_matrices,
    sharp_low_profile,
)
from nsclab.model import (
    ModelSpec,
    eigenvalues,
    reduced_blocks,
    reduced_symbol,
    solenoidal_eigenvalues,
    spectral_distance,
    symbol,
)
from nsclab.spectral import Grid
from nsclab import studies
from oracles import apply_batched, torus_propagator

log_eps = st.floats(-3.0, -1.0)
log_r = st.floats(-2.0, 2.0)
inviscid = st.booleans()
kinds = st.sampled_from(["nsc", "nsf"])


def make_spec(kind, d, eps, nu_zero=False):
    visc = {"visc_mu": 0.0, "visc_lam": 0.0} if nu_zero else {}
    return ModelSpec(kind=kind, d=d, eps=eps if kind == "nsc" else 0.0, **visc)


def mp_expm(m, t, dps=40):
    with mpmath.workdps(dps):
        e = mpmath.expm(mpmath.matrix(m.tolist()) * t)
        return np.array([[complex(e[i, j]) for j in range(e.cols)] for i in range(e.rows)])


# ------------------------------------------------------------------ kernel


@settings(max_examples=60, deadline=None)
@given(log_eps, log_r, st.floats(0.0, 1e3))
def test_kernel_matches_scipy_expm_on_stiff_blocks(le, lr, t):
    m = reduced_blocks(ModelSpec(kind="nsc", d=3, eps=10**le), [10**lr])
    kernel = PropagatorKernel(m)
    ref = scipy.linalg.expm(t * m[0])
    # scipy's own error on these blocks grows like t |M| u (up to ~1e-8 at
    # eps = 1e-3, t = 1e3); the 40-digit comparison below is the tight one
    assert np.abs(kernel.matrices(t)[0] - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max())


@settings(max_examples=25, deadline=None)
@given(log_eps, log_r, st.floats(0.0, 1e3))
def test_kernel_matches_multiprecision_expm(le, lr, t):
    m = reduced_blocks(ModelSpec(kind="nsc", d=3, eps=10**le), [10**lr])
    ref = mp_expm(m[0], t)
    got = PropagatorKernel(m).matrices(t)[0]
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_kernel_pinned_multiprecision_case():
    # small radius, stiff relaxation, long time: the slow modes have decayed
    # by e^(-t r^2) ~ 0.97 while |M| ~ 1e6; Pade scaling-and-squaring loses
    # about 1e-8 here, the eigenvector form keeps full accuracy
    spec = ModelSpec(kind="nsc", d=3, eps=1e-3)
    r, t = 6.4e-3, 825.0
    u0 = np.array([1.0, 0.5, -0.3, 0.2])
    m = reduced_blocks(spec, [r])
    ref = mp_expm(m[0], t, dps=60) @ u0
    got = PropagatorKernel(m).apply(t, u0[None, :])[0]
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(u0)


def test_expm_stiff_mode_multiprecision():
    # an 8x8 NSC lattice mode at eps = 1e-3: |dt M| ~ 4e4, so scaling and
    # squaring needs many squarings; a plain Pade-13 kernel lost 1.3e-10 here
    m = symbol(ModelSpec(kind="nsc", d=3, eps=1e-3), [2.0, 4.0, 0.0]).entries
    assert np.abs(expm(0.037 * m) - mp_expm(m, 0.037, dps=50)).max() <= 1e-11


def test_kernel_apply_matches_matrices(rng):
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    kernel = PropagatorKernel(reduced_blocks(spec, np.logspace(-2, 2, 64)))
    u = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    for t in (0.0, 0.3, 40.0):
        ref = np.einsum("nij,nj->ni", kernel.matrices(t), u)
        got = kernel.apply(t, u)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(u).max()


def test_defective_block_takes_fallback():
    # a real 4x4 generator with a 2x2 Jordan block at -1, conjugated by a
    # fixed well-conditioned basis, next to a diagonalizable stiff block
    jordan = np.diag([-1.0, -1.0, -3.0, -1e4])
    jordan[0, 1] = 1.0
    s = np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0], [0.1, 0.0, 1.0, 0.2], [0.0, 0.1, 0.0, 1.0]])
    defective = s @ jordan @ np.linalg.inv(s)
    smooth = reduced_blocks(ModelSpec(kind="nsc", d=3, eps=1e-2), [1.0])[0]
    kernel = PropagatorKernel(np.stack([smooth, defective]))
    assert list(kernel.fallback) == [1]
    u = np.array([[1.0, -2.0, 0.5, 0.25]] * 2, dtype=complex)
    for t in (0.0, 0.5, 7.0):
        mats = kernel.matrices(t)
        assert np.abs(mats[1] - scipy.linalg.expm(t * defective)).max() <= 1e-12
        assert np.abs(mats[0] - scipy.linalg.expm(t * smooth)).max() <= 1e-12
        ref = np.einsum("nij,nj->ni", mats, u)
        assert np.abs(kernel.apply(t, u) - ref).max() <= 1e-12


# ----------------------------------------------------------- reduced symbol


@settings(max_examples=80, deadline=None)
@given(
    kinds,
    st.floats(-2.0, 0.0),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.floats(-2.0, 1.5),
    inviscid,
)
def test_reduced_plus_solenoidal_spectrum_is_full_spectrum(kind, le, direction, lr, nu_zero):
    spec = make_spec(kind, 3, 10**le, nu_zero)
    direction = np.asarray(direction)
    if np.linalg.norm(direction) < 1e-3:
        direction = np.array([1.0, 0.0, 0.0])
    r = 10**lr
    xi = r * direction / np.linalg.norm(direction)
    full = np.linalg.eigvals(symbol(spec, xi).entries)
    red = np.concatenate(
        [np.linalg.eigvals(reduced_symbol(spec, r).entries), solenoidal_eigenvalues(spec, r)]
    )
    assert spectral_distance(full, red) <= 1e-9 * max(1.0, np.abs(full).max())


def test_reduced_symbol_inviscid_example():
    spec = ModelSpec(kind="nsc", d=3, eps=0.1, visc_mu=0.0, visc_lam=0.0)
    xi = np.array([0.3, -0.7, 1.1])
    r = float(np.linalg.norm(xi))
    assert reduced_symbol(spec, r).entries[1, 1] == 0.0
    red = np.concatenate([eigenvalues(reduced_symbol(spec, r)), solenoidal_eigenvalues(spec, r)])
    assert spectral_distance(eigenvalues(symbol(spec, xi)), red) <= 1e-10
    slow = red[np.abs(red) < 5.0]
    expected = [-1.14949356, -0.33670184 + 1.65099613j, -0.33670184 - 1.65099613j, 0.0, 0.0]
    assert spectral_distance(slow, expected) <= 1e-7


def test_reduced_blocks_match_reduced_symbol():
    for kind in ("nsc", "nsf"):
        spec = make_spec(kind, 3, 1e-2)
        rs = np.array([0.0, 1e-3, 0.7, 42.0])
        blocks = reduced_blocks(spec, rs)
        for r, b in zip(rs, blocks):
            assert np.array_equal(b, reduced_symbol(spec, float(r)).entries.real)


# --------------------------------------------------------- torus assembly


def step_matrices(spec, grid, t):
    """Per-mode matrices of the torus step, (n^d, nc, nc): column c is the
    step applied to the unit vector e_c at every mode."""
    nc, n_modes = spec.n_components, grid.n**grid.d
    step = _torus_step(spec, grid, t, False)
    cols = []
    for c in range(nc):
        u = np.zeros((nc, n_modes), dtype=complex)
        u[c] = 1.0
        cols.append(_apply_modes(*step, u))
    return np.stack(cols, axis=-1).transpose(1, 0, 2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), kinds, log_eps, st.floats(-4.0, 0.0), inviscid)
def test_torus_propagator_matches_mode_expm(d, kind, le, ldt, nu_zero):
    spec = make_spec(kind, d, 10**le, nu_zero)
    grid = Grid(d=d, n=8)
    dt = 10**ldt
    got = step_matrices(spec, grid, dt)
    ref = scipy.linalg.expm(dt * mode_matrices(spec, grid))  # includes k = 0 and the Nyquist plane
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["nsc", "nsf"])
def test_torus_propagator_hermitian_pairs_exact(d, kind):
    grid = Grid(d=d, n=8)
    e = step_matrices(make_spec(kind, d, 3e-2), grid, 0.37)
    nc = e.shape[-1]
    e = e.reshape(*grid.shape, nc, nc)
    mirrored = np.conj(e[grid.mirror_indices()])
    off = ~grid.nyquist_mask()  # on the Nyquist plane the lattice holds no -k
    assert np.array_equal(e[off], mirrored[off])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), kinds, log_eps, st.floats(-4.0, 1.0), inviscid, st.integers(0, 2**32 - 1))
def test_torus_step_matches_dense_oracle(d, kind, le, ldt, nu_zero, seed):
    spec = make_spec(kind, d, 10**le, nu_zero)
    grid = Grid(d=d, n=8)
    dt = 10**ldt
    rng = np.random.default_rng(seed)
    shape = (spec.n_components, *grid.shape)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = apply_batched(torus_propagator(spec, grid, dt), u)
    got = _apply_modes(*_torus_step(spec, grid, dt, False), u)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # the rfft half-lattice step is the same arithmetic on a subset of modes
    h = grid.n // 2 + 1
    half = _apply_modes(*_torus_step(spec, grid, dt, True), np.ascontiguousarray(u[..., :h]))
    assert np.array_equal(half, got[..., :h])


def test_torus_kernel_uses_distinct_radii():
    from nsclab.evolve import _torus_kernel

    spec = ModelSpec(kind="nsc", d=3, eps=0.05)
    assert len(_torus_kernel(spec, Grid(d=3, n=16))[1]) == 116
    assert len(_torus_kernel(spec, Grid(d=3, n=32))[1]) == 464


# ------------------------------------------------------------ radial flow


def test_radial_flow_matches_pade_path():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, sharp_low_profile(1.5, 3), r_max=64.0, nodes=512)
    assert flow.kernel.fallback.size == 0
    for t in (0.0, 1.0, 100.0):
        ref = np.einsum("nij,nj->ni", expm(t * flow.kernel.mats), flow.u0)
        assert np.abs(flow.at(t) - ref).max() <= 1e-7 * np.abs(flow.u0).max()


def test_decay_fit_samples_one_flow(monkeypatch):
    counts = {"builds": 0, "samples": 0}
    init, at = RadialFlow.__init__, RadialFlow.at

    def counting_init(self, *args, **kwargs):
        counts["builds"] += 1
        init(self, *args, **kwargs)

    def counting_at(self, t):
        counts["samples"] += 1
        return at(self, t)

    monkeypatch.setattr(RadialFlow, "__init__", counting_init)
    monkeypatch.setattr(RadialFlow, "at", counting_at)
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    rep = studies.decay_fit(spec, sharp_low_profile(1.5, 3), 3, 2, 0.0, 1.5, nodes=512)
    assert counts == {"builds": 1, "samples": len(rep.times)}
    assert rep.norms_tq is not None and math.isfinite(rep.temperature_flux.exponent_fitted)
