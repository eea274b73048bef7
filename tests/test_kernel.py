"""Property tests of the eigendecomposed propagator kernel and the reduced
(longitudinal) generator it is built from."""

import gc
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsclab.evolve import (
    LinearPropagator,
    PropagatorKernel,
    RadialFlow,
    _apply_modes,
    _torus_step,
    expm,
    imex_step,
    mode_matrices,
    sharp_low_profile,
)
from nsclab.model import (
    ModelSpec,
    eigenvalues,
    reduced_blocks,
    reduced_symbol,
    symbol,
)
from nsclab.spectral import Grid
from nsclab import evolve, studies
from oracles import apply_batched, kernel_apply, solenoidal_eigenvalues, spectral_distance, torus_propagator

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
    got = kernel_apply(PropagatorKernel(m), t, u0[None, :])[0]
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
        got = kernel_apply(kernel, t, u)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(u).max()


def _defective_block():
    # a real 4x4 generator with a 2x2 Jordan block at -1, conjugated by a
    # fixed well-conditioned basis
    jordan = np.diag([-1.0, -1.0, -3.0, -1e4])
    jordan[0, 1] = 1.0
    s = np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0], [0.1, 0.0, 1.0, 0.2], [0.0, 0.1, 0.0, 1.0]])
    return s @ jordan @ np.linalg.inv(s)


def test_defective_block_takes_fallback():
    # the defective block next to a diagonalizable stiff block
    defective = _defective_block()
    smooth = reduced_blocks(ModelSpec(kind="nsc", d=3, eps=1e-2), [1.0])[0]
    kernel = PropagatorKernel(np.stack([smooth, defective]))
    assert list(kernel.fallback) == [1]
    u = np.array([[1.0, -2.0, 0.5, 0.25]] * 2, dtype=complex)
    for t in (0.0, 0.5, 7.0):
        mats = kernel.matrices(t)
        assert np.abs(mats[1] - scipy.linalg.expm(t * defective)).max() <= 1e-12
        assert np.abs(mats[0] - scipy.linalg.expm(t * smooth)).max() <= 1e-12
        ref = np.einsum("nij,nj->ni", mats, u)
        assert np.abs(kernel_apply(kernel, t, u) - ref).max() <= 1e-12


def _near_defective_block(m, log_gap, seed):
    """A real m x m generator with eigenvalues -1 and -1 - 10^log_gap (a
    Jordan block at -1 when log_gap is None) next to stiff ones, conjugated
    by a random basis near the identity."""
    gap = 0.0 if log_gap is None else 10.0**log_gap
    block = np.diag([-1.0, -1.0 - gap, -3.0, -1e4][:m])
    block[0, 1] = 1.0
    s = np.eye(m) + np.random.default_rng(seed).uniform(-0.3, 0.3, (m, m))
    return s @ block @ np.linalg.inv(s)


@settings(max_examples=60, deadline=None)
@given(
    kinds,
    st.lists(
        st.tuples(st.booleans(), log_eps, st.floats(-4.0, 3.0), st.one_of(st.none(), st.floats(-16.0, -1.0)), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    ),
)
@example("nsc", [(False, -2.0, 0.0, None, 0), (True, -3.0, 2.5, None, 1), (False, -2.0, 0.0, -9.0, 2)])
@example("nsf", [(False, -2.0, 0.0, None, 3), (True, -1.0, -3.0, None, 4)])
def test_fallback_set_is_the_svd_rule(kind, draws):
    """The determinant bound cond2(V) <= m^(m/2) / |det V| only spares blocks
    the SVD rule keeps: the fallback set is the rule's at the default limit
    and at limits of 10 and 3, where the SVD judges (nearly) every block."""
    m = 4 if kind == "nsc" else 3
    mats = np.stack(
        [
            reduced_blocks(make_spec(kind, 3, 10**le), [10**lr])[0] if stiff else _near_defective_block(m, log_gap, seed)
            for stiff, le, lr, log_gap, seed in draws
        ]
    )
    vecs = np.linalg.eig(mats)[1]
    cond, det = np.linalg.cond(vecs), np.abs(np.linalg.det(vecs))
    assert np.all(cond[det > 0] * det[det > 0] <= m ** (m / 2) * (1.0 + 1e-12))
    for cond_max in (evolve._COND_MAX, 10.0, 3.0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve, "_COND_MAX", cond_max)
            kernel = PropagatorKernel(mats)
        assert np.array_equal(kernel.fallback, np.flatnonzero(~(cond <= cond_max)))


def test_kernel_matrices_on_a_time_array():
    # matrices at T times is the stack of the scalar calls and agrees with
    # kernel_apply, on a stack that holds a smooth, a stiff and a defective block
    smooth, stiff = reduced_blocks(ModelSpec(kind="nsc", d=3, eps=1e-3), [1.0, 1e2])
    kernel = PropagatorKernel(np.stack([smooth, stiff, _defective_block()]))
    assert list(kernel.fallback) == [2]
    ts = np.array([0.0, 0.5, 40.0])
    u = np.array([[1.0, -2.0, 0.5, 0.25]] * 3, dtype=complex)
    mats = kernel.matrices(ts)
    assert mats.shape == (3, 3, 4, 4)
    for t, m in zip(ts, mats):
        assert np.abs(m - kernel.matrices(t)).max() <= 1e-13
        assert np.abs(np.einsum("nij,nj->ni", m, u) - kernel_apply(kernel, t, u)).max() <= 1e-13 * np.abs(u).max()


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


def _retained_bytes(run) -> int:
    """Traced bytes still held once run() has returned and gc has run."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def _memory_case():
    spec, grid = ModelSpec(kind="nsc", d=3, eps=0.05), Grid(d=3, n=16)
    return spec, studies.random_state(grid, np.random.default_rng(0), 1e-2, 3.0)


def test_propagators_keep_no_per_mode_memory():
    # a step's per-mode blocks (16 floats per mode, 0.5 MiB here) live as
    # long as its propagator and no longer
    spec, state = _memory_case()
    LinearPropagator(spec, state.grid, 1e-3).step(state)  # warms the per-grid tables

    def run():
        for dt in (2e-3, 3e-3, 4e-3, 5e-3, 6e-3):
            LinearPropagator(spec, state.grid, dt).step(state)

    assert _retained_bytes(run) <= 64 * 1024


def test_imex_steps_keep_no_per_mode_memory():
    spec, state = _memory_case()
    imex_step(state, spec, 1e-4)  # warms the per-grid tables and the FFTs

    def run():
        for dt in (2e-4, 3e-4):
            imex_step(state, spec, dt)

    assert _retained_bytes(run) <= 64 * 1024


# ------------------------------------------------------------ radial flow


def test_radial_flow_matches_pade_path():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    flow = RadialFlow(spec, sharp_low_profile(1.5, 3), r_max=64.0, nodes=512)
    assert flow.fallback.size == 0
    for t in (0.0, 1.0, 100.0):
        ref = np.einsum("nij,nj->ni", expm(t * reduced_blocks(spec, flow.r)), flow.u0)
        assert np.abs(flow.at(t) - ref).max() <= 1e-7 * np.abs(flow.u0).max()


def test_radial_flow_builds_no_projectors(monkeypatch):
    # the radial flow only applies its kernel: a 4,096-node flow and ten
    # samples peak at 2.05 (nodes, 4, 4) complex stacks of traced memory,
    # with the kernel on the 2,048 nodes that carry data (2.49 while the
    # flow kept its whole kernel, V^-1 included).  The bound is
    # 10% above the 3.85 stacks of a kernel on every node; the projectors
    # alone, (2,048, 8, 16) reals, would add 2 stacks.
    def refused(kernel):
        raise AssertionError("the radial flow built its kernel's projectors")

    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    RadialFlow(spec, sharp_low_profile(1.5, 3), r_max=64.0, nodes=512).at(1.0)  # warms numpy
    monkeypatch.setattr(PropagatorKernel, "projectors", property(refused))
    tracemalloc.start()
    try:
        flow = RadialFlow(spec, sharp_low_profile(1.5, 3), r_max=1e4, nodes=4096)
        for t in np.logspace(-2, 3, 10):
            flow.at(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = 4096 * 16 * np.dtype(complex).itemsize
    assert peak <= 1.1 * 3.85 * stack, f"traced peak {peak / stack:.2f} stacks"


def test_radial_flow_projects_its_data_once(monkeypatch):
    """Building a well-conditioned kernel takes no SVD; the support's
    coefficients V^-1 u0 are taken once, at construction, after which the
    flow holds neither V^-1 nor the support's blocks, and a sample makes one
    product with V."""

    def refused(*args, **kwargs):
        raise AssertionError("the kernel build took an SVD")

    built, init = [], PropagatorKernel.__init__

    def keep(self, mats):
        init(self, mats)
        built.append((weakref.ref(self.vinv), weakref.ref(self.mats)))

    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", refused)
        mp.setattr(np.linalg, "cond", refused)
        mp.setattr(PropagatorKernel, "__init__", keep)
        flow = RadialFlow(spec, sharp_low_profile(1.5, 3), r_max=64.0, nodes=512)
        assert PropagatorKernel(reduced_blocks(spec, np.logspace(-2, 2, 64))).fallback.size == 0
    assert flow.fallback.size == 0
    gc.collect()
    assert len(built) == 2 and all(ref() is None for ref in built[0])
    times = np.logspace(-2, 3, 10)
    einsum, operands = np.einsum, []

    def spy(subscripts, *ops, **kwargs):
        operands.append(ops)
        return einsum(subscripts, *ops, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "einsum", spy)
        samples = [flow.at(t) for t in times]
    assert len(operands) == len(times) and all(ops[0] is flow.vecs for ops in operands)
    kernel = PropagatorKernel(reduced_blocks(spec, flow.r[flow.support]))
    for t, u in zip(times, samples, strict=True):
        ref = np.zeros_like(flow.u0)
        ref[flow.support] = kernel_apply(kernel, t, flow.u0[flow.support])
        assert np.array_equal(u, ref)


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
    rep = studies.decay_fit(spec, sharp_low_profile(1.5, 3), 2, 0.0, nodes=512)
    assert counts == {"builds": 1, "samples": len(rep.times)}
    assert rep.norms_tq is not None and math.isfinite(rep.temperature_flux.exponent_fitted)
