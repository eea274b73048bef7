import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from nsclab.besov import make_thresholds
from nsclab.evolve import (
    DensityPositivityError,
    LinearPropagator,
    NumericalBlowupError,
    RadialFlow,
    default_dt,
    expm,
    imex_step,
    linear_trajectory,
    mode_matrices,
    propagate_mode,
    radial_semigroup_norms,
    sharp_low_profile,
    source_terms,
)
from nsclab.model import ModelSpec, SystemKind, reduced_symbol, symbol
from nsclab.spectral import (
    Grid,
    SpectralField,
    State,
    random_field,
    to_physical,
    zero_field,
    zero_state,
)

from oracles import ode_propagate, ode_propagate_explicit, source_terms_reference


def rand_state(grid, rng, amp=1e-2, decay=3.0):
    d = grid.d
    mk = lambda: random_field(grid, rng, amp, decay)
    return State(a=mk(), v=tuple(mk() for _ in range(d)), theta=mk(), q=tuple(mk() for _ in range(d)))


# --------------------------------------------------------------- exponential


def test_expm_matches_scipy(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, np.max(np.abs(expm(a) - scipy.linalg.expm(a))))
    assert worst < 1e-12


def test_expm_stiff_block():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-3)
    m = reduced_symbol(spec, 50.0).entries
    diff = np.max(np.abs(expm(10.0 * m) - scipy.linalg.expm(10.0 * m)))
    assert diff < 1e-10


def test_expm_batched_shapes(rng):
    a = rng.standard_normal((7, 3, 3))
    out = expm(a)
    assert out.shape == (7, 3, 3)
    for i in range(7):
        assert np.allclose(out[i], scipy.linalg.expm(a[i]), atol=1e-12)


def test_propagate_identity_at_zero(nsc3, rng):
    m = reduced_symbol(nsc3, 2.0)
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(propagate_mode(m, u0, 0.0), u0)


def test_propagate_diagonal_scalar_exponential():
    from nsclab.model import SymbolMatrix

    xi2 = 4.0
    m = SymbolMatrix((2.0,), 2, np.diag([-xi2, -xi2]).astype(complex), SystemKind.TOY_DAMPED, ("x", "y"))
    u0 = np.array([1.0, 2.0], dtype=complex)
    out = propagate_mode(m, u0, 0.7)
    exact = u0 * math.exp(-xi2 * 0.7)
    assert np.max(np.abs(out - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_propagate_vs_ode_oracle(rng):
    spec = ModelSpec(kind="nsc", d=3, eps=0.1)
    worst = 0.0
    for _ in range(10):
        r = 10 ** rng.uniform(-1, 1)
        m = reduced_symbol(spec, r)
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mine = propagate_mode(m, u0, 1.0)
        ref = ode_propagate(m.entries, u0, 1.0)
        worst = max(worst, np.linalg.norm(mine - ref) / np.linalg.norm(ref))
    assert worst <= 1e-8


def test_propagate_vs_explicit_oracle_nonstiff(rng):
    spec = ModelSpec(kind="nsc", d=3, eps=0.1)
    m = reduced_symbol(spec, 1.3)
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    mine = propagate_mode(m, u0, 1.0)
    ref = ode_propagate_explicit(m.entries, u0, 1.0)
    assert np.linalg.norm(mine - ref) / np.linalg.norm(ref) <= 1e-8


def test_semigroup_property(nsc3, rng):
    for _ in range(20):
        r = 10 ** rng.uniform(-2, 2)
        m = reduced_symbol(nsc3, r).entries
        p1, p2 = expm(0.9 * m), expm(1.8 * m)
        assert np.max(np.abs(p1 @ p1 - p2)) <= 1e-10 * max(1.0, np.max(np.abs(p2)))


def test_propagate_rejects_bad_input(nsc3):
    m = reduced_symbol(nsc3, 1.0)
    with pytest.raises(ValueError):
        propagate_mode(m, np.zeros(4), -1.0)


# ------------------------------------------------------------ grid evolution


def test_evolve_zero_state(nsc2, grid2d):
    out = LinearPropagator(nsc2, grid2d, 1.0).step(zero_state(grid2d))
    assert all(np.all(f.coeffs == 0.0) for f in out.fields())


def test_evolve_single_pair_matches_mode_solution(nsc2, grid2d):
    st = zero_state(grid2d)
    st.a.coeffs[1, 2] = 0.3 + 0.1j
    st = State(a=st.a.hermitized(), v=st.v, theta=st.theta, q=st.q)
    u0 = np.array([f.coeffs[1, 2] for f in st.fields()])
    out = LinearPropagator(nsc2, grid2d, 0.7).step(st)
    xv = grid2d.wavevectors()
    xi = np.array([xv[0][1, 2], xv[1][1, 2]])
    ref = propagate_mode(symbol(nsc2, xi), u0, 0.7)
    got = np.array([f.coeffs[1, 2] for f in out.fields()])
    assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(to_physical(out.a).imag)) < 1e-14  # physical field real


def test_evolve_preserves_hermitian_exactly(nsc2, grid2d, rng):
    st = rand_state(grid2d, rng)
    out = LinearPropagator(nsc2, grid2d, 0.5).step(st)
    assert out.is_hermitian(0.0)


def test_nsf_limit_small_eps(grid2d, rng):
    spec = ModelSpec(kind="nsc", d=2, eps=1e-4)
    st = rand_state(grid2d, rng, amp=0.1)
    st = State(a=st.a, v=st.v, theta=st.theta, q=(zero_field(grid2d), zero_field(grid2d)))
    nsf_state = State(a=st.a.copy(), v=tuple(f.copy() for f in st.v), theta=st.theta.copy(), q=None)
    o1 = LinearPropagator(spec, grid2d, 1.0).step(st)
    o2 = LinearPropagator(spec.to_nsf(), grid2d, 1.0).step(nsf_state)
    dist = math.sqrt(
        sum(
            SpectralField(grid2d, x.coeffs - y.coeffs).l2_norm() ** 2
            for x, y in zip([o1.a, *o1.v, o1.theta], [o2.a, *o2.v, o2.theta])
        )
    )
    assert dist < 1e-2


def test_evolve_kind_state_mismatch(grid2d, nsc2):
    st = zero_state(grid2d, with_flux=False)
    with pytest.raises(ValueError, match="state components do not match the system kind"):
        LinearPropagator(nsc2, grid2d, 1.0).step(st)
    with pytest.raises(ValueError, match="state components do not match the system kind"):
        LinearPropagator(nsc2.to_nsf(), grid2d, 1.0).step(zero_state(grid2d))
    with pytest.raises(ValueError):
        mode_matrices(ModelSpec(kind="nsc", d=3, eps=0.1), grid2d)


def test_linear_trajectory_times(grid2d, nsc2, rng):
    st = rand_state(grid2d, rng)
    traj = linear_trajectory(st, nsc2, 0.1, 5)
    assert [round(s.time, 10) for s in traj] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


# ---------------------------------------------------------------- radial flow


def test_radial_norm_at_zero_equals_data_norm():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    flow = RadialFlow(spec, prof, r_max=10.0, nodes=1024)
    n0 = flow.l2_norm(flow.at(0.0), ("a", "v"))
    ndata = flow.l2_norm(flow.u0, ("a", "v"))
    assert n0 == pytest.approx(ndata, rel=1e-12)


def test_pure_heat_mode_decay_exponent():
    # scalar heat semigroup with B^{-sigma1}-sharp data: exponent -sigma1/2
    sigma1, d = 1.5, 3
    r = np.logspace(-4, 0, 2048)
    w = np.diff(np.log(r)).mean()
    ts = np.logspace(1, 3, 20)
    vals = []
    for t in ts:
        integrand = np.exp(-2 * r**2 * t) * r ** (2 * sigma1 - d) * r ** (d - 1) * r
        vals.append(math.sqrt(np.sum(integrand) * w))
    slope = np.polyfit(np.log(1 + ts), np.log(vals), 1)[0]
    assert abs(slope + sigma1 / 2) < 0.03 * (sigma1 / 2)


def test_radial_semigroup_dimension_check():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    with pytest.raises(ValueError):
        radial_semigroup_norms(spec, prof, 2, 2, 0.0, [1.0])


def test_radial_quadrature_node_doubling():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    a = radial_semigroup_norms(spec, prof, 3, 2, 0.0, [100.0], r_max=10.0, nodes=2048)
    b = radial_semigroup_norms(spec, prof, 3, 2, 0.0, [100.0], r_max=10.0, nodes=4096)
    assert abs(a[0] - b[0]) / b[0] < 1e-3


def test_radial_besov_proxy_p4():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    out = radial_semigroup_norms(spec, prof, 3, 4, 0.0, [10.0, 100.0], r_max=10.0, nodes=1024)
    assert np.all(out > 0) and out[1] < out[0]


def test_radial_minimum_nodes():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    with pytest.raises(ValueError):
        RadialFlow(spec, sharp_low_profile(1.5, 3), nodes=256)


# -------------------------------------------------------------------- sources


def test_sources_zero_state(grid2d, nsc2):
    F, G, H, I = source_terms(zero_state(grid2d), nsc2)
    assert F.l2_norm() == 0.0 and H.l2_norm() == 0.0
    assert all(f.l2_norm() == 0.0 for f in G) and all(f.l2_norm() == 0.0 for f in I)


def test_sources_vanish_without_density_and_flux(grid2d, nsc2):
    st = zero_state(grid2d)
    st.v[0].coeffs[2, 0] = 0.1
    st = State(a=st.a, v=(st.v[0].hermitized(), st.v[1]), theta=st.theta, q=st.q)
    F, G, H, I = source_terms(st, nsc2)
    assert F.l2_norm() == 0.0  # F = -div(a v) with a = 0
    assert all(f.l2_norm() == 0.0 for f in I)  # all flux terms carry q


def test_sources_quadratic_homogeneity(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    base = rand_state(grid1d, rng, amp=1.0)
    norms = []
    for amp in (1e-2, 5e-3, 2.5e-3):
        st = State(
            a=SpectralField(grid1d, amp * base.a.coeffs),
            v=(SpectralField(grid1d, amp * base.v[0].coeffs),),
            theta=SpectralField(grid1d, amp * base.theta.coeffs),
            q=(SpectralField(grid1d, amp * base.q[0].coeffs),),
        )
        F, G, H, I = source_terms(st, spec)
        norms.append(math.sqrt(sum(f.l2_norm() ** 2 for f in (F, G[0], H, I[0]))))
    for i in range(2):
        slope = math.log(norms[i] / norms[i + 1]) / math.log(2)
        assert abs(slope - 2.0) <= 0.1


def test_sources_nsf_variant(grid2d, rng):
    spec = ModelSpec(kind="nsf", d=2, eps=0.0)
    st = rand_state(grid2d, rng)
    st = State(a=st.a, v=st.v, theta=st.theta, q=None)
    F, G, H = source_terms(st, spec)
    assert F.l2_norm() > 0 and H.l2_norm() > 0


def test_sources_density_bound(grid2d, nsc2):
    st = zero_state(grid2d)
    st.a.coeffs[0, 0] = 1.5
    with pytest.raises(DensityPositivityError) as err:
        source_terms(st, nsc2)
    assert err.value.max_abs_a >= 1.0
    assert len(err.value.location) == 2


@settings(max_examples=40, deadline=None)
@given(
    d=hst.integers(1, 3),
    n=hst.sampled_from([8, 16]),
    kind=hst.sampled_from(["nsc", "nsf"]),
    inviscid=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
    a_max=hst.floats(0.0, 0.9),
    log_amps=hst.lists(hst.floats(-3.0, 1.0), min_size=3, max_size=3),
)
def test_sources_match_per_field_reference(d, n, kind, inviscid, seed, a_max, log_amps):
    grid = Grid(d=d, n=n)
    visc = {"visc_mu": 0.0, "visc_lam": 0.0} if inviscid else {"visc_mu": 0.5, "visc_lam": 0.2}
    spec = ModelSpec(kind=kind, d=d, eps=0.3 if kind == "nsc" else 0.0, **visc)
    rng = np.random.default_rng(seed)
    amp_v, amp_th, amp_q = (10.0**x for x in log_amps)
    a = random_field(grid, rng, 1.0, 2.0)
    peak = float(np.max(np.abs(to_physical(a).real)))
    a = SpectralField(grid, a.coeffs * (a_max / peak if peak > 0 else 0.0))
    st = State(
        a=a,
        v=tuple(random_field(grid, rng, amp_v, 2.0) for _ in range(d)),
        theta=random_field(grid, rng, amp_th, 2.0, zero_mean=False),
        q=tuple(random_field(grid, rng, amp_q, 2.0) for _ in range(d)) if kind == "nsc" else None,
    )

    def flat(sources):
        return np.stack([f.coeffs for item in sources for f in (item if isinstance(item, tuple) else (item,))])

    ref = flat(source_terms_reference(st, spec))
    got = flat(source_terms(st, spec))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# ----------------------------------------------------------------- IMEX step


def test_imex_matches_linear_flow_for_tiny_data(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=1e-14)
    cur = st
    for _ in range(100):
        cur = imex_step(cur, spec, 5e-3)
    lin = LinearPropagator(spec, grid1d, 0.5).step(st)
    err = max(np.max(np.abs(a.coeffs - b.coeffs)) for a, b in zip(cur.fields(), lin.fields()))
    assert err <= 1e-12 * 1e-14 / 1e-14  # absolute error vs 1e-14 amplitudes
    assert err <= 1e-12


def test_imex_second_order(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=2e-2)
    T = 0.5

    def run(nsteps):
        cur = st
        for _ in range(nsteps):
            cur = imex_step(cur, spec, T / nsteps)
        return cur

    ref = run(1024)
    errs = []
    for nsteps in (32, 64, 128):
        out = run(nsteps)
        errs.append(
            math.sqrt(
                sum(SpectralField(grid1d, a.coeffs - b.coeffs).l2_norm() ** 2 for a, b in zip(out.fields(), ref.fields()))
            )
        )
    for i in range(2):
        order = math.log(errs[i] / errs[i + 1]) / math.log(2)
        assert 1.8 <= order <= 2.2


@settings(max_examples=30, deadline=None)
@given(
    d=hst.integers(1, 3),
    kind=hst.sampled_from(["nsc", "nsf"]),
    log_eps=hst.floats(-2.0, 0.0),
    log_amp=hst.floats(-3.0, -1.3),
    mean_a=hst.floats(-0.3, 0.3).filter(lambda x: x != 0.0),
    mean_v=hst.floats(-0.5, 0.5).filter(lambda x: x != 0.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_imex_mass_conservation(d, kind, log_eps, log_amp, mean_a, mean_v, seed):
    # the k = 0 block of the step is exactly diagonal and the mass source
    # -div(a v) vanishes there, so mean(a) never moves
    grid = Grid(d=d, n={1: 32, 2: 16, 3: 8}[d])
    nsc = kind == "nsc"
    spec = ModelSpec(kind=kind, d=d, eps=10.0**log_eps if nsc else 0.0)
    rng = np.random.default_rng(seed)
    mk = lambda: random_field(grid, rng, 10.0**log_amp, 3.0)
    st = State(a=mk(), v=tuple(mk() for _ in range(d)), theta=mk(), q=tuple(mk() for _ in range(d)) if nsc else None)
    zero = (0,) * d
    st.a.coeffs[zero] = mean_a
    for f in st.v:
        f.coeffs[zero] = mean_v
    cur = st
    for _ in range(5):
        prev_mean = cur.a.coeffs[zero]
        cur = imex_step(cur, spec, 2e-3)
        assert cur.a.coeffs[zero] == prev_mean


@pytest.mark.parametrize("d", [1, 2, 3])
def test_imex_preserves_hermitian(d, rng):
    grid = Grid(d=d, n={1: 64, 2: 32, 3: 16}[d])
    spec = ModelSpec(kind="nsc", d=d, eps=0.5)
    cur = rand_state(grid, rng, amp=2e-2)
    for _ in range(10):
        cur = imex_step(cur, spec, 5e-3)
    assert cur.is_hermitian(1e-12)
    # modes past n/2 on the last axis are the conjugate mirror, bit for bit
    upper = (Ellipsis, slice(grid.n // 2 + 1, None))
    for f in cur.fields():
        assert np.array_equal(f.coeffs[upper], np.conj(f.coeffs[grid.mirror_indices()])[upper])


def test_imex_rejects_density_violation(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=1e-2)
    st.a.coeffs[0] = 1.2
    with pytest.raises(DensityPositivityError):
        imex_step(st, spec, 1e-3)


def test_imex_aborts_on_nonfinite(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=1e-2)
    st.theta.coeffs[3] = np.inf
    with pytest.raises(NumericalBlowupError):
        imex_step(st, spec, 1e-3)


def test_imex_overflowing_source_is_numerical_failure(rng):
    grid = Grid(d=3, n=8)
    spec = ModelSpec(kind="nsc", d=3, eps=0.5)
    st = zero_state(grid)
    st = State(a=st.a, v=tuple(random_field(grid, rng, amplitude=1e200) for _ in range(3)), theta=st.theta, q=st.q)
    with pytest.raises(NumericalBlowupError, match="source"):
        imex_step(st, spec, 1e-3)


def test_imex_nonfinite_midpoint_is_numerical_failure(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=1e-2)
    shape = (4,) + grid1d.shape
    with pytest.raises(NumericalBlowupError, match="midpoint"):
        imex_step(st, spec, 1e-3, forcing=lambda t: np.full(shape, np.inf if t == st.time else 0.0))


def test_imex_kind_state_mismatch(grid2d, nsc2):
    with pytest.raises(ValueError):
        imex_step(zero_state(grid2d, with_flux=False), nsc2, 1e-3)
    with pytest.raises(ValueError):
        imex_step(zero_state(grid2d), nsc2.to_nsf(), 1e-3)


def test_imex_threshold_mismatch(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=1e-3)
    th = make_thresholds(2, 1, 0.25)
    with pytest.raises(ValueError, match="relaxation time"):
        imex_step(st, spec, 1e-3, th=th)


def test_default_dt_scales(grid1d, rng):
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    st = rand_state(grid1d, rng, amp=1e-3)
    dt = default_dt(st, spec)
    dx = grid1d.dx
    assert 0 < dt <= 0.25 * dx**2 / 1.0 + 1e-15
