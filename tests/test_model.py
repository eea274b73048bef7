from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from nsclab.evolve import mode_matrices
from nsclab.model import (
    ModelSpec,
    PhysParams,
    SystemKind,
    build_spec,
    eigenvalues,
    kalman_rank,
    reduced_symbol,
    symbol,
)
from nsclab.model import _first_order_transport
from nsclab.spectral import Grid

from oracles import (
    companion_roots,
    first_order_transport_reference,
    solenoidal_eigenvalues,
    spectral_distance,
    toy_damped_roots,
    toy_diffusive_roots,
)


def test_build_spec_unit_example():
    # rho=1, T=1, Cv=1, mu=1/2, lam=0, kappa=1, pi(rho)=rho
    p = PhysParams(rho_bar=1, T_bar=1, C_v=1, mu=0.5, lam=0.0, kappa=1, eps=0.1, pi_val=1, pi_prime=1)
    spec = build_spec(p, "nsc", 3)
    assert spec.alpha == pytest.approx(1.0)
    assert spec.beta == pytest.approx(1.0)
    assert spec.gamma == pytest.approx(1.0)
    assert spec.kappa == 1.0


def test_build_spec_general_coefficients():
    p = PhysParams(rho_bar=2.0, T_bar=3.0, C_v=1.5, mu=0.4, lam=0.2, kappa=0.7, eps=0.05, pi_val=2.0, pi_prime=0.5)
    spec = build_spec(p, "nsc", 2)
    chi0 = (p.T_bar * p.pi_prime) ** -0.5
    assert spec.alpha == pytest.approx((p.nu / p.rho_bar) * chi0**2)
    assert spec.beta == pytest.approx(chi0**2 / (p.rho_bar * p.C_v))
    assert spec.gamma == pytest.approx((chi0 / p.rho_bar) * np.sqrt(p.T_bar / p.C_v) * p.pi_val)


def test_nsf_spec_is_relaxation_free_twin():
    p = PhysParams(eps=0.0)
    nsf = build_spec(p, "nsf", 3)
    nsc = build_spec(PhysParams(eps=0.1), "nsc", 3)
    for name in ("alpha", "beta", "gamma", "kappa", "visc_mu", "visc_lam"):
        assert getattr(nsf, name) == getattr(nsc, name)
    assert nsf.eps == 0.0
    assert nsf.n_components == nsc.n_components - 3


def test_build_spec_rejects_nonpositive():
    with pytest.raises(ValueError, match="mu"):
        PhysParams(mu=0.0)
    with pytest.raises(ValueError, match="kappa"):
        PhysParams(kappa=-1.0)
    with pytest.raises(ValueError, match="nu"):
        PhysParams(mu=0.5, lam=-2.0)


def test_toy_damped_symbol_at_zero():
    spec = ModelSpec(kind="toy-damped", d=1, eps=0.5)
    m = symbol(spec, 0.0)
    assert np.allclose(m.entries, [[0.0, 0.0], [0.0, -4.0]])
    assert np.allclose(sorted(eigenvalues(m).real), [-4.0, 0.0])


def test_toy_damped_symbol_and_roots():
    spec = ModelSpec(kind="toy-damped", d=1, eps=1.0)
    m = symbol(spec, 1.0)
    assert np.allclose(m.entries, [[0.0, -1.0j], [-1.0j, -1.0]])
    expected = toy_damped_roots(1.0, 1.0, 1.0, 1.0)
    assert spectral_distance(eigenvalues(m), expected) < 1e-12


def test_toy_diffusive_symbol_and_roots():
    spec = ModelSpec(kind="toy-diffusive", d=1, eps=1.0)
    m = symbol(spec, 1.0)
    assert np.allclose(m.entries, [[0.0, -1.0j], [-1.0j, -1.0]])
    expected = toy_diffusive_roots(1.0)
    assert spectral_distance(eigenvalues(m), expected) < 1e-12


def test_cattaneo_wave_second_sound_speed():
    # the damped thermal wave: in the wave regime the pair's phase speed
    # approaches sqrt(kappa)/eps
    eps, kappa = 0.05, 2.0
    spec = ModelSpec(kind="toy-damped", d=1, eps=eps, kappa=kappa)
    xi = 1e4
    eigs = eigenvalues(symbol(spec, xi))
    speed = abs(eigs[0].imag) / xi
    assert speed == pytest.approx(np.sqrt(kappa) / eps, rel=1e-4)
    assert eigs[0].real == pytest.approx(-spec.alpha / (2 * eps**2), rel=1e-12)


def test_toys_require_scalar_wavevector():
    spec = ModelSpec(kind="toy-damped", d=1, eps=0.5)
    with pytest.raises(ValueError, match="scalar"):
        symbol(spec, np.array([1.0, 2.0]))


def test_slow_mode_tracks_heat_rate():
    spec = ModelSpec(kind="toy-damped", d=1, eps=1.0)
    eigs = eigenvalues(symbol(spec, 0.1))
    assert abs(eigs[0].real / (-0.01) - 1.0) < 0.02
    assert abs(eigs[0].imag) < 1e-12 and abs(eigs[1].imag) < 1e-12  # two real roots


def test_fast_pair_tracks_half_damping():
    spec = ModelSpec(kind="toy-damped", d=1, eps=0.1)
    eigs = eigenvalues(symbol(spec, 100.0))
    assert abs(eigs[0].imag) > 0  # complex pair
    assert abs(eigs[0].real / (-50.0) - 1.0) < 0.01


def test_diagonal_matrix_eigenvalues():
    from nsclab.model import SymbolMatrix

    m = SymbolMatrix(np.diag([-1.0, -4.0]).astype(complex))
    assert np.allclose(eigenvalues(m), [-1.0, -4.0])


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("r", [1e-4, 3.16e-3, 0.1, 1.0])
def test_reduced_eigenvalues_multiprecision(eps, r):
    # stiff NSC blocks: |M| ~ 1/eps^2 while the slow eigenvalue is ~ r^2
    m = reduced_symbol(ModelSpec(kind="nsc", d=3, eps=eps), r)
    with mpmath.workdps(50):
        ref = mpmath.eig(mpmath.matrix(m.entries.real.tolist()), left=False, right=False)
        ref = np.array([complex(x) for x in ref])
    got = eigenvalues(m)
    assert got.size == ref.size
    for lam in ref:
        assert np.min(np.abs(got - lam)) <= 1e-9 * abs(lam)


def test_charpoly_agrees_with_dense_eigensolver(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        from nsclab.model import SymbolMatrix

        m = SymbolMatrix(a)
        ref = np.linalg.eigvals(a)
        worst = max(worst, spectral_distance(eigenvalues(m), ref) / np.max(np.abs(ref)))
    assert worst < 1e-10


def test_reduced_matches_full_spectrum(nsc3, rng):
    worst = 0.0
    for _ in range(50):
        xi = rng.standard_normal(3)
        r = float(np.linalg.norm(xi))
        full = eigenvalues(symbol(nsc3, xi))
        red = np.concatenate(
            [eigenvalues(reduced_symbol(nsc3, r)), solenoidal_eigenvalues(nsc3, r)]
        )
        worst = max(worst, spectral_distance(full, red))
    assert worst <= 1e-10


def test_reduced_at_zero_radius(nsc3):
    eigs = eigenvalues(reduced_symbol(nsc3, 0.0))
    expected = np.array([0.0, 0.0, 0.0, -nsc3.alpha / nsc3.eps**2])
    assert spectral_distance(eigs, expected) < 1e-12


def test_nsf_cubic_against_companion_oracle():
    spec = ModelSpec(kind="nsf", d=3, eps=0.0)
    m = reduced_symbol(spec, 1.0)
    # char poly of [[0,-1,0],[1,-1,1],[0,-1,-1]]: lambda^3 + c2 l^2 + c1 l + c0
    a = m.entries.real
    c2 = -np.trace(a)
    c1 = 0.5 * (np.trace(a) ** 2 - np.trace(a @ a))
    c0 = -np.linalg.det(a)
    expected = companion_roots([1.0, c2, c1, c0])
    assert spectral_distance(eigenvalues(m), expected) < 1e-10


def test_spectral_stability_sweep():
    rs = np.logspace(-3, 3, 200)
    for eps in (0.1, 0.03, 0.01):
        spec = ModelSpec(kind="nsc", d=3, eps=eps)
        for r in rs:
            eigs = eigenvalues(reduced_symbol(spec, r))
            assert eigs[0].real < 0.0  # strict for xi != 0
        assert eigenvalues(reduced_symbol(spec, 0.0))[0].real <= 0.0


def test_hermitian_conjugacy(nsc3, rng):
    for _ in range(20):
        xi = rng.standard_normal(3)
        plus = eigenvalues(symbol(nsc3, xi))
        minus = eigenvalues(symbol(nsc3, -xi))
        assert spectral_distance(minus, np.conj(plus)) < 1e-10


def test_regime_asymptotics_toy():
    # slow eigenvalue over the heat rate -> 1 as eps|xi| -> 0
    spec = ModelSpec(kind="toy-damped", d=1, eps=1e-2)
    eigs = eigenvalues(symbol(spec, 1.0))
    assert abs(eigs[0].real / (-1.0) - 1.0) < 1e-3
    # fast-pair real part over -alpha/(2 eps^2) -> 1 at eps|xi| = 100
    spec = ModelSpec(kind="toy-damped", d=1, eps=1.0)
    eigs = eigenvalues(symbol(spec, 100.0))
    assert abs(eigs[0].real / (-0.5) - 1.0) < 0.01


def test_single_regime_transition_per_eps():
    for eps in (0.03, 0.1, 0.3):
        spec = ModelSpec(kind="toy-damped", d=1, eps=eps)
        flags = []
        for r in np.logspace(-3, 4, 300):
            eigs = eigenvalues(symbol(spec, r))
            flags.append(bool(abs(eigs[0].imag) > 1e-12))
        transitions = sum(1 for i in range(1, len(flags)) if flags[i] != flags[i - 1])
        assert transitions == 1


def test_nsc_spectrum_converges_to_nsf(rng):
    xi = np.array([1.2, -0.3, 0.5])
    nsf_eigs = eigenvalues(symbol(ModelSpec(kind="nsf", d=3, eps=0.0), xi))
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        spec = ModelSpec(kind="nsc", d=3, eps=eps)
        eigs = eigenvalues(symbol(spec, xi))
        slow = np.array(sorted(eigs, key=lambda z: abs(z.real))[: len(nsf_eigs)])
        dists.append(spectral_distance(slow, nsf_eigs))
    assert dists[0] > dists[1] > dists[2]
    # O(eps^2): each tenfold eps drop shrinks the gap ~100x
    assert dists[1] / dists[0] < 2e-2
    assert dists[2] / dists[1] < 2e-2


def test_kalman_full_rank_random_directions(nsc3, rng):
    for _ in range(20):
        w = rng.standard_normal(3)
        rep = kalman_rank(nsc3, w / np.linalg.norm(w))
        assert rep.full and rep.rank == nsc3.n_components


def test_kalman_full_rank_on_axis_and_rational_direction(nsc3):
    rep = kalman_rank(nsc3, np.array([1.0, 0.0, 0.0]))
    assert rep.full
    rep = kalman_rank(nsc3, np.array([3.0, 4.0, 0.0]) / 5.0)
    assert rep.full


def test_kalman_kappa_zero_fails():
    spec = ModelSpec(kind="nsc", d=3, eps=0.1, kappa=0.0)
    rep = kalman_rank(spec, np.array([1.0, 0.0, 0.0]))
    assert not rep.full
    assert rep.rank == spec.n_components - 1
    assert rep.witness_direction is not None
    # the hidden direction combines density and temperature: gamma*a = theta
    w = rep.witness_direction
    assert abs(w[0] / w[4] + spec.gamma) < 1e-8  # a vs theta entries, d=3


def test_kalman_no_dissipation_rank_zero():
    spec = ModelSpec(kind="nsc", d=3, eps=0.1, alpha=0.0, visc_mu=0.0, visc_lam=0.0)
    rep = kalman_rank(spec, np.array([1.0, 0.0, 0.0]))
    assert rep.rank == 0 and not rep.full


def test_kalman_nsf_full():
    spec = ModelSpec(kind="nsf", d=3, eps=0.0)
    assert kalman_rank(spec, np.array([0.0, 1.0, 0.0])).full


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="nsc", d=3, eps=0.0)
    with pytest.raises(ValueError):
        ModelSpec(kind="nsc", d=5, eps=0.1)
    with pytest.raises(ValueError):
        ModelSpec(kind="nsc", d=3, eps=0.1, beta=0.0)
    nsf = ModelSpec(kind="nsf", d=2, eps=123.0)
    assert nsf.eps == 0.0  # NSF ignores the relaxation time


def test_symbol_dimension_mismatch(nsc3):
    with pytest.raises(ValueError):
        symbol(nsc3, np.array([1.0, 2.0]))


# ------------------------------------------- one generator assembly (hypothesis)

coefficient = hst.floats(0.1, 10.0)


@hst.composite
def full_specs(draw):
    """NSC/NSF specs over d = 1, 2, 3 with random coefficients, nu = 0 included."""
    kind = draw(hst.sampled_from(["nsc", "nsf"]))
    visc = {"visc_mu": 0.0, "visc_lam": 0.0} if draw(hst.booleans()) else {
        "visc_mu": draw(coefficient), "visc_lam": draw(hst.floats(0.0, 5.0))
    }
    return ModelSpec(
        kind=kind,
        d=draw(hst.sampled_from([1, 2, 3])),
        alpha=draw(coefficient),
        beta=draw(coefficient),
        gamma=draw(coefficient),
        kappa=draw(coefficient),
        eps=10 ** draw(hst.floats(-3.0, 0.0)) if kind == "nsc" else 0.0,
        **visc,
    )


directions = hst.lists(hst.floats(-1.0, 1.0), min_size=3, max_size=3)


def unit_direction(w, d):
    """w[:d] normalized, or e_1 when it is too short to have a direction."""
    w = np.asarray(w[:d], dtype=float)
    norm = np.linalg.norm(w)
    return w / norm if norm > 1e-2 else np.eye(d)[0]


@settings(max_examples=30, deadline=None)
@given(full_specs(), hst.floats(0.5, 20.0))
def test_mode_matrices_equal_symbol_bitwise(spec, L):
    grid = Grid(d=spec.d, n=8, L=L)
    mats = mode_matrices(spec, grid)
    xi = np.stack([x.ravel() for x in grid.wavevectors()], axis=1)
    for x, m in zip(xi, mats):
        assert np.array_equal(symbol(spec, x).entries, m)


@settings(max_examples=60, deadline=None)
@given(full_specs(), directions)
def test_transport_matches_explicit_assembly(spec, w):
    omega = unit_direction(w, spec.d)
    got = _first_order_transport(spec, omega)
    assert got.dtype == float
    np.testing.assert_array_max_ulp(got, first_order_transport_reference(spec, omega), maxulp=1)


@pytest.mark.parametrize("kind", ["toy-diffusive", "toy-damped"])
def test_toy_transport_matches_explicit_assembly(kind):
    spec = ModelSpec(kind=kind, d=1, eps=0.3, kappa=0.7)
    omega = np.array([1.0])
    np.testing.assert_array_max_ulp(
        _first_order_transport(spec, omega), first_order_transport_reference(spec, omega), maxulp=1
    )


inviscid = {"visc_mu": 0.0, "visc_lam": 0.0}


@settings(max_examples=40, deadline=None)
@given(full_specs(), directions, hst.integers(0, 2**32 - 1), hst.booleans())
@example(ModelSpec(kind="nsc", d=3, eps=0.1, **inviscid), [0.6, 0.8, 0.0], 0, False)
@example(ModelSpec(kind="nsc", d=3, eps=0.1, visc_mu=0.0, visc_lam=1.0), [0.6, 0.8, 0.0], 1, False)
def test_kalman_rank_is_rotation_invariant(spec, w, seed, no_heat_coupling):
    if no_heat_coupling and spec.kind is SystemKind.NSC:
        spec = replace(spec, kappa=0.0)
    omega = unit_direction(w, spec.d)
    rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((spec.d, spec.d)))
    assert kalman_rank(spec, rot @ omega).rank == kalman_rank(spec, omega).rank


@hst.composite
def rank_specs(draw):
    """NSC/NSF specs with kappa > 0 and eps in [0.1, 1]: full, bulk-only
    (mu = 0 < lam) or no viscosity, and NSC with or without damping."""
    kind = draw(hst.sampled_from(["nsc", "nsf"]))
    visc = draw(hst.sampled_from(["full", "bulk", "none"]))
    lam = {"full": hst.floats(0.0, 5.0), "bulk": coefficient, "none": hst.just(0.0)}[visc]
    return ModelSpec(
        kind=kind,
        d=draw(hst.sampled_from([1, 2, 3])),
        alpha=0.0 if kind == "nsc" and draw(hst.booleans()) else draw(coefficient),
        beta=draw(coefficient),
        gamma=draw(coefficient),
        kappa=draw(coefficient),
        eps=draw(hst.floats(0.1, 1.0)) if kind == "nsc" else 0.0,
        visc_mu=draw(coefficient) if visc == "full" else 0.0,
        visc_lam=draw(lam),
    )


@settings(max_examples=100, deadline=None)
@given(rank_specs(), directions)
@example(ModelSpec(kind="nsc", d=3, eps=0.1, visc_mu=0.0, visc_lam=1.0), [0.0, 0.0, 1.0])
@example(ModelSpec(kind="nsc", d=2, eps=0.1, **inviscid), [0.6, 0.8, 0.0])
def test_kalman_rank_counts_the_damped_modes(spec, w):
    # every generator eigenvalue off the imaginary axis is one rank
    omega = unit_direction(w, spec.d)
    undamped = int(np.sum(np.abs(eigenvalues(symbol(spec, omega)).real) < 1e-9))
    assert kalman_rank(spec, omega).rank == spec.n_components - undamped


def closed_form_rank(spec):
    """(d - 1) transverse velocities hide when mu = 0, (d - 1) transverse
    fluxes when alpha = 0, and the four longitudinal unknowns as well when
    nothing but the heat coupling is left (nu = alpha = 0)."""
    d, mu0, alpha0 = spec.d, spec.visc_mu == 0, spec.alpha == 0
    if spec.kind is SystemKind.NSF:
        return d + 2 - mu0 * (d - 1)
    return 2 * d + 2 - (mu0 + alpha0) * (d - 1) - 4 * (spec.nu == 0 and alpha0)


@pytest.mark.parametrize("kind, eps", [("nsc", 1e-2), ("nsc", 1e-3), ("nsc", 1e-4), ("nsf", 0.0)])
def test_kalman_rank_stiff_closed_form(kind, eps, rng):
    for d in (1, 2, 3):
        dirs = [np.eye(d)[0], np.array([0.6, 0.8, 0.0])[:d], rng.standard_normal(d)]
        for mu, lam in ((0.5, 0.0), (0.0, 1.0), (0.0, 0.0)):
            for alpha in (0.0, 1.0) if kind == "nsc" else (1.0,):
                spec = ModelSpec(kind=kind, d=d, alpha=alpha, kappa=0.8, eps=eps, visc_mu=mu, visc_lam=lam)
                for w in dirs:
                    assert kalman_rank(spec, w / np.linalg.norm(w)).rank == closed_form_rank(spec), (spec, w)
