import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from nsclab import evolve, studies
from nsclab.besov import _grid_labels, make_thresholds
from nsclab.evolve import linear_trajectory, mode_matrices, sharp_low_profile
from nsclab.model import ModelSpec
from nsclab.spectral import Grid, SpectralField, State, random_field, zero_state
from nsclab.studies import (
    LayerResolutionError,
    RelaxReport,
    decay_fit,
    error_functional,
    fit_loglog,
    graded_times,
    initial_layer,
    layer_scaling,
    lyapunov_ode_compare,
    random_state,
    relax_sweep,
    sampled_linear_trajectory,
    scaled_flux_state,
    slow_projection,
    theory_decay_exponent,
    well_prepared_flux,
)
from oracles import (
    error_functional_reference,
    initial_layer_series_reference,
    nsf_zero_state,
    relax_sweep_reference,
    sampled_linear_trajectory_reference,
    slow_projection_reference,
)


def relaxing(d: int) -> ModelSpec:
    """The relaxing system at d with default coefficients; relax_sweep
    replaces its eps."""
    return ModelSpec(kind="nsc", d=d)


def test_theory_exponent_hand_values():
    cases = [
        ((3, 2, 0.0, 1.5), -0.75),
        ((3, 2, 1.0, 1.5), -1.25),
        ((3, 4, 0.0, 1.5), -1.125),
        ((2, 2, 0.5, 1.0), -0.75),
        ((3, 2, 0.0, 0.5), -0.25),
    ]
    for args, expected in cases:
        assert theory_decay_exponent(*args) == pytest.approx(expected, abs=1e-14)


def test_fit_loglog_recovers_power():
    ts = np.logspace(0, 2, 30)
    slope, _, r2 = fit_loglog(ts, 3.0 * ts**-1.25)
    assert slope == pytest.approx(-1.25, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_range_validation():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    with pytest.raises(ValueError, match="sigma1"):
        decay_fit(spec, sharp_low_profile(2.0, 3), 2, 0.0)
    with pytest.raises(ValueError, match="sigma ="):
        decay_fit(spec, prof, 2, -2.0)


def test_radial_studies_refuse_a_profile_built_for_another_dimension():
    # the d = 2 amplitude |xi|^(sigma1 - 1) under a d = 3 model fitted -1.011
    # against the theory's -0.75, and nothing was refused
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 2)
    match = r"^data profile built for d = 2 does not match the model's d = 3"
    with pytest.raises(ValueError, match=match):
        decay_fit(spec, prof, 2.0, 0.0, nodes=512)
    with pytest.raises(ValueError, match=match):
        lyapunov_ode_compare(spec, prof, make_thresholds(8, 1, spec.eps), nodes=512)


def _zero_profile(d):
    return evolve.RadialDataProfile(amplitude=lambda r: np.zeros((len(r), 4)), sigma1=1.5, d=d)


def test_decay_fit_refuses_zero_data():
    # zero data stay zero: the fit took log 0 (a RuntimeWarning) and fitted nothing
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^data profile is zero on every radial node"):
            decay_fit(spec, _zero_profile(3), 2.0, 0.0, nodes=512)


def test_decay_fit_sample_floor():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    with pytest.raises(ValueError, match="20 samples"):
        decay_fit(spec, prof, 2, 0.0, t_grid=np.logspace(1, 2, 8))


def test_decay_fit_range_note_outside_window():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    rep = decay_fit(spec, prof, 2, 1.0, t_grid=np.logspace(1, 2.5, 20), nodes=1024)
    assert "exceeds the stated window" in rep.density_velocity.range_note
    rep0 = decay_fit(spec, prof, 2, 0.0, t_grid=np.logspace(1, 2.5, 20), nodes=1024)
    assert rep0.density_velocity.range_note == ""


def test_decay_fit_smoke_accuracy():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    rep = decay_fit(spec, prof, 2, 0.0, t_grid=np.logspace(1, 3, 20), nodes=2048)
    fit = rep.density_velocity
    assert fit.r_squared >= 0.98
    assert fit.relative_error < 0.05
    assert rep.temperature_flux is not None


def test_graded_times_cover_interval():
    segs = graded_times(0.05, 1.0, 3.0)
    assert segs[0][0] == 0.0
    assert segs[-1][-1] == pytest.approx(3.0)
    for a, b in zip(segs, segs[1:]):
        assert a[-1] == pytest.approx(b[0])


def test_sampled_trajectory_matches_uniform(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = State(
        a=random_field(grid, rng, 1e-2),
        v=(random_field(grid, rng, 1e-2), random_field(grid, rng, 1e-2)),
        theta=random_field(grid, rng, 1e-2),
        q=(random_field(grid, rng, 1e-2), random_field(grid, rng, 1e-2)),
    )
    segs = [np.linspace(0.0, 0.2, 5), np.linspace(0.2, 0.6, 3)]
    traj = list(sampled_linear_trajectory(st, spec, segs))
    times = [round(s.time, 12) for s in traj]
    assert times == [0.0, 0.05, 0.1, 0.15, 0.2, 0.4, 0.6]
    uniform = linear_trajectory(st, spec, 0.05, 4)
    assert np.allclose(traj[4].u, uniform[4].u, atol=1e-12)


def test_scaled_flux_state_divides_by_eps(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.02)
    base = State(
        a=random_field(grid, rng, 1e-2),
        v=(random_field(grid, rng, 1e-2), random_field(grid, rng, 1e-2)),
        theta=random_field(grid, rng, 1e-2),
        q=(random_field(grid, rng, 1e-2), random_field(grid, rng, 1e-2)),
    )
    st = scaled_flux_state(base, spec)
    assert np.allclose(st.q[0].coeffs, base.q[0].coeffs / 0.02)
    with pytest.raises(ValueError):
        scaled_flux_state(State(a=base.a, v=base.v, theta=base.theta, q=None), spec)


def test_error_functional_requires_paired_times(rng):
    # mismatched times or lengths, whether given as lists or as generators
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.05)
    th = make_thresholds(8, 1, spec.eps)
    st, nsf = zero_state(grid), nsf_zero_state(grid)
    nsc_at = lambda ts: (State.from_stacked(grid, st.u, t, True) for t in ts)
    nsf_at = lambda ts: (State.from_stacked(grid, nsf.u, t, False) for t in ts)
    for a, b in (((0.0, 0.1), (0.0, 0.2)), ((0.0, 0.1, 0.2), (0.0, 0.1)), ((0.0, 0.1), (0.0, 0.1, 0.2))):
        with pytest.raises(ValueError, match="snapshot times"):
            error_functional(nsc_at(a), nsf_at(b), spec, th, 2)
        with pytest.raises(ValueError, match="snapshot times"):
            error_functional(list(nsc_at(a)), list(nsf_at(b)), spec, th, 2)


def test_error_functional_requires_increasing_times():
    # paired trajectories that share their times but step back in time
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.05)
    th = make_thresholds(8, 1, spec.eps)
    st, nsf = zero_state(grid), nsf_zero_state(grid)
    times = (0.0, 0.2, 0.1)
    nsc_traj = [State.from_stacked(grid, st.u, t, True) for t in times]
    nsf_traj = [State.from_stacked(grid, nsf.u, t, False) for t in times]
    with pytest.raises(ValueError, match="strictly increase"):
        error_functional(nsc_traj, nsf_traj, spec, th, 2)


def _assert_reports_equal(rep, ref):
    for f in dataclasses.fields(RelaxReport):
        assert getattr(rep, f.name) == getattr(ref, f.name), f.name


def _assert_reports_close(rep, ref, rtol):
    # eps_values, skipped and label exactly; every float to rtol relative
    assert (rep.eps_values, rep.skipped, rep.label) == (ref.eps_values, ref.skipped, ref.label)
    assert (rep.well_prepared_values is None) == (ref.well_prepared_values is None)
    assert [row.keys() for row in rep.breakdown] == [row.keys() for row in ref.breakdown]
    pairs = [(rep.slope_fitted, ref.slope_fitted, "slope_fitted")]
    pairs += [(x, y, "xtilde_values") for x, y in zip(rep.xtilde_values, ref.xtilde_values, strict=True)]
    pairs += [(x, y, "well_prepared_values") for x, y in zip(rep.well_prepared_values or [], ref.well_prepared_values or [], strict=True)]
    pairs += [(a[key], b[key], key) for a, b in zip(rep.breakdown, ref.breakdown) for key in a]
    for x, y, name in pairs:
        assert abs(x - y) <= rtol * abs(y), (name, x, y)


@settings(max_examples=8, deadline=None)
@given(
    d=hst.sampled_from([1, 2, 3]),
    p=hst.sampled_from([2.0, 3.0]),
    seed=hst.integers(0, 2**32 - 1),
    well_prepared=hst.booleans(),
)
def test_streamed_sweep_equals_list_oracle(d, p, seed, well_prepared):
    # the streamed functional and sweep are bit-identical to the list-based
    # ones, whether the functional is fed lists or generators
    grid = Grid(d=d, n={1: 16, 2: 8, 3: 8}[d])
    base = random_state(grid, np.random.default_rng(seed), 1e-2, 3.0)
    eps_list = [1e-1, 3e-2]
    rep = relax_sweep(base, relaxing(d), eps_list, T=1.0, p=p, compare_well_prepared=well_prepared)
    ref = relax_sweep_reference(base, relaxing(d), eps_list, T=1.0, p=p, compare_well_prepared=well_prepared)
    if p == 2:  # the linear p = 2 sweep is the exact Gram evaluation, not the stepped one
        _assert_reports_close(rep, ref, 1e-10)
    else:
        _assert_reports_equal(rep, ref)

    spec = ModelSpec(kind="nsc", d=d, eps=eps_list[0])
    th = make_thresholds(8, 1.0, spec.eps)
    segs = graded_times(spec.eps, spec.alpha, 1.0)
    ill = scaled_flux_state(base, spec)
    nsf0 = State(a=base.a, v=base.v, theta=base.theta, q=None)
    nsc = sampled_linear_trajectory_reference(ill, spec, segs)
    nsf = sampled_linear_trajectory_reference(nsf0, spec.to_nsf(), segs)
    ref = error_functional_reference(nsc, nsf, spec, th, p)
    assert error_functional(nsc, nsf, spec, th, p) == ref
    streamed = (sampled_linear_trajectory(ill, spec, segs), sampled_linear_trajectory(nsf0, spec.to_nsf(), segs))
    assert error_functional(*streamed, spec, th, p) == ref


@pytest.mark.parametrize("K, transforms", [(8, 4 + 1 + 1), (2, 4 + 3 + 3)])
def test_stepped_functional_transforms_only_picked_bands(rng, monkeypatch, K, transforms):
    # d = 3, n = 16 has bands 0..3.  At p = 3 the damped mode Q is summed
    # over all four bands and a and (v, theta) over medhigh, j >= J0; the
    # low group stays at p = 2 (no transform).  The functional still equals
    # the per-piece besov_seminorm oracle exactly.
    grid = Grid(d=3, n=16)
    spec = ModelSpec(kind="nsc", d=3, eps=0.1)
    th = make_thresholds(K, 1.0, spec.eps)
    base = random_state(grid, rng, 1e-2, 3.0)
    segs = [np.linspace(0.0, 0.01, 3)]
    nsc = sampled_linear_trajectory_reference(scaled_flux_state(base, spec), spec, segs)
    nsf = sampled_linear_trajectory_reference(State(a=base.a, v=base.v, theta=base.theta, q=None), spec.to_nsf(), segs)
    ref = error_functional_reference(nsc, nsf, spec, th, 3.0)
    calls = []
    ifftn = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: calls.append(1) or ifftn(*a, **k))
    assert error_functional(nsc, nsf, spec, th, 3.0) == ref
    assert len(calls) == len(nsc) * transforms


def test_streamed_nonlinear_sweep_equals_list_oracle(rng):
    grid = Grid(d=1, n=16)
    base = random_state(grid, rng, 5e-3, 3.0)
    args = (base, relaxing(1), [1e-1, 3e-2])
    kw = dict(T=0.5, p=3.0, compare_well_prepared=True, nonlinear=True)
    _assert_reports_equal(relax_sweep(*args, **kw), relax_sweep_reference(*args, **kw))


def _hermitian_state(grid, rng):
    # real fields whose Nyquist-plane and mean coefficients are nonzero
    def mk():
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        return SpectralField(grid, raw / (1.0 + grid.wavenumber_magnitude()) ** 2).hermitized()

    d = grid.d
    return State(a=mk(), v=tuple(mk() for _ in range(d)), theta=mk(), q=tuple(mk() for _ in range(d)))


def _clear_kernel_caches():
    evolve._torus_kernel.cache_clear()


@settings(max_examples=12, deadline=None)
@given(
    dn=hst.sampled_from([(1, 8), (1, 16), (2, 8), (2, 16), (3, 8)]),
    seed=hst.integers(0, 2**32 - 1),
    well_prepared=hst.booleans(),
    all_expm=hst.booleans(),
)
def test_gram_sweep_matches_stepped_oracle(dn, seed, well_prepared, all_expm):
    # the Gram evaluation of the linear p = 2 sweep equals the stepped
    # list-based sweep to rounding, on data with Nyquist-plane content and
    # with every radius forced onto the expm fallback or none
    d, n = dn
    base = _hermitian_state(Grid(d=d, n=n), np.random.default_rng(seed))
    kw = dict(T=1.0, compare_well_prepared=well_prepared)
    with pytest.MonkeyPatch.context() as mp:
        if all_expm:
            mp.setattr(evolve, "_COND_MAX", 0.0)
        _clear_kernel_caches()
        try:
            rep = relax_sweep(base, relaxing(d), [1e-1, 3e-2], **kw)
            ref = relax_sweep_reference(base, relaxing(d), [1e-1, 3e-2], **kw)
            if all_expm:
                assert evolve._torus_kernel(ModelSpec(kind="nsc", d=d, eps=3e-2), base.grid)[0].fallback.size > 0
        finally:
            _clear_kernel_caches()
    _assert_reports_close(rep, ref, 1e-10)


def test_gram_sweep_fallback_keys_match_stepped_oracle(monkeypatch):
    # keys on an expm radius take PropagatorKernel.matrices; every other key
    # reads the projectors and never calls it
    base = _hermitian_state(Grid(d=2, n=8), np.random.default_rng(11))
    calls = []
    matrices = evolve.PropagatorKernel.matrices
    monkeypatch.setattr(evolve.PropagatorKernel, "matrices", lambda self, t: calls.append(1) or matrices(self, t))
    _clear_kernel_caches()
    try:
        relax_sweep(base, relaxing(2), [1e-1, 3e-2], T=1.0)
        assert calls == []
        monkeypatch.setattr(evolve, "_COND_MAX", 0.0)
        _clear_kernel_caches()
        rep = relax_sweep(base, relaxing(2), [1e-1, 3e-2], T=1.0)
        assert calls
        assert evolve._torus_kernel(ModelSpec(kind="nsc", d=2, eps=3e-2), base.grid)[0].fallback.size > 0
    finally:
        _clear_kernel_caches()
    monkeypatch.undo()
    _assert_reports_close(rep, relax_sweep_reference(base, relaxing(2), [1e-1, 3e-2], T=1.0), 1e-9)


def test_gram_sweep_small_eps_cancellation():
    # the relax3d sweep: well-prepared values are O(eps^2) differences of
    # O(1) states, the hardest case for rounding
    grid = Grid(d=3, n=16)
    base = random_state(grid, np.random.default_rng(1), 1e-2, 3.0)
    eps_list = [1e-1, 3e-2, 1e-2, 3e-3]
    rep = relax_sweep(base, relaxing(3), eps_list, T=4.0)
    _assert_reports_close(rep, relax_sweep_reference(base, relaxing(3), eps_list, T=4.0), 1e-9)


def test_linear_l2_sweep_steps_no_state(monkeypatch):
    def stepped(*args, **kwargs):
        raise AssertionError("the linear p = 2 sweep stepped a trajectory")

    monkeypatch.setattr(studies, "sampled_linear_trajectory", stepped)
    base = random_state(Grid(d=2, n=8), np.random.default_rng(3), 1e-2, 3.0)
    rep = relax_sweep(base, relaxing(2), [1e-1, 3e-2], T=1.0)
    assert len(rep.xtilde_values) == 2
    with pytest.raises(AssertionError, match="stepped"):
        relax_sweep(base, relaxing(2), [1e-1, 3e-2], T=1.0, p=3.0)


@pytest.mark.parametrize("L", [2 * np.pi, np.pi, 2 * np.pi / 3])
@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_radius_keys_share_one_band_label(d, n, L):
    grid = Grid(d=d, n=n, L=L)
    key, radius, weight, label = evolve._radius_keys(grid)
    assert np.array_equal(_grid_labels(grid).ravel(), label[key])
    assert np.array_equal(evolve._lattice_radii(grid)[1], radius[key])
    assert np.array_equal(grid.nyquist_mask().ravel(), weight[key] == 0.0)


@settings(max_examples=8, deadline=None)
@given(
    alpha=hst.floats(0.5, 2.0),
    beta=hst.floats(1.0, 2.0),
    gamma=hst.floats(0.5, 3.0),
    kappa=hst.floats(0.5, 1.0),
    viscosity=hst.sampled_from([(0.5, 0.0), (0.0, 1.0), (0.0, 0.0)]),  # viscous, bulk-only, inviscid
    seed=hst.integers(0, 2**32 - 1),
)
def test_relax_sweep_slope_across_admissible_coefficients(alpha, beta, gamma, kappa, viscosity, seed):
    # the relaxation rate stays linear across the model's coefficients.  On
    # the 48 corners of these ranges, over data seeds 0-3, slopes ran from
    # 0.9676 to 1.0484, and on 150 random interior draws from 0.970 to
    # 1.041: a margin of at least 0.05 inside [0.9, 1.1].  (beta down to
    # 0.3 or kappa up to 2 leaves it: 1.20 at beta = 0.3, kappa = 2,
    # inviscid.)
    visc_mu, visc_lam = viscosity
    spec = ModelSpec(kind="nsc", d=3, alpha=alpha, beta=beta, gamma=gamma, kappa=kappa, visc_mu=visc_mu, visc_lam=visc_lam)
    base = random_state(Grid(d=3, n=16), np.random.default_rng(seed), 1e-2, 3.0)
    rep = relax_sweep(base, spec, [1e-1, 3e-2, 1e-2, 3e-3], T=4.0)
    assert 0.9 <= rep.slope_fitted <= 1.1, rep.slope_fitted
    assert rep.monotone


def test_relax_sweep_memory_stays_at_a_few_states():
    # the list-based sweep holds about 750 states at once (three trajectories
    # of 251 samples); the streamed one holds a handful
    grid = Grid(d=3, n=16)
    base = random_state(grid, np.random.default_rng(5), 1e-2, 3.0)
    one_state = 8 * grid.n**3 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        relax_sweep(base, relaxing(3), [1e-1, 3e-2], T=4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * one_state, f"traced peak {peak / one_state:.1f} states"


def test_relax_sweep_small(rng):
    grid = Grid(d=2, n=16)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))
    rep = relax_sweep(base, relaxing(2), [3e-2, 1e-2, 3e-3], T=1.5, compare_well_prepared=True)
    assert rep.monotone
    assert 0.7 <= rep.slope_fitted <= 1.3
    assert all(w <= x for w, x in zip(rep.well_prepared_values, rep.xtilde_values))
    assert [row["eps"] for row in rep.breakdown] == rep.eps_values


def test_relax_sweep_nonlinear_experimental(rng):
    grid = Grid(d=1, n=32)
    mk = lambda: random_field(grid, rng, 5e-3, 3.0)
    base = State(a=mk(), v=(mk(),), theta=mk(), q=(mk(),))
    rep = relax_sweep(base, relaxing(1), [1e-1, 3e-2], T=0.5, compare_well_prepared=False, nonlinear=True)
    assert "experimental" in rep.label
    assert all(np.isfinite(x) and x > 0 for x in rep.xtilde_values)
    assert rep.monotone
    big = Grid(d=3, n=16)
    mk3 = lambda: random_field(big, rng, 5e-3, 3.0)
    base3 = State(a=mk3(), v=(mk3(), mk3(), mk3()), theta=mk3(), q=(mk3(), mk3(), mk3()))
    with pytest.raises(ValueError, match="nonlinear sweeps"):
        relax_sweep(base3, relaxing(3), [1e-1, 3e-2], nonlinear=True)


def test_relax_sweep_skips_invalid_eps(rng):
    grid = Grid(d=2, n=16)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))
    rep = relax_sweep(base, relaxing(2), [0.5, 3e-2, 1e-2], T=0.5, compare_well_prepared=False)
    assert [s["eps"] for s in rep.skipped] == [0.5]
    assert rep.eps_values == [3e-2, 1e-2]
    with pytest.raises(ValueError, match="two threshold-valid"):
        relax_sweep(base, relaxing(2), [0.5, 0.3], T=0.5)


@pytest.mark.parametrize("p", [5.0, 1.0, -1.0])
def test_relax_sweep_refuses_p_outside_2_4(rng, p):
    grid = Grid(d=2, n=8)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))
    with pytest.raises(ValueError, match=r"p must lie in \[2, 4\]"):
        relax_sweep(base, relaxing(2), [1e-1, 3e-2], T=0.5, p=p)



@pytest.mark.parametrize("coeffs", [{"kind": "nsf"}, {"kind": "toy-damped"}, {"kind": "nsc", "alpha": 0.0}, {"kind": "nsc", "kappa": 0.0}])
def test_relax_sweep_refuses_a_model_without_a_fourier_law_limit(rng, coeffs):
    # the sweep compares the relaxing system with its Fourier-law limit:
    # to_nsf needs kind nsc and kappa > 0, graded_times needs alpha > 0
    grid = Grid(d=2, n=8)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))
    with pytest.raises(ValueError, match="spec must be the relaxing system with a Fourier-law limit"):
        relax_sweep(base, ModelSpec(d=2, **coeffs), [1e-1, 3e-2], T=0.5)

def test_initial_layer_single_mode(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    st.q[0].coeffs[1, 0] = 1e-2
    st = State(a=st.a, v=st.v, theta=st.theta.hermitized(), q=(st.q[0].hermitized(), st.q[1]))
    rep = initial_layer(spec, st)
    assert rep.r_squared > 0.999
    assert rep.relative_error < 0.02
    assert rep.max_q_norm == pytest.approx(rep.initial_q_norm)  # pure collapse


@settings(max_examples=16, deadline=None)
@given(
    d=hst.sampled_from([1, 2, 3]),
    eps=hst.sampled_from([0.05, 0.02]),
    means=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
    data=hst.data(),
)
@example(d=3, eps=0.05, means=False, seed=0, data=None)  # the mean flux alone, on every run
def test_initial_layer_matches_stepped_oracle(d, eps, means, seed, data):
    # the series from the Gram factors over every key equals the stepped
    # lattice's at any mode, the zero mode and nonzero means in every
    # component included: the same t bits, |Q| to 1e-12 relative, and no
    # propagator built
    grid = Grid(d=d, n=8)  # eps |k| <= 0.26: the fit stays clean (r^2 >= 0.99)
    mode = (0,) * d if data is None else tuple(data.draw(hst.lists(hst.integers(-3, 3), min_size=d, max_size=d)))
    spec = ModelSpec(kind="nsc", d=d, eps=eps)
    st = zero_state(grid)
    st.theta.coeffs[mode] = 1e-3
    st.q[0].coeffs[mode] = 1e-2 / eps
    if means:
        st.u[(slice(None),) + (0,) * d] += 1e-3 * np.random.default_rng(seed).standard_normal(2 * d + 2)
    st = st.hermitized()
    times, q_norms = initial_layer_series_reference(st, spec)

    def built(*args):
        raise AssertionError("initial_layer built a LinearPropagator")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve.LinearPropagator, "__init__", built)
        rep = initial_layer(spec, st)
    assert np.array_equal(rep.times, times)
    assert np.all(np.abs(np.array(rep.q_norms) - q_norms) <= 1e-12 * q_norms)


def test_initial_layer_rejects_well_prepared(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    theta = st.theta.hermitized()
    st = State(a=st.a, v=st.v, theta=theta, q=well_prepared_flux(theta, spec))
    with pytest.raises(ValueError, match="well-prepared"):
        initial_layer(spec, st)


def test_initial_layer_resolution_error(rng):
    # a window tens of e-folds wide hits the quasi-static floor: bad fit
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    st.q[0].coeffs[1, 0] = 1e-2
    st = State(a=st.a, v=st.v, theta=st.theta.hermitized(), q=(st.q[0].hermitized(), st.q[1]))
    with pytest.raises(LayerResolutionError):
        initial_layer(spec, st, n_efolds=40.0, samples=60)


def test_initial_layer_sample_minimum(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.q[0].coeffs[1, 0] = 1e-2
    st = State(a=st.a, v=st.v, theta=st.theta, q=(st.q[0].hermitized(), st.q[1]))
    with pytest.raises(ValueError, match="50 samples"):
        initial_layer(spec, st, samples=20)


def test_layer_scaling_quarters_rate(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    st.q[0].coeffs[1, 0] = 1e-2
    st = State(a=st.a, v=st.v, theta=st.theta.hermitized(), q=(st.q[0].hermitized(), st.q[1]))
    rep = layer_scaling(spec, st, factor=2.0)
    assert rep.ratio == pytest.approx(4.0, rel=0.05)


def test_slow_projection_keeps_slow_content(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.05)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    st = State(a=st.a, v=st.v, theta=st.theta.hermitized(), q=st.q)
    proj = slow_projection(st, spec)
    assert proj.is_hermitian(1e-13)
    # the projection removes only the O(eps^2) fast component of theta data
    assert proj.theta.l2_norm() == pytest.approx(st.theta.l2_norm(), rel=1e-2)


@settings(max_examples=25, deadline=None)
@given(
    d=hst.integers(1, 3),
    log_eps=hst.floats(-3.0, -0.5),
    inviscid=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
)
# the per-mode reference's 8x8 eigenvector matrix is singular (cond 3.5e16)
# at |k| = sqrt(14) here, and its projection there is off by 22%
@example(d=3, log_eps=-2.4976429486848915, inviscid=True, seed=329)
# cond(V) = 1.0e7 at four modes: both sides are off by about 1e-10 there
@example(d=3, log_eps=-1.6804094782150123, inviscid=True, seed=0)
def test_slow_projection_matches_per_mode_reference(d, log_eps, inviscid, seed):
    grid = Grid(d=d, n={1: 32, 2: 16, 3: 8}[d])
    visc = {"visc_mu": 0.0, "visc_lam": 0.0} if inviscid else {}
    spec = ModelSpec(kind="nsc", d=d, eps=10.0**log_eps, **visc)
    rng = np.random.default_rng(seed)
    mk = lambda: random_field(grid, rng, 1.0, 1.0)
    st = State(a=mk(), v=tuple(mk() for _ in range(d)), theta=mk(), q=tuple(mk() for _ in range(d)))
    proj = slow_projection(st, spec)
    got = proj.u
    assert np.abs(slow_projection(proj, spec).u - got).max() <= 1e-13 * np.abs(got).max()
    lam, vecs = np.linalg.eig(mode_matrices(spec, grid))
    # an eigenvalue on the cut to rounding may fall on either side of it
    cut = 0.4 * spec.damping_rate
    assume(np.all(np.abs(lam.real + cut) > 1e-8 * cut))
    # compare where the reference's eigenbasis is trustworthy, at k and -k
    # (re-hermitization mixes the two)
    mirror = grid.mirror_indices()
    cond = np.linalg.cond(vecs).reshape(grid.shape)
    cond = np.maximum(cond, cond[mirror])
    ok, tight = cond < 1e8, cond <= 1e4
    ref = slow_projection_reference(st, spec).u
    err = np.abs(got - ref).max(axis=0)
    assert err[tight].max(initial=0.0) <= 1e-12 * np.abs(ref[:, ok]).max()
    # Both sides project through an eigendecomposition, V diag(s) V^-1 x.
    # Each step is backward stable, with an error of at most n eps |.| for
    # an n-term product (eps = 2^-52, n = nc the size of the per-mode
    # matrix), and cond(V) amplifies it, so each side is off by at most
    # n cond(V) eps |x| at a mode and the two differ by at most twice that.
    x = np.linalg.norm(st.u, axis=0)
    x = np.maximum(x, x[mirror])
    loose = ok & ~tight
    assert np.all(err[loose] <= 2 * spec.n_components * cond[loose] * 2.0**-52 * x[loose])


@pytest.mark.parametrize("d, n, eps, cond_max", [(1, 32, 0.05, 100.0), (2, 16, 0.05, 100.0), (3, 8, 0.05, 10.0), (3, 8, 0.05, 1.5)])
def test_slow_projection_reads_the_kernel_eigenbasis(monkeypatch, d, n, eps, cond_max):
    # slow_projection reuses the torus kernel's V and V^-1; the radii on the
    # kernel's expm fallback (V = I there) take their own eig, and the
    # projectors equal a fresh eig of every block bit for bit.  The first two
    # cases put only blocks with real eigenvalues on the fallback, where eig
    # of the fallback alone returns real V and the whole stack complex V.
    grid, spec = Grid(d=d, n=n), ModelSpec(kind="nsc", d=d, eps=eps)
    st = _hermitian_state(grid, np.random.default_rng(3))
    blocks, eig_sizes = [], []
    mode_blocks, eig = studies._mode_blocks, np.linalg.eig
    monkeypatch.setattr(studies, "_mode_blocks", lambda b, radius: blocks.append(b) or mode_blocks(b, radius))
    monkeypatch.setattr(evolve, "_COND_MAX", cond_max)
    _clear_kernel_caches()
    try:
        kernel = evolve._torus_kernel(spec, grid)[0]
        assert 0 < kernel.fallback.size < len(kernel.lam)
        monkeypatch.setattr(np.linalg, "eig", lambda a: eig_sizes.append(len(a)) or eig(a))
        got = slow_projection(st, spec).u
        monkeypatch.setattr(np.linalg, "eig", eig)
    finally:
        _clear_kernel_caches()
    assert eig_sizes == [kernel.fallback.size]
    lam, vecs = np.linalg.eig(kernel.mats)
    cut = 0.4 * spec.alpha / spec.eps**2
    assert np.array_equal(blocks[0], ((vecs * (lam.real >= -cut)[:, None, :]) @ np.linalg.inv(vecs)).real)
    ref = slow_projection_reference(st, spec).u
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_lyapunov_ode_compare_report():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    th = make_thresholds(8, 1, spec.eps)
    rep = lyapunov_ode_compare(
        spec, sharp_low_profile(1.5, 3), th,
        t_grid=np.logspace(0, 3, 25), nodes=1024,
    )
    assert rep.monotone
    assert rep.max_envelope_violation <= 0.0 + 1e-12
    assert rep.tail_slope_theory == pytest.approx(-1.0)
    assert abs(rep.tail_slope - rep.tail_slope_theory) / abs(rep.tail_slope_theory) < 0.1
    assert rep.c0_fitted > 0


@pytest.mark.parametrize("d, sigma1", [(3, -5.0), (3, -0.5), (1, 0.5), (2, -1.0)])
def test_lyapunov_ode_compare_refuses_sigma1_at_or_below_the_edge(d, sigma1):
    # at sigma1 <= 1 - d/2 the ODE exponent m = 2/(d/2 - 1 + sigma1) is not
    # positive; the study refused nothing there and fitted a rising envelope
    spec = ModelSpec(kind="nsc", d=d, eps=1e-2)
    with pytest.raises(ValueError, match=r"^sigma1 = .* must exceed 1 - d/2"):
        lyapunov_ode_compare(spec, sharp_low_profile(sigma1, d), make_thresholds(8, 1, spec.eps), nodes=512)


def test_lyapunov_ode_compare_reports_quadrature_underflow():
    # data at sigma1 = 1000 decay below the smallest float by t = 1000: the
    # study raises instead of fitting the log of 0, and warns of nothing
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError, match="underflow/overflow at t = 1000"):
            lyapunov_ode_compare(spec, sharp_low_profile(1000.0, 3), make_thresholds(8, 1, spec.eps), nodes=512)


def test_lyapunov_ode_compare_refuses_zero_data():
    # the c0 fit failed in numpy's "zero-size array to reduction operation minimum"
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    with pytest.raises(ValueError, match="^data profile is zero on every radial node"):
        lyapunov_ode_compare(spec, _zero_profile(3), make_thresholds(8, 1, spec.eps), nodes=512)


def test_relax_sweep_refuses_zero_base():
    # zero data make the error 0 at every eps, and its log-log slope NaN
    with pytest.raises(ValueError, match="^base data are identically zero"):
        relax_sweep(zero_state(Grid(d=2, n=8)), relaxing(2), [0.1, 0.05], T=0.5)


@pytest.mark.parametrize("r_max", [2e-4, 0.5, 1.0])
def test_radial_studies_refuse_nodes_that_end_inside_the_data(r_max):
    # the profile is nonzero up to r = 1: a flow cut below that drops data
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    with pytest.raises(ValueError, match="r_max must lie above the data's support"):
        decay_fit(spec, prof, 2, 0.0, r_max=r_max, nodes=512)
    with pytest.raises(ValueError, match="r_max must lie above the data's support"):
        lyapunov_ode_compare(spec, prof, make_thresholds(8, 1, spec.eps), r_max=r_max, nodes=512)
