import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from nsclab.besov import make_thresholds
from nsclab.evolve import linear_trajectory, mode_matrices, sharp_low_profile
from nsclab.model import ModelSpec
from nsclab.spectral import Grid, SpectralField, State, random_field, zero_state
from nsclab.studies import (
    LayerResolutionError,
    decay_fit,
    error_functional,
    fit_loglog,
    graded_times,
    initial_layer,
    layer_scaling,
    lyapunov_ode_compare,
    relax_sweep,
    sampled_linear_trajectory,
    scaled_flux_state,
    slow_projection,
    theory_decay_exponent,
    well_prepared_flux,
)
from oracles import slow_projection_reference


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
        decay_fit(spec, sharp_low_profile(2.0, 3), 3, 2, 0.0, 2.0)
    with pytest.raises(ValueError, match="sigma ="):
        decay_fit(spec, prof, 3, 2, -2.0, 1.5)
    with pytest.raises(ValueError, match="different sigma1"):
        decay_fit(spec, prof, 3, 2, 0.0, 1.0)


def test_decay_fit_sample_floor():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    with pytest.raises(ValueError, match="20 samples"):
        decay_fit(spec, prof, 3, 2, 0.0, 1.5, t_grid=np.logspace(1, 2, 8))


def test_decay_fit_range_note_outside_window():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    rep = decay_fit(spec, prof, 3, 2, 1.0, 1.5, t_grid=np.logspace(1, 2.5, 20), nodes=1024)
    assert "exceeds the stated window" in rep.density_velocity.range_note
    rep0 = decay_fit(spec, prof, 3, 2, 0.0, 1.5, t_grid=np.logspace(1, 2.5, 20), nodes=1024)
    assert rep0.density_velocity.range_note == ""


def test_decay_fit_smoke_accuracy():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    prof = sharp_low_profile(1.5, 3)
    rep = decay_fit(spec, prof, 3, 2, 0.0, 1.5, t_grid=np.logspace(1, 3, 20), nodes=2048)
    fit = rep.density_velocity
    assert fit.clean
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
    traj = sampled_linear_trajectory(st, spec, segs)
    times = [round(s.time, 12) for s in traj]
    assert times == [0.0, 0.05, 0.1, 0.15, 0.2, 0.4, 0.6]
    uniform = linear_trajectory(st, spec, 0.05, 4)
    assert np.allclose(traj[4].stacked(), uniform[4].stacked(), atol=1e-12)


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
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.05)
    th = make_thresholds(8, 1, spec.eps)
    st = zero_state(grid)
    nsf = zero_state(grid, with_flux=False)
    traj_a = [State.from_stacked(grid, st.stacked(), t, True) for t in (0.0, 0.1)]
    traj_b = [State.from_stacked(grid, nsf.stacked(), t, False) for t in (0.0, 0.2)]
    with pytest.raises(ValueError, match="snapshot times"):
        error_functional(traj_a, traj_b, spec, th, 2)


def test_relax_sweep_small(rng):
    grid = Grid(d=2, n=16)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))
    rep = relax_sweep(base, 2, [3e-2, 1e-2, 3e-3], T=1.5, compare_well_prepared=True)
    assert rep.monotone
    assert 0.7 <= rep.slope_fitted <= 1.3
    assert all(w <= x for w, x in zip(rep.well_prepared_values, rep.xtilde_values))
    assert [row["eps"] for row in rep.breakdown] == rep.eps_values


def test_relax_sweep_nonlinear_experimental(rng):
    grid = Grid(d=1, n=32)
    mk = lambda: random_field(grid, rng, 5e-3, 3.0)
    base = State(a=mk(), v=(mk(),), theta=mk(), q=(mk(),))
    rep = relax_sweep(base, 1, [1e-1, 3e-2], T=0.5, compare_well_prepared=False, nonlinear=True)
    assert "experimental" in rep.label
    assert all(np.isfinite(x) and x > 0 for x in rep.xtilde_values)
    assert rep.monotone
    big = Grid(d=3, n=16)
    mk3 = lambda: random_field(big, rng, 5e-3, 3.0)
    base3 = State(a=mk3(), v=(mk3(), mk3(), mk3()), theta=mk3(), q=(mk3(), mk3(), mk3()))
    with pytest.raises(ValueError, match="nonlinear sweeps"):
        relax_sweep(base3, 3, [1e-1, 3e-2], nonlinear=True)


def test_relax_sweep_skips_invalid_eps(rng):
    grid = Grid(d=2, n=16)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk()), theta=mk(), q=(mk(), mk()))
    rep = relax_sweep(base, 2, [0.5, 3e-2, 1e-2], T=0.5, compare_well_prepared=False)
    assert [s["eps"] for s in rep.skipped] == [0.5]
    assert rep.eps_values == [3e-2, 1e-2]
    with pytest.raises(ValueError, match="two threshold-valid"):
        relax_sweep(base, 2, [0.5, 0.3], T=0.5)


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
    cut_fraction=hst.sampled_from([0.05, 0.4, 1.5, 4.0]),
    inviscid=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
)
# the per-mode reference's 8x8 eigenvector matrix is singular (cond 3.5e16)
# at |k| = sqrt(14) here, and its projection there is off by 22%
@example(d=3, log_eps=-2.4976429486848915, cut_fraction=0.4, inviscid=True, seed=329)
def test_slow_projection_matches_per_mode_reference(d, log_eps, cut_fraction, inviscid, seed):
    grid = Grid(d=d, n={1: 32, 2: 16, 3: 8}[d])
    visc = {"visc_mu": 0.0, "visc_lam": 0.0} if inviscid else {}
    spec = ModelSpec(kind="nsc", d=d, eps=10.0**log_eps, **visc)
    rng = np.random.default_rng(seed)
    mk = lambda: random_field(grid, rng, 1.0, 1.0)
    st = State(a=mk(), v=tuple(mk() for _ in range(d)), theta=mk(), q=tuple(mk() for _ in range(d)))
    proj = slow_projection(st, spec, cut_fraction)
    got = proj.stacked()
    assert np.abs(slow_projection(proj, spec, cut_fraction).stacked() - got).max() <= 1e-13 * np.abs(got).max()
    lam, vecs = np.linalg.eig(mode_matrices(spec, grid))
    # an eigenvalue on the cut to rounding may fall on either side of it
    cut = cut_fraction * spec.damping_rate
    assume(np.all(np.abs(lam.real + cut) > 1e-8 * cut))
    # compare where the reference's eigenbasis is trustworthy, at k and -k
    # (re-hermitization mixes the two)
    cond = np.linalg.cond(vecs).reshape(grid.shape)
    ok = (cond < 1e8) & (cond[grid.mirror_indices()] < 1e8)
    ref = slow_projection_reference(st, spec, cut_fraction).stacked()[:, ok]
    assert np.abs(got[:, ok] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lyapunov_ode_compare_report():
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    th = make_thresholds(8, 1, spec.eps)
    rep = lyapunov_ode_compare(
        spec, sharp_low_profile(1.5, 3), th, 2.0, 1.5,
        t_grid=np.logspace(0, 3, 25), nodes=1024,
    )
    assert rep.monotone
    assert rep.max_envelope_violation <= 0.0 + 1e-12
    assert rep.tail_slope_theory == pytest.approx(-1.0)
    assert abs(rep.tail_slope - rep.tail_slope_theory) / abs(rep.tail_slope_theory) < 0.1
    assert rep.c0_fitted > 0
