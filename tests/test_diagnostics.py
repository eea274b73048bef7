import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nsclab import evolve
from nsclab.besov import _band_norms, band_project, grid_band_range, make_thresholds
from nsclab.diagnostics import (
    _band_functional,
    _calibrate,
    _flow_squares,
    _regime_parts,
    _regime_rate,
    _x_table,
    band_diagnostics,
    effective_unknowns,
    functional_X,
    lyapunov_high,
    lyapunov_low,
)
from nsclab.evolve import _torus_measure, linear_trajectory, mode_matrices
from nsclab.model import ModelSpec, SystemKind, eigenvalues, symbol
from nsclab.spectral import (
    Grid,
    SpectralField,
    State,
    _row_views,
    random_field,
    zero_field,
    zero_state,
)
from nsclab.studies import _fit_line, random_state, sampled_linear_trajectory, slow_projection, well_prepared_flux
from oracles import (
    _inner_reference,
    band_diagnostics_reference,
    centered_series,
    effective_velocity,
    functional_X_reference,
    grad,
    grad_j,
    nsf_zero_state,
    split_seminorm,
)


def band_inner(f, g, j: int) -> float:
    """Band-j part of the real L2 inner product sum_i int f_i g_i (Parseval)
    of two fields or two tuples of fields."""
    pairs = zip(*(x if isinstance(x, tuple) else (x,) for x in (f, g)), strict=True)
    return sum(_inner_reference(band_project(x, j), y) for x, y in pairs)


def curl_linf(fields) -> float:
    """Max spectral magnitude of the curl of a d-tuple (0 for d = 1)."""
    fields = tuple(fields)
    d = fields[0].grid.d
    if d == 1:
        return 0.0
    pairs = [(0, 1)] if d == 2 else [(0, 1), (0, 2), (1, 2)]
    worst = 0.0
    for i, j in pairs:
        dji = grad_j(fields[j], i).coeffs
        dij = grad_j(fields[i], j).coeffs
        worst = max(worst, float(np.max(np.abs(dji - dij))))
    return worst


def calibrate_dissipation(trajs, j, regime, spec, th, eta=0.1):
    """Largest c with d/dt L_j + c D_j <= 0 across the training trajectories."""
    series = [centered_series(traj, j, regime, spec, eta) for traj in trajs]
    return _calibrate(np.concatenate([dl for *_, dl in series]), np.concatenate([diss[1:-1] for _, _, diss, _ in series]))


def dissipation_residual(traj, j, regime, spec, th, eta=0.1, c=None):
    """Per-time residual d/dt L_j + c D_j at interior snapshots.

    c defaults to the trajectory's own calibration.  Returns (times, residual,
    violations) where violations counts residuals above discretization slack.
    """
    times, _, diss, dl = centered_series(traj, j, regime, spec, eta)
    dmid = diss[1:-1]
    if c is None:
        c = _calibrate(dl, dmid)
    residual = dl + c * dmid
    violations = int(np.sum(residual > 1e-8))
    return times[1:-1], residual, violations


def damped_mode_rate(traj, j, spec):
    """Exponential decay rate of |Q_j| fitted on log-linear least squares."""
    times = np.array([s.time for s in traj])
    vals = np.array([_band_norms(s.grid, effective_unknowns(s, spec)._Q, 2)[j - grid_band_range(s.grid).start] for s in traj])
    if np.any(vals <= 0):
        raise ValueError("damped-mode norm vanished; nothing to fit")
    slope, _, r2 = _fit_line(times, np.log(vals))
    return -slope, r2


def band_state(grid, rng, j, amp=1.0):
    fields = [band_project(random_field(grid, rng, amp, decay=0.0), j) for _ in range(2 * grid.d + 2)]
    d = grid.d
    return State(a=fields[0], v=tuple(fields[1 : 1 + d]), theta=fields[1 + d], q=tuple(fields[2 + d :]))


# ---------------------------------------------------------- effective unknowns


@settings(max_examples=30, deadline=None)
@given(grid=hst.sampled_from([Grid(d=1, n=16), Grid(d=2, n=8), Grid(d=3, n=8)]), seed=hst.integers(0, 2**32 - 1))
def test_effective_state_rows_view_one_stack(grid, seed):
    """Q and w are views of one stack each, equal bit for bit to the
    per-field formulas alpha q_i + kappa d_i theta and
    v_i + d_i a / |xi|^2 (0 at the zero mode and on the Nyquist plane)."""
    rng = np.random.default_rng(seed)
    shape = (2 * grid.d + 2, *grid.shape)
    st = State.from_stacked(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0, True)
    spec = ModelSpec(kind=SystemKind.NSC, d=grid.d, eps=0.1, kappa=0.7, alpha=1.3)
    es, w_stack = effective_unknowns(st, spec), effective_velocity(st)
    xi, w = grid.wavevectors(), np.where(grid.nyquist_mask(), 0.0, 1.0)
    k2 = sum(x**2 for x in xi)
    for name, stack, expect in (
        ("Q", es._Q, [spec.alpha * q.coeffs + spec.kappa * (1j * x * w * st.theta.coeffs) for q, x in zip(st.q, xi)]),
        ("w", w_stack, [v.coeffs + np.where(k2 == 0.0, 0.0, w * (1j * x * w * st.a.coeffs) / np.where(k2 == 0.0, 1.0, k2)) for v, x in zip(st.v, xi)]),
    ):
        rows = es.Q if name == "Q" else tuple(_row_views(grid, stack))
        assert stack.shape == (grid.d, *grid.shape) and len(rows) == grid.d
        for f, row, ref in zip(rows, stack, expect):
            assert f.grid == grid and np.shares_memory(f.coeffs, stack) and np.array_equal(f.coeffs, row)
            assert np.array_equal(f.coeffs, ref)
    assert not np.shares_memory(es._Q, st.u)


def test_well_prepared_flux_kills_damped_mode(grid2d, rng, nsc2):
    st = band_state(grid2d, rng, 2)
    st = State(a=st.a, v=st.v, theta=st.theta, q=well_prepared_flux(st.theta, nsc2))
    es = effective_unknowns(st, nsc2)
    assert max(np.max(np.abs(f.coeffs)) for f in es.Q) == 0.0


def test_effective_velocity_single_mode(grid2d, nsc2):
    st = zero_state(grid2d)
    st.a.coeffs[2, 1] = 1.0
    st = State(a=st.a.hermitized(), v=st.v, theta=st.theta, q=st.q)
    w = effective_velocity(st)
    xv = grid2d.wavevectors()
    xi = np.array([xv[0][2, 1], xv[1][2, 1]])
    expect = 1j * xi / np.dot(xi, xi) * st.a.coeffs[2, 1]
    got = np.array([w[0][2, 1], w[1][2, 1]])
    assert np.max(np.abs(got - expect)) < 1e-14


def test_effective_velocity_is_gradient_correction(grid2d, rng, nsc2):
    st = band_state(grid2d, rng, 2)
    diff = tuple(SpectralField(grid2d, w - v.coeffs) for w, v in zip(effective_velocity(st), st.v))
    assert curl_linf(diff) <= 1e-12


def test_effective_needs_flux(grid2d, nsc2):
    st = nsf_zero_state(grid2d)
    with pytest.raises(ValueError):
        effective_unknowns(st, nsc2)


# ----------------------------------------------------------------- functionals


def test_lyapunov_low_without_velocity(grid2d, rng):
    st = band_state(grid2d, rng, 2)
    st = State(a=st.a, v=tuple(zero_field(grid2d) for _ in range(2)), theta=st.theta, q=st.q)
    lv = lyapunov_low(st, 2, eta=0.25)
    assert lv.value == pytest.approx(st.a.l2_norm() ** 2 + st.theta.l2_norm() ** 2, rel=1e-12)
    assert lv.parts[1] == 0.0


def test_lyapunov_low_zero_state(grid2d):
    assert lyapunov_low(zero_state(grid2d), 1).value == 0.0


def test_lyapunov_low_equivalence_bracket(grid2d, rng):
    for _ in range(200):
        j = int(rng.integers(0, 4))
        st = band_state(grid2d, rng, j)
        lv = lyapunov_low(st, j, eta=0.25)
        ratio = lv.value / lv.parts[0]
        assert 0.5 <= ratio <= 1.5


def test_lyapunov_low_eta_domain(grid2d):
    with pytest.raises(ValueError):
        lyapunov_low(zero_state(grid2d), 1, eta=0.3)


def test_lyapunov_high_without_flux_term(grid2d, rng, nsc2):
    st = band_state(grid2d, rng, 4)
    st = State(a=st.a, v=st.v, theta=st.theta, q=tuple(zero_field(grid2d) for _ in range(2)))
    hv = lyapunov_high(st, 4, eta=1.0, spec=nsc2)
    assert hv.value == pytest.approx(st.theta.l2_norm() ** 2, rel=1e-12)


def test_lyapunov_high_zero_state(grid2d, nsc2):
    assert lyapunov_high(zero_state(grid2d), 4, 1.0, nsc2).value == 0.0


def test_lyapunov_high_equivalence(grid2d, rng):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    k = 1.0
    for _ in range(200):
        j = int(rng.integers(3, 5))  # populated bands >= Jeps - 1 on this grid
        st = band_state(grid2d, rng, j)
        hv = lyapunov_high(st, j, eta=k, spec=spec)
        target = band_project(st.theta, j).l2_norm() ** 2 + spec.eps**2 * sum(
            band_project(f, j).l2_norm() ** 2 for f in st.q
        )
        assert 0.5 <= hv.value / target <= 2.0


# ----------------------------------------------------------------- trajectories


def test_monotone_low_bands_along_slow_flow(rng):
    grid = Grid(d=2, n=64)
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    st = State(
        a=random_field(grid, rng, 1e-3),
        v=(random_field(grid, rng, 1e-3), random_field(grid, rng, 1e-3)),
        theta=random_field(grid, rng, 1e-3),
        q=(random_field(grid, rng, 1e-3), random_field(grid, rng, 1e-3)),
    )
    st = slow_projection(st, spec)
    traj = linear_trajectory(st, spec, 0.05, 60)
    for j in range(0, 4):
        vals = [lyapunov_low(s, j, eta=0.1).value for s in traj]
        assert np.max(np.diff(vals)) <= 1e-8


def test_monotone_high_bands(rng):
    grid = Grid(d=2, n=64)
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    st = State(
        a=random_field(grid, rng, 1e-3),
        v=(random_field(grid, rng, 1e-3), random_field(grid, rng, 1e-3)),
        theta=random_field(grid, rng, 1e-3),
        q=(random_field(grid, rng, 1e-3), random_field(grid, rng, 1e-3)),
    )
    dt = 0.01 * spec.eps**2 / spec.alpha
    traj = linear_trajectory(st, spec, dt, 60)
    for j in (4, 5):
        vals = [lyapunov_high(s, j, eta=0.25, spec=spec).value for s in traj]
        assert np.max(np.diff(vals)) <= 1e-8


def test_dissipation_residual_nonpositive_after_calibration(rng):
    grid = Grid(d=2, n=32)
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    j = 2
    rate = 2.0 ** (2 * (j + 1)) + 2 * 2.0 ** (j + 1)
    dt = 0.01 / rate

    def make_traj():
        st = State(
            a=random_field(grid, rng, 1e-3),
            v=(random_field(grid, rng, 1e-3), random_field(grid, rng, 1e-3)),
            theta=random_field(grid, rng, 1e-3),
            q=(random_field(grid, rng, 1e-3), random_field(grid, rng, 1e-3)),
        )
        return linear_trajectory(slow_projection(st, spec), spec, dt, 50)

    train = [make_traj() for _ in range(3)]
    c = calibrate_dissipation(train, j, "low", spec, th, eta=0.1)
    assert c > 0
    times, res, violations = dissipation_residual(make_traj(), j, "low", spec, th, eta=0.1, c=c)
    assert violations == 0
    assert np.max(res) <= 1e-8


def test_dissipation_residual_calibrates_from_one_series(rng, monkeypatch):
    import nsclab.diagnostics as diagnostics

    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    j = 1
    dt = 0.01 / (2.0 ** (2 * (j + 1)) + 2 * 2.0 ** (j + 1))
    traj = linear_trajectory(slow_projection(band_state(grid, rng, j, amp=1e-3), spec), spec, dt, 12)
    c = calibrate_dissipation([traj], j, "low", spec, th)
    calls = []
    counted = diagnostics._band_functional
    monkeypatch.setattr(diagnostics, "_band_functional", lambda *a: calls.append(1) or counted(*a))
    times, res, violations = dissipation_residual(traj, j, "low", spec, th)
    assert len(calls) == len(traj)
    times_c, res_c, violations_c = dissipation_residual(traj, j, "low", spec, th, c=c)
    assert np.array_equal(times, times_c) and np.array_equal(res, res_c) and violations == violations_c


def test_calibrate_clips_at_zero_and_needs_dissipation():
    assert _calibrate(np.array([1.0, -2.0]), np.array([1.0, 1.0])) == 0.0
    assert _calibrate(np.array([-2.0, -3.0]), np.array([1.0, 0.0])) == 2.0
    with pytest.raises(ValueError, match="no usable samples"):
        _calibrate(np.array([-1.0]), np.array([0.0]))


def test_dissipation_residual_zero_state(grid2d, nsc2):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    dt = 0.005 / (2.0 ** (2 * 2) + 2 * 2.0**2)
    traj = [State.from_stacked(grid2d, zero_state(grid2d).u, i * dt, True) for i in range(10)]
    times, res, violations = dissipation_residual(traj, 1, "low", spec, th, c=1.0)
    assert np.all(res == 0.0) and violations == 0


def test_dissipation_residual_stride_guard(grid2d, rng):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    st = band_state(grid2d, rng, 4, amp=1e-3)
    traj = linear_trajectory(st, spec, 0.1, 10)  # far too coarse for high bands
    with pytest.raises(ValueError, match="stride"):
        dissipation_residual(traj, 4, "high", spec, th)


def test_centered_difference_matches_fine_reference(rng):
    # the trajectory is exact, so refining the stride must reproduce dL/dt
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = band_state(grid, rng, 1, amp=1e-3)
    st = slow_projection(st, spec)
    j, eta = 1, 0.1
    vals = {}
    for refine in (1, 4):
        dt = 1e-4 / refine
        traj = linear_trajectory(st, spec, dt, 2 * refine)
        series = [lyapunov_low(s, j, eta).value for s in traj]
        vals[refine] = (series[2 * refine] - series[0]) / (2 * refine * dt)
    assert vals[1] == pytest.approx(vals[4], rel=2e-4)


def _single_mode_state(grid, mode, coeffs):
    """Hermitian NSC state carrying coeffs at lattice point mode, conj at -mode."""
    arr = np.zeros((len(coeffs), *grid.shape), dtype=complex)
    arr[(slice(None), *mode)] = coeffs
    arr[(slice(None), *(-m % grid.n for m in mode))] = np.conj(coeffs)
    return State.from_stacked(grid, arr, 0.0, True)


def _exact_lyapunov_rate(s, ds, j, regime, spec, eta):
    """d/dt L_j at state s moving with velocity ds: L_j is a quadratic form in
    the state for 'low' and 'high'."""
    if regime == "low":
        energy = band_inner((s.a, *s.v, s.theta), (ds.a, *ds.v, ds.theta), j)
        cross = band_inner(ds.v, grad(s.a), j) + band_inner(s.v, grad(ds.a), j)
        return 2.0 * energy + eta * 2.0 ** (-j) * cross
    energy = band_inner(s.theta, ds.theta, j) + spec.eps**2 * band_inner(s.q, ds.q, j)
    cross = band_inner(ds.q, grad(s.theta), j) + band_inner(s.q, grad(ds.theta), j)
    return 2.0 * energy + eta * 2.0 ** (-2 * j) * cross


@pytest.mark.parametrize("regime, j, mode", [("low", 0, (1, 0)), ("high", 2, (5, 0))])
def test_centered_difference_matches_exact_derivative(rng, regime, j, mode):
    # a single decaying Fourier mode: du/dt is the generator applied to u(t),
    # so d/dt L_j is exact at every snapshot and pins the centred difference
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.25)
    eta = 0.1
    gen = symbol(spec, np.array([w[mode] for w in grid.wavevectors()])).entries
    st = _single_mode_state(grid, mode, 1e-3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
    traj = linear_trajectory(st, spec, 5e-3 / _regime_rate(spec, j, regime), 6)
    _, lyap, _, dl = centered_series(traj, j, regime, spec, eta)
    exact = [
        _exact_lyapunov_rate(s, _single_mode_state(grid, mode, gen @ s.u[(slice(None), *mode)]), j, regime, spec, eta)
        for s in traj[1:-1]
    ]
    assert np.all(lyap > 0)
    assert np.allclose(dl, exact, rtol=5e-4, atol=0.0), np.max(np.abs(dl / np.array(exact) - 1.0))


@pytest.mark.parametrize("regime, j", [("low", 1), ("high", 3)])
def test_centered_series_reads_a_generator_once(rng, regime, j):
    # a one-shot generator yields the same series as the list, bit for bit
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.25)
    traj = linear_trajectory(band_state(grid, rng, j, amp=1e-3), spec, 5e-3 / _regime_rate(spec, j, regime), 8)
    want = centered_series(traj, j, regime, spec, 0.1)
    got = centered_series((s for s in traj), j, regime, spec, 0.1)
    assert all(np.array_equal(w, g) for w, g in zip(want, got, strict=True))


@pytest.mark.parametrize("regime, j, passes", [("low", 1, 2), ("high", 3, 3)])
def test_centered_series_takes_two_band_passes_low_and_three_high(rng, monkeypatch, regime, j, passes):
    # a band pass is one bincount over the grid's labels: the norm parts and
    # the cross term take one each, the dissipation none of its own
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.25)
    traj = linear_trajectory(band_state(grid, rng, j, amp=1e-3), spec, 5e-3 / _regime_rate(spec, j, regime), 8)
    calls = []
    counted = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or counted(*a, **k))
    centered_series(traj, j, regime, spec, 0.1)
    assert len(calls) == passes * len(traj)


def test_damped_mode_rate_matches_eigenvalue(rng):
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    st = State(a=st.a, v=st.v, theta=st.theta.hermitized(), q=st.q)
    dt = 0.002 * spec.eps**2 / spec.alpha
    traj = linear_trajectory(st, spec, dt, 80)
    rate, r2 = damped_mode_rate(traj, 0, spec)
    eigs = eigenvalues(symbol(spec, np.array([1.0, 0.0])))
    fast = -float(np.min(eigs.real))
    assert r2 > 0.999
    assert abs(rate - fast) / fast < 0.01


# ----------------------------------------------------------------- X functional


def test_functional_X_zero_trajectory(grid2d):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    x = functional_X(zero_state(grid2d), spec, th, 0.1 * np.arange(5))
    assert x.total == 0.0
    assert all(v == 0.0 for v in x.constituents.values())


def test_functional_X_additivity(grid2d, rng):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    st = State(
        a=random_field(grid2d, rng, 1e-3),
        v=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
        theta=random_field(grid2d, rng, 1e-3),
        q=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
    )
    x = functional_X(st, spec, th, 0.02 * np.arange(21))
    assert x.total == pytest.approx(x.x_low + x.x_med + x.x_high, rel=1e-14)
    assert x.total > 0


def test_functional_X_nondecreasing_in_time(grid2d, rng):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    st = State(
        a=random_field(grid2d, rng, 1e-3),
        v=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
        theta=random_field(grid2d, rng, 1e-3),
        q=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
    )
    times = 0.02 * np.arange(31)
    prev = 0.0
    for upto in (10, 20, 30):
        x = functional_X(st, spec, th, times[: upto + 1])
        assert x.total >= prev - 1e-15
        prev = x.total


def test_functional_X_single_mode_integral_oracle():
    # a state on one exact eigenvector decays as a pure exponential, so the
    # L1-in-time accumulators have a closed form: |f(0)| (1 - e^(l T)) / (-l)
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    mats = mode_matrices(spec, grid)
    idx = np.ravel_multi_index((1, 0), grid.shape)
    lam, vecs = np.linalg.eig(mats[idx])
    slow = np.argsort(np.abs(lam.real))[1]  # a decaying slow eigenvector
    lam0, v0 = lam[slow], vecs[:, slow]
    st = zero_state(grid)
    arr = st.u
    arr[:, 1, 0] = 1e-3 * v0
    arr[:, -1, 0] = 1e-3 * np.conj(v0)  # Hermitian mirror at -xi
    st = State.from_stacked(grid, arr, 0.0, True)
    assert st.is_hermitian(1e-14)

    dt, nsteps = 0.02, 100
    T = dt * nsteps
    times = dt * np.arange(nsteps + 1)
    x = functional_X(st, spec, th, times)
    rate = -lam0.real
    assert rate > 0
    base = functional_X(st, spec, th, times[:1]).constituents  # instantaneous at t=0
    for name in ("low_avtheta_L1", "low_q_L1"):
        f0 = {"low_avtheta_L1": "low_state_Linf"}.get(name)
        # closed form from the t=0 value of the matching integrand
        if name == "low_avtheta_L1":
            v_of_0 = split_seminorm((st.a, *st.v, st.theta), spec.d / 2 + 1, 2, "low", th, True)
        else:
            v_of_0 = split_seminorm(st.q, spec.d / 2, 2, "low", th, True)
        exact = v_of_0 * (1.0 - math.exp(-rate * T)) / rate
        assert x.constituents[name] == pytest.approx(exact, rel=5e-3)


def test_functional_X_uniform_in_eps(grid2d, rng):
    # fixed well-prepared data: X varies by < 2x across three decades of eps
    base = State(
        a=random_field(grid2d, rng, 1e-3),
        v=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
        theta=random_field(grid2d, rng, 1e-3),
        q=None,
    )
    totals = []
    for eps in (1e-1, 1e-2, 1e-3):
        spec = ModelSpec(kind="nsc", d=2, eps=eps)
        th = make_thresholds(8, 1, eps)
        st = State(
            a=base.a,
            v=base.v,
            theta=base.theta,
            q=well_prepared_flux(base.theta, spec),
        )
        totals.append(functional_X(st, spec, th, 0.02 * np.arange(101)).total)
    assert max(totals) / min(totals) < 2.0


def test_functional_X_requires_increasing_times(grid2d):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    st = zero_state(grid2d)
    for times in ((0.0, 0.1, 0.1), (0.0, 0.2, 0.1)):
        with pytest.raises(ValueError, match="strictly increase"):
            functional_X(st, spec, th, np.array(times))


def _x_snapshot_reference(st, spec, th) -> dict:
    """Each piece of X at one snapshot, one split_seminorm call per value of
    s on the fields its table entry names."""
    eps, es = spec.eps, effective_unknowns(st, spec)
    scaled = lambda c, fields: tuple(SpectralField(f.grid, c * f.coeffs) for f in fields)
    fields = {
        "a": (st.a,), "v": st.v, "theta": (st.theta,), "q": st.q, "Q": es.Q, "w": tuple(_row_views(st.grid, effective_velocity(st))),
        "eq": scaled(eps, st.q), "e2theta": scaled(eps**2, (st.theta,)), "e3q": scaled(eps**3, st.q),
    }
    out = {}
    for name, group, regime, ss, weight, _ in _x_table(spec.d, eps):
        f = tuple(x for c in group for x in fields[c])
        out[name] = weight * max(split_seminorm(f, s, 2, regime, th, True) for s in (ss if isinstance(ss, tuple) else (ss,)))
    return out


def test_functional_X_at_non_uniform_times_is_the_trapezoid(grid2d, rng):
    # the time reduction reads any strictly increasing times: sup, trapezoid
    # and root of the trapezoid of squares of the per-snapshot pieces
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    st = State(
        a=random_field(grid2d, rng, 1e-3),
        v=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
        theta=random_field(grid2d, rng, 1e-3),
        q=(random_field(grid2d, rng, 1e-3), random_field(grid2d, rng, 1e-3)),
    )
    traj = list(sampled_linear_trajectory(st, spec, [np.linspace(0.0, 0.02, 5), np.linspace(0.02, 0.5, 4)]))
    times = np.array([s.time for s in traj])
    assert np.ptp(np.diff(times)) > 0.1
    snaps = [_x_snapshot_reference(s, spec, th) for s in traj]
    x = functional_X(st, spec, th, times)
    for name, *_, kind in _x_table(spec.d, spec.eps):
        vals = np.array([snap[name] for snap in snaps])
        want = {"Linf": np.max(vals), "L1": np.trapezoid(vals, times), "L2": math.sqrt(np.trapezoid(vals**2, times))}[kind]
        assert x.constituents[name] == pytest.approx(want, rel=1e-12, abs=0.0), name
    assert x.total > 0


def test_functional_X_takes_one_band_pass_per_group(grid2d, rng, monkeypatch):
    # the 26 pieces of X read 10 distinct row groups, each reduced to its
    # band norms once per snapshot
    import nsclab.diagnostics as diagnostics

    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    th = make_thresholds(8, 1, spec.eps)
    traj = linear_trajectory(random_state(grid2d, rng), spec, 0.02, 4)
    want = functional_X_reference(traj, spec, th)
    calls = []
    counted = diagnostics._band_norms
    monkeypatch.setattr(diagnostics, "_band_norms", lambda *a: calls.append(1) or counted(*a))
    assert functional_X_reference(traj, spec, th) == want
    assert len({group for _, group, *_ in _x_table(spec.d, spec.eps)}) == 10
    assert len(calls) == 10 * len(traj)


def test_dissipation_quantity_regimes(grid2d, rng):
    spec = ModelSpec(kind="nsc", d=2, eps=1 / 16)
    st = band_state(grid2d, rng, 2, amp=1e-2)
    low = _band_functional(st, "low", spec, 0.1)[2][2]
    high = _band_functional(st, "high", spec, 0.25)[2][2]
    assert low > 0 and high > 0
    with pytest.raises(ValueError):
        _band_functional(st, "sideways", spec, 0.1)


# ------------------------------------------------------- the flow's Gram rows


def _flux_state(grid, rng, flux, spec):
    """A Hermitian NSC state with Nyquist-plane content and the given flux:
    random, zero, well-prepared (Q = 0) or, with every other component,
    supported on the Nyquist plane only."""
    shape = (2 * grid.d + 2, *grid.shape)
    u = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (1.0 + grid.wavenumber_magnitude()) ** 2
    if flux == "nyquist":
        u = np.where(grid.nyquist_mask(), u, 0.0)
    st = State.from_stacked(grid, u, 0.0, True).hermitized()
    if flux == "zero":
        st.u[2 + grid.d :] = 0.0
    elif flux == "well-prepared":
        st = State(a=st.a, v=st.v, theta=st.theta, q=well_prepared_flux(st.theta, spec))
    return st


@settings(max_examples=40, deadline=None)
@given(
    dn=hst.sampled_from([(1, 16), (2, 8), (3, 8)]),
    L=hst.sampled_from([2 * np.pi, np.pi]),
    flux=hst.sampled_from(["random", "zero", "well-prepared", "nyquist"]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_flow_squares_at_zero_are_the_state_band_norms(dn, L, flux, seed):
    # at t = 0 the Gram rows give L^d |row_j|^2 of a, v, theta, q, Q and w
    # and the band functionals' parts, to rounding of the band's energy
    d, n = dn
    grid = Grid(d=d, n=n, L=L)
    spec = ModelSpec(kind="nsc", d=d, eps=0.2, kappa=0.7, alpha=1.3)
    st = _flux_state(grid, np.random.default_rng(seed), flux, spec)
    bands, u = grid_band_range(grid), st.u
    got = _flow_squares(_torus_measure(st), spec, [0.0])
    rows = {"a": u[:1], "v": u[1 : 1 + d], "theta": u[1 + d : 2 + d], "q": u[2 + d :], "Q": effective_unknowns(st, spec)._Q, "w": effective_velocity(st)}
    want = {name: _band_norms(grid, x, 2) ** 2 for name, x in rows.items()}
    scale = sum(want.values())
    for name, x in want.items():
        assert np.all(np.abs(got[name][0] - x) <= 1e-12 * scale), name
    for regime in ("low", "high"):
        ref = np.array(list(_band_functional(st, regime, spec, 0.1).values())).T
        parts = np.array(_regime_parts(regime, spec, 0.1, bands, *(x[0] for x in got[regime])))
        assert np.all(np.abs(parts - ref) <= 1e-12 * np.abs(ref[[0, 0, 2]])), regime  # E_j bounds the cross part


@settings(max_examples=30, deadline=None)
@given(
    dn=hst.sampled_from([(1, 16), (2, 8), (3, 8)]),
    flux=hst.sampled_from(["random", "zero", "well-prepared", "nyquist"]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_zero_mode_is_a_key_in_no_band(dn, flux, seed):
    # zero-mean data keep the keys they had when the measure dropped the
    # zero mode: those off k = 0 that carry data.  A mean adds one key at
    # k = 0 and leaves every band column of the flow finite and the same to
    # rounding, w's row at k = 0 included
    d, n = dn
    grid = Grid(d=d, n=n)
    spec = ModelSpec(kind="nsc", d=d, eps=0.2, kappa=0.7, alpha=1.3)
    rng = np.random.default_rng(seed)
    zero = (slice(None),) + (0,) * d
    st = _flux_state(grid, rng, flux, spec)
    st.u[zero] = 0.0
    with_mean = State.from_stacked(grid, st.u.copy(), 0.0, True)
    with_mean.u[zero] = rng.standard_normal(2 * d + 2)
    key = evolve._radius_keys(grid)[0]
    carried = np.any(st.u.reshape(2 * d + 2, -1) != 0.0, axis=0)
    m0, m1 = _torus_measure(st), _torus_measure(with_mean)
    assert m0.radius.size == np.unique(key[carried]).size and np.all(m0.k > 0)
    assert m1.radius.size == m0.radius.size + 1 and np.array_equal(m1.k > 0, np.arange(m1.k.size) > 0)
    assert not np.any(m1.band[:, 0])
    times = [0.0, 0.01, 0.1, 1.0]
    got, want = _flow_squares(m1, spec, times), _flow_squares(m0, spec, times)
    for name in ("a", "v", "theta", "q", "Q", "w"):
        assert np.all(np.isfinite(got[name])), name
        assert np.all(np.abs(got[name] - want[name]) <= 1e-13 * want[name]), name
    for regime in ("low", "high"):  # the energy bounds the inner product
        (e1, i1), (e0, i0) = got[regime], want[regime]
        assert np.all(np.isfinite(e1)) and np.all(np.isfinite(i1)), regime
        assert np.all(np.abs(e1 - e0) <= 1e-13 * e0) and np.all(np.abs(i1 - i0) <= 1e-13 * e0), regime


def _oracle_state(d, seed):
    grid = Grid(d=d, n={1: 32, 2: 16, 3: 8}[d])
    return random_state(grid, np.random.default_rng(seed))


@settings(max_examples=6, deadline=None)
@given(d=hst.sampled_from([1, 2, 3]), seed=hst.integers(0, 2**32 - 1))
def test_band_diagnostics_match_stepped_oracle(d, seed):
    # the Gram series equal 40 LinearPropagator steps per band: the same t
    # bits, lyapunov and dissipation to 1e-12 relative
    spec = ModelSpec(kind="nsc", d=d, eps=0.25)
    th = make_thresholds(2, 1.0, spec.eps)  # low bands j <= 1, high j >= 2
    st = _oracle_state(d, seed)
    rows, ref = band_diagnostics(st, spec, th), band_diagnostics_reference(st, spec, th)
    assert {r[2] for r in ref} == {"low", "high"}
    assert [r[:3] for r in rows] == [r[:3] for r in ref]
    for col in (3, 4):
        got, want = (np.array([r[col] for r in x]) for x in (rows, ref))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), col
    # the centred difference cancels about four digits of L_j (measured
    # worst 1.3e-10 of a band's largest |residual|)
    for key in {tuple(r[1:3]) for r in ref}:
        got, want = (np.array([r[5] for r in x if tuple(r[1:3]) == key]) for x in (rows, ref))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-8 * np.nanmax(np.abs(want)), key


@settings(max_examples=8, deadline=None)
@given(d=hst.sampled_from([1, 2, 3]), seed=hst.integers(0, 2**32 - 1), well_prepared=hst.booleans())
def test_functional_X_matches_stepped_oracle(d, seed, well_prepared):
    # every piece of X from the Gram rows equals the stepped snapshots' at
    # the same times to 1e-12 relative, the damped mode of well-prepared
    # data (Q(0) = 0, a rank-deficient Gram matrix) among them
    spec = ModelSpec(kind="nsc", d=d, eps=0.1)
    th = make_thresholds(2, 1.0, spec.eps)
    st = _oracle_state(d, seed)
    if well_prepared:
        st = State(a=st.a, v=st.v, theta=st.theta, q=well_prepared_flux(st.theta, spec))
    traj = linear_trajectory(st, spec, 0.01, 50)
    x, ref = functional_X(st, spec, th, np.array([s.time for s in traj])), functional_X_reference(traj, spec, th)
    assert x.total > 0
    for name, want in ref.constituents.items():
        assert x.constituents[name] == pytest.approx(want, rel=1e-12, abs=0.0), name
