"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the summary
lines).  Every tolerance is fixed here; nothing is calibrated at run time
except where a criterion explicitly calls for a calibration pass.
"""

import math
import time

import numpy as np
import pytest

from nsclab.besov import (
    band_project,
    bernstein_check,
    grid_band_range,
    make_thresholds,
)
from nsclab.diagnostics import lyapunov_high, lyapunov_low
from nsclab.evolve import (
    LinearPropagator,
    PropagatorKernel,
    imex_step,
    linear_trajectory,
    propagate_mode,
    sharp_low_profile,
    source_terms,
)
from nsclab.model import ModelSpec, eigenvalues, kalman_rank, reduced_blocks, reduced_symbol, symbol
from nsclab.spectral import (
    Grid,
    SpectralField,
    State,
    random_field,
    to_physical,
    to_spectral,
    zero_field,
    zero_state,
)
from nsclab.studies import (
    decay_fit,
    initial_layer,
    layer_scaling,
    lyapunov_ode_compare,
    relax_sweep,
    slow_projection,
    well_prepared_flux,
)

from oracles import kernel_apply, ode_propagate


def report(n, text):
    print(f"[criterion {n:02d}] PASS: {text}")


def test_c01_propagator_vs_ode_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = worst_kernel = 0.0
    for _ in range(100):
        eps = 10 ** rng.uniform(-3, -1)
        r = 10 ** rng.uniform(-2, 2)
        t = rng.uniform(0.0, 10.0)
        spec = ModelSpec(kind="nsc", d=3, eps=eps)
        m = reduced_symbol(spec, r)
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mine = propagate_mode(m, u0, t)
        # the production path: the eigendecomposed kernel the studies use,
        # the data's coefficients taken once and flowed to t
        kernel = kernel_apply(PropagatorKernel(reduced_blocks(spec, [r])), t, u0[None, :])[0]
        ref = ode_propagate(m.entries, u0, t)
        denom = max(float(np.linalg.norm(ref)), 1e-300)
        worst = max(worst, float(np.linalg.norm(mine - ref)) / denom)
        worst_kernel = max(worst_kernel, float(np.linalg.norm(kernel - ref)) / denom)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert worst_kernel <= 1e-8, f"worst relative error of the kernel {worst_kernel:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"
    report(1, f"100 stiff blocks, worst rel err {worst:.2e} (kernel {worst_kernel:.2e}), {elapsed:.2f}s")


def test_c02_toy_model_regimes():
    t0 = time.perf_counter()
    for eps in (0.03, 0.1, 0.3):
        spec = ModelSpec(kind="toy-damped", d=1, eps=eps)
        # slow eigenvalue vs heat rate at eps|xi| <= 1e-2
        xi = 1e-2 / eps
        eigs = eigenvalues(symbol(spec, xi))
        heat = -spec.kappa * xi**2 / spec.alpha
        assert abs(eigs[0].real / heat - 1.0) <= 0.01
        # complex-pair real part vs -alpha/(2 eps^2) at eps|xi| >= 1e2
        xi = 1e2 / eps
        eigs = eigenvalues(symbol(spec, xi))
        assert abs(eigs[0].imag) > 0
        assert abs(eigs[0].real / (-spec.alpha / (2 * eps**2)) - 1.0) <= 0.01
        # exactly one real-to-complex transition along the sweep
        flags = []
        for r in np.logspace(-3, 4, 250):
            ev = eigenvalues(symbol(spec, r))
            flags.append(bool(abs(ev[0].imag) > 1e-12))
        transitions = sum(1 for i in range(1, len(flags)) if flags[i] != flags[i - 1])
        assert transitions == 1, f"eps={eps}: {transitions} transitions"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"
    report(2, f"slow/fast asymptotics within 1%, one transition per eps, {elapsed:.2f}s")


def test_c03_stability_rank_condition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    spec = ModelSpec(kind="nsc", d=3, eps=0.1)
    for _ in range(20):
        w = rng.standard_normal(3)
        rep = kalman_rank(spec, w / np.linalg.norm(w))
        assert rep.full and rep.rank == 8
    rep = kalman_rank(ModelSpec(kind="nsc", d=3, eps=0.1, kappa=0.0), np.array([1.0, 0, 0]))
    assert not rep.full and rep.rank == 7
    rep0 = kalman_rank(
        ModelSpec(kind="nsc", d=3, eps=0.1, alpha=0.0, visc_mu=0.0, visc_lam=0.0),
        np.array([1.0, 0, 0]),
    )
    assert rep0.rank == 0 and not rep0.full
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"
    report(3, f"20 directions full rank; degenerate variants fail as predicted, {elapsed:.2f}s")


def test_c04_bernstein_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    grid = Grid(d=2, n=64)
    th = make_thresholds(8, 1, 1 / 16)
    counts = {}
    worst = {}
    for _ in range(100):
        f = random_field(grid, rng, decay=0.0)
        for j in grid_band_range(grid):
            band = band_project(f, j)
            if band.l2_norm() == 0.0:
                continue
            s = rng.uniform(-1.5, 1.5)
            sp = rng.uniform(0.1, 2.0)
            for res in bernstein_check(band, s, sp, 2, th):
                assert not res["violated"], res
                counts[res["name"]] = counts.get(res["name"], 0) + 1
                worst[res["name"]] = max(worst.get(res["name"], 0.0), res["ratio"])
    assert len(worst) == 6
    assert all(c >= 100 for c in counts.values())
    assert all(v <= 4.0 for v in worst.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over budget"
    summary = ", ".join(f"{k}={v:.2f}" for k, v in sorted(worst.items()))
    report(4, f"six inequalities on 100 fields/regime, worst ratios {summary}, {elapsed:.1f}s")


def test_c05_lyapunov_equivalence_and_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    eps = 1 / 16
    spec = ModelSpec(kind="nsc", d=2, eps=eps)
    th = make_thresholds(8, 1, eps)
    grid = Grid(d=2, n=32)

    def band_state(j):
        fields = [band_project(random_field(grid, rng, decay=0.0), j) for _ in range(6)]
        return State(a=fields[0], v=(fields[1], fields[2]), theta=fields[3], q=(fields[4], fields[5]))

    # 10^4 random band states: equivalence brackets
    for _ in range(5000):
        j = int(rng.integers(0, th.J0 + 1))
        st = band_state(j)
        lv = lyapunov_low(st, j, eta=0.25)
        assert 0.5 <= lv.value / lv.parts[0] <= 1.5
    for _ in range(5000):
        j = int(rng.integers(th.Jeps - 1, 5))
        st = band_state(j)
        hv = lyapunov_high(st, j, eta=1.0, spec=spec)
        target = band_project(st.theta, j).l2_norm() ** 2 + eps**2 * sum(
            band_project(f, j).l2_norm() ** 2 for f in st.q
        )
        assert 0.5 <= hv.value / target <= 2.0

    # 50 zero-source linear trajectories, 100 sample times each
    small = Grid(d=2, n=16)
    slack = 1e-8
    for _ in range(25):
        st = State(
            a=random_field(small, rng, 1e-3),
            v=(random_field(small, rng, 1e-3), random_field(small, rng, 1e-3)),
            theta=random_field(small, rng, 1e-3),
            q=(random_field(small, rng, 1e-3), random_field(small, rng, 1e-3)),
        )
        traj = linear_trajectory(slow_projection(st, spec), spec, 0.05, 100)
        for j in range(0, th.J0 + 1):
            vals = [lyapunov_low(s, j, eta=0.1).value for s in traj]
            assert float(np.max(np.diff(vals))) <= slack
    dt_high = 0.01 * eps**2 / spec.alpha
    for _ in range(25):
        st = State(
            a=random_field(small, rng, 1e-3),
            v=(random_field(small, rng, 1e-3), random_field(small, rng, 1e-3)),
            theta=random_field(small, rng, 1e-3),
            q=(random_field(small, rng, 1e-3), random_field(small, rng, 1e-3)),
        )
        traj = linear_trajectory(st, spec, dt_high, 100)
        for j in (th.Jeps - 1, th.Jeps):
            vals = [lyapunov_high(s, j, eta=0.25, spec=spec).value for s in traj]
            assert float(np.max(np.diff(vals))) <= slack
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"
    report(5, f"10^4 band states in brackets; 50 trajectories non-increasing, {elapsed:.1f}s")


def test_c06_decay_exponents():
    t0 = time.perf_counter()
    prof = sharp_low_profile(1.5, 3)
    ts = np.logspace(1, 3, 25)
    fits = {}
    for sigma, theory in ((0.0, -0.75), (1.0, -1.25)):
        spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
        rep = decay_fit(spec, prof, 2, sigma, t_grid=ts)
        fit = rep.density_velocity
        assert fit.exponent_theory == pytest.approx(theory)
        assert fit.r_squared >= 0.99
        assert fit.relative_error <= 0.05, f"sigma={sigma}: {fit.exponent_fitted}"
        fits[sigma] = fit.exponent_fitted
    # eps-uniformity at sigma = 0
    exps = []
    for eps in (1e-2, 1e-3):
        spec = ModelSpec(kind="nsc", d=3, eps=eps)
        rep = decay_fit(spec, prof, 2, 0.0, t_grid=ts)
        exps.append(rep.density_velocity.exponent_fitted)
    assert abs(exps[0] - exps[1]) / abs(exps[1]) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over budget"
    report(
        6,
        f"fitted {fits[0.0]:.4f} (theory -0.75), {fits[1.0]:.4f} (theory -1.25), "
        f"eps-uniform to {abs(exps[0]-exps[1])/abs(exps[1]):.2%}, {elapsed:.1f}s",
    )


def test_c07_relaxation_slope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    grid = Grid(d=3, n=24)
    mk = lambda: random_field(grid, rng, 1e-2, 3.0)
    base = State(a=mk(), v=(mk(), mk(), mk()), theta=mk(), q=(mk(), mk(), mk()))
    rep = relax_sweep(base, ModelSpec(kind="nsc", d=3), [1e-1, 3e-2, 1e-2, 3e-3], T=4.0)
    assert 0.85 <= rep.slope_fitted <= 1.15, f"slope {rep.slope_fitted}"
    assert rep.monotone
    assert all(w <= x for w, x in zip(rep.well_prepared_values, rep.xtilde_values))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over budget"
    report(7, f"slope {rep.slope_fitted:.4f} in [0.85, 1.15]; well-prepared dominated, {elapsed:.1f}s")


def test_c08_initial_layer():
    t0 = time.perf_counter()
    grid = Grid(d=2, n=16)
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    st = zero_state(grid)
    st.theta.coeffs[1, 0] = 1e-3
    st.q[0].coeffs[1, 0] = 1e-2
    st = State(a=st.a, v=st.v, theta=st.theta.hermitized(), q=(st.q[0].hermitized(), st.q[1]))
    rep = initial_layer(spec, st)
    assert rep.relative_error <= 0.02, f"rate error {rep.relative_error:.3%}"
    scaling = layer_scaling(spec, st, factor=2.0)
    assert abs(scaling.ratio - 4.0) / 4.0 <= 0.05, f"ratio {scaling.ratio}"
    # well-prepared data: no layer at all
    spec_wp = ModelSpec(kind="nsc", d=2, eps=1e-3)
    stw = zero_state(grid)
    stw.theta.coeffs[1, 0] = 1e-5
    theta = stw.theta.hermitized()
    stw = State(a=stw.a, v=stw.v, theta=theta, q=well_prepared_flux(theta, spec_wp))
    traj = linear_trajectory(stw, spec_wp, 0.05, 40)
    from nsclab.diagnostics import effective_unknowns

    qmax = max(
        math.sqrt(sum(f.l2_norm() ** 2 for f in effective_unknowns(s, spec_wp).Q)) for s in traj
    )
    assert qmax <= 1e-10, f"well-prepared |Q| reached {qmax:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over budget"
    report(
        8,
        f"layer rate err {rep.relative_error:.2%}, scaling ratio {scaling.ratio:.3f}, "
        f"well-prepared max|Q| {qmax:.1e}, {elapsed:.1f}s",
    )


def test_c09_nonlinear_stepper():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    # temporal order on a smooth random small-amplitude state
    grid = Grid(d=1, n=64)
    spec = ModelSpec(kind="nsc", d=1, eps=0.5)
    mk = lambda: random_field(grid, rng, 2e-2, 3.0)
    st = State(a=mk(), v=(mk(),), theta=mk(), q=(mk(),))
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
                sum(
                    SpectralField(grid, a.coeffs - b.coeffs).l2_norm() ** 2
                    for a, b in zip(out.fields(), ref.fields())
                )
            )
        )
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders), f"orders {orders}"

    # manufactured solution, d=1, n=128
    mms_err = _manufactured_solution_error()
    assert mms_err <= 1e-6, f"manufactured-solution error {mms_err:.2e}"

    # mass conservation per step
    st2 = State(a=mk(), v=(mk(),), theta=mk(), q=(mk(),))
    st2.a.coeffs[0] = 0.02
    cur = st2
    for _ in range(50):
        prev = cur.a.coeffs[0]
        cur = imex_step(cur, spec, 5e-3)
        assert abs(cur.a.coeffs[0] - prev) <= 1e-10

    # quadratic homogeneity of the sources
    base = State(a=mk(), v=(mk(),), theta=mk(), q=(mk(),))
    norms = []
    for amp in (1.0, 0.5, 0.25):
        scaled = State(
            a=SpectralField(grid, amp * base.a.coeffs),
            v=(SpectralField(grid, amp * base.v[0].coeffs),),
            theta=SpectralField(grid, amp * base.theta.coeffs),
            q=(SpectralField(grid, amp * base.q[0].coeffs),),
        )
        F, G, H, I = source_terms(scaled, spec)
        norms.append(math.sqrt(sum(f.l2_norm() ** 2 for f in (F, G[0], H, I[0]))))
    slopes = [math.log(norms[i] / norms[i + 1]) / math.log(2) for i in range(2)]
    assert all(abs(s - 2.0) <= 0.1 for s in slopes), f"homogeneity slopes {slopes}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over budget"
    report(
        9,
        f"orders {orders[0]:.2f}/{orders[1]:.2f}, manufactured err {mms_err:.1e}, "
        f"mass conserved, homogeneity {slopes[0]:.3f}, {elapsed:.1f}s",
    )


def _manufactured_solution_error() -> float:
    sympy = pytest.importorskip("sympy")
    sp = sympy
    grid = Grid(d=1, n=128)
    eps = 0.5
    spec = ModelSpec(kind="nsc", d=1, eps=eps, visc_mu=0.5, visc_lam=0.0)
    al, be, ga, ka = spec.alpha, spec.beta, spec.gamma, spec.kappa
    mu, lam, nu = spec.visc_mu, spec.visc_lam, spec.nu

    x, t = sp.symbols("x t", real=True)
    A = sp.Rational(1, 20)
    a_e = A * sp.sin(x - t)
    v_e = A * sp.cos(x + 2 * t)
    th_e = A * sp.cos(x) * sp.cos(2 * t)
    q_e = A * sp.sin(2 * x - t)

    J = a_e / (1 + a_e)
    N = (2 * mu + lam) * sp.diff(v_e, x) ** 2 / nu
    F = -sp.diff(a_e * v_e, x)
    G = (
        -v_e * sp.diff(v_e, x)
        - J * sp.diff(v_e, x, 2)
        + J * sp.diff(a_e, x)
        - th_e * sp.diff(a_e, x) / (1 + a_e)
    )
    H = (
        -v_e * sp.diff(th_e, x)
        + be * J * sp.diff(q_e, x)
        + N / (1 + a_e)
        - ga * th_e * sp.diff(v_e, x)
    )
    I = -v_e * sp.diff(q_e, x)

    phi = [
        sp.diff(a_e, t) + sp.diff(v_e, x) - F,
        sp.diff(v_e, t) - sp.diff(v_e, x, 2) + sp.diff(a_e, x) + ga * sp.diff(th_e, x) - G,
        sp.diff(th_e, t) + be * sp.diff(q_e, x) + ga * sp.diff(v_e, x) - H,
        sp.diff(q_e, t) + (al / eps**2) * q_e + (ka / eps**2) * sp.diff(th_e, x) - I,
    ]
    xs = np.arange(grid.n) * grid.L / grid.n
    forcing_fns = [sp.lambdify((x, t), e, "numpy") for e in phi]
    exact_fns = [sp.lambdify((x, t), e, "numpy") for e in (a_e, v_e, th_e, q_e)]

    def forcing(tv):
        return np.stack(
            [to_spectral(grid, np.asarray(f(xs, tv), dtype=float) + 0.0 * xs).coeffs for f in forcing_fns]
        )

    def exact_state(tv):
        fields = (to_spectral(grid, np.asarray(f(xs, tv), dtype=float) + 0.0 * xs) for f in exact_fns)
        return State.from_stacked(grid, np.stack([f.coeffs for f in fields]), tv, True)

    cur = exact_state(0.0)
    nsteps = 2500
    dt = 1.0 / nsteps
    for _ in range(nsteps):
        cur = imex_step(cur, spec, dt, forcing=forcing)
    ref = exact_state(1.0)
    return max(
        float(np.max(np.abs(to_physical(a).real - to_physical(b).real)))
        for a, b in zip(cur.fields(), ref.fields())
    )


def test_c10_lyapunov_ode():
    t0 = time.perf_counter()
    spec = ModelSpec(kind="nsc", d=3, eps=1e-2)
    th = make_thresholds(8, 1, spec.eps)
    rep = lyapunov_ode_compare(spec, sharp_low_profile(1.5, 3), th)
    assert rep.monotone, "terminal functional increased somewhere"
    assert rep.max_envelope_violation <= 1e-12
    rel = abs(rep.tail_slope - rep.tail_slope_theory) / abs(rep.tail_slope_theory)
    assert rel <= 0.10, f"tail slope {rep.tail_slope} vs {rep.tail_slope_theory}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"
    report(10, f"monotone, envelope respected, tail slope {rep.tail_slope:.4f} ({rel:.1%} off), {elapsed:.1f}s")


def test_c11_determinism(tmp_path):
    import hashlib

    import yaml

    from nsclab.cli import EXIT_OK, main

    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "model": {"kind": "nsc", "d": 2, "eps": 0.0625},
                "grid": {"n": 32},
                "seed": 424242,
                "study": {"bernstein": {"trials": 10}},
            }
        )
    )
    digests = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(["bernstein", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        digests.append(
            {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        )
    assert digests[0] == digests[1]
    cfg2 = tmp_path / "cfg2.yaml"
    cfg2.write_text(
        yaml.safe_dump({"model": {"kind": "nsc", "d": 3, "eps": 0.05}, "seed": 7, "study": {"spectrum": {"count": 60}}})
    )
    digests2 = []
    for name in ("s_a", "s_b"):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg2), "--out", str(out)]) == EXIT_OK
        digests2.append(
            {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        )
    assert digests2[0] == digests2[1]
    elapsed = time.perf_counter() - t0
    report(11, f"byte-identical reruns for two studies, {elapsed:.1f}s")
