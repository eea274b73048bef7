"""End-to-end quantitative experiments: decay-exponent fits, relaxation
epsilon-sweeps, initial-layer measurements, and the Lyapunov-ODE comparison.

Decay and Lyapunov-ODE studies run on the whole-space radial semigroup
(no grid, no time discretization error); relaxation sweeps and layer fits
run the exact per-mode linear flow on the torus.  Fits report r^2 and are
flagged pre-asymptotic below 0.98.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .besov import Thresholds, ThresholdOrderError, besov_seminorm, make_thresholds
from .diagnostics import effective_unknowns
from .evolve import (
    LinearPropagator,
    RadialDataProfile,
    RadialFlow,
    _apply_modes,
    _mode_blocks,
    _torus_kernel,
    linear_trajectory,
)
from .evolve import mode_matrices  # noqa: F401  (perfbench/tracer.py wraps studies.mode_matrices)
from .model import ModelSpec, SystemKind, eigenvalues, symbol
from .spectral import Grid, SpectralField, State, apply_multiplier, random_field

__all__ = [
    "FitResult",
    "DecayReport",
    "RelaxReport",
    "LayerReport",
    "LayerScalingReport",
    "OdeCompareReport",
    "LayerResolutionError",
    "theory_decay_exponent",
    "fit_loglog",
    "decay_fit",
    "random_state",
    "well_prepared_flux",
    "scaled_flux_state",
    "slow_projection",
    "graded_times",
    "sampled_linear_trajectory",
    "sampled_nonlinear_trajectory",
    "error_functional",
    "relax_sweep",
    "initial_layer",
    "layer_scaling",
    "lyapunov_l1",
    "lyapunov_ode_compare",
]

R2_CLEAN = 0.98


class LayerResolutionError(RuntimeError):
    """The fine time grid did not resolve the initial layer (r^2 < 0.99)."""


@dataclass(frozen=True)
class FitResult:
    exponent_fitted: float
    exponent_theory: float
    r_squared: float
    fit_window: tuple
    samples: int
    label: str = ""
    range_note: str = ""

    @property
    def clean(self) -> bool:
        return self.r_squared >= R2_CLEAN

    @property
    def relative_error(self) -> float:
        if self.exponent_theory == 0:
            return abs(self.exponent_fitted)
        return abs(self.exponent_fitted - self.exponent_theory) / abs(self.exponent_theory)


def theory_decay_exponent(d: int, p: float, sigma: float, sigma1: float) -> float:
    """Algebraic decay rate -d/2 (1/2 - 1/p) - (sigma + sigma1)/2."""
    return -0.5 * d * (0.5 - 1.0 / p) - 0.5 * (sigma + sigma1)


def fit_loglog(x, y):
    """Least-squares slope of log y against log x, with r^2."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(a, ly, rcond=None)
    ss = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss if res.size and ss > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _validate_decay_ranges(d: int, p: float, sigma: float, sigma1: float) -> str:
    sigma0 = 2.0 * d / p - d / 2.0
    if not (1.0 - d / 2.0 < sigma1 <= sigma0):
        raise ValueError(
            f"sigma1 = {sigma1} outside the admissible range "
            f"1 - d/2 < sigma1 <= 2d/p - d/2 = {sigma0}"
        )
    sigma1_tilde = sigma1 + d * (0.5 - 1.0 / p)
    if sigma <= -sigma1_tilde:
        raise ValueError(
            f"sigma = {sigma} outside the admissible range "
            f"sigma > -(sigma1 + d(1/2 - 1/p)) = {-sigma1_tilde}"
        )
    if sigma > d / p - 1.0:
        return (
            f"sigma = {sigma} exceeds the stated window sigma <= d/p - 1 = {d / p - 1}; "
            "linear-semigroup extrapolation (data compactly supported in frequency)"
        )
    return ""


@dataclass(frozen=True)
class DecayReport:
    density_velocity: FitResult
    temperature_flux: FitResult | None
    times: np.ndarray
    norms_av: np.ndarray
    norms_tq: np.ndarray | None


def decay_fit(
    spec: ModelSpec,
    prof: RadialDataProfile,
    d: int,
    p: float,
    sigma: float,
    sigma1: float,
    t_grid=None,
    r_max: float = 10.0,
    nodes: int = 4096,
) -> DecayReport:
    """Fit the large-time algebraic decay of |Lambda^sigma (a, v)|_Lp and,
    where its window admits sigma, of |Lambda^sigma (theta, eps q)|_Lp."""
    note = _validate_decay_ranges(d, p, sigma, sigma1)
    if abs(prof.sigma1 - sigma1) > 1e-12:
        raise ValueError("data profile was built for a different sigma1")
    if t_grid is None:
        t_grid = np.logspace(1, 3, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 20:
        raise ValueError(f"decay fits need at least 20 samples, got {len(t_grid)}")
    theory = theory_decay_exponent(d, p, sigma, sigma1)

    if spec.d != d:
        raise ValueError(f"spec dimension {spec.d} != requested {d}")
    with_tq = sigma <= d / p - 2.0 or spec.kind is SystemKind.NSC
    eps = spec.eps
    flow = RadialFlow(spec, prof, r_max=r_max, nodes=nodes)
    vals_av, vals_tq = [], []
    for t in t_grid:
        u = flow.at(float(t))
        vals_av.append(flow.checked_lp_norm(u, ("a", "v"), sigma, p, t))
        if not with_tq:
            continue
        if spec.kind is SystemKind.NSC:
            nt = flow.lp_norm(u, ("theta",), sigma, p)
            nq = flow.lp_norm(u, ("q",), sigma, p)
            vals_tq.append(math.sqrt(nt**2 + (eps * nq) ** 2))
        else:
            vals_tq.append(flow.lp_norm(u, ("theta",), sigma, p))
    norms_av = np.asarray(vals_av)
    slope, _, r2 = fit_loglog(1.0 + t_grid, norms_av)
    window = (float(t_grid[0]), float(t_grid[-1]))
    fit_av = FitResult(slope, theory, r2, window, len(t_grid), label="(a,v)", range_note=note)

    fit_tq = None
    norms_tq = None
    if with_tq:
        norms_tq = np.asarray(vals_tq)
        slope2, _, r2b = fit_loglog(1.0 + t_grid, norms_tq)
        note2 = note
        if sigma > d / p - 2.0:
            note2 = (
                f"sigma = {sigma} exceeds the stated window sigma <= d/p - 2 = {d / p - 2} "
                "for the (theta, eps q) pair; linear-semigroup extrapolation"
            )
        fit_tq = FitResult(slope2, theory, r2b, window, len(t_grid), label="(theta,eps q)", range_note=note2)
    return DecayReport(fit_av, fit_tq, t_grid, norms_av, norms_tq)


# ---------------------------------------------------------------------------
# Torus data preparation.


def random_state(grid: Grid, rng: np.random.Generator, amp: float = 1e-2, decay: float = 3.0, with_flux: bool = True) -> State:
    d = grid.d
    mk = lambda: random_field(grid, rng, amp, decay)
    return State(
        a=mk(),
        v=tuple(mk() for _ in range(d)),
        theta=mk(),
        q=tuple(mk() for _ in range(d)) if with_flux else None,
    )


def well_prepared_flux(theta: SpectralField, spec: ModelSpec) -> tuple:
    """Fourier-law flux q = -(kappa/alpha) grad theta (damped mode Q = 0)."""
    grad = apply_multiplier(theta, "grad")
    return tuple(SpectralField(theta.grid, -(spec.kappa / spec.alpha) * g.coeffs) for g in grad)


def scaled_flux_state(base: State, spec: ModelSpec) -> State:
    """Ill-prepared data with fixed energy: q0 = (eps q template)/eps.

    base.q carries the epsilon-weighted flux template, so the energy-norm
    content eps*q0 is the same for every run of an epsilon sweep while the
    damped mode Q(0) grows like 1/eps.
    """
    if base.q is None:
        raise ValueError("base state carries no flux template")
    q0 = tuple(SpectralField(base.grid, f.coeffs / spec.eps) for f in base.q)
    return State(a=base.a.copy(), v=tuple(f.copy() for f in base.v), theta=base.theta.copy(), q=q0)


def slow_projection(state: State, spec: ModelSpec, cut_fraction: float = 0.4) -> State:
    """Remove the fast relaxation eigendirections mode by mode.

    Eigendirections with Re(lambda) < -cut_fraction * alpha/eps^2 are
    zeroed; what remains is the slow spectral subspace (Fourier-law manifold
    up to O(eps^2)).  The longitudinal part projects with one spectral
    projector V diag(Re lambda >= -cut) V^-1 per lattice radius; the
    transverse velocity (rate (mu/nu)|k|^2) is kept where it is slow and the
    transverse flux (rate alpha/eps^2) only if the cut lies beyond it.
    Result is re-hermitized.
    """
    kernel, r, radius, khat = _torus_kernel(spec, state.grid)
    cut = cut_fraction * spec.alpha / spec.eps**2
    lam, vecs = np.linalg.eig(kernel.mats)
    proj = ((vecs * (lam.real >= -cut)[:, None, :]) @ np.linalg.inv(vecs)).real
    keep_v = (spec.mu_over_nu * r**2 <= cut).astype(float)[radius]
    keep_q = float(spec.damping_rate <= cut) if spec.kind is SystemKind.NSC else 0.0
    arr = _apply_modes(_mode_blocks(proj, radius), keep_v, keep_q, khat, state.stacked())
    st = State.from_stacked(state.grid, arr, state.time, state.has_flux)
    return State(
        a=st.a.hermitized(),
        v=tuple(f.hermitized() for f in st.v),
        theta=st.theta.hermitized(),
        q=tuple(f.hermitized() for f in st.q) if st.q is not None else None,
        time=st.time,
    )


# ---------------------------------------------------------------------------
# Relaxation sweep.


def graded_times(eps: float, alpha: float, T: float, layer_steps: int = 80, mid_steps: int = 100, tail_steps: int = 70):
    """Uniform segments refined inside the initial layer: the damped mode
    decays at rate alpha/eps^2 and its time integral must be resolved."""
    t1 = min(20.0 * eps**2 / alpha, 0.5 * T)
    t2 = min(max(0.5, 2.0 * t1), T)
    segs = [np.linspace(0.0, t1, layer_steps + 1)]
    if t2 > t1:
        segs.append(np.linspace(t1, t2, mid_steps + 1))
    if T > t2:
        segs.append(np.linspace(t2, T, tail_steps + 1))
    return segs


def sampled_linear_trajectory(state0: State, spec: ModelSpec, segments) -> list:
    """Exact linear flow sampled along piecewise-uniform time segments."""
    out = [state0]
    for seg in segments:
        if len(seg) < 2:
            continue
        cur = out[-1]
        steps = len(seg) - 1 if abs(cur.time - seg[0]) <= 1e-13 * max(1.0, abs(seg[0])) else len(seg)
        out += linear_trajectory(cur, spec, float(seg[1] - seg[0]), steps)[1:]
    return out


def sampled_nonlinear_trajectory(state0: State, spec: ModelSpec, segments, dt_max: float) -> list:
    """Nonlinear flow sampled at the segment times; each snapshot interval
    is covered by uniform IMEX sub-steps no longer than dt_max."""
    from .evolve import imex_step

    out = [state0]
    cur = state0
    for seg in segments:
        if len(seg) < 2:
            continue
        start = 1 if abs(cur.time - seg[0]) <= 1e-13 * max(1.0, abs(seg[0])) else 0
        for target in seg[start:] if start else seg:
            span = float(target) - cur.time
            if span <= 0:
                continue
            nsub = max(1, int(math.ceil(span / dt_max)))
            dt = span / nsub
            for _ in range(nsub):
                cur = imex_step(cur, spec, dt)
            out.append(cur)
    return out


def error_functional(nsc_traj, nsf_traj, spec: ModelSpec, th: Thresholds, p: float) -> dict:
    """Relaxation error functional between paired trajectories.

    Low-frequency sup/L1 pieces of the difference (a, v, theta), the
    all-frequency L1 of the damped mode alpha q + kappa grad theta, and the
    high-part (j >= J0) pieces of the difference.  Returns the per-piece
    breakdown with key 'total'.
    """
    d = spec.d
    times = np.array([s.time for s in nsc_traj])
    tf = np.array([s.time for s in nsf_traj])
    if len(nsc_traj) != len(nsf_traj) or not np.allclose(times, tf, rtol=1e-10, atol=1e-12):
        raise ValueError("paired trajectories must share their snapshot times")
    lo_inf, lo_one, q_one, ha, hvt_inf, hvt_one = [], [], [], [], [], []
    for sn, sf in zip(nsc_traj, nsf_traj):
        grid = sn.grid
        pairs = list(zip([sn.a, *sn.v, sn.theta], [sf.a, *sf.v, sf.theta]))
        diff = [SpectralField(grid, x.coeffs - y.coeffs) for x, y in pairs]
        ta, tv, tth = diff[0], tuple(diff[1 : 1 + d]), diff[1 + d]
        q_mode = effective_unknowns(sn, spec).Q
        lo_inf.append(besov_seminorm((ta, *tv, tth), d / 2 - 2, 2, "low", th, overlap=True))
        lo_one.append(besov_seminorm((ta, *tv, tth), d / 2, 2, "low", th, overlap=True))
        q_one.append(besov_seminorm(q_mode, d / p - 1, p, "all", th))
        ha.append(besov_seminorm((ta,), d / p - 1, p, "medhigh", th, overlap=True))
        hvt_inf.append(besov_seminorm((*tv, tth), d / p - 2, p, "medhigh", th, overlap=True))
        hvt_one.append(besov_seminorm((*tv, tth), d / p, p, "medhigh", th, overlap=True))

    tz = lambda v: float(np.trapezoid(np.asarray(v), times))
    parts = {
        "low_Linf": float(np.max(lo_inf)),
        "low_L1": tz(lo_one),
        "damped_mode_L1": tz(q_one),
        "high_a_Linf": float(np.max(ha)),
        "high_a_L1": tz(ha),
        "high_vtheta_Linf": float(np.max(hvt_inf)),
        "high_vtheta_L1": tz(hvt_one),
    }
    parts["total"] = sum(parts.values())
    return parts


@dataclass
class RelaxReport:
    eps_values: list
    xtilde_values: list
    slope_fitted: float
    well_prepared_values: list | None
    breakdown: list
    skipped: list = field(default_factory=list)
    label: str = ""

    @property
    def monotone(self) -> bool:
        return all(b <= a * (1 + 1e-12) for a, b in zip(self.xtilde_values, self.xtilde_values[1:]))


def relax_sweep(
    base: State,
    d: int,
    eps_list,
    T: float = 4.0,
    p: float = 2.0,
    K: int = 8,
    k: float = 1.0,
    compare_well_prepared: bool = True,
    nonlinear: bool = False,
) -> RelaxReport:
    """Relaxation sweep: for each eps evolve the relaxing system from
    ill-prepared data (fixed eps*q0 template in base.q) and its Fourier-law
    limit from the shared (a, v, theta) data; accumulate the error
    functional and fit its slope against eps.

    Default runs are linear (exact per-mode propagation, no time
    discretization error).  nonlinear=True integrates both systems with the
    IMEX stepper instead; this is restricted to d <= 2 and n <= 256 and the
    report is labeled experimental (outside the decay-theory hypotheses).
    Threshold-invalid eps values are skipped and reported.
    """
    if nonlinear and (d > 2 or base.grid.n > 256):
        raise ValueError("nonlinear sweeps are limited to d <= 2 and n <= 256")
    eps_list = sorted(set(float(e) for e in eps_list), reverse=True)
    xt, wp, rows, skipped = [], [], [], []
    used = []
    nsf_state = State(a=base.a.copy(), v=tuple(f.copy() for f in base.v), theta=base.theta.copy(), q=None)
    for eps in eps_list:
        spec = ModelSpec(kind=SystemKind.NSC, d=d, eps=eps)
        try:
            th = make_thresholds(K, k, eps)
        except ThresholdOrderError as exc:
            skipped.append({"eps": eps, "reason": str(exc)})
            continue
        segs = graded_times(eps, spec.alpha, T)
        ill = scaled_flux_state(base, spec)
        if nonlinear:
            from .evolve import default_dt

            dt_max = default_dt(ill, spec)
            nsf_traj = sampled_nonlinear_trajectory(nsf_state, spec.to_nsf(), segs, dt_max)
            nsc_traj = sampled_nonlinear_trajectory(ill, spec, segs, dt_max)
        else:
            nsf_traj = sampled_linear_trajectory(nsf_state, spec.to_nsf(), segs)
            nsc_traj = sampled_linear_trajectory(ill, spec, segs)
        parts = error_functional(nsc_traj, nsf_traj, spec, th, p)
        xt.append(parts["total"])
        rows.append({"eps": eps, **parts})
        used.append(eps)
        if compare_well_prepared:
            st_wp = State(
                a=base.a.copy(),
                v=tuple(f.copy() for f in base.v),
                theta=base.theta.copy(),
                q=well_prepared_flux(base.theta, spec),
            )
            if nonlinear:
                wp_traj = sampled_nonlinear_trajectory(st_wp, spec, segs, dt_max)
            else:
                wp_traj = sampled_linear_trajectory(st_wp, spec, segs)
            wp.append(error_functional(wp_traj, nsf_traj, spec, th, p)["total"])
    if len(used) < 2:
        raise ValueError("need at least two threshold-valid eps values to fit a slope")
    slope, _, _ = fit_loglog(used, xt)
    return RelaxReport(
        eps_values=used,
        xtilde_values=xt,
        slope_fitted=slope,
        well_prepared_values=wp if compare_well_prepared else None,
        breakdown=rows,
        skipped=skipped,
        label="experimental: nonlinear sweep outside the decay-theory hypotheses" if nonlinear and d < 3 else "",
    )


# ---------------------------------------------------------------------------
# Initial layer.


@dataclass(frozen=True)
class LayerReport:
    rate_fitted: float
    rate_oracle: float
    r_squared: float
    window: tuple
    samples: int
    max_q_norm: float
    initial_q_norm: float
    times: tuple = ()
    q_norms: tuple = ()

    @property
    def relative_error(self) -> float:
        return abs(self.rate_fitted - self.rate_oracle) / abs(self.rate_oracle)


def _q_l2(state: State, spec: ModelSpec) -> float:
    es = effective_unknowns(state, spec)
    return math.sqrt(sum(f.l2_norm() ** 2 for f in es.Q))


def _dominant_mode_fast_rate(state: State, spec: ModelSpec) -> float:
    """-Re of the fastest eigenvalue at the mode carrying most damped-mode
    energy; the oracle for the layer decay rate."""
    es = effective_unknowns(state, spec)
    energy = sum(np.abs(f.coeffs) ** 2 for f in es.Q)
    idx = np.unravel_index(np.argmax(energy), energy.shape)
    xi = np.array([w[idx] for w in state.grid.wavevectors()])
    eigs = eigenvalues(symbol(spec, xi))
    return -float(np.min(eigs.real))


def initial_layer(
    spec: ModelSpec,
    ill_prepared_state: State,
    n_efolds: float = 5.0,
    samples: int = 60,
) -> LayerReport:
    """Fit the exponential collapse rate of |Q(t)|_L2 over the layer window
    [0, n_efolds * eps^2/alpha] and compare to the fast-eigenvalue oracle of
    the dominant mode.  Raises LayerResolutionError when the fit is not
    clean (r^2 < 0.99)."""
    if samples < 50:
        raise ValueError("need at least 50 samples inside the layer window")
    q0 = _q_l2(ill_prepared_state, spec)
    if q0 == 0.0:
        raise ValueError("state is exactly well-prepared: no layer to fit")
    rate0 = spec.alpha / spec.eps**2
    window = n_efolds / rate0
    dt = window / samples
    prop = LinearPropagator(spec, ill_prepared_state.grid, dt)
    cur = ill_prepared_state
    times, vals = [0.0], [q0]
    for _ in range(samples):
        cur = prop.step(cur)
        times.append(cur.time)
        vals.append(_q_l2(cur, spec))
    times = np.array(times)
    vals = np.array(vals)
    a = np.vstack([times, np.ones_like(times)]).T
    coef, res, *_ = np.linalg.lstsq(a, np.log(vals), rcond=None)
    ss = float(np.sum((np.log(vals) - np.log(vals).mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss if res.size and ss > 0 else 1.0
    if r2 < 0.99:
        raise LayerResolutionError(
            f"layer fit r^2 = {r2:.4f} < 0.99: the time grid does not resolve the layer"
        )
    oracle = _dominant_mode_fast_rate(ill_prepared_state, spec)
    return LayerReport(
        rate_fitted=-float(coef[0]),
        rate_oracle=oracle,
        r_squared=r2,
        window=(0.0, window),
        samples=samples + 1,
        max_q_norm=float(vals.max()),
        initial_q_norm=float(q0),
        times=tuple(float(t) for t in times),
        q_norms=tuple(float(v) for v in vals),
    )


@dataclass(frozen=True)
class LayerScalingReport:
    eps_coarse: float
    eps_fine: float
    rate_coarse: float
    rate_fine: float

    @property
    def ratio(self) -> float:
        return self.rate_fine / self.rate_coarse


def layer_scaling(spec: ModelSpec, ill_prepared_state: State, factor: float = 2.0) -> LayerScalingReport:
    """Layer rates at eps and eps/factor; the rate scales like 1/eps^2."""
    import dataclasses

    fine_spec = dataclasses.replace(spec, eps=spec.eps / factor)
    rep1 = initial_layer(spec, ill_prepared_state)
    rep2 = initial_layer(fine_spec, ill_prepared_state)
    return LayerScalingReport(
        eps_coarse=spec.eps, eps_fine=fine_spec.eps, rate_coarse=rep1.rate_fitted, rate_fine=rep2.rate_fitted
    )


# ---------------------------------------------------------------------------
# Terminal Lyapunov ODE comparison.


def lyapunov_l1(flow: RadialFlow, th: Thresholds, p: float, t: float) -> float:
    """The terminal decay functional: epsilon-weighted regime semi-norms of
    (a, v, theta, q, w, Q) combined across low/medium/high bands."""
    d, eps = flow.spec.d, flow.spec.eps
    j = np.array(flow.band_range())
    u = flow.at(t)
    a, v, theta, q, w, Q = (flow.band_l2_norms(u, (c,)) for c in ("a", "v", "theta", "q", "w", "Q"))
    shift = d / 2.0 - d / p
    low = 2.0 ** (j * (d / 2 - 1)) * np.sqrt(a**2 + v**2 + theta**2 + eps**2 * q**2)
    med = (
        2.0 ** (j * (d / p + shift)) * a
        + 2.0 ** (j * (d / p - 1 + shift)) * w
        + 2.0 ** (j * (d / p - 2 + shift)) * (eps * Q + theta)
    )
    high = eps * 2.0 ** (j * (d / 2 + 1)) * (a + eps * theta + eps**2 * q) + eps * 2.0 ** (j * (d / 2)) * w
    return float(
        np.sum(low[j <= th.J0]) + np.sum(med[(th.J0 <= j) & (j <= th.Jeps)]) + np.sum(high[j >= th.Jeps - 1])
    )


@dataclass
class OdeCompareReport:
    times: np.ndarray
    l1_values: np.ndarray
    c0_fitted: float
    envelope: np.ndarray
    max_envelope_violation: float
    tail_slope: float
    tail_slope_theory: float
    monotone: bool


def lyapunov_ode_compare(
    spec: ModelSpec,
    prof: RadialDataProfile,
    th: Thresholds,
    p: float,
    sigma1: float,
    t_grid=None,
    r_max: float = 64.0,
    nodes: int = 4096,
    tail_start: float = 50.0,
) -> OdeCompareReport:
    """Evaluate the terminal Lyapunov functional along the zero-source
    radial flow, fit the largest c0 keeping dL/dt + c0 L^(1+m) <= 0, and
    overlay the closed-form solution of the fitted ODE.

    m = 2/(d/2 - 1 + sigma1); the ODE envelope implies a large-time power
    t^(-1/m) = t^(-(d/2 - 1 + sigma1)/2).
    """
    d = spec.d
    if t_grid is None:
        t_grid = np.logspace(0, 3, 40)
    t_grid = np.asarray(t_grid, dtype=float)
    flow = RadialFlow(spec, prof, r_max=r_max, nodes=nodes)
    l1 = np.array([lyapunov_l1(flow, th, p, float(t)) for t in t_grid])
    monotone = bool(np.all(np.diff(l1) <= 0.0))

    m_exp = 2.0 / (d / 2.0 - 1.0 + sigma1)
    dl = np.gradient(l1, t_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = -dl / l1 ** (1.0 + m_exp)
    c0 = float(np.min(ratios[np.isfinite(ratios)]))
    envelope = (l1[0] ** (-m_exp) + c0 * m_exp * (t_grid - t_grid[0])) ** (-1.0 / m_exp)
    violation = float(np.max(l1 - envelope))

    sel = t_grid >= tail_start
    slope, _, _ = fit_loglog(t_grid[sel], l1[sel])
    return OdeCompareReport(
        times=t_grid,
        l1_values=l1,
        c0_fitted=c0,
        envelope=envelope,
        max_envelope_violation=violation,
        tail_slope=slope,
        tail_slope_theory=-(d / 2.0 - 1.0 + sigma1) / 2.0,
        monotone=monotone,
    )
