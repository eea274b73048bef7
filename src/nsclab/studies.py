"""End-to-end quantitative experiments: decay-exponent fits, relaxation
epsilon-sweeps, initial-layer measurements, and the Lyapunov-ODE comparison.

Decay and Lyapunov-ODE studies run on the whole-space radial semigroup
(no grid, no time discretization error); relaxation sweeps and layer fits
run the exact linear flow on the torus.  Fits report r^2.  Both
radial studies read the per-band norms of `RadialFlow.band_norms`: a decay
fit sums them (squares at p = 2, the band-weighted proxy at p > 2), and
the terminal functional `lyapunov_l1` is `_lyapunov_table`, which the
`diagnostics` engine evaluates on the flow's bands at each sample time.

The layer fit and the linear p = 2 relaxation sweep step no state: the
layer's |Q(t)|^2 over every key, zero mode included, and each piece of the
sweep's error functional are sums of squared rows of the exact flow, read
from the data's per-radius Gram factors (evolve._flow_band_sums).  Other
sweeps stream sampled torus trajectories in lockstep and keep only
per-snapshot values.  Both sweeps hand per-band norms of four groups to the
`diagnostics` engine, which evaluates the seven pieces of `_error_table`
and reduces them in time.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .besov import Thresholds, ThresholdOrderError, grid_band_range, make_thresholds
from .besov import besov_seminorm  # noqa: F401  (perfbench/tracer.py wraps studies.besov_seminorm)
from .diagnostics import _evaluate, _flow_squares, _snapshot_values, _table_weights, _time_reduce, effective_unknowns
from .evolve import (
    LinearPropagator,
    RadialDataProfile,
    RadialFlow,
    _apply_modes,
    _flow_band_sums,
    _mode_blocks,
    _torus_kernel,
    _torus_measure,
    default_dt,
)
from . import evolve
from .evolve import mode_matrices  # noqa: F401  (perfbench/tracer.py wraps studies.mode_matrices)
from .model import ModelSpec, SystemKind, eigenvalues, symbol
from .spectral import Grid, SpectralField, State, _grad, random_field

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
    def relative_error(self) -> float:
        if self.exponent_theory == 0:
            return abs(self.exponent_fitted)
        return abs(self.exponent_fitted - self.exponent_theory) / abs(self.exponent_theory)


def theory_decay_exponent(d: int, p: float, sigma: float, sigma1: float) -> float:
    """Algebraic decay rate -d/2 (1/2 - 1/p) - (sigma + sigma1)/2."""
    return -0.5 * d * (0.5 - 1.0 / p) - 0.5 * (sigma + sigma1)


def _fit_line(x, y):
    """Least-squares slope and intercept of y against x, with r^2."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss if res.size and ss > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def fit_loglog(x, y):
    """Least-squares slope of log y against log x, with r^2."""
    return _fit_line(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)))


def _validate_decay_ranges(d: int, p: float, sigma: float, sigma1: float, t_count: int) -> str:
    """Raise ValueError, naming the argument first, unless decay_fit can fit
    on t_count samples; the note on a sigma beyond the stated window."""
    if t_count < 20:
        raise ValueError(f"t_count = {t_count}: decay fits need at least 20 samples")
    if not p >= 2:
        raise ValueError(f"p must be >= 2, got {p}")
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


def _check_reach(prof: RadialDataProfile, r_max: float) -> None:
    """The radial nodes must end above the data's support: a flow cut at an
    r_max where the profile is nonzero drops the data past it."""
    evolve._check_r_max(r_max)
    if np.any(prof.amplitude(np.array([r_max]))):
        raise ValueError(f"r_max must lie above the data's support, where the profile vanishes, got {r_max!r}")


def _check_data(flow: RadialFlow) -> None:
    """Data zero on every radial node stay zero: there is nothing to fit."""
    if not flow.support.size:
        raise ValueError("data profile is zero on every radial node: its norms are 0 at every t and have no decay to fit")


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
    p: float,
    sigma: float,
    t_grid=None,
    r_max: float = 10.0,
    nodes: int = 4096,
) -> DecayReport:
    """Fit the large-time algebraic decay of |Lambda^sigma (a, v)|_Lp and,
    where its window admits sigma, of |Lambda^sigma (theta, eps q)|_Lp.
    The dimension is spec.d and the low-frequency index sigma1 the one the
    data profile was built for; data zero on every radial node raise
    ValueError."""
    d, sigma1 = spec.d, prof.sigma1
    t_grid = np.asarray(np.logspace(1, 3, 25) if t_grid is None else t_grid, dtype=float)
    note = _validate_decay_ranges(d, p, sigma, sigma1, len(t_grid))
    theory = theory_decay_exponent(d, p, sigma, sigma1)
    with_tq = sigma <= d / p - 2.0 or spec.kind is SystemKind.NSC
    eps = spec.eps
    _check_reach(prof, r_max)
    flow = RadialFlow(spec, prof, r_max=r_max, nodes=nodes)
    _check_data(flow)
    lift = 2.0 ** (np.array(flow.bands) * (sigma + (d / 2.0 - d / p)))

    def norm(u, comps):
        """|Lambda^sigma comps|_L2 at p = 2, at p > 2 the band-summed proxy
        sum_j 2^(j(sigma + d/2 - d/p)) |comps_j|_L2."""
        if p == 2:
            return math.sqrt(np.sum(flow.band_norms(u, comps, sigma) ** 2))
        return float(flow.band_norms(u, comps) @ lift)

    vals_av, vals_tq = [], []
    for t in t_grid:
        u = flow.at(float(t))
        val = norm(u, ("a", "v"))
        if not np.isfinite(val) or (val == 0.0 and norm(flow.u0, ("a", "v")) > 0.0):
            raise FloatingPointError(f"radial quadrature underflow/overflow at t = {t}: norm = {val}")
        vals_av.append(val)
        if not with_tq:
            continue
        if spec.kind is SystemKind.NSC:
            vals_tq.append(math.sqrt(norm(u, ("theta",)) ** 2 + (eps * norm(u, ("q",))) ** 2))
        else:
            vals_tq.append(norm(u, ("theta",)))
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
    return tuple(SpectralField(theta.grid, -(spec.kappa / spec.alpha) * g) for g in _grad(theta.grid, theta.coeffs))


def scaled_flux_state(base: State, spec: ModelSpec) -> State:
    """Ill-prepared data with fixed energy: q0 = (eps q template)/eps.

    base.q carries the epsilon-weighted flux template, so the energy-norm
    content eps*q0 is the same for every run of an epsilon sweep while the
    damped mode Q(0) grows like 1/eps.
    """
    if base.q is None:
        raise ValueError("base state carries no flux template")
    u = base.u.copy()
    u[2 + base.grid.d :] /= spec.eps
    return State.from_stacked(base.grid, u, 0.0, True)


def slow_projection(state: State, spec: ModelSpec) -> State:
    """Remove the fast relaxation eigendirections mode by mode.

    Eigendirections with Re(lambda) < -0.4 alpha/eps^2 are
    zeroed; what remains is the slow spectral subspace (Fourier-law manifold
    up to O(eps^2)).  The longitudinal part projects with one spectral
    projector V diag(Re lambda >= -cut) V^-1 per lattice radius; the
    transverse velocity (rate (mu/nu)|k|^2) is kept where it is slow and the
    transverse flux (rate alpha/eps^2) only if the cut lies beyond it.
    V and V^-1 are the torus kernel's; only its expm fallback radii, where
    the kernel keeps V = I, take their own eigendecomposition.
    Result is re-hermitized.
    """
    kernel, r, radius, khat = _torus_kernel(spec, state.grid)
    cut = 0.4 * spec.alpha / spec.eps**2
    proj = ((kernel.vecs * (kernel.lam.real >= -cut)[:, None, :]) @ kernel.vinv).real
    if kernel.fallback.size:
        lam, vecs = np.linalg.eig(kernel.mats[kernel.fallback])
        vecs = vecs.astype(kernel.vecs.dtype)  # complex if any block of the stack is, as one eig of all
        proj[kernel.fallback] = ((vecs * (lam.real >= -cut)[:, None, :]) @ np.linalg.inv(vecs)).real
    keep_v = (spec.mu_over_nu * r**2 <= cut).astype(float)[radius]
    keep_q = float(spec.damping_rate <= cut) if spec.kind is SystemKind.NSC else 0.0
    arr = _apply_modes(_mode_blocks(proj, radius), keep_v, keep_q, khat, state.u)
    return State.from_stacked(state.grid, arr, state.time, state.has_flux).hermitized()


# ---------------------------------------------------------------------------
# Relaxation sweep.


def graded_times(eps: float, alpha: float, T: float):
    """Uniform segments of 80, 100 and 70 steps, refined inside the initial
    layer: the damped mode decays at rate alpha/eps^2 and its time integral
    must be resolved."""
    t1 = min(20.0 * eps**2 / alpha, 0.5 * T)
    t2 = min(max(0.5, 2.0 * t1), T)
    segs = [np.linspace(0.0, t1, 81)]
    if t2 > t1:
        segs.append(np.linspace(t1, t2, 101))
    if T > t2:
        segs.append(np.linspace(t2, T, 71))
    return segs


def _walk_segments(state0: State, segments, advance):
    """Yield state0, then the states advance(cur, seg, targets) yields for
    each segment of two or more times; targets leave out seg[0] when the
    walk already stands there."""
    cur = state0
    yield cur
    for seg in (s for s in segments if len(s) >= 2):
        at_start = abs(cur.time - seg[0]) <= 1e-13 * max(1.0, abs(seg[0]))
        for cur in advance(cur, seg, seg[1:] if at_start else seg):
            yield cur


def sampled_linear_trajectory(state0: State, spec: ModelSpec, segments):
    """Exact linear flow sampled along piecewise-uniform time segments:
    yields state0, then one state per sample time, each segment stepped by
    one LinearPropagator."""

    def advance(cur, seg, targets):
        prop = LinearPropagator(spec, cur.grid, float(seg[1] - seg[0]))
        for _ in targets:
            cur = prop.step(cur)
            yield cur

    return _walk_segments(state0, segments, advance)


def sampled_nonlinear_trajectory(state0: State, spec: ModelSpec, segments, dt_max: float):
    """Nonlinear flow sampled at the segment times: yields state0, then one
    state per sample time, each snapshot interval covered by one ImexStep's
    uniform sub-steps no longer than dt_max."""

    def advance(cur, seg, targets):
        for target in targets:
            span = float(target) - cur.time
            if span <= 0:
                continue
            nsub = max(1, int(math.ceil(span / dt_max)))
            cur = evolve.ImexStep(spec, cur.grid, span / nsub).run(cur, nsub)
            yield cur

    return _walk_segments(state0, segments, advance)


def _error_table(d: int, p: float) -> tuple:
    """The seven pieces of the relaxation error, a `diagnostics` table:
    semi-norms of the difference (a, v, theta) at p = 2 and of the damped
    mode Q, the difference a and the difference (v, theta) at p ("all" picks
    every band under either convention)."""
    return (
        ("low_Linf", "diff", "low", d / 2 - 2, 1.0, "Linf"),
        ("low_L1", "diff", "low", d / 2, 1.0, "L1"),
        ("damped_mode_L1", "Q", "all", d / p - 1, 1.0, "L1"),
        ("high_a_Linf", "a", "medhigh", d / p - 1, 1.0, "Linf"),
        ("high_a_L1", "a", "medhigh", d / p - 1, 1.0, "L1"),
        ("high_vtheta_Linf", "vtheta", "medhigh", d / p - 2, 1.0, "Linf"),
        ("high_vtheta_L1", "vtheta", "medhigh", d / p, 1.0, "L1"),
    )


def _error_parts(table: tuple, times, columns) -> dict:
    """The pieces reduced in time and their 'total'."""
    parts = _time_reduce(table, times, columns)
    parts["total"] = sum(parts.values())
    return parts


def error_functional(nsc_traj, nsf_traj, spec: ModelSpec, th: Thresholds, p: float) -> dict:
    """Relaxation error functional between paired trajectories.

    Low-frequency sup/L1 pieces of the difference (a, v, theta), the
    all-frequency L1 of the damped mode alpha q + kappa grad theta, and the
    high-part (j >= J0) pieces of the difference.  The trajectories may be
    any iterables at strictly increasing times, streamed in step; each
    snapshot pair is reduced to its values at once.  Returns the per-piece
    breakdown with key 'total'.
    """
    return _paired_error_parts([nsc_traj], nsf_traj, spec, th, p)[0]


def _paired_error_parts(nsc_trajs, nsf_traj, spec: ModelSpec, th: Thresholds, p: float) -> list:
    """error_functional of each relaxing trajectory against the one
    Fourier-law trajectory, all streamed in step; each Fourier-law snapshot
    serves every relaxing run at its time."""
    table, times, values = _error_table(spec.d, p), [], [[] for _ in nsc_trajs]
    for sf, *nscs in itertools.zip_longest(nsf_traj, *nsc_trajs):
        if sf is None or any(sn is None or not np.isclose(sn.time, sf.time, rtol=1e-10, atol=1e-12) for sn in nscs):
            raise ValueError("paired trajectories must share their snapshot times")
        times.append(nscs[0].time)
        for out, sn in zip(values, nscs):
            diff = sn.u[: 2 + spec.d] - sf.u  # (a, v, theta)
            groups = {"diff": (diff, 2), "Q": (effective_unknowns(sn, spec)._Q, p), "a": (diff[:1], p), "vtheta": (diff[1:], p)}
            out.append(_snapshot_values(table, sn.grid, th, groups))
    return [_error_parts(table, times, zip(*rows)) for rows in values]


def _trajectory_error_parts(base: State, spec: ModelSpec, th: Thresholds, segs, p: float, well_prepared: bool, nonlinear: bool) -> list:
    """error_functional of the ill-prepared (and well-prepared) run against
    the Fourier-law run, all three stepped in lockstep along `segs`."""
    nsf_state = State.from_stacked(base.grid, base.u[: 2 + spec.d], 0.0, False)
    starts = [scaled_flux_state(base, spec)]
    if well_prepared:
        starts.append(State(a=base.a, v=base.v, theta=base.theta, q=well_prepared_flux(base.theta, spec)))
    if nonlinear:
        dt_max = default_dt(starts[0], spec)
        flow = lambda st, sp: sampled_nonlinear_trajectory(st, sp, segs, dt_max)
    else:
        flow = lambda st, sp: sampled_linear_trajectory(st, sp, segs)
    return _paired_error_parts([flow(st, spec) for st in starts], flow(nsf_state, spec.to_nsf()), spec, th, p)


def _gram_error_parts(measure, spec: ModelSpec, th: Thresholds, times, well_prepared: bool) -> list:
    """error_functional at p = 2 of the ill-prepared (and well-prepared)
    run against the Fourier-law run at `times`, from the Gram factors F of
    the sweep data: per key the ill-prepared data is diag(1, 1, 1, 1/eps) F,
    the well-prepared has sigma0 = (kappa/alpha) w |k| theta0, and both
    share the Fourier-law term, the first three rows of F.  The rows of
    B(t) D - [B_NSF(t) 0] F are the (a, k.v, theta) differences, and
    (0, 0, -kappa w |k|, alpha) B(t) D plus alpha P q the damped mode (the
    transverse velocity is the same in both runs)."""
    f, rw = measure.factor, measure.k * measure.weight
    data = np.repeat(f[None], 1 + well_prepared, axis=0)  # ill-prepared, then well-prepared
    data[0, :, 3] /= spec.eps
    data[1:, :, 3] = (spec.kappa / spec.alpha) * rw[:, None] * f[:, 2]
    rows = np.tile(np.eye(4), (rw.size, 1, 1))  # (a, k.v, theta, damped mode)
    rows[:, 3, 2], rows[:, 3, 3] = -spec.kappa * rw, spec.alpha
    perp = np.zeros((len(data), 4, 2))
    perp[0, 3, 1] = (spec.alpha / spec.eps) ** 2
    terms = [(spec, rows, data), (spec.to_nsf(), -np.eye(4, 3), f[:, :3])]
    table = _error_table(measure.grid.d, 2.0)
    weights = _table_weights(table, grid_band_range(measure.grid), th)
    parts = []
    for s in _flow_band_sums(measure, terms, times, perp):  # (T, 4, nbands): |a|^2, |k.v|^2, |theta|^2 of the difference and |Q|^2
        a, v, theta, q = np.moveaxis(s, 1, 0)
        norms = {g: np.sqrt(x) for g, x in (("diff", a + v + theta), ("Q", q), ("a", a), ("vtheta", v + theta))}
        parts.append(_error_parts(table, times, _evaluate(table, weights, norms)))
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


def _validate_sweep(spec: ModelSpec, n: int, eps_list, p: float, nonlinear: bool, K: int, k: float) -> None:
    """Raise ValueError, naming the argument first, for a sweep that
    relax_sweep refuses for the model of spec on a grid of n points per axis:
    its slope fit needs two eps whose thresholds (K, k, eps) keep J0 <= Jeps."""
    if not (spec.kind is SystemKind.NSC and spec.alpha > 0 and spec.kappa > 0):  # to_nsf and graded_times need them
        raise ValueError(f"spec must be the relaxing system with a Fourier-law limit (model.kind: nsc, alpha and kappa > 0), got {spec.kind.value} with alpha = {spec.alpha}, kappa = {spec.kappa}")
    if not 2.0 <= p <= 4.0:
        raise ValueError(f"p must lie in [2, 4], got {p}")
    if len(set(eps_list)) < 2 or not all(e > 0 for e in eps_list):
        raise ValueError(f"eps_list must hold at least two distinct positive values, got {eps_list}")
    if nonlinear and (spec.d > 2 or n > 256):
        raise ValueError(f"nonlinear sweeps run only at d <= 2 and n <= 256, got d = {spec.d}, n = {n}")
    kept = 0
    for eps in set(eps_list):
        with contextlib.suppress(ThresholdOrderError):
            make_thresholds(K, k, eps)
            kept += 1
    if kept < 2:
        raise ValueError(f"eps_list must hold two eps whose thresholds keep J0 <= Jeps at K = {K}, k = {k}; {kept} of {sorted(set(eps_list))} do")


def relax_sweep(
    base: State,
    spec: ModelSpec,
    eps_list,
    T: float = 4.0,
    p: float = 2.0,
    K: int = 8,
    k: float = 1.0,
    compare_well_prepared: bool = True,
    nonlinear: bool = False,
) -> RelaxReport:
    """Relaxation sweep: for each eps evolve the relaxing system of spec,
    its eps replaced, from ill-prepared data (fixed eps*q0 template in
    base.q) and its Fourier-law limit from the shared (a, v, theta) data;
    accumulate the error functional and fit its slope against eps.

    Default runs are linear (exact per-mode propagation, no time
    discretization error); at p = 2 they step no state (_gram_error_parts).
    Other p step the Fourier-law, ill-prepared and well-prepared
    trajectories in lockstep and reduce each snapshot to scalars as soon as
    it is made, so memory stays at a few states whatever the number of
    samples.

    nonlinear=True integrates both systems with the IMEX stepper instead,
    in the lockstep loop; this is restricted to d <= 2 and n <= 256 and the
    report is labeled experimental (outside the decay-theory hypotheses).
    Threshold-invalid eps values are skipped and reported; a sweep with
    fewer than two valid ones is refused before any eps is evaluated.
    """
    eps_list = sorted(set(float(e) for e in eps_list), reverse=True)
    _validate_sweep(spec, base.grid.n, eps_list, p, nonlinear, K, k)
    if not base.u.any():
        raise ValueError("base data are identically zero: the error is 0 at every eps and has no slope")
    xt, wp, rows, skipped, used = [], [], [], [], []
    measure = _torus_measure(base) if p == 2 and not nonlinear else None
    for eps in eps_list:
        spec = replace(spec, eps=eps)
        try:
            th = make_thresholds(K, k, eps)
        except ThresholdOrderError as exc:
            skipped.append({"eps": eps, "reason": str(exc)})
            continue
        segs = graded_times(eps, spec.alpha, T)
        if measure is not None:
            # graded_times' segments are contiguous: each starts where the last ends
            times = np.concatenate([segs[0], *(seg[1:] for seg in segs[1:])])
            parts = _gram_error_parts(measure, spec, th, times, compare_well_prepared)
        else:
            parts = _trajectory_error_parts(base, spec, th, segs, p, compare_well_prepared, nonlinear)
        xt.append(parts[0]["total"])
        rows.append({"eps": eps, **parts[0]})
        used.append(eps)
        if compare_well_prepared:
            wp.append(parts[1]["total"])
    slope, _, _ = fit_loglog(used, xt)
    return RelaxReport(
        eps_values=used,
        xtilde_values=xt,
        slope_fitted=slope,
        well_prepared_values=wp if compare_well_prepared else None,
        breakdown=rows,
        skipped=skipped,
        label="experimental: nonlinear sweep outside the decay-theory hypotheses" if nonlinear and spec.d < 3 else "",
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
    """|Q|_L2 of layer data on the lattice, where exactly well-prepared data read 0 and are refused."""
    q0 = math.sqrt(sum(f.l2_norm() ** 2 for f in effective_unknowns(state, spec).Q))
    if q0 == 0.0:
        raise ValueError("ill_prepared_state is exactly well-prepared: no layer to fit")
    return q0


def _dominant_mode_fast_rate(state: State, spec: ModelSpec) -> float:
    """-Re of the fastest eigenvalue at the mode carrying most damped-mode
    energy; the oracle for the layer decay rate."""
    es = effective_unknowns(state, spec)
    energy = sum(np.abs(f.coeffs) ** 2 for f in es.Q)
    idx = np.unravel_index(np.argmax(energy), energy.shape)
    xi = np.array([w[idx] for w in state.grid.wavevectors()])
    eigs = eigenvalues(symbol(spec, xi))
    return -float(np.min(eigs.real))


def _validate_layer(efolds: float, samples: int) -> None:
    if not efolds > 0:
        raise ValueError(f"efolds must be positive, got {efolds}")
    if samples < 50:
        raise ValueError(f"samples = {samples}: need at least 50 samples inside the layer window")


def initial_layer(
    spec: ModelSpec,
    ill_prepared_state: State,
    n_efolds: float = 5.0,
    samples: int = 60,
) -> LayerReport:
    """Fit the exponential collapse rate of |Q(t)|_L2 over the layer window
    [0, n_efolds * eps^2/alpha], read from the data's Gram factors over
    every key, the mean's included (_flow_squares; no state is stepped),
    and compare to the fast-eigenvalue oracle of the dominant mode.  Raises
    LayerResolutionError when the fit is not clean (r^2 < 0.99)."""
    _validate_layer(n_efolds, samples)
    q0 = _q_l2(ill_prepared_state, spec)
    window = n_efolds / (spec.alpha / spec.eps**2)
    times = np.fromiter(itertools.accumulate(itertools.repeat(window / samples, samples), initial=ill_prepared_state.time), float)
    measure = _torus_measure(ill_prepared_state)  # one all-keys band row sums every key, the zero mode's too
    vals = np.sqrt(_flow_squares(replace(measure, band=np.ones((1, measure.radius.size))), spec, times - times[0])["Q"][:, 0])
    slope, _, r2 = _fit_line(times, np.log(vals))
    if r2 < 0.99:
        raise LayerResolutionError(
            f"layer fit r^2 = {r2:.4f} < 0.99: the time grid does not resolve the layer"
        )
    oracle = _dominant_mode_fast_rate(ill_prepared_state, spec)
    return LayerReport(
        rate_fitted=-slope,
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
    fine_spec = replace(spec, eps=spec.eps / factor)
    rep1 = initial_layer(spec, ill_prepared_state)
    rep2 = initial_layer(fine_spec, ill_prepared_state)
    return LayerScalingReport(
        eps_coarse=spec.eps, eps_fine=fine_spec.eps, rate_coarse=rep1.rate_fitted, rate_fine=rep2.rate_fitted
    )


# ---------------------------------------------------------------------------
# Terminal Lyapunov ODE comparison.


def _lyapunov_table(d: int, eps: float) -> tuple:
    """The terminal decay functional, a `diagnostics` table read at one time:
    the low group (a, v, theta, eps q), the medium a, w, eps Q and theta at
    L^p-type exponents, and the high eps a, eps^2 theta, eps^3 q and eps w.

    The medium pieces sit at d/p, d/p - 1 and d/p - 2; the radial flow
    measures them in L2, which Bernstein's inequality on a band lifts by
    d/2 - d/p.  The two d/p cancel, so the L2 proxy reads d/2, d/2 - 1 and
    d/2 - 2 whatever p."""
    return (
        ("low_state", "state", "low", d / 2 - 1, 1.0, None),
        ("med_a", "a", "med", d / 2, 1.0, None),
        ("med_w", "w", "med", d / 2 - 1, 1.0, None),
        ("med_Q", "Q", "med", d / 2 - 2, eps, None),
        ("med_theta", "theta", "med", d / 2 - 2, 1.0, None),
        ("high_a", "a", "high", d / 2 + 1, eps, None),
        ("high_theta", "theta", "high", d / 2 + 1, eps**2, None),
        ("high_q", "q", "high", d / 2 + 1, eps**3, None),
        ("high_w", "w", "high", d / 2, eps, None),
    )


def lyapunov_l1(flow: RadialFlow, th: Thresholds, t: float) -> float:
    """The terminal decay functional: epsilon-weighted regime semi-norms of
    (a, v, theta, q, w, Q) summed over the low, medium and high bands of the
    overlapping split, which repeats J0 and Jeps - 1, Jeps."""
    eps = flow.spec.eps
    table = _lyapunov_table(flow.spec.d, eps)
    u = flow.at(t)
    norms = {c: flow.band_norms(u, (c,)) for c in ("a", "theta", "q", "w", "Q")}
    norms["state"] = flow.band_norms(u * [1.0, 1.0, 1.0, eps], ("a", "v", "theta", "q"))  # q scaled by eps
    return float(sum(_evaluate(table, _table_weights(table, flow.bands, th), norms)))


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


def _tail_samples(t_grid: np.ndarray) -> np.ndarray:
    """The samples t >= 50 that the tail slope is fitted on, at least two."""
    tail = t_grid >= 50.0
    if np.count_nonzero(tail) < 2:
        raise ValueError(f"t_count = {len(t_grid)} leaves {np.count_nonzero(tail)} samples at t >= 50; the tail slope needs two")
    return tail


def _ode_exponent(d: int, sigma1: float) -> float:
    """m = 2/(d/2 - 1 + sigma1) of the Lyapunov ODE; ValueError unless
    sigma1 > 1 - d/2, the edge below which m is not positive."""
    if not sigma1 > 1.0 - d / 2.0:
        raise ValueError(f"sigma1 = {sigma1} must exceed 1 - d/2 = {1.0 - d / 2.0}, where m = 2/(d/2 - 1 + sigma1) is positive")
    return 2.0 / (d / 2.0 - 1.0 + sigma1)


def lyapunov_ode_compare(
    spec: ModelSpec,
    prof: RadialDataProfile,
    th: Thresholds,
    t_grid=None,
    r_max: float = 64.0,
    nodes: int = 4096,
) -> OdeCompareReport:
    """Evaluate the terminal Lyapunov functional along the zero-source
    radial flow, fit the largest c0 keeping dL/dt + c0 L^(1+m) <= 0, and
    overlay the closed-form solution of the fitted ODE.

    m = 2/(d/2 - 1 + sigma1), d = spec.d and sigma1 the profile's (it must
    exceed 1 - d/2); the ODE envelope implies a large-time power
    t^(-1/m) = t^(-(d/2 - 1 + sigma1)/2), whose slope is fitted on t >= 50.
    Data zero on every radial node raise ValueError; a functional not
    finite and positive raises FloatingPointError.
    """
    d, sigma1 = spec.d, prof.sigma1
    m_exp = _ode_exponent(d, sigma1)
    t_grid = np.asarray(np.logspace(0, 3, 40) if t_grid is None else t_grid, dtype=float)
    tail = _tail_samples(t_grid)
    _check_reach(prof, r_max)
    flow = RadialFlow(spec, prof, r_max=r_max, nodes=nodes)
    _check_data(flow)
    l1 = np.array([lyapunov_l1(flow, th, float(t)) for t in t_grid])
    bad = np.flatnonzero(~(np.isfinite(l1) & (l1 > 0.0)))
    if bad.size:
        raise FloatingPointError(f"radial quadrature underflow/overflow at t = {t_grid[bad[0]]}: functional = {l1[bad[0]]}")
    monotone = bool(np.all(np.diff(l1) <= 0.0))

    dl = np.gradient(l1, t_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = -dl / l1 ** (1.0 + m_exp)
    c0 = float(np.min(ratios[np.isfinite(ratios)]))
    envelope = (l1[0] ** (-m_exp) + c0 * m_exp * (t_grid - t_grid[0])) ** (-1.0 / m_exp)
    violation = float(np.max(l1 - envelope))

    slope, _, _ = fit_loglog(t_grid[tail], l1[tail])
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
