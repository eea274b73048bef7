"""Hypocoercivity diagnostics: effective unknowns, per-band perturbed energy
functionals, dissipation-inequality residuals, and the global solution
functional X accumulated along trajectories.

The low-band functional carries a band-weighted cross term
eta * 2^(-j) * int v_j . grad a_j (a plain 1/2 coefficient would not stay
equivalent to the squared norm on bands with 2^j >= 2), which keeps the
equivalence bracket [1 - 2 eta, 1 + 2 eta] valid on every band.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .besov import Thresholds, band_inner, band_lp_norm, band_project, besov_seminorm
from .model import ModelSpec, SystemKind
from .spectral import SpectralField, State, apply_multiplier, to_physical

__all__ = [
    "EffectiveState",
    "LyapunovValue",
    "XFunctional",
    "effective_unknowns",
    "curl_linf",
    "lyapunov_low",
    "lyapunov_high",
    "lyapunov_value",
    "dissipation_quantity",
    "calibrate_dissipation",
    "dissipation_residual",
    "damped_mode_rate",
    "functional_X",
]


@dataclass
class EffectiveState:
    """Damped mode Q = alpha q + kappa grad theta and effective velocity
    w = v + (-Lap)^-1 grad a (zero mode of w equals the zero mode of v).
    w is built from `base` on first access; most readers need only Q."""

    Q: tuple
    base: State

    @functools.cached_property
    def w(self) -> tuple:
        grad_a = apply_multiplier(self.base.a, "grad")
        return tuple(
            SpectralField(self.base.grid, v.coeffs + apply_multiplier(g, "inv_neg_laplacian").coeffs)
            for v, g in zip(self.base.v, grad_a)
        )


def effective_unknowns(state: State, spec: ModelSpec) -> EffectiveState:
    if not state.has_flux:
        raise ValueError("effective unknowns need the heat-flux components")
    grad_theta = apply_multiplier(state.theta, "grad")
    Q = tuple(
        SpectralField(state.grid, spec.alpha * q.coeffs + spec.kappa * g.coeffs)
        for q, g in zip(state.q, grad_theta)
    )
    return EffectiveState(Q=Q, base=state)


def curl_linf(fields) -> float:
    """Max spectral magnitude of the curl of a d-tuple (0 for d = 1)."""
    fields = tuple(fields)
    d = fields[0].grid.d
    if d == 1:
        return 0.0
    pairs = [(0, 1)] if d == 2 else [(0, 1), (0, 2), (1, 2)]
    worst = 0.0
    for i, j in pairs:
        dji = apply_multiplier(fields[j], "grad_j", j=i).coeffs
        dij = apply_multiplier(fields[i], "grad_j", j=j).coeffs
        worst = max(worst, float(np.max(np.abs(dji - dij))))
    return worst


@dataclass(frozen=True)
class LyapunovValue:
    j: int
    value: float
    parts: tuple  # (norm_part, cross_part, weight_part)


def lyapunov_low(state: State, j: int, eta: float = 0.25) -> LyapunovValue:
    """Band energy |(a_j, v_j, theta_j)|^2 plus the band-weighted cross term
    eta 2^(-j) int v_j . grad a_j; within [1-2 eta, 1+2 eta] of the norm part."""
    if not 0 < eta <= 0.25:
        raise ValueError(f"eta must lie in (0, 1/4], got {eta}")
    norm_part = band_lp_norm((state.a, *state.v, state.theta), j) ** 2
    cross = eta * 2.0 ** (-j) * band_inner(state.v, apply_multiplier(state.a, "grad"), j)
    return LyapunovValue(j=j, value=norm_part + cross, parts=(norm_part, cross, 0.0))


def lyapunov_high(
    state: State,
    j: int,
    eta: float,
    spec: ModelSpec,
    density_weight: bool = False,
) -> LyapunovValue:
    """High-band perturbed energy:
    |theta_j|^2 + int (1+J(a)) |eps q_j|^2 + eta 2^(-2j) int q_j . grad theta_j,
    equivalent to |(theta_j, eps q_j)|^2.  The density weight is switched off
    for linear studies (J computed from the instantaneous a otherwise)."""
    if not state.has_flux:
        raise ValueError("high-band functional needs the heat-flux components")
    eps = spec.eps
    theta_part = band_lp_norm(state.theta, j) ** 2
    flux_part = band_lp_norm(state.q, j) ** 2 * eps**2
    weight_part = 0.0
    if density_weight:
        a_phys = to_physical(state.a).real
        if np.max(np.abs(a_phys)) >= 1.0:
            raise ValueError("density weight undefined: |a| >= 1 somewhere")
        jw = a_phys / (1.0 + a_phys)
        grid = state.grid
        cell = (grid.L / grid.n) ** grid.d
        q_sq = sum(np.abs(to_physical(band_project(f, j))) ** 2 for f in state.q)
        weight_part = float(np.sum(jw * q_sq) * cell) * eps**2
        flux_part += weight_part  # int (1 + J)|q_j|^2 = |q_j|^2 + int J |q_j|^2 (discrete Parseval)
    cross = eta * 2.0 ** (-2 * j) * band_inner(state.q, apply_multiplier(state.theta, "grad"), j)
    value = theta_part + flux_part + cross
    return LyapunovValue(j=j, value=value, parts=(theta_part + flux_part - weight_part, cross, weight_part))


def lyapunov_value(state: State, j: int, regime: str, spec: ModelSpec, eta: float) -> float:
    if regime == "low":
        return lyapunov_low(state, j, eta).value
    if regime == "high":
        return lyapunov_high(state, j, eta, spec).value
    raise ValueError(f"no band functional for regime {regime!r}")


def dissipation_quantity(state: State, j: int, regime: str, spec: ModelSpec) -> float:
    """The regime's dissipation functional entering d/dt L_j + c D_j <= 0."""
    if regime == "low":
        return 2.0 ** (2 * j) * band_lp_norm((state.a, *state.v, state.theta), j) ** 2
    if regime == "high":
        return (band_lp_norm(state.theta, j) ** 2 + spec.eps**2 * band_lp_norm(state.q, j) ** 2) / spec.eps**2
    if regime == "damped":
        return band_lp_norm(effective_unknowns(state, spec).Q, j) / spec.eps
    raise ValueError(f"unknown regime {regime!r}")


def _regime_rate(spec: ModelSpec, j: int, regime: str) -> float:
    if regime == "low":
        top = 2.0 ** (j + 1)
        return top**2 + (1.0 + spec.gamma) * top
    return spec.alpha / spec.eps**2


def _validate_stride(times: np.ndarray, spec: ModelSpec, j: int, regime: str) -> float:
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("trajectory snapshots must be uniformly spaced")
    dt = float(dts[0])
    rate = _regime_rate(spec, j, regime)
    if dt * rate > 1e-2:
        raise ValueError(
            f"snapshot stride {dt:.3g} too coarse for centered differencing: "
            f"need dt <= {1e-2 / rate:.3g} in regime {regime!r} at band {j}"
        )
    return dt


def _centered_series(traj, j: int, regime: str, spec: ModelSpec, eta: float):
    """Snapshot times, L_j and D_j at every snapshot, and the centred
    differences d/dt L_j at the interior snapshots."""
    times = np.array([s.time for s in traj])
    if regime == "damped":
        lyap = np.array([spec.eps * band_lp_norm(effective_unknowns(s, spec).Q, j) for s in traj])
    else:
        lyap = np.array([lyapunov_value(s, j, regime, spec, eta) for s in traj])
    diss = np.array([dissipation_quantity(s, j, regime, spec) for s in traj])
    dt = _validate_stride(times, spec, j, regime)
    return times, lyap, diss, (lyap[2:] - lyap[:-2]) / (2.0 * dt)


def _calibrate(series) -> float:
    """Largest c with dl + c dmid <= 0 over the (dl, dmid) pairs of series."""
    best = np.inf
    for dl, dmid in series:
        ok = dmid > 0
        if np.any(ok):
            best = min(best, float(np.min(-dl[ok] / dmid[ok])))
    if not np.isfinite(best):
        raise ValueError("no usable samples for calibration (zero dissipation)")
    return max(best, 0.0)


def calibrate_dissipation(trajs, j: int, regime: str, spec: ModelSpec, th: Thresholds, eta: float = 0.1) -> float:
    """Largest c with d/dt L_j + c D_j <= 0 across the training trajectories."""
    series = (_centered_series(traj, j, regime, spec, eta) for traj in trajs)
    return _calibrate((dl, diss[1:-1]) for _, _, diss, dl in series)


def dissipation_residual(traj, j: int, regime: str, spec: ModelSpec, th: Thresholds, eta: float = 0.1, c: float | None = None):
    """Per-time residual d/dt L_j + c D_j at interior snapshots.

    c defaults to the trajectory's own calibration.  Returns (times, residual,
    violations) where violations counts residuals above discretization slack.
    """
    times, _, diss, dl = _centered_series(traj, j, regime, spec, eta)
    dmid = diss[1:-1]
    if c is None:
        c = _calibrate([(dl, dmid)])
    residual = dl + c * dmid
    violations = int(np.sum(residual > 1e-8))
    return times[1:-1], residual, violations


def damped_mode_rate(traj, j: int, spec: ModelSpec):
    """Exponential decay rate of |Q_j| fitted on log-linear least squares."""
    times = np.array([s.time for s in traj])
    vals = np.array([band_lp_norm(effective_unknowns(s, spec).Q, j) for s in traj])
    if np.any(vals <= 0):
        raise ValueError("damped-mode norm vanished; nothing to fit")
    logs = np.log(vals)
    a = np.vstack([times, np.ones_like(times)]).T
    coef, res, *_ = np.linalg.lstsq(a, logs, rcond=None)
    ss = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss if res.size and ss > 0 else 1.0
    return -float(coef[0]), r2


# ---------------------------------------------------------------------------
# Global solution functional X.

_LINF, _L1, _L2T = "Linf", "L1", "L2"


def _x_table(d: int, p: float, eps: float):
    """(name, part, comps, regime, time-kind, s or (s1,s2), p, weight)."""
    return (
        ("low_state_Linf", "low", ("a", "v", "theta", "eq"), "low", _LINF, d / 2 - 1, 2, 1.0),
        ("low_avtheta_L1", "low", ("a", "v", "theta"), "low", _L1, d / 2 + 1, 2, 1.0),
        ("low_q_L1", "low", ("q",), "low", _L1, d / 2, 2, 1.0),
        ("low_Q_L1", "low", ("Q",), "low", _L1, d / 2 - 1, 2, 1.0 / eps),
        ("med_thetaq_Linf", "med", ("theta", "eq"), "med", _LINF, (d / p - 2, d / p - 1), p, 1.0),
        ("med_theta_L1", "med", ("theta",), "med", _L1, (d / p, d / p + 1), p, 1.0),
        ("med_q_L1", "med", ("q",), "med", _L1, (d / p - 1, d / p), p, 1.0),
        ("med_q_L2", "med", ("q",), "med", _L2T, (d / p - 2, d / p - 1), p, 1.0),
        ("med_Q_L1", "med", ("Q",), "med", _L1, (d / p - 2, d / p - 1), p, 1.0 / eps),
        ("med_w_Linf", "med", ("w",), "med", _LINF, d / p - 1, p, 1.0),
        ("med_w_L1", "med", ("w",), "med", _L1, d / p + 1, p, 1.0),
        ("med_a_Linf", "med", ("a",), "med", _LINF, d / p, p, 1.0),
        ("med_a_L1", "med", ("a",), "med", _L1, d / p, p, 1.0),
        ("med_v_Linf", "med", ("v",), "med", _LINF, (d / p - 1, d / p), p, 1.0),
        ("med_v_L1", "med", ("v",), "med", _L1, d / p + 1, p, 1.0),
        ("med_v_L2", "med", ("v",), "med", _L2T, d / p + 1, p, 1.0),
        ("high_a_Linf", "high", ("a",), "high", _LINF, d / 2 + 1, 2, eps),
        ("high_a_L1", "high", ("a",), "high", _L1, d / 2 + 1, 2, eps),
        ("high_thetaq2_Linf", "high", ("e2theta", "e3q"), "high", _LINF, d / 2 + 1, 2, 1.0),
        ("high_thetaq_L1", "high", ("theta", "eq"), "high", _L1, d / 2 + 1, 2, 1.0),
        ("high_Q_L1", "high", ("Q",), "high", _L1, d / p, p, 1.0),
        ("high_w_Linf", "high", ("w",), "high", _LINF, d / 2, 2, eps),
        ("high_w_L1", "high", ("w",), "high", _L1, d / 2 + 2, 2, eps),
        ("high_v_Linf", "high", ("v",), "high", _LINF, d / 2 + 1, 2, eps),
        ("high_v_L1", "high", ("v",), "high", _L1, d / 2 + 2, 2, eps),
        ("high_v_L2", "high", ("v",), "high", _L2T, d / 2 + 2, 2, eps),
    )


@dataclass
class XFunctional:
    x_low: float
    x_med: float
    x_high: float
    constituents: dict

    @property
    def total(self) -> float:
        return self.x_low + self.x_med + self.x_high


def _scaled_fields(state: State, spec: ModelSpec) -> dict:
    eps = spec.eps
    es = effective_unknowns(state, spec)
    scale = lambda fs, c: tuple(SpectralField(f.grid, c * f.coeffs) for f in fs)
    return {
        "a": (state.a,),
        "v": state.v,
        "theta": (state.theta,),
        "q": state.q,
        "eq": scale(state.q, eps),
        "e2theta": (SpectralField(state.grid, eps**2 * state.theta.coeffs),),
        "e3q": scale(state.q, eps**3),
        "Q": es.Q,
        "w": es.w,
    }


def _instantaneous(entry, fields: dict, th: Thresholds) -> float:
    name, part, comps, regime, kind, s, p, weight = entry
    stack = tuple(f for c in comps for f in fields[c])
    if isinstance(s, tuple):
        val = max(besov_seminorm(stack, si, p, regime, th, overlap=True) for si in s)
    else:
        val = besov_seminorm(stack, s, p, regime, th, overlap=True)
    return weight * val


def functional_X(traj, spec: ModelSpec, th: Thresholds, p: float = 2.0) -> XFunctional:
    """Accumulate the three-regime solution functional along a trajectory.

    Supremum-in-time pieces are running maxima; L1/L2-in-time pieces use the
    trapezoid rule on the (uniform) snapshot stride.
    """
    if spec.kind is not SystemKind.NSC:
        raise ValueError("the solution functional is defined for the relaxing system")
    if not 2.0 <= p <= 4.0:
        raise ValueError(f"p must lie in [2, 4], got {p}")
    traj = list(traj)
    times = np.array([s.time for s in traj])
    if len(traj) >= 2:
        dts = np.diff(times)
        if not np.allclose(dts, dts[0], rtol=1e-8):
            raise ValueError("snapshots must be uniformly spaced")
    table = _x_table(spec.d, p, spec.eps)
    series = {entry[0]: [] for entry in table}
    for state in traj:
        fields = _scaled_fields(state, spec)
        for entry in table:
            series[entry[0]].append(_instantaneous(entry, fields, th))

    def trapz(vals: np.ndarray) -> float:
        return float(np.trapezoid(vals, times)) if len(traj) >= 2 else 0.0

    constituents = {}
    sums = {"low": 0.0, "med": 0.0, "high": 0.0}
    for entry in table:
        name, part = entry[0], entry[1]
        vals = np.array(series[name])
        kind = entry[4]
        if kind == _LINF:
            out = float(np.max(vals))
        elif kind == _L1:
            out = trapz(vals)
        else:
            out = math.sqrt(trapz(vals**2))
        constituents[name] = out
        sums[part] += out
    return XFunctional(x_low=sums["low"], x_med=sums["med"], x_high=sums["high"], constituents=constituents)
