"""Hypocoercivity diagnostics: effective unknowns, per-band perturbed energy
functionals with the dissipation series and calibration behind the
`evolve` study's band_diagnostics.csv, and the global solution functional
X accumulated along trajectories, whose pieces are all p = 2 semi-norms.

Band norms are taken on row slices of `State.u` and of the effective
unknowns' stacks (`EffectiveState._Q`, `_w`); X reads scaled row arrays.
The functionals are linear: the high-band one carries no density weight.

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

from .besov import Thresholds, _band_inner, _band_norm, besov_seminorms
from .besov import besov_seminorm  # noqa: F401  (perfbench/tracer.py wraps diagnostics.besov_seminorm)
from .model import ModelSpec, SystemKind
from .spectral import State, _grad, _row_views

__all__ = [
    "EffectiveState",
    "LyapunovValue",
    "XFunctional",
    "effective_unknowns",
    "lyapunov_low",
    "lyapunov_high",
    "lyapunov_value",
    "dissipation_quantity",
    "functional_X",
]


@dataclass
class EffectiveState:
    """Damped mode Q = alpha q + kappa grad theta and effective velocity
    w = v + (-Lap)^-1 grad a (zero mode of w equals the zero mode of v).
    Each is one (d, *shape) stack, `_Q` and `_w`, whose rows the d-tuples
    `Q` and `w` view.  w is built from `base` on first access; most readers
    need only Q."""

    _Q: np.ndarray
    base: State

    @property
    def Q(self) -> tuple:
        return tuple(_row_views(self.base.grid, self._Q))

    @functools.cached_property
    def _w(self) -> np.ndarray:
        grid, u = self.base.grid, self.base.u
        k2 = sum(x**2 for x in grid.wavevectors())
        inv = _grad(grid, u[0]) / np.where(k2 == 0.0, 1.0, k2)  # _grad is 0 on the Nyquist plane
        return u[1 : 1 + grid.d] + np.where(k2 == 0.0, 0.0, inv)

    @property
    def w(self) -> tuple:
        return tuple(_row_views(self.base.grid, self._w))


def effective_unknowns(state: State, spec: ModelSpec) -> EffectiveState:
    if not state.has_flux:
        raise ValueError("effective unknowns need the heat-flux components")
    d = state.grid.d
    return EffectiveState(spec.alpha * state.u[2 + d :] + spec.kappa * _grad(state.grid, state.u[1 + d]), state)


@dataclass(frozen=True)
class LyapunovValue:
    j: int
    value: float
    parts: tuple  # (norm_part, cross_part)


def lyapunov_low(state: State, j: int, eta: float = 0.25) -> LyapunovValue:
    """Band energy |(a_j, v_j, theta_j)|^2 plus the band-weighted cross term
    eta 2^(-j) int v_j . grad a_j; within [1-2 eta, 1+2 eta] of the norm part."""
    if not 0 < eta <= 0.25:
        raise ValueError(f"eta must lie in (0, 1/4], got {eta}")
    grid, u = state.grid, state.u
    norm_part = _band_norm(grid, u[: 2 + grid.d], j) ** 2
    cross = eta * 2.0 ** (-j) * _band_inner(grid, u[1 : 1 + grid.d], _grad(grid, u[0]), j)
    return LyapunovValue(j=j, value=norm_part + cross, parts=(norm_part, cross))


def lyapunov_high(state: State, j: int, eta: float, spec: ModelSpec) -> LyapunovValue:
    """High-band perturbed energy:
    |theta_j|^2 + |eps q_j|^2 + eta 2^(-2j) int q_j . grad theta_j,
    equivalent to |(theta_j, eps q_j)|^2."""
    if not state.has_flux:
        raise ValueError("high-band functional needs the heat-flux components")
    eps, grid, u = spec.eps, state.grid, state.u
    norm_part = _band_norm(grid, u[1 + grid.d : 2 + grid.d], j) ** 2 + _band_norm(grid, u[2 + grid.d :], j) ** 2 * eps**2
    cross = eta * 2.0 ** (-2 * j) * _band_inner(grid, u[2 + grid.d :], _grad(grid, u[1 + grid.d]), j)
    return LyapunovValue(j=j, value=norm_part + cross, parts=(norm_part, cross))


def lyapunov_value(state: State, j: int, regime: str, spec: ModelSpec, eta: float) -> float:
    if regime == "low":
        return lyapunov_low(state, j, eta).value
    if regime == "high":
        return lyapunov_high(state, j, eta, spec).value
    raise ValueError(f"no band functional for regime {regime!r}")


def dissipation_quantity(state: State, j: int, regime: str, spec: ModelSpec) -> float:
    """The regime's dissipation functional entering d/dt L_j + c D_j <= 0."""
    grid, u, d = state.grid, state.u, state.grid.d
    if regime == "low":
        return 2.0 ** (2 * j) * _band_norm(grid, u[: 2 + d], j) ** 2
    if regime == "high":
        return (_band_norm(grid, u[1 + d : 2 + d], j) ** 2 + spec.eps**2 * _band_norm(grid, u[2 + d :], j) ** 2) / spec.eps**2
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
    differences d/dt L_j at the interior snapshots.  traj may be any
    iterable; it is read once."""
    rows = [(s.time, lyapunov_value(s, j, regime, spec, eta), dissipation_quantity(s, j, regime, spec)) for s in traj]
    times, lyap, diss = (np.array(c) for c in zip(*rows))
    dt = _validate_stride(times, spec, j, regime)
    return times, lyap, diss, (lyap[2:] - lyap[:-2]) / (2.0 * dt)


def _calibrate(dl: np.ndarray, dmid: np.ndarray) -> float:
    """Largest c >= 0 with dl + c dmid <= 0 wherever dmid > 0."""
    ok = dmid > 0
    best = float(np.min(-dl[ok] / dmid[ok])) if np.any(ok) else np.inf
    if not np.isfinite(best):
        raise ValueError("no usable samples for calibration (zero dissipation)")
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Global solution functional X.

_LINF, _L1, _L2T = "Linf", "L1", "L2"


def _x_table(d: int, eps: float):
    """(name, part, comps, time-kind, s or (s1, s2), weight); every piece is
    a p = 2 semi-norm over the bands of its part."""
    return (
        ("low_state_Linf", "low", ("a", "v", "theta", "eq"), _LINF, d / 2 - 1, 1.0),
        ("low_avtheta_L1", "low", ("a", "v", "theta"), _L1, d / 2 + 1, 1.0),
        ("low_q_L1", "low", ("q",), _L1, d / 2, 1.0),
        ("low_Q_L1", "low", ("Q",), _L1, d / 2 - 1, 1.0 / eps),
        ("med_thetaq_Linf", "med", ("theta", "eq"), _LINF, (d / 2 - 2, d / 2 - 1), 1.0),
        ("med_theta_L1", "med", ("theta",), _L1, (d / 2, d / 2 + 1), 1.0),
        ("med_q_L1", "med", ("q",), _L1, (d / 2 - 1, d / 2), 1.0),
        ("med_q_L2", "med", ("q",), _L2T, (d / 2 - 2, d / 2 - 1), 1.0),
        ("med_Q_L1", "med", ("Q",), _L1, (d / 2 - 2, d / 2 - 1), 1.0 / eps),
        ("med_w_Linf", "med", ("w",), _LINF, d / 2 - 1, 1.0),
        ("med_w_L1", "med", ("w",), _L1, d / 2 + 1, 1.0),
        ("med_a_Linf", "med", ("a",), _LINF, d / 2, 1.0),
        ("med_a_L1", "med", ("a",), _L1, d / 2, 1.0),
        ("med_v_Linf", "med", ("v",), _LINF, (d / 2 - 1, d / 2), 1.0),
        ("med_v_L1", "med", ("v",), _L1, d / 2 + 1, 1.0),
        ("med_v_L2", "med", ("v",), _L2T, d / 2 + 1, 1.0),
        ("high_a_Linf", "high", ("a",), _LINF, d / 2 + 1, eps),
        ("high_a_L1", "high", ("a",), _L1, d / 2 + 1, eps),
        ("high_thetaq2_Linf", "high", ("e2theta", "e3q"), _LINF, d / 2 + 1, 1.0),
        ("high_thetaq_L1", "high", ("theta", "eq"), _L1, d / 2 + 1, 1.0),
        ("high_Q_L1", "high", ("Q",), _L1, d / 2, 1.0),
        ("high_w_Linf", "high", ("w",), _LINF, d / 2, eps),
        ("high_w_L1", "high", ("w",), _L1, d / 2 + 2, eps),
        ("high_v_Linf", "high", ("v",), _LINF, d / 2 + 1, eps),
        ("high_v_L1", "high", ("v",), _L1, d / 2 + 2, eps),
        ("high_v_L2", "high", ("v",), _L2T, d / 2 + 2, eps),
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


def _scaled_rows(state: State, spec: ModelSpec) -> dict:
    """The row stacks (k, *shape) that the table names, scaled by eps."""
    u, d, eps = state.u, state.grid.d, spec.eps
    es = effective_unknowns(state, spec)
    rows = {"a": u[:1], "v": u[1 : 1 + d], "theta": u[1 + d : 2 + d], "q": u[2 + d :], "Q": es._Q, "w": es._w}
    return {**rows, "eq": eps * rows["q"], "e2theta": eps**2 * rows["theta"], "e3q": eps**3 * rows["q"]}


def _instantaneous(entry, rows: dict, grid, th: Thresholds) -> float:
    name, part, comps, kind, s, weight = entry
    u = np.concatenate([rows[c] for c in comps])
    return weight * max(besov_seminorms(grid, u, s if isinstance(s, tuple) else (s,), 2, part, th, overlap=True))


def functional_X(traj, spec: ModelSpec, th: Thresholds) -> XFunctional:
    """Accumulate the three-regime solution functional along a trajectory.

    traj may be any iterable, reduced one snapshot at a time.  Supremum-in-
    time pieces are maxima; L1/L2-in-time pieces use the trapezoid rule on
    the (uniform) snapshot stride.
    """
    if spec.kind is not SystemKind.NSC:
        raise ValueError("the solution functional is defined for the relaxing system")
    table = _x_table(spec.d, spec.eps)
    series = {entry[0]: [] for entry in table}
    times = []
    for state in traj:
        times.append(state.time)
        if len(times) >= 3 and not np.isclose(times[-1] - times[-2], times[1] - times[0], rtol=1e-8):
            raise ValueError("snapshots must be uniformly spaced")
        rows = _scaled_rows(state, spec)
        for entry in table:
            series[entry[0]].append(_instantaneous(entry, rows, state.grid, th))

    def trapz(vals: np.ndarray) -> float:
        return float(np.trapezoid(vals, times)) if len(times) >= 2 else 0.0

    constituents = {}
    sums = {"low": 0.0, "med": 0.0, "high": 0.0}
    for entry in table:
        name, part = entry[0], entry[1]
        vals = np.array(series[name])
        kind = entry[3]
        if kind == _LINF:
            out = float(np.max(vals))
        elif kind == _L1:
            out = trapz(vals)
        else:
            out = math.sqrt(trapz(vals**2))
        constituents[name] = out
        sums[part] += out
    return XFunctional(x_low=sums["low"], x_med=sums["med"], x_high=sums["high"], constituents=constituents)
