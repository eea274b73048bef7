"""Hypocoercivity diagnostics: effective unknowns, per-band perturbed energy
functionals with the dissipation series and calibration behind the
`evolve` study's band_diagnostics.csv, and the one engine that evaluates
the global solution functional X and the relaxation error of `studies`
from tables of their pieces.

At one state, band norms are taken on row slices of `State.u` and of the
damped mode's stack, once per row group: `_band_functional` takes two band
passes at low frequency ((a, v, theta), v . grad a) and three at high
(theta, q, q . grad theta).  Along the exact linear flow nothing is
stepped: `_flow_squares` reads the same band quantities, and those of Q
and w, at every sample time at once from the state's Gram factors, for
band_diagnostics and X.  `_regime_parts` turns either into the norm part,
cross term and dissipation of each band; the dissipation is the regime's
multiple of the norm part.  The high-band functional carries no density
weight.  The low-band cross term eta * 2^(-j) * int v_j . grad a_j (a
plain 1/2 coefficient would not stay equivalent to the squared norm on
bands with 2^j >= 2) keeps the bracket [1 - 2 eta, 1 + 2 eta] on every
band.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .besov import Thresholds, _band_norms, _grid_labels, _regime_weights, band_sums, grid_band_range, regime_band_indices
from .besov import besov_seminorm  # noqa: F401  (perfbench/tracer.py wraps diagnostics.besov_seminorm)
from .evolve import _flow_band_sums, _torus_measure
from .model import ModelSpec, SystemKind
from .spectral import Grid, State, _freeze, _grad, _row_views

__all__ = [
    "EffectiveState",
    "LyapunovValue",
    "XFunctional",
    "effective_unknowns",
    "lyapunov_low",
    "lyapunov_high",
    "band_diagnostics",
    "functional_X",
]


@dataclass
class EffectiveState:
    """Damped mode Q = alpha q + kappa grad theta, one (d, *shape) stack
    `_Q` whose rows the d-tuple `Q` views."""

    _Q: np.ndarray
    grid: Grid

    @property
    def Q(self) -> tuple:
        return tuple(_row_views(self.grid, self._Q))


def effective_unknowns(state: State, spec: ModelSpec) -> EffectiveState:
    if not state.has_flux:
        raise ValueError("effective unknowns need the heat-flux components")
    d = state.grid.d
    return EffectiveState(spec.alpha * state.u[2 + d :] + spec.kappa * _grad(state.grid, state.u[1 + d]), state.grid)


@dataclass(frozen=True)
class LyapunovValue:
    value: float
    parts: tuple  # (norm_part, cross_part)


def _regime_parts(regime: str, spec, eta: float, bands: range, energy, inner) -> tuple:
    """E_j, cross_j and D_j of the regime's band functional L_j = E_j + cross_j
    (D_j in d/dt L_j + c D_j <= 0) on `bands`, the last axis, from the band
    energies E_j and inner products (v . grad a low, q . grad theta high)."""
    j = np.asarray(bands)
    if regime == "low":
        if not 0 < eta <= 0.25:
            raise ValueError(f"eta must lie in (0, 1/4], got {eta}")
        return energy, eta * 2.0 ** (-j) * inner, 2.0 ** (2 * j) * energy
    if regime == "high":
        return energy, eta * 2.0 ** (-2 * j) * inner, energy / spec.eps**2
    raise ValueError(f"no band functional for regime {regime!r}")


def _band_functional(state: State, regime: str, spec, eta: float) -> dict:
    """{j: (E_j, cross_j, D_j)} at one state on every band of the grid:
    E_j is |(a, v, theta)_j|^2 low and |theta_j|^2 + eps^2 |q_j|^2 high,
    from one band pass per norm and one for the inner product."""
    grid, u, d = state.grid, state.u, state.grid.d
    bands = grid_band_range(grid)
    inner = lambda f, g: grid.L**d * band_sums(_grid_labels(grid), sum(np.real(np.conj(x) * y) for x, y in zip(f, g)), len(bands))
    if regime == "high":
        if not state.has_flux:
            raise ValueError("high-band functional needs the heat-flux components")
        energy = _band_norms(grid, u[1 + d : 2 + d], 2) ** 2 + _band_norms(grid, u[2 + d :], 2) ** 2 * spec.eps**2
        cross = inner(u[2 + d :], _grad(grid, u[1 + d]))
    else:
        energy, cross = _band_norms(grid, u[: 2 + d], 2) ** 2, inner(u[1 : 1 + d], _grad(grid, u[0]))
    return dict(zip(bands, zip(*(x.tolist() for x in _regime_parts(regime, spec, eta, bands, energy, cross)))))


def _band_value(state: State, j: int, regime: str, spec, eta: float) -> LyapunovValue:
    """Band j of _band_functional; 0 off the grid's bands."""
    norm_part, cross, _ = _band_functional(state, regime, spec, eta).get(j, (0.0, 0.0, 0.0))
    return LyapunovValue(value=norm_part + cross, parts=(norm_part, cross))


def lyapunov_low(state: State, j: int, eta: float = 0.25) -> LyapunovValue:
    """Band energy |(a_j, v_j, theta_j)|^2 plus the band-weighted cross term
    eta 2^(-j) int v_j . grad a_j; within [1-2 eta, 1+2 eta] of the norm part."""
    return _band_value(state, j, "low", None, eta)


def lyapunov_high(state: State, j: int, eta: float, spec: ModelSpec) -> LyapunovValue:
    """High-band perturbed energy:
    |theta_j|^2 + |eps q_j|^2 + eta 2^(-2j) int q_j . grad theta_j,
    equivalent to |(theta_j, eps q_j)|^2."""
    return _band_value(state, j, "high", spec, eta)


def _regime_rate(spec: ModelSpec, j: int, regime: str) -> float:
    if regime == "low":
        top = 2.0 ** (j + 1)
        return top**2 + (1.0 + spec.gamma) * top
    return spec.alpha / spec.eps**2


def _flow_squares(measure, spec: ModelSpec, times) -> dict:
    """(T, nbands) squared band norms of a, v, theta, q, Q and w under the
    linear flow of spec at `times` after the state of `measure`, and per
    regime the band energies and inner products of _regime_parts: ten rows
    of z = (a, i k.v, theta, i k.q) per key, Q and w being (0, 0, -kappa w
    |k|, alpha) z and (-w / |k|, 1, 0, 0) z (w the derivative weight, w / |k|
    = 0 at k = 0) plus alpha P q and P v.  grad = i k w makes
    v . grad a = -w |k| Re(z_0 conj z_1) = |p_-|^2 - |p_+|^2 with
    p_+- = sqrt(w |k|) (z_0 +- z_1) / 2, and likewise q . grad theta."""
    rw = measure.k * measure.weight
    rows = np.zeros((rw.size, 10, 4))
    rows[:, :4] = np.eye(4)
    rows[:, 4, 2], rows[:, 4, 3] = -spec.kappa * rw, spec.alpha
    rows[:, 5, 0], rows[:, 5, 1] = np.divide(-measure.weight, measure.k, out=np.zeros(rw.size), where=measure.k > 0), 1.0
    rows[:, 6:] = np.sqrt(rw / 4.0)[:, None, None] * np.array([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]])  # p_-, p_+
    perp = np.zeros((10, 2))  # weights of sum |P v|^2 and sum |P q|^2
    perp[[1, 5], 0], perp[3, 1], perp[4, 1] = 1.0, 1.0, spec.alpha**2
    s = _flow_band_sums(measure, [(spec, rows, measure.factor)], times, perp)[0]
    out = dict(zip(("a", "v", "theta", "q", "Q", "w"), np.moveaxis(s[:, :6], 1, 0)))
    out["low"] = out["a"] + out["v"] + out["theta"], s[:, 6] - s[:, 7]
    out["high"] = out["theta"] + out["q"] * spec.eps**2, s[:, 8] - s[:, 9]
    return out


def _calibrate(dl: np.ndarray, dmid: np.ndarray) -> float:
    """Largest c >= 0 with dl + c dmid <= 0 wherever dmid > 0."""
    ok = dmid > 0
    best = float(np.min(-dl[ok] / dmid[ok])) if np.any(ok) else np.inf
    if not np.isfinite(best):
        raise ValueError("no usable samples for calibration (zero dissipation)")
    return max(best, 0.0)


def band_diagnostics(state0: State, spec: ModelSpec, th: Thresholds) -> list:
    """(t, j, regime, lyapunov, dissipation, residual) rows per in-regime
    band: 40 strides of the exact linear flow from state0, each 5e-3 over
    the band's rate, read from the state's Gram factors (_flow_squares; no
    state is stepped), and the residual d/dt L_j + c D_j of the centred
    differences at the series' own calibration c (NaN at the two ends,
    which have no centred difference)."""
    measure, bands = _torus_measure(state0), grid_band_range(state0.grid)
    rows = []
    for regime, eta in (("low", 0.1), ("high", 0.25)):
        for j in regime_band_indices(regime, th, bands):
            dt = 5e-3 / _regime_rate(spec, j, regime)
            times = np.fromiter(itertools.accumulate(itertools.repeat(dt, 40), initial=state0.time), float)
            s = _flow_squares(measure, spec, times - state0.time)
            norm_part, cross, diss = (x[:, j - bands.start] for x in _regime_parts(regime, spec, eta, bands, *s[regime]))
            vals = norm_part + cross
            if not np.any(vals > 0):
                continue
            dl = (vals[2:] - vals[:-2]) / (2.0 * dt)
            res = np.concatenate([[np.nan], dl + _calibrate(dl, diss[1:-1]) * diss[1:-1], [np.nan]])
            rows += [[t, j, regime, lv, dv, r] for t, lv, dv, r in zip(times, vals, diss, res)]
    return rows


# ---------------------------------------------------------------------------
# Functional tables: entries (name, group, regime, s or a tuple of s, weight,
# time kind).  At one snapshot an entry is weight * max_s sum_j 2^(js)
# |group_j| over the bands of its regime under the overlapping split, the
# bands of a torus grid or of the radial flow's nodes; its time kind takes
# the max over snapshots (Linf), the trapezoid (L1) or the root of the
# trapezoid of squares (L2), and is None in a table read at one time.


@functools.lru_cache(maxsize=32)
def _table_weights(table: tuple, bands: range, th: Thresholds) -> tuple:
    """Per entry, its regime weights on `bands`, one row per s."""
    return tuple(
        _freeze(np.array([_regime_weights(bands, regime, th, s, overlap=True) for s in (ss if isinstance(ss, tuple) else (ss,))]))
        for _, _, regime, ss, _, _ in table
    )


def _evaluate(table: tuple, weights: tuple, norms: dict) -> tuple:
    """Each entry's value from the per-band norms of its group, (nbands,) at
    one snapshot or (T, nbands) at T of them."""
    return tuple(
        weight * np.max([norms[group] @ w for w in ws], axis=0)
        for (_, group, _, _, weight, _), ws in zip(table, weights)
    )


def _snapshot_values(table: tuple, grid, th: Thresholds, groups: dict) -> tuple:
    """_evaluate at one snapshot of the groups, each mapped to its rows and
    p: one band pass per group, at p != 2 over the bands its entries pick."""
    weights = _table_weights(table, grid_band_range(grid), th)
    picked = lambda g: np.any(np.concatenate([ws for (_, h, *_), ws in zip(table, weights) if h == g]), axis=0)
    return _evaluate(table, weights, {g: _band_norms(grid, u, p, picked(g)) for g, (u, p) in groups.items()})


def _time_reduce(table: tuple, times, columns) -> dict:
    """Each entry's time norm of its column of values at the snapshot times,
    one column per entry in table order."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must strictly increase")
    trapz = lambda v: np.trapezoid(v, times)
    reduce = {"Linf": np.max, "L1": trapz, "L2": lambda v: math.sqrt(trapz(v**2))}
    return {name: float(reduce[kind](np.asarray(col))) for (name, *_, kind), col in zip(table, columns, strict=True)}


def _x_table(d: int, eps: float) -> tuple:
    """The pieces of X, each a p = 2 semi-norm of a group of the rows that
    functional_X names; the regime is the part of X it adds to."""
    return (
        ("low_state_Linf", ("a", "v", "theta", "eq"), "low", d / 2 - 1, 1.0, "Linf"),
        ("low_avtheta_L1", ("a", "v", "theta"), "low", d / 2 + 1, 1.0, "L1"),
        ("low_q_L1", ("q",), "low", d / 2, 1.0, "L1"),
        ("low_Q_L1", ("Q",), "low", d / 2 - 1, 1.0 / eps, "L1"),
        ("med_thetaq_Linf", ("theta", "eq"), "med", (d / 2 - 2, d / 2 - 1), 1.0, "Linf"),
        ("med_theta_L1", ("theta",), "med", (d / 2, d / 2 + 1), 1.0, "L1"),
        ("med_q_L1", ("q",), "med", (d / 2 - 1, d / 2), 1.0, "L1"),
        ("med_q_L2", ("q",), "med", (d / 2 - 2, d / 2 - 1), 1.0, "L2"),
        ("med_Q_L1", ("Q",), "med", (d / 2 - 2, d / 2 - 1), 1.0 / eps, "L1"),
        ("med_w_Linf", ("w",), "med", d / 2 - 1, 1.0, "Linf"),
        ("med_w_L1", ("w",), "med", d / 2 + 1, 1.0, "L1"),
        ("med_a_Linf", ("a",), "med", d / 2, 1.0, "Linf"),
        ("med_a_L1", ("a",), "med", d / 2, 1.0, "L1"),
        ("med_v_Linf", ("v",), "med", (d / 2 - 1, d / 2), 1.0, "Linf"),
        ("med_v_L1", ("v",), "med", d / 2 + 1, 1.0, "L1"),
        ("med_v_L2", ("v",), "med", d / 2 + 1, 1.0, "L2"),
        ("high_a_Linf", ("a",), "high", d / 2 + 1, eps, "Linf"),
        ("high_a_L1", ("a",), "high", d / 2 + 1, eps, "L1"),
        ("high_thetaq2_Linf", ("e2theta", "e3q"), "high", d / 2 + 1, 1.0, "Linf"),
        ("high_thetaq_L1", ("theta", "eq"), "high", d / 2 + 1, 1.0, "L1"),
        ("high_Q_L1", ("Q",), "high", d / 2, 1.0, "L1"),
        ("high_w_Linf", ("w",), "high", d / 2, eps, "Linf"),
        ("high_w_L1", ("w",), "high", d / 2 + 2, eps, "L1"),
        ("high_v_Linf", ("v",), "high", d / 2 + 1, eps, "Linf"),
        ("high_v_L1", ("v",), "high", d / 2 + 2, eps, "L1"),
        ("high_v_L2", ("v",), "high", d / 2 + 2, eps, "L2"),
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


def functional_X(state0: State, spec: ModelSpec, th: Thresholds, times) -> XFunctional:
    """The three-regime solution functional along the exact linear flow
    from state0 at `times` after it (strictly increasing), from the squared
    band norms of _flow_squares; no state is stepped.  Supremum-in-time
    pieces are maxima, L1/L2-in-time pieces trapezoid sums on the times."""
    if spec.kind is not SystemKind.NSC:
        raise ValueError("the solution functional is defined for the relaxing system")
    eps, table = spec.eps, _x_table(spec.d, spec.eps)
    sq = _flow_squares(_torus_measure(state0), spec, times)
    sq.update(eq=eps**2 * sq["q"], e2theta=eps**4 * sq["theta"], e3q=eps**6 * sq["q"])
    norms = {group: np.sqrt(sum(sq[c] for c in group)) for _, group, *_ in table}
    weights = _table_weights(table, grid_band_range(state0.grid), th)
    constituents = _time_reduce(table, times, _evaluate(table, weights, norms))
    part = lambda r: sum(constituents[name] for name, _, regime, *_ in table if regime == r)
    return XFunctional(x_low=part("low"), x_med=part("med"), x_high=part("high"), constituents=constituents)
