"""Hypocoercivity diagnostics: effective unknowns, per-band perturbed energy
functionals with the dissipation series and calibration behind the
`evolve` study's band_diagnostics.csv, and the one engine that evaluates
the global solution functional X and the relaxation error of `studies`
from tables of their pieces.

Band norms are taken on row slices of `State.u` and of the effective
unknowns' stacks (`EffectiveState._Q`, `_w`), once per row group and
snapshot; X reads scaled rows, all at p = 2.  The band functionals are
linear: the high-band one carries no density weight.  One evaluator,
`_band_functional`, gives both regimes' norm parts, cross terms and
dissipation on every band of a snapshot: two band passes at low frequency
(the (a, v, theta) norms, v . grad a), three at high (theta, q,
q . grad theta).  The dissipation is the regime's multiple of the norm
part and takes no pass of its own.

The low-band functional carries a band-weighted cross term
eta * 2^(-j) * int v_j . grad a_j (a plain 1/2 coefficient would not stay
equivalent to the squared norm on bands with 2^j >= 2), which keeps the
equivalence bracket [1 - 2 eta, 1 + 2 eta] valid on every band.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .besov import Thresholds, _band_norms, _grid_labels, _regime_weights, band_sums, grid_band_range, regime_band_indices
from .besov import besov_seminorm  # noqa: F401  (perfbench/tracer.py wraps diagnostics.besov_seminorm)
from .evolve import LinearPropagator
from .model import ModelSpec, SystemKind
from .spectral import State, _freeze, _grad, _row_views

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


def _band_functional(state: State, regime: str, spec, eta: float) -> dict:
    """{j: (E_j, cross_j, D_j)} on every band of grid_band_range: the norm
    and cross parts of the regime's band functional L_j = E_j + cross_j and
    its dissipation D_j in d/dt L_j + c D_j <= 0, a multiple of E_j
    (2^(2j) E_j at low frequency, E_j / eps^2 at high), from one band pass
    per norm and one for the cross term.  spec is read at high frequency
    only."""
    grid, u, d = state.grid, state.u, state.grid.d
    bands = grid_band_range(grid)
    inner = lambda f, g: grid.L**d * band_sums(_grid_labels(grid), sum(np.real(np.conj(x) * y) for x, y in zip(f, g)), len(bands))
    if regime == "low":
        if not 0 < eta <= 0.25:
            raise ValueError(f"eta must lie in (0, 1/4], got {eta}")
        norms, cross = _band_norms(grid, u[: 2 + d], 2), inner(u[1 : 1 + d], _grad(grid, u[0]))
        parts = [(float(n) ** 2, eta * 2.0 ** (-j) * float(c)) for j, n, c in zip(bands, norms, cross)]
        return {j: (e, c, 2.0 ** (2 * j) * e) for j, (e, c) in zip(bands, parts)}
    if regime == "high":
        if not state.has_flux:
            raise ValueError("high-band functional needs the heat-flux components")
        theta, q = _band_norms(grid, u[1 + d : 2 + d], 2), _band_norms(grid, u[2 + d :], 2)
        cross = inner(u[2 + d :], _grad(grid, u[1 + d]))
        parts = [
            (float(t) ** 2 + float(f) ** 2 * spec.eps**2, eta * 2.0 ** (-2 * j) * float(c)) for j, t, f, c in zip(bands, theta, q, cross)
        ]
        return {j: (e, c, e / spec.eps**2) for j, (e, c) in zip(bands, parts)}
    raise ValueError(f"no band functional for regime {regime!r}")


def _band_value(state: State, j: int, regime: str, spec, eta: float) -> LyapunovValue:
    """Band j of _band_functional; 0 off the grid's bands."""
    norm_part, cross, _ = _band_functional(state, regime, spec, eta).get(j, (0.0, 0.0, 0.0))
    return LyapunovValue(j=j, value=norm_part + cross, parts=(norm_part, cross))


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


def _centered_series(traj, j: int, regime: str, spec: ModelSpec, eta: float):
    """Snapshot times, L_j and D_j at every snapshot, and the centred
    differences d/dt L_j at the interior snapshots, which need a uniform
    stride resolving the regime's rate.  traj may be any iterable; it is
    read once."""
    rows = [(s.time, *_band_functional(s, regime, spec, eta).get(j, (0.0, 0.0, 0.0))) for s in traj]
    times, norm_part, cross, diss = (np.array(c) for c in zip(*rows))
    lyap = norm_part + cross
    dts, rate = np.diff(times), _regime_rate(spec, j, regime)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("trajectory snapshots must be uniformly spaced")
    dt = float(dts[0])
    if dt * rate > 1e-2:
        raise ValueError(
            f"snapshot stride {dt:.3g} too coarse for centered differencing: "
            f"need dt <= {1e-2 / rate:.3g} in regime {regime!r} at band {j}"
        )
    return times, lyap, diss, (lyap[2:] - lyap[:-2]) / (2.0 * dt)


def _calibrate(dl: np.ndarray, dmid: np.ndarray) -> float:
    """Largest c >= 0 with dl + c dmid <= 0 wherever dmid > 0."""
    ok = dmid > 0
    best = float(np.min(-dl[ok] / dmid[ok])) if np.any(ok) else np.inf
    if not np.isfinite(best):
        raise ValueError("no usable samples for calibration (zero dissipation)")
    return max(best, 0.0)


def band_diagnostics(state0: State, spec: ModelSpec, th: Thresholds) -> list:
    """(t, j, regime, lyapunov, dissipation, residual) rows per in-regime
    band: 40 steps of the linear flow from state0, strided to the band's
    rate, and the residual d/dt L_j + c D_j at the series' own calibration
    c (NaN at the two ends, which have no centred difference)."""
    rows = []
    for regime, eta in (("low", 0.1), ("high", 0.25)):
        for j in regime_band_indices(regime, th, grid_band_range(state0.grid)):
            prop = LinearPropagator(spec, state0.grid, 5e-3 / _regime_rate(spec, j, regime))
            traj = itertools.accumulate(range(40), lambda s, _: prop.step(s), initial=state0)
            times, vals, diss, dl = _centered_series(traj, j, regime, spec, eta)
            if not np.any(vals > 0):
                continue
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


def functional_X(traj, spec: ModelSpec, th: Thresholds) -> XFunctional:
    """Accumulate the three-regime solution functional along a trajectory.

    traj may be any iterable of snapshots at strictly increasing times,
    reduced one snapshot at a time.  Supremum-in-time pieces are maxima;
    L1/L2-in-time pieces use the trapezoid rule on the snapshot times.
    """
    if spec.kind is not SystemKind.NSC:
        raise ValueError("the solution functional is defined for the relaxing system")
    table = _x_table(spec.d, spec.eps)
    groups = dict.fromkeys(group for _, group, *_ in table)
    times, values = [], []
    for state in traj:  # the rows (k, *shape) that the table names, some scaled by eps
        u, d, eps, es = state.u, state.grid.d, spec.eps, effective_unknowns(state, spec)
        rows = {"a": u[:1], "v": u[1 : 1 + d], "theta": u[1 + d : 2 + d], "q": u[2 + d :], "Q": es._Q, "w": es._w}
        rows.update(eq=eps * rows["q"], e2theta=eps**2 * rows["theta"], e3q=eps**3 * rows["q"])
        times.append(state.time)
        values.append(_snapshot_values(table, state.grid, th, {g: ([r for c in g for r in rows[c]], 2) for g in groups}))
    constituents = _time_reduce(table, times, zip(*values))
    part = lambda r: sum(constituents[name] for name, _, regime, *_ in table if regime == r)
    return XFunctional(x_low=part("low"), x_med=part("med"), x_high=part("high"), constituents=constituents)
