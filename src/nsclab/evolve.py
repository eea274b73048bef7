"""Time propagation: exact linear flow on the torus and on the whole-space
radial grid, and a pseudo-spectral IMEX stepper for the nonlinear relaxing
system on the torus.

The generator splits into a real longitudinal block (model.reduced_blocks)
that depends on |xi| only, transverse viscous scalars exp(-(mu/nu)|xi|^2 t)
for the velocity and transverse damping scalars exp(-(alpha/eps^2) t) for
the heat flux.  PropagatorKernel decomposes the longitudinal blocks at a set
of radii once, M = V diag(lambda) V^-1, so exp(tM) at any t costs one
exponential per eigenvalue; radii whose eigenbasis is ill-conditioned keep
the scaling-and-squaring Pade expm.  The radial flow uses one kernel over
its quadrature nodes; the torus builds one kernel per (spec, grid) at the
distinct lattice |k|^2 and embeds it mode by mode.  The stiff heat-flux
damping alpha/eps^2 lives inside the exponential, so nothing here restricts
dt by eps; the explicit part of the IMEX step only sees the quadratic
sources.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, SymbolMatrix, SystemKind, reduced_blocks
from .model import reduced_symbol  # noqa: F401  (perfbench/tracer.py wraps evolve.reduced_symbol)
from .spectral import (
    Grid,
    SpectralField,
    State,
    apply_multiplier,
    dealias_23,
    to_physical,
    to_spectral,
)

__all__ = [
    "expm",
    "propagate_mode",
    "Propagator",
    "mode_matrices",
    "PropagatorKernel",
    "torus_propagator",
    "evolve_linear",
    "LinearPropagator",
    "linear_trajectory",
    "RadialDataProfile",
    "sharp_low_profile",
    "RadialFlow",
    "radial_semigroup_norms",
    "source_terms",
    "imex_step",
    "default_dt",
    "DensityPositivityError",
    "NumericalBlowupError",
]

# Pade-13 coefficients and the corresponding scaling threshold (1-norm).
_PADE13_B = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)
_THETA13 = 5.371920351148152


class DensityPositivityError(RuntimeError):
    """Density perturbation reached |a| >= 1 somewhere: 1 + a <= 0."""

    def __init__(self, max_abs_a, location):
        self.max_abs_a = max_abs_a
        self.location = location
        super().__init__(
            f"density positivity violated: max|a| = {max_abs_a:.6g} at grid index {location}"
        )


class NumericalBlowupError(RuntimeError):
    """Non-finite values appeared during time stepping."""


def _pade13(a: np.ndarray) -> np.ndarray:
    b = _PADE13_B
    n = a.shape[-1]
    ident = np.broadcast_to(np.eye(n, dtype=a.dtype), a.shape).copy()
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    return np.linalg.solve(v - u, v + u)


def expm(a: np.ndarray, max_chunk: int = 65536) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 diagonal
    Pade kernel.  Accepts batched input of shape (..., n, n); the squaring
    count is chosen per matrix from its 1-norm.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return expm(a[None])[0]
    lead = a.shape[:-2]
    n = a.shape[-1]
    flat = a.reshape(-1, n, n).astype(np.complex128, copy=False)
    out = np.empty_like(flat)
    for start in range(0, flat.shape[0], max_chunk):
        block = flat[start : start + max_chunk]
        norms = np.abs(block).sum(axis=-2).max(axis=-1)
        with np.errstate(divide="ignore"):
            s = np.ceil(np.log2(norms / _THETA13))
        s = np.where(np.isfinite(s), np.maximum(s, 0), 0).astype(int)
        res = np.empty_like(block)
        zero = norms == 0.0
        if np.any(zero):
            res[zero] = np.eye(n, dtype=block.dtype)
        for sval in np.unique(s[~zero]) if np.any(~zero) else []:
            sel = (s == sval) & ~zero
            r = _pade13(block[sel] / 2.0**sval)
            for _ in range(sval):
                r = r @ r
            res[sel] = r
        out[start : start + max_chunk] = res
    return out.reshape(*lead, n, n)


def propagate_mode(m: SymbolMatrix, u0, t: float) -> np.ndarray:
    """exp(t M) u0 for a single mode; exact solution of the linear system."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    entries = np.asarray(m.entries)
    if not np.all(np.isfinite(entries)):
        raise ValueError("symbol matrix has non-finite entries")
    return expm(t * entries) @ np.asarray(u0, dtype=complex)


@dataclass(frozen=True)
class Propagator:
    """exp(t M) for one mode, with the generating data kept around."""

    m: SymbolMatrix
    t: float
    matrix_exponential: np.ndarray

    @classmethod
    def at(cls, m: SymbolMatrix, t: float) -> "Propagator":
        return cls(m=m, t=t, matrix_exponential=expm(t * np.asarray(m.entries)))

    def __call__(self, u0) -> np.ndarray:
        return self.matrix_exponential @ np.asarray(u0, dtype=complex)


def mode_matrices(spec: ModelSpec, grid: Grid) -> np.ndarray:
    """Generator matrices at every lattice wavevector, shape (n^d, nc, nc)."""
    if spec.kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError("grid evolution supports the full NSC/NSF systems only")
    if spec.d != grid.d:
        raise ValueError(f"spec dimension {spec.d} does not match grid dimension {grid.d}")
    d = grid.d
    xi = [x.ravel() for x in grid.wavevectors()]
    nmodes = xi[0].size
    nc = spec.n_components
    m = np.zeros((nmodes, nc, nc), dtype=np.complex128)
    r2 = sum(x**2 for x in xi)
    nu = spec.nu
    ia, it = 0, 1 + d
    for i in range(d):
        m[:, ia, 1 + i] = -1j * xi[i]
        m[:, 1 + i, ia] = -1j * xi[i]
        m[:, 1 + i, it] = -1j * spec.gamma * xi[i]
        m[:, it, 1 + i] = -1j * spec.gamma * xi[i]
        for jdx in range(d):
            visc = -(spec.visc_lam + spec.visc_mu) * xi[i] * xi[jdx]
            if i == jdx:
                visc -= spec.visc_mu * r2
            m[:, 1 + i, 1 + jdx] = visc / nu if nu > 0 else 0.0
    if spec.kind is SystemKind.NSC:
        e2 = spec.eps**2
        for i in range(d):
            m[:, it, 2 + d + i] = -1j * spec.beta * xi[i]
            m[:, 2 + d + i, it] = -1j * spec.kappa * xi[i] / e2
            m[:, 2 + d + i, 2 + d + i] = -spec.alpha / e2
    else:
        m[:, it, it] = -(spec.beta * spec.kappa / spec.alpha) * r2
    return m


# Generators whose eigenvector matrix is worse conditioned than this keep the
# Pade expm: there the eigenvalues coalesce (the regime transition) and
# V diag(e^(t lambda)) V^-1 would lose about log10(cond) digits.
_COND_MAX = 1e6


class PropagatorKernel:
    """exp(t M) for a stack of real generators from one eigendecomposition.

    The generators do not depend on t, so M = V diag(lambda) V^-1 is
    computed once and exp(t M) = V diag(e^(t lambda)) V^-1 at every t (the
    eigenvector method of Moler & Van Loan 2003).  Generators with
    cond(V) > _COND_MAX are kept aside and take expm at every t.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = np.asarray(mats, dtype=float)
        lam, vecs = np.linalg.eig(self.mats)
        self.fallback = np.flatnonzero(~(np.linalg.cond(vecs) <= _COND_MAX))
        lam[self.fallback] = 0.0
        vecs[self.fallback] = np.eye(self.mats.shape[-1])
        self.lam = lam
        self.vecs = vecs
        self.vinv = np.linalg.inv(vecs)

    def matrices(self, t: float) -> np.ndarray:
        """exp(t M) per generator, real, shape (N, m, m)."""
        out = ((self.vecs * np.exp(t * self.lam)[:, None, :]) @ self.vinv).real
        if self.fallback.size:
            out[self.fallback] = expm(t * self.mats[self.fallback]).real
        return out

    def apply(self, t: float, u: np.ndarray) -> np.ndarray:
        """exp(t M) u per generator, for u of shape (N, m): V (e^(t lambda) V^-1 u)."""
        coeffs = np.einsum("nij,nj->ni", self.vinv, u)
        out = np.einsum("nij,nj->ni", self.vecs, np.exp(t * self.lam) * coeffs)
        if self.fallback.size:
            fb = self.fallback
            out[fb] = np.einsum("nij,nj->ni", expm(t * self.mats[fb]), u[fb])
        return out


@functools.lru_cache(maxsize=16)
def _torus_kernel(spec: ModelSpec, grid: Grid):
    """Longitudinal kernel at the distinct lattice |k|^2 of a grid, the
    index of each mode's radius (C order) and the unit wavevectors k/|k|,
    with e_1 at k = 0."""
    if spec.kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError("grid evolution supports the full NSC/NSF systems only")
    if spec.d != grid.d:
        raise ValueError(f"spec dimension {spec.d} does not match grid dimension {grid.d}")
    modes = np.meshgrid(*([grid.modes_1d()] * grid.d), indexing="ij")
    msq, radius = np.unique(sum(m.ravel() ** 2 for m in modes), return_inverse=True)
    r = np.sqrt(msq) * (2.0 * np.pi / grid.L)
    kernel = PropagatorKernel(reduced_blocks(spec, r))
    rk = r[radius]
    khat = np.stack([x.ravel() for x in grid.wavevectors()], axis=1)
    khat[rk > 0] /= rk[rk > 0, None]
    khat[rk == 0] = np.eye(grid.d)[0]
    return kernel, r, radius, khat


def torus_propagator(spec: ModelSpec, grid: Grid, t: float) -> np.ndarray:
    """exp(t M(k)) at every lattice mode, shape (n^d, nc, nc); the same
    matrices as expm(t * mode_matrices(spec, grid)).

    Each mode embeds the longitudinal block B = exp(t M_red(|k|)) through the
    rows L = (a, i k.v, theta, i k.q) (k unit) as L^H B L, and adds the
    transverse parts e^(-(mu/nu)|k|^2 t) P on v and e^(-(alpha/eps^2) t) P on
    q, P = I - k k^T.  Every state component feeds exactly one longitudinal
    unknown, so entry (i, j) is the single product conj(L_i) B L_j: real
    times 1 or +-i.  B is real, hence E(-k) = conj E(k) exactly.
    """
    kernel, r, radius, khat = _torus_kernel(spec, grid)
    d = grid.d
    nsc = spec.kind is SystemKind.NSC
    # longitudinal unknown and vector flag of each state component
    unknown = np.array([0] + [1] * d + [2] + ([3] * d if nsc else []))
    vector = np.array([0] + [1] * d + [0] + ([1] * d if nsc else []))
    weight = np.ones((khat.shape[0], unknown.size))
    weight[:, vector == 1] = np.tile(khat, 2 if nsc else 1)
    # conj(L_i) L_j / (|L_i| |L_j|): 1, i or -i by the vector flags of i and j
    phase = np.array([1.0, 1j, -1j])[vector[None, :] - vector[:, None]]
    b = kernel.matrices(t)[radius]
    e = phase * (b[:, unknown[:, None], unknown[None, :]] * weight[:, :, None] * weight[:, None, :])
    proj = np.eye(d) - khat[:, :, None] * khat[:, None, :]
    e[:, 1 : 1 + d, 1 : 1 + d] += np.exp(-spec.mu_over_nu * r**2 * t)[radius, None, None] * proj
    if nsc:
        e[:, 2 + d :, 2 + d :] += math.exp(-spec.damping_rate * t) * proj
    return e


def _apply_batched(e: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """Apply per-mode matrices e (N, nc, nc) to stacked coeffs (nc, *shape)."""
    nc = stacked.shape[0]
    flat = stacked.reshape(nc, -1).T  # (N, nc)
    out = np.einsum("nij,nj->ni", e, flat)
    return out.T.reshape(stacked.shape)


def evolve_linear(state: State, spec: ModelSpec, t: float) -> State:
    """Exact zero-source linear evolution by per-mode propagation."""
    grid = state.grid
    expected_flux = spec.kind is SystemKind.NSC
    if state.has_flux != expected_flux:
        raise ValueError("state components do not match the system kind")
    new = _apply_batched(torus_propagator(spec, grid, t), state.stacked())
    return State.from_stacked(grid, new, state.time + t, state.has_flux)


class LinearPropagator:
    """Precomputed exp(dt M) over all modes, for repeated uniform stepping."""

    def __init__(self, spec: ModelSpec, grid: Grid, dt: float):
        self.spec = spec
        self.grid = grid
        self.dt = dt
        self.e = torus_propagator(spec, grid, dt)

    def step(self, state: State) -> State:
        new = _apply_batched(self.e, state.stacked())
        return State.from_stacked(self.grid, new, state.time + self.dt, state.has_flux)


def linear_trajectory(state0: State, spec: ModelSpec, dt: float, nsteps: int) -> list:
    """States at times t0, t0+dt, ..., t0+nsteps*dt under the linear flow."""
    prop = LinearPropagator(spec, state0.grid, dt)
    out = [state0]
    cur = state0
    for _ in range(nsteps):
        cur = prop.step(cur)
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# Whole-space radial semigroup machinery (linear decay studies).


@dataclass(frozen=True)
class RadialDataProfile:
    """Radial Fourier amplitudes of longitudinal data.

    amplitude(r) returns the initial reduced coefficients, one row per
    radial node, columns (a, omega, theta, sigma) for the relaxing system
    or (a, omega, theta) for the Fourier-law limit.  sigma1 records the
    low-frequency regularity index the data is built for.
    """

    amplitude: object
    sigma1: float


def sharp_low_profile(sigma1: float, d: int, mix=None, r_cut: float = 1.0) -> RadialDataProfile:
    """Data sharply in the critical low-frequency class: |xi|^(sigma1 - d/2)
    on |xi| <= r_cut, zero above.  mix weights the components."""

    def amplitude(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        base = np.where(r <= r_cut, r ** (sigma1 - d / 2.0), 0.0)
        w = np.ones(4) if mix is None else np.asarray(mix, dtype=complex)
        return base[:, None] * w[None, :]

    return RadialDataProfile(amplitude=amplitude, sigma1=sigma1)


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


class RadialFlow:
    """Longitudinal linear flow on a log-radial quadrature grid.

    Evaluates u(t, r) = exp(t M_red(r)) u0(r) and turns it into Plancherel
    L2 norms, dyadic band norms and Besov-type proxies for p > 2.
    """

    REDUCED_LABELS = ("a", "omega", "theta", "sigma")

    def __init__(
        self,
        spec: ModelSpec,
        profile: RadialDataProfile,
        r_min: float = 1e-4,
        r_max: float = 1e4,
        nodes: int = 4096,
    ):
        if nodes < 512:
            raise ValueError(f"need at least 512 radial nodes, got {nodes}")
        self.spec = spec
        self.profile = profile
        self.d = spec.d
        self.r = np.logspace(math.log10(r_min), math.log10(r_max), nodes)
        self.log_weights = self._trapezoid_weights(np.log(self.r))
        self.kernel = PropagatorKernel(reduced_blocks(spec, self.r))
        self.ncomp = self.kernel.mats.shape[-1]
        u0 = np.asarray(profile.amplitude(self.r), dtype=complex)
        if u0.shape[1] > self.ncomp:
            u0 = u0[:, : self.ncomp]
        self.u0 = u0

    @staticmethod
    def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
        w = np.zeros_like(x)
        dx = np.diff(x)
        w[:-1] += 0.5 * dx
        w[1:] += 0.5 * dx
        return w

    def at(self, t: float) -> np.ndarray:
        """Reduced coefficients at time t, shape (nodes, ncomp)."""
        return self.kernel.apply(t, self.u0)

    def component(self, u: np.ndarray, name: str) -> np.ndarray:
        """Derived or primitive per-node scalar amplitude |component(r)|."""
        a, om, th = u[:, 0], u[:, 1], u[:, 2]
        if name in ("a", "omega", "theta"):
            return np.abs(u[:, self.REDUCED_LABELS.index(name)])
        if name == "sigma":
            return np.abs(u[:, 3])
        if name == "v":
            return np.abs(om)
        if name == "q":
            return np.abs(u[:, 3])
        if name == "w":  # effective velocity: omega - a/r along the direction
            return np.abs(om - a / self.r)
        if name == "Q":  # damped mode alpha q + kappa grad theta, longitudinal
            return np.abs(self.spec.alpha * u[:, 3] - self.spec.kappa * self.r * th)
        raise ValueError(f"unknown component {name!r}")

    def _radial_integral(self, values_sq: np.ndarray, weight: np.ndarray) -> float:
        integrand = values_sq * weight * self.r  # extra r: d(log r) quadrature
        return float(np.sum(integrand * self.log_weights))

    def l2_norm(self, u: np.ndarray, comps, sigma: float = 0.0) -> float:
        """Plancherel L2 norm of Lambda^sigma applied to the named components."""
        area = _SPHERE_AREA[self.d]
        vals = sum(self.component(u, c) ** 2 for c in comps)
        w = self.r ** (2.0 * sigma + self.d - 1.0)
        integral = self._radial_integral(vals, w)
        return math.sqrt(area * integral / (2.0 * np.pi) ** self.d)

    def band_l2_norm(self, u: np.ndarray, comps, j: int) -> float:
        area = _SPHERE_AREA[self.d]
        vals = sum(self.component(u, c) ** 2 for c in comps)
        mask = (self.r >= 2.0**j) & (self.r < 2.0 ** (j + 1))
        w = np.where(mask, self.r ** (self.d - 1.0), 0.0)
        integral = self._radial_integral(vals, w)
        return math.sqrt(area * integral / (2.0 * np.pi) ** self.d)

    def band_range(self) -> range:
        return range(
            math.floor(math.log2(self.r[0])), math.floor(math.log2(self.r[-1])) + 1
        )

    def besov_proxy(self, u: np.ndarray, comps, s: float, p: float) -> float:
        """sum_j 2^(j(s + d/2 - d/p)) |u_j|_L2: the band-summed L^p proxy."""
        shift = self.d / 2.0 - self.d / p
        return sum(
            2.0 ** (j * (s + shift)) * self.band_l2_norm(u, comps, j)
            for j in self.band_range()
        )

    def lp_norm(self, u: np.ndarray, comps, sigma: float, p: float) -> float:
        if p == 2:
            return self.l2_norm(u, comps, sigma)
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        return self.besov_proxy(u, comps, sigma, p)

    def checked_lp_norm(self, u: np.ndarray, comps, sigma: float, p: float, t: float) -> float:
        """lp_norm of u = at(t), raising FloatingPointError when the
        quadrature under- or overflows instead of returning 0 or inf."""
        val = self.lp_norm(u, comps, sigma, p)
        if not np.isfinite(val) or (val == 0.0 and self.lp_norm(self.u0, comps, sigma, p) > 0.0):
            raise FloatingPointError(
                f"radial quadrature underflow/overflow at t = {t}: norm = {val}"
            )
        return val


def radial_semigroup_norms(
    spec: ModelSpec,
    prof: RadialDataProfile,
    d: int,
    p: float,
    sigma: float,
    times,
    comps=("a", "v"),
    r_min: float = 1e-4,
    r_max: float = 1e4,
    nodes: int = 4096,
) -> np.ndarray:
    """Time series of |Lambda^sigma (components)(t)|_Lp under the linear flow.

    p = 2 is an exact Plancherel evaluation on the radial quadrature grid;
    p > 2 uses the dyadic-band embedding proxy.  Quadrature underflow (all
    mass decayed below tiny) is reported, not zeroed.
    """
    if spec.d != d:
        raise ValueError(f"spec dimension {spec.d} != requested {d}")
    flow = RadialFlow(spec, prof, r_min=r_min, r_max=r_max, nodes=nodes)
    return np.array([flow.checked_lp_norm(flow.at(float(t)), comps, sigma, p, t) for t in times])


# ---------------------------------------------------------------------------
# Nonlinear sources and the IMEX integrating-factor midpoint stepper.


def _check_density(a_phys: np.ndarray) -> np.ndarray:
    amax_idx = np.unravel_index(np.argmax(np.abs(a_phys.real)), a_phys.shape)
    amax = float(np.abs(a_phys.real[amax_idx]))
    if amax >= 1.0:
        raise DensityPositivityError(amax, tuple(int(i) for i in amax_idx))
    return a_phys.real


def source_terms(state: State, spec: ModelSpec):
    """Quadratic-and-higher source fields (F, G, H[, I]) of the nonlinear
    system, for the ideal-gas closure (pressure factor pi(rho) = rho, unit
    heat capacity).

    All products are formed pointwise in physical space, transformed back
    and dealiased by the 2/3 rule.  The closure functions this produces:
    J(a) = a/(1+a) on the viscous and flux-divergence couplings,
    -J(a) on grad a, log(1+a) under theta grad(.), and a plain theta div v
    with the temperature-coupling weight.
    """
    grid = state.grid
    d = grid.d
    if spec.kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError("sources are defined for the full NSC/NSF systems")
    if spec.kind is SystemKind.NSC and not state.has_flux:
        raise ValueError("relaxing system needs heat-flux components")

    a_p = _check_density(to_physical(state.a))
    v_p = [to_physical(f).real for f in state.v]
    th_p = to_physical(state.theta).real
    one_plus = 1.0 + a_p
    jfun = a_p / one_plus

    grad_a = [to_physical(g).real for g in apply_multiplier(state.a, "grad")]
    grad_th = [to_physical(g).real for g in apply_multiplier(state.theta, "grad")]
    grad_v = [[to_physical(apply_multiplier(state.v[i], "grad_j", j=j)).real for j in range(d)] for i in range(d)]
    div_v = sum(grad_v[i][i] for i in range(d))

    nu = spec.nu
    # normalized Lame operator applied to v, physical samples
    av_spec = []
    lap_v = [apply_multiplier(state.v[i], "laplacian") for i in range(d)]
    div_v_field = apply_multiplier(state.v, "div")
    grad_div_v = apply_multiplier(div_v_field, "grad")
    for i in range(d):
        coeff = (
            spec.visc_mu * lap_v[i].coeffs + (spec.visc_lam + spec.visc_mu) * grad_div_v[i].coeffs
        ) / nu if nu > 0 else np.zeros(grid.shape, dtype=complex)
        av_spec.append(SpectralField(grid, coeff))
    av_p = [to_physical(f).real for f in av_spec]

    def spectralize(phys: np.ndarray) -> SpectralField:
        return dealias_23(to_spectral(grid, phys))

    # F = -div(a v)
    f_field = apply_multiplier(tuple(spectralize(a_p * v_p[i]) for i in range(d)), "div")
    f_field = SpectralField(grid, -f_field.coeffs)

    # G = -(v.grad)v - J(a) A v + J(a) grad a - theta grad(a)/(1+a)
    g_fields = []
    for i in range(d):
        adv = sum(v_p[j] * grad_v[i][j] for j in range(d))
        phys = -adv - jfun * av_p[i] + jfun * grad_a[i] - th_p * grad_a[i] / one_plus
        g_fields.append(spectralize(phys))

    # viscous heating N(grad v, grad v) = (2 mu |Dv|^2 + lam (div v)^2)/nu
    dv2 = sum(
        (0.5 * (grad_v[i][j] + grad_v[j][i])) ** 2 for i in range(d) for j in range(d)
    )
    nheat = (2.0 * spec.visc_mu * dv2 + spec.visc_lam * div_v**2) / nu if nu > 0 else 0.0

    adv_th = sum(v_p[j] * grad_th[j] for j in range(d))
    if spec.kind is SystemKind.NSC:
        div_q = to_physical(apply_multiplier(state.q, "div")).real
        flux_term = spec.beta * jfun * div_q
    else:
        lap_th = to_physical(apply_multiplier(state.theta, "laplacian")).real
        flux_term = -(spec.beta * spec.kappa / spec.alpha) * jfun * lap_th
    h_phys = -adv_th + flux_term + nheat / one_plus - spec.gamma * th_p * div_v
    h_field = spectralize(h_phys)

    if spec.kind is SystemKind.NSF:
        return f_field, tuple(g_fields), h_field

    q_p = [to_physical(f).real for f in state.q]
    grad_q = [[to_physical(apply_multiplier(state.q[i], "grad_j", j=j)).real for j in range(d)] for i in range(d)]
    i_fields = []
    for i in range(d):
        adv_q = sum(v_p[j] * grad_q[i][j] for j in range(d))
        stretch = sum(q_p[j] * grad_v[i][j] for j in range(d))
        phys = -adv_q + stretch - q_p[i] * div_v
        i_fields.append(spectralize(phys))
    return f_field, tuple(g_fields), h_field, tuple(i_fields)


def _stack_sources(grid: Grid, sources) -> np.ndarray:
    flat = []
    for item in sources:
        if isinstance(item, tuple):
            flat.extend(item)
        else:
            flat.append(item)
    return np.stack([f.coeffs for f in flat])


@functools.lru_cache(maxsize=16)
def _step_propagators(spec: ModelSpec, grid: Grid, dt: float):
    return torus_propagator(spec, grid, dt), torus_propagator(spec, grid, dt / 2.0)


def imex_step(
    state: State,
    spec: ModelSpec,
    dt: float,
    th=None,
    forcing=None,
) -> State:
    """One integrating-factor midpoint step of the nonlinear system.

    U(t+dt) = e^(dt M) U + dt e^(dt M / 2) N(U_mid), with the midpoint
    state predicted by an explicit Euler step in the integrating-factor
    frame; second order in dt.  `forcing(t)` may supply an extra stacked
    spectral source (manufactured solutions, external drive).  `th` is an
    optional Thresholds carrying the regime-validity check for spec.eps.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if th is not None and spec.kind is SystemKind.NSC and abs(th.eps - spec.eps) > 1e-12 * max(1.0, spec.eps):
        raise ValueError("thresholds were built for a different relaxation time")
    grid = state.grid
    e_full, e_half = _step_propagators(spec, grid, dt)

    u0 = state.stacked()
    if not np.all(np.isfinite(u0)):
        raise NumericalBlowupError(f"non-finite coefficients entering step at t = {state.time}")
    n0 = _stack_sources(grid, source_terms(state, spec))
    if forcing is not None:
        n0 = n0 + forcing(state.time)
    u_mid = _apply_batched(e_half, u0 + (dt / 2.0) * n0)
    mid_state = State.from_stacked(grid, u_mid, state.time + dt / 2.0, state.has_flux)
    n_mid = _stack_sources(grid, source_terms(mid_state, spec))
    if forcing is not None:
        n_mid = n_mid + forcing(state.time + dt / 2.0)
    u_next = _apply_batched(e_full, u0) + dt * _apply_batched(e_half, n_mid)
    if not np.all(np.isfinite(u_next)):
        raise NumericalBlowupError(f"non-finite coefficients after step at t = {state.time}")
    return State.from_stacked(grid, u_next, state.time + dt, state.has_flux)


def default_dt(state: State, spec: ModelSpec) -> float:
    """Diffusion/advection-stability heuristic for the explicit source part."""
    grid = state.grid
    dx = grid.dx
    diffusivities = [1.0, spec.mu_over_nu]
    if spec.alpha > 0:
        diffusivities.append(spec.beta * spec.kappa / spec.alpha)
    dt_diff = 0.25 * dx**2 / max(diffusivities)
    vmax = max(float(np.max(np.abs(to_physical(f).real))) for f in state.v)
    dt_adv = 0.5 * dx / vmax if vmax > 0 else np.inf
    return min(dt_diff, dt_adv)
