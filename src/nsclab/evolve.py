"""Time propagation: exact linear flow on the torus and on the whole-space
radial grid, and a pseudo-spectral IMEX stepper for the nonlinear relaxing
system on the torus.

The generator splits into a real longitudinal block (model.reduced_blocks)
that depends on |xi| only, transverse viscous scalars exp(-(mu/nu)|xi|^2 t)
for the velocity and transverse damping scalars exp(-(alpha/eps^2) t) for
the heat flux.  PropagatorKernel decomposes the longitudinal blocks at a set
of radii once, M = V diag(lambda) V^-1, so exp(tM) at any t costs one
exponential per eigenvalue; radii whose eigenbasis is ill-conditioned keep
scipy.linalg.expm (scaling and squaring, Higham 2005).  The radial flow
uses one kernel over its quadrature nodes; the torus builds one kernel per
(spec, grid) at the distinct lattice |k|^2 and never forms a per-mode
matrix: a step gathers the real block of each mode's radius, applies it to
the longitudinal coordinates (a, i k.v, theta, i k.q) and scales the
transverse parts of v and q by their scalars.  LinearPropagator (stepped by
linear_trajectory) and the IMEX step share that apply.  The stiff heat-flux
damping alpha/eps^2 lives inside the exponential, so nothing here restricts
dt by eps; the explicit part of the IMEX step only sees the quadratic
sources.

The fields are real, so the nonlinear part works on the rfft half lattice
(last axis 0..n/2).  One source evaluation is two batched transforms: an
inverse real FFT of every field and derivative the products need, and a
forward real FFT of the stacked products, dealiased by the 2/3 rule.  The
IMEX step applies the linear step on the half lattice and rebuilds the full
lattice once per step by conjugate mirroring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, rfftn
from scipy.linalg import expm

from .besov import band_labels, band_sums, dyadic_range
from .model import ModelSpec, SymbolMatrix, SystemKind, _generators, reduced_blocks
from .model import reduced_symbol  # noqa: F401  (perfbench/tracer.py wraps evolve.reduced_symbol)
from .spectral import Grid, SpectralField, State, to_physical
from .spectral import to_spectral  # noqa: F401  (perfbench/tracer.py wraps evolve.to_spectral)

__all__ = [
    "propagate_mode",
    "mode_matrices",
    "PropagatorKernel",
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


def propagate_mode(m: SymbolMatrix, u0, t: float) -> np.ndarray:
    """exp(t M) u0 for a single mode; exact solution of the linear system."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    entries = np.asarray(m.entries)
    if not np.all(np.isfinite(entries)):
        raise ValueError("symbol matrix has non-finite entries")
    return expm(t * entries) @ np.asarray(u0, dtype=complex)


def _check_grid(spec: ModelSpec, grid: Grid) -> None:
    if spec.kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError("grid evolution supports the full NSC/NSF systems only")
    if spec.d != grid.d:
        raise ValueError(f"spec dimension {spec.d} does not match grid dimension {grid.d}")


def mode_matrices(spec: ModelSpec, grid: Grid) -> np.ndarray:
    """Generator matrices at every lattice wavevector, shape (n^d, nc, nc)."""
    _check_grid(spec, grid)
    return _generators(spec, np.stack([x.ravel() for x in grid.wavevectors()], axis=1))


# Generators whose eigenvector matrix is worse conditioned than this keep the
# scipy expm: there the eigenvalues coalesce (the regime transition) and
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
    index of each mode's radius (C order) and the unit wavevectors k/|k|
    as (d, n^d), with e_1 at k = 0."""
    _check_grid(spec, grid)
    modes = np.meshgrid(*([grid.modes_1d()] * grid.d), indexing="ij")
    msq, radius = np.unique(sum(m.ravel() ** 2 for m in modes), return_inverse=True)
    r = np.sqrt(msq) * (2.0 * np.pi / grid.L)
    kernel = PropagatorKernel(reduced_blocks(spec, r))
    rk = r[radius]
    khat = np.stack([x.ravel() for x in grid.wavevectors()])
    khat[:, rk > 0] /= rk[rk > 0]
    khat[:, rk == 0] = np.eye(grid.d)[:, :1]
    return kernel, r, radius, khat


def _mode_blocks(blocks: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Real per-radius blocks B (R, m, m) acting on l = (a, i k.v, theta,
    i k.q) (k unit), as the per-mode blocks D^H B D (m, m, N) that act on
    (a, k.v, theta, k.q), D = diag(1, i, 1[, i]).  Each entry is purely real
    or purely imaginary, so the map at -k stays the exact conjugate."""
    phase = np.array([1.0, 1j, 1.0, 1j])[: blocks.shape[-1]]
    return np.ascontiguousarray((phase.conj()[:, None] * blocks * phase)[radius].transpose(1, 2, 0))


def _apply_modes(blocks: np.ndarray, tv: np.ndarray, tq: float, khat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a per-mode map in longitudinal-transverse form to stacked
    coefficients u of shape (nc, *shape), N modes in C order.

    The longitudinal coordinates (a, k.v, theta[, k.q]) (k unit) go through
    the blocks of _mode_blocks, and the transverse parts v - k (k.v) and
    q - k (k.q) are scaled by tv (per mode) and tq.  Every state component
    feeds exactly one longitudinal unknown, so this is the map
    L^H B L + transverse projectors without forming it per mode.
    """
    m, d = blocks.shape[0], khat.shape[0]
    flat = u.reshape(u.shape[0], -1)
    vectors = [(1, tv)] + ([(2 + d, tq)] if m == 4 else [])  # first component, transverse factor
    dots = [sum(khat[j] * flat[s + j] for j in range(d)) for s, _ in vectors]  # k.v[, k.q]
    ell = [flat[0], dots[0], flat[1 + d]] + dots[1:]
    new = blocks[:, 0] * ell[0]
    for j in range(1, m):
        new += blocks[:, j] * ell[j]
    out = np.empty_like(flat)
    out[0], out[1 + d] = new[0], new[2]
    for (s, scale), dot, j in zip(vectors, dots, (1, 3)):
        out[s : s + d] = scale * flat[s : s + d] + khat * (new[j] - scale * dot)
    return out.reshape(u.shape)


# Four entries hold an IMEX step's exp(dt M) and exp(dt M / 2), or the three
# segment steps a relaxation sweep reuses between its NSC runs; an entry
# costs up to 16 complex numbers per mode.
@functools.lru_cache(maxsize=4)
def _torus_step(spec: ModelSpec, grid: Grid, t: float, half: bool):
    """exp(t M(k)) in the form _apply_modes takes, on the full lattice or on
    its rfft half (last axis 0..n/2): the longitudinal blocks
    B = exp(t M_red(|k|)) through _mode_blocks, the transverse viscous
    factor e^(-(mu/nu)|k|^2 t) per mode, the flux factor e^(-(alpha/eps^2) t)
    and the unit wavevectors.  B is real and k -> -k flips k only, so the
    map at -k is exactly the conjugate of the map at k."""
    kernel, r, radius, khat = _torus_kernel(spec, grid)
    if half:
        sel = np.arange(radius.size).reshape(grid.shape)[..., : grid.n // 2 + 1].ravel()
        radius, khat = radius[sel], khat[:, sel]
    tv = np.exp(-spec.mu_over_nu * r**2 * t)[radius]
    tq = math.exp(-spec.damping_rate * t) if spec.kind is SystemKind.NSC else 0.0
    return _mode_blocks(kernel.matrices(t), radius), tv, tq, khat


def _check_kind(state: State, spec: ModelSpec) -> None:
    if state.has_flux != (spec.kind is SystemKind.NSC):
        raise ValueError("state components do not match the system kind")


class LinearPropagator:
    """exp(dt M) over all modes, for repeated uniform stepping."""

    def __init__(self, spec: ModelSpec, grid: Grid, dt: float):
        self.spec = spec
        self.grid = grid
        self.dt = dt
        self.factors = _torus_step(spec, grid, dt, False)

    def step(self, state: State) -> State:
        _check_kind(state, self.spec)
        new = _apply_modes(*self.factors, state.stacked())
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
    L2 norms, dyadic band norms and Besov-type proxies for p > 2.  The nodes
    are labelled with their dyadic band once (besov.band_labels, the torus
    rule), so all band norms of a sample come from one band sum.
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
        self.bands = dyadic_range(self.r[0], self.r[-1])
        self.labels = band_labels(self.r, self.bands)
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

    def l2_norm(self, u: np.ndarray, comps, sigma: float = 0.0) -> float:
        """Plancherel L2 norm of Lambda^sigma applied to the named components."""
        area = _SPHERE_AREA[self.d]
        vals = sum(self.component(u, c) ** 2 for c in comps)
        w = self.r ** (2.0 * sigma + self.d - 1.0)
        integral = float(np.sum(vals * w * self.r * self.log_weights))  # extra r: d(log r) quadrature
        return math.sqrt(area * integral / (2.0 * np.pi) ** self.d)

    def band_l2_norms(self, u: np.ndarray, comps) -> np.ndarray:
        """L2 norms of the named components on every band of band_range()."""
        vals = sum(self.component(u, c) ** 2 for c in comps)
        weight = self.r ** (self.d - 1.0) * self.r * self.log_weights
        integrals = band_sums(self.labels, vals * weight, len(self.bands))
        return np.sqrt(_SPHERE_AREA[self.d] * integrals / (2.0 * np.pi) ** self.d)

    def band_range(self) -> range:
        return self.bands

    def besov_proxy(self, u: np.ndarray, comps, s: float, p: float) -> float:
        """sum_j 2^(j(s + d/2 - d/p)) |u_j|_L2: the band-summed L^p proxy."""
        shift = self.d / 2.0 - self.d / p
        norms = self.band_l2_norms(u, comps)
        return float(sum(2.0 ** (j * (s + shift)) * norm for j, norm in zip(self.bands, norms)))

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


@functools.lru_cache(maxsize=16)
def _half_lattice(grid: Grid):
    """Multipliers on the rfft half lattice of a grid (last axis 0..n/2):
    i xi_j w per axis (w = 0 on the Nyquist plane), -|xi|^2 w, the modes the
    2/3 rule drops, and for each full-lattice mode (C order) the flat
    half-lattice index of m, or of -m when its last index exceeds n/2."""
    h = grid.n // 2 + 1
    half = (Ellipsis, slice(0, h))
    xi = grid.wavevectors()
    w = np.where(grid.nyquist_mask(), 0.0, 1.0)
    ikw = np.stack([(1j * x * w)[half] for x in xi])
    lapw = (-sum(x**2 for x in xi) * w)[half]
    drop = ~grid.dealias_mask()[half]
    index = np.zeros(grid.shape, dtype=np.intp)
    index[half] = np.arange(math.prod(drop.shape)).reshape(drop.shape)
    index[..., h:] = index[grid.mirror_indices()][..., h:]
    tables = ikw, lapw, drop, index.ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _half_coeffs(grid: Grid, fields) -> np.ndarray:
    """Half-lattice coefficients of same-grid fields, stacked."""
    return np.stack([f.coeffs[..., : grid.n // 2 + 1] for f in fields])


def _full_lattice(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full-lattice coefficients of real fields from their half lattice:
    c(m) = conj c(-m) wherever the last index of m exceeds n/2."""
    index = _half_lattice(grid)[3]
    lead = half.shape[: -grid.d]
    out = half.reshape(*lead, -1)[..., index].reshape(*lead, *grid.shape)
    upper = out[..., grid.n // 2 + 1 :]
    np.conjugate(upper, out=upper)
    return out


def _nonlinear_sources(u: np.ndarray, spec: ModelSpec, grid: Grid) -> np.ndarray:
    """Dealiased sources (F, G, H[, I]) on the half lattice, stacked in state
    component order, from half-lattice state coefficients u (a, v, theta[, q]).

    Every field and derivative the products need (36 at d = 3 for NSC) goes
    to physical space in one batched irfftn, and the products come back in
    one batched rfftn; norm="forward" keeps the Fourier-series convention.
    """
    ikw, lapw, drop, _ = _half_lattice(grid)
    d = grid.d
    nsc = spec.kind is SystemKind.NSC
    hshape = u.shape[1:]
    v, th = u[1 : 1 + d], u[1 + d]

    nu = spec.nu
    # normalized Lame operator applied to v
    if nu > 0:
        div_v = sum(ikw[j] * v[j] for j in range(d))
        av = (spec.visc_mu * (lapw * v) + (spec.visc_lam + spec.visc_mu) * (ikw * div_v)) / nu
    else:
        av = np.zeros_like(v)
    spectra = [
        u if nsc else u[: 2 + d],
        ikw * u[0],
        ikw * th,
        (ikw[None, :] * v[:, None]).reshape(d * d, *hshape),  # [i*d + j]: d v_i / dx_j
        av,
    ]
    if nsc:
        q = u[2 + d :]
        spectra += [
            sum(ikw[j] * q[j] for j in range(d))[None],
            (ikw[None, :] * q[:, None]).reshape(d * d, *hshape),
        ]
    else:
        spectra.append((lapw * th)[None])
    phys = irfftn(
        np.concatenate(spectra), s=grid.shape, axes=tuple(range(-d, 0)), norm="forward"
    )

    pieces = np.split(phys, np.cumsum([len(x) for x in spectra])[:-1])
    fields_p, grad_a, grad_th, grad_v, av_p = pieces[:5]
    a_p = _check_density(fields_p[0])
    v_p, th_p = fields_p[1 : 1 + d], fields_p[1 + d]
    grad_v = grad_v.reshape(d, d, *grid.shape)
    one_plus = 1.0 + a_p
    jfun = a_p / one_plus
    div_v = sum(grad_v[i][i] for i in range(d))

    # F = -div(a v): the products a v_i here, the divergence after dealiasing
    prods = [a_p * v_p[i] for i in range(d)]

    # G = -(v.grad)v - J(a) A v + J(a) grad a - theta grad(a)/(1+a)
    for i in range(d):
        adv = sum(v_p[j] * grad_v[i][j] for j in range(d))
        prods.append(-adv - jfun * av_p[i] + jfun * grad_a[i] - th_p * grad_a[i] / one_plus)

    # viscous heating N(grad v, grad v) = (2 mu |Dv|^2 + lam (div v)^2)/nu
    dv2 = sum(
        (0.5 * (grad_v[i][j] + grad_v[j][i])) ** 2 for i in range(d) for j in range(d)
    )
    nheat = (2.0 * spec.visc_mu * dv2 + spec.visc_lam * div_v**2) / nu if nu > 0 else 0.0

    adv_th = sum(v_p[j] * grad_th[j] for j in range(d))
    if nsc:
        flux_term = spec.beta * jfun * pieces[5][0]  # div q
    else:
        flux_term = -(spec.beta * spec.kappa / spec.alpha) * jfun * pieces[5][0]  # Lap theta
    prods.append(-adv_th + flux_term + nheat / one_plus - spec.gamma * th_p * div_v)

    if nsc:
        q_p = fields_p[2 + d :]
        grad_q = pieces[6].reshape(d, d, *grid.shape)
        for i in range(d):
            adv_q = sum(v_p[j] * grad_q[i][j] for j in range(d))
            stretch = sum(q_p[j] * grad_v[i][j] for j in range(d))
            prods.append(-adv_q + stretch - q_p[i] * div_v)

    prods = np.stack(prods)
    if not np.all(np.isfinite(prods)):
        raise NumericalBlowupError("non-finite nonlinear source")
    out = rfftn(prods, axes=tuple(range(-d, 0)), norm="forward")
    out[:, drop] = 0.0
    # F = -div of the dealiased a v, stored over the last a v_i slot
    out[d - 1] = -sum(ikw[i] * out[i] for i in range(d))
    return out[d - 1 :]


def source_terms(state: State, spec: ModelSpec):
    """Quadratic-and-higher source fields (F, G, H[, I]) of the nonlinear
    system, for the ideal-gas closure (pressure factor pi(rho) = rho, unit
    heat capacity).

    The fields are real, so only the rfft half lattice of the state is read.
    All products are formed pointwise in physical space, between one batched
    inverse real FFT of every field and derivative they need and one batched
    forward real FFT of the products, and dealiased by the 2/3 rule; the
    full lattice is rebuilt by conjugate mirroring.  The closure functions
    this produces: J(a) = a/(1+a) on the viscous and flux-divergence
    couplings, -J(a) on grad a, log(1+a) under theta grad(.), and a plain
    theta div v with the temperature-coupling weight.
    """
    if spec.kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError("sources are defined for the full NSC/NSF systems")
    if spec.kind is SystemKind.NSC and not state.has_flux:
        raise ValueError("relaxing system needs heat-flux components")
    grid = state.grid
    d = grid.d
    full = _full_lattice(grid, _nonlinear_sources(_half_coeffs(grid, state.fields()), spec, grid))
    fields = [SpectralField(grid, c) for c in full]
    f_field, g_fields, h_field = fields[0], tuple(fields[1 : 1 + d]), fields[1 + d]
    if spec.kind is SystemKind.NSF:
        return f_field, g_fields, h_field
    return f_field, g_fields, h_field, tuple(fields[2 + d :])


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

    The step runs on the rfft half lattice, so the fields must be real
    (Hermitian coefficients); the result is rebuilt by conjugate mirroring.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if th is not None and spec.kind is SystemKind.NSC and abs(th.eps - spec.eps) > 1e-12 * max(1.0, spec.eps):
        raise ValueError("thresholds were built for a different relaxation time")
    grid = state.grid
    e_full, e_half = _torus_step(spec, grid, dt, True), _torus_step(spec, grid, dt / 2.0, True)
    _check_kind(state, spec)

    if not all(np.all(np.isfinite(f.coeffs)) for f in state.fields()):
        raise NumericalBlowupError(f"non-finite coefficients entering step at t = {state.time}")
    h = grid.n // 2 + 1
    u0 = _half_coeffs(grid, state.fields())
    n0 = _nonlinear_sources(u0, spec, grid)
    if forcing is not None:
        n0 = n0 + forcing(state.time)[..., :h]
    u_mid = _apply_modes(*e_half, u0 + (dt / 2.0) * n0)
    if not np.all(np.isfinite(u_mid)):
        raise NumericalBlowupError(f"non-finite midpoint coefficients in step at t = {state.time}")
    n_mid = _nonlinear_sources(u_mid, spec, grid)
    if forcing is not None:
        n_mid = n_mid + forcing(state.time + dt / 2.0)[..., :h]
    u_next = _apply_modes(*e_full, u0) + dt * _apply_modes(*e_half, n_mid)
    if not np.all(np.isfinite(u_next)):
        raise NumericalBlowupError(f"non-finite coefficients after step at t = {state.time}")
    return State.from_stacked(grid, _full_lattice(grid, u_next), state.time + dt, state.has_flux)


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
