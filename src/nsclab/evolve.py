"""Time propagation: exact linear flow on the torus and on the whole-space
radial grid, and a pseudo-spectral IMEX stepper for the nonlinear relaxing
system on the torus.

The generator splits into a real longitudinal block (model.reduced_blocks)
that depends on |xi| only, transverse viscous scalars exp(-(mu/nu)|xi|^2 t)
for the velocity and transverse damping scalars exp(-(alpha/eps^2) t) for
the heat flux.  PropagatorKernel decomposes the longitudinal blocks at a set
of radii once, M = V diag(lambda) V^-1, so exp(tM) at any t costs one
exponential per eigenvalue; ill-conditioned radii keep scipy.linalg.expm
(Higham 2005), and only radii whose det V cannot bound cond(V) pay for an
SVD.  The radial flow builds one kernel over the log-spaced nodes that
carry data (the rest stay exact zeros), takes the data's coefficients
V^-1 u0 once and keeps only lambda, V and the expm fallback's blocks, so a
sample costs e^(t lambda) and one product with V; RadialFlow.band_norms
turns a sample into per-band L2 norms with one band sum.  The torus builds
one kernel per (spec, grid) at the distinct lattice |k|^2; a step gathers
the real block of each mode's radius and applies it to -i (a, i k.v,
theta, i k.q), with -i on a and theta on the way in and i on their rows on
the way out, then scales the transverse parts of v and q.  The gathered
blocks belong to the LinearPropagator or IMEX step that built them:
nothing per mode is cached beyond it.  Band sums of squared linear rows
along the exact torus flow step nothing: they come from a state's
per-radius Gram factors, the zero mode a key in no band, and the kernel's
eigen-projectors (_torus_measure, _flow_band_sums).  The damping
alpha/eps^2 lives inside the exponential, so nothing here restricts dt by
eps; the explicit part of the IMEX step only sees the quadratic sources.

The fields are real, so the nonlinear part works on the rfft half lattice
(last axis 0..n/2): one source evaluation takes one stack of every field
and derivative the products need to physical space (_inverse_rfftn), forms
the products in place and brings them back in one batched forward real
FFT (_forward_rfftn), dealiased by the 2/3 rule.  Both transforms are
numpy.fft passes in scipy.fft's pass order, so their bits are scipy's.  An
ImexStep builds its linear factors once, steps on the half lattice and
rebuilds the full lattice by conjugate mirroring once per record.

scipy is not imported with this module: scipy.linalg loads on the first
expm, so a study that never reaches it runs on numpy alone.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np

from .besov import _grid_labels, band_labels, band_sums, dyadic_range, grid_band_range
from .model import ModelSpec, SymbolMatrix, SystemKind, _generators, reduced_blocks
from .model import reduced_symbol  # noqa: F401  (perfbench/tracer.py wraps evolve.reduced_symbol)
from .spectral import Grid, State, _freeze, to_physical
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
    "source_terms",
    "ImexStep",
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


# Threads of the nonlinear sources' transforms; cli.run sets it from --threads.
# Each stack's rows are cut into min(threads, rows) contiguous ranges
# (_by_rows), and every 1-D transform is independent of its batch, so the
# count changes no bit.
_FFT_WORKERS = contextvars.ContextVar("fft_workers", default=1)


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, batched over leading axes.  scipy.linalg loads on
    the first call, so a study that never calls it does not pay the import."""
    import scipy.linalg

    return scipy.linalg.expm(a)


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
    computed once and exp(t M) = sum_k e^(t lambda_k) v_k w_k^T (w_k row k of
    V^-1; Moler & Van Loan 2003's eigenvector method) at every t.  Generators
    with cond2(V) > _COND_MAX are kept aside and take expm at every t.  V has
    unit columns, so cond2(V) <= m^(m/2) / |det V|: only the blocks whose
    determinant leaves that bound above _COND_MAX have cond2(V) computed (an
    SVD), and the fallback set is the SVD rule's.  The torus reads exp(t M)
    (matrices), the eigen-projectors and V^-1 (studies.slow_projection);
    RadialFlow keeps lambda, V and its data's V^-1 u0 and lets the kernel go.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = np.asarray(mats, dtype=float)
        lam, vecs = np.linalg.eig(self.mats)
        m = self.mats.shape[-1]
        near = np.flatnonzero(~(np.abs(np.linalg.det(vecs)) * _COND_MAX >= m ** (m / 2)))
        self.fallback = near[~(np.linalg.cond(vecs[near]) <= _COND_MAX)] if near.size else near
        lam[self.fallback] = 0.0
        vecs[self.fallback] = np.eye(m)
        self.lam = lam.astype(complex)  # eig returns real lam when every eigenvalue is real
        self.vecs = vecs
        self.vinv = np.linalg.inv(vecs)

    @functools.cached_property
    def projectors(self) -> np.ndarray:
        """P_k = v_k w_k^T as rows 2k = Re P_k and 2k + 1 = -Im P_k, shape (N, 2m, m^2); built on first use, never by RadialFlow."""
        p = np.einsum("nik,nkj->nkij", self.vecs, self.vinv).reshape(*self.lam.shape, -1)
        return np.stack([p.real, -p.imag], axis=2).reshape(p.shape[0], -1, p.shape[-1])

    def matrices(self, t) -> np.ndarray:
        """exp(t M) per generator, real, shape (N, m, m); for a 1-d array of T
        times, shape (T, N, m, m): e^(t lambda) as (N, T, 2m) reals times the projectors."""
        t = np.asarray(t, dtype=float)
        out = np.exp(np.atleast_1d(t)[:, None] * self.lam[:, None, :]).view(float) @ self.projectors
        out = np.moveaxis(out, 0, 1).reshape(*t.shape, *self.mats.shape)
        if self.fallback.size:
            out[..., self.fallback, :, :] = expm(t[..., None, None, None] * self.mats[self.fallback]).real
        return out


@functools.lru_cache(maxsize=16)
def _lattice_radii(grid: Grid):
    """The distinct lattice radii |k| of a grid, the index of each mode's
    radius (C order) and the unit wavevectors k/|k| as (d, n^d), with e_1
    at k = 0."""
    modes = np.meshgrid(*([grid.modes_1d()] * grid.d), indexing="ij")
    msq, radius = np.unique(sum(m.ravel() ** 2 for m in modes), return_inverse=True)
    r = np.sqrt(msq) * (2.0 * np.pi / grid.L)
    rk = r[radius]
    khat = np.stack([x.ravel() for x in grid.wavevectors()])
    khat[:, rk > 0] /= rk[rk > 0]
    khat[:, rk == 0] = np.eye(grid.d)[:, :1]
    return _freeze(r), _freeze(radius), _freeze(khat)


@functools.lru_cache(maxsize=16)
def _torus_kernel(spec: ModelSpec, grid: Grid):
    """Longitudinal kernel at the distinct lattice radii of a grid, and _lattice_radii(grid)."""
    _check_grid(spec, grid)
    r, radius, khat = _lattice_radii(grid)
    return PropagatorKernel(reduced_blocks(spec, r)), r, radius, khat


@functools.lru_cache(maxsize=16)
def _half_radii(grid: Grid):
    """_lattice_radii's radius index and unit wavevectors on the rfft half lattice."""
    _, radius, khat = _lattice_radii(grid)
    sel = np.arange(radius.size).reshape(grid.shape)[..., : grid.n // 2 + 1].ravel()
    return _freeze(radius[sel]), _freeze(khat[:, sel])


def _mode_blocks(blocks: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Real per-radius blocks (R, m, m) gathered per mode as (m, m, N)."""
    return np.take(blocks.transpose(1, 2, 0), radius, axis=-1)


def _apply_modes(blocks: np.ndarray, tv: np.ndarray, tq: float, khat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a per-mode map in longitudinal-transverse form to stacked
    coefficients u of shape (nc, *shape), N modes in C order.

    The real blocks of _mode_blocks act on l = (a, i k.v, theta[, i k.q])
    (k unit) through -i l = (-i a, k.v, -i theta[, k.q]): -i goes on a and
    theta on the way in, as an exact swap of real and imaginary parts, and
    i on their rows on the way out.  The transverse parts v - k (k.v) and
    q - k (k.q) are scaled by tv (per mode) and tq.  This is L^H B L plus
    transverse projectors; rows accumulate in scratch freed on return.
    """
    m, d = blocks.shape[0], khat.shape[0]
    flat = u.reshape(u.shape[0], -1)
    out, tmp, acc = np.empty_like(flat), np.empty_like(flat[0]), np.empty_like(flat[0])
    vectors = [(1, tv)] + ([(2 + d, tq)] if m == 4 else [])  # first component, transverse factor
    ell = np.empty((m, flat.shape[1]), dtype=complex)  # -i l
    for j, c in ((0, 0), (2, 1 + d)):
        ell[j].real, ell[j].imag = flat[c].imag, -flat[c].real
    for (s, _), j in zip(vectors, (1, 3)):
        _sum_products(ell[j], tmp, zip(khat, flat[s : s + d]))
    for i, row in enumerate(blocks):
        np.multiply(row[0], ell[0], out=acc)
        for j in range(1, m):
            acc += np.multiply(row[j], ell[j], out=tmp)
        if i % 2 == 0:  # a, theta
            np.multiply(1j, acc, out=out[0 if i == 0 else 1 + d])
        else:  # scale * (x - k (k.x)) + k (new k.x), x = v or q
            s, scale = vectors[i // 2]
            acc -= np.multiply(scale, ell[i], out=tmp)
            for x, k, y in zip(out[s : s + d], khat, flat[s : s + d]):
                np.multiply(scale, y, out=x)
                x += np.multiply(k, acc, out=tmp)
    return out.reshape(u.shape)


def _torus_step(spec: ModelSpec, grid: Grid, t: float, half: bool):
    """exp(t M(k)) in the form _apply_modes takes, on the full lattice or its
    rfft half (last axis 0..n/2): the real blocks B = exp(t M_red(|k|)) per
    mode, phase-free (_apply_modes puts -i on a and theta in, i on their
    rows out), the viscous factor e^(-(mu/nu)|k|^2 t) per mode, the flux
    factor e^(-(alpha/eps^2) t) and k/|k|.  Built on every call and cached
    nowhere: nothing per mode outlives the step or propagator holding it."""
    kernel, r, radius, khat = _torus_kernel(spec, grid)
    if half:
        radius, khat = _half_radii(grid)
    tv = np.exp(-spec.mu_over_nu * r**2 * t)[radius]
    tq = math.exp(-spec.damping_rate * t) if spec.kind is SystemKind.NSC else 0.0
    return _mode_blocks(kernel.matrices(t), radius), tv, tq, khat


def _check_kind(state: State, spec: ModelSpec) -> None:
    if state.has_flux != (spec.kind is SystemKind.NSC):
        raise ValueError("state components do not match the system kind")


class LinearPropagator:
    """exp(dt M) over all modes, for repeated uniform stepping.  It holds the
    per-mode factors of _torus_step for as long as it lives."""

    def __init__(self, spec: ModelSpec, grid: Grid, dt: float):
        self.spec, self.grid, self.dt = spec, grid, dt
        self.factors = _torus_step(spec, grid, dt, False)

    def step(self, state: State) -> State:
        _check_kind(state, self.spec)
        new = _apply_modes(*self.factors, state.u)
        return State.from_stacked(self.grid, new, state.time + self.dt, state.has_flux)

    def run(self, state: State, nsteps: int) -> State:
        """The state nsteps steps on."""
        for _ in range(nsteps):
            state = self.step(state)
        return state


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
# Band sums under the exact torus flow, from per-radius Gram factors.


# Bytes of one time chunk's (K, T, .) blocks in _flow_band_sums; the work is
# per element, so a larger chunk gains little time and raises the peak.
_CHUNK_BYTES = 1 << 20


@functools.lru_cache(maxsize=8)
def _radius_keys(grid: Grid):
    """Group the lattice by (radius, Nyquist plane): the key of each mode
    (C order) and, per key, its radius index, its derivative weight (0 on
    the Nyquist plane, where grad vanishes) and its band label, read from
    the grid's own labels at one of its modes."""
    radius = _lattice_radii(grid)[1]
    nyquist = grid.nyquist_mask().ravel()
    keys, first, key = np.unique(2 * radius + nyquist, return_index=True, return_inverse=True)
    return tuple(_freeze(x) for x in (key, keys // 2, 1.0 - keys % 2, _grid_labels(grid).ravel()[first]))


@dataclass(frozen=True)
class _TorusMeasure:
    """A state's data under the exact torus flow, per (radius, Nyquist) key."""

    grid: Grid
    radius: np.ndarray  # (K,) lattice radius index of each key
    k: np.ndarray  # (K,) |k| of each key
    weight: np.ndarray  # (K,) derivative weight
    band: np.ndarray  # (nbands, K) band membership, none for the zero mode
    factor: np.ndarray  # (K, 4, 4) F with F F^T = G
    perp: np.ndarray  # (K, 2) sum |P v|^2 and sum |P q|^2


def _torus_measure(state: State) -> _TorusMeasure:
    """Gram factors of a relaxing-system state, one per (radius, Nyquist) key.

    Under the exact linear flow z = (a, i k.v, theta, i k.q) (k unit) moves
    by the real block of each mode's radius, so a band sum of |E z|^2 over
    a key's modes, E real, is E G E^T with G = Re sum z z^H = F F^T (eigh).
    Eigenvalues below 16 eps of the key's largest become 0: on rank-deficient
    data (a well-prepared flux, one mode) their roots would put a 1e-8
    relative floor under rows that vanish.  P v and P q, P = I - k k^T, only
    decay and enter as sum |P v|^2, sum |P q|^2.  The zero mode is a key in no
    band, diag(0, 0, 0, -alpha/eps^2) its block; keys without data are dropped.
    """
    if not state.has_flux:
        raise ValueError("state carries no heat flux")
    grid = state.grid
    d = grid.d
    key, radius, weight, label = _radius_keys(grid)
    r, _, khat = _lattice_radii(grid)
    u = state.u.reshape(2 * d + 2, -1)
    kv, kq = (sum(khat[j] * u[s + j] for j in range(d)) for s in (1, 2 + d))
    z = (u[0], 1j * kv, u[1 + d], 1j * kq)
    nk = radius.size
    gram = np.empty((nk, 4, 4))
    for i in range(4):
        for j in range(i, 4):
            gram[:, i, j] = gram[:, j, i] = np.bincount(key, (z[i] * z[j].conj()).real, nk)
    perp = np.stack([np.bincount(key, sum(np.abs(u[s + j] - khat[j] * x) ** 2 for j in range(d)), nk) for s, x in ((1, kv), (2 + d, kq))], axis=1)
    keep = np.any(gram != 0.0, axis=(1, 2)) | np.any(perp != 0.0, axis=1)
    lam, vecs = np.linalg.eigh(gram[keep])
    lam = np.where(lam > 16.0 * np.finfo(float).eps * lam[:, -1:], lam, 0.0)
    factor = vecs * np.sqrt(lam)[:, None, :]
    band = (label[keep] == np.arange(1, len(grid_band_range(grid)) + 1)[:, None]).astype(float)
    return _TorusMeasure(grid, radius[keep], r[radius[keep]], weight[keep], band, factor, perp[keep])


def _flow_band_sums(measure: _TorusMeasure, terms, times, perp) -> np.ndarray:
    """(n, T, R, nbands) squared band norms of the R rows of
    sum_f C_f e^(t M_f) D_f over a measure's keys, for n runs, at `times`
    after its state.  A term (spec, C, D) is spec's longitudinal flow, a
    real row map C, (K, R, m) or (R, m), and data D, (K, m, rank) shared or
    (n, K, m, rank) per run.  Each term contracts its eigen-projectors with
    C and D once; a time chunk, sized by the bytes of its (K, T, .) blocks,
    is then one real (K, T, sum 2m) @ (K, sum 2m, n R rank) matmul, and keys
    on an expm radius take `matrices`.  perp, (R, 2) or (n, R, 2), weighs
    in sum |P v|^2 and sum |P q|^2 under the first term's transverse flow.
    """
    grid, rad, nk = measure.grid, measure.radius, measure.radius.size
    times = np.asarray(times, dtype=float)
    flows, coefs = [], []
    for spec, rows, data in terms:
        kernel = _torus_kernel(spec, grid)[0]
        m = kernel.mats.shape[-1]
        rows, data = np.broadcast_to(rows, (nk, *np.shape(rows)[-2:])), data if np.ndim(data) == 4 else np.asarray(data)[None]
        flows.append((kernel, rows, data))
        coefs.append(np.moveaxis(rows[:, None, None] @ kernel.projectors[rad].reshape(nk, m, 2, m, m) @ data[:, :, None, None], 0, 3))
    n, (nrows, rank) = max(c.shape[3] for c in coefs), coefs[0].shape[4:]  # each (K, m, 2, n, R, rank)
    lam = np.concatenate([kernel.lam[rad] for kernel, _, _ in flows], axis=1)
    coef = np.concatenate([np.broadcast_to(c, (*c.shape[:3], n, nrows, rank)) for c in coefs], axis=1).reshape(nk, 2 * lam.shape[1], n * nrows * rank)
    del coefs
    fb = np.flatnonzero(np.any([np.isin(rad, kernel.fallback) for kernel, _, _ in flows], axis=0))
    spec, perp = terms[0][0], np.reshape(perp, (-1, nrows, 2))
    rates = 2.0 * np.stack([spec.mu_over_nu * measure.k**2, np.full(nk, spec.damping_rate)], axis=1)
    out = np.empty((len(times), n, nrows, measure.band.shape[0]))
    chunk = max(1, _CHUNK_BYTES // (8 * max(nk, 1) * (lam.shape[1] * 2 + n * nrows * (rank + 1))))
    for lo in range(0, len(times), chunk):
        ts = times[lo : lo + chunk]
        x = (np.exp(ts[:, None] * lam[:, None, :]).view(float) @ coef).reshape(nk, ts.size, n, nrows, rank)
        if fb.size:
            x[fb] = np.moveaxis(sum((rows[fb] @ kernel.matrices(ts)[:, rad[fb]])[:, None] @ data[:, fb] for kernel, rows, data in flows), 2, 0)
        sq = np.einsum("...i,...i->...", x, x)  # (K, T, n, R)
        energy = measure.perp[:, None, :] * np.exp(-ts[:, None] * rates[:, None, :])  # (K, T, 2)
        sq += (energy.reshape(-1, 2) @ perp.reshape(-1, 2).T).reshape(nk, ts.size, len(perp), nrows)
        out[lo : lo + chunk] = np.moveaxis(sq, 0, -1) @ measure.band.T
    return grid.L**grid.d * np.moveaxis(out, 1, 0)


# ---------------------------------------------------------------------------
# Whole-space radial semigroup machinery (linear decay studies).


@dataclass(frozen=True)
class RadialDataProfile:
    """Radial Fourier amplitudes of longitudinal data.

    amplitude(r) returns the initial reduced coefficients, one row per
    radial node, columns (a, omega, theta, sigma) for the relaxing system
    or (a, omega, theta) for the Fourier-law limit.  The radial studies
    read sigma1, the low-frequency index the data is built for, from here;
    d is the dimension the amplitude is built for, which RadialFlow holds
    to its model's.
    """

    amplitude: object
    sigma1: float
    d: int


def sharp_low_profile(sigma1: float, d: int) -> RadialDataProfile:
    """Data sharply in the critical low-frequency class: |xi|^(sigma1 - d/2)
    in every component on |xi| <= 1, zero above."""

    def amplitude(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        base = np.where(r <= 1.0, np.minimum(r, 1.0) ** (sigma1 - d / 2.0), 0.0)  # no power of r > 1 to overflow
        return base[:, None] * np.ones(4)[None, :]

    return RadialDataProfile(amplitude=amplitude, sigma1=sigma1, d=d)


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
# The lowest radial node of every radial flow.
_R_MIN = 1e-4


def _check_nodes(nodes: int) -> None:
    if nodes < 512:
        raise ValueError(f"nodes must be at least 512, got {nodes}")


def _check_r_max(r_max: float) -> None:
    if not _R_MIN < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above the lowest radial node {_R_MIN:g}, got {r_max!r}")


class RadialFlow:
    """Longitudinal linear flow on a log-radial quadrature grid.

    Evaluates u(t, r) = exp(t M_red(r)) u0(r) on nodes log-spaced from
    1e-4 to r_max (r_max must lie above 1e-4), with one kernel over the
    support, the nodes where the reduced unknowns of the data (the first
    m profile columns) are nonzero: the flow keeps every other node at
    exact zero.  The support's coefficients V^-1 u0 are taken once; the
    flow then holds lambda and V of the support (lam, vecs) and the blocks
    and data of its expm fallback nodes (fallback, indices into the
    support), not V^-1 nor any other node's block.  A sample costs
    e^(t lambda), one product with V and one expm per fallback node.  It
    turns a sample into the L2 norms of Lambda^sigma of named components
    on every dyadic band: one band sum of the components' |.|^2 r^(2 sigma)
    against a per-node Plancherel weight built once (sphere area x r^d x
    log-trapezoid weight / (2 pi)^d, d = spec.d).  The nodes are
    labelled with their dyadic band once (besov.band_labels, the torus
    rule) and the bands cover every node, so the band norms also sum to the
    whole-space norm.  The profile must be built for spec.d; data that are
    zero on every node give a flow with an empty support.
    """

    def __init__(self, spec: ModelSpec, profile: RadialDataProfile, r_max: float, nodes: int):
        if profile.d != spec.d:
            raise ValueError(f"data profile built for d = {profile.d} does not match the model's d = {spec.d}")
        _check_nodes(nodes)
        _check_r_max(r_max)
        self.spec = spec
        self.r = np.logspace(math.log10(_R_MIN), math.log10(r_max), nodes)
        half = 0.5 * np.diff(np.log(self.r))
        trapezoid = np.pad(half, (0, 1)) + np.pad(half, (1, 0))  # in log r: r^(d-1) dr = r^d d(log r)
        self.weight = _SPHERE_AREA[spec.d] * self.r**spec.d * trapezoid / (2.0 * np.pi) ** spec.d
        self.bands = dyadic_range(self.r[0], self.r[-1])
        self.labels = band_labels(self.r, self.bands)
        u0 = np.asarray(profile.amplitude(self.r), dtype=complex)
        self.u0 = u0[:, : 4 if spec.kind is SystemKind.NSC else 3]  # the unknowns of model.reduced_blocks
        self.support = np.flatnonzero(self.u0.any(axis=1))
        kernel = PropagatorKernel(reduced_blocks(spec, self.r[self.support]))
        data = self.u0[self.support]
        self._coeffs = np.einsum("nij,nj->ni", kernel.vinv, data)
        self.lam, self.vecs, self.fallback = kernel.lam, kernel.vecs, kernel.fallback
        self._fallback_mats, self._fallback_data = kernel.mats[self.fallback], data[self.fallback]

    def at(self, t: float) -> np.ndarray:
        """Reduced coefficients at time t, shape (nodes, ncomp): V (e^(t lambda)
        V^-1 u0) on the support, expm applied to u0 on its fallback nodes,
        exact zeros on the nodes where the data vanish."""
        flow = np.einsum("nij,nj->ni", self.vecs, np.exp(t * self.lam) * self._coeffs)
        if self.fallback.size:
            flow[self.fallback] = np.einsum("nij,nj->ni", expm(t * self._fallback_mats), self._fallback_data)
        out = np.zeros_like(self.u0)
        out[self.support] = flow
        return out

    def band_norms(self, u: np.ndarray, comps, sigma: float = 0.0) -> np.ndarray:
        """L2 norms of Lambda^sigma of the named components of u on every
        band of self.bands: a, v (the reduced omega), theta, q (the reduced
        sigma), the effective velocity w = omega - a/r and the longitudinal
        damped mode Q = alpha sigma - kappa r theta."""

        def row(name):
            if name == "w":
                return u[:, 1] - u[:, 0] / self.r
            if name == "Q":
                return self.spec.alpha * u[:, 3] - self.spec.kappa * self.r * u[:, 2]
            return u[:, ("a", "v", "theta", "q").index(name)]

        density = sum(np.abs(row(c)) ** 2 for c in comps) * self.r ** (2.0 * sigma)
        return np.sqrt(band_sums(self.labels, density * self.weight, len(self.bands)))


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


def _full_lattice(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full-lattice coefficients of real fields from their half lattice:
    c(m) = conj c(-m) wherever the last index of m exceeds n/2."""
    index = _half_lattice(grid)[3]
    lead = half.shape[: -grid.d]
    out = half.reshape(*lead, -1)[..., index].reshape(*lead, *grid.shape)
    upper = out[..., grid.n // 2 + 1 :]
    np.conjugate(upper, out=upper)
    return out


def _sum_products(out: np.ndarray, tmp: np.ndarray, pairs) -> np.ndarray:
    """sum(x * y for x, y in pairs) written into out, with tmp as scratch.
    Like Python's sum it starts from 0, so the bits, signed zeros included,
    are those of the generator expression."""
    out.fill(0.0)
    for x, y in pairs:
        out += np.multiply(x, y, out=tmp)
    return out


def _source_spectra(u: np.ndarray, spec: ModelSpec, grid: Grid, bounds: np.ndarray) -> np.ndarray:
    """Half-lattice spectra of every field and derivative the sources need,
    in one stack split at bounds: the fields, grad a, grad theta, grad v
    ([i*d + j]: d v_i / dx_j), A v, then div q and grad q (NSC) or Lap theta
    (NSF).  Every row keeps the operation order of its formula, so its bits
    do not depend on the buffer it is written into."""
    ikw, lapw, _, _ = _half_lattice(grid)
    d, hshape = grid.d, u.shape[1:]
    v, th = u[1 : 1 + d], u[1 + d]
    stack = np.empty((bounds[-1] + (d * d if spec.kind is SystemKind.NSC else 0), *hshape), dtype=complex)
    fields, grad_a, grad_th, grad_v, av, extra, grad_q = np.split(stack, bounds)
    fields[...] = u[: len(fields)]
    np.multiply(ikw, u[0], out=grad_a)
    np.multiply(ikw, th, out=grad_th)
    np.multiply(ikw[None, :], v[:, None], out=grad_v.reshape(d, d, *hshape))
    tmp = np.empty(hshape, dtype=complex)
    if spec.nu > 0:
        # normalized Lame operator (mu Lap v + (lam + mu) grad div v) / nu
        div_v = _sum_products(np.empty_like(tmp), tmp, zip(ikw, v))
        np.multiply(spec.visc_mu, np.multiply(lapw, v, out=av), out=av)
        for row, k in zip(av, ikw):
            row += np.multiply(spec.visc_lam + spec.visc_mu, np.multiply(k, div_v, out=tmp), out=tmp)
        np.true_divide(av, spec.nu, out=av)
    else:
        av.fill(0.0)
    if spec.kind is SystemKind.NSC:
        q = u[2 + d :]
        _sum_products(extra[0], tmp, zip(ikw, q))
        np.multiply(ikw[None, :], q[:, None], out=grad_q.reshape(d, d, *hshape))
    else:
        np.multiply(lapw, th, out=extra[0])
    return stack


def _row_ranges(rows: int, workers: int) -> list:
    """min(workers, rows) contiguous (lo, hi) ranges that cover rows."""
    k = min(workers, rows)
    cuts = [rows * i // k for i in range(k + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _by_rows(transform, rows: int, workers: int) -> None:
    """transform(lo, hi) over _row_ranges, on a thread pool when there are
    two or more (numpy's pocketfft releases the GIL); the pool's module
    loads only then."""
    ranges = _row_ranges(rows, workers)
    if len(ranges) == 1:
        transform(*ranges[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(ranges)) as pool:
        for done in [pool.submit(transform, lo, hi) for lo, hi in ranges]:
            done.result()


def _inverse_rfftn(stack: np.ndarray, grid: Grid, workers: int) -> np.ndarray:
    """scipy.fft.irfftn of a half-lattice stack over its last d axes
    (norm="forward"), bit for bit, overwriting the stack: complex passes
    over axes -d .. -2 in place, in that order (numpy.fft.irfftn runs them
    in reverse, which moves bits), then the real pass along the last axis
    into a new real array."""
    phys = np.empty((*stack.shape[:-1], grid.n))

    def transform(lo, hi):
        rows = stack[lo:hi]
        for axis in range(-grid.d, -1):
            np.fft.ifft(rows, axis=axis, norm="forward", out=rows)
        np.fft.irfft(rows, n=grid.n, axis=-1, norm="forward", out=phys[lo:hi])

    _by_rows(transform, len(stack), workers)
    return phys


def _forward_rfftn(prods: np.ndarray, grid: Grid, workers: int) -> np.ndarray:
    """scipy.fft.rfftn of a real stack over its last d axes (norm="forward"),
    bit for bit: the real pass along the last axis scaled by 1/n^d, as
    scipy scales it (per-pass 1/n moves bits unless n is a power of two),
    then complex passes over axes -d .. -2 in place, in that order."""
    half = np.empty((*prods.shape[:-1], grid.n // 2 + 1), dtype=complex)
    scale = 1.0 / grid.n**grid.d

    def transform(lo, hi):
        rows = half[lo:hi]
        np.fft.rfft(prods[lo:hi], axis=-1, out=rows)
        np.multiply(rows.view(float), scale, out=rows.view(float))
        for axis in range(-grid.d, -1):
            np.fft.fft(rows, axis=axis, out=rows)

    _by_rows(transform, len(prods), workers)
    return half


def _nonlinear_sources(u: np.ndarray, spec: ModelSpec, grid: Grid) -> np.ndarray:
    """Dealiased sources (F, G, H[, I]) on the half lattice, stacked in state
    component order, from half-lattice state coefficients u (a, v, theta[, q]).

    Every field and derivative the products need (36 at d = 3 for NSC) is
    written into one stack (_source_spectra) and goes to physical space in
    place (_inverse_rfftn).  The products are formed in place in one array
    and come back in one batched rfftn (_forward_rfftn); norm="forward"
    keeps the Fourier-series convention.  Each product keeps the operation
    order of its formula, so the bits do not depend on the buffers.
    """
    workers = _FFT_WORKERS.get()
    ikw, _, drop, _ = _half_lattice(grid)
    d = grid.d
    nsc = spec.kind is SystemKind.NSC
    bounds = np.cumsum([2 + 2 * d if nsc else 2 + d, d, d, d * d, d, 1])
    phys = _inverse_rfftn(_source_spectra(u, spec, grid, bounds), grid, workers)

    fields, grad_a, grad_th, grad_v, av, extra, grad_q = np.split(phys, bounds)
    a_p = _check_density(fields[0])
    v_p, th_p = fields[1 : 1 + d], fields[1 + d]
    grad_v = grad_v.reshape(d, d, *grid.shape)
    one_plus = 1.0 + a_p
    jfun = a_p / one_plus
    div_v = np.zeros(grid.shape)
    for i in range(d):
        div_v += grad_v[i][i]
    tmp, acc = np.empty(grid.shape), np.empty(grid.shape)
    prods = np.empty((2 * d + 1 + (d if nsc else 0), *grid.shape))

    # F = -div(a v): the products a v_i here, the divergence after dealiasing
    np.multiply(a_p, v_p, out=prods[:d])

    # G = -(v.grad)v - J(a) A v + J(a) grad a - theta grad(a)/(1+a)
    for i, row in enumerate(prods[d : 2 * d]):
        np.negative(_sum_products(row, tmp, zip(v_p, grad_v[i])), out=row)
        row -= np.multiply(jfun, av[i], out=tmp)
        row += np.multiply(jfun, grad_a[i], out=tmp)
        row -= np.true_divide(np.multiply(th_p, grad_a[i], out=tmp), one_plus, out=tmp)

    # H = -v.grad theta + flux + N(grad v, grad v)/(1+a) - gamma theta div v, with
    # flux = beta J(a) div q (NSC) or -(beta kappa/alpha) J(a) Lap theta (NSF) and
    # the viscous heating N = (2 mu |Dv|^2 + lam (div v)^2)/nu, 0 if nu = 0
    row = prods[2 * d]
    np.negative(_sum_products(row, tmp, zip(v_p, grad_th)), out=row)
    np.multiply(spec.beta if nsc else -(spec.beta * spec.kappa / spec.alpha), jfun, out=tmp)
    row += np.multiply(tmp, extra[0], out=tmp)
    acc.fill(0.0)
    if spec.nu > 0:
        for i in range(d):
            for j in range(d):
                np.add(grad_v[i][j], grad_v[j][i], out=tmp)
                acc += np.square(np.multiply(0.5, tmp, out=tmp), out=tmp)  # |Dv|^2
        np.multiply(2.0 * spec.visc_mu, acc, out=acc)
        acc += np.multiply(spec.visc_lam, np.square(div_v, out=tmp), out=tmp)
        np.true_divide(acc, spec.nu, out=acc)
    row += np.true_divide(acc, one_plus, out=acc)
    row -= np.multiply(np.multiply(spec.gamma, th_p, out=tmp), div_v, out=tmp)

    if nsc:
        # I = -(v.grad)q + (q.grad)v - q div v
        q_p = fields[2 + d :]
        grad_q = grad_q.reshape(d, d, *grid.shape)
        for i, row in enumerate(prods[2 * d + 1 :]):
            np.negative(_sum_products(row, tmp, zip(v_p, grad_q[i])), out=row)
            row += _sum_products(acc, tmp, zip(q_p, grad_v[i]))
            row -= np.multiply(q_p[i], div_v, out=tmp)

    if not np.all(np.isfinite(prods)):
        raise NumericalBlowupError("non-finite nonlinear source")
    out = _forward_rfftn(prods, grid, workers)
    out[:, drop] = 0.0
    # F = -div of the dealiased a v, stored over the last a v_i slot
    out[d - 1] = -sum(ikw[i] * out[i] for i in range(d))
    return out[d - 1 :]


def source_terms(state: State, spec: ModelSpec):
    """Quadratic-and-higher source fields (F, G, H[, I]) of the nonlinear
    system, for the ideal-gas closure (pressure factor pi(rho) = rho, unit
    heat capacity).

    The fields are real, so only the rfft half lattice of the state is read
    (_nonlinear_sources) and the full lattice is rebuilt by conjugate
    mirroring.  The closure functions this produces: J(a) = a/(1+a) on the
    viscous and flux-divergence couplings, -J(a) on grad a, log(1+a) under
    theta grad(.), and a plain theta div v with the temperature-coupling
    weight.
    """
    if spec.kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError("sources are defined for the full NSC/NSF systems")
    if spec.kind is SystemKind.NSC and not state.has_flux:
        raise ValueError("relaxing system needs heat-flux components")
    grid = state.grid
    half = np.ascontiguousarray(state.u[..., : grid.n // 2 + 1])
    nsc = spec.kind is SystemKind.NSC
    src = State.from_stacked(grid, _full_lattice(grid, _nonlinear_sources(half, spec, grid)), state.time, nsc)
    return (src.a, src.v, src.theta) + ((src.q,) if nsc else ())


class ImexStep:
    """Integrating-factor midpoint steps U(t+dt) = e^(dt M) U + dt e^(dt M/2)
    N(U_mid), U_mid by explicit Euler in that frame; second order in dt, real
    fields only.  It holds _torus_step's half-lattice factors at dt and dt/2."""

    def __init__(self, spec: ModelSpec, grid: Grid, dt: float):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.spec, self.grid, self.dt = spec, grid, dt
        self.full, self.half = _torus_step(spec, grid, dt, True), _torus_step(spec, grid, dt / 2.0, True)

    def run(self, state: State, nsteps: int, forcing=None) -> State:
        """The state nsteps steps on (t + dt each), on the half lattice, mirrored
        to the full lattice once; `forcing(t)` may add a stacked spectral source."""
        _check_kind(state, self.spec)
        if state.grid != self.grid:
            raise ValueError(f"state on {state.grid}, step built for {self.grid}")
        if not np.all(np.isfinite(state.u)):
            raise NumericalBlowupError(f"non-finite coefficients entering step at t = {state.time}")
        u, t = np.ascontiguousarray(state.u[..., : self.grid.n // 2 + 1]), state.time
        for _ in range(nsteps):
            u, t = self._advance(u, t, forcing), t + self.dt
        return State.from_stacked(self.grid, _full_lattice(self.grid, u), t, state.has_flux)

    def _advance(self, u0: np.ndarray, t: float, forcing) -> np.ndarray:
        """Half-lattice u0 at time t one step on, each intermediate freed once used."""
        dt = self.dt
        u_mid = _apply_modes(*self.half, u0 + (dt / 2.0) * self._sources(u0, t, forcing))
        if not np.all(np.isfinite(u_mid)):
            raise NumericalBlowupError(f"non-finite midpoint coefficients in step at t = {t}")
        n_mid = self._sources(u_mid, t + dt / 2.0, forcing)
        del u_mid  # not held through the final products
        u_next = _apply_modes(*self.full, u0) + dt * _apply_modes(*self.half, n_mid)
        if not np.all(np.isfinite(u_next)):
            raise NumericalBlowupError(f"non-finite coefficients after step at t = {t}")
        return u_next

    def _sources(self, u, t, forcing):
        n = _nonlinear_sources(u, self.spec, self.grid)
        return n if forcing is None else n + forcing(t)[..., : self.grid.n // 2 + 1]


def imex_step(state: State, spec: ModelSpec, dt: float, forcing=None) -> State:
    """One integrating-factor midpoint step of the nonlinear system, its
    factors built for the call; a run of many steps builds one ImexStep."""
    return ImexStep(spec, state.grid, dt).run(state, 1, forcing)


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
