"""Linearized generator matrices for heat-conductive compressible flow models.

The central object is the per-wavevector generator M(xi) of the Fourier-side
ODE dU/dt = M(xi) U for the zero-source linearized systems:

* NSC: relaxing heat flux, unknowns (a, v, theta, q), size 2d+2;
* NSF: instantaneous Fourier heat flux, unknowns (a, v, theta), size d+2;
* two 2x2 toy couplings (density/velocity diffusion, temperature/flux
  damping) and the damped thermal wave, kept in their 1-scalar reduction.

Sign convention: these are generators, so spectral stability means
Re(lambda) <= 0.  The heat-flux equation is implemented as
eps^2 dq/dt + alpha q + kappa grad(theta) = 0, hence a pure damping rate
alpha/eps^2; every reported rate is derived from that normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np
import scipy.optimize

__all__ = [
    "SystemKind",
    "spectral_distance",
    "PhysParams",
    "ModelSpec",
    "SymbolMatrix",
    "SKReport",
    "build_spec",
    "symbol",
    "reduced_symbol",
    "reduced_blocks",
    "solenoidal_eigenvalues",
    "eigenvalues",
    "kalman_rank",
]


class SystemKind(Enum):
    NSC = "nsc"
    NSF = "nsf"
    TOY_DIFFUSIVE = "toy-diffusive"
    TOY_DAMPED = "toy-damped"
    CATTANEO_WAVE = "cattaneo-wave"

    @classmethod
    def parse(cls, name) -> "SystemKind":
        if isinstance(name, cls):
            return name
        key = str(name).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown system kind {name!r}")


_TOYS = (SystemKind.TOY_DIFFUSIVE, SystemKind.TOY_DAMPED, SystemKind.CATTANEO_WAVE)


@dataclass(frozen=True)
class PhysParams:
    """Physical fluid parameters around a constant equilibrium.

    pi_val and pi_prime are the pressure-law factor pi(rho) and its
    derivative evaluated at the equilibrium density (pressure P = T pi(rho)).
    """

    rho_bar: float = 1.0
    T_bar: float = 1.0
    C_v: float = 1.0
    mu: float = 0.5
    lam: float = 0.0
    kappa: float = 1.0
    eps: float = 0.1
    pi_val: float = 1.0
    pi_prime: float = 1.0

    def __post_init__(self):
        for name in ("rho_bar", "T_bar", "C_v", "mu", "kappa", "pi_val", "pi_prime"):
            if not getattr(self, name) > 0:
                raise ValueError(f"parameter {name} must be positive, got {getattr(self, name)}")
        if not self.nu > 0:
            raise ValueError(f"nu = lam + 2 mu must be positive, got {self.nu}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")

    @property
    def nu(self) -> float:
        return self.lam + 2.0 * self.mu


@dataclass(frozen=True)
class ModelSpec:
    """Normalized coefficients identifying one member of the model family.

    visc_mu and visc_lam are the Lame weights of the normalized viscous
    operator A = (mu Lap + (lam+mu) grad div)/nu with nu = lam + 2 mu; the
    longitudinal weight is then 1 (0 for an inviscid spec, nu = 0) and the
    transverse weight is mu/nu.  Dissipation parameters (alpha, kappa,
    visc_mu) may be set to zero to study degenerate stability; build_spec
    never produces those.
    """

    kind: SystemKind
    d: int
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    kappa: float = 1.0
    eps: float = 0.1
    visc_mu: float = 0.5
    visc_lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", SystemKind.parse(self.kind))
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        for name in ("beta", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"coefficient {name} must be positive, got {getattr(self, name)}")
        for name in ("alpha", "kappa", "visc_mu"):
            if getattr(self, name) < 0:
                raise ValueError(f"coefficient {name} must be nonnegative, got {getattr(self, name)}")
        if self.nu < 0:
            raise ValueError(f"nu = visc_lam + 2 visc_mu must be nonnegative, got {self.nu}")
        if self.kind in (SystemKind.NSC,) + _TOYS and not self.eps > 0:
            raise ValueError(f"{self.kind.value} requires a positive relaxation time eps")
        if self.kind is SystemKind.NSF:
            object.__setattr__(self, "eps", 0.0)
        if self.kind is SystemKind.NSF and not (self.alpha > 0 and self.kappa > 0):
            raise ValueError("NSF requires alpha, kappa > 0 (diffusivity beta*kappa/alpha)")

    @property
    def nu(self) -> float:
        return self.visc_lam + 2.0 * self.visc_mu

    @property
    def mu_over_nu(self) -> float:
        return self.visc_mu / self.nu if self.nu > 0 else 0.0

    @property
    def n_components(self) -> int:
        if self.kind is SystemKind.NSC:
            return 2 * self.d + 2
        if self.kind is SystemKind.NSF:
            return self.d + 2
        return 2

    @property
    def damping_rate(self) -> float:
        """Pure damping rate alpha/eps^2 of the heat-flux equation."""
        return self.alpha / self.eps**2

    def component_labels(self) -> list:
        d = self.d
        if self.kind is SystemKind.NSC:
            return ["a"] + [f"v{i+1}" for i in range(d)] + ["theta"] + [f"q{i+1}" for i in range(d)]
        if self.kind is SystemKind.NSF:
            return ["a"] + [f"v{i+1}" for i in range(d)] + ["theta"]
        if self.kind is SystemKind.TOY_DIFFUSIVE:
            return ["a", "u_long"]
        return ["theta", "q_long"]

    def to_nsf(self) -> "ModelSpec":
        """The formal relaxation limit: same coefficients, Fourier heat law."""
        return replace(self, kind=SystemKind.NSF, eps=0.0)


@dataclass(frozen=True)
class SymbolMatrix:
    """Per-wavevector generator: dU/dt = entries @ U."""

    xi: tuple
    n: int
    entries: np.ndarray
    system_kind: SystemKind
    component_labels: tuple

    @property
    def r(self) -> float:
        return float(np.sqrt(sum(x**2 for x in self.xi)))


@dataclass(frozen=True)
class SKReport:
    rank: int
    full: bool
    witness_direction: np.ndarray | None = None


def build_spec(p: PhysParams, kind=SystemKind.NSC, d: int = 3) -> ModelSpec:
    """Normalized coefficients from physical parameters.

    chi0 = (dP/drho)^(-1/2) at equilibrium, nu_bar = nu/rho_bar, and then
    alpha = nu_bar chi0^2, beta = chi0^2/(rho_bar C_v),
    gamma = (chi0/rho_bar) sqrt(T_bar/C_v) pi(rho_bar); kappa passes through.
    """
    kind = SystemKind.parse(kind)
    dP_drho = p.T_bar * p.pi_prime
    chi0 = dP_drho ** (-0.5)
    nu_bar = p.nu / p.rho_bar
    alpha = nu_bar * chi0**2
    beta = chi0**2 / (p.rho_bar * p.C_v)
    gamma = (chi0 / p.rho_bar) * math.sqrt(p.T_bar / p.C_v) * p.pi_val
    eps = p.eps if kind is not SystemKind.NSF else 0.0
    if kind in (SystemKind.NSC,) + _TOYS and not p.eps > 0:
        raise ValueError(f"{kind.value} requires a positive relaxation time eps")
    return ModelSpec(
        kind=kind,
        d=d,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        kappa=p.kappa,
        eps=eps,
        visc_mu=p.mu,
        visc_lam=p.lam,
    )


def _as_xi(spec: ModelSpec, xi) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if spec.kind in _TOYS:
        if arr.size != 1:
            raise ValueError(
                f"{spec.kind.value} symbols use the 1-scalar reduction; pass a scalar xi"
            )
        return arr
    if arr.size != spec.d:
        raise ValueError(f"wavevector has {arr.size} components, spec has d = {spec.d}")
    return arr


def _generators(spec: ModelSpec, xi: np.ndarray) -> np.ndarray:
    """Generators M(xi), shape (N, nc, nc), at a stack of N wavevectors xi
    of shape (N, d); the toys take their scalar reduction, shape (N, 1).
    This is the one assembly of the full generator: symbol,
    evolve.mode_matrices and the transport of kalman_rank all read it."""
    kind = spec.kind
    m = np.zeros((xi.shape[0], spec.n_components, spec.n_components), dtype=complex)
    if kind in _TOYS:
        x = xi[:, 0]
        m[:, 0, 1] = -1j * x
        if kind is SystemKind.TOY_DIFFUSIVE:
            m[:, 1, 0] = -1j * x
            m[:, 1, 1] = -(x**2)
        else:
            e2 = spec.eps**2
            m[:, 1, 0] = -1j * (spec.kappa / e2) * x
            m[:, 1, 1] = -spec.alpha / e2
        return m

    d = spec.d
    ia, iv, it, iq = 0, slice(1, 1 + d), 1 + d, slice(2 + d, 2 + 2 * d)
    r2 = np.sum(xi**2, axis=1)
    m[:, ia, iv] = -1j * xi
    m[:, iv, ia] = -1j * xi
    m[:, iv, it] = -1j * spec.gamma * xi
    m[:, it, iv] = -1j * spec.gamma * xi
    # A = (mu Lap + (lam+mu) grad div)/nu in Fourier variables
    if spec.nu > 0:
        lap = spec.visc_mu * r2[:, None, None] * np.eye(d)
        m[:, iv, iv] = -(lap + (spec.visc_lam + spec.visc_mu) * (xi[:, :, None] * xi[:, None, :])) / spec.nu
    if kind is SystemKind.NSC:
        e2 = spec.eps**2
        m[:, it, iq] = -1j * spec.beta * xi
        m[:, iq, it] = -1j * (spec.kappa / e2) * xi
        m[:, iq, iq] = -(spec.alpha / e2) * np.eye(d)
    else:
        m[:, it, it] = -(spec.beta * spec.kappa / spec.alpha) * r2
    return m


def symbol(spec: ModelSpec, xi) -> SymbolMatrix:
    """Generator M(xi) of the zero-source linearized system."""
    xi = _as_xi(spec, xi)
    if not np.all(np.isfinite(xi)):
        raise ValueError("wavevector must be finite")
    m = _generators(spec, xi[None, :])[0]
    return SymbolMatrix(tuple(map(float, xi)), m.shape[0], m, spec.kind, tuple(spec.component_labels()))


def reduced_blocks(spec: ModelSpec, r) -> np.ndarray:
    """Real longitudinal blocks at an array of radii, shape (len(r), m, m).

    m = 4, unknowns (a, omega, theta, sigma), for NSC and m = 3, unknowns
    (a, omega, theta), for NSF.  The longitudinal viscous weight is 1 when
    nu > 0 and 0 for an inviscid spec, matching symbol().  This is the one
    source of reduced_symbol and of the radial and torus propagators.
    """
    r = np.asarray(r, dtype=float).ravel()
    kind = spec.kind
    if kind not in (SystemKind.NSC, SystemKind.NSF):
        raise ValueError(f"reduced blocks are defined for the full NSC/NSF systems, not {kind.value}")
    g, b = spec.gamma, spec.beta
    size = 4 if kind is SystemKind.NSC else 3
    m = np.zeros((r.size, size, size))
    m[:, 0, 1] = -r
    m[:, 1, 0] = r
    m[:, 1, 1] = -(r**2) * (1.0 if spec.nu > 0 else 0.0)
    m[:, 1, 2] = g * r
    m[:, 2, 1] = -g * r
    if kind is SystemKind.NSC:
        e2 = spec.eps**2
        m[:, 2, 3] = -b * r
        m[:, 3, 2] = spec.kappa * r / e2
        m[:, 3, 3] = -spec.alpha / e2
    else:
        m[:, 2, 2] = -(spec.beta * spec.kappa / spec.alpha) * r**2
    return m


def reduced_symbol(spec: ModelSpec, r: float) -> SymbolMatrix:
    """Compressible (longitudinal) block at |xi| = r.

    Unknowns (a, omega, theta, sigma) with omega = Lambda^-1 div v and
    sigma = Lambda^-1 div q; the block is real.  Its spectrum is the
    longitudinal part of symbol(spec, xi); the solenoidal complement is
    returned by solenoidal_eigenvalues.
    """
    if r < 0 or not np.isfinite(r):
        raise ValueError(f"radial wavenumber must be finite and >= 0, got {r}")
    kind = spec.kind
    if kind in _TOYS:
        return symbol(spec, r)
    m = reduced_blocks(spec, [r])[0].astype(complex)
    labels = ("a", "omega", "theta", "sigma")[: m.shape[0]]
    return SymbolMatrix((r,), m.shape[0], m, kind, labels)


def solenoidal_eigenvalues(spec: ModelSpec, r: float) -> list:
    """Eigenvalues of the transverse (divergence-free) complement at |xi| = r.

    (d-1) viscous heat modes -mu r^2/nu for the velocity and, for the
    relaxing system, (d-1) damped modes -alpha/eps^2 for the heat flux.
    """
    out = []
    if spec.kind in (SystemKind.NSC, SystemKind.NSF):
        out += [complex(-spec.mu_over_nu * r**2)] * (spec.d - 1)
    if spec.kind is SystemKind.NSC:
        out += [complex(-spec.damping_rate)] * (spec.d - 1)
    return out


def _sort_eigs(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def eigenvalues(m: SymbolMatrix) -> np.ndarray:
    """Generator eigenvalues from the dense eigensolver (LAPACK geev, with
    balancing), sorted by real part descending."""
    a = np.asarray(m.entries, dtype=complex)
    n = a.shape[0]
    if n > 64:
        raise ValueError(f"symbol size {n} exceeds the supported maximum 64")
    return _sort_eigs(np.linalg.eigvals(a))


def spectral_distance(eigs_a, eigs_b) -> float:
    """Max |a_i - b_j| under the optimal one-to-one eigenvalue pairing.

    Sorting conjugate pairs is unstable when real parts tie to roundoff, so
    spectra are compared as multisets via an assignment problem.
    """
    va = np.asarray(eigs_a, dtype=complex)
    vb = np.asarray(eigs_b, dtype=complex)
    if va.shape != vb.shape:
        raise ValueError("spectra must have the same length")
    cost = np.abs(va[:, None] - vb[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if va.size else 0.0


def _first_order_transport(spec: ModelSpec, omega: np.ndarray) -> np.ndarray:
    """Real matrix A(omega) of U_t + A d_r U + B U = (second-order terms).

    M(xi) = -i A(xi) + (terms even in xi), so A(omega) is the odd part
    i (M(omega) - M(-omega)) / 2.
    """
    return (0.5j * (symbol(spec, omega).entries - symbol(spec, -omega).entries)).real


def _dissipated_rows(spec: ModelSpec) -> np.ndarray:
    """Rows spanning all dissipated directions (damping plus viscous/diffusive)."""
    d = spec.d
    n = spec.n_components
    kind = spec.kind
    rows = []
    if kind is SystemKind.NSC:
        if spec.visc_mu > 0 or spec.visc_lam + spec.visc_mu > 0:
            rows += list(range(1, 1 + d))
        if spec.alpha > 0:
            rows += list(range(2 + d, 2 + 2 * d))
    elif kind is SystemKind.NSF:
        if spec.visc_mu > 0 or spec.visc_lam + spec.visc_mu > 0:
            rows += list(range(1, 1 + d))
        if spec.kappa > 0:
            rows.append(1 + d)
    elif kind is SystemKind.TOY_DIFFUSIVE:
        rows.append(1)
    else:
        if spec.alpha > 0:
            rows.append(1)
    dmat = np.zeros((len(rows), n))
    for i, r in enumerate(rows):
        dmat[i, r] = 1.0
    return dmat


def _rational_rank(mat) -> tuple:
    """Exact rank by fraction-free Gaussian elimination over Fraction."""
    rows = [[Fraction(x).limit_denominator(10**12) if not isinstance(x, Fraction) else x for x in row] for row in mat]
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    rank = 0
    pivots = []
    for col in range(ncol):
        piv = None
        for r in range(rank, nrow):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for r in range(nrow):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrow:
            break
    return rank, pivots, rows


def _exactly_rational(x: float) -> bool:
    frac = Fraction(x).limit_denominator(10**6)
    return float(frac) == x


def kalman_rank(spec: ModelSpec, omega) -> SKReport:
    """Stability rank test for the pair (transport A(omega), dissipation D).

    D spans the damped and viscous/diffusive directions; the report is full
    exactly when rank [D; DA; ...; DA^(n-1)] = n, i.e. no transport
    eigendirection hides from the dissipation.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if spec.kind in _TOYS:
        omega = np.array([1.0])
    elif omega.size != spec.d:
        raise ValueError(f"direction has {omega.size} components, spec has d = {spec.d}")
    else:
        nrm = float(np.linalg.norm(omega))
        if nrm == 0:
            raise ValueError("direction must be nonzero")
        omega = omega / nrm

    a = _first_order_transport(spec, omega)
    dmat = _dissipated_rows(spec)
    n = spec.n_components
    if dmat.shape[0] == 0:
        return SKReport(rank=0, full=False, witness_direction=None)

    blocks = []
    block = dmat
    for _ in range(n):
        blocks.append(block)
        block = block @ a
    kal = np.vstack(blocks)
    # powers of a stiff transport matrix span many orders of magnitude; row
    # scaling preserves the row space, so normalize per block for the SVD
    normalized = np.vstack(
        [b / s for b in blocks for s in [np.abs(b).max()] if s > 0] or [dmat]
    )

    coeff_values = [spec.alpha, spec.beta, spec.gamma, spec.kappa, spec.eps, *np.atleast_1d(omega)]
    if all(_exactly_rational(float(x)) for x in coeff_values):
        rank, _, _ = _rational_rank(kal.tolist())
    else:
        svals = np.linalg.svd(normalized, compute_uv=False)
        tol = 1e-10 * (svals[0] if svals.size else 1.0)
        rank = int(np.sum(svals > tol))

    full = rank == n
    witness = None
    if not full:
        _, _, vh = np.linalg.svd(normalized)
        witness = np.asarray(vh[-1])
    return SKReport(rank=rank, full=full, witness_direction=witness)
