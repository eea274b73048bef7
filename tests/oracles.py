"""Independent reference computations used to freeze expected values.

These deliberately avoid the code paths they check: the ODE oracle
integrates dU/dt = M U with an adaptive stiff integrator instead of a
matrix exponential, roots of 2x2 symbols come from the quadratic formula,
and products of modes are checked by direct convolution.  The nonlinear
sources are re-derived field by field, one complex FFT per field and
derivative, where nsclab.evolve batches real FFTs on the half lattice.
The transport matrix of the rank test is assembled entry by entry, where
nsclab.model derives it from the symbol.  Dyadic band norms are taken with
a fresh boolean mask per band and a masked sum or one inverse FFT per
field, where nsclab.besov labels every mode once and sums bands by
bincount; the radial flow's band norms likewise mask the nodes per band.
The torus propagator is embedded as one dense complex matrix per mode and
the slow projection eigendecomposes every full per-mode generator, where
nsclab.evolve keeps one real longitudinal block per radius plus transverse
scalars.  The relaxation sweep is the list-based one: whole trajectories
are sampled into lists, one after another, and the error functional then
takes every band sum once per value of s, where nsclab.studies streams the
trajectories in lockstep and shares one band-norm pass between the values
of s.  The band-diagnostic series, the X functional and the initial
layer's |Q(t)| series read stepped states one snapshot at a time, with the
effective velocity w built on the lattice, where nsclab.diagnostics and
nsclab.studies read every sample time at once from a state's per-radius
Gram factors.

Some references are helpers the package itself never calls:
`spectral_distance` pairs two spectra as multisets through scipy's
assignment solver, `solenoidal_eigenvalues` writes the transverse modes in
closed form, `dealias_23` applies the 2/3-rule mask to one field, and
`grad_j`, `grad`, `div` and `laplacian` apply one Fourier multiplier to
one field or d-tuple, where the package differentiates whole stacks, and
`nsf_zero_state` is the Fourier-law zero state, where the package builds
only the relaxing system's, and `kernel_apply` flows data through any
PropagatorKernel, where the package's radial flow keeps only the factors
its own data need.
"""

import dataclasses
import math

import numpy as np
import scipy.optimize
from scipy.integrate import ode, solve_ivp

from nsclab.evolve import _check_density, _torus_kernel, default_dt, expm, imex_step, linear_trajectory, mode_matrices
from nsclab import diagnostics
from nsclab.diagnostics import XFunctional, _calibrate, _regime_rate, _snapshot_values, _time_reduce, _x_table, effective_unknowns
from nsclab.model import SystemKind
from nsclab.besov import ThresholdOrderError, _as_stack, _band_norms, _regime_bands, _regime_weights, besov_seminorm, grid_band_range, make_thresholds, regime_band_indices
from nsclab.studies import RelaxReport, fit_loglog, graded_times, scaled_flux_state, well_prepared_flux
from nsclab.spectral import SpectralField, State, _grad, to_physical, to_spectral


def grad_j(f, j):
    """The derivative d/dx_j, i xi_j f, of one field; 0 on the Nyquist plane."""
    grid = f.grid
    return SpectralField(grid, 1j * grid.wavevectors()[j] * np.where(grid.nyquist_mask(), 0.0, 1.0) * f.coeffs)


def grad(f):
    return tuple(grad_j(f, j) for j in range(f.grid.d))


def div(fields):
    """The divergence of a d-tuple of fields."""
    fields = tuple(fields)
    return SpectralField(fields[0].grid, sum(grad_j(f, j).coeffs for j, f in enumerate(fields)))


def laplacian(f):
    """-|xi|^2 f; 0 on the Nyquist plane."""
    grid = f.grid
    k2 = sum(x**2 for x in grid.wavevectors())
    return SpectralField(grid, -k2 * np.where(grid.nyquist_mask(), 0.0, 1.0) * f.coeffs)


def nsf_zero_state(grid):
    """The zero state of a Fourier-law system: d + 2 components, no heat flux."""
    return State.from_stacked(grid, np.zeros((grid.d + 2, *grid.shape), dtype=complex), 0.0, False)


def ode_propagate(mat, u0, t, rtol=1e-11, atol=1e-14):
    """Adaptive implicit (BDF) integration of the linear mode ODE."""
    mat = np.asarray(mat, dtype=complex)
    u0 = np.asarray(u0, dtype=complex)
    if t == 0:
        return u0.copy()
    solver = ode(lambda s, y: mat @ y, lambda s, y: mat)
    solver.set_integrator("zvode", method="bdf", rtol=rtol, atol=atol, nsteps=500000, with_jacobian=True)
    solver.set_initial_value(u0, 0.0)
    out = solver.integrate(t)
    if not solver.successful():
        raise RuntimeError("zvode oracle failed")
    return out


def ode_propagate_explicit(mat, u0, t, rtol=1e-10):
    """Adaptive high-order explicit integration (real-embedded DOP853)."""
    mat = np.asarray(mat, dtype=complex)
    u0 = np.asarray(u0, dtype=complex)
    if t == 0:
        return u0.copy()
    n = mat.shape[0]
    mr = np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])
    y0 = np.concatenate([u0.real, u0.imag])
    sol = solve_ivp(
        lambda s, y: mr @ y, (0.0, t), y0, method="DOP853", rtol=rtol,
        atol=1e-13 * max(1.0, float(np.abs(y0).max())),
    )
    y = sol.y[:, -1]
    return y[:n] + 1j * y[n:]


def kernel_apply(kernel, t, u):
    """exp(t M) u per generator of a PropagatorKernel, for fresh data u of
    shape (N, m): V (e^(t lambda) V^-1 u), and expm applied to u on the
    fallback; RadialFlow.at's arithmetic, from a kernel that keeps V^-1."""
    out = np.einsum("nij,nj->ni", kernel.vecs, np.exp(t * kernel.lam) * np.einsum("nij,nj->ni", kernel.vinv, u))
    if kernel.fallback.size:
        fb = kernel.fallback
        out[fb] = np.einsum("nij,nj->ni", expm(t * kernel.mats[fb]), u[fb])
    return out


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


def solenoidal_eigenvalues(spec, r):
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


def dealias_23(f):
    """Zero every coefficient with any |m_i| > n/3 (2/3 rule); idempotent."""
    return SpectralField(f.grid, np.where(f.grid.dealias_mask(), f.coeffs, 0.0))


def quadratic_roots(b, c):
    """Roots of lambda^2 + b lambda + c = 0 by the quadratic formula."""
    disc = np.lib.scimath.sqrt(b * b - 4.0 * c)
    return np.array([(-b + disc) / 2.0, (-b - disc) / 2.0])


def toy_damped_roots(alpha, kappa, eps, xi):
    """Characteristic roots of the damped 2x2 coupling:
    lambda^2 + (alpha/eps^2) lambda + kappa xi^2 / eps^2 = 0."""
    return quadratic_roots(alpha / eps**2, kappa * xi**2 / eps**2)


def toy_diffusive_roots(xi):
    """Characteristic roots of the diffusive 2x2 coupling:
    lambda^2 + xi^2 lambda + xi^2 = 0."""
    return quadratic_roots(xi**2, xi**2)


def convolve_modes(modes_a, modes_b):
    """Support of the product of two mode sums: all pairwise frequency sums.

    modes_* map integer mode tuples to complex amplitudes; returns the same
    for the pointwise product of the two trigonometric polynomials.
    """
    out = {}
    for ka, va in modes_a.items():
        for kb, vb in modes_b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return {k: v for k, v in out.items() if abs(v) > 0}


def companion_roots(coeffs):
    """Polynomial roots via the companion matrix (monic, highest first)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / coeffs[0]
    n = len(coeffs) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -coeffs[:0:-1]
    return np.linalg.eigvals(comp)


def charpoly_det(mat, lam):
    """det(lam I - M) evaluated directly (for cubic cross-checks)."""
    mat = np.asarray(mat, dtype=complex)
    return complex(np.linalg.det(lam * np.eye(mat.shape[0]) - mat))


def source_terms_reference(state, spec):
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

    grad_a = [to_physical(g).real for g in grad(state.a)]
    grad_th = [to_physical(g).real for g in grad(state.theta)]
    grad_v = [[to_physical(grad_j(state.v[i], j)).real for j in range(d)] for i in range(d)]
    div_v = sum(grad_v[i][i] for i in range(d))

    nu = spec.nu
    # normalized Lame operator applied to v, physical samples
    av_spec = []
    lap_v = [laplacian(state.v[i]) for i in range(d)]
    grad_div_v = grad(div(state.v))
    for i in range(d):
        coeff = (
            spec.visc_mu * lap_v[i].coeffs + (spec.visc_lam + spec.visc_mu) * grad_div_v[i].coeffs
        ) / nu if nu > 0 else np.zeros(grid.shape, dtype=complex)
        av_spec.append(SpectralField(grid, coeff))
    av_p = [to_physical(f).real for f in av_spec]

    def spectralize(phys: np.ndarray) -> SpectralField:
        return dealias_23(to_spectral(grid, phys))

    # F = -div(a v)
    f_field = div(spectralize(a_p * v_p[i]) for i in range(d))
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
        div_q = to_physical(div(state.q)).real
        flux_term = spec.beta * jfun * div_q
    else:
        lap_th = to_physical(laplacian(state.theta)).real
        flux_term = -(spec.beta * spec.kappa / spec.alpha) * jfun * lap_th
    h_phys = -adv_th + flux_term + nheat / one_plus - spec.gamma * th_p * div_v
    h_field = spectralize(h_phys)

    if spec.kind is SystemKind.NSF:
        return f_field, tuple(g_fields), h_field

    q_p = [to_physical(f).real for f in state.q]
    grad_q = [[to_physical(grad_j(state.q[i], j)).real for j in range(d)] for i in range(d)]
    i_fields = []
    for i in range(d):
        adv_q = sum(v_p[j] * grad_q[i][j] for j in range(d))
        stretch = sum(q_p[j] * grad_v[i][j] for j in range(d))
        phys = -adv_q + stretch - q_p[i] * div_v
        i_fields.append(spectralize(phys))
    return f_field, tuple(g_fields), h_field, tuple(i_fields)


def first_order_transport_reference(spec, omega):
    """Transport matrix A(omega) assembled entry by entry, as the model
    module did before A was derived from the odd part of the symbol."""
    d = spec.d
    kind = spec.kind
    if kind is SystemKind.TOY_DIFFUSIVE:
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind is SystemKind.TOY_DAMPED:
        return np.array([[0.0, 1.0], [spec.kappa / spec.eps**2, 0.0]])
    if kind is SystemKind.NSC:
        n = 2 * d + 2
        a = np.zeros((n, n))
        ia, iv, it, iq = 0, slice(1, 1 + d), 1 + d, slice(2 + d, 2 + 2 * d)
        a[ia, iv] = omega
        a[iv, ia] = omega
        a[iv, it] = spec.gamma * omega
        a[it, iv] = spec.gamma * omega
        a[it, iq] = spec.beta * omega
        a[iq, it] = (spec.kappa / spec.eps**2) * omega
        return a
    if kind is SystemKind.NSF:
        n = d + 2
        a = np.zeros((n, n))
        ia, iv, it = 0, slice(1, 1 + d), 1 + d
        a[ia, iv] = omega
        a[iv, ia] = omega
        a[iv, it] = spec.gamma * omega
        a[it, iv] = spec.gamma * omega
        return a
    raise ValueError(f"unsupported kind {kind}")


# Dyadic band norms, as nsclab.besov, RadialFlow and studies.lyapunov_l1
# computed them with one mask per band and per call; the radial ones read
# only the nodes, the model coefficients and the reduced coordinates.


def band_mask_reference(grid, j):
    k = grid.wavenumber_magnitude()
    return (k >= 2.0**j) & (k < 2.0 ** (j + 1))


def band_project_reference(f, j):
    return SpectralField(f.grid, np.where(band_mask_reference(f.grid, j), f.coeffs, 0.0))


def stack_lp_norm_reference(fields, j, p):
    """L^p norm of the pointwise euclidean magnitude of several components."""
    grid = fields[0].grid
    if p == 2:
        if j is None:
            total = sum(np.sum(np.abs(f.coeffs) ** 2) for f in fields)
        else:
            mask = band_mask_reference(grid, j)
            total = sum(np.sum(np.abs(f.coeffs[mask]) ** 2) for f in fields)
        return float(np.sqrt(grid.L**grid.d * total))
    if j is not None:
        fields = [band_project_reference(f, j) for f in fields]
    mags = np.sqrt(sum(np.abs(to_physical(f)) ** 2 for f in fields))
    cell = (grid.L / grid.n) ** grid.d
    if np.isinf(p):
        return float(np.max(mags))
    return float((np.sum(mags**p) * cell) ** (1.0 / p))


def split_seminorm(f, s, p, regime, th, overlap):
    """besov_seminorm under the disjoint split; under the overlapping one,
    which the program's tables read, the same arithmetic: the band norms of
    the stacked fields dotted with _regime_weights(..., overlap=True)."""
    if not overlap:
        return besov_seminorm(f, s, p, regime, th)
    grid, u = _as_stack(f)
    weights = _regime_weights(grid_band_range(grid), regime, th, s, True)
    return float(_band_norms(grid, u, p, weights != 0) @ weights)


def besov_seminorm_reference(f, s, p, regime, th, overlap=False):
    fields = list(f) if isinstance(f, (tuple, list)) else [f]
    bands = grid_band_range(fields[0].grid)
    js = _regime_bands(regime, th, bands, int(overlap))
    return float(sum(2.0 ** (j * s) * stack_lp_norm_reference(fields, j, p) for j in js))


def _radial_density_reference(flow, u, comps):
    """sum |component|^2 per node, from the reduced coordinates
    (a, omega, theta[, sigma]) of u: w = omega - a/r and
    Q = alpha sigma - kappa r theta."""
    r, spec = flow.r, flow.spec
    rows = {"a": u[:, 0], "v": u[:, 1], "theta": u[:, 2], "w": u[:, 1] - u[:, 0] / r}
    if u.shape[1] == 4:
        rows.update(q=u[:, 3], Q=spec.alpha * u[:, 3] - spec.kappa * r * u[:, 2])
    return sum(np.abs(rows[c]) ** 2 for c in comps)


def radial_band_l2_norm_reference(flow, u, comps, j, sigma=0.0):
    """|Lambda^sigma comps|_L2 over the nodes with 2^j <= r < 2^(j+1), or
    over every node when j is None: the trapezoid rule in log r of
    |S^(d-1)| r^(2 sigma + d) |comps|^2 / (2 pi)^d."""
    d, r = flow.spec.d, flow.r
    x = np.log(r)
    weights = np.zeros_like(x)
    weights[:-1] += 0.5 * np.diff(x)
    weights[1:] += 0.5 * np.diff(x)
    mask = np.ones(r.shape, bool) if j is None else (r >= 2.0**j) & (r < 2.0 ** (j + 1))
    integrand = np.where(mask, _radial_density_reference(flow, u, comps) * r ** (2.0 * sigma + d), 0.0)
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return math.sqrt(area * float(np.sum(integrand * weights)) / (2.0 * np.pi) ** d)


def radial_besov_proxy_reference(flow, u, comps, s, p):
    shift = flow.spec.d / 2.0 - flow.spec.d / p
    return sum(
        2.0 ** (j * (s + shift)) * radial_band_l2_norm_reference(flow, u, comps, j)
        for j in flow.bands
    )


def lyapunov_l1_reference(flow, th, p, t):
    spec = flow.spec
    d = spec.d
    eps = spec.eps
    u = flow.at(t)
    bands = flow.bands
    norm = lambda comps, j: radial_band_l2_norm_reference(flow, u, comps, j)
    val = 0.0
    for j in (j for j in bands if j <= th.J0):
        stack = math.sqrt(
            norm(("a",), j) ** 2
            + norm(("v",), j) ** 2
            + norm(("theta",), j) ** 2
            + eps**2 * norm(("q",), j) ** 2
        )
        val += 2.0 ** (j * (d / 2 - 1)) * stack
    shift = d / 2.0 - d / p
    for j in (j for j in bands if th.J0 <= j <= th.Jeps):
        val += 2.0 ** (j * (d / p + shift)) * norm(("a",), j)
        val += 2.0 ** (j * (d / p - 1 + shift)) * norm(("w",), j)
        val += eps * 2.0 ** (j * (d / p - 2 + shift)) * norm(("Q",), j)
        val += 2.0 ** (j * (d / p - 2 + shift)) * norm(("theta",), j)
    for j in (j for j in bands if j >= th.Jeps - 1):
        val += eps * 2.0 ** (j * (d / 2 + 1)) * norm(("a",), j)
        val += eps * 2.0 ** (j * (d / 2)) * norm(("w",), j)
        val += eps**2 * 2.0 ** (j * (d / 2 + 1)) * norm(("theta",), j)
        val += eps**3 * 2.0 ** (j * (d / 2 + 1)) * norm(("q",), j)
    return val


def _inner_reference(f, g):
    grid = f.grid
    return float(np.real(grid.L**grid.d * np.sum(np.conj(f.coeffs) * g.coeffs)))


def lyapunov_low_reference(state, j, eta):
    """(value, norm part, cross part) from band projections."""
    a_j = band_project_reference(state.a, j)
    v_j = [band_project_reference(f, j) for f in state.v]
    th_j = band_project_reference(state.theta, j)
    norm_part = a_j.l2_norm() ** 2 + sum(f.l2_norm() ** 2 for f in v_j) + th_j.l2_norm() ** 2
    grad_a = grad(a_j)
    cross = eta * 2.0 ** (-j) * sum(_inner_reference(v, g) for v, g in zip(v_j, grad_a))
    return norm_part + cross, norm_part, cross


def lyapunov_high_reference(state, j, eta, spec):
    """(value, parts) from band projections, as lyapunov_high."""
    eps = spec.eps
    th_j = band_project_reference(state.theta, j)
    q_j = [band_project_reference(f, j) for f in state.q]
    norm_part = th_j.l2_norm() ** 2 + sum(f.l2_norm() ** 2 for f in q_j) * eps**2
    grad_th = grad(th_j)
    cross = eta * 2.0 ** (-2 * j) * sum(_inner_reference(q, g) for q, g in zip(q_j, grad_th))
    return norm_part + cross, (norm_part, cross)


def dissipation_quantity_reference(state, j, regime, spec):
    """Low/high dissipation from band projections."""
    sq = lambda fields: sum(band_project_reference(f, j).l2_norm() ** 2 for f in fields)
    if regime == "low":
        return 2.0 ** (2 * j) * sq([state.a, *state.v, state.theta])
    return (sq([state.theta]) + spec.eps**2 * sq(state.q)) / spec.eps**2


def torus_propagator(spec, grid, t):
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
    khat = khat.T  # the kernel stores the unit wavevectors as (d, n^d)
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


def apply_batched(e, stacked):
    """Apply per-mode matrices e (N, nc, nc) to stacked coeffs (nc, *shape)."""
    nc = stacked.shape[0]
    flat = stacked.reshape(nc, -1).T  # (N, nc)
    out = np.einsum("nij,nj->ni", e, flat)
    return out.T.reshape(stacked.shape)


def slow_projection_reference(state, spec):
    """Remove the fast relaxation eigendirections mode by mode, from one
    eigendecomposition of every full per-mode generator."""
    lam, vecs = np.linalg.eig(mode_matrices(spec, state.grid))
    u = state.u.reshape(len(state.fields()), -1).T
    coef = np.linalg.solve(vecs, u[..., None])[..., 0]
    coef[lam.real < -0.4 * spec.alpha / spec.eps**2] = 0.0
    arr = (vecs @ coef[..., None])[..., 0].T.reshape(-1, *state.grid.shape)
    return State.from_stacked(state.grid, arr, state.time, state.has_flux).hermitized()


# ---------------------------------------------------------------------------
# List-based relaxation sweep.


def sampled_linear_trajectory_reference(state0, spec, segments):
    """Exact linear flow sampled along piecewise-uniform time segments."""
    out = [state0]
    for seg in segments:
        if len(seg) < 2:
            continue
        cur = out[-1]
        steps = len(seg) - 1 if abs(cur.time - seg[0]) <= 1e-13 * max(1.0, abs(seg[0])) else len(seg)
        out += linear_trajectory(cur, spec, float(seg[1] - seg[0]), steps)[1:]
    return out


def sampled_nonlinear_trajectory_reference(state0, spec, segments, dt_max):
    """Nonlinear flow sampled at the segment times; each snapshot interval
    is covered by uniform IMEX sub-steps no longer than dt_max."""
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


def evolve_records_reference(state0, spec, dt, nsteps, stride):
    """The states a nonlinear evolve records: state0, then the imex_step state
    after every stride-th step and after the last."""
    out, cur = [state0], state0
    for step in range(1, nsteps + 1):
        cur = imex_step(cur, spec, dt)
        if step % stride == 0 or step == nsteps:
            out.append(cur)
    return out


def error_functional_reference(nsc_traj, nsf_traj, spec, th, p):
    """Relaxation error functional between paired trajectory lists, one
    besov_seminorm call per piece and per value of s."""
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
        lo_inf.append(split_seminorm((ta, *tv, tth), d / 2 - 2, 2, "low", th, True))
        lo_one.append(split_seminorm((ta, *tv, tth), d / 2, 2, "low", th, True))
        q_one.append(besov_seminorm(q_mode, d / p - 1, p, "all", th))
        ha.append(split_seminorm((ta,), d / p - 1, p, "medhigh", th, True))
        hvt_inf.append(split_seminorm((*tv, tth), d / p - 2, p, "medhigh", th, True))
        hvt_one.append(split_seminorm((*tv, tth), d / p, p, "medhigh", th, True))

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


def relax_sweep_reference(
    base,
    spec,
    eps_list,
    T=4.0,
    p=2.0,
    K=8,
    k=1.0,
    compare_well_prepared=True,
    nonlinear=False,
):
    """The relaxation sweep with every trajectory held as a whole list: NSF
    first, then ill-prepared NSC, then well-prepared NSC (which re-reads the
    stored NSF list)."""
    d = spec.d
    if nonlinear and (d > 2 or base.grid.n > 256):
        raise ValueError("nonlinear sweeps are limited to d <= 2 and n <= 256")
    eps_list = sorted(set(float(e) for e in eps_list), reverse=True)
    xt, wp, rows, skipped = [], [], [], []
    used = []
    nsf_state = State(a=base.a, v=base.v, theta=base.theta, q=None)
    for eps in eps_list:
        spec = dataclasses.replace(spec, eps=eps)
        try:
            th = make_thresholds(K, k, eps)
        except ThresholdOrderError as exc:
            skipped.append({"eps": eps, "reason": str(exc)})
            continue
        segs = graded_times(eps, spec.alpha, T)
        ill = scaled_flux_state(base, spec)
        if nonlinear:
            dt_max = default_dt(ill, spec)
            nsf_traj = sampled_nonlinear_trajectory_reference(nsf_state, spec.to_nsf(), segs, dt_max)
            nsc_traj = sampled_nonlinear_trajectory_reference(ill, spec, segs, dt_max)
        else:
            nsf_traj = sampled_linear_trajectory_reference(nsf_state, spec.to_nsf(), segs)
            nsc_traj = sampled_linear_trajectory_reference(ill, spec, segs)
        parts = error_functional_reference(nsc_traj, nsf_traj, spec, th, p)
        xt.append(parts["total"])
        rows.append({"eps": eps, **parts})
        used.append(eps)
        if compare_well_prepared:
            st_wp = State(
                a=base.a,
                v=base.v,
                theta=base.theta,
                q=well_prepared_flux(base.theta, spec),
            )
            if nonlinear:
                wp_traj = sampled_nonlinear_trajectory_reference(st_wp, spec, segs, dt_max)
            else:
                wp_traj = sampled_linear_trajectory_reference(st_wp, spec, segs)
            wp.append(error_functional_reference(wp_traj, nsf_traj, spec, th, p)["total"])
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
# Stepped band series, X functional and initial-layer series.


def effective_velocity(state):
    """w = v + (-Lap)^-1 grad a as one (d, *shape) stack; the correction is
    0 at the zero mode and on the Nyquist plane, where grad vanishes."""
    grid, u = state.grid, state.u
    k2 = sum(x**2 for x in grid.wavevectors())
    inv = _grad(grid, u[0]) / np.where(k2 == 0.0, 1.0, k2)
    return u[1 : 1 + grid.d] + np.where(k2 == 0.0, 0.0, inv)


def centered_series(traj, j, regime, spec, eta):
    """Snapshot times, L_j and D_j at every snapshot of a stepped
    trajectory, and the centred differences d/dt L_j at the interior
    snapshots, which need a uniform stride resolving the regime's rate.
    traj may be any iterable; it is read once.  The band functional is
    looked up on the module at each call, so a test may wrap it."""
    rows = [(s.time, *diagnostics._band_functional(s, regime, spec, eta).get(j, (0.0, 0.0, 0.0))) for s in traj]
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


def band_diagnostics_reference(state0, spec, th):
    """The band_diagnostics rows from 40 LinearPropagator steps per band."""
    rows = []
    for regime, eta in (("low", 0.1), ("high", 0.25)):
        for j in regime_band_indices(regime, th, grid_band_range(state0.grid)):
            traj = linear_trajectory(state0, spec, 5e-3 / _regime_rate(spec, j, regime), 40)
            times, vals, diss, dl = centered_series(traj, j, regime, spec, eta)
            if not np.any(vals > 0):
                continue
            res = np.concatenate([[np.nan], dl + _calibrate(dl, diss[1:-1]) * diss[1:-1], [np.nan]])
            rows += [[t, j, regime, lv, dv, r] for t, lv, dv, r in zip(times, vals, diss, res)]
    return rows


def functional_X_reference(traj, spec, th):
    """The three-regime solution functional along a stepped trajectory,
    reduced one snapshot at a time; traj may be any iterable of snapshots
    at strictly increasing times."""
    if spec.kind is not SystemKind.NSC:
        raise ValueError("the solution functional is defined for the relaxing system")
    table = _x_table(spec.d, spec.eps)
    groups = dict.fromkeys(group for _, group, *_ in table)
    times, values = [], []
    for state in traj:  # the rows (k, *shape) that the table names, some scaled by eps
        u, d, eps = state.u, state.grid.d, spec.eps
        rows = {"a": u[:1], "v": u[1 : 1 + d], "theta": u[1 + d : 2 + d], "q": u[2 + d :], "Q": effective_unknowns(state, spec)._Q, "w": effective_velocity(state)}
        rows.update(eq=eps * rows["q"], e2theta=eps**2 * rows["theta"], e3q=eps**3 * rows["q"])
        times.append(state.time)
        values.append(_snapshot_values(table, state.grid, th, {g: ([r for c in g for r in rows[c]], 2) for g in groups}))
    constituents = _time_reduce(table, times, zip(*values))
    part = lambda r: sum(constituents[name] for name, _, regime, *_ in table if regime == r)
    return XFunctional(x_low=part("low"), x_med=part("med"), x_high=part("high"), constituents=constituents)


def initial_layer_series_reference(state0, spec, n_efolds=5.0, samples=60):
    """initial_layer's sample times and |Q|_L2 series from `samples` uniform
    LinearPropagator steps over its window, the damped mode of each state
    normed on the lattice."""
    dt = n_efolds / (spec.alpha / spec.eps**2) / samples
    traj = linear_trajectory(state0, spec, dt, samples)
    q_norm = lambda s: math.sqrt(sum(f.l2_norm() ** 2 for f in effective_unknowns(s, spec).Q))
    return np.array([s.time for s in traj]), np.array([q_norm(s) for s in traj])
