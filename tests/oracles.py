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
scalars.
"""

import math

import numpy as np
from scipy.integrate import ode, solve_ivp

from nsclab.evolve import _check_density, _torus_kernel, mode_matrices
from nsclab.model import SystemKind
from nsclab.besov import _overlap_band_indices, grid_band_range, regime_band_indices
from nsclab.evolve import _SPHERE_AREA
from nsclab.spectral import SpectralField, State, apply_multiplier, dealias_23, to_physical, to_spectral


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


def first_order_transport_reference(spec, omega):
    """Transport matrix A(omega) assembled entry by entry, as the model
    module did before A was derived from the odd part of the symbol."""
    d = spec.d
    kind = spec.kind
    if kind is SystemKind.TOY_DIFFUSIVE:
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind in (SystemKind.TOY_DAMPED, SystemKind.CATTANEO_WAVE):
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
# computed them with one mask per band and per call.


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


def besov_seminorm_reference(f, s, p, regime, th, overlap=False):
    fields = list(f) if isinstance(f, (tuple, list)) else [f]
    bands = grid_band_range(fields[0].grid)
    pick = _overlap_band_indices if overlap else regime_band_indices
    js = pick(regime, th, bands)
    return float(sum(2.0 ** (j * s) * stack_lp_norm_reference(fields, j, p) for j in js))


def radial_band_l2_norm_reference(flow, u, comps, j):
    area = _SPHERE_AREA[flow.d]
    vals = sum(flow.component(u, c) ** 2 for c in comps)
    mask = (flow.r >= 2.0**j) & (flow.r < 2.0 ** (j + 1))
    w = np.where(mask, flow.r ** (flow.d - 1.0), 0.0)
    integrand = vals * w * flow.r  # extra r: d(log r) quadrature
    integral = float(np.sum(integrand * flow.log_weights))
    return math.sqrt(area * integral / (2.0 * np.pi) ** flow.d)


def radial_besov_proxy_reference(flow, u, comps, s, p):
    shift = flow.d / 2.0 - flow.d / p
    return sum(
        2.0 ** (j * (s + shift)) * radial_band_l2_norm_reference(flow, u, comps, j)
        for j in flow.band_range()
    )


def lyapunov_l1_reference(flow, th, p, t):
    spec = flow.spec
    d = spec.d
    eps = spec.eps
    u = flow.at(t)
    bands = flow.band_range()
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
    grad_a = apply_multiplier(a_j, "grad")
    cross = eta * 2.0 ** (-j) * sum(_inner_reference(v, g) for v, g in zip(v_j, grad_a))
    return norm_part + cross, norm_part, cross


def lyapunov_high_reference(state, j, eta, spec, density_weight):
    """(value, parts) from band projections, as lyapunov_high."""
    eps = spec.eps
    th_j = band_project_reference(state.theta, j)
    q_j = [band_project_reference(f, j) for f in state.q]
    theta_part = th_j.l2_norm() ** 2
    if density_weight:
        a_phys = to_physical(state.a).real
        jw = a_phys / (1.0 + a_phys)
        grid = state.grid
        cell = (grid.L / grid.n) ** grid.d
        q_sq = sum(np.abs(to_physical(f)) ** 2 for f in q_j)
        flux_part = float(np.sum((1.0 + jw) * q_sq) * cell) * eps**2
        weight_part = float(np.sum(jw * q_sq) * cell) * eps**2
    else:
        flux_part = sum(f.l2_norm() ** 2 for f in q_j) * eps**2
        weight_part = 0.0
    grad_th = apply_multiplier(th_j, "grad")
    cross = eta * 2.0 ** (-2 * j) * sum(_inner_reference(q, g) for q, g in zip(q_j, grad_th))
    return theta_part + flux_part + cross, (theta_part + flux_part - weight_part, cross, weight_part)


def dissipation_quantity_reference(state, j, regime, spec, q_mode=None):
    """Low/high dissipation from band projections; "damped" reads q_mode."""
    sq = lambda fields: sum(band_project_reference(f, j).l2_norm() ** 2 for f in fields)
    if regime == "low":
        return 2.0 ** (2 * j) * sq([state.a, *state.v, state.theta])
    if regime == "high":
        return (sq([state.theta]) + spec.eps**2 * sq(state.q)) / spec.eps**2
    return math.sqrt(sq(q_mode)) / spec.eps


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


def slow_projection_reference(state, spec, cut_fraction=0.4):
    """Remove the fast relaxation eigendirections mode by mode, from one
    eigendecomposition of every full per-mode generator."""
    lam, vecs = np.linalg.eig(mode_matrices(spec, state.grid))
    u = state.stacked().reshape(len(state.fields()), -1).T
    coef = np.linalg.solve(vecs, u[..., None])[..., 0]
    coef[lam.real < -cut_fraction * spec.alpha / spec.eps**2] = 0.0
    arr = (vecs @ coef[..., None])[..., 0].T.reshape(-1, *state.grid.shape)
    st = State.from_stacked(state.grid, arr, state.time, state.has_flux)
    return State(
        a=st.a.hermitized(),
        v=tuple(f.hermitized() for f in st.v),
        theta=st.theta.hermitized(),
        q=tuple(f.hermitized() for f in st.q) if st.q is not None else None,
        time=st.time,
    )
