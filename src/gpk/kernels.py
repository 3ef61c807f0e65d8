"""Correlation kernels built from the scattering profile and a field.

The pair kernel is k(x, y) = -N w(N(x - y)) phi(x) phi(y) with w = 1 - f the
solved correlation profile.  This module constructs it densely on a desk
sized grid, sums the hyperbolic operator series ch(k), sh(k), and certifies
the norm, gradient, pointwise and time-derivative bounds.

Hilbert-Schmidt norms that must resolve the 1/N core of w(N .) are not
computed from dense samples (a lattice cannot hold the core for large N);
they are reduced to radial quadratures of the solved profile paired with the
field's спектrum:

    |k|_2^2           = sum_p  F0hat(|p|)   |rho_hat(p)|^2 / (L^d ...)
    |grad1 k|_2^2     = F1-part + cross(l=1) + F0 against |grad phi|^2
    sup_x |k(., x)|_2 = max_x rho(x) (F0 * rho)(x)

with F0 = N^2 w(N s)^2, F1 = N^4 w'(N s)^2 transformed exactly on the radial
grid (core included).  |grad1 (k kbar)|_2 is assembled from pair
correlations of the smooth composite kernel via per-row FFTs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.integrate import simpson

from .dynamics import GridSpec, WaveFunction, _mass
from .errors import AccuracyWarning, DomainError
from .radial import radial_hat
from .scattering import (
    RadialPotential,
    ScatteringSolution,
    equation_defect_residual,
    scaled_profile,
)

# residual budget factor for the zero-energy cancellation check: the scaled
# defect may exceed the raw equation defect by at most this factor
CANCELLATION_BUDGET_FACTOR = 10.0


# ---------------------------------------------------------------------------
# dense two-point kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoPointKernel:
    """Dense kernel over all grid-point pairs, with quadrature weight attached."""

    values: np.ndarray  # (M, M) complex
    grid: GridSpec
    symmetric: bool = True

    @property
    def weight(self) -> float:
        return self.grid.cell

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.values)) * self.weight

    def compose(self, other: "TwoPointKernel") -> "TwoPointKernel":
        """Operator product: (a b)(x, z) = int a(x, y) b(y, z) dy."""
        vals = self.values @ (self.weight * other.values)
        return TwoPointKernel(values=vals, grid=self.grid, symmetric=False)

    def conj_kernel(self) -> "TwoPointKernel":
        return TwoPointKernel(
            values=np.conj(self.values), grid=self.grid, symmetric=self.symmetric
        )

    def adjoint(self) -> "TwoPointKernel":
        return TwoPointKernel(
            values=np.conj(self.values.T), grid=self.grid, symmetric=self.symmetric
        )

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.values @ (self.weight * f)


def identity_kernel(grid: GridSpec) -> TwoPointKernel:
    M = grid.points_per_axis**grid.dim
    return TwoPointKernel(
        values=np.eye(M, dtype=complex) / grid.cell, grid=grid, symmetric=True
    )


def pair_distances(grid: GridSpec) -> np.ndarray:
    """Minimum-image distances between all pairs of grid points."""
    axes = grid.axes()
    coords = np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, grid.dim)
    L = grid.box_length
    d2 = np.zeros((coords.shape[0], coords.shape[0]))
    for c in range(grid.dim):
        diff = coords[:, c][:, None] - coords[:, c][None, :]
        diff = diff - L * np.round(diff / L)
        d2 += diff**2
    return np.sqrt(d2)


def build_kt(phi: WaveFunction, sol: ScatteringSolution, N: int) -> TwoPointKernel:
    """Pair-correlation kernel -N w(N(x-y)) phi(x) phi(y); symmetric exactly."""
    if N < 1:
        raise DomainError("N must be >= 1")
    grid = phi.grid
    if sol.potential.r_support > 0 and N * grid.dx > 10.0 * sol.potential.r_support:
        warnings.warn(
            f"N dx = {N * grid.dx:.3g} exceeds 10 r_support: the scaled profile "
            "core is unresolved on this grid",
            AccuracyWarning,
        )
    dist = pair_distances(grid)
    wN = scaled_profile(sol, N, dist)
    f = phi.values.reshape(-1)
    vals = -N * wN * np.multiply.outer(f, f)
    return TwoPointKernel(values=vals, grid=grid, symmetric=True)


def time_derivative_kt(
    phi: WaveFunction, phi_dot: np.ndarray, sol: ScatteringSolution, N: int
) -> TwoPointKernel:
    """d/dt of the pair kernel for a given field velocity phi_dot.

    Product rule on the field factors only; the profile factor is static:
    -N w(N(x-y)) (phi_dot(x) phi(y) + phi(x) phi_dot(y)).
    """
    grid = phi.grid
    dist = pair_distances(grid)
    wN = scaled_profile(sol, N, dist)
    f = phi.values.reshape(-1)
    g = phi_dot.reshape(-1)
    vals = -N * wN * (np.multiply.outer(g, f) + np.multiply.outer(f, g))
    return TwoPointKernel(values=vals, grid=grid, symmetric=True)


def grad1_components(kernel: TwoPointKernel) -> list[np.ndarray]:
    """Spectral derivative of k(x, y) in each component of the first slot."""
    grid = kernel.grid
    n, d = grid.points_per_axis, grid.dim
    M = n**d
    vals = kernel.values.reshape(grid.shape + (M,))
    ks = grid.k_axes()
    out = []
    spec_x = sfft.fftn(vals, axes=tuple(range(d)), workers=grid.fft_workers)
    for axis in range(d):
        shape = [1] * (d + 1)
        shape[axis] = n
        spec = spec_x * (1j * ks[axis]).reshape(shape)
        comp = sfft.ifftn(spec, axes=tuple(range(d)), workers=grid.fft_workers)
        out.append(comp.reshape(M, M))
    return out


def grad1_hs_norm(kernel: TwoPointKernel) -> float:
    total = 0.0
    for comp in grad1_components(kernel):
        total += float(np.sum(np.abs(comp) ** 2))
    return math.sqrt(total) * kernel.weight


# ---------------------------------------------------------------------------
# hyperbolic operator series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BogoliubovKernels:
    """ch(k) = 1 + p, sh(k) = k + r from the absolutely convergent series."""

    p: TwoPointKernel
    r: TwoPointKernel
    sh: TwoPointKernel
    series_terms_used: int
    truncation_error_bound: float


def hyperbolic_series(k: TwoPointKernel, tol: float = 1e-14) -> BogoliubovKernels:
    """Sum ch(k) = sum (k kbar)^n / (2n)! and sh(k) = sum (k kbar)^n k / (2n+1)!.

    Terms are added until the norm bound |k|^m / m! drops below tol; the
    reported truncation bound is the full exponential tail, which dominates
    the effect of any further term.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    norm_k = k.hs_norm()
    kkbar = k.compose(k.conj_kernel())

    p_vals = np.zeros_like(k.values)
    r_vals = np.zeros_like(k.values)
    power = kkbar  # (k kbar)^n, starting at n = 1
    n = 1
    while True:
        p_vals = p_vals + power.values / math.factorial(2 * n)
        r_vals = r_vals + power.apply(k.values) / math.factorial(2 * n + 1)
        if norm_k ** (2 * n) / math.factorial(2 * n) < tol or norm_k == 0:
            break
        n += 1
        power = power.compose(kkbar)

    partial = sum(norm_k**m / math.factorial(m) for m in range(2 * n + 2))
    tail = max(math.exp(norm_k) - partial, 0.0)
    grid = k.grid
    p = TwoPointKernel(values=p_vals, grid=grid, symmetric=False)
    r = TwoPointKernel(values=r_vals, grid=grid, symmetric=k.symmetric)
    sh = TwoPointKernel(values=k.values + r_vals, grid=grid, symmetric=k.symmetric)
    return BogoliubovKernels(
        p=p,
        r=r,
        sh=sh,
        series_terms_used=n,
        truncation_error_bound=tail,
    )


def bogoliubov_identity_defect(k: TwoPointKernel, tol: float = 1e-14) -> float:
    """Max-entry defect of ch ch^dag - sh sh^dag = identity (weighted kernels)."""
    bk = hyperbolic_series(k, tol)
    grid = k.grid
    ident = identity_kernel(grid)
    ch = TwoPointKernel(
        values=ident.values + bk.p.values, grid=grid, symmetric=False
    )
    lhs = ch.compose(ch.adjoint()).values - bk.sh.compose(bk.sh.adjoint()).values
    return float(np.max(np.abs(lhs - ident.values))) * grid.cell


# ---------------------------------------------------------------------------
# scaled-profile norms via radial reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBoundReport:
    N: int
    l2_k: float
    l2_grad1_k: float
    l2_grad1_kkbar: float
    sup_x_l2_slice: float
    pointwise_ratio_max: float
    cancellation_residual: float


def _profile_extension(sol: ScatteringSolution, sigma_max: float, step: float):
    """(sigma, w, w') out to sigma_max: solved grid, then the a0/sigma tail."""
    r, w, dw, a0 = sol.r_grid, sol.w, sol.dw_dr, sol.a0
    if sigma_max <= r[-1]:
        m = r <= sigma_max
        return r[m], w[m], dw[m]
    n_ext = max(int(math.ceil((sigma_max - r[-1]) / step)), 8)
    ext = np.linspace(r[-1], sigma_max, n_ext + 1)[1:]
    return (
        np.concatenate([r, ext]),
        np.concatenate([w, a0 / ext]),
        np.concatenate([dw, -a0 / ext**2]),
    )


def _field_moments(phi: WaveFunction):
    """(rho, sum_c |d_c phi|^2, [j_c]) with j_c = Re(conj(phi) d_c phi).

    The derivatives are spectral; j_c = d_c rho / 2.
    """
    grid = phi.grid
    ks = grid.k_axes()
    spec = sfft.fftn(phi.values, workers=grid.fft_workers)
    g1 = np.zeros(grid.shape)
    j = []
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        grad = sfft.ifftn(spec * (1j * ks[axis]).reshape(shape),
                          workers=grid.fft_workers)
        g1 += np.abs(grad) ** 2
        j.append(np.real(np.conj(phi.values) * grad))
    return np.abs(phi.values) ** 2, g1, j


def kernel_hs_norms(
    phi: WaveFunction, sol: ScatteringSolution, N: int, n_p: int = 384
):
    """(|k|_2, |grad1 k|_2, sup_x |k(., x)|_2) by radial-spectral reduction.

    The w-dependence enters through exact radial transforms of the solved
    profile (substituting sigma = N s resolves the core at any N); the field
    enters through its lattice spectrum.  Position-space integrals are
    truncated at the half-box radius, a wrap-around error common to all N.
    """
    grid = phi.grid
    d = grid.dim
    kabs = np.sqrt(grid.k_squared())
    p_max = float(np.max(kabs)) * 1.0000001 + 1e-12
    half_box = 0.5 * grid.box_length
    sigma_max = N * half_box
    # resolve the angular kernel oscillation at the largest momentum
    step = max(min(0.05, 2 * math.pi * N / p_max / 12.0), 1e-3)
    sig, wv, dwv = _profile_extension(sol, sigma_max, step)

    p_tab = np.linspace(0.0, p_max, n_p)
    # F0 = N^2 w(Ns)^2   -> N^(2-d) * hat[w^2](p / N)
    # F1 = N^4 w'(Ns)^2  -> N^(4-d) * hat[w'^2](p / N)
    f0, f1 = radial_hat(sig, np.stack([wv**2, dwv**2]), p_tab / N, d)
    f0 *= N ** (2 - d)
    f1 *= N ** (4 - d)
    # C = 2 N^3 (w' w)(Ns) uhat -> l=1 transform, N^(3-d) scaling
    fc = 2.0 * N ** (3 - d) * radial_hat(sig, dwv * wv, p_tab / N, d, ell=1)

    rho, g1, j = _field_moments(phi)
    rho_hat = sfft.fftn(rho, workers=grid.fft_workers)
    g1_hat = sfft.fftn(g1, workers=grid.fft_workers)

    # F_hat tabulated as the continuum transform already carries the cell of
    # the position-space convolution; one cell remains for the outer integral
    M = rho.size
    pref = grid.cell / M
    f0_lat, f1_lat, fc_lat = (np.interp(kabs, p_tab, f) for f in (f0, f1, fc))

    l2_k_sq = float(np.real(np.sum(f0_lat * np.abs(rho_hat) ** 2))) * pref

    # |grad1 k|^2: profile-gradient part + cross + field-gradient part
    term_a = float(np.real(np.sum(f1_lat * np.abs(rho_hat) ** 2))) * pref
    term_b = float(np.real(np.sum(f0_lat * np.conj(g1_hat) * rho_hat))) * pref
    ks = grid.k_axes()
    inv_kabs = np.where(kabs > 0, 1.0 / np.where(kabs > 0, kabs, 1.0), 0.0)
    term_c = 0.0
    for axis in range(d):
        shape = [1] * d
        shape[axis] = grid.points_per_axis
        j_hat = sfft.fftn(j[axis], workers=grid.fft_workers)
        mult = -1j * ks[axis].reshape(shape) * inv_kabs * fc_lat
        term_c += float(np.real(np.sum(np.conj(j_hat) * mult * rho_hat))) * pref
    l2_grad1_sq = term_a + term_b + term_c

    conv = sfft.ifftn(f0_lat * rho_hat, workers=grid.fft_workers).real
    sup_slice_sq = float(np.max(rho * conv))

    return (
        math.sqrt(max(l2_k_sq, 0.0)),
        math.sqrt(max(l2_grad1_sq, 0.0)),
        math.sqrt(max(sup_slice_sq, 0.0)),
    )


def _lattice_profile(grid: GridSpec, sol: ScatteringSolution, N: int, deriv: bool):
    """Samples of N w(N|u|) (or its radial derivative factor) on the lattice.

    The origin cell is cell-averaged over the equal-volume ball so the
    unresolved core carries its true integral weight instead of w(0).
    """
    axes = grid.axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    L = grid.box_length
    shifted = [m - L * np.round(m / L) for m in mesh]
    dist = np.sqrt(sum(m**2 for m in shifted))
    # lattice axes start at -L/2; recenter so u = 0 sits at index 0
    dist = np.roll(
        dist, shift=[grid.points_per_axis // 2] * grid.dim,
        axis=tuple(range(grid.dim)),
    )
    shifted = [
        np.roll(s, shift=[grid.points_per_axis // 2] * grid.dim,
                axis=tuple(range(grid.dim)))
        for s in shifted
    ]

    sigma = N * dist
    w_of = lambda s: np.interp(
        s, sol.r_grid, sol.dw_dr if deriv else sol.w,
        right=0.0,
    )
    r_max = sol.r_grid[-1]
    a0 = sol.a0
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = (-a0 / np.maximum(sigma, 1e-300) ** 2) if deriv \
            else (a0 / np.maximum(sigma, 1e-300))
    prof = np.where(sigma <= r_max, w_of(sigma), tail)

    if deriv:
        # vector components N^2 w'(N|u|) u_c/|u|; odd, zero at the origin
        out = []
        inv = np.where(dist > 0, 1.0 / np.where(dist > 0, dist, 1.0), 0.0)
        for s in shifted:
            comp = N**2 * prof * s * inv
            comp.reshape(-1)[0] = 0.0
            out.append(comp)
        return out

    vals = N * prof
    # cell average over the equal-volume ball at the origin
    d = grid.dim
    omega = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}[d]
    r_eq = (grid.cell * d / omega) ** (1.0 / d)
    s_eq = N * r_eq
    sgrid = np.linspace(0.0, min(s_eq, r_max), 513)
    integ = simpson(np.interp(sgrid, sol.r_grid, sol.w) * sgrid ** (d - 1), x=sgrid)
    if s_eq > r_max:
        ext = np.linspace(r_max, s_eq, 513)
        integ += simpson((a0 / ext) * ext ** (d - 1), x=ext)
    vals.reshape(-1)[0] = omega * N / (grid.cell * N**d) * integ
    return vals


def grad1_kkbar_hs_norm(
    phi: WaveFunction, sol: ScatteringSolution, N: int
) -> float:
    """|grad1 (k kbar)|_2 assembled from pair correlations of the profile.

    (k kbar)(x, y) = phi(x) conj(phi(y)) G(x, y) with
    G = int W(x-z) W(z-y) |phi(z)|^2 dz and W = N w(N .).  The composite is
    smooth at scale O(1), so lattice quadrature with a cell-averaged origin
    sample of W converges; the assembly streams over rows of the pair
    functions with FFT correlations.
    """
    grid = phi.grid
    d = grid.dim
    cell = grid.cell
    shape = grid.shape
    M = phi.values.size
    workers = grid.fft_workers

    W = _lattice_profile(grid, sol, N, deriv=False)
    Wc = _lattice_profile(grid, sol, N, deriv=True)

    rho, g1, j = _field_moments(phi)

    W_hat_c = np.conj(sfft.fftn(W, workers=workers))
    Wc_hat_c = [np.conj(sfft.fftn(w, workers=workers)) for w in Wc]

    def correlate(h, q_hat_conj):
        return sfft.ifftn(
            sfft.fftn(h, workers=workers) * q_hat_conj, workers=workers
        ).real * cell

    rho_flat = rho.reshape(-1)
    total = 0.0
    idx_shape = shape
    for flat_z1 in range(M):
        if rho_flat[flat_z1] < 1e-300:
            continue
        z1 = np.unravel_index(flat_z1, idx_shape)
        Wz = np.roll(W, shift=z1, axis=tuple(range(d)))
        x_side = correlate(g1 * Wz, W_hat_c)
        for c in range(d):
            x_side = x_side + 2.0 * correlate(j[c] * Wz, Wc_hat_c[c])
            Wcz = np.roll(Wc[c], shift=z1, axis=tuple(range(d)))
            x_side = x_side + correlate(rho * Wcz, Wc_hat_c[c])
        y_side = correlate(rho * Wz, W_hat_c)
        total += rho_flat[flat_z1] * float(np.sum(rho * x_side * y_side)) * cell
    total *= cell  # remaining z1 measure
    return math.sqrt(max(total, 0.0))


def pointwise_ratio(sol: ScatteringSolution) -> float:
    """Max of w(sigma) max(1, sigma): certifies |k| <= min(N, 1/|x-y|) |phi phi|."""
    sig = sol.r_grid
    vals = sol.w * np.maximum(1.0, sig)
    return float(max(np.max(vals), sol.a0))


def kernel_bound_report(
    phi: WaveFunction,
    sol: ScatteringSolution,
    N_list,
    with_kkbar: bool = True,
) -> list[KernelBoundReport]:
    """Norm scaling report across N: the ratios |k|, |grad1 k|/sqrt(N),
    |grad1 (k kbar)| and sup-slice are expected flat in N.  Each entry also
    carries the zero-energy cancellation residual at its N."""
    if not len(N_list):
        raise DomainError("N_list must be non-empty")
    reports = []
    ratio = pointwise_ratio(sol)
    for N in N_list:
        l2k, l2g1, sup_slice = kernel_hs_norms(phi, sol, int(N))
        kkbar = (
            grad1_kkbar_hs_norm(phi, sol, int(N)) if with_kkbar else float("nan")
        )
        reports.append(
            KernelBoundReport(
                N=int(N),
                l2_k=l2k,
                l2_grad1_k=l2g1,
                l2_grad1_kkbar=kkbar,
                sup_x_l2_slice=sup_slice,
                pointwise_ratio_max=ratio,
                cancellation_residual=zero_energy_cancellation_residual(
                    sol, sol.potential, int(N)),
            )
        )
    return reports


def zero_energy_cancellation_residual(
    sol: ScatteringSolution, V: RadialPotential, N: int
) -> float:
    """Residual of N^3 [(-lap + V/2)(1 - w)](N r) over the radial grid.

    Zero for the exact profile; numerically bounded by the budget factor
    times the N^3-scaled equation defect of the solver.
    """
    if sol.potential is not V:
        raise DomainError("profile was not solved from this potential")
    return equation_defect_residual(sol, N)


def coarsen_field(phi: WaveFunction, n_coarse: int) -> WaveFunction:
    """Spectral downsample onto n_coarse points per axis (band truncation)."""
    grid = phi.grid
    n = grid.points_per_axis
    if n_coarse > n or n % n_coarse != 0:
        raise DomainError("coarse grid must divide the fine grid")
    if n_coarse == n:
        return phi
    d = grid.dim
    spec = sfft.fftn(phi.values, workers=grid.fft_workers)
    keep = np.r_[0 : n_coarse // 2, n - n_coarse // 2 : n]
    for axis in range(d):
        spec = np.take(spec, keep, axis=axis)
    vals = sfft.ifftn(spec, workers=grid.fft_workers) * (n_coarse / n) ** d
    cgrid = GridSpec(
        dim=d,
        box_length=grid.box_length,
        points_per_axis=n_coarse,
        dt=grid.dt,
        t_final=grid.t_final,
        stability_budget=grid.stability_budget,
        fft_workers=grid.fft_workers,
    )
    norm = math.sqrt(_mass(vals) * cgrid.cell)
    return WaveFunction(values=vals / norm, grid=cgrid)
