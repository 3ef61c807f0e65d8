"""Correlation kernels built from the scattering profile and a field.

The pair kernel is k(x, y) = -N w(N(x - y)) phi(x) phi(y) with w = 1 - f the
solved correlation profile.  This module sums the hyperbolic operator series
ch(k), sh(k) of a dense kernel on a desk sized grid, and certifies the norm,
gradient and sup-slice bounds of k without building it.  `ch_sh_series` is
the one ch/sh series of gpk: the grid kernels and the Fock mode matrices
both sum it.

Hilbert-Schmidt norms that must resolve the 1/N core of w(N .) are not
computed from dense samples (a lattice cannot hold the core for large N);
they are reduced to radial quadratures of the solved profile paired with the
field's spectrum:

    |k|_2^2           = sum_p  F0hat(|p|)   |rho_hat(p)|^2 dx^d / n^d
    |grad1 k|_2^2     = F1-part + cross(l=1) + F0 against |grad phi|^2
    sup_x |k(., x)|_2 = max_x rho(x) (F0 * rho)(x)

with F0 = N^2 w(N s)^2 and F1 = N^4 w'(N s)^2 transformed exactly on the
radial grid (core included), both in one radial pass per N.  The l = 1
transform of the cross profile w'w = (w^2 / 2)' comes by parts from the
F0 row plus a boundary term at the end of the radial grid.
|grad1 (k kbar)|_2 is a sum over source rows of pair correlations of the
smooth composite kernel.  The sum takes one row per
orbit of the lattice symmetries (axis reflections and permutations) that the
field's density, gradient density and current respect, weighted by the
orbit size, and runs the rows in blocks through real FFTs.  The FFTs
come from `dynamics._transforms`, so a 1D grid loads no scipy.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .budgets import PROFILE_STEP_BUDGET
from .dynamics import GridSpec, WaveFunction, _transforms
from .errors import ConfigurationError, DomainError
from .radial import _PREFACTOR, _order_one_kernel, radial_hat
from .scattering import (
    ScatteringSolution,
    _simpson_weights,
    equation_defect_residual,
    scaled_profile,
)

# momenta of the radial transform tables in kernel_hs_norms
_KERNEL_MOMENTA = 384

# grid points per block of source rows in grad1_kkbar_hs_norm, which holds
# d + 2 real arrays and their half spectra per row: about 3 MB at d = 3
_ROW_BLOCK_POINTS = 1 << 15

# a lattice symmetry of the field is kept if it moves rho, sum |grad phi|^2
# and the current by at most this many times n ulp of each field's max, n
# points per axis: the round-off of the spectral derivatives grows about like
# n (0.2-1 n ulp on centred Gaussians, 1D from 64 to 1024 points, 3D at 16
# and 32)
_SYMMETRY_ULPS_PER_POINT = 4


# ---------------------------------------------------------------------------
# dense two-point kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoPointKernel:
    """Dense kernel over all grid-point pairs, with quadrature weight attached."""

    values: np.ndarray  # (M, M) complex
    grid: GridSpec

    @property
    def weight(self) -> float:
        return self.grid.cell

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.values)) * self.weight


def _spectral_gradient(grid: GridSpec, values: np.ndarray) -> list[np.ndarray]:
    """[d_c values for each axis c]: spectral derivatives along the grid axes,
    the leading `dim` axes of `values`; any further axes are carried along."""
    fft, ifft, _, _ = _transforms(grid)
    spec = fft(values)
    ks = grid._open_axes(grid.k_axes(), values.ndim - grid.dim)
    return [ifft(spec * (1j * k)) for k in ks]


# ---------------------------------------------------------------------------
# hyperbolic operator series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BogoliubovKernels:
    """ch(k) = 1 + p, sh(k) = k + r from the absolutely convergent series."""

    p: TwoPointKernel
    r: TwoPointKernel
    sh: TwoPointKernel


def ch_sh_series(a: np.ndarray, tol: float = 1e-14):
    """(p, r) with ch(a) = 1 + p and sh(a) = a + r for a symmetric complex
    matrix a: p sums (a abar)^m / (2m)! and r sums (a abar)^m a / (2m+1)!
    over m = 1..n, n the first order where |a|^(2n) / (2n)! (Frobenius
    norm) drops below tol.  Grid kernels and Fock mode matrices both use it.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    norm = float(np.linalg.norm(a))
    aabar = a @ np.conj(a)
    p = np.zeros_like(a)
    r = np.zeros_like(a)
    power = aabar  # (a abar)^n, starting at n = 1
    n = 1
    while True:
        p = p + power / math.factorial(2 * n)
        r = r + (power @ a) / math.factorial(2 * n + 1)
        if norm ** (2 * n) / math.factorial(2 * n) < tol or norm == 0:
            return p, r
        n += 1
        power = power @ aabar


def hyperbolic_series(k: TwoPointKernel, tol: float = 1e-14) -> BogoliubovKernels:
    """Sum ch(k) = sum (k kbar)^n / (2n)! and sh(k) = sum (k kbar)^n k / (2n+1)!.

    As an operator on grid functions, k acts as the matrix w k (w the cell
    weight), whose Frobenius norm is |k|_HS; `ch_sh_series` sums that matrix
    and the parts p and r come back as kernels divided by w.
    """
    w = k.weight
    p, r = ch_sh_series(w * k.values, tol)
    grid = k.grid
    r_vals = r / w
    return BogoliubovKernels(
        p=TwoPointKernel(values=p / w, grid=grid),
        r=TwoPointKernel(values=r_vals, grid=grid),
        sh=TwoPointKernel(values=k.values + r_vals, grid=grid),
    )


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
    cancellation_residual: float


def _profile_extension(sol: ScatteringSolution, sigma_max: float, step: float):
    """(sigma, w, w') out to sigma_max: solved grid, then the a0/sigma tail."""
    r = sol.r_grid
    if sigma_max <= r[-1]:
        sig = r[r <= sigma_max]
    else:
        n_ext = max(int(math.ceil((sigma_max - r[-1]) / step)), 8)
        sig = np.concatenate([r, np.linspace(r[-1], sigma_max, n_ext + 1)[1:]])
    return sig, scaled_profile(sol, 1, sig), scaled_profile(sol, 1, sig, deriv=True)


def kernel_profile_reach(grid: GridSpec, N: int) -> tuple[float, float, float]:
    """(p_max, sigma_max, step) of the profile table of `kernel_hs_norms` at
    N: out to N times the half box, in steps that resolve the angular kernel
    oscillation at the largest momentum p_max.  A radius or a count of steps
    past the float range, or a count past PROFILE_STEP_BUDGET, is refused."""
    p_max = math.sqrt(grid.k_max_squared) * 1.0000001 + 1e-12
    if N <= sys.float_info.max:  # a larger int does not convert to a float
        sigma_max = N * (0.5 * grid.box_length)
        step = max(min(0.025, 2 * math.pi * N / p_max / 24.0), 5e-4)
        steps = sigma_max / step
        if steps <= PROFILE_STEP_BUDGET:
            return p_max, sigma_max, step
        if steps < math.inf:
            raise ConfigurationError(
                f"N = {N} on a box of length {grid.box_length:g} asks for a "
                f"kernel profile of {steps:.3g} radial steps, past the budget "
                f"PROFILE_STEP_BUDGET = {PROFILE_STEP_BUDGET}")
    raise ConfigurationError(
        f"N = {N} on a box of length {grid.box_length:g} puts the kernel "
        "profile's radius N * length / 2, or its count of radial steps, "
        "past the float range")


def _field_moments(phi: WaveFunction):
    """(rho, sum_c |d_c phi|^2, [j_c]) with j_c = Re(conj(phi) d_c phi).

    The derivatives are spectral; j_c = d_c rho / 2.
    """
    grads = _spectral_gradient(phi.grid, phi.values)
    g1 = sum(np.abs(grad) ** 2 for grad in grads)
    j = [np.real(np.conj(phi.values) * grad) for grad in grads]
    return np.abs(phi.values) ** 2, g1, j


def kernel_hs_norms(phi: WaveFunction, sol: ScatteringSolution, N: int):
    """(|k|_2, |grad1 k|_2, sup_x |k(., x)|_2) by radial-spectral reduction.

    The w-dependence enters through exact radial transforms of the solved
    profile (substituting sigma = N s resolves the core at any N); the field
    enters through its lattice spectrum.  Position-space integrals are
    truncated at the half-box radius, a wrap-around error common to all N.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    grid = phi.grid
    d = grid.dim
    kabs = np.sqrt(grid.k_squared())
    p_max, sigma_max, step = kernel_profile_reach(grid, N)
    sig, wv, dwv = _profile_extension(sol, sigma_max, step)

    p_tab = np.linspace(0.0, p_max, _KERNEL_MOMENTA)
    q = p_tab / N
    # F0 = N^2 w(Ns)^2   -> N^(2-d) * hat[w^2](p / N)
    # F1 = N^4 w'(Ns)^2  -> N^(4-d) * hat[w'^2](p / N)
    # C = 2 N^3 (w' w)(Ns) -> N^(3-d) * 2 l1[w' w](p / N), by parts from the
    # hat[w^2] row as w' w = (w^2 / 2)': on [0, R], R = sig[-1],
    # l1[w' w](q) = (Omega_d / 2) w(R)^2 R^(d-1) K1(q R) - (q / 2) hat[w^2](q)
    f0, f1 = radial_hat(sig, np.stack([wv**2, dwv**2]), q, d)
    R = sig[-1]
    fc = N ** (3 - d) * (_PREFACTOR[d] * wv[-1] ** 2 * R ** (d - 1)
                         * _order_one_kernel(q * R, d) - q * f0)
    f0 *= N ** (2 - d)
    f1 *= N ** (4 - d)

    rho, g1, j = _field_moments(phi)
    fft, ifft, _, _ = _transforms(grid)
    rho_hat = fft(rho)
    g1_hat = fft(g1)

    # F_hat tabulated as the continuum transform already carries the cell of
    # the position-space convolution; one cell remains for the outer integral
    M = rho.size
    pref = grid.cell / M
    f0_lat, f1_lat, fc_lat = (np.interp(kabs, p_tab, f) for f in (f0, f1, fc))

    l2_k_sq = float(np.real(np.sum(f0_lat * np.abs(rho_hat) ** 2))) * pref

    # |grad1 k|^2: profile-gradient part + cross + field-gradient part
    term_a = float(np.real(np.sum(f1_lat * np.abs(rho_hat) ** 2))) * pref
    term_b = float(np.real(np.sum(f0_lat * np.conj(g1_hat) * rho_hat))) * pref
    inv_kabs = np.where(kabs > 0, 1.0 / np.where(kabs > 0, kabs, 1.0), 0.0)
    term_c = 0.0
    for k, j_c in zip(grid._open_axes(grid.k_axes()), j):
        j_hat = fft(j_c)
        mult = -1j * k * inv_kabs * fc_lat
        term_c += float(np.real(np.sum(np.conj(j_hat) * mult * rho_hat))) * pref
    l2_grad1_sq = term_a + term_b + term_c

    conv = ifft(f0_lat * rho_hat).real
    sup_slice_sq = float(np.max(rho * conv))

    return (
        math.sqrt(max(l2_k_sq, 0.0)),
        math.sqrt(max(l2_grad1_sq, 0.0)),
        math.sqrt(max(sup_slice_sq, 0.0)),
    )


def _lattice_profile(grid: GridSpec, sol: ScatteringSolution, N: int, deriv: bool):
    """Samples of N w(N|u|) (or its radial derivative factor) on the lattice.

    u runs over the min-image displacements, u = 0 at index 0.  The origin
    cell is cell-averaged over the equal-volume ball so the unresolved core
    carries its true integral weight instead of w(0).
    """
    u = grid._displacements()
    dist = np.sqrt(grid._mesh(np.add, u**2))
    prof = scaled_profile(sol, N, dist, deriv)

    if deriv:
        # vector components N^2 w'(N|u|) u_c/|u|; odd, zero at the origin and
        # on the Nyquist plane u_c = -L/2, which is its own mirror image
        u[grid.points_per_axis // 2] = 0.0
        inv = np.where(dist > 0, 1.0 / np.where(dist > 0, dist, 1.0), 0.0)
        return [N**2 * prof * u_c * inv for u_c in grid._open_axes(u)]

    vals = N * prof
    # cell average over the equal-volume ball at the origin, of w as
    # `scaled_profile` gives it, on each side of the kink at r_max
    d, omega = grid.dim, _PREFACTOR[grid.dim]
    s_eq = N * (grid.cell * d / omega) ** (1.0 / d)
    pieces = [np.linspace(0.0, min(s_eq, sol.r_max), 513)]
    if s_eq > sol.r_max:
        pieces.append(np.linspace(sol.r_max, s_eq, 513))
    integ = sum(_simpson_weights(s) @ (scaled_profile(sol, 1, s) * s ** (d - 1))
                for s in pieces)
    vals.reshape(-1)[0] = omega * N / (grid.cell * N**d) * integ
    return vals


def _lattice_symmetries(grid: GridSpec):
    """(image, signs, perm) for each of the 2^d d! symmetries S of the lattice
    that fix the origin index n/2 of every axis: (S i)_c = s_c i_perm[c], with
    s_c = -1 the reflection i -> (n - i) mod n.  image[m] is the flat index
    of S applied to the point of flat index m."""
    d, n = grid.dim, grid.points_per_axis
    idx = np.indices(grid.shape).reshape(d, -1)
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            img = [idx[a] if s > 0 else (-idx[a]) % n
                   for s, a in zip(signs, perm)]
            yield np.ravel_multi_index(img, grid.shape), signs, perm


def _row_orbits(grid: GridSpec, rho, g1, j):
    """(representatives, sizes) of the orbits of the visited source rows
    (rho >= 1e-300) under the lattice symmetries that keep rho and g1 and
    carry j as a vector field, j_c(S x) = s_c j_perm[c](x), each to
    `_SYMMETRY_ULPS_PER_POINT` n ulp of the field's max.  A field with no
    symmetry gets one orbit per visited row."""
    flat = [f.reshape(-1) for f in (rho, g1, *j)]
    scales = [np.max(np.abs(f)) for f in flat[:2]]
    scales += [max(np.max(np.abs(f)) for f in flat[2:])] * len(j)
    ulp = _SYMMETRY_ULPS_PER_POINT * grid.points_per_axis * np.finfo(float).eps
    tols = [ulp * s for s in scales]
    # a row's label is its least image under the kept symmetries: every row
    # is carried onto its label by a kept symmetry, so the row contribution
    # is constant on a class even if the kept set were not closed under
    # composition
    labels = np.arange(rho.size)
    for img, signs, perm in _lattice_symmetries(grid):
        targets = flat[:2] + [s * flat[2 + a] for s, a in zip(signs, perm)]
        if all(np.max(np.abs(f[img] - t)) <= tol
               for f, t, tol in zip(flat, targets, tols)):
            np.minimum(labels, img, out=labels)
    visit = np.flatnonzero(flat[0] >= 1e-300)
    _, first, sizes = np.unique(labels[visit], return_index=True,
                                return_counts=True)
    assert sizes.sum() == visit.size
    return visit[first], sizes


def grad1_kkbar_hs_norm(
    phi: WaveFunction, sol: ScatteringSolution, N: int
) -> float:
    """|grad1 (k kbar)|_2 assembled from pair correlations of the profile.

    (k kbar)(x, y) = phi(x) conj(phi(y)) G(x, y) with
    G = int W(x-z) W(z-y) |phi(z)|^2 dz and W = N w(N .).  The composite is
    smooth at scale O(1), so lattice quadrature with a cell-averaged origin
    sample of W converges.  The sum over source rows z runs over one row
    per orbit of the field's lattice symmetries, weighted by the orbit size;
    the rows go in blocks through real FFT correlations, with the x-side
    terms added in the half spectrum before its one inverse transform.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    grid = phi.grid
    d, n = grid.dim, grid.points_per_axis
    cell = grid.cell
    rfft = _transforms(grid)[2]
    # over the grid axes behind (pair function, row)
    _, _, rfft_rows, irfft_rows = _transforms(grid, first=2)

    W = _lattice_profile(grid, sol, N, deriv=False)
    Wc = _lattice_profile(grid, sol, N, deriv=True)
    rho, g1, j = _field_moments(phi)

    W_hat_c = np.conj(rfft(W))
    Wc_hat_c = [np.conj(rfft(w)) for w in Wc]
    reps, sizes = _row_orbits(grid, rho, g1, j)

    rho_flat = rho.reshape(-1)
    total = 0.0
    block = max(1, _ROW_BLOCK_POINTS // rho.size)
    for lo in range(0, reps.size, block):
        rows = reps[lo : lo + block]
        # W(x - z) for every row z of the block, gathered per axis
        z = np.unravel_index(rows, grid.shape)
        at = [(np.arange(n) - zc[:, None]) % n for zc in z]
        at = [t.reshape([-1] + [n if a == c else 1 for a in range(d)])
              for c, t in enumerate(at)]
        Wz = W[tuple(at)]
        # forward transforms: g1 W_z, then per axis 2 j_c W_z + rho Wc_z,
        # then the y-side rho W_z
        parts = np.empty((d + 2,) + Wz.shape)
        np.multiply(g1, Wz, out=parts[0])
        for c in range(d):
            np.multiply(rho, Wc[c][tuple(at)], out=parts[1 + c])
            parts[1 + c] += 2.0 * j[c] * Wz
        np.multiply(rho, Wz, out=parts[-1])
        spec = rfft_rows(parts)
        # the x side and the y side, one inverse transform each
        sides = np.empty((2,) + spec.shape[1:], dtype=spec.dtype)
        np.multiply(spec[0], W_hat_c, out=sides[0])
        for c in range(d):
            sides[0] += spec[1 + c] * Wc_hat_c[c]
        np.multiply(spec[-1], W_hat_c, out=sides[1])
        sides = irfft_rows(sides)
        row_sums = np.einsum("bx,bx,x->b", sides[0].reshape(rows.size, -1),
                             sides[1].reshape(rows.size, -1), rho_flat)
        total += float(np.sum(sizes[lo : lo + block] * rho_flat[rows]
                              * row_sums)) * cell**3
    total *= cell  # remaining z1 measure
    return math.sqrt(max(total, 0.0))


def kernel_bound_report(
    phi: WaveFunction,
    sol: ScatteringSolution,
    N_list,
) -> list[KernelBoundReport]:
    """Norm scaling report across N: the ratios |k|, |grad1 k|/sqrt(N),
    |grad1 (k kbar)| and sup-slice are expected flat in N.  Each entry also
    carries the zero-energy cancellation residual at its N."""
    if not len(N_list):
        raise DomainError("N_list must be non-empty")
    reports = []
    for N in N_list:
        l2k, l2g1, sup_slice = kernel_hs_norms(phi, sol, int(N))
        kkbar = grad1_kkbar_hs_norm(phi, sol, int(N))
        reports.append(
            KernelBoundReport(
                N=int(N),
                l2_k=l2k,
                l2_grad1_k=l2g1,
                l2_grad1_kkbar=kkbar,
                sup_x_l2_slice=sup_slice,
                cancellation_residual=equation_defect_residual(sol, int(N)),
            )
        )
    return reports
