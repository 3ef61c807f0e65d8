"""Radial Fourier transforms of spherically symmetric profiles.

Used to tabulate the transform of the interaction product V*f once on a fine
momentum grid (the pseudo-spectral convolution then samples it at p/N), and
to reduce Hilbert-Schmidt norms of difference kernels to radial quadratures.

Conventions: hat(g)(p) = int g(|x|) e^{-i p.x} dx over R^dim, so
  dim 1:  2 int g(r) cos(p r) dr
  dim 2:  2 pi int g(r) J0(p r) r dr
  dim 3:  4 pi int g(r) j0(p r) r^2 dr
The l = 1 (vector) transform of g(|x|) x/|x| is -i phat times `radial_hat`
with `ell=1`, using sin, J1 and j1 respectively.  `ell` is 0 or 1 for all
rows of a stack of profiles or one order per row, so one call transforms
profiles of both orders.

`radial_hat` takes uniformly spaced momenta (every caller samples a
linspace), so the trigonometric kernels are factored by angle addition: with
B = ceil(sqrt(n_p)) and i = bB + k, p_i = p_{bB} + (p_k - p_0), and
sum_j c_j e^{i p_i r_j} for all i is one thin complex matrix product of
c * e^{i p_{bB} r} with e^{i (p_k - p_0) r}.  That takes about
2 sqrt(n_p) n_r sines and cosines instead of n_p n_r, and no p x r buffer.
The two phase tables are built once per call and every row of a stack
goes through them in turn.  cos and sin (dim 1) are the real and imaginary
parts of the same sums, so a 1D stack of both orders shares one pass;
j0(pr) r^2 = r sin(pr) / p (dim 3, l = 0) is the imaginary part with one
more factor r, divided by p.  The sum over r runs in blocks of radii
whose sums are added pairwise, so it carries less round-off than one long
dot product.  The Bessel kernels J0, J1 (dim 2) and j1 (dim 3, l = 1) have
no addition formula and keep the full p x r kernel matrix, one product for
all rows of an order: splitting j1 = sin/z^2 - cos/z into p-separable parts
cancels at small pr and loses about two digits against the direct matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import j0 as besselJ0, j1 as besselJ1

from .errors import DomainError
from .scattering import potential_pieces


def _angular_kernel(z: np.ndarray, dim: int, ell: int) -> np.ndarray:
    if dim == 1:
        return np.cos(z) if ell == 0 else np.sin(z)
    if dim == 2:
        return besselJ0(z) if ell == 0 else besselJ1(z)
    if dim == 3:
        if ell == 0:
            return np.sinc(z / math.pi)  # j0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(z > 1e-8, np.sin(z) / z**2 - np.cos(z) / z, z / 3.0)
        return out  # j1
    raise DomainError(f"unsupported dimension {dim}")


def _measure(r: np.ndarray, dim: int) -> np.ndarray:
    if dim == 1:
        return np.ones_like(r)
    if dim == 2:
        return r
    return r**2


_PREFACTOR = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# momenta of the interaction-transform table, uniform on [0, p_max]
_INTERACTION_MOMENTA = 512


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y == scipy.integrate.simpson(y, x=x) up to round-off.

    Composite Simpson on pairs of (possibly unequal) intervals; for an even
    number of samples the last interval gets Cartwright's correction, as in
    scipy, and two samples give the trapezoid.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    w = np.zeros(n)
    if n < 3:
        w[:] = 0.5 * (x[-1] - x[0]) if n == 2 else 0.0
        return w
    h = np.diff(x)
    m = n if n % 2 else n - 1  # samples covered by whole interval pairs
    h0, h1 = h[0 : m - 1 : 2], h[1 : m - 1 : 2]
    hsum = h0 + h1
    w[0 : m - 2 : 2] += hsum / 6.0 * (2.0 - h1 / h0)
    w[1 : m - 1 : 2] += hsum**3 / (6.0 * h0 * h1)
    w[2:m:2] += hsum / 6.0 * (2.0 - h0 / h1)
    if n % 2 == 0:
        h0, h1 = h[-2], h[-1]
        w[-1] += (2.0 * h1**2 + 3.0 * h0 * h1) / (6.0 * (h0 + h1))
        w[-2] += (h1**2 + 3.0 * h0 * h1) / (6.0 * h0)
        w[-3] -= h1**3 / (6.0 * h0 * (h0 + h1))
    return w


def _unit_phase(angle: np.ndarray) -> np.ndarray:
    """exp(1j * angle) as cos + 1j sin, written straight into one complex array."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _check_uniform(p: np.ndarray) -> None:
    """DomainError unless p is uniformly spaced up to round-off."""
    if p.size > 2 and (np.ptp(np.diff(p))
                       > 64 * np.finfo(float).eps * np.max(np.abs(p))):
        raise DomainError("radial transforms need uniformly spaced momenta")


# radii per BLAS inner sum in `_phase_sums`: numpy adds the block sums
# pairwise, which at n_r ~ 5000-8000 keeps the round-off of the sum over r
# 2-10x below that of one BLAS dot product over all of r
_BLOCK = 32


def _phase_sums(r: np.ndarray, c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_j c_j exp(i p_i r_j) for every p_i of the uniform grid p, one row
    per row of c: with B = ceil(sqrt(n_p)) and i = bB + k, entry (b, k) of
    (c * e^{i p_{bB} r}) @ e^{i (p_k - p_0) r}^T.  The two phase tables are
    built once; the rows of c go through them one at a time, so no
    rows x B x n_r product is formed and a row's result does not depend on
    the other rows."""
    stride = math.isqrt(p.size - 1) + 1
    starts = p[::stride]
    n_blocks = -(-r.size // _BLOCK)
    padded = np.zeros(n_blocks * _BLOCK)
    padded[: r.size] = r
    phases = _unit_phase(np.outer(np.concatenate([starts, p[:stride] - p[0]]),
                                  padded))
    # (block of radii, b, radius) and (block of radii, radius, k)
    bases = phases[: starts.size].reshape(-1, n_blocks, _BLOCK).transpose(1, 0, 2)
    offsets = phases[starts.size :].reshape(-1, n_blocks, _BLOCK).transpose(1, 2, 0)
    rows = c.reshape(-1, r.size)
    out = np.empty((rows.shape[0], p.size), dtype=complex)
    weights = np.zeros(padded.shape)  # the padding radii carry zero weight
    terms = np.empty((n_blocks, starts.size, _BLOCK), dtype=complex)
    # the block index last, so that numpy adds the block sums pairwise
    block_sums = np.empty((starts.size, stride, n_blocks), dtype=complex)
    for row, c_row in zip(out, rows):
        weights[: r.size] = c_row
        np.multiply(bases, weights.reshape(n_blocks, 1, _BLOCK), out=terms)
        np.matmul(terms, offsets, out=block_sums.transpose(2, 0, 1))
        row[:] = block_sums.sum(axis=-1).reshape(-1)[: p.size]
    return out.reshape(c.shape[:-1] + (p.size,))


def radial_hat(
    r: np.ndarray,
    g: np.ndarray,
    p: np.ndarray,
    dim: int,
    ell=0,
) -> np.ndarray:
    """Transform of the sampled radial profile g at the uniformly spaced
    momenta p (a non-uniform p raises DomainError).

    One Simpson quadrature over all of r: a g that jumps is transformed
    piece by piece by the caller (see `tabulate_interaction_transform`).  A
    stack of profiles (rows of g) gives one row of transforms each; `ell`
    (0 or 1, else DomainError) is one order for every row or one per row.
    The trigonometric kernels go through one `_phase_sums` for all their
    rows; the Bessel kernels are one matrix product with the p x r kernel
    matrix per order.
    """
    r = np.asarray(r, dtype=float)
    g = np.asarray(g, dtype=float)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    _check_uniform(p)
    ells = np.broadcast_to(ell, g.shape[:-1]).reshape(-1)
    if not np.all((ells == 0) | (ells == 1)):
        raise DomainError(f"radial transforms take ell 0 or 1, not {ell!r}")
    rows = g.reshape(-1, r.size)
    w = _simpson_weights(r)
    if dim == 1:
        sums = _phase_sums(r, rows * w, p)
        out = np.where(ells[:, None] == 0, sums.real, sums.imag)
    else:
        out = np.empty((rows.shape[0], p.size))
        weighted = rows * (w * _measure(r, dim))
        for order in (0, 1):
            take = ells == order
            if not take.any():
                continue
            if dim == 3 and order == 0:
                # j0(pr) r^2 = r sin(pr) / p; at p = 0 it is r^2
                at_zero = p == 0
                vals = (_phase_sums(r, rows[take] * (w * r), p).imag
                        / np.where(at_zero, 1.0, p))
                vals[:, at_zero] = weighted[take].sum(axis=-1, keepdims=True)
            else:
                kern = _angular_kernel(np.outer(p, r), dim, order)
                vals = weighted[take] @ kern.T
            out[take] = vals
    return _PREFACTOR[dim] * out.reshape(g.shape[:-1] + p.shape)


@dataclass(frozen=True)
class RadialTransformTable:
    """Cubic-spline table of a radial transform on [0, p_max]."""

    p: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "_spline", CubicSpline(self.p, self.values))

    def __call__(self, p):
        p = np.abs(np.asarray(p, dtype=float))
        if np.any(p > self.p[-1] * (1 + 1e-12)):
            raise DomainError(
                f"momentum {p.max():.3g} outside the tabulated range "
                f"[0, {self.p[-1]:.3g}]"
            )
        return self._spline(np.clip(p, 0.0, self.p[-1]))

    @property
    def at_zero(self) -> float:
        return float(self.values[0])


def tabulate_interaction_transform(sol, dim: int, p_max: float):
    """Transform table of the pair product V(r) f(r) from a solved profile.

    At p = 0 and dim = 3 the value is the full volume integral of V f, i.e.
    8 pi a0 by the integral definition of the scattering length.  Pieces
    between potential breakpoints are transformed separately with one-sided
    edge samples, so jumps cost no quadrature order; a piece on which V is
    zero (the outside of a square well) adds nothing and is skipped.
    """
    r = sol.r_grid
    p = np.linspace(0.0, p_max, _INTERACTION_MOMENTA)
    vals = np.zeros(p.size)
    for lo, hi, v in potential_pieces(sol.potential, r):
        if np.any(v):
            vals += radial_hat(r[lo : hi + 1], v * sol.f[lo : hi + 1], p, dim)
    return RadialTransformTable(p=p, values=vals, dim=dim)
