"""Radial Fourier transforms of spherically symmetric profiles.

Used to tabulate the transform of the interaction product V*f once on a fine
momentum grid (the pseudo-spectral convolution then samples it at p/N), and
to reduce Hilbert-Schmidt norms of difference kernels to radial quadratures.

Conventions: hat(g)(p) = int g(|x|) e^{-i p.x} dx over R^dim, so
  dim 1:  2 int g(r) cos(p r) dr
  dim 2:  2 pi int g(r) J0(p r) r dr
  dim 3:  4 pi int g(r) j0(p r) r^2 dr
`radial_hat` takes only these l = 0 kernels.  The one l = 1 (vector)
transform of gpk, of w'w in `kernels.kernel_hs_norms`, is taken by parts
from the l = 0 transform of w^2 plus a boundary term in the l = 1 kernel
K1 (sin, J1, j1), which `_order_one_kernel` evaluates at a few momenta.

`radial_hat` takes uniformly spaced momenta (every caller samples a
linspace), so the trigonometric kernels are factored by angle addition: with
B = ceil(sqrt(n_p)) and i = bB + k, p_i = p_{bB} + (p_k - p_0), and
sum_j c_j e^{i p_i r_j} for all i is one thin complex matrix product of
c * e^{i p_{bB} r} with e^{i (p_k - p_0) r}.  That takes about
2 sqrt(n_p) n_r tangents (`_unit_phase`) instead of n_p n_r sines and
cosines, and no p x r buffer.
The two phase tables are built once per call and every row of a stack
goes through them in turn.  cos (dim 1) is the real part of the sums;
j0(pr) r^2 = r sin(pr) / p (dim 3) is the imaginary part with one more
factor r, divided by p.  The sum over r runs in blocks of radii whose
sums are added pairwise, so it carries less round-off than one long dot
product.  The Bessel kernel J0 (dim 2) has no addition formula and is the
one kernel that still uses the full p x r matrix, one product for all rows.

The quadrature over r is Simpson's rule as weights, `_simpson_weights` of
`gpk.scattering`, the one Simpson rule of the package.

`RadialTransformTable` samples the table through a not-a-knot cubic
spline that it builds and evaluates in numpy, with the same coefficients
and the same values as `scipy.interpolate.CubicSpline` bit for bit, so a
modified-GP run does not load `scipy.interpolate` and the optimize,
spatial, linalg and sparse modules it pulls in.  The module imports scipy
only in its dim-2 kernels, which load `scipy.special` for J0 and J1 when
they first run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import ROUNDOFF_SLACK
from .errors import DomainError
from .scattering import _simpson_weights, potential_pieces


_PREFACTOR = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# momenta of the interaction-transform table, uniform on [0, p_max]
_INTERACTION_MOMENTA = 512


# angles per pass of `_unit_phase`: the pass and its scratch, about 80 bytes
# an angle, stay in a 1 MB L2 cache
_PHASE_CHUNK = 8192


def _unit_phase(angle: np.ndarray, factor=None, scale: float = 1.0) -> np.ndarray:
    """exp(1j * scale * angle), times `factor` (broadcast to the angles) if
    given, from one tangent per angle: t = tan(angle * (scale / 2)),
    r = 2 / (1 + t^2), cos = 1 - t^2 r, sin = t r.  The scale rides on the
    half-angle product, so scaling the angles costs no pass of its own; as
    halving is exact, the phase has the bits of `_unit_phase(angle * scale)`.

    numpy runs tan in SIMD but cos and sin in scalar libm, so this takes
    about half their time.  It agrees with them to round-off (6e-17 below
    1e-4, 5e-16 on any angle) with no bias in cos^2 + sin^2; r - 1 for the
    cosine would grow a run's norm by about 1e-16 a step.  At odd multiples
    of pi, t is about 1e16 and t^2 r rounds to 2.  The angles go in chunks
    of `_PHASE_CHUNK`, member by member when every member (row of the
    leading axis) fills a chunk: the scratch and the product, `phase *
    factor` out of place, stay in cache, a member is cut alike alone or in
    a stack, and a factor broadcast over the members is not copied.
    """
    out = np.empty(angle.shape, dtype=complex)
    half = 0.5 * scale
    if angle.size <= _PHASE_CHUNK:
        # no flattening or slicing, about 2 us of a 1D stack's 10 us kick
        _phase_pass(angle, out, factor, half)
        return out
    rows = (angle.shape[0]
            if angle.ndim > 1 and angle[0].size >= _PHASE_CHUNK else 1)
    factors = ([None] * rows if factor is None else
               np.broadcast_to(factor, angle.shape).reshape(rows, -1))
    for row, row_out, row_factor in zip(angle.reshape(rows, -1),
                                        out.reshape(rows, -1), factors):
        for start in range(0, row.size, _PHASE_CHUNK):
            chunk = slice(start, start + _PHASE_CHUNK)
            _phase_pass(row[chunk], row_out[chunk],
                        None if row_factor is None else row_factor[chunk], half)
    return out


def _phase_pass(angle, out, factor, half):
    """One chunk of `_unit_phase`, into `out`; `half` is half the scale."""
    t = np.multiply(angle, half)
    np.tan(t, out=t)
    t2 = np.multiply(t, t)
    r = np.add(t2, 1.0)
    np.divide(2.0, r, out=r)
    phase = out if factor is None else np.empty(out.shape, dtype=complex)
    np.multiply(t, r, out=phase.imag)
    np.multiply(t2, r, out=t2)
    np.subtract(1.0, t2, out=phase.real)
    if factor is not None:
        # out of place, as `phase * factor` is
        np.multiply(phase, factor, out=out)


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


def radial_hat(r: np.ndarray, g: np.ndarray, p: np.ndarray, dim: int) -> np.ndarray:
    """Transform of the sampled radial profile g at the uniformly spaced
    momenta p (a non-uniform p raises DomainError).

    One Simpson quadrature over all of r: a g that jumps is transformed
    piece by piece by the caller (see `tabulate_interaction_transform`).  A
    stack of profiles (rows of g) gives one row of transforms each.  The
    trigonometric kernels go through one `_phase_sums` for all rows; the
    dim-2 J0 kernel is one matrix product with the p x r kernel matrix.
    """
    r = np.asarray(r, dtype=float)
    g = np.asarray(g, dtype=float)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    _check_uniform(p)
    if dim not in _PREFACTOR:
        raise DomainError(f"unsupported dimension {dim}")
    w = _simpson_weights(r)
    if dim == 1:
        out = _phase_sums(r, g * w, p).real
    elif dim == 2:
        from scipy.special import j0

        out = (g * (w * r)) @ j0(np.outer(p, r)).T
    else:
        # j0(pr) r^2 = r sin(pr) / p; at p = 0 it is r^2
        at_zero = p == 0
        out = _phase_sums(r, g * (w * r), p).imag / np.where(at_zero, 1.0, p)
        out[..., at_zero] = np.sum(g * (w * r**2), axis=-1, keepdims=True)
    return _PREFACTOR[dim] * out


def _order_one_kernel(z: np.ndarray, dim: int) -> np.ndarray:
    """The l = 1 kernel K1(z): sin (dim 1), J1 (dim 2), j1 (dim 3).

    Its one use is the boundary term of the l = 1 transform by parts in
    `kernels.kernel_hs_norms`, at a few hundred z = pR.  sin and cos come
    from `_unit_phase`; j1(z) = sin z / z^2 - cos z / z is 0 at z = 0.
    """
    if dim not in _PREFACTOR:
        raise DomainError(f"unsupported dimension {dim}")
    if dim == 2:
        from scipy.special import j1

        return j1(z)
    phase = _unit_phase(z)
    if dim == 1:
        return phase.imag
    inv = np.where(z > 0, 1.0 / np.where(z > 0, z, 1.0), 0.0)
    return (phase.imag * inv - phase.real) * inv


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n - 1) power-basis coefficients of the not-a-knot cubic spline
    through (x, y), highest power first, as `scipy.interpolate.CubicSpline`
    forms them.

    The knot slopes solve CubicSpline's tridiagonal system, with its
    not-a-knot first and last rows, by forward elimination and back
    substitution.  On uniformly spaced x every diagonal entry stays at
    least as large as the entry below it, so LAPACK's gtsv, which
    CubicSpline calls, does not pivot either, and the coefficients are
    CubicSpline's bit for bit.
    DomainError unless x holds at least 4 finite, strictly increasing,
    uniformly spaced points and y only finite values.
    """
    if x.size < 4 or not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
        raise DomainError("a spline table needs at least 4 finite, strictly "
                          f"increasing momenta, got {x.size}")
    _check_uniform(x)
    if not np.all(np.isfinite(y)):
        raise DomainError("a spline table needs finite values")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # rows of the system: lower[i] s[i] + diag[i+1] s[i+1] + upper[i+1] s[i+2]
    diag = np.empty(x.size)
    upper = np.empty(x.size - 1)
    lower = np.empty(x.size - 1)
    rhs = np.empty(x.size)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] * dx[-1] * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # Python floats round every operation as numpy does, and loop faster
    diag, upper, lower, rhs = (a.tolist() for a in (diag, upper, lower, rhs))
    for i in range(x.size - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        rhs[i + 1] -= fact * rhs[i]
    s = rhs
    s[-1] /= diag[-1]
    for i in range(x.size - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


@dataclass(frozen=True)
class RadialTransformTable:
    """Not-a-knot cubic-spline table of a radial transform on [0, p_max]."""

    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_coefficients",
                           _not_a_knot_coefficients(self.p, self.values))

    def __call__(self, p):
        p = np.abs(np.asarray(p, dtype=float))
        if np.any(p > self.p[-1] * (1 + ROUNDOFF_SLACK)):
            raise DomainError(
                f"momentum {p.max():.3g} outside the tabulated range "
                f"[0, {self.p[-1]:.3g}]"
            )
        p = np.clip(p, 0.0, self.p[-1])
        # the interval [p_i, p_{i+1}) holding p, the last one closed
        i = np.clip(np.searchsorted(self.p, p, side="right") - 1,
                    0, self.p.size - 2)
        s = p - self.p[i]
        c3, c2, c1, c0 = self._coefficients[:, i]
        # the power sum in scipy's PPoly order, so that values match
        # CubicSpline bit for bit (Horner's rule rounds differently)
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)

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
    return RadialTransformTable(p=p, values=vals)
