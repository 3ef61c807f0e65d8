"""Zero-energy radial scattering: profiles f, w = 1 - f and the scattering length.

The 3D zero-energy problem (-lap + V/2) f = 0, f -> 1 at infinity, reduces
exactly to the 1D problem u'' = (V/2) u with u = r f, u(0) = 0.  We integrate
u with a fixed-step classical RK4 scheme on a uniform radial grid, rescale so
that u(r) -> r - a0, and extract a0 both from u/u' at the boundary and from a
least-squares fit of the outer 20% of the grid (the fit is canonical).

Every Simpson sum of gpk goes through `_simpson_weights`, defined here: the
volume-integral scattering length, the radial transforms of `gpk.radial` and
the origin-cell average of the lattice profile in `gpk.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .budgets import ODE_DEFECT_BUDGET, RATIO_SLACK, ROUNDOFF_SLACK, W_BOUND_SLACK
from .errors import BudgetError, ConfigurationError, DomainError, InvariantViolation

# Fractional inset used when sampling V at step endpoints, so that a jump
# sitting exactly on a grid node is always read from the correct side.
_ENDPOINT_INSET = 1e-9

# Tail fraction of the grid used for the least-squares a0 fit.
_TAIL_FRACTION = 0.2

# Radii with less than this fraction of the integral of r^2 V beyond them
# are treated as outside the support (decay-class truncation rule).
_SUPPORT_MASS_CUT = 1e-10


@dataclass(frozen=True)
class RadialPotential:
    """Spherically symmetric, non-negative interaction profile.

    `profile` evaluates V(r) pointwise; `breakpoints` lists radii where V is
    discontinuous (the solver aligns its grid with them).  `spec` names the
    constructor and its arguments (the family and its parameters, or the
    radius/value table); `from_spec` rebuilds V from it exactly.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    r_support: float
    breakpoints: tuple[float, ...] = ()
    spec: dict = field(default_factory=dict)

    def __call__(self, r):
        return self.profile(np.asarray(r, dtype=float))

    @staticmethod
    def zero() -> "RadialPotential":
        return RadialPotential(
            profile=lambda r: np.zeros_like(r),
            r_support=0.0,
            spec={"family": "zero"},
        )

    @staticmethod
    def square_well(height: float, radius: float) -> "RadialPotential":
        """V(r) = height for r < radius, 0 beyond."""
        if height < 0 or radius <= 0:
            raise DomainError("square well needs height >= 0 and radius > 0")

        def v(r):
            return np.where(r < radius, height, 0.0)

        return RadialPotential(
            profile=v,
            r_support=radius,
            breakpoints=(radius,),
            spec={"family": "square-well", "height": height, "radius": radius},
        )

    @staticmethod
    def gaussian(amplitude: float, width: float = 1.0) -> "RadialPotential":
        """V(r) = amplitude * exp(-(r/width)^2)."""
        if amplitude < 0 or width <= 0:
            raise DomainError("gaussian needs amplitude >= 0 and width > 0")

        def raw(r):
            return amplitude * np.exp(-((r / width) ** 2))

        support = _mass_support(raw, guess=8.0 * width)

        # treated as zero beyond the mass-rule support radius
        def v(r):
            return np.where(r <= support, raw(r), 0.0)

        return RadialPotential(
            profile=v,
            r_support=support,
            spec={"family": "gaussian", "amplitude": amplitude, "width": width},
        )

    @staticmethod
    def from_table(r: np.ndarray, v: np.ndarray) -> "RadialPotential":
        """Linear-interpolated potential from a two-column (radius, value) table."""
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise DomainError("potential table needs matching 1D radius/value columns")
        if np.any(np.diff(r) <= 0):
            raise DomainError("potential table radii must be strictly increasing")
        if np.min(v) < 0:
            raise DomainError("potential samples must be non-negative")

        def raw(x):
            return np.interp(x, r, v, left=v[0], right=0.0)

        support = min(_mass_support(raw, guess=r[-1]), float(r[-1]))

        def prof(x):
            return np.where(x <= support, raw(x), 0.0)

        return RadialPotential(
            profile=prof,
            r_support=support,
            spec={"family": "table", "r": r.tolist(), "v": v.tolist()},
        )

    @staticmethod
    def from_spec(spec: dict, where: str = "potential spec") -> "RadialPotential":
        """The inverse of `spec`: V from a family name and its parameters, or
        from the r/v table.  Parameters may be numbers or number strings;
        those left out take the family's defaults.  A spec that is not a
        mapping, an unknown family, a parameter the family does not take or
        a value that is not a number (a list, say, where the family takes
        one number) raises ConfigurationError naming `where`."""
        if not isinstance(spec, dict):
            raise ConfigurationError(f"{where}: the potential spec {spec!r} is "
                                     f"not a mapping of a family and its "
                                     f"parameters")
        params = dict(spec)
        name = str(params.pop("family", ""))
        family = potential_family(name)
        if family is None:
            raise ConfigurationError(
                f"{where}: unknown potential family {name!r}; expected one of "
                f"{', '.join(_FAMILIES)}")
        build, defaults = _FAMILIES[family]
        for key in params:
            if key not in defaults:
                raise ConfigurationError(
                    f"{where}: unknown parameter {key!r} for family {family!r} "
                    f"(expected {', '.join(defaults) or 'none'})")
        values = {}
        for key, default in defaults.items():
            values[key] = as_numbers(params.get(key, default), f"{where}: {key}")
            # a parameter with a default is one number; a table column is many
            if default is not None and not isinstance(values[key], float):
                raise ConfigurationError(
                    f"{where}: {key} = {params[key]!r} is not a number")
        return build(**values)


# The one table of potential families: constructor and parameters with their
# defaults (None: required).
_FAMILIES = {
    "square-well": (RadialPotential.square_well, {"height": 8.0, "radius": 1.0}),
    "gaussian": (RadialPotential.gaussian, {"amplitude": 1.0, "width": 1.0}),
    "zero": (RadialPotential.zero, {}),
    "table": (RadialPotential.from_table, {"r": None, "v": None}),
}


def potential_family(name: str):
    """The family a name spells, or None."""
    name = name.strip().lower()
    return name if name in _FAMILIES else None


def family_parameters(family: str) -> list:
    """The parameter names of a family that `potential_family` returned."""
    return list(_FAMILIES[family][1])


def as_numbers(value, what: str):
    """A float, or an array for a table column, from real numbers or
    strings; complex values are refused, not cast to their real part."""
    try:
        if np.iscomplexobj(value):
            raise ConfigurationError(f"{what} holds complex values, not real "
                                     "numbers")
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} = {value!r} is not a number") from None
    return float(out) if out.ndim == 0 else out


def _mass_support(v, guess: float) -> float:
    """Radius enclosing all but 1e-10 of the integral of r^2 V(r)."""
    r = np.linspace(0.0, 4 * guess, 40001)
    integrand = v(r) * r**2
    cum = np.cumsum(integrand)
    total = cum[-1]
    if total <= 0:
        return 0.0
    idx = int(np.searchsorted(cum, (1.0 - _SUPPORT_MASS_CUT) * total))
    return float(r[min(idx, r.size - 1)])


@dataclass(frozen=True)
class ScatteringSolution:
    """Solved radial profile and the extracted scattering length.

    `f` and `dw_dr` sample the grid `r_grid` = linspace(0, r_max, f.size);
    it and w = 1 - f are derived on first use.  `a0` is the canonical
    (tail-fit) value; `a0_derivative` is the boundary extraction r - u/u' at
    r_max; `ode_residual` is the max per-step defect of u'' = (V/2) u in
    integrated form (`defect` holds one value per step, at its midpoint).
    """

    f: np.ndarray
    dw_dr: np.ndarray
    defect: np.ndarray
    r_max: float
    a0: float
    a0_derivative: float
    ode_residual: float
    tail_fit_error: float
    potential: RadialPotential

    @cached_property
    def r_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.f.size)

    @cached_property
    def w(self) -> np.ndarray:
        return 1.0 - self.f


@dataclass(frozen=True)
class BoundCertificate:
    """Empirical constants for the decay bounds of w and its derivative."""

    c1_hat: float          # smallest C with w(r) <= C / (r + 1)
    c2_hat: float          # smallest C with |w'(r)| <= C / (r^2 + 1)
    w_within_unit: bool    # 0 <= w <= 1 at every grid point, to ROUNDOFF_SLACK


def _align_points(n_points: int, r_max: float, breakpoints) -> int:
    """Smallest n >= n_points putting every breakpoint on a grid node."""
    if not breakpoints:
        return n_points
    for n in range(n_points, n_points + 4096):
        h = r_max / n
        if all(abs(b / h - round(b / h)) < RATIO_SLACK for b in breakpoints):
            return n
    return n_points


def _step_defect(u, up, h, g_lo, g_mid, g_hi):
    """Per-step integrated equation defect, normalized by the step size.

    On each step, u'(b) - u'(a) must equal the integral of g u; the integral
    is estimated by Simpson with a Hermite midpoint value.  The measure is
    O(h^4) like the solver and, unlike a second-difference stencil, does not
    amplify round-off by 1/h^2 or straddle potential breakpoints.
    """
    u_mid = 0.5 * (u[:-1] + u[1:]) + (h / 8.0) * (up[:-1] - up[1:])
    quad = (h / 6.0) * (g_lo * u[:-1] + 4.0 * g_mid * u_mid + g_hi * u[1:])
    return (up[1:] - up[:-1] - quad) / h


def _rk4_sweep(g_lo, g_mid, g_hi, h):
    """(u, u') at every node of the RK4 recurrence for u'' = g u from
    u(0) = 0, u'(0) = 1, with g sampled at the start, middle and end of each
    step.  It runs on Python floats, which round every operation as numpy
    scalars do and loop about three times faster."""
    half, sixth = 0.5 * h, h / 6.0
    u, up = [0.0], [1.0]
    uj, vj = 0.0, 1.0
    for ga, gm, gb in zip(g_lo.tolist(), g_mid.tolist(), g_hi.tolist()):
        k1u, k1v = vj, ga * uj
        k2u, k2v = vj + half * k1v, gm * (uj + half * k1u)
        k3u, k3v = vj + half * k2v, gm * (uj + half * k2u)
        k4u, k4v = vj + h * k3v, gb * (uj + h * k3u)
        uj = uj + sixth * (k1u + 2 * k2u + 2 * k3u + k4u)
        vj = vj + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        u.append(uj)
        up.append(vj)
    return np.array(u), np.array(up)


def solve_zero_energy(
    V: RadialPotential, r_max: float | None, n_points: int
) -> ScatteringSolution:
    """Solve u'' = (V/2) u, u(0) = 0, and extract the scattering length.

    An r_max of None takes max(5, 5 r_support), the least box the support
    check admits.  Raises ConfigurationError for a non-positive or too-small
    box, a grid below 1000 points or a radial step wider than the potential's
    support, BudgetError when the measured equation defect exceeds
    ODE_DEFECT_BUDGET, and InvariantViolation when w leaves [0, 1] by more
    than W_BOUND_SLACK.
    """
    if r_max is None:
        r_max = max(5.0, 5 * V.r_support)
    if r_max <= 0:
        raise ConfigurationError("r_max must be positive")
    if V.r_support > 0 and r_max < 5 * V.r_support:
        raise ConfigurationError(
            f"r_max = {r_max} is below 5 * r_support = {5 * V.r_support}"
        )
    if n_points < 1000:
        raise ConfigurationError("need at least 1000 radial points")

    n = _align_points(n_points, r_max, V.breakpoints)
    h = r_max / n
    if V.r_support > 0 and h > V.r_support:
        # one step would span the whole well: the defect budget cannot see it
        raise ConfigurationError(
            f"radial step rmax / points = {h:.3g} exceeds r_support = "
            f"{V.r_support}: raise points or lower rmax"
        )
    r = np.linspace(0.0, r_max, n + 1)

    # one-sided samples of g = V/2 inside each step, so node-aligned jumps
    # never contaminate a stage evaluation
    eps = _ENDPOINT_INSET * h
    g_lo = 0.5 * V(r[:-1] + eps)
    g_mid = 0.5 * V(r[:-1] + 0.5 * h)
    g_hi = 0.5 * V(r[1:] - eps)

    u, up = _rk4_sweep(g_lo, g_mid, g_hi, h)

    # outer-20% least-squares fit u ~ c (r - a0); canonical a0
    tail = r >= (1.0 - _TAIL_FRACTION) * r_max
    A = np.stack([r[tail], np.ones(np.count_nonzero(tail))], axis=1)
    coef, *_ = np.linalg.lstsq(A, u[tail], rcond=None)
    c_slope, intercept = coef
    if c_slope <= 0:
        raise InvariantViolation("asymptotic slope of u is not positive")
    a0_fit = -intercept / c_slope
    a0_deriv = r_max - u[-1] / up[-1]

    u /= c_slope
    up /= c_slope

    f = np.empty(n + 1)
    f[1:] = u[1:] / r[1:]
    f[0] = up[0]

    # w' = -f'; f' = (u' r - u)/r^2, with f'(0) = 0 for V smooth at 0
    dw = np.empty(n + 1)
    dw[1:] = -(up[1:] * r[1:] - u[1:]) / r[1:] ** 2
    dw[0] = 0.0

    defect = _step_defect(u, up, h, g_lo, g_mid, g_hi)
    ode_residual = float(np.max(np.abs(defect)))
    if ode_residual > ODE_DEFECT_BUDGET:
        raise BudgetError(
            f"equation defect {ode_residual:.3e} exceeds ODE_DEFECT_BUDGET = "
            f"{ODE_DEFECT_BUDGET:g}; refine the radial grid"
        )

    tail_fit_error = float(np.max(np.abs(f[tail] - (1.0 - a0_fit / r[tail]))))

    sol = ScatteringSolution(
        f=f, dw_dr=dw, defect=defect, r_max=float(r_max), a0=float(a0_fit),
        a0_derivative=float(a0_deriv), ode_residual=ode_residual,
        tail_fit_error=tail_fit_error, potential=V)
    if not _within_unit(sol.w, W_BOUND_SLACK):
        raise InvariantViolation(
            f"correlation profile w left [0, 1] by more than W_BOUND_SLACK = "
            f"{W_BOUND_SLACK:g}")
    return sol


def scattering_length_integral(sol: ScatteringSolution) -> float:
    """Scattering length from the volume integral (1/8pi) int V f dx.

    Reduces to (1/2) int r^2 V(r) f(r) dr; integrated piecewise between the
    potential's breakpoints so jumps do not degrade the quadrature.
    """
    r, f = sol.r_grid, sol.f
    total = 0.0
    for lo, hi, v in potential_pieces(sol.potential, r):
        x = r[lo : hi + 1]
        total += _simpson_weights(x) @ (x**2 * v * f[lo : hi + 1])
    return 0.5 * float(total)


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


def potential_pieces(V: RadialPotential, r: np.ndarray):
    """(lo, hi, V on r[lo:hi+1]) for each piece of the uniform grid r between
    V's breakpoints.  The end samples are taken just inside the piece, so a
    jump on a shared node is read from the piece's own side."""
    h = r[1] - r[0]
    eps = _ENDPOINT_INSET * h
    inner = [int(round(b / h)) for b in V.breakpoints]
    edges = [0, *(j for j in inner if 0 < j < r.size - 1), r.size - 1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = np.array(V(r[lo : hi + 1]))  # a copy: the ends are overwritten
        v[0] = float(V(np.array([r[lo] + eps]))[0])
        v[-1] = float(V(np.array([r[hi] - eps]))[0])
        yield lo, hi, v


def verify_w_bounds(sol: ScatteringSolution) -> BoundCertificate:
    """Smallest decay constants for w <= C1/(r+1) and |w'| <= C2/(r^2+1)."""
    r, w, dw = sol.r_grid, sol.w, sol.dw_dr
    c1 = float(np.max(w * (r + 1.0)))
    c2 = float(np.max(np.abs(dw) * (r**2 + 1.0)))
    return BoundCertificate(c1_hat=max(c1, 0.0), c2_hat=max(c2, 0.0),
                            w_within_unit=_within_unit(w, ROUNDOFF_SLACK))


def _within_unit(w: np.ndarray, slack: float) -> bool:
    """0 <= w <= 1 at every sample, to `slack`; False for a NaN sample."""
    return bool(np.min(w) >= -slack and np.max(w) <= 1.0 + slack)


def scaled_profile(sol: ScatteringSolution, N: int, r, deriv: bool = False):
    """w(N r), or w'(N r) with `deriv`: the solved samples interpolated out to
    the end of the radial grid, the closed form a0/s (or -a0/s^2) beyond it.

    Outside the support w = a0/s exactly, so the cut sits at the last solved
    sample, where the profile and its closed form still agree.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be non-negative")
    s = N * r
    inside = s <= sol.r_max
    out = np.empty_like(s)
    out[inside] = np.interp(s[inside], sol.r_grid, sol.dw_dr if deriv else sol.w)
    ss = s[~inside]
    out[~inside] = -sol.a0 / ss**2 if deriv else sol.a0 / ss
    return out if out.ndim else float(out)


def equation_defect_residual(sol: ScatteringSolution, N: int) -> float:
    """Max of |N^3 [(-lap + V/2)(1 - w)](N r)| over the radial grid.

    Written in the scaled variable this is N^3 max |defect(s)| / s, with the
    per-step defect attributed to step midpoints: the residual of the
    identity that removes the off-diagonal pair terms from the fluctuation
    generator.  Scales as exactly N^3 times a fixed profile defect.
    """
    h = sol.r_grid[1] - sol.r_grid[0]
    r_mid = sol.r_grid[:-1] + 0.5 * h
    return float(N**3 * np.max(np.abs(sol.defect) / r_mid))
