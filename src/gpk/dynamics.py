"""Pseudo-spectral evolution of the GP and modified GP equations on a torus.

Equations (hbar = 1, mass convention -lap):

    i dphi/dt = -lap phi + g |phi|^2 phi                   (kind "gp")
    i dphi/dt = -lap phi + (U_N * |phi|^2) phi             (kind "modified")

where the modified convolution acts in frequency space as the multiplier
(1 - 1/N) uhat(p/N), with uhat the tabulated radial transform of the pair
product V f.  The (N-1)/N pair-counting factor makes the coupling deficit
the leading O(1/N) difference from the limiting equation.

Time stepping is Strang splitting between the exact free propagator
(diagonal in frequency) and the exact pointwise nonlinear phase; the density
spectrum is truncated by the 2/3 rule before the potential is formed, which
keeps every substep unitary and keeps the energy functional variationally
paired with the right-hand side.  The density |phi|^2 is real, so the
potential uses rfftn/irfftn with a half-spectrum multiplier.  Nothing is
cached between calls.  `sobolev_report` takes one fftn of phi and one rfftn
of |phi|^2 per snapshot and reads the Sobolev norms, the kinetic term and
the spectral tail from per-axis moments of |phi_hat|^2 (a contraction one
grid axis at a time, no full-grid table; the energy adds the density
term).  One step loop, `_propagate`, takes one datum and a list of
nonlinearities: it checks and drifts the datum once, broadcasts it into a
stack of fields (leading member axis, one nonlinearity each), and keeps
the snapshots of the leading member only when asked.  `evolve` is its
one-member case with snapshots, and `compare_dynamics` an N sweep with its
final states only.  `evolve_and_compare` steps a trajectory and a sweep
from the same datum in one call when they take the same number of steps;
a member's result is bit-identical whether it steps alone or in a stack,
so sharing changes no bit and pays the per-call overhead of a step once.
Every transform comes from `_transforms`: numpy.fft on 1D grids, and
`scipy.fft`, imported there, on 2D and 3D grids, so importing this module
and stepping a 1D field load numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .budgets import (DEGENERATE_FLOOR, NORM_TOL, RATIO_SLACK, STABILITY_BUDGET,
                      STEP_BUDGET, TAIL_WARN, TRANSFORM_TOL)
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    NumericalBlowupError,
)
from .radial import (
    RadialTransformTable, _unit_phase, tabulate_interaction_transform,
)
from .rates import RateReport, fit_rate

_TAIL_BAND = 0.875  # spectral tail: any |k_i| >= band * k_max
_SOBOLEV_ORDERS = (1, 2, 3, 4)  # the H^n norms a report tracks


@dataclass(frozen=True)
class GridSpec:
    """Periodic box and time-step description; every FFT runs in one thread."""

    dim: int
    box_length: float
    points_per_axis: int
    dt: float
    t_final: float
    # Not a field: perfbench/ records it.  ROADMAP item 2 deletes it together
    # with the getter alias of bench.ExperimentConfig.
    fft_workers = 1

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConfigurationError("dim must be 1, 2 or 3")
        n = self.points_per_axis
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigurationError("points_per_axis must be a power of two >= 16")
        if not all(map(math.isfinite, (self.box_length, self.dt, self.t_final))):
            raise ConfigurationError("box_length, dt and t_final must be finite")
        if self.box_length <= 0:
            raise ConfigurationError("box_length must be positive")
        if self.cell == 0:
            raise ConfigurationError(
                f"box_length = {self.box_length:g} over {n} points per axis "
                f"gives a cell that underflows to 0")
        if self.dt == 0:
            raise ConfigurationError("dt must be non-zero")

    @property
    def dx(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def cell(self) -> float:
        return self.dx**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axes(self) -> list[np.ndarray]:
        n, L = self.points_per_axis, self.box_length
        x = -0.5 * L + self.dx * np.arange(n)
        return [x] * self.dim

    def k_axes(self) -> list[np.ndarray]:
        n = self.points_per_axis
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=self.dx)
        return [k] * self.dim

    def k_squared(self) -> np.ndarray:
        return self._mesh(np.add, self.k_axes()[0] ** 2)

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on per-axis frequency indices."""
        n = self.points_per_axis
        keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3.0
        return self._mesh(np.logical_and, keep)

    def _mesh(self, op, per_axis) -> np.ndarray:
        """Full-grid table op(t_1[i_1], ..., t_d[i_d]) of per-axis tables, one
        for every axis or a list of `dim` (see `_open_axes`)."""
        return functools.reduce(op, self._open_axes(per_axis))

    def _open_axes(self, per_axis, trailing: int = 0) -> list[np.ndarray]:
        """Per-axis tables laid along each grid axis in turn, broadcastable to
        the grid followed by `trailing` further axes.  `per_axis` is one table
        for every axis or a list of `dim` tables, one per axis."""
        d = self.dim
        tables = per_axis if isinstance(per_axis, list) else [per_axis] * d
        return [np.reshape(t, [-1 if a == axis else 1 for a in range(d + trailing)])
                for axis, t in enumerate(tables)]

    def _displacements(self) -> np.ndarray:
        """Min-image displacement per axis index i: 0, dx, ..., -L/2 at the
        Nyquist index n/2, ..., -dx."""
        n = self.points_per_axis
        return self.dx * np.fft.fftfreq(n, d=1.0 / n)


@dataclass(frozen=True)
class WaveFunction:
    """Complex field on the periodic grid with its cached L2 norm."""

    values: np.ndarray
    grid: GridSpec
    l2_norm: float = field(init=False)

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise DomainError("field shape does not match the grid")
        norm = math.sqrt(_mass(self.values) * self.grid.cell)
        object.__setattr__(self, "l2_norm", norm)


def _mass(values: np.ndarray) -> float:
    """Sum of |v|^2 over the whole field."""
    return float(_member_masses(values[None])[0])


def _member_masses(stack: np.ndarray) -> np.ndarray:
    """Sum of |v|^2 per member of a stack (leading axis), as one einsum over
    the real view: no BLAS call, so its cost does not depend on the BLAS
    thread pool."""
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    return np.einsum("ij,ij->i", flat, flat)


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    if a.grid.shape != b.grid.shape:
        raise DomainError("fields live on different grids")
    return math.sqrt(_mass(a.values - b.values) * a.grid.cell)


def gaussian_datum(grid: GridSpec, sigma: float = 1.0) -> WaveFunction:
    """Normalized periodized Gaussian of width sigma, centred at the origin.

    Summing the nearest box images keeps the torus field smooth at the box
    edge, so its spectrum decays like the free-space transform.
    """
    if not sigma > 0:
        raise DomainError(f"Gaussian width sigma = {sigma} must be positive")
    L = grid.box_length
    facs = [sum(np.exp(-((x + m * L) ** 2) / (4 * sigma**2)) for m in (-1, 0, 1))
            for x in grid.axes()]
    vals = grid._mesh(np.multiply, facs)
    vals = vals.astype(complex) * (2 * math.pi * sigma**2) ** (-grid.dim / 4.0)
    vals /= math.sqrt(_mass(vals) * grid.cell)
    return WaveFunction(values=vals, grid=grid)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Self-interaction of the field: contact ("gp") or convolution ("modified").

    For "gp" the coupling is 8 pi a0 when built from a scattering length;
    `gp(0.0)` is the free equation.
    For "modified" the frequency multiplier is (1 - 1/N) uhat(p/N); the table
    must satisfy uhat(0) = 8 pi a0 within quadrature tolerance when it comes
    from a 3D scattering solution.
    """

    kind: str
    coupling: float = 0.0
    N: Optional[int] = None
    uhat: Optional[RadialTransformTable] = None

    def __post_init__(self):
        if self.kind not in ("gp", "modified"):
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "modified":
            if self.N is None or self.N < 1 or self.uhat is None:
                raise ConfigurationError("modified kind needs N >= 1 and a uhat table")

    @staticmethod
    def gp(a0: float):
        return NonlinearitySpec(kind="gp", coupling=8.0 * math.pi * a0)

    @staticmethod
    def modified(sol, N: int, grid: GridSpec):
        """Tabulate uhat from a scattering solution for use on `grid`."""
        p_max = math.sqrt(float(np.max(grid.k_squared()))) + 1e-9
        table = tabulate_interaction_transform(sol, grid.dim, p_max)
        if grid.dim == 3:
            expected = 8.0 * math.pi * sol.a0
            gap = abs(table.at_zero - expected) / max(expected, DEGENERATE_FLOOR)
            if gap > TRANSFORM_TOL:
                raise InvariantViolation(
                    f"uhat(0) = {table.at_zero:.8g} disagrees with 8 pi a0 = "
                    f"{expected:.8g} beyond TRANSFORM_TOL = {TRANSFORM_TOL:g}")
        return NonlinearitySpec(kind="modified", coupling=table.at_zero, N=N, uhat=table)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list


def _transforms(grid: GridSpec, first: int = 0):
    """fft, ifft, rfft and irfft over the `dim` grid axes of an array that
    start at axis `first`; irfft gives back the grid's points.  Each takes
    scipy's `overwrite_x`, with which fft and ifft may reuse their input.

    A 1D grid takes numpy.fft's 1D transforms: fft and ifft then write into
    their input through `out=`, a call skips scipy's n-D axes handling
    (about 10 us, most of a 256-point step) and no scipy module loads.  2D
    and 3D grids take scipy.fft's n-D transforms, which numpy matches
    neither bit for bit nor in speed at 64^3.
    """
    if grid.dim == 1:
        n = grid.points_per_axis

        def in_place(transform):
            return lambda x, overwrite_x=False: transform(
                x, axis=first, out=x if overwrite_x else None)

        return (in_place(np.fft.fft), in_place(np.fft.ifft),
                functools.partial(np.fft.rfft, axis=first),
                lambda x, overwrite_x=False: np.fft.irfft(x, n, axis=first))
    from scipy import fft as sfft

    axes = tuple(range(first, first + grid.dim))
    return (*(functools.partial(f, axes=axes)
              for f in (sfft.fftn, sfft.ifftn, sfft.rfftn)),
            functools.partial(sfft.irfftn, s=grid.shape, axes=axes))


class _Stepper:
    """Strang-splitting machinery for one grid and a stack of nonlinearities,
    one per member of the leading axis: the dt tables, the stacked density
    multipliers and the FFTs over the `dim` axes after the member axis."""

    def __init__(self, grid: GridSpec, nls):
        self.fft, self.ifft, self.rfft, self.irfft = _transforms(grid, first=1)
        k2 = grid.k_squared()
        self.full_drift = _unit_phase(-grid.dt * k2)
        self.half_drift = _unit_phase(-0.5 * grid.dt * k2)
        self.density_multiplier = np.stack(
            [_density_multiplier(grid, nl) for nl in nls])

    def potential(self, values):
        rho_hat = self.rfft(values.real**2 + values.imag**2)
        rho_hat *= self.density_multiplier
        return self.irfft(rho_hat, overwrite_x=True)

    def kick(self, values, dt):
        """values times the exact nonlinear phase e^{-i dt V}, V the density
        potential of values, in a fresh array: `_unit_phase` scales V by -dt
        in its half-angle step and forms the phase and the product in one
        cache-sized pass per chunk of the grid."""
        return _unit_phase(self.potential(values), values, -dt)

    def drift(self, values, phase):
        """The drift of `values`, in place: pass a copy of a field to keep."""
        spectrum = self.fft(values, overwrite_x=True)
        spectrum *= phase
        return self.ifft(spectrum, overwrite_x=True)


def _density_multiplier(grid: GridSpec, nl: NonlinearitySpec) -> np.ndarray:
    """Dealiased density multiplier on the rfftn half spectrum (last axis halved).

    It depends on |k_i| only, so the half spectrum carries all of it.
    """
    half = (..., slice(0, grid.points_per_axis // 2 + 1))
    mask = grid.dealias_mask()[half]
    if nl.kind == "gp":
        return nl.coupling * mask
    kabs = np.sqrt(grid.k_squared()[half])
    return (1.0 - 1.0 / nl.N) * nl.uhat(kabs / nl.N) * mask


def _density_spectrum(psi: WaveFunction) -> np.ndarray:
    """rfftn of the real density |phi|^2."""
    return _transforms(psi.grid)[2](psi.values.real**2 + psi.values.imag**2)


def _power(psi: WaveFunction) -> np.ndarray:
    """|phi_hat|^2 on the full spectrum."""
    phi_hat = _transforms(psi.grid)[0](psi.values)
    return phi_hat.real**2 + phi_hat.imag**2


def _spectral_diagnostics(grid: GridSpec, power: np.ndarray):
    """From the spectrum power = |phi_hat|^2: the H^n norm of phi for each n
    of `_SOBOLEV_ORDERS` (the multiplier is sum_{|alpha| <= n} k^(2 alpha)),
    the kinetic sum of k^2 * power, and the share of the total power in the
    spectral tail (modes with any |k_i| >= _TAIL_BAND * k_max).

    The spectrum is contracted one grid axis at a time against per-axis
    weights (k_i^(2a) for a = 0..4, then the indicators of |k_i| below and
    in the tail band), so no full-grid table is built: S[r_1, ..., r_d] is
    the sum of the spectrum times prod_i weights[r_i, k_i].  `np.einsum`
    does it without a BLAS call, so the values do not depend on the BLAS
    thread pool.
    """
    n, d = grid.points_per_axis, grid.dim
    top = max(_SOBOLEV_ORDERS)
    outer = np.abs(np.fft.fftfreq(n, d=1.0 / n)) >= _TAIL_BAND * (n // 2)
    k2 = grid.k_axes()[0] ** 2
    weights = np.vstack([np.vander(k2, top + 1, increasing=True).T,
                         ~outer, outer])
    s = power
    for _ in range(d):
        s = np.einsum("i...,ri->...r", s, weights)
    moments = s[(slice(0, top + 1),) * d]
    order = np.indices(moments.shape).sum(axis=0)
    scale = grid.cell / power.size
    h_norms = {m: math.sqrt(float(np.sum(moments[order <= m])) * scale)
               for m in _SOBOLEV_ORDERS}
    kinetic = sum(float(s[tuple(unit)]) for unit in np.eye(d, dtype=int))
    # the tail as a sum of positive slabs (axes before i below the band,
    # axis i in it, later axes free), never as the total minus the modes
    # below it, so a tail of 1e-30 of the total keeps its own accuracy
    inner_row, outer_row = top + 1, top + 2
    tail = sum(float(s[(inner_row,) * i + (outer_row,) + (0,) * (d - 1 - i)])
               for i in range(d))
    total = float(s[(0,) * d])
    return h_norms, kinetic, tail / total if total > 0 else 0.0


def _energy(grid, multiplier, kinetic, rho_hat) -> float:
    """GP energy from the k^2 sum of |phi_hat|^2 and the density spectrum,
    with `multiplier` the nonlinearity's `_density_multiplier`."""
    dens = multiplier * (rho_hat.real**2 + rho_hat.imag**2)
    # the half spectrum holds one mode of each +-k pair on the last axis,
    # except on its zero and Nyquist planes, which pair with themselves
    full = 2.0 * float(np.sum(dens)) - float(np.sum(dens[..., 0])) \
        - float(np.sum(dens[..., -1]))
    return (kinetic + 0.5 * full) * grid.cell / grid.points_per_axis**grid.dim


def time_steps(grid: GridSpec) -> int:
    """The number of Strang steps to grid.t_final.  Refuses a dt past the
    stability budget, a t_final of the other sign than dt, a step count too
    large for a float or past STEP_BUDGET and a t_final that is not a whole
    number of dt steps."""
    # k_max^2 is dim times the largest k_i^2 of one axis: no full-grid table
    k2_max = grid.dim * float(np.max(grid.k_axes()[0] ** 2))
    if abs(grid.dt) * k2_max > STABILITY_BUDGET:
        raise ConfigurationError(
            f"|dt| * k_max^2 = {abs(grid.dt) * k2_max:.3g} exceeds "
            f"the stability budget STABILITY_BUDGET = {STABILITY_BUDGET:.4g}")
    n_steps_f = grid.t_final / grid.dt
    if n_steps_f < 0:
        raise ConfigurationError(f"t_final = {grid.t_final:g} and dt = "
                                 f"{grid.dt:g} have opposite signs")
    if not math.isfinite(n_steps_f):
        raise ConfigurationError(f"t_final = {grid.t_final:g} over dt = "
                                 f"{grid.dt:g} is not a finite number of steps")
    if n_steps_f > STEP_BUDGET:
        raise ConfigurationError(
            f"t_final = {grid.t_final:g} over dt = {grid.dt:g} asks for "
            f"{n_steps_f:.3g} steps, past the step budget STEP_BUDGET = "
            f"{STEP_BUDGET}")
    n_steps = int(round(n_steps_f))
    if abs(n_steps_f - n_steps) > RATIO_SLACK:
        raise ConfigurationError(
            "t_final must be a whole number of dt steps (RATIO_SLACK)")
    return n_steps


def evolve(
    psi0: WaveFunction,
    nl: NonlinearitySpec,
    grid: Optional[GridSpec] = None,
    snapshot_stride: Optional[int] = None,
) -> Trajectory:
    """Propagate psi0 to grid.t_final, returning snapshots every `stride` steps.

    Mass is conserved to NORM_TOL (each substep is exactly unitary); a NaN in
    the field raises NumericalBlowupError carrying the last good time.
    """
    return _propagate(psi0, [nl], [""], grid or psi0.grid, snapshot_stride)[0]


def _propagate(psi0: WaveFunction, nls, labels, grid: GridSpec, stride=None,
               tracked=True):
    """Strang steps of psi0 to grid.t_final under each of `nls`, member i of a
    stack (leading axis) under nls[i] and named by labels[i] in an error.
    Returns the leading member's Trajectory (None unless `tracked`) and the
    final stack (after zero steps, a read-only broadcast of psi0).  The
    trajectory holds a copy of psi0, a snapshot every `stride` steps
    (default: 16 per run) and the final state, a view of the final stack.

    The datum is checked once (on the grid, finite, unit norm), drifted once
    and broadcast into the stack by the first kick; every member is checked
    after every step by the norm monitor.
    """

    def named(i, message):
        return f"{message} ({labels[i]})" if labels[i] else message

    values, cell = psi0.values, grid.cell
    if values.shape != grid.shape:
        raise DomainError("initial datum does not live on the requested grid")
    if not np.all(np.isfinite(values)):
        raise NumericalBlowupError("initial datum contains non-finite values", 0.0)
    if abs(math.sqrt(_mass(values) * cell) - 1.0) > NORM_TOL:
        raise ConfigurationError(
            f"initial datum must have unit L2 norm (NORM_TOL = {NORM_TOL:g})")
    n_steps = time_steps(grid)
    if stride is not None and stride < 1:
        raise ConfigurationError(f"snapshot stride {stride} must be >= 1")
    stride = stride or max(1, n_steps // 16)
    stepper = _Stepper(grid, nls)
    times, kept = [0.0], [values.copy()] if tracked else []
    vals = np.broadcast_to(values, (len(nls), *grid.shape))  # read-only
    if n_steps:
        # drift-kick-drift with merged interior drifts: the running state
        # between snapshots carries an extra half drift (unitary, so the norm
        # monitor is unaffected), undone only for snapshot copies.  A drift
        # overwrites the kick's fresh output; the datum and the running
        # state it un-drifts for a snapshot pass it copies.
        vals = np.broadcast_to(
            stepper.drift(values[None].copy(), stepper.half_drift), vals.shape)
    for step in range(1, n_steps + 1):
        vals = stepper.kick(vals, grid.dt)
        last_step = step == n_steps
        vals = stepper.drift(
            vals, stepper.half_drift if last_step else stepper.full_drift
        )
        norms = np.sqrt(_member_masses(vals) * cell).tolist()
        for i, norm in enumerate(norms):
            if not math.isfinite(norm):
                raise NumericalBlowupError(
                    named(i, "non-finite field detected"), times[-1])
            if abs(norm - 1.0) > NORM_TOL:
                raise InvariantViolation(named(
                    i, f"L2 norm drifted to {norm!r} at t = {step * grid.dt}, "
                    f"beyond NORM_TOL = {NORM_TOL:g}"))
        if tracked and (last_step or step % stride == 0):
            times.append(step * grid.dt)
            kept.append(vals[0] if last_step else stepper.drift(
                vals[:1].copy(), np.conj(stepper.half_drift))[0])
    if not tracked:
        return None, vals
    return Trajectory(np.array(times),
                      [WaveFunction(values=v, grid=grid) for v in kept]), vals


def gp_energy(psi: WaveFunction, nl: NonlinearitySpec) -> float:
    """Conserved energy: kinetic term plus the nonlinearity-matched interaction."""
    _, kinetic, _ = _spectral_diagnostics(psi.grid, _power(psi))
    rho_hat = _density_spectrum(psi)
    return _energy(psi.grid, _density_multiplier(psi.grid, nl), kinetic,
                   rho_hat)


def tail_warnings(times, tail_mass) -> list:
    """Aliasing warnings for the snapshots whose spectral tail mass is too large."""
    return [
        f"t = {t:g}: spectral tail mass {tail:.3e} above {TAIL_WARN:g}; "
        "Sobolev values may be aliased"
        for t, tail in zip(times, tail_mass)
        if tail > TAIL_WARN
    ]


@dataclass(frozen=True)
class SobolevReport:
    times: np.ndarray
    h_norms: dict
    energy: np.ndarray
    tail_mass: np.ndarray


def sobolev_report(traj: Trajectory, nl: NonlinearitySpec) -> SobolevReport:
    """Norm, energy and spectral tail trajectories; `tail_warnings` reads
    the aliasing warnings from the tail.

    Each snapshot costs one fftn of phi and one rfftn of |phi|^2; the tail
    mass, the Sobolev norms and the energy all come from those two spectra,
    the first through `_spectral_diagnostics`.  The density multiplier is
    built once per report; the snapshots share one grid.
    """
    h_norms = {n: [] for n in _SOBOLEV_ORDERS}
    energies, tails = [], []
    grid = traj.states[0].grid
    multiplier = _density_multiplier(grid, nl)
    for state in traj.states:
        norms, kinetic, tail = _spectral_diagnostics(grid, _power(state))
        for n in _SOBOLEV_ORDERS:
            h_norms[n].append(norms[n])
        tails.append(tail)
        rho_hat = _density_spectrum(state)
        energies.append(_energy(grid, multiplier, kinetic, rho_hat))
    return SobolevReport(
        times=traj.times,
        h_norms={n: np.array(v) for n, v in h_norms.items()},
        energy=np.array(energies),
        tail_mass=np.array(tails),
    )


def sweep_values(N_list) -> list:
    """The N of a sweep as ints: at least 4 distinct, geometrically spaced
    values, else a ConfigurationError."""
    N_list = [int(N) for N in N_list]
    if len(N_list) < 4:
        raise ConfigurationError(f"need at least 4 values of N, got {N_list}")
    ratios = [N_list[i + 1] / N_list[i] for i in range(len(N_list) - 1)]
    if ratios[0] == 1 or any(abs(r - ratios[0]) > RATIO_SLACK * ratios[0]
                             for r in ratios):
        raise ConfigurationError("N values must be distinct and geometrically "
                                 f"spaced (RATIO_SLACK), got {N_list}")
    return N_list


def sweep_nonlinearities(a0: Optional[float], uhat: RadialTransformTable,
                          N_list) -> list:
    """The members of an N sweep: the limiting GP (contact coupling 8 pi a0,
    or uhat(0) without a0), then the modified equation for each N of
    `sweep_values(N_list)`."""
    N_list = sweep_values(N_list)
    g = 8.0 * math.pi * a0 if a0 is not None else uhat.at_zero
    return [NonlinearitySpec(kind="gp", coupling=g)] + [
        NonlinearitySpec(kind="modified", coupling=uhat.at_zero, N=N,
                         uhat=uhat) for N in N_list]


def evolve_and_compare(psi0: WaveFunction, nl, sweep, t_star, stride,
                       names) -> tuple:
    """`evolve(psi0, nl, snapshot_stride=stride)` (None without `nl`) and the
    rate of the `sweep` members (`sweep_nonlinearities`) at t_star, as
    `compare_dynamics` reports it (None without a sweep).

    When psi0.grid.t_final and t_star are the same number of dt steps, both
    step in one `_propagate` call, `nl` leading the stack.  A member steps
    bit-identically alone or in a stack, so sharing changes no result and
    pays the per-call overhead of a step once.  A failing member is named
    after names[0] (the trajectory) or names[1] (the sweep).
    """
    grid = psi0.grid
    sweep_grid = replace(grid, t_final=t_star) if sweep else None
    labels = [f"{names[1]} {f'N = {s.N}' if s.N else 'limiting GP'}".strip()
              for s in sweep]
    traj = rate = None
    if nl is not None and sweep and time_steps(grid) == time_steps(sweep_grid):
        traj, final = _propagate(psi0, [nl, *sweep], [names[0], *labels], grid,
                                 stride)
    else:
        if nl is not None:
            traj, _ = _propagate(psi0, [nl], names[:1], grid, stride)
        if sweep:
            _, final = _propagate(psi0, sweep, labels, sweep_grid, tracked=False)
    if sweep:
        ref, *finals = final[-len(sweep):]
        rate = fit_rate([s.N for s in sweep[1:]],
                        [math.sqrt(_mass(v - ref) * grid.cell) for v in finals])
    return traj, rate


def compare_dynamics(
    psi0: WaveFunction,
    a0: Optional[float],
    uhat: RadialTransformTable,
    N_list,
    t_star: float,
) -> RateReport:
    """L2 distance between modified and limiting dynamics at t_star, per N.

    The expected log-log slope against N is -1 (coupling deficit of the
    pair-counting factor).  At t_star = 0, or with every distance at
    round-off, `fit_rate` reports a NaN slope.
    """
    sweep = sweep_nonlinearities(a0, uhat, N_list)
    return evolve_and_compare(psi0, None, sweep, t_star, None, ("", ""))[1]
