import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft as sfft

from gpk import dynamics
from gpk.dynamics import (
    GridSpec,
    NonlinearitySpec,
    Trajectory,
    WaveFunction,
    _Stepper,
    _density_multiplier,
    _mass,
    _spectral_diagnostics,
    _unit_phase,
    compare_dynamics,
    evolve,
    evolve_and_compare,
    gaussian_datum,
    gp_energy,
    l2_distance,
    sobolev_report,
    sweep_nonlinearities,
    tail_warnings,
)
from gpk.errors import ConfigurationError, DomainError, NumericalBlowupError
from gpk.scattering import RadialPotential, solve_zero_energy


def grid1d(n=256, L=16.0, dt=1e-3, T=0.5):
    return GridSpec(dim=1, box_length=L, points_per_axis=n, dt=dt, t_final=T)


@pytest.fixture(scope="module")
def square_sol():
    V = RadialPotential.square_well(8.0, 1.0)
    return solve_zero_energy(V, 5.0, 4000)


def free_gaussian_oracle(grid, t, sigma=1.0):
    """Closed-form free evolution of the centred Gaussian datum.

    Per axis: (2 pi s^2)^(-1/4) (s^2/(s^2+it))^(1/2) exp(-x^2/(4(s^2+it))),
    periodized over the nearest box images to match `gaussian_datum`.
    """
    g = sigma**2 + 1j * t
    pref = (2 * math.pi * sigma**2) ** (-0.25) * np.sqrt(sigma**2 / g)
    L = grid.box_length
    facs = [pref * sum(np.exp(-((x + m * L) ** 2) / (4 * g)) for m in (-1, 0, 1))
            for x in grid.axes()]
    return WaveFunction(values=grid._mesh(np.multiply, facs), grid=grid)


def constant_datum(grid):
    """The uniform field of unit L2 norm, L^(-d/2)."""
    vals = np.full(grid.shape, grid.box_length ** (-grid.dim / 2.0), dtype=complex)
    return WaveFunction(values=vals, grid=grid)


def plane_wave_datum(grid, mode=1):
    wave = 2 * math.pi * mode / grid.box_length * grid.axes()[0]
    phase = np.zeros(grid.shape) + grid._open_axes(wave)[0]
    vals = np.exp(1j * phase) * grid.box_length ** (-grid.dim / 2.0)
    return WaveFunction(values=vals, grid=grid)


def gp_rhs(psi, nl):
    """Right-hand side of i dphi/dt: -lap phi + W[phi] phi, with the density
    potential W[phi] of the stepper."""
    minus_lap = sfft.ifftn(sfft.fftn(psi.values) * psi.grid.k_squared())
    potential = _Stepper(psi.grid, [nl]).potential(psi.values[None])[0]
    return minus_lap + potential * psi.values


def one_state_report(psi, nl=None):
    """`sobolev_report` of the trajectory that holds psi alone."""
    return sobolev_report(Trajectory(np.zeros(1), [psi]),
                          nl or NonlinearitySpec.gp(a0=0.0))


def test_free_evolution_matches_gaussian_oracle_1d():
    grid = grid1d(n=512, dt=5e-4, T=0.4)
    psi0 = gaussian_datum(grid, sigma=1.0)
    traj = evolve(psi0, NonlinearitySpec.gp(a0=0.0), grid)
    oracle = free_gaussian_oracle(grid, 0.4, sigma=1.0)
    assert l2_distance(traj.states[-1], oracle) < 1e-6


def test_free_evolution_matches_gaussian_oracle_3d():
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=32, dt=1e-3, t_final=0.2)
    psi0 = gaussian_datum(grid, sigma=1.0)
    traj = evolve(psi0, NonlinearitySpec.gp(a0=0.0), grid)
    oracle = free_gaussian_oracle(grid, 0.2, sigma=1.0)
    assert l2_distance(traj.states[-1], oracle) < 1e-6


def test_constant_datum_accumulates_pure_phase():
    # lap phi = 0, so the solution is exp(-i g |phi|^2 t) phi with
    # |phi|^2 = 1/L^d
    grid = grid1d(n=64, dt=1e-3, T=0.25)
    a0 = 0.3
    psi0 = constant_datum(grid)
    traj = evolve(psi0, NonlinearitySpec.gp(a0=a0), grid)
    g = 8 * math.pi * a0
    expected = psi0.values * np.exp(-1j * g / grid.box_length * 0.25)
    assert np.max(np.abs(traj.states[-1].values - expected)) < 1e-12


def test_mass_conservation():
    grid = grid1d(n=256, dt=1e-3, T=1.0)
    psi0 = gaussian_datum(grid, sigma=1.2)
    traj = evolve(psi0, NonlinearitySpec.gp(a0=0.2), grid)
    for state in traj.states:
        assert abs(state.l2_norm - 1.0) < 1e-10


def test_energy_value_constant_datum():
    grid = grid1d(n=64, dt=1e-3, T=0.0)
    a0 = 0.15
    psi = constant_datum(grid)
    # gradient term vanishes; energy = 4 pi a0 / L^d
    expected = 4 * math.pi * a0 / grid.box_length
    assert abs(gp_energy(psi, NonlinearitySpec.gp(a0=a0)) - expected) < 1e-12


def test_energy_conservation_and_dt_refinement():
    base = grid1d(n=256, dt=5e-4, T=0.5)
    psi0 = gaussian_datum(base, sigma=1.0)
    nl = NonlinearitySpec.gp(a0=0.05)

    def drift(grid):
        traj = evolve(WaveFunction(values=psi0.values, grid=grid), nl, grid,
                      snapshot_stride=max(1, int(round(grid.t_final / grid.dt)) // 8))
        e = [gp_energy(s, nl) for s in traj.states]
        return max(abs(x - e[0]) for x in e[1:]) / abs(e[0])

    coarse = drift(base)
    fine = drift(replace(base, dt=2.5e-4))
    assert coarse < 1e-8
    assert coarse / fine >= 3.9  # second-order splitting: asymptotic factor 4


def test_a_gaussian_whose_normalisation_underflows_is_refused():
    # sigma**2 is finite, but every sample squared underflows to 0
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    with pytest.raises(DomainError, match="unit-norm"):
        gaussian_datum(grid, sigma=1e150)


def test_time_reversal_returns_datum():
    grid = grid1d(n=256, dt=1e-3, T=0.5)
    psi0 = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.gp(a0=0.25)
    fwd = evolve(psi0, nl, grid)
    back_grid = replace(grid, dt=-grid.dt, t_final=-grid.t_final)
    back = evolve(
        WaveFunction(values=fwd.states[-1].values, grid=back_grid), nl, back_grid
    )
    assert l2_distance(back.states[-1], psi0) < 1e-8


def test_variational_consistency_rhs_vs_energy_gradient():
    # entrywise: dE/d(Re phi_j) = 2 dx Re[rhs_j], dE/d(Im phi_j) = 2 dx Im[rhs_j]
    grid = GridSpec(dim=1, box_length=8.0, points_per_axis=32, dt=1e-3, t_final=0.0)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * grid.cell)
    psi = WaveFunction(values=vals, grid=grid)
    nl = NonlinearitySpec.gp(a0=0.3)
    rhs = gp_rhs(psi, nl)
    h = 1e-6
    for j in range(0, 32, 5):
        for part, target in ((1.0, rhs[j].real), (1j, rhs[j].imag)):
            vp = vals.copy(); vp[j] += h * part
            vm = vals.copy(); vm[j] -= h * part
            ep = gp_energy(WaveFunction(values=vp, grid=grid), nl)
            em = gp_energy(WaveFunction(values=vm, grid=grid), nl)
            fd = (ep - em) / (2 * h) / (2 * grid.cell)
            assert abs(fd - target) <= 1e-6 * max(1.0, abs(target))


def test_central_difference_of_evolve_is_minus_i_rhs_at_second_order(square_sol):
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=64, dt=2e-4,
                    t_final=2e-4)
    phi = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.modified(square_sol, N=4, grid=grid)
    phi_dot = -1j * gp_rhs(phi, nl)
    errs = []
    for steps in (1, 2):
        h = grid.dt * steps
        g = replace(grid, t_final=h)
        fwd = evolve(phi, nl, g).states[-1]
        bwd = evolve(phi, nl, replace(g, dt=-g.dt, t_final=-h)).states[-1]
        fd = (fwd.values - bwd.values) / (2 * h)
        errs.append(np.max(np.abs(fd - phi_dot)))
    # central difference converges at second order
    assert errs[1] / errs[0] > 3.0


def test_plane_wave_h1_norm():
    grid = grid1d(n=64)
    psi = plane_wave_datum(grid, mode=1)
    expected_sq = 1.0 + (2 * math.pi / grid.box_length) ** 2
    assert abs(one_state_report(psi).h_norms[1][0] ** 2 - expected_sq) < 1e-10


def test_gaussian_sobolev_norms_match_closed_form():
    # |d^a phi|_2^2 = (2a-1)!! s^(2a) with s^2 = 1/(4 sigma^2) per axis
    sigma = 1.0
    grid = grid1d(n=256, L=24.0)
    psi = gaussian_datum(grid, sigma=sigma)
    s2 = 1.0 / (4 * sigma**2)
    dfact = {0: 1, 1: 1, 2: 3, 3: 15, 4: 105}
    rep = one_state_report(psi)
    for n in (1, 2, 3, 4):
        expected = sum(dfact[a] * s2**a for a in range(n + 1))
        assert abs(rep.h_norms[n][0] ** 2 - expected) < 1e-8


def test_sobolev_report_growth_envelope():
    grid = grid1d(n=256, dt=2.5e-4, T=0.4)
    psi0 = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.gp(a0=0.05)
    traj = evolve(psi0, nl, grid, snapshot_stride=400)
    rep = sobolev_report(traj, nl)
    assert not tail_warnings(rep.times, rep.tail_mass)
    assert np.all(rep.h_norms[4] >= rep.h_norms[1] - 1e-12)
    assert np.all(np.isfinite(rep.energy))
    # growth study: fit the exponential rate of the H^4 trajectory and lift
    # the prefactor so C e^{K t} is an envelope
    logh = np.log(rep.h_norms[4])
    K, _ = np.polyfit(rep.times, logh, 1)
    C = float(np.max(rep.h_norms[4] * np.exp(-K * rep.times)))
    assert np.isfinite(K) and abs(K) < 50.0
    assert np.all(rep.h_norms[4] <= C * np.exp(K * rep.times) * (1 + 1e-12))
    drift = np.max(np.abs(rep.energy - rep.energy[0])) / abs(rep.energy[0])
    assert drift < 1e-8


def test_spectral_tail_warning_for_rough_field():
    grid = grid1d(n=64)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * grid.cell)
    psi = WaveFunction(values=vals, grid=grid)
    assert one_state_report(psi).tail_mass[0] > 1e-8


def test_modified_uhat_zero_matches_8pi_a0(square_sol):
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=16, dt=1e-3, t_final=0.0)
    nl = NonlinearitySpec.modified(square_sol, N=4, grid=grid)
    assert abs(nl.uhat.at_zero - 8 * math.pi * square_sol.a0) < 1e-6


def test_modified_energy_gap_shrinks_like_1_over_N(square_sol):
    grid = grid1d(n=256, L=16.0)
    psi = gaussian_datum(grid, sigma=1.0)
    gp_lim = None
    gaps = []
    Ns = [8, 16, 32, 64]
    for N in Ns:
        nl = NonlinearitySpec.modified(square_sol, N=N, grid=grid)
        if gp_lim is None:
            # the N -> infinity contact equation
            limit = NonlinearitySpec(kind="gp", coupling=nl.uhat.at_zero)
            gp_lim = gp_energy(psi, limit)
        gaps.append(abs(gp_energy(psi, nl) - gp_lim))
    from gpk.rates import fit_rate

    rep = fit_rate(Ns, gaps)
    assert -1.2 < rep.slope < -0.8


def test_compare_dynamics_trivial_cases(square_sol):
    grid = grid1d(n=128, dt=1e-3, T=0.2)
    psi0 = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.modified(square_sol, N=8, grid=grid)
    rep0 = compare_dynamics(psi0, None, nl.uhat, [4, 8, 16, 32], t_star=0.0)
    assert math.isnan(rep0.slope) and rep0.r_squared == 0.0


def test_compare_dynamics_slope(square_sol):
    grid = grid1d(n=128, dt=1e-3, T=0.25)
    psi0 = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.modified(square_sol, N=8, grid=grid)
    rep = compare_dynamics(psi0, None, nl.uhat, [8, 16, 32, 64], t_star=0.25)
    assert -1.2 < rep.slope < -0.8
    assert rep.r_squared > 0.98


# tiny grids of each dimension: a member must step bit-identically alone
# and in a stack on every one of them
SMALL_GRIDS = (
    grid1d(n=128, dt=1e-3, T=0.2),
    GridSpec(dim=2, box_length=16.0, points_per_axis=32, dt=1e-3, t_final=0.02),
    GridSpec(dim=3, box_length=16.0, points_per_axis=16, dt=1e-3, t_final=0.02),
)


def test_batched_compare_dynamics_matches_separate_evolves(square_sol):
    Ns = [8, 16, 32, 64]
    for grid in SMALL_GRIDS:
        psi0 = gaussian_datum(grid, sigma=1.0)
        uhat = NonlinearitySpec.modified(square_sol, N=8, grid=grid).uhat
        for a0 in (None, square_sol.a0):
            rep = compare_dynamics(psi0, a0, uhat, Ns, t_star=grid.t_final)
            g = 8.0 * math.pi * a0 if a0 is not None else uhat.at_zero
            ref = evolve(psi0, NonlinearitySpec(kind="gp", coupling=g), grid)
            for N, got in zip(Ns, rep.y):
                nl = NonlinearitySpec(kind="modified", coupling=uhat.at_zero,
                                      N=N, uhat=uhat)
                want = l2_distance(evolve(psi0, nl, grid).states[-1],
                                   ref.states[-1])
                assert got == want, (grid.dim, a0, N)


def counting_propagate(monkeypatch):
    """The member count of each `_propagate` call, one per nonlinearity
    passed, recorded in a list."""
    calls, original = [], dynamics._propagate

    def counted(psi0, nls, *args, **kwargs):
        calls.append(len(nls))
        return original(psi0, nls, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_propagate", counted)
    return calls


def test_a_trajectory_and_a_sweep_of_equal_steps_share_one_loop(
        square_sol, monkeypatch):
    Ns = [8, 16, 32, 64]
    calls = counting_propagate(monkeypatch)
    for grid in SMALL_GRIDS:
        psi0 = gaussian_datum(grid, sigma=1.0)
        nl = NonlinearitySpec.modified(square_sol, N=8, grid=grid)
        sweep = sweep_nonlinearities(square_sol.a0, nl.uhat, Ns)
        calls.clear()
        # the trajectory leads the stack
        traj, shared = evolve_and_compare(psi0, nl, sweep, grid.t_final, 7,
                                          ("", ""))
        assert calls == [1 + 1 + len(Ns)]
        alone = evolve(psi0, nl, grid, snapshot_stride=7)
        assert traj.times.tolist() == alone.times.tolist()
        assert all(np.array_equal(state.values, other.values)
                   for state, other in zip(traj.states, alone.states))
        separate = compare_dynamics(psi0, square_sol.a0, nl.uhat, Ns,
                                    grid.t_final)
        assert shared.y.tolist() == separate.y.tolist()


def test_runs_of_unequal_steps_step_apart(square_sol, monkeypatch):
    grid = grid1d(n=64, dt=1e-3, T=0.02)
    psi0 = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.modified(square_sol, N=8, grid=grid)
    sweep = sweep_nonlinearities(None, nl.uhat, [8, 16, 32, 64])
    calls = counting_propagate(monkeypatch)
    traj, rate = evolve_and_compare(psi0, nl, sweep, 0.01, None, ("", ""))
    assert calls == [1, 5]
    assert traj.times[-1] == pytest.approx(0.02) and len(traj.times) == 20 + 1
    at_t_star = compare_dynamics(psi0, None, nl.uhat, [8, 16, 32, 64], 0.01)
    assert rate.y.tolist() == at_t_star.y.tolist()


def test_a_sweep_keeps_only_its_datum_and_final_stacks(square_sol, monkeypatch):
    # a sweep's rate reads the final states alone: no trajectory, no copy
    # of the datum, no snapshot between, and no drift to undo for one
    grid = grid1d(n=64, dt=1e-3, T=0.05)
    psi0 = gaussian_datum(grid, sigma=1.0)
    uhat = NonlinearitySpec.modified(square_sol, N=8, grid=grid).uhat
    sweep = sweep_nonlinearities(None, uhat, [4, 8, 16, 32])
    traj, final = dynamics._propagate(psi0, sweep, [""] * 5, grid,
                                      tracked=False)
    assert traj is None and final.shape == (5, 64)
    assert not np.shares_memory(final, psi0.values)

    kept, drifts = [], []
    propagate, drift = dynamics._propagate, dynamics._Stepper.drift

    def keeping(*args, **kwargs):
        traj, final = propagate(*args, **kwargs)
        kept.append(traj)
        return traj, final

    def counted(self, *args):
        drifts.append(1)
        return drift(self, *args)

    monkeypatch.setattr(dynamics, "_propagate", keeping)
    monkeypatch.setattr(dynamics._Stepper, "drift", counted)
    compare_dynamics(psi0, None, uhat, [4, 8, 16, 32], t_star=0.05)
    assert kept == [None]
    assert len(drifts) == 50 + 1  # the first half drift, then one a step


def test_comparing_five_members_holds_under_four_stacks(square_sol):
    # the running stack holds the one copy of the datum per member, which
    # the kick and the drift overwrite, and a sweep keeps no first snapshot
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.005)
    psi0 = gaussian_datum(grid, sigma=1.5)
    uhat = NonlinearitySpec.modified(square_sol, N=8, grid=grid).uhat
    stack = 5 * psi0.values.nbytes
    tracemalloc.start()
    try:
        compare_dynamics(psi0, square_sol.a0, uhat, [8, 16, 32, 64],
                         t_star=0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack


def test_a_one_member_evolve_holds_one_drift_table_and_kicks_in_place():
    # resident: the full-step table, the running state, the datum's copy in
    # the trajectory and the density multiplier; the half-step tables are
    # built from slabs of k^2 at the first and last steps, and each kick
    # overwrites the running state (6.40 fields before, 4.78 after)
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.005)
    psi0 = gaussian_datum(grid, sigma=1.5)
    nl = NonlinearitySpec.gp(a0=0.1)
    evolve(psi0, nl, grid, snapshot_stride=10**6)
    tracemalloc.start()
    try:
        evolve(psi0, nl, grid, snapshot_stride=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * psi0.values.nbytes


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32), (3, 32)])
def test_stepper_drift_tables_have_the_bits_of_the_scaled_angles(dim, n):
    # built slab by slab (four passes at 32^3) from the per-axis k^2
    grid = GridSpec(dim=dim, box_length=9.0, points_per_axis=n, dt=-3e-3,
                    t_final=0.0)
    stepper = _Stepper(grid, [NonlinearitySpec.gp(a0=0.1)])
    k2 = grid.k_squared()
    assert np.array_equal(stepper.full_drift, _unit_phase(-grid.dt * k2))
    half = stepper._drift_table(0.5)
    assert np.array_equal(half, _unit_phase(-0.5 * grid.dt * k2))
    # a snapshot's un-drift: tan is odd, so the -0.5 table is the conjugate
    assert np.array_equal(stepper._drift_table(-0.5), np.conj(half))


def test_a_kick_overwrites_a_writable_stack():
    grid = GridSpec(dim=2, box_length=9.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    stepper = _Stepper(grid, [NonlinearitySpec.gp(a0=0.2)] * 3)
    datum = gaussian_datum(grid, sigma=0.9).values
    stack = np.repeat(datum[None], 3, axis=0)
    fresh = _unit_phase(stepper.potential(stack), stack, -grid.dt)
    kicked = stepper.kick(stack, grid.dt)
    assert kicked is stack
    assert np.array_equal(kicked, fresh)


def test_a_run_of_zero_steps_returns_a_writable_copy_of_the_datum():
    grid = grid1d(n=64, dt=1e-3, T=0.0)
    psi0 = gaussian_datum(grid, sigma=1.0)
    _, final = dynamics._propagate(psi0, [NonlinearitySpec.gp(0.1)] * 2,
                                   ["", ""], grid, tracked=False)
    assert final.flags.writeable and not np.shares_memory(final, psi0.values)
    assert np.array_equal(final, np.stack([psi0.values] * 2))


@pytest.mark.parametrize("dim,first,lead", [(2, 0, ()), (3, 0, ()),
                                             (3, 1, (1,)), (2, 1, (3,)),
                                             (3, 2, (2, 3))])
def test_the_nd_irfft_has_the_bits_of_scipys_irfftn(dim, first, lead):
    # two passes of its own, the leading axes in place, then a power-of-two
    # scale: scipy's irfftn runs the same passes through a scratch copy
    grid = GridSpec(dim=dim, box_length=9.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    axes = tuple(range(first, first + dim))
    rng = np.random.default_rng(dim + first)
    spectrum = sfft.rfftn(rng.standard_normal(lead + grid.shape), axes=axes)
    spectrum *= rng.uniform(0.5, 2.0, spectrum.shape)
    expected = sfft.irfftn(spectrum, s=grid.shape, axes=axes)
    irfft = dynamics._transforms(grid, first)[3]
    assert np.array_equal(irfft(spectrum), expected)
    assert np.array_equal(irfft(spectrum.copy(), overwrite_x=True), expected)


def test_1d_stepper_transforms_equal_the_nd_transforms(square_sol):
    # the 1D stepper runs fft/rfft along the last axis; the n-D transforms
    # over the grid axis of the (member, x) stack must give the same bits
    grid = grid1d(n=256)
    uhat = NonlinearitySpec.modified(square_sol, N=8, grid=grid).uhat
    nls = [NonlinearitySpec(kind="gp", coupling=3.0)] + [
        NonlinearitySpec(kind="modified", coupling=uhat.at_zero, N=N, uhat=uhat)
        for N in (8, 16, 32, 64)]
    stepper = _Stepper(grid, nls)
    values = np.stack([random_unit_field(grid, seed).values
                       for seed in range(len(nls))])
    axes = (1,)

    rho_hat = sfft.rfftn(values.real**2 + values.imag**2, axes=axes)
    angle = sfft.irfftn(rho_hat * stepper.density_multiplier, s=[grid.points_per_axis],
                        axes=axes)
    angle *= -grid.dt
    kicked = _unit_phase(angle) * values
    assert np.array_equal(stepper.kick(values, grid.dt), kicked)

    for phase in (stepper._drift_table(0.5), stepper.full_drift):
        drifted = sfft.ifftn(sfft.fftn(values, axes=axes) * phase, axes=axes)
        assert np.array_equal(stepper.drift(values, phase), drifted)


class _NanAbove:
    """A stand-in interaction table that is NaN above a momentum."""

    at_zero = 1.0

    def __init__(self, cut):
        self.cut = cut

    def __call__(self, p):
        return np.where(np.abs(p) > self.cut, np.nan, 1.0)


def test_nan_member_of_the_n_sweep_raises_blowup_naming_it():
    # dealiased |k| reaches 2/3 * 8 pi = 16.8 on this grid: only N = 4 sees
    # momenta above 3
    grid = grid1d(n=128, dt=1e-3, T=0.1)
    psi0 = gaussian_datum(grid, sigma=1.0)
    with pytest.raises(NumericalBlowupError, match="N = 4") as info:
        compare_dynamics(psi0, None, _NanAbove(3.0), [4, 8, 16, 32],
                         t_star=0.1)
    assert info.value.last_good_time == 0.0


@pytest.mark.parametrize("dim, n", [(d, n) for d in (1, 2, 3)
                                    for n in (16, 64, 256) if d < 3 or n <= 64])
def test_k_max_squared_has_the_bits_of_the_full_grid_max(dim, n):
    for L in (0.37, 1.0, 7.3, 12.0, 16.0, 1e3):
        grid = GridSpec(dim=dim, box_length=L, points_per_axis=n, dt=1e-3,
                        t_final=1e-3)
        assert grid.k_max_squared == float(np.max(grid.k_squared()))


def test_stability_budget_rejects_large_dt():
    grid = GridSpec(dim=1, box_length=8.0, points_per_axis=256, dt=0.5, t_final=1.0)
    psi0 = gaussian_datum(grid, sigma=1.0)
    with pytest.raises(ConfigurationError):
        evolve(psi0, NonlinearitySpec.gp(a0=0.0), grid)


def test_nan_input_raises_blowup():
    grid = grid1d(n=64)
    vals = np.full(64, np.nan, dtype=complex)
    psi = WaveFunction(values=vals, grid=grid)
    with pytest.raises(NumericalBlowupError):
        evolve(psi, NonlinearitySpec.gp(a0=0.0), grid)


def random_unit_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * grid.cell)
    return WaveFunction(values=vals, grid=grid)


def complex_fft_reference(psi, nl):
    """Density potential and energy from full complex FFTs of |phi|^2."""
    grid = psi.grid
    k2 = grid.k_squared()
    if nl.kind == "gp":
        mult = nl.coupling * grid.dealias_mask()
    else:
        mult = (1 - 1 / nl.N) * nl.uhat(np.sqrt(k2) / nl.N) * grid.dealias_mask()
    rho_hat = sfft.fftn(np.abs(psi.values) ** 2)
    potential = sfft.ifftn(mult * rho_hat).real
    M = psi.values.size
    kinetic = np.sum(k2 * np.abs(sfft.fftn(psi.values)) ** 2) * grid.cell / M
    interaction = 0.5 * np.sum(mult * np.abs(rho_hat) ** 2) * grid.cell / M
    return potential, kinetic + interaction


@pytest.mark.parametrize("kind", ["gp", "modified"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_real_fft_density_path_matches_complex_reference(square_sol, kind, dim, n):
    grid = GridSpec(dim=dim, box_length=6.0, points_per_axis=n, dt=1e-3,
                    t_final=0.0)
    psi = random_unit_field(grid, seed=dim)
    if kind == "gp":
        nl = NonlinearitySpec.gp(a0=0.3)
    else:
        nl = NonlinearitySpec.modified(square_sol, N=4, grid=grid)
    ref_potential, ref_energy = complex_fft_reference(psi, nl)
    potential = _Stepper(grid, [nl]).potential(psi.values[None])[0]
    scale = max(1.0, float(np.max(np.abs(ref_potential))))
    assert np.max(np.abs(potential - ref_potential)) <= 1e-14 * scale
    assert abs(gp_energy(psi, nl) - ref_energy) <= 1e-14 * max(1.0, ref_energy)


def random_spectrum(grid, seed):
    return np.random.default_rng(seed).random(grid.shape)


def tail_band_mask(grid):
    """Modes with any |k_i| >= 0.875 k_max, as an explicit full-grid mask."""
    n = grid.points_per_axis
    index = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    return grid._mesh(np.logical_or, index >= 0.875 * (n // 2))


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 16)])
def test_sobolev_multiplier_matches_multi_index_sum(dim, n):
    grid = GridSpec(dim=dim, box_length=5.0, points_per_axis=n, dt=1e-3,
                    t_final=0.0)
    power = random_spectrum(grid, seed=dim)
    k = grid.k_axes()[0]
    k2 = [(k**2).reshape([-1 if a == axis else 1 for a in range(dim)])
          for axis in range(dim)]
    h_norms, _, _ = _spectral_diagnostics(grid, power)
    for order in (1, 2, 3, 4):
        mult = np.zeros(grid.shape)
        for alpha in itertools.product(range(order + 1), repeat=dim):
            if sum(alpha) <= order:
                mult = mult + math.prod(x**a for x, a in zip(k2, alpha))
        ref = float(np.sum(mult * power))
        got = h_norms[order] ** 2 * power.size / grid.cell
        assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 16)])
def test_spectral_kinetic_and_tail_match_full_grid_sums(dim, n):
    grid = GridSpec(dim=dim, box_length=5.0, points_per_axis=n, dt=1e-3,
                    t_final=0.0)
    mask = tail_band_mask(grid)
    assert 0 < np.count_nonzero(mask) < mask.size
    for tail_scale in (1.0, 1e-30):
        power = random_spectrum(grid, seed=10 + dim)
        power[mask] *= tail_scale
        _, kinetic, tail = _spectral_diagnostics(grid, power)
        ref_kinetic = float(np.sum(grid.k_squared() * power))
        assert abs(kinetic - ref_kinetic) <= 1e-12 * ref_kinetic
        ref_tail = float(np.sum(power, where=mask)) / float(np.sum(power))
        assert 1e-31 * tail_scale < ref_tail < tail_scale
        assert abs(tail - ref_tail) <= 1e-12 * ref_tail


# tracemalloc peak of the 32^3 diagnostics below: 1.27 MB from per-axis
# moments, 2.55 MB when the first call built four full-grid Sobolev
# multipliers and a tail mask
PEAK_BOUND = 1.75 * 2**20


def test_diagnostics_cache_no_table_and_stay_small():
    # no full-grid table is built or cached, so the peak stays near the
    # snapshot's own spectra (a 32^3 complex field is 0.5 MB)
    grid = GridSpec(dim=3, box_length=11.0, points_per_axis=32, dt=1e-3,
                    t_final=0.002)
    nl = NonlinearitySpec.gp(a0=0.1)
    traj = evolve(gaussian_datum(grid, sigma=1.2), nl, grid, snapshot_stride=1)
    tracemalloc.start()
    try:
        sobolev_report(traj, nl)
        gp_energy(traj.states[-1], nl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND


def test_sobolev_report_matches_per_state_diagnostics():
    grid = GridSpec(dim=2, box_length=10.0, points_per_axis=32, dt=1e-3,
                    t_final=0.02)
    nl = NonlinearitySpec.gp(a0=0.2)
    traj = evolve(gaussian_datum(grid, sigma=0.8), nl, grid, snapshot_stride=10)
    rough = random_unit_field(grid, seed=5)
    traj = Trajectory(np.append(traj.times, 0.03), traj.states + [rough])
    rep = sobolev_report(traj, nl)

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    for i, state in enumerate(traj.states):
        single = one_state_report(state, nl)
        assert close(rep.energy[i], gp_energy(state, nl))
        assert close(rep.tail_mass[i], single.tail_mass[0])
        for n in (1, 2, 3, 4):
            assert close(rep.h_norms[n][i], single.h_norms[n][0])
    warnings = tail_warnings(rep.times, rep.tail_mass)
    assert len(warnings) == 1 and warnings[0].startswith("t = 0.03:")


def test_evolve_never_writes_to_datum_or_snapshots():
    grid = GridSpec(dim=2, box_length=10.0, points_per_axis=32, dt=1e-3,
                    t_final=0.03)
    nl = NonlinearitySpec.gp(a0=0.2)
    psi0 = gaussian_datum(grid, sigma=0.8)
    original = psi0.values.copy()
    psi0.values.setflags(write=False)  # an in-place write would raise
    traj = evolve(psi0, nl, grid, snapshot_stride=10)
    assert np.array_equal(psi0.values, original)
    arrays = [psi0.values] + [s.values for s in traj.states]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    # each snapshot still holds the state at its time, as a run that stops
    # there computes it
    for t, state in zip(traj.times, traj.states):
        stop = replace(grid, t_final=float(t))
        alone = evolve(psi0, nl, stop).states[-1]
        assert np.max(np.abs(state.values - alone.values)) < 1e-12


@pytest.mark.parametrize("dim", [1, 3])
def test_a_drift_transforms_the_kicks_output_in_place(dim):
    grid = GridSpec(dim=dim, box_length=10.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    stepper = _Stepper(grid, [NonlinearitySpec.gp(a0=0.2)] * 2)
    stack = np.stack([gaussian_datum(grid, sigma=s).values for s in (0.8, 1.2)])
    kicked = stepper.kick(stack, grid.dt)
    expected = sfft.ifftn(sfft.fftn(kicked, axes=range(1, dim + 1))
                          * stepper.full_drift, axes=range(1, dim + 1))
    drifted = stepper.drift(kicked, stepper.full_drift)
    assert np.shares_memory(drifted, kicked)  # no new buffer per step
    assert np.array_equal(drifted, expected)


def test_density_multiplier_scales_with_the_coupling():
    grid = GridSpec(dim=3, box_length=8.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    one = _density_multiplier(grid, NonlinearitySpec.gp(a0=0.1))
    other = _density_multiplier(grid, NonlinearitySpec.gp(a0=0.2))
    assert np.allclose(other, 2 * one)


def test_mass_reduction_matches_sum_of_squares():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(16, 16, 16)) + 1j * rng.normal(size=(16, 16, 16))
    x = rng.normal(size=(33,))
    for values in (z, z[:, ::2, 1:], z.real, x):
        ref = float(np.sum(np.abs(values) ** 2))
        assert _mass(values) == pytest.approx(ref, rel=1e-14)
    grid = GridSpec(dim=3, box_length=8.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    psi = WaveFunction(values=z, grid=grid)
    assert psi.l2_norm == pytest.approx(math.sqrt(_mass(z) * grid.cell), rel=0)
    other = WaveFunction(values=z * 0.5, grid=grid)
    assert l2_distance(psi, other) == pytest.approx(0.5 * psi.l2_norm, rel=1e-14)


@pytest.mark.parametrize("name", ["box_length", "dt", "t_final"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_refuses_non_finite_numbers(name, bad):
    good = {"dim": 1, "box_length": 8.0, "points_per_axis": 16, "dt": 1e-3,
            "t_final": 0.01}
    with pytest.raises(ConfigurationError, match="must be finite"):
        GridSpec(**{**good, name: bad})


@pytest.mark.parametrize("stride", [0, -3])
def test_evolve_refuses_a_snapshot_stride_below_one(stride):
    grid = grid1d(n=64, T=0.01)
    with pytest.raises(ConfigurationError, match="stride"):
        evolve(gaussian_datum(grid), NonlinearitySpec.gp(a0=0.0), grid,
               snapshot_stride=stride)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_gaussian_datum_refuses_a_width_that_is_not_positive(sigma):
    with pytest.raises(DomainError, match="sigma"):
        gaussian_datum(grid1d(n=64), sigma=sigma)
