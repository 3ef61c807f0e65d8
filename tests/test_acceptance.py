"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavy 3D comparison variant of criterion 4 is
marked `nightly` and excluded from the default run.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gpk.dynamics import (
    GridSpec,
    NonlinearitySpec,
    WaveFunction,
    compare_dynamics,
    evolve,
    gaussian_datum,
    gp_energy,
    l2_distance,
)
from gpk.fock import (
    ToyScenario,
    apply_bogoliubov,
    apply_weyl,
    bogoliubov_conjugation_residual,
    build_basis,
    check_TNT_inequality,
    check_weyl_relations,
    generator_cancellation_check,
    number_expectation,
    poisson_shell_mass,
    toy_convergence_study,
    vacuum,
)
from gpk.kernels import (
    TwoPointKernel,
    grad1_kkbar_hs_norm,
    hyperbolic_series,
    kernel_hs_norms,
)
from gpk.scattering import (
    RadialPotential,
    equation_defect_residual,
    scattering_length_integral,
    solve_zero_energy,
    verify_w_bounds,
)

A0_SQUARE_WELL = 1.0 - math.tanh(2.0) / 2.0


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def square_sol():
    return solve_zero_energy(RadialPotential.square_well(8.0, 1.0), 5.0, 4000)


def test_criterion_01_scattering_oracle(square_sol):
    start = time.perf_counter()
    sol = square_sol
    rel = abs(sol.a0 - A0_SQUARE_WELL) / A0_SQUARE_WELL
    assert rel < 1e-6
    a0_int = scattering_length_integral(sol)
    assert abs(a0_int - sol.a0) / sol.a0 < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"a0 within {rel:.2e} of analytic; definitions agree to "
              f"{abs(a0_int - sol.a0) / sol.a0:.2e}; {elapsed:.2f}s")


def test_criterion_02_profile_bounds(square_sol):
    start = time.perf_counter()
    sol = square_sol
    cert = verify_w_bounds(sol)
    assert cert.w_within_unit

    Vg = RadialPotential.gaussian(2.0)
    sol_g = solve_zero_energy(Vg, 5 * Vg.r_support, 4000)
    cert_g = verify_w_bounds(sol_g)
    assert cert_g.w_within_unit

    outside = sol.r_grid > 1.0
    tail_dev = float(
        np.max(np.abs(sol.w[outside] - sol.a0 / sol.r_grid[outside]))
    )
    assert tail_dev < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"0 <= w <= 1 for both potentials; exterior deviation "
              f"{tail_dev:.2e}; {elapsed:.2f}s")


def test_criterion_03_gp_conservation_3d():
    start = time.perf_counter()
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=64, dt=1e-3,
                    t_final=1.0)
    psi0 = gaussian_datum(grid, sigma=1.5)
    nl = NonlinearitySpec.gp(a0=0.1)
    fwd = evolve(psi0, nl, grid, snapshot_stride=250)

    mass_drift = max(abs(s.l2_norm - 1.0) for s in fwd.states)
    assert mass_drift <= 1e-10

    energies = [gp_energy(s, nl) for s in fwd.states]
    energy_drift = max(abs(e - energies[0]) for e in energies[1:]) / abs(
        energies[0]
    )
    assert energy_drift <= 1e-8

    back_grid = replace(grid, dt=-grid.dt, t_final=-grid.t_final)
    back = evolve(
        WaveFunction(values=fwd.states[-1].values, grid=back_grid),
        nl, back_grid, snapshot_stride=10**6,
    )
    reversal = l2_distance(back.states[-1], psi0)
    assert reversal <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, f"mass drift {mass_drift:.2e}, energy drift {energy_drift:.2e}, "
              f"reversal {reversal:.2e}; {elapsed:.0f}s at 64^3")


def test_criterion_04_comparison_exponent_1d(square_sol):
    start = time.perf_counter()
    sol = square_sol
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=256, dt=5e-4,
                    t_final=0.5)
    psi0 = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.modified(sol, N=8, grid=grid)
    rep = compare_dynamics(psi0, None, nl.uhat, [8, 16, 32, 64], t_star=0.5)
    assert -1.2 <= rep.slope <= -0.8
    assert rep.r_squared >= 0.98
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"slope {rep.slope:.3f}, r^2 {rep.r_squared:.4f}; "
              f"{elapsed:.0f}s (1D CI config)")


@pytest.mark.nightly
def test_criterion_04_comparison_exponent_3d(square_sol):
    sol = square_sol
    grid = GridSpec(dim=3, box_length=16.0, points_per_axis=64, dt=1e-3,
                    t_final=0.5)
    psi0 = gaussian_datum(grid, sigma=1.5)
    nl = NonlinearitySpec.modified(sol, N=8, grid=grid)
    rep = compare_dynamics(psi0, sol.a0, nl.uhat, [8, 16, 32, 64], t_star=0.5)
    assert -1.2 <= rep.slope <= -0.8
    assert rep.r_squared >= 0.98
    report("4 (3D nightly)", f"slope {rep.slope:.3f}, r^2 {rep.r_squared:.4f}")


def test_criterion_05_kernel_norm_scaling(square_sol):
    start = time.perf_counter()
    sol = square_sol
    grid = GridSpec(dim=3, box_length=12.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    phi = gaussian_datum(grid, sigma=1.0)
    N_list = [4, 8, 16, 32]
    l2s, g1s, sups, kks = [], [], [], []
    for N in N_list:
        l2k, l2g1, sup = kernel_hs_norms(phi, sol, N)
        l2s.append(l2k)
        g1s.append(l2g1 / math.sqrt(N))
        sups.append(sup)
        kks.append(grad1_kkbar_hs_norm(phi, sol, N))
    ratios = {
        "l2_k": max(l2s) / min(l2s),
        "grad1_k/sqrtN": max(g1s) / min(g1s),
        "grad1_kkbar": max(kks) / min(kks),
        "sup_slice": max(sups) / min(sups),
    }
    for name, ratio in ratios.items():
        assert ratio <= 2.0, f"{name} varies by {ratio}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, "max/min across N in {4..32}: "
              + ", ".join(f"{k} {v:.3f}" for k, v in ratios.items())
              + f"; {elapsed:.0f}s")


def test_criterion_06_hyperbolic_closed_form():
    start = time.perf_counter()
    grid = GridSpec(dim=1, box_length=8.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    rng = np.random.default_rng(2024)
    phi = rng.standard_normal(32)
    phi /= math.sqrt(np.sum(phi**2) * grid.cell)
    worst = 0.0
    for c in (0.1, 0.5, 1.0):
        k = TwoPointKernel(values=c * np.multiply.outer(phi, phi), grid=grid)
        bk = hyperbolic_series(k, tol=1e-16)
        target = math.sinh(c) * np.multiply.outer(phi, phi)
        worst = max(worst, float(np.max(np.abs(bk.sh.values - target))))
    assert worst < 1e-10

    checked = 0
    for trial in range(100):
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        a = 0.5 * (a + a.T)
        a *= rng.uniform(0.05, 1.2) / (np.linalg.norm(a) * grid.cell)
        k = TwoPointKernel(values=a, grid=grid)
        bk = hyperbolic_series(k)
        bound = math.exp(k.hs_norm())
        assert bk.p.hs_norm() <= bound
        assert bk.r.hs_norm() <= bound
        checked += 1
    report(6, f"rank-one sh defect {worst:.2e}; {checked} random kernels "
              f"within exp bounds; {time.perf_counter() - start:.1f}s")


def test_criterion_07_fock_identities():
    start = time.perf_counter()
    b = build_basis(2, 10)

    # CCR below the cutoff (exact up to sqrt(n) float representation)
    ann, cre = b.ladders
    below = b.totals() < b.n_max
    ccr = 0.0
    for i in range(2):
        for j in range(2):
            comm = (ann[i] @ cre[j]
                    - cre[j] @ ann[i]).toarray()
            comm -= (1.0 if i == j else 0.0) * np.eye(b.dim)
            ccr = max(ccr, float(np.max(np.abs(comm[:, below]))))
    assert ccr < 1e-12

    rep = check_weyl_relations(b, np.array([0.1, 0.025]), np.array([0.0, 0.09]))
    assert rep.product_residual <= 1e-9
    assert rep.shift_residual <= 1e-9

    K = np.array([[0.004, 0.0015], [0.0015, -0.003]], dtype=complex)
    conj_res = bogoliubov_conjugation_residual(b, K, np.array([1.0, 0.0]))
    assert conj_res <= 1e-8

    f = np.array([0.6, 0.55])
    state = apply_weyl(b, f, vacuum(b))
    mu = float(np.sum(f**2))
    shell_err = max(
        abs(np.sum(np.abs(state[b.shell_slices[n]]) ** 2)
            - poisson_shell_mass(mu, n)) for n in range(6)
    )
    assert shell_err <= 1e-10

    b1 = build_basis(1, 10)
    r = 0.1
    sq = apply_bogoliubov(b1, np.array([[r]]), vacuum(b1))
    sq_err = abs(number_expectation(b1, sq) - math.sinh(r) ** 2)
    assert sq_err <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"CCR {ccr:.1e}; Weyl {rep.product_residual:.1e}/"
              f"{rep.shift_residual:.1e}; conjugation {conj_res:.1e}; "
              f"Poisson {shell_err:.1e}; squeezed number {sq_err:.1e}; "
              f"{elapsed:.1f}s")


def test_criterion_08_tnt_spectral_constant():
    start = time.perf_counter()
    b = build_basis(1, 220)
    n_sub = 180
    allowance = 1.0 / (n_sub + 1)

    rep0 = check_TNT_inequality(b, np.zeros((1, 1)), n_sub=n_sub)
    assert abs(rep0.smallest_c - 1.0) <= allowance

    values = {}
    for r in (0.5, 1.0, 1.5):
        rep = check_TNT_inequality(b, np.array([[r]]), n_sub=n_sub)
        assert np.isfinite(rep.smallest_c)
        assert rep.smallest_c >= 1.0 - allowance
        values[r] = rep.smallest_c
    assert values[1.5] > values[0.5]
    report(8, f"smallest C at K=0 is {rep0.smallest_c:.5f} "
              f"(allowance {allowance:.4f}); C(0.5..1.5) = "
              + ", ".join(f"{v:.2f}" for v in values.values())
              + f"; {time.perf_counter() - start:.1f}s")


def test_criterion_09_cancellations(square_sol):
    start = time.perf_counter()
    sol = square_sol
    budget = 1e-6
    worst = 0.0
    for N in (1, 2, 4):
        resid = equation_defect_residual(sol, N)
        worst = max(worst, resid / N**3)
    assert worst <= budget

    b = build_basis(2, 12)
    phi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    u = np.array([1.0, 1.0])
    N, omega = 16, 0.04 / 16
    bare = generator_cancellation_check(b, u, 1.0, N, phi, omega, kappa=0.0)
    matched = generator_cancellation_check(b, u, 1.0, N, phi, omega)
    assert bare.ratio >= 0.9
    assert matched.ratio <= 0.1
    report(9, f"scaled profile residual {worst:.2e} (budget {budget}); "
              f"linear-term ratio {matched.ratio:.3f} correlated vs "
              f"{bare.ratio:.2f} uncorrelated; "
              f"{time.perf_counter() - start:.1f}s")


def test_criterion_10_toy_convergence():
    start = time.perf_counter()
    scenario = ToyScenario(
        h=np.array([[0.0, -1.0], [-1.0, 0.2]]),
        u=np.array([1.0, 1.0]),
        coupling=0.5,
        phi0=np.array([1.0, 0.0]),
        kappa0=0.2,
        t_final=0.4,
        N_list=(4, 8, 16, 32),
    )
    rep = toy_convergence_study(scenario)
    numbers = rep.number_expectations
    ratio = float(np.max(numbers) / np.min(numbers))
    assert ratio <= 3.0
    assert rep.rate.slope <= -0.4
    assert rep.rate.r_squared >= 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(10, f"number ratio {ratio:.2f} across N; trace-distance slope "
               f"{rep.rate.slope:.3f} (r^2 {rep.rate.r_squared:.4f}); "
               f"{elapsed:.0f}s")
