import math
from dataclasses import replace

import numpy as np
import pytest

from gpk.budgets import ROUNDOFF_SLACK, W_BOUND_SLACK
from gpk.errors import BudgetError, ConfigurationError, DomainError
from gpk.scattering import (
    _ENDPOINT_INSET,
    RadialPotential,
    _align_points,
    _rk4_sweep,
    equation_defect_residual,
    scaled_profile,
    scattering_length_integral,
    solve_zero_energy,
    verify_w_bounds,
)

# Analytic oracle: square well V0 on r < R.  Matching u = A sinh(kappa r)
# inside to u = r - a0 outside (kappa^2 = V0/2) gives
#     a0 = R - tanh(kappa R) / kappa.
A0_SQUARE_WELL = 1.0 - math.tanh(2.0) / 2.0  # V0 = 8, R = 1 -> kappa = 2


@pytest.fixture(scope="module")
def square_sol():
    V = RadialPotential.square_well(8.0, 1.0)
    return solve_zero_energy(V, r_max=5.0, n_points=4000)



def numpy_scalar_rk4(g_lo, g_mid, g_hi, h):
    """The RK4 recurrence of `_rk4_sweep` stepped on numpy scalars, as the
    solver did before it moved to Python floats."""
    n = g_lo.size
    u = np.empty(n + 1)
    up = np.empty(n + 1)
    u[0], up[0] = 0.0, 1.0
    uj, vj = 0.0, 1.0
    for j in range(n):
        ga, gm, gb = g_lo[j], g_mid[j], g_hi[j]
        k1u, k1v = vj, ga * uj
        k2u, k2v = vj + 0.5 * h * k1v, gm * (uj + 0.5 * h * k1u)
        k3u, k3v = vj + 0.5 * h * k2v, gm * (uj + 0.5 * h * k2u)
        k4u, k4v = vj + h * k3v, gb * (uj + h * k3u)
        uj = uj + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        vj = vj + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        u[j + 1], up[j + 1] = uj, vj
    return u, up


@pytest.mark.parametrize("V", [RadialPotential.square_well(8.0, 1.0),
                               RadialPotential.gaussian(4.0)],
                         ids=["square-well", "gaussian"])
def test_rk4_sweep_equals_the_numpy_scalar_loop_bit_for_bit(V):
    # the one-sided stage samples of `solve_zero_energy` on its 4000 points
    r_max = 5.0
    n = _align_points(4000, r_max, V.breakpoints)
    h = r_max / n
    r = np.linspace(0.0, r_max, n + 1)
    eps = _ENDPOINT_INSET * h
    samples = (0.5 * V(r[:-1] + eps), 0.5 * V(r[:-1] + 0.5 * h),
               0.5 * V(r[1:] - eps))
    u, up = _rk4_sweep(*samples, h)
    u_ref, up_ref = numpy_scalar_rk4(*samples, h)
    assert np.array_equal(u, u_ref) and np.array_equal(up, up_ref)


def test_free_case_is_trivial():
    V = RadialPotential.zero()
    sol = solve_zero_energy(V, r_max=5.0, n_points=1500)
    assert np.allclose(sol.f, 1.0, atol=1e-12)
    assert np.allclose(sol.w, 0.0, atol=1e-12)
    assert abs(sol.a0) < 1e-12
    assert scattering_length_integral(sol) == 0.0
    cert = verify_w_bounds(sol)
    assert cert.c1_hat < 1e-12 and cert.c2_hat < 1e-12


def test_square_well_matches_analytic_a0(square_sol):
    sol = square_sol
    assert abs(sol.a0 - A0_SQUARE_WELL) / A0_SQUARE_WELL < 1e-6
    assert abs(sol.a0_derivative - A0_SQUARE_WELL) / A0_SQUARE_WELL < 1e-6
    assert sol.ode_residual <= 1e-8


def test_square_well_dual_definition_agreement(square_sol):
    sol = square_sol
    a0_int = scattering_length_integral(sol)
    assert abs(a0_int - sol.a0) / sol.a0 < 1e-6


def test_weak_gaussian_matches_born_oracle():
    # first Born term of 8 pi a0 = int V f with f ~ 1:
    # a0 ~ (1/8pi) * lambda * pi^(3/2) = lambda sqrt(pi) / 8
    lam = 1e-3
    V = RadialPotential.gaussian(lam)
    sol = solve_zero_energy(V, r_max=5 * V.r_support, n_points=4000)
    born = lam * math.sqrt(math.pi) / 8.0
    assert abs(sol.a0 - born) / born < 0.01


def test_exterior_profile_is_a0_over_r(square_sol):
    sol = square_sol
    outside = sol.r_grid > 1.0
    r = sol.r_grid[outside]
    assert np.max(np.abs(sol.w[outside] - sol.a0 / r)) < 1e-8


def test_w_bounds_certificate(square_sol):
    sol = square_sol
    cert = verify_w_bounds(sol)
    assert cert.w_within_unit
    assert np.min(sol.w) >= -1e-12 and np.max(sol.w) <= 1.0
    # w(sigma) max(1, sigma) <= 1: |k| <= min(N, 1/|x - y|) |phi(x) phi(y)|
    assert np.max(sol.w * np.maximum(1.0, sol.r_grid)) <= 1.0 + 1e-9
    assert sol.a0 <= 1.0
    assert np.isfinite(cert.c1_hat) and np.isfinite(cert.c2_hat)


def test_w_certificate_is_tighter_than_the_solver(square_sol):
    # the solver takes a w that leaves [0, 1] by up to W_BOUND_SLACK; the
    # certificate of scattering.json holds it to ROUNDOFF_SLACK, so it can fail
    sol = square_sol
    low = replace(sol, f=sol.f + np.min(sol.w) + 10 * ROUNDOFF_SLACK)
    assert -W_BOUND_SLACK < np.min(low.w) < -ROUNDOFF_SLACK
    assert not verify_w_bounds(low).w_within_unit
    nan = replace(sol, f=np.full_like(sol.f, np.nan))
    assert not verify_w_bounds(nan).w_within_unit


def test_hard_well_keeps_w_below_one():
    # V0 = 200 makes u''' large; the 1e-8 defect budget needs a fine grid
    V = RadialPotential.square_well(200.0, 1.0)
    sol = solve_zero_energy(V, r_max=5.0, n_points=16000)
    cert = verify_w_bounds(sol)
    assert cert.w_within_unit
    assert sol.w[0] < 1.0
    assert np.isfinite(cert.c1_hat)


def test_f_monotone_and_w_decreasing_outside(square_sol):
    sol = square_sol
    assert np.all(np.diff(sol.f) >= -1e-12)
    outside = sol.r_grid >= 1.0
    assert np.all(np.diff(sol.w[outside]) <= 1e-12)


def test_tail_consistency(square_sol):
    sol = square_sol
    assert sol.tail_fit_error < 1e-8
    r_max = sol.r_grid[-1]
    assert abs(sol.f[-1] - 1.0) <= sol.a0 / r_max + 1e-8


def test_grid_refinement_halves_residual_by_four():
    V = RadialPotential.gaussian(2.0)
    rmax = 5 * V.r_support
    coarse = solve_zero_energy(V, rmax, 2000)
    fine = solve_zero_energy(V, rmax, 4000)
    assert coarse.ode_residual / fine.ode_residual >= 4.0


def test_scaled_profile():
    V = RadialPotential.square_well(8.0, 1.0)
    sol = solve_zero_energy(V, 5.0, 4000)
    # N = 1 reproduces the solved profile
    same = scaled_profile(sol, 1, sol.r_grid)
    assert np.max(np.abs(same - sol.w)) < 1e-12
    # outside the scaled support the closed form a0/(N r) holds
    assert abs(scaled_profile(sol, 10, 1.0) - sol.a0 / 10.0) < 1e-12
    val = scaled_profile(sol, 10, np.array([0.5, 2.0]))
    assert np.allclose(val, sol.a0 / (10 * np.array([0.5, 2.0])))
    # deriv: the solved w' on the solved grid, -a0/s^2 beyond it
    assert np.array_equal(scaled_profile(sol, 1, sol.r_grid, deriv=True),
                          sol.dw_dr)
    beyond = np.array([1.0, 3.0])
    assert np.array_equal(scaled_profile(sol, 10, beyond, deriv=True),
                          -sol.a0 / (10 * beyond) ** 2)
    with pytest.raises(DomainError):
        scaled_profile(sol, 10, -1.0)
    with pytest.raises(DomainError):
        scaled_profile(sol, 0, 1.0)


def test_configuration_errors():
    V = RadialPotential.square_well(8.0, 1.0)
    with pytest.raises(ConfigurationError):
        solve_zero_energy(V, r_max=-1.0, n_points=2000)
    with pytest.raises(ConfigurationError):
        solve_zero_energy(V, r_max=2.0, n_points=2000)  # below 5 r_support
    with pytest.raises(ConfigurationError):
        solve_zero_energy(V, r_max=5.0, n_points=100)
    with pytest.raises(DomainError):
        RadialPotential.from_table(np.array([0.0, 1.0]), np.array([1.0, -0.5]))


def test_radial_step_wider_than_the_support_is_refused():
    # at rmax = 5e4 one step of 12.5 spans the well of radius 1: the defect
    # reads 0 and a0 comes out wrong, so the grid is refused instead
    V = RadialPotential.square_well(8.0, 1.0)
    with pytest.raises(ConfigurationError, match="rmax / points = 12.5"):
        solve_zero_energy(V, r_max=5e4, n_points=4000)
    # a step as wide as the well still meets the defect budget, and fails it
    with pytest.raises(BudgetError):
        solve_zero_energy(V, r_max=4000.0, n_points=4000)


def test_table_potential_round_trip():
    r = np.linspace(0.0, 6.0, 601)
    v = 4.0 * np.exp(-(r**2))
    V = RadialPotential.from_table(r, v)
    sol = solve_zero_energy(V, r_max=5 * V.r_support, n_points=2000)
    Vg = RadialPotential.gaussian(4.0)
    ref = solve_zero_energy(Vg, r_max=5 * Vg.r_support, n_points=2000)
    assert abs(sol.a0 - ref.a0) / ref.a0 < 1e-3


def test_cancellation_defect_scales_as_n_cubed():
    V = RadialPotential.square_well(8.0, 1.0)
    sol = solve_zero_energy(V, 5.0, 4000)
    r1 = equation_defect_residual(sol, 1)
    assert r1 <= 1e-6
    for N in (2, 4):
        assert equation_defect_residual(sol, N) == pytest.approx(N**3 * r1, rel=1e-12)
