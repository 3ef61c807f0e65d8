import numpy as np
import pytest
from scipy.integrate import simpson

from gpk.kernels import _profile_extension
from gpk.radial import (
    _PREFACTOR, _angular_kernel, _measure, _simpson_weights, radial_hat,
)
from gpk.scattering import RadialPotential, solve_zero_energy


@pytest.fixture(scope="module")
def square_sol():
    V = RadialPotential.square_well(8.0, 1.0)
    return solve_zero_energy(V, 5.0, 4000)


def outer_product_simpson(r, g, p, dim, ell=0):
    """The former radial_hat: Simpson over the full p x r integrand."""
    kern = _angular_kernel(np.outer(p, r), dim, ell)
    integrand = kern * (g * _measure(r, dim))[None, :]
    return _PREFACTOR[dim] * simpson(integrand, x=r, axis=1)


def assert_weights_match_simpson(x, rng):
    w = _simpson_weights(x)
    for _ in range(3):
        y = rng.uniform(0.5, 1.5, x.size)
        ref = simpson(y, x=x)
        assert w @ y == pytest.approx(ref, rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [3, 4, 5, 4001, 4264])
def test_simpson_weights_match_scipy_on_uniform_grids(n):
    rng = np.random.default_rng(n)
    assert_weights_match_simpson(np.linspace(0.0, 3.7, n), rng)
    assert_weights_match_simpson(np.sort(rng.uniform(0.0, 5.0, n)), rng)


def test_simpson_weights_match_scipy_on_the_joined_profile_grid(square_sol):
    # solved grid, then the coarser a0/sigma tail: unequal pairs at the join
    rng = np.random.default_rng(7)
    parities = set()
    for sigma_max in (16.0, 16.05, 32.0, 32.05):
        sig, _, _ = _profile_extension(square_sol, sigma_max, 0.05)
        parities.add(sig.size % 2)
        assert_weights_match_simpson(sig, rng)
    assert parities == {0, 1}


def test_simpson_weights_two_points_is_the_trapezoid():
    assert _simpson_weights(np.array([1.0, 3.0])) @ np.array([2.0, 4.0]) == \
        simpson(np.array([2.0, 4.0]), x=np.array([1.0, 3.0]))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("ell", [0, 1])
def test_radial_hat_matches_outer_product_simpson(square_sol, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 20.0, 0.05)
    p = np.linspace(0.0, 12.0, 97)
    for g in (w**2, dw * w):
        ref = outer_product_simpson(sig, g, p, dim, ell)
        got = radial_hat(sig, g, p, dim, ell)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_radial_hat_transforms_a_stack_row_by_row(square_sol):
    sig, w, dw = _profile_extension(square_sol, 12.0, 0.05)
    p = np.linspace(0.0, 8.0, 33)
    stacked = radial_hat(sig, np.stack([w**2, dw**2]), p, 1)
    assert stacked.shape == (2, p.size)
    for row, g in zip(stacked, (w**2, dw**2)):
        single = radial_hat(sig, g, p, 1)
        assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))
