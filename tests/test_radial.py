import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from gpk import radial
from gpk.errors import DomainError
from gpk.kernels import _profile_extension
from gpk.radial import (
    _PREFACTOR, _angular_kernel, _measure, _phase_sums, _simpson_weights,
    radial_hat,
)
from gpk.scattering import RadialPotential, potential_pieces, solve_zero_energy


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


def kernel_grid(sol, box_dim, points, length, N, n_p=384):
    """The (sigma, w, w', p / N) on which `kernel_hs_norms` transforms for a
    box_dim-dimensional grid of `points` per axis and side `length`."""
    p_max = math.sqrt(box_dim) * math.pi * points / length * 1.0000001 + 1e-12
    step = max(min(0.05, 2 * math.pi * N / p_max / 12.0), 1e-3)
    sig, w, dw = _profile_extension(sol, N * length / 2, step)
    return sig, w, dw, np.linspace(0.0, p_max, n_p) / N


def long_double_transform(r, g, p, dim, ell):
    """The Simpson-weighted kernel sum with kernel and sum in long double."""
    weighted = (g * (_simpson_weights(r) * _measure(r, dim))).astype(np.longdouble)
    z = np.multiply.outer(p.astype(np.longdouble), r.astype(np.longdouble))
    if dim == 1:
        kern = np.cos(z) if ell == 0 else np.sin(z)
    else:
        kern = np.where(z > 0, np.sin(z) / np.where(z > 0, z, 1), 1)
    return _PREFACTOR[dim] * (weighted @ kern.T)


# the grids of the reference pipeline's kernels stage (128 points on a box
# of length 16 at N = 4, sigma to 32) and of criterion 5 (16^3 box of
# length 12 at N = 32, sigma to 192)
@pytest.mark.parametrize("box", [(1, 128, 16.0, 4), (3, 16, 12.0, 32)])
@pytest.mark.parametrize("dim, ell", [(1, 0), (1, 1), (3, 0)])
def test_radial_hat_round_off_at_most_the_kernel_matrix_one(
        square_sol, box, dim, ell):
    *_, length, N = box
    sig, w, dw, p = kernel_grid(square_sol, *box)
    assert sig[-1] == N * length / 2
    for g in ((w**2, dw**2) if ell == 0 else (dw * w,)):
        exact = long_double_transform(sig, g, p, dim, ell)
        scale = float(np.max(np.abs(exact)))
        matrix = _PREFACTOR[dim] * (
            (g * (_simpson_weights(sig) * _measure(sig, dim)))
            @ _angular_kernel(np.outer(p, sig), dim, ell).T)
        err_matrix = float(np.max(np.abs(matrix - exact))) / scale
        err = float(np.max(np.abs(radial_hat(sig, g, p, dim, ell) - exact))) / scale
        assert err <= err_matrix


@pytest.mark.parametrize("n_p", [1, 2, 5])
@pytest.mark.parametrize("dim, ell", [(1, 0), (1, 1), (3, 0)])
def test_radial_hat_on_short_momentum_grids(square_sol, n_p, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 20.0, 0.05)
    p = np.linspace(0.3, 7.0, n_p)
    ref = outer_product_simpson(sig, w**2, p, dim, ell)
    got = radial_hat(sig, w**2, p, dim, ell)
    assert got.shape == (n_p,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, ell", [(1, 0), (3, 0), (3, 1)])
def test_radial_hat_rejects_non_uniform_momenta(square_sol, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 8.0, 0.05)
    p = np.linspace(0.0, 4.0, 9) ** 2
    with pytest.raises(DomainError, match="uniformly spaced"):
        radial_hat(sig, w**2, p, dim, ell)


def test_radial_hat_builds_no_momentum_by_radius_matrix(square_sol):
    sig, w, dw, p = kernel_grid(square_sol, 1, 128, 16.0, 4)
    assert (p.size, sig.size) == (384, 4541)
    radial_hat(sig, w**2, p, 1)
    tracemalloc.start()
    try:
        radial_hat(sig, w**2, p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * p.size * sig.size * 8


def test_phase_sums_of_a_stack_equal_single_row_calls_bit_for_bit(square_sol):
    sig, w, dw, p = kernel_grid(square_sol, 1, 128, 16.0, 4)
    stack = np.stack([w**2, dw**2, dw * w]) * _simpson_weights(sig)
    stacked = _phase_sums(sig, stack, p)
    assert stacked.shape == (3, p.size)
    for row, c in zip(stacked, stack):
        assert np.array_equal(row, _phase_sums(sig, c, p))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_hat_takes_one_order_per_row(square_sol, dim):
    sig, w, dw = _profile_extension(square_sol, 20.0, 0.05)
    p = np.linspace(0.0, 12.0, 97)
    got = radial_hat(sig, np.stack([w**2, dw * w, dw**2]), p, dim, ell=[0, 1, 0])
    for row, g, ell in zip(got, (w**2, dw * w, dw**2), (0, 1, 0)):
        single = radial_hat(sig, g, p, dim, ell)
        assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("ell", [2, -1, 0.5, [0, 2]])
def test_radial_hat_rejects_orders_other_than_0_and_1(square_sol, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 8.0, 0.05)
    p = np.linspace(0.0, 4.0, 9)
    with pytest.raises(DomainError, match="ell 0 or 1"):
        radial_hat(sig, np.stack([w**2, dw**2]), p, dim, ell)


@pytest.mark.parametrize("dim", [1, 3])
def test_interaction_table_skips_pieces_where_V_is_zero(
        square_sol, dim, monkeypatch):
    # the square well is zero beyond its radius: transforming that piece
    # adds zeros, so the table is the sum over the other pieces, bit for bit
    r = square_sol.r_grid
    p = np.linspace(0.0, 25.0, 512)
    pieces = list(potential_pieces(square_sol.potential, r))
    assert [bool(np.any(v)) for _, _, v in pieces] == [True, False]
    full = np.zeros(p.size)
    for lo, hi, v in pieces:
        full += radial_hat(r[lo : hi + 1], v * square_sol.f[lo : hi + 1], p, dim)
    calls = []
    monkeypatch.setattr(radial, "radial_hat",
                        lambda *a, **k: calls.append(a) or radial_hat(*a, **k))
    table = radial.tabulate_interaction_transform(square_sol, dim, 25.0)
    assert len(calls) == 1
    assert np.array_equal(table.values, full)
