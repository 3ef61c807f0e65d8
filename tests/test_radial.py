import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import j0, j1

from gpk import radial
from gpk.dynamics import GridSpec, NonlinearitySpec, gaussian_datum
from gpk.errors import DomainError
from gpk.kernels import _profile_extension, kernel_hs_norms
from gpk.radial import (
    _PHASE_CHUNK, _PREFACTOR, RadialTransformTable, _order_one_kernel,
    _phase_sums, _unit_phase, radial_hat,
)
from gpk.scattering import (
    RadialPotential, _simpson_weights, potential_pieces, solve_zero_energy,
)


@pytest.fixture(scope="module")
def square_sol():
    V = RadialPotential.square_well(8.0, 1.0)
    return solve_zero_energy(V, 5.0, 4000)


def kernel_matrix(z, dim, ell):
    """The p x r matrix of the order-`ell` kernel: cos and sin (dim 1), J0
    and J1 (dim 2), j0 and j1 (dim 3).  The reference of `radial_hat`, which
    builds only the J0 one, and of `_order_one_kernel`."""
    if dim == 1:
        return np.cos(z) if ell == 0 else np.sin(z)
    if dim == 2:
        return j0(z) if ell == 0 else j1(z)
    if ell == 0:
        return np.sinc(z / math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z > 1e-8, np.sin(z) / z**2 - np.cos(z) / z, z / 3.0)


def outer_product_simpson(r, g, p, dim, ell=0):
    """The former radial_hat: Simpson over the full p x r integrand."""
    kern = kernel_matrix(np.outer(p, r), dim, ell)
    integrand = kern * (g * r ** (dim - 1))[None, :]
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
@pytest.mark.parametrize("ell", [0])
def test_radial_hat_matches_outer_product_simpson(square_sol, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 20.0, 0.05)
    p = np.linspace(0.0, 12.0, 97)
    for g in (w**2, dw * w):
        ref = outer_product_simpson(sig, g, p, dim, ell)
        got = radial_hat(sig, g, p, dim)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_radial_hat_transforms_a_stack_row_by_row(square_sol):
    sig, w, dw = _profile_extension(square_sol, 12.0, 0.05)
    p = np.linspace(0.0, 8.0, 33)
    for dim in (1, 2, 3):
        stacked = radial_hat(sig, np.stack([w**2, dw**2]), p, dim)
        assert stacked.shape == (2, p.size)
        for row, g in zip(stacked, (w**2, dw**2)):
            single = radial_hat(sig, g, p, dim)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_order_one_kernel_matches_the_kernel_matrix(dim):
    z = np.linspace(0.0, 60.0, 384)
    ref = kernel_matrix(z, dim, 1)
    assert np.max(np.abs(_order_one_kernel(z, dim) - ref)) <= 1e-14
    assert _order_one_kernel(np.zeros(1), dim)[0] == 0.0


@pytest.mark.parametrize("dim", [0, 4])
def test_transforms_refuse_unsupported_dimensions(square_sol, dim):
    sig, w, dw = _profile_extension(square_sol, 8.0, 0.05)
    p = np.linspace(0.0, 4.0, 9)
    with pytest.raises(DomainError, match=f"unsupported dimension {dim}"):
        radial_hat(sig, w**2, p, dim)
    with pytest.raises(DomainError, match=f"unsupported dimension {dim}"):
        _order_one_kernel(p, dim)


def kernel_grid(sol, box_dim, points, length, N, n_p=384):
    """The (sigma, w, w', p / N) on which `kernel_hs_norms` transforms for a
    box_dim-dimensional grid of `points` per axis and side `length`."""
    p_max = math.sqrt(box_dim) * math.pi * points / length * 1.0000001 + 1e-12
    step = max(min(0.025, 2 * math.pi * N / p_max / 24.0), 5e-4)
    sig, w, dw = _profile_extension(sol, N * length / 2, step)
    return sig, w, dw, np.linspace(0.0, p_max, n_p) / N


def long_double_transform(r, g, p, dim):
    """The Simpson-weighted kernel sum with kernel and sum in long double,
    64 momenta at a time."""
    weighted = (g * (_simpson_weights(r) * r ** (dim - 1))).astype(np.longdouble)
    out = np.empty(p.size, dtype=np.longdouble)
    for lo in range(0, p.size, 64):
        z = np.multiply.outer(p[lo : lo + 64].astype(np.longdouble),
                              r.astype(np.longdouble))
        if dim == 1:
            kern = np.cos(z)
        else:
            kern = np.where(z > 0, np.sin(z) / np.where(z > 0, z, 1), 1)
        out[lo : lo + 64] = weighted @ kern.T
    return _PREFACTOR[dim] * out


# the grids of the reference pipeline's kernels stage (128 points on a box
# of length 16 at N = 4, sigma to 32) and of criterion 5 (16^3 box of
# length 12 at N = 32, sigma to 192)
@pytest.mark.parametrize("box", [(1, 128, 16.0, 4), (3, 16, 12.0, 32)])
@pytest.mark.parametrize("dim, ell", [(1, 0), (3, 0)])
def test_radial_hat_round_off_at_most_the_kernel_matrix_one(
        square_sol, box, dim, ell):
    *_, length, N = box
    sig, w, dw, p = kernel_grid(square_sol, *box)
    assert sig[-1] == N * length / 2
    for g in (w**2, dw**2):
        exact = long_double_transform(sig, g, p, dim)
        scale = float(np.max(np.abs(exact)))
        matrix = _PREFACTOR[dim] * (
            (g * (_simpson_weights(sig) * sig ** (dim - 1)))
            @ kernel_matrix(np.outer(p, sig), dim, ell).T)
        err_matrix = float(np.max(np.abs(matrix - exact))) / scale
        err = float(np.max(np.abs(radial_hat(sig, g, p, dim) - exact))) / scale
        assert err <= err_matrix


@pytest.mark.parametrize("n_p", [1, 2, 5])
@pytest.mark.parametrize("dim, ell", [(1, 0), (3, 0)])
def test_radial_hat_on_short_momentum_grids(square_sol, n_p, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 20.0, 0.05)
    p = np.linspace(0.3, 7.0, n_p)
    ref = outer_product_simpson(sig, w**2, p, dim, ell)
    got = radial_hat(sig, w**2, p, dim)
    assert got.shape == (n_p,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, ell", [(1, 0), (3, 0), (2, 0)])
def test_radial_hat_rejects_non_uniform_momenta(square_sol, dim, ell):
    sig, w, dw = _profile_extension(square_sol, 8.0, 0.05)
    p = np.linspace(0.0, 4.0, 9) ** 2
    with pytest.raises(DomainError, match="uniformly spaced"):
        radial_hat(sig, w**2, p, dim)


def test_radial_hat_builds_no_momentum_by_radius_matrix(square_sol):
    sig, w, dw, p = kernel_grid(square_sol, 1, 128, 16.0, 4)
    assert (p.size, sig.size) == (384, 5081)
    radial_hat(sig, w**2, p, 1)
    tracemalloc.start()
    try:
        radial_hat(sig, w**2, p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * p.size * sig.size * 8


def test_phase_sums_hold_no_whole_phase_table(square_sol):
    # the kernel grid's two rows, w^2 and w'^2: the phase tables are built a
    # few radius blocks at a time, so the peak (the two rows' block sums
    # and one piece of the tables) stays below one whole table of
    # 2 ceil(sqrt(n_p)) x n_r phases, which alone was 3.3 MB of a 6.1 MB peak
    sig, w, dw, p = kernel_grid(square_sol, 1, 128, 16.0, 4)
    rows = np.stack([w**2, dw**2])
    stride = math.isqrt(p.size - 1) + 1
    whole_table = 2 * stride * sig.size * 16
    radial_hat(sig, rows, p, 3)
    tracemalloc.start()
    try:
        radial_hat(sig, rows, p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_table


def test_kernel_norms_hold_no_momentum_by_radius_matrix(square_sol):
    # criterion 5's largest N: the j1 kernel matrix at the former step,
    # 384 x 7741 float64, was 24 MB
    grid = GridSpec(dim=3, box_length=12.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    phi = gaussian_datum(grid, sigma=1.0)
    kernel_hs_norms(phi, square_sol, 32)
    tracemalloc.start()
    try:
        kernel_hs_norms(phi, square_sol, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 384 * 7741 * 8


def test_phase_sums_of_a_stack_equal_single_row_calls_bit_for_bit(square_sol):
    sig, w, dw, p = kernel_grid(square_sol, 1, 128, 16.0, 4)
    stack = np.stack([w**2, dw**2, dw * w]) * _simpson_weights(sig)
    stacked = _phase_sums(sig, stack, p)
    assert stacked.shape == (3, p.size)
    for row, c in zip(stacked, stack):
        assert np.array_equal(row, _phase_sums(sig, c, p))


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


# the interaction tables of the reference pipeline (1D, 256 points on a box
# of length 16) and of criterion 5 (16^3 box of length 12), each sampled at
# |k| / N for the N its runs take
@pytest.mark.parametrize("dim, points, length, Ns", [
    (1, 256, 16.0, (1, 2, 8, 16, 32, 64)),
    (3, 16, 12.0, (1, 4, 32, 1000)),
])
def test_interaction_table_spline_matches_scipy_bit_for_bit(
        square_sol, dim, points, length, Ns):
    grid = GridSpec(dim=dim, box_length=length, points_per_axis=points,
                    dt=1e-3, t_final=0.0)
    table = NonlinearitySpec.modified(square_sol, N=1, grid=grid).uhat
    spline = CubicSpline(table.p, table.values)
    assert np.array_equal(table._coefficients, spline.c)
    kabs = np.sqrt(grid.k_squared())
    rng = np.random.default_rng(13)
    for p in (*(kabs / N for N in Ns), table.p, table.p[[0, -1]],
              rng.uniform(0.0, table.p[-1], 10_000)):
        assert np.array_equal(table(p), spline(p))


@pytest.mark.parametrize("p, what", [
    (np.linspace(0.0, 1.0, 3), "at least 4"),
    (np.linspace(1.0, 0.0, 8), "strictly increasing"),
    (np.array([0.0, 1.0, 2.0, np.inf]), "finite, strictly"),
    (np.array([0.0, 1.0, np.nan, 3.0]), "finite, strictly"),
    (np.linspace(0.0, 2.0, 9) ** 2, "uniformly spaced"),
], ids=["three", "decreasing", "inf", "nan", "non-uniform"])
def test_spline_table_refuses_bad_momenta(p, what):
    with pytest.raises(DomainError, match=what):
        RadialTransformTable(p=p, values=np.ones(p.size))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spline_table_refuses_non_finite_values(bad):
    values = np.ones(8)
    values[3] = bad
    with pytest.raises(DomainError, match="finite values"):
        RadialTransformTable(p=np.linspace(0.0, 1.0, 8), values=values)


def test_spline_table_refuses_momenta_beyond_its_range():
    table = RadialTransformTable(p=np.linspace(0.0, 2.0, 8),
                                 values=np.linspace(1.0, 0.0, 8))
    assert table(np.array([-2.0, 2.0])).shape == (2,)
    with pytest.raises(DomainError, match="outside the tabulated range"):
        table(np.array([1.0, 2.001]))


def phase_errors(angle):
    """The largest error of `_unit_phase(angle)` in cos or sin against long
    double, and the unitarity defects cos^2 + sin^2 - 1 (in long double)."""
    got = _unit_phase(angle)
    exact = angle.astype(np.longdouble)
    cos, sin = got.real.astype(np.longdouble), got.imag.astype(np.longdouble)
    err = max(np.max(np.abs(cos - np.cos(exact))),
              np.max(np.abs(sin - np.sin(exact))))
    return float(err), (cos**2 + sin**2 - 1).astype(float)


@pytest.mark.parametrize("scale", [1e-9, 5e-5])
def test_unit_phase_of_kick_size_angles_rounds_as_cos_and_sin(scale):
    # |dt V| of a split step is below about 5e-5 on the 64^3 grid of
    # criterion 3: there 1 - t^2 r rounds like cos
    angle = np.random.default_rng(21).uniform(-scale, scale, 1 << 18)
    err, defect = phase_errors(angle)
    assert err <= 6e-17
    assert np.max(np.abs(defect)) <= 1.2e-16


@pytest.mark.parametrize("low, high", [(-math.pi, math.pi), (290.0, 300.0),
                                       (-300.0, -290.0)])
def test_unit_phase_of_any_angle_is_accurate_and_unbiased(low, high):
    # drift phases reach hundreds of radians; a biased cos^2 + sin^2 would
    # move the norm of a run by the bias at every step
    angle = np.random.default_rng(22).uniform(low, high, 1 << 18)
    err, defect = phase_errors(angle)
    assert err <= 5e-16
    assert np.max(np.abs(defect)) <= 1e-15
    assert abs(np.mean(defect)) <= 1e-17


def test_unit_phase_at_odd_multiples_of_pi():
    # tan(angle / 2) is about 1e16 there, not infinite: no RuntimeWarning
    # (the test configuration makes one an error) and a phase of -1
    angle = (2 * np.arange(-200, 200) + 1) * math.pi
    err, defect = phase_errors(angle)
    assert err <= 5e-16
    assert np.max(np.abs(defect)) <= 1e-15


@pytest.mark.parametrize("size", [_PHASE_CHUNK - 1, _PHASE_CHUNK,
                                  _PHASE_CHUNK + 1])
def test_unit_phase_is_the_same_bits_in_any_chunking(size):
    rng = np.random.default_rng(size)
    angle = rng.uniform(-4.0, 4.0, (3, size))
    factor = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
    stacked = _unit_phase(angle)
    for row, a in zip(stacked, angle):
        assert np.array_equal(row, _unit_phase(a))
    assert np.array_equal(_unit_phase(angle, factor), stacked * factor)
    for row, a, f in zip(stacked, angle, factor):
        assert np.array_equal(_unit_phase(a, f), row * f)
    # a factor broadcast over the leading axis
    datum = factor[0]
    assert np.array_equal(_unit_phase(angle, np.broadcast_to(datum, angle.shape)),
                          stacked * datum)


@pytest.mark.parametrize("shape", [(1000,), (3, _PHASE_CHUNK + 5)],
                         ids=["1D", "chunked-stack"])
def test_unit_phase_scale_is_the_scaled_angle_to_the_bit(shape):
    # the kick passes -dt as the scale instead of scaling the potential: the
    # half-angle product by scale / 2 rounds as the product by scale does
    rng = np.random.default_rng(len(shape))
    angle = rng.uniform(-30.0, 30.0, shape)
    factor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for scale in (-2.5e-4, 0.37, -1.0):
        assert np.array_equal(_unit_phase(angle, factor, scale),
                              _unit_phase(angle * scale, factor))
        assert np.array_equal(_unit_phase(angle, None, scale),
                              _unit_phase(angle * scale))


def test_unit_phase_past_one_chunk_refuses_an_out_that_is_not_c_contiguous():
    # its flat view would be a reshape copy, and the writes would be lost
    angle = np.ones((2 * _PHASE_CHUNK, 2))
    out = np.zeros(angle.shape, dtype=complex, order="F")
    with pytest.raises(DomainError, match="C-contiguous"):
        _unit_phase(angle, out=out)
    small = np.zeros((_PHASE_CHUNK // 2, 2), dtype=complex, order="F")
    assert np.array_equal(_unit_phase(angle[:len(small)], out=small),
                          _unit_phase(angle[:len(small)]))
