import math

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.integrate import simpson

from gpk.dynamics import (
    GridSpec,
    NonlinearitySpec,
    WaveFunction,
    gaussian_datum,
    time_derivative,
)
from gpk.errors import DomainError
from gpk.kernels import (
    BogoliubovKernels,
    TwoPointKernel,
    _field_moments,
    _lattice_profile,
    bogoliubov_identity_defect,
    build_kt,
    coarsen_field,
    grad1_components,
    grad1_hs_norm,
    grad1_kkbar_hs_norm,
    hyperbolic_series,
    kernel_bound_report,
    kernel_hs_norms,
    pair_distances,
    time_derivative_kt,
    zero_energy_cancellation_residual,
)
from gpk.scattering import RadialPotential, solve_zero_energy


@pytest.fixture(scope="module")
def square_sol():
    V = RadialPotential.square_well(8.0, 1.0)
    return solve_zero_energy(V, 5.0, 4000)


@pytest.fixture(scope="module")
def zero_sol():
    return solve_zero_energy(RadialPotential.zero(), 5.0, 1500)


def kgrid(n=64, L=16.0, dim=1):
    return GridSpec(dim=dim, box_length=L, points_per_axis=n, dt=1e-3, t_final=0.0)


def rank_one_kernel(grid, c, phi):
    vals = c * np.multiply.outer(phi, phi)
    return TwoPointKernel(values=vals, grid=grid)


def normalized_vector(grid, seed=0, real=True):
    rng = np.random.default_rng(seed)
    M = grid.points_per_axis**grid.dim
    v = rng.standard_normal(M)
    if not real:
        v = v + 1j * rng.standard_normal(M)
    v = v / math.sqrt(np.sum(np.abs(v) ** 2) * grid.cell)
    return v


def test_zero_potential_gives_zero_kernel(zero_sol):
    grid = kgrid(n=32)
    phi = gaussian_datum(grid, sigma=1.0)
    k = build_kt(phi, zero_sol, N=4)
    assert np.max(np.abs(k.values)) < 1e-12


def test_kernel_symmetry_exact(square_sol):
    grid = kgrid(n=32)
    phi = gaussian_datum(grid, sigma=1.0)
    k = build_kt(phi, square_sol, N=4)
    assert np.array_equal(k.values, k.values.T)


def test_hs_norm_matches_double_quadrature(square_sol):
    # independent code path: explicit double sum of the defining formula
    grid = kgrid(n=64)
    phi = gaussian_datum(grid, sigma=1.0)
    N = 8
    k = build_kt(phi, square_sol, N)
    direct = 0.0
    f = phi.values.reshape(-1)
    dist = pair_distances(grid)
    from gpk.scattering import scaled_profile

    for i in range(f.size):
        row = -N * scaled_profile(square_sol, N, dist[i]) * f[i] * f
        direct += float(np.sum(np.abs(row) ** 2)) * grid.cell**2
    assert abs(k.hs_norm() - math.sqrt(direct)) < 1e-10 * max(1.0, k.hs_norm())


def test_pointwise_bound(square_sol):
    grid = kgrid(n=64)
    phi = gaussian_datum(grid, sigma=1.0)
    N = 8
    k = build_kt(phi, square_sol, N)
    f = np.abs(phi.values.reshape(-1))
    dist = pair_distances(grid)
    ff = np.multiply.outer(f, f)
    with np.errstate(divide="ignore"):
        cap = np.minimum(N * ff, ff / np.maximum(dist, 1e-300))
    assert np.all(np.abs(k.values) <= cap * (1 + 1e-12))


def test_series_zero_kernel(zero_sol):
    grid = kgrid(n=32)
    phi = gaussian_datum(grid, sigma=1.0)
    k = build_kt(phi, zero_sol, N=4)
    bk = hyperbolic_series(k)
    assert np.max(np.abs(bk.p.values)) < 1e-12
    assert np.max(np.abs(bk.sh.values)) < 1e-12


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0])
def test_rank_one_closed_form(c):
    # (k kbar)^n k collapses to c^(2n+1) phi phi^T for a unit real phi, so
    # sh(k) = sinh(c) phi phi^T and ch(k) = 1 + (cosh(c) - 1) phi phi^T
    grid = kgrid(n=64)
    phi = normalized_vector(grid, seed=1)
    k = rank_one_kernel(grid, c, phi)
    bk = hyperbolic_series(k, tol=1e-16)
    target_sh = math.sinh(c) * np.multiply.outer(phi, phi)
    target_p = (math.cosh(c) - 1.0) * np.multiply.outer(phi, phi)
    assert np.max(np.abs(bk.sh.values - target_sh)) < 1e-10
    assert np.max(np.abs(bk.p.values - target_p)) < 1e-10


def test_series_norm_bounds_random_kernels():
    grid = kgrid(n=32)
    rng = np.random.default_rng(42)
    M = grid.points_per_axis
    for trial in range(20):
        a = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        a = 0.5 * (a + a.T)
        a *= rng.uniform(0.1, 1.5) / (np.linalg.norm(a) * grid.cell)
        k = TwoPointKernel(values=a, grid=grid)
        bk = hyperbolic_series(k)
        bound = math.exp(k.hs_norm())
        assert bk.p.hs_norm() <= bound
        assert bk.r.hs_norm() <= bound
        assert bk.sh.hs_norm() <= bound
        # sh = k + r entrywise by construction
        assert np.array_equal(bk.sh.values, k.values + bk.r.values)


def test_series_tail_certificate():
    grid = kgrid(n=32)
    phi = normalized_vector(grid, seed=3)
    k = rank_one_kernel(grid, 0.8, phi)
    loose = hyperbolic_series(k, tol=1e-6)
    tight = hyperbolic_series(k, tol=1e-15)
    change = np.max(np.abs(tight.sh.values - loose.sh.values)) * grid.cell
    assert change <= loose.truncation_error_bound
    assert tight.series_terms_used >= loose.series_terms_used


def test_bogoliubov_identity(square_sol):
    grid = kgrid(n=32)
    phi = gaussian_datum(grid, sigma=1.0)
    k = build_kt(phi, square_sol, N=4)
    assert bogoliubov_identity_defect(k) < 1e-8
    # complex field too
    vals = phi.values * np.exp(1j * 0.7 * np.arange(32) / 32)
    psi = WaveFunction(values=vals, grid=grid)
    kc = build_kt(psi, square_sol, N=4)
    assert bogoliubov_identity_defect(kc) < 1e-8


def test_pointwise_domination_of_r(square_sol):
    grids = [kgrid(n=64), kgrid(n=128)]
    caps = []
    for grid in grids:
        phi = gaussian_datum(grid, sigma=1.0)
        k = build_kt(phi, square_sol, N=4)
        bk = hyperbolic_series(k)
        f = np.abs(phi.values.reshape(-1))
        ff = np.multiply.outer(f, f)
        caps.append(float(np.max(np.abs(bk.r.values) / ff)))
    assert caps[0] < 10.0
    # constant stable under grid refinement
    assert abs(caps[1] - caps[0]) / caps[0] < 0.2


def test_radial_norms_match_dense_route(square_sol):
    # resolving 1D grid: N dx well under the support, so the dense sampled
    # kernel and the radial reduction see the same continuum object
    grid = kgrid(n=256, L=16.0)
    phi = gaussian_datum(grid, sigma=1.0)
    N = 2
    k = build_kt(phi, square_sol, N)
    l2k, l2g1, sup_slice = kernel_hs_norms(phi, square_sol, N)
    assert abs(k.hs_norm() - l2k) / l2k < 0.02
    dense_g1 = grad1_hs_norm(k)
    assert abs(dense_g1 - l2g1) / l2g1 < 0.05
    slice_norms = np.sqrt(
        np.sum(np.abs(k.values) ** 2, axis=0) * grid.cell
    )
    assert abs(float(np.max(slice_norms)) - sup_slice) / sup_slice < 0.02

    kk = k.compose(k.conj_kernel())
    dense_kk = grad1_hs_norm(kk)
    stream_kk = grad1_kkbar_hs_norm(phi, square_sol, N)
    assert abs(dense_kk - stream_kk) / dense_kk < 0.05


def test_bound_report_flat_in_1d_has_entries(square_sol):
    grid = kgrid(n=128, L=16.0)
    phi = gaussian_datum(grid, sigma=1.0)
    reports = kernel_bound_report(phi, square_sol, [2, 4])
    assert len(reports) == 2
    for rep in reports:
        assert rep.l2_k > 0 and np.isfinite(rep.l2_grad1_k)
        assert rep.pointwise_ratio_max <= 1.0 + 1e-9


def test_time_derivative_kernel_product_rule(square_sol):
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=64, dt=2e-4,
                    t_final=2e-4)
    phi = gaussian_datum(grid, sigma=1.0)
    nl = NonlinearitySpec.modified(square_sol, N=4, grid=grid)
    from gpk.dynamics import evolve

    def kernel_at(psi_state):
        return build_kt(psi_state, square_sol, 4).values

    phi_dot = time_derivative(phi, nl)
    kdot = time_derivative_kt(phi, phi_dot, square_sol, 4)
    assert np.array_equal(kdot.values, kdot.values.T)

    errs = []
    for steps in (1, 2):
        from dataclasses import replace

        h = grid.dt * steps
        g = replace(grid, t_final=h)
        fwd = evolve(phi, nl, g).states[-1]
        bwd = evolve(phi, nl, replace(g, dt=-g.dt, t_final=-h)).states[-1]
        fd = (kernel_at(fwd) - kernel_at(bwd)) / (2 * h)
        errs.append(np.max(np.abs(fd - kdot.values)))
    # central difference converges at second order
    assert errs[1] / errs[0] > 3.0


def test_zero_derivative_gives_zero_kernel(square_sol):
    grid = kgrid(n=32)
    phi = gaussian_datum(grid, sigma=1.0)
    kdot = time_derivative_kt(phi, np.zeros_like(phi.values), square_sol, 4)
    assert np.max(np.abs(kdot.values)) == 0.0


def test_cancellation_residual(square_sol):
    V = square_sol.potential
    assert zero_energy_cancellation_residual(square_sol, V, 1) <= 1e-6
    r1 = zero_energy_cancellation_residual(square_sol, V, 1)
    assert zero_energy_cancellation_residual(square_sol, V, 4) == pytest.approx(
        64 * r1, rel=1e-12
    )
    with pytest.raises(DomainError):
        zero_energy_cancellation_residual(
            square_sol, RadialPotential.square_well(8.0, 1.0), 1
        )


def test_coarsen_field_preserves_smooth_data():
    grid = kgrid(n=128, L=16.0)
    phi = gaussian_datum(grid, sigma=1.5)
    coarse = coarsen_field(phi, 32)
    fine_vals = phi.values[::4]
    assert np.max(np.abs(coarse.values - fine_vals)) < 1e-8


def test_gradient_bound_of_series_terms(square_sol):
    # |grad1 p(k)| and |grad1 r(k)| controlled by e^{|k|} |grad1 (k kbar)|
    grid = kgrid(n=64)
    phi = gaussian_datum(grid, sigma=1.0)
    k = build_kt(phi, square_sol, N=4)
    bk = hyperbolic_series(k)
    kk = k.compose(k.conj_kernel())
    bound = math.exp(k.hs_norm()) * grad1_hs_norm(kk)
    assert grad1_hs_norm(bk.p) <= bound
    assert grad1_hs_norm(bk.r) <= bound


# Reference implementations of the lattice geometry as first written: each
# builds its own mesh, min-image shift and per-axis reshapes.  The shared
# displacement table, per-axis broadcast and spectral gradient must reproduce
# them bit for bit.

def reference_pair_distances(grid):
    coords = np.stack(
        np.meshgrid(*grid.axes(), indexing="ij"), axis=-1
    ).reshape(-1, grid.dim)
    L = grid.box_length
    d2 = np.zeros((coords.shape[0], coords.shape[0]))
    for c in range(grid.dim):
        diff = coords[:, c][:, None] - coords[:, c][None, :]
        diff = diff - L * np.round(diff / L)
        d2 += diff**2
    return np.sqrt(d2)


def reference_lattice_profile(grid, sol, N):
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    L = grid.box_length
    shifted = [m - L * np.round(m / L) for m in mesh]
    dist = np.sqrt(sum(m**2 for m in shifted))
    dist = np.roll(dist, shift=[grid.points_per_axis // 2] * grid.dim,
                   axis=tuple(range(grid.dim)))
    sigma = N * dist
    r_max, a0 = sol.r_grid[-1], sol.a0
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = a0 / np.maximum(sigma, 1e-300)
    vals = N * np.where(sigma <= r_max,
                        np.interp(sigma, sol.r_grid, sol.w, right=0.0), tail)
    d = grid.dim
    omega = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}[d]
    s_eq = N * (grid.cell * d / omega) ** (1.0 / d)
    sgrid = np.linspace(0.0, min(s_eq, r_max), 513)
    integ = simpson(np.interp(sgrid, sol.r_grid, sol.w) * sgrid ** (d - 1), x=sgrid)
    if s_eq > r_max:
        ext = np.linspace(r_max, s_eq, 513)
        integ += simpson((a0 / ext) * ext ** (d - 1), x=ext)
    vals.reshape(-1)[0] = omega * N / (grid.cell * N**d) * integ
    return vals


def reference_field_moments(phi):
    grid = phi.grid
    ks = grid.k_axes()
    spec = sfft.fftn(phi.values)
    g1 = np.zeros(grid.shape)
    j = []
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        grad = sfft.ifftn(spec * (1j * ks[axis]).reshape(shape))
        g1 += np.abs(grad) ** 2
        j.append(np.real(np.conj(phi.values) * grad))
    return np.abs(phi.values) ** 2, g1, j


def reference_grad1_components(kernel):
    grid = kernel.grid
    n, d = grid.points_per_axis, grid.dim
    M, cols = kernel.values.shape
    vals = kernel.values.reshape(grid.shape + (cols,))
    ks = grid.k_axes()
    spec_x = sfft.fftn(vals, axes=tuple(range(d)))
    out = []
    for axis in range(d):
        shape = [1] * (d + 1)
        shape[axis] = n
        comp = sfft.ifftn(spec_x * (1j * ks[axis]).reshape(shape),
                          axes=tuple(range(d)))
        out.append(comp.reshape(M, cols))
    return out


def moving_gaussian(grid):
    """Off-centre Gaussian with a phase ramp: a field with a current."""
    phi = gaussian_datum(grid, sigma=1.0, center=[0.5] * grid.dim)
    ramp = np.exp(0.7j * sum(grid._open_axes(grid.axes()[0])))
    return WaveFunction(values=phi.values * ramp, grid=grid)


@pytest.mark.parametrize("dim,n,L", [(1, 64, 16.0), (2, 16, 12.0), (3, 16, 12.0)])
def test_lattice_geometry_matches_reference(square_sol, dim, n, L):
    grid = kgrid(n=n, L=L, dim=dim)
    assert np.array_equal(pair_distances(grid), reference_pair_distances(grid))
    for N in (2, 8):
        assert np.array_equal(_lattice_profile(grid, square_sol, N, deriv=False),
                              reference_lattice_profile(grid, square_sol, N))
    phi = moving_gaussian(grid)
    for got, ref in zip(_field_moments(phi), reference_field_moments(phi)):
        assert np.array_equal(got, ref)
    # the x-slot derivative acts column by column: at 3D a slab of columns
    # keeps the dense 4096 x 4096 kernel out of the test
    if dim < 3:
        k = build_kt(phi, square_sol, N=2)
    else:
        slab = np.multiply.outer(phi.values.reshape(-1), np.arange(1.0, 9.0))
        k = TwoPointKernel(values=slab, grid=grid)
    for got, ref in zip(grad1_components(k), reference_grad1_components(k)):
        assert np.array_equal(got, ref)


def reflect(values, axis):
    """values[-i mod n] along `axis`."""
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


@pytest.mark.parametrize("dim,n,L", [(1, 128, 16.0), (3, 16, 12.0)])
def test_lattice_profile_parity_under_axis_reflections(square_sol, dim, n, L):
    # w(N|u|) is even in each u_c; the components w'(N|u|) u_c/|u| are odd
    # in u_c and even in the others, so they vanish on the self-mirrored
    # Nyquist plane u_c = -L/2
    grid = kgrid(n=n, L=L, dim=dim)
    W = _lattice_profile(grid, square_sol, 4, deriv=False)
    comps = _lattice_profile(grid, square_sol, 4, deriv=True)
    for axis in range(dim):
        assert np.array_equal(reflect(W, axis), W)
        for c, comp in enumerate(comps):
            sign = -1.0 if c == axis else 1.0
            assert np.array_equal(reflect(comp, axis), sign * comp)
