import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from gpk.errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    NumericalBlowupError,
    TruncationBudgetError,
)
from gpk.fock import (
    ReducedDensity,
    ToyScenario,
    _displaced_densities,
    annihilator_of,
    apply_bogoliubov,
    apply_weyl,
    bogoliubov_conjugation_residual,
    build_basis,
    basis_dimension,
    check_TNT_inequality,
    check_weyl_relations,
    generator_cancellation_check,
    hamiltonian,
    ladder,
    mean_field_trajectory,
    number_expectation,
    poisson_shell_mass,
    top_shell_share,
    toy_convergence_study,
    trace_distance_to_rank_one,
    vacuum,
)
from gpk.kernels import ch_sh_series


# References the tests compare against: the lab-frame dynamics, product
# states, and the reduced density of an undisplaced state.

def evolve_state(H, psi, t):
    """e^{-i H t} psi by scipy's action on the CSR matrix of H."""
    if t == 0:
        return psi
    return expm_multiply(-1j * t * sp.csr_matrix(H.toarray()), psi)


def coherent_state(basis, f):
    return apply_weyl(basis, f, vacuum(basis))

def fluctuation_dynamics(basis, H, phi_traj, K_traj, psi, t, leakage_tol=1e-6):
    """Five-factor fluctuation map applied to psi:

        T^dag(K_t) W^dag(f_t) e^{-iHt} W(f_0) T(K_0) psi

    phi_traj returns the Weyl argument f_t (already carrying the sqrt(N)
    amplitude); K_traj may be None for the uncorrelated ansatz.  Shell
    leakage past the cutoff is checked after every factor and, above the
    tolerance, raises naming the factor.
    """
    def checked(vec, name):
        leak = top_shell_share(basis, vec)
        if leak > leakage_tol:
            raise TruncationBudgetError(
                f"truncation leakage {leak:.3e} after factor {name}"
            )
        return vec

    state = psi
    if K_traj is not None:
        state = checked(apply_bogoliubov(basis, K_traj(0.0), state), "T(k_0)")
    state = checked(apply_weyl(basis, phi_traj(0.0), state), "W(f_0)")
    state = checked(evolve_state(H, state, t), "exp(-iHt)")
    state = checked(apply_weyl(basis, -phi_traj(t), state), "W*(f_t)")
    if K_traj is not None:
        state = checked(apply_bogoliubov(basis, -K_traj(t), state), "T*(k_t)")
    return state


def product_state(basis, phi, n):
    """The symmetric n-particle product state of the normalized orbital phi."""
    phi = np.asarray(phi, dtype=complex)
    assert abs(np.linalg.norm(phi) - 1.0) <= 1e-10 and n <= basis.n_max
    c = np.zeros(basis.dim, dtype=complex)
    sl = basis.shell_slices[n]
    for i in range(sl.start, sl.stop):
        occ = basis.occupations[i]
        amp = math.sqrt(math.factorial(n))
        for ni in occ:
            amp /= math.sqrt(math.factorial(int(ni)))
        c[i] = amp * np.prod(phi ** occ)
    return c


def reduced_density(basis, psi):
    """Gamma_ij = <psi, a_j^dag a_i psi> / <psi, N psi>, by the moments the
    toy study reads its densities from, at zero displacement."""
    (gamma,) = _displaced_densities(basis, psi[:, None], np.zeros((1, basis.d)))
    return gamma


def occupation_index(basis):
    """Occupation tuple -> flat index."""
    return {tuple(map(int, occ)): i for i, occ in enumerate(basis.occupations)}


def test_basis_dimensions_and_order():
    assert build_basis(1, 3).dim == 4
    b = build_basis(2, 2)
    assert b.dim == 6
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(o) for o in b.occupations] == expected
    assert build_basis(3, 4).dim == 35
    assert basis_dimension(3, 4) == sum(math.comb(n + 2, 2) for n in range(5))


def test_basis_budget():
    with pytest.raises(ConfigurationError):
        build_basis(6, 40)


def test_vacuum_annihilation_and_matrix_elements():
    b = build_basis(1, 6)
    a, ad = ladder(b, 0)
    assert np.all(a @ vacuum(b) == 0)
    dense = a.toarray()
    for n in range(1, 7):
        assert dense[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.allclose(ad.toarray(), dense.conj().T)


def loop_built_annihilator(basis, mode):
    """One sqrt(n) entry per state, its target row looked up by occupation."""
    index = occupation_index(basis)
    rows, cols, vals = [], [], []
    for col, occ in enumerate(basis.occupations):
        if occ[mode] == 0:
            continue
        target = occ.copy()
        target[mode] -= 1
        rows.append(index[tuple(map(int, target))])
        cols.append(col)
        vals.append(math.sqrt(occ[mode]))
    return sp.csr_matrix((np.array(vals), (rows, cols)),
                         shape=(basis.dim, basis.dim), dtype=complex)


# (70, 1): a wide basis, whose mixed-radix occupation keys overflow int64
@pytest.mark.parametrize("d, n_max", [(1, 12), (2, 9), (3, 6), (70, 1)])
def test_cached_ladders_equal_loop_built_ones(d, n_max):
    b = build_basis(d, n_max)
    ann, cre = b.ladders
    for mode in range(d):
        ref = loop_built_annihilator(b, mode)
        assert np.array_equal(ann[mode].toarray(), ref.toarray())
        assert np.array_equal(cre[mode].toarray(), ref.conj().T.toarray())
        a, ad = ladder(b, mode)
        assert np.array_equal(a.toarray(), ref.toarray())
        assert np.array_equal(ad.toarray(), cre[mode].toarray())
    again, _ = b.ladders
    assert all(x is y for x, y in zip(ann, again))  # built once per basis


def test_cached_ladders_are_read_only():
    ann, cre = build_basis(2, 5).ladders
    for op in (ann[0], cre[1]):
        for arr in (op.src, op.weight):
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def test_mode_products_are_the_ladder_products_built_once():
    b = build_basis(3, 6)
    ann, cre = b.ladders
    cubics = []
    for i, products in enumerate(b.mode_products):
        a, ad = ann[i], cre[i]
        want = (ad @ a, ad @ ad, a @ a, ad @ ad @ a, ad @ a @ a)
        for got, ref in zip(products, want, strict=True):
            assert np.array_equal(got.toarray(), ref.toarray())
            with pytest.raises(ValueError):
                got.weight[0] = got.weight[0]
        cubics += [m.toarray() for m in products[3:]]
    assert b.mode_products is b.mode_products
    # the cubic products of all modes have disjoint sparsity, so a weighted
    # sum of them is exact term by term
    pattern = sum(m != 0 for m in cubics)
    assert pattern.max() == 1
    assert np.count_nonzero(pattern) == sum(np.count_nonzero(m) for m in cubics)


def test_annihilation_bounded_by_number_operator():
    # |a(f) psi| <= |f| |N^(1/2) psi| on 50 random states
    b = build_basis(2, 8)
    rng = np.random.default_rng(11)
    totals = b.totals()
    for _ in range(50):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        psi /= np.linalg.norm(psi)
        af = annihilator_of(b, f)
        lhs = np.linalg.norm(af @ psi)
        rhs = np.linalg.norm(f) * np.linalg.norm(np.sqrt(totals) * psi)
        assert lhs <= rhs + 1e-12


def test_ccr_exact_below_cutoff():
    # exact up to the float representation of sqrt(n) products
    b = build_basis(2, 6)
    ann, cre = b.ladders
    below = b.totals() < b.n_max
    for i in range(2):
        for j in range(2):
            comm = (ann[i] @ cre[j]
                    - cre[j] @ ann[i]).toarray()
            expected = (1.0 if i == j else 0.0) * np.eye(b.dim)
            assert np.max(np.abs((comm - expected)[:, below])) < 1e-13


def test_hamiltonian_free_single_particle_block():
    b = build_basis(2, 4)
    h = np.array([[0.5, -1.0], [-1.0, 0.3]])
    H = hamiltonian(b, h)
    block = H.toarray()[b.shell_slices[1], b.shell_slices[1]]
    assert np.allclose(block, h)


def _tensor_hamiltonian(basis, h, v, coupling):
    """The former d^4-tensor build of the Hamiltonian, kept as the reference
    for the on-site weights."""
    h = np.asarray(h, dtype=complex)
    v = np.asarray(v, dtype=complex)
    ann, cre = ([sp.csr_matrix(op.toarray()) for op in ops]
                for ops in basis.ladders)
    terms = [(h[i, j], cre[i] @ ann[j])
             for i, j in zip(*np.nonzero(h))]
    terms += [(0.5 * coupling * v[i, j, k, l],
               cre[i] @ cre[j] @ ann[k] @ ann[l])
              for i, j, k, l in zip(*np.nonzero(v))]
    m = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for coeff, mat in terms:
        m = m + coeff * mat
    return m.tocsr()


def _onsite_tensor(u):
    d = len(u)
    v = np.zeros((d, d, d, d))
    for i in range(d):
        v[i, i, i, i] = u[i]
    return v


def _random_toy(d, seed):
    """Hermitian h, on-site weights u (one zero at d = 3) and a unit phi0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = rng.uniform(0.2, 1.5, d)
    if d == 3:
        u[1] = 0.0
    phi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    return 0.5 * (a + a.conj().T), u, phi0 / np.linalg.norm(phi0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hamiltonian_weights_equal_the_tensor_build(d):
    h, u, _ = _random_toy(d, d)
    b = build_basis(d, 6)
    H = hamiltonian(b, h, u, coupling=0.7)
    ref = _tensor_hamiltonian(b, h, _onsite_tensor(u), 0.7)
    assert np.array_equal(H.toarray(), ref.toarray())


def test_hamiltonian_rejects_weights_of_the_wrong_length():
    with pytest.raises(DomainError, match="d = 2"):
        hamiltonian(build_basis(2, 3), np.eye(2), [1.0, 1.0, 1.0], coupling=0.5)


def test_hamiltonian_commutes_with_number():
    b = build_basis(2, 5)
    h = np.array([[0.0, -1.0], [-1.0, 0.5]])
    H = hamiltonian(b, h, np.array([1.0, 1.0]), coupling=0.7)
    dense, n = H.toarray(), b.totals().astype(float)
    comm = dense * n[None, :] - n[:, None] * dense  # [H, N] with N diagonal
    assert np.max(np.abs(comm)) == 0.0


def test_bose_hubbard_ground_energy_oracle():
    # independent dense assembly in the occupation basis
    J, U = 1.0, 0.6
    b = build_basis(2, 4)
    h = np.array([[0.0, -J], [-J, 0.0]])
    u = np.array([1.0, 1.0])
    H = hamiltonian(b, h, u, coupling=U)

    dense = np.zeros((b.dim, b.dim))
    index = occupation_index(b)
    occs = [tuple(map(int, o)) for o in b.occupations]
    for col, occ in enumerate(occs):
        n1, n2 = occ
        dense[col, col] += 0.5 * U * (n1 * (n1 - 1) + n2 * (n2 - 1))
        if n1 > 0 and n2 + 1 <= 4:
            row = index[(n1 - 1, n2 + 1)]
            dense[row, col] += -J * math.sqrt(n1 * (n2 + 1))
        if n2 > 0 and n1 + 1 <= 4:
            row = index[(n1 + 1, n2 - 1)]
            dense[row, col] += -J * math.sqrt(n2 * (n1 + 1))
    # compare within the conserved 4-particle sector
    sector = b.shell_slices[4]
    e1 = np.linalg.eigvalsh(H.toarray()[sector, sector].real)
    e2 = np.linalg.eigvalsh(dense[sector, sector])
    assert abs(e1[0] - e2[0]) < 1e-10


def test_weyl_identity_and_components():
    b = build_basis(2, 12)
    W = apply_weyl(b, np.zeros(2), np.eye(b.dim))
    assert np.max(np.abs(W.conj().T @ W - np.eye(b.dim))) < 1e-12
    assert np.allclose(W, np.eye(b.dim))

    f = np.array([0.6 + 0.2j, -0.3j])
    state = coherent_state(b, f)
    mu = float(np.sum(np.abs(f) ** 2))
    for idx, occ in enumerate(b.occupations):
        n1, n2 = map(int, occ)
        if n1 + n2 > 6:
            continue
        expected = (
            math.exp(-mu / 2.0)
            * f[0] ** n1
            * f[1] ** n2
            / math.sqrt(math.factorial(n1) * math.factorial(n2))
        )
        assert abs(state[idx] - expected) < 1e-10


def test_coherent_occupation_is_poisson():
    b = build_basis(2, 14)
    f = np.array([0.8, 0.5 + 0.4j])
    state = coherent_state(b, f)
    mu = float(np.sum(np.abs(f) ** 2))
    for n in range(8):
        assert np.sum(np.abs(state[b.shell_slices[n]]) ** 2) == pytest.approx(
            poisson_shell_mass(mu, n), abs=1e-10
        )
    # expected number of particles
    assert number_expectation(b, state) == pytest.approx(mu, abs=1e-8)


def test_weyl_budget_error():
    b = build_basis(1, 8)
    with pytest.raises(TruncationBudgetError):
        apply_weyl(b, np.array([2.0]), vacuum(b))


@pytest.mark.parametrize("f", [[np.nan, 0.0], [0.0, complex(0.0, np.nan)],
                               [np.inf, 0.0]], ids=["nan", "nan-imag", "inf"])
def test_a_non_finite_weyl_vector_is_refused_by_the_poisson_budget(f):
    # a NaN passed `mean > budget` and died later as a bare ValueError
    b = build_basis(2, 8)
    with pytest.raises(TruncationBudgetError, match="Poisson budget"):
        apply_weyl(b, f, vacuum(b))


@pytest.mark.parametrize("f", [[0.1, 0.2, 0.9], [0.1]], ids=["3", "1"])
def test_weyl_vectors_need_one_entry_per_mode(f):
    # an f of another length than d is refused, not cut to d or read as
    # acting on its first modes
    b = build_basis(2, 8)
    for call in (lambda: annihilator_of(b, f),
                 lambda: apply_weyl(b, f, vacuum(b)),
                 lambda: check_weyl_relations(b, f, np.zeros(2)),
                 lambda: check_weyl_relations(b, np.zeros(2), f)):
        with pytest.raises(DomainError, match="d = 2 entries"):
            call()


def test_real_f_and_k_give_real_orthogonal_unitaries():
    b = build_basis(2, 12)
    f = np.array([0.3, -0.2])
    K = np.array([[0.1, 0.05], [0.05, -0.08]])
    eye = np.eye(b.dim)
    for apply, x in ((apply_weyl, f), (apply_bogoliubov, K)):
        # the unitary as the action on the identity block
        real, cplx = apply(b, x, eye), apply(b, x.astype(complex), eye)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.max(np.abs(real - cplx)) <= 1e-15
        assert np.max(np.abs(real.T @ real - eye)) <= 1e-14
        # a complex state takes the complex result
        assert apply(b, x, eye.astype(complex)).dtype == np.complex128
    # a dense operator takes the dtype of its weights
    assert annihilator_of(b, f).toarray().dtype == np.float64
    assert annihilator_of(b, f + 0.1j).toarray().dtype == np.complex128


def test_apply_weyl_matches_dense():
    import gpk.fock as fock

    b = build_basis(2, 10)
    f = np.array([0.4, -0.3 + 0.5j])
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    psi /= np.linalg.norm(psi)
    dense = expm(fock._weyl_generator(b, f).toarray()) @ psi
    krylov = apply_weyl(b, f, psi)
    assert np.max(np.abs(dense - krylov)) < 1e-9


def test_bogoliubov_identity_and_squeezed_number():
    b = build_basis(1, 40)
    assert np.allclose(apply_bogoliubov(b, np.zeros((1, 1)), np.eye(b.dim)),
                       np.eye(b.dim))
    for r in (0.1, 0.5):
        K = np.array([[r]])
        sq = apply_bogoliubov(b, K, vacuum(b))
        assert number_expectation(b, sq) == pytest.approx(math.sinh(r) ** 2,
                                                          abs=1e-8)


def test_apply_bogoliubov_matches_dense():
    import gpk.fock as fock

    b = build_basis(2, 10)
    K = np.array([[0.2, 0.1], [0.1, -0.15]])
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    psi /= np.linalg.norm(psi)
    dense = expm(fock._bogoliubov_generator(b, K).toarray()) @ psi
    krylov = apply_bogoliubov(b, K, psi)
    assert np.max(np.abs(dense - krylov)) < 1e-9


def test_bogoliubov_budget():
    b = build_basis(1, 20)
    with pytest.raises(TruncationBudgetError):
        apply_bogoliubov(b, np.array([[2.0]]), vacuum(b))
    with pytest.raises(DomainError):
        b2 = build_basis(2, 8)
        apply_bogoliubov(b2, np.array([[0.0, 0.3], [0.1, 0.0]]), vacuum(b2))


def test_bogoliubov_conjugation():
    # at a fixed cutoff gap the truncation defect scales like (|K| n_max)^4,
    # so the tight tolerance needs a small kernel; a moderate kernel is
    # checked at the matching coarser tolerance
    b = build_basis(2, 12)
    K_small = np.array([[0.004, 0.0015], [0.0015, -0.003]], dtype=complex)
    for f in (np.array([1.0, 0.0]), np.array([0.3, 0.7 - 0.2j])):
        assert bogoliubov_conjugation_residual(b, K_small, f) < 1e-8
    K_mod = np.array([[0.1, 0.03], [0.03, -0.08]], dtype=complex)
    assert bogoliubov_conjugation_residual(b, K_mod, np.array([1.0, 0.0])) < 1e-2


def test_cancellation_check_keeps_the_bogoliubov_budget():
    # kappa = N omega = 1.6: T(-kappa phi phi^T) is past the 1.5 budget that
    # every Bogoliubov unitary keeps
    b = build_basis(2, 12)
    with pytest.raises(TruncationBudgetError, match="1.5 budget"):
        generator_cancellation_check(b, [1.0, 1.0], 0.5, 16,
                                     np.array([1.0, 0.0]), omega=0.1)


def test_mode_symplectic_relation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        K = 0.4 * (K + K.T) / 2
        p, r = ch_sh_series(K, tol=1e-16)
        ch, sh = np.eye(3) + p, K + r
        lhs = ch @ ch.conj().T - sh @ sh.conj().T
        assert np.max(np.abs(lhs - np.eye(3))) < 1e-10


def test_reduced_density_product_and_coherent():
    b = build_basis(2, 10)
    phi = np.array([0.6, 0.8], dtype=complex)
    prod = product_state(b, phi, 6)
    assert np.linalg.norm(prod) == pytest.approx(1.0, abs=1e-12)
    gamma = reduced_density(b, prod)
    assert np.max(np.abs(gamma.matrix - np.outer(phi, phi.conj()))) < 1e-12

    f = math.sqrt(1.5) * phi
    coh = coherent_state(b, f)
    gamma2 = reduced_density(b, coh)
    assert np.max(np.abs(gamma2.matrix - np.outer(phi, phi.conj()))) < 1e-8
    assert np.trace(gamma2.matrix).real == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(DomainError):
        reduced_density(b, vacuum(b))


def test_trace_distance_cases():
    b = build_basis(2, 8)
    phi = np.array([1.0, 0.0], dtype=complex)
    perp = np.array([0.0, 1.0], dtype=complex)
    gamma = reduced_density(b, product_state(b, phi, 4))
    assert trace_distance_to_rank_one(gamma, phi) < 1e-12
    assert trace_distance_to_rank_one(gamma, perp) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        # the trace norm lies between the Hilbert-Schmidt norm and twice it
        hs = np.linalg.norm(rho - np.outer(phi, phi.conj()))
        dist = trace_distance_to_rank_one(ReducedDensity(rho), phi)
        assert dist >= hs - 1e-12
        assert dist <= 2 * hs + 1e-12


def test_weyl_relations_report():
    # small displacements keep the cutoff-boundary defect below 1e-9
    b = build_basis(2, 10)
    f = np.array([0.1, 0.025])
    g = np.array([0.0, 0.09])
    rep = check_weyl_relations(b, f, g)
    assert rep.product_residual < 1e-9
    assert rep.shift_residual < 1e-9
    # g = 0: both identities exact
    rep0 = check_weyl_relations(b, f, np.zeros(2))
    assert rep0.product_residual < 1e-12
    assert rep0.shift_residual < 1e-12
    # imaginary f = g: phase is 1, relation becomes W(f)W(f) = W(2f)
    fi = np.array([0.3j, 0.2j])
    rep_ii = check_weyl_relations(b, fi, fi)
    assert rep_ii.product_residual < 1e-9


def test_tnt_inequality():
    b = build_basis(1, 200)
    rep0 = check_TNT_inequality(b, np.zeros((1, 1)), n_sub=180)
    assert rep0.smallest_c == pytest.approx(180 / 181, abs=1e-10)
    rep = check_TNT_inequality(b, np.array([[1.0]]), n_sub=140)
    assert rep.smallest_c >= math.sinh(1.0) ** 2
    assert np.isfinite(rep.smallest_c)
    assert rep.smallest_c <= rep.heuristic * 5


def test_fluctuation_identity_at_t0():
    b = build_basis(2, 12)
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    H = hamiltonian(b, h)
    phi0 = np.array([1.0, 0.0], dtype=complex)
    psi = vacuum(b)
    out = fluctuation_dynamics(
        b, H, lambda t: math.sqrt(1.5) * phi0, None, psi, 0.0
    )
    assert np.max(np.abs(out - psi)) < 1e-9


def test_fluctuation_free_coherent_stays_vacuum():
    # free evolution of a coherent state tracks the one-body orbit exactly,
    # so fluctuations stay empty
    b = build_basis(2, 16)
    h = np.array([[0.2, -1.0], [-1.0, -0.1]])
    H = hamiltonian(b, h)
    phi0 = np.array([1.0, 0.0], dtype=complex)
    U = expm(-1j * 0.7 * h)

    def f_traj(t):
        prop = expm(-1j * t * h) if t not in (0.0, 0.7) else (
            np.eye(2) if t == 0.0 else U
        )
        return math.sqrt(2.0) * (prop @ phi0)

    out = fluctuation_dynamics(b, H, f_traj, None, vacuum(b), 0.7)
    assert number_expectation(b, out) < 1e-8


def _einsum_orbit(h, v, g, phi0, t_final, dt):
    """The former d^4-tensor RK4 orbit, kept as the reference."""
    h = np.asarray(h, dtype=complex)
    v = np.asarray(v, dtype=complex)

    def rhs(phi):
        nl = np.einsum("ijkl,j,k,l->i", v, np.conj(phi), phi, phi)
        return -1j * (h @ phi + g * nl)

    steps = max(1, int(round(abs(t_final) / dt)))
    dt = t_final / steps
    phi = np.asarray(phi0, dtype=complex).copy()
    out = [phi.copy()]
    for _ in range(steps):
        k1 = rhs(phi)
        k2 = rhs(phi + 0.5 * dt * k1)
        k3 = rhs(phi + 0.5 * dt * k2)
        k4 = rhs(phi + dt * k3)
        phi = phi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(phi.copy())
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mean_field_trajectory_matches_the_tensor_orbit(d):
    h, u, phi0 = _random_toy(d, 10 + d)
    times, orbit = mean_field_trajectory(h, u, 0.8, phi0, 0.5, 1e-3)
    ref = _einsum_orbit(h, _onsite_tensor(u), 0.8, phi0, 0.5, 1e-3)
    assert times.size == 501
    assert np.max(np.abs(orbit - ref)) <= 1e-14


def test_mean_field_trajectory_norm_preserved():
    h = np.array([[0.0, -1.0], [-1.0, 0.3]])
    u = np.array([1.0, 0.7])
    _, orbit = mean_field_trajectory(h, u, 0.8, np.array([1.0, 0.0]), 0.5, 1e-3)
    norms = np.linalg.norm(orbit, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_mean_field_orbit_past_the_step_budget_is_refused():
    # 1e308 over the orbit step is an infinite step count, and 1e6 is 1e9
    # steps; both are refused before any step is taken
    from gpk.budgets import orbit_steps

    h, u = np.array([[0.0, -1.0], [-1.0, 0.2]]), np.array([1.0, 1.0])
    phi0 = np.array([1.0, 0.0])
    with pytest.raises(ConfigurationError, match="inf steps, past the step "
                       "budget STEP_BUDGET = 10000000"):
        mean_field_trajectory(h, u, 0.5, phi0, 1e308, 1e-3)
    with pytest.raises(ConfigurationError, match="STEP_BUDGET"):
        toy_convergence_study(reference_scenario(t_final=1e308))
    with pytest.raises(ConfigurationError, match="1e\\+09 steps"):
        orbit_steps(1e6)
    assert orbit_steps(10_000.0) == 10_000_000 and orbit_steps(0.0) == 1


def test_toy_study_zero_interaction_degenerate():
    scenario = ToyScenario(
        h=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        u=np.array([1.0, 1.0]),
        coupling=0.0,
        phi0=np.array([1.0, 0.0]),
        kappa0=0.0,
        t_final=0.3,
        N_list=(3, 6, 12),
    )
    rep = toy_convergence_study(scenario)
    assert np.max(rep.trace_distances) < 1e-9
    assert math.isnan(rep.rate.slope)
    assert np.max(rep.number_expectations) < 1e-8


def test_toy_study_interacting_small():
    scenario = ToyScenario(
        h=np.array([[0.0, -1.0], [-1.0, 0.2]]),
        u=np.array([1.0, 1.0]),
        coupling=0.5,
        phi0=np.array([1.0, 0.0]),
        kappa0=0.2,
        t_final=0.4,
        N_list=(4, 8, 16),
    )
    rep = toy_convergence_study(scenario)
    assert rep.rate.slope <= -0.4
    assert rep.rate.r_squared >= 0.9
    ratio = np.max(rep.number_expectations) / max(
        np.min(rep.number_expectations), 1e-12
    )
    assert ratio <= 3.0


def test_generator_cancellation():
    # the residual ratio is ~ 2 kappa, so kappa = N omega must be small
    b = build_basis(2, 12)
    phi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    u = np.array([1.0, 1.0])
    N, omega = 16, 0.04 / 16
    uncorrelated = generator_cancellation_check(b, u, 1.0, N, phi, omega, kappa=0.0)
    assert uncorrelated.ratio >= 0.9
    matched = generator_cancellation_check(b, u, 1.0, N, phi, omega)
    assert matched.ratio <= 0.1
    zero_g = generator_cancellation_check(b, u, 0.0, N, phi, omega)
    assert zero_g.ratio == 0.0


def test_evolve_state_unitary():
    b = build_basis(2, 10)
    h = np.array([[0.1, -0.8], [-0.8, -0.2]])
    H = hamiltonian(b, h, np.array([1.0, 1.0]), coupling=0.4)
    psi = coherent_state(b, np.array([0.7, 0.3]))
    out = evolve_state(H, psi, 1.3)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi), abs=1e-10)


def test_fluctuation_leakage_names_factor():
    b = build_basis(2, 12)
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    H = hamiltonian(b, h)
    # a displacement near the Poisson budget leaks past the small cutoff
    f = math.sqrt(b.n_max / 4.0 - 0.05) * np.array([1.0, 0.0])
    with pytest.raises(TruncationBudgetError, match="W"):
        fluctuation_dynamics(b, H, lambda t: f, None, vacuum(b), 0.0,
                             leakage_tol=1e-10)


def test_evolve_state_matches_dense_oracle():
    b = build_basis(2, 10)
    h = np.array([[0.3, -0.7], [-0.7, -0.1]])
    H = hamiltonian(b, h, np.array([0.8, 1.1]), coupling=0.5)
    psi = coherent_state(b, np.array([0.5, 0.4j]))
    t = 0.9
    dense = expm(-1j * t * H.toarray()) @ psi
    krylov = evolve_state(H, psi, t)
    assert np.max(np.abs(dense - krylov)) < 1e-9


def reference_scenario(**changes):
    """The [fock] scenario of configs/reference.ini."""
    params = dict(
        h=np.array([[0.0, -1.0], [-1.0, 0.2]]),
        u=np.array([1.0, 1.0]),
        coupling=0.5,
        phi0=np.array([1.0, 0.0]),
        kappa0=0.2,
        t_final=0.4,
        N_list=(4, 8, 16),
    )
    params.update(changes)
    return ToyScenario(**params)


def _lab_frame_cutoff(N):
    """The former N-dependent lab-frame cutoff: the Poisson tail
    N + 6 sqrt(N) + 8, and at least the Weyl budget 4N + 1."""
    return max(int(math.ceil(N + 6.0 * math.sqrt(N))) + 8, 4 * N + 1)


def _lab_frame_study(scenario):
    """The toy study in the lab frame, on one basis per N, kept as the
    reference: the reduced density of e^{-iHt} W(f_0) T(k_0) vacuum and the
    number expectation of the five-factor fluctuation map."""
    _, orbit = mean_field_trajectory(scenario.h, scenario.u, scenario.coupling,
                                     scenario.phi0, scenario.t_final, 1e-3)
    orbit = orbit / np.linalg.norm(orbit, axis=1, keepdims=True)

    def at(t):
        return orbit[0] if t == 0 else orbit[-1]

    def k_traj(t):
        return -scenario.kappa0 * np.outer(at(t), at(t))

    distances, numbers = [], []
    for N in scenario.N_list:
        b = build_basis(2, _lab_frame_cutoff(N))
        H = hamiltonian(b, scenario.h, scenario.u,
                        coupling=scenario.coupling / N)

        def f_traj(t):
            return math.sqrt(N) * at(t)

        lab = evolve_state(H, apply_weyl(b, f_traj(0.0), apply_bogoliubov(
            b, k_traj(0.0), vacuum(b))), scenario.t_final)
        distances.append(trace_distance_to_rank_one(
            reduced_density(b, lab), orbit[-1]))
        numbers.append(number_expectation(b, fluctuation_dynamics(
            b, H, f_traj, k_traj, vacuum(b), scenario.t_final)))
    return np.array(distances), np.array(numbers)


@pytest.mark.parametrize("coupling", [0.45, 0.55])
def test_toy_study_matches_the_lab_frame(coupling):
    scenario = reference_scenario(coupling=coupling)
    distances, numbers = _lab_frame_study(scenario)
    rep = toy_convergence_study(scenario)
    assert np.max(np.abs(rep.trace_distances / distances - 1.0)) <= 1e-5
    assert np.max(np.abs(rep.number_expectations / numbers - 1.0)) <= 1e-5


def test_toy_study_of_the_reference_scenario_keeps_its_values():
    # the trace distances and number expectations of the reference run's
    # fock stage: a faster derivative or orbit keeps them to round-off
    rep = toy_convergence_study(reference_scenario())
    assert np.allclose(rep.trace_distances, [
        0.004505845992793023, 0.002311267946280106, 0.0011704144221909804],
        rtol=1e-12, atol=0.0)
    assert np.allclose(rep.number_expectations, [
        0.018240543280927467, 0.017318332904447363, 0.016896733575472993],
        rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("N_list", [(4, 8, 16), (4, 8, 16, 32, 64)],
                         ids=["3-N", "5-N"])
def test_toy_study_acts_twice_on_the_fluctuation_basis(monkeypatch, N_list):
    # T(k_0) once on the vacuum, T*(k_t) once on the block of all N; no
    # Weyl factor, no e^{-iHt}, no action at a lab-frame dimension
    import gpk.fock as fock

    actions, bogoliubov_calls = [], []

    def counting(gen, psi):
        actions.append((gen.src.shape[1], psi.shape))
        return expm_action(gen, psi)

    def counting_bogoliubov(*args):
        bogoliubov_calls.append(args)
        return apply_bogoliubov(*args)

    expm_action = fock._expm_action
    monkeypatch.setattr(fock, "_expm_action", counting)
    monkeypatch.setattr(fock, "apply_bogoliubov", counting_bogoliubov)
    toy_convergence_study(reference_scenario(N_list=N_list))
    dim = build_basis(2, fock.FLUCTUATION_CUTOFF).dim
    assert len(bogoliubov_calls) == 2
    assert actions == [(dim, (dim,)), (dim, (dim, len(N_list)))]


def test_toy_study_leakage_names_factor_and_N(monkeypatch):
    import gpk.fock as fock

    monkeypatch.setattr(fock, "LEAKAGE_TOL", 1e-300)
    with pytest.raises(TruncationBudgetError,
                       match=r"after factor T\(k_0\) at N = 4$"):
        toy_convergence_study(reference_scenario())


def test_toy_study_step_leakage_names_time_and_N(monkeypatch):
    # from the vacuum each step reaches at most 8 shells higher, so the top
    # shell n_c = 16 first fills in the second step
    import gpk.fock as fock

    monkeypatch.setattr(fock, "LEAKAGE_TOL", 1e-300)
    with pytest.raises(TruncationBudgetError,
                       match=r"after the step to t = 0\.004 at N = 4$"):
        toy_convergence_study(reference_scenario(kappa0=0.0))


def test_top_shell_share_of_a_block_is_the_share_of_each_column():
    b = build_basis(2, 8)
    rng = np.random.default_rng(3)
    block = rng.standard_normal((b.dim, 2)) + 1j * rng.standard_normal((b.dim, 2))
    shares = top_shell_share(b, block)
    assert shares.shape == (2,)
    for share, column in zip(shares, block.T):
        alone = top_shell_share(b, column)
        assert isinstance(alone, float)
        assert share == pytest.approx(alone, rel=1e-14)
    assert top_shell_share(b, vacuum(b)) == 0.0


def test_toy_study_of_a_blown_up_orbit_names_its_last_finite_time():
    # at g = 1e4 the reference orbit leaves the floats in its second step
    with pytest.raises(NumericalBlowupError,
                       match=r"mean-field orbit blew up at g = 10000: not "
                             r"finite at t = 0\.002, last finite at t = 0\.001$"
                       ) as err:
        toy_convergence_study(reference_scenario(coupling=1e4))
    assert err.value.last_good_time == pytest.approx(0.001, rel=1e-12)


@pytest.mark.parametrize("poisoned, error, what", [
    (0, TruncationBudgetError, "truncation leakage nan above LEAKAGE_TOL"),
    (1, InvariantViolation, "fluctuation norm drifted to nan"),
], ids=["share", "norm"])
def test_toy_study_refuses_a_nan_share_or_norm(monkeypatch, poisoned, error,
                                               what):
    # NaN fails every comparison, so a check that raises on `>` lets it by
    import gpk.fock as fock

    share_and_norm = fock._top_share_and_norm

    def with_nan(basis, psi):
        out = list(share_and_norm(basis, psi))
        out[poisoned] = np.full_like(out[poisoned], np.nan)
        return tuple(out)

    monkeypatch.setattr(fock, "_top_share_and_norm", with_nan)
    with pytest.raises(error, match=rf"{what} after factor T\(k_0\) at N = 4$"):
        toy_convergence_study(reference_scenario())


def test_toy_study_leakage_of_one_column_names_its_step_and_N(monkeypatch):
    # with LEAKAGE_TOL between the columns' shares after the step to
    # t = 0.006, only the column with the largest share passes it, and the
    # study names that step and its N.  The top shell first fills at
    # t = 0.004, but there it holds only the N-free a^dag^2 reach of the
    # vacuum, so the columns' shares agree up to round-off; from t = 0.006
    # on the 1/sqrt(N) and 1/N terms set them apart
    import gpk.fock as fock

    scenario = reference_scenario(kappa0=0.0)
    share_and_norm = fock._top_share_and_norm
    seen = []

    def recording(basis, psi):
        share, norm = share_and_norm(basis, psi)
        seen.append(share)
        return share, norm

    monkeypatch.setattr(fock, "_top_share_and_norm", recording)
    toy_convergence_study(scenario)
    shares = seen[3]  # after T(k_0) and the steps to t = 0.002, 0.004, 0.006
    second, first = np.sort(shares)[-2:]
    assert 0.0 < second < first
    assert np.max(seen[2]) < second
    monkeypatch.setattr(fock, "LEAKAGE_TOL", float(second + first) / 2)
    leaky = scenario.N_list[int(np.argmax(shares))]
    with pytest.raises(TruncationBudgetError,
                       match=rf"after the step to t = 0\.006 at N = {leaky}$"):
        toy_convergence_study(scenario)


@pytest.mark.parametrize("dense", [
    lambda b: check_weyl_relations(b, np.array([0.1, 0.0]),
                                   np.array([0.0, 0.1])),
    lambda b: bogoliubov_conjugation_residual(
        b, np.array([[0.1, 0.0], [0.0, 0.1]]), np.array([1.0, 0.0])),
    lambda b: check_TNT_inequality(b, np.array([[0.1, 0.0], [0.0, 0.1]])),
    lambda b: generator_cancellation_check(
        b, [1.0, 1.0], 1.0, 16, np.array([1.0, 0.0]), 0.0025),
], ids=["weyl", "bogoliubov", "tnt", "cancellation"])
def test_dense_exponentials_refuse_dimensions_past_the_cap(dense, monkeypatch):
    # each probe check is refused before it builds a block or acts on one
    import gpk.fock as fock

    def no_block(*args):
        raise AssertionError("a block was built past the cap")

    monkeypatch.setattr(np, "eye", no_block)
    monkeypatch.setattr(fock, "_expm_action", no_block)
    b = build_basis(2, 60)
    assert b.dim == 1891
    with pytest.raises(ConfigurationError, match="capped at dimension 1500"):
        dense(b)


def _near_budget_generators(d, n_max):
    """The basis, and the Weyl generator of an f with |f|^2 at 0.95 of the
    Poisson budget and the Bogoliubov generator of a kernel at 0.9 of it."""
    import gpk.fock as fock

    b = build_basis(d, n_max)
    rng = np.random.default_rng(d * 100 + n_max)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    f *= math.sqrt(0.95 * fock.POISSON_SHARE * n_max) / np.linalg.norm(f)
    K = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    K = K + K.T
    hs = min(math.asinh(math.sqrt(fock.POISSON_SHARE * n_max / d)),
             fock.KERNEL_HS_BUDGET)
    K *= 0.9 * hs / np.linalg.norm(K)
    return b, fock._weyl_generator(b, f), fock._bogoliubov_generator(b, K)


# the probe basis (dimension 91), the toy study's basis (153) and a d = 3 one
EXPM_BASES = [(2, 12), (2, 16), (3, 12)]


@pytest.mark.parametrize("d, n_max", EXPM_BASES)
def test_taylor_action_matches_scipy(d, n_max):
    import gpk.fock as fock

    b, weyl_gen, bogoliubov_gen = _near_budget_generators(d, n_max)
    rng = np.random.default_rng(n_max)
    block = rng.standard_normal((b.dim, 3)) + 1j * rng.standard_normal((b.dim, 3))
    block /= np.linalg.norm(block, axis=0)
    for gen in (weyl_gen, bogoliubov_gen):
        ref = sp.csr_matrix(gen.toarray())
        for psi in (block[:, 0], block):
            out = fock._expm_action(gen, psi)
            assert out.shape == psi.shape
            assert np.max(np.abs(out - expm_multiply(ref, psi))) <= 1e-13
            assert np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)) <= 1e-13
        # on the identity block the action is the unitary itself
        U = fock._expm_action(gen, np.eye(b.dim))
        assert np.max(np.abs(U - expm(gen.toarray()))) <= 1e-13
        assert np.max(np.abs(U.conj().T @ U - np.eye(b.dim))) <= 1e-13
    # near the Poisson budget the Weyl generator's 1-norm is past theta_55,
    # so the action takes more than one step
    assert np.linalg.norm(weyl_gen.toarray(), 1) > fock._TAYLOR_THETA[55]


def test_taylor_action_of_a_zero_generator_is_a_copy():
    b = build_basis(2, 6)
    psi = vacuum(b)
    out = apply_weyl(b, np.zeros(2), psi)
    assert np.array_equal(out, psi) and out is not psi
