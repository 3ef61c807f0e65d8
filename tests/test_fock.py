import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from gpk.errors import (
    ConfigurationError,
    DomainError,
    TruncationBudgetError,
)
from gpk.fock import (
    FockVector,
    ToyScenario,
    all_ladders,
    annihilator_of,
    apply_bogoliubov,
    apply_weyl,
    bogoliubov,
    bogoliubov_conjugation_residual,
    build_basis,
    basis_dimension,
    check_TNT_inequality,
    check_weyl_relations,
    coherent_state,
    evolve_state,
    fluctuation_dynamics,
    generator_cancellation_check,
    hamiltonian,
    ladder,
    mean_field_trajectory,
    mode_hyperbolic,
    number_expectation,
    number_operator,
    onsite_tensor,
    poisson_shell_mass,
    product_state,
    project_N,
    reduced_density,
    toy_convergence_study,
    trace_distance_to_rank_one,
    unitarity_defect,
    vacuum,
    weyl,
)


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
    assert np.all(a.matrix @ vacuum(b).coefficients == 0)
    dense = a.to_dense()
    for n in range(1, 7):
        assert dense[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.allclose(ad.to_dense(), dense.conj().T)


def loop_built_annihilator(basis, mode):
    """One sqrt(n) entry per state, its target row looked up by occupation."""
    rows, cols, vals = [], [], []
    for col, occ in enumerate(basis.occupations):
        if occ[mode] == 0:
            continue
        target = occ.copy()
        target[mode] -= 1
        rows.append(basis.index[tuple(map(int, target))])
        cols.append(col)
        vals.append(math.sqrt(occ[mode]))
    return sp.csr_matrix((np.array(vals), (rows, cols)),
                         shape=(basis.dim, basis.dim), dtype=complex)


@pytest.mark.parametrize("d, n_max", [(1, 12), (2, 9), (3, 6)])
def test_cached_ladders_equal_loop_built_ones(d, n_max):
    b = build_basis(d, n_max)
    ann, cre = all_ladders(b)
    for mode in range(d):
        ref = loop_built_annihilator(b, mode)
        assert (ann[mode].matrix != ref).nnz == 0
        assert (cre[mode].matrix != ref.conj().T.tocsr()).nnz == 0
        a, ad = ladder(b, mode)
        assert (a.matrix != ref).nnz == 0 and (ad.matrix != cre[mode].matrix).nnz == 0
    again, _ = all_ladders(b)
    assert all(x is y for x, y in zip(ann, again))  # built once per basis


def test_cached_ladders_are_read_only():
    ann, cre = all_ladders(build_basis(2, 5))
    for op in (ann[0], cre[1]):
        for arr in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]


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
        lhs = np.linalg.norm(af.matrix @ psi)
        rhs = np.linalg.norm(f) * np.linalg.norm(np.sqrt(totals) * psi)
        assert lhs <= rhs + 1e-12


def test_ccr_exact_below_cutoff():
    # exact up to the float representation of sqrt(n) products
    b = build_basis(2, 6)
    ann, cre = all_ladders(b)
    below = b.totals() < b.n_max
    for i in range(2):
        for j in range(2):
            comm = (ann[i].matrix @ cre[j].matrix
                    - cre[j].matrix @ ann[i].matrix).toarray()
            expected = (1.0 if i == j else 0.0) * np.eye(b.dim)
            assert np.max(np.abs((comm - expected)[:, below])) < 1e-13


def test_hamiltonian_free_single_particle_block():
    b = build_basis(2, 4)
    h = np.array([[0.5, -1.0], [-1.0, 0.3]])
    H = hamiltonian(b, h)
    block = H.to_dense()[b.shell_slices[1], b.shell_slices[1]]
    assert np.allclose(block, h)


def test_hamiltonian_commutes_with_number():
    b = build_basis(2, 5)
    h = np.array([[0.0, -1.0], [-1.0, 0.5]])
    H = hamiltonian(b, h, onsite_tensor([1.0, 1.0]), coupling=0.7)
    N = number_operator(b)
    comm = H.matrix @ N.matrix - N.matrix @ H.matrix
    assert abs(comm).max() == 0.0


def test_bose_hubbard_ground_energy_oracle():
    # independent dense assembly in the occupation basis
    J, U = 1.0, 0.6
    b = build_basis(2, 4)
    h = np.array([[0.0, -J], [-J, 0.0]])
    v = onsite_tensor([1.0, 1.0])
    H = hamiltonian(b, h, v, coupling=U)

    dense = np.zeros((b.dim, b.dim))
    occs = [tuple(map(int, o)) for o in b.occupations]
    for col, occ in enumerate(occs):
        n1, n2 = occ
        dense[col, col] += 0.5 * U * (n1 * (n1 - 1) + n2 * (n2 - 1))
        if n1 > 0 and n2 + 1 <= 4:
            row = b.index[(n1 - 1, n2 + 1)]
            dense[row, col] += -J * math.sqrt(n1 * (n2 + 1))
        if n2 > 0 and n1 + 1 <= 4:
            row = b.index[(n1 + 1, n2 - 1)]
            dense[row, col] += -J * math.sqrt(n2 * (n1 + 1))
    # compare within the conserved 4-particle sector
    sector = b.shell_slices[4]
    e1 = np.linalg.eigvalsh(H.to_dense()[sector, sector].real)
    e2 = np.linalg.eigvalsh(dense[sector, sector])
    assert abs(e1[0] - e2[0]) < 1e-10


def test_weyl_identity_and_components():
    b = build_basis(2, 12)
    assert unitarity_defect(weyl(b, np.zeros(2))) < 1e-12
    W0 = weyl(b, np.zeros(2)).to_dense()
    assert np.allclose(W0, np.eye(b.dim))

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
        assert abs(state.coefficients[idx] - expected) < 1e-10


def test_coherent_occupation_is_poisson():
    b = build_basis(2, 14)
    f = np.array([0.8, 0.5 + 0.4j])
    state = coherent_state(b, f)
    mu = float(np.sum(np.abs(f) ** 2))
    for n in range(8):
        assert state.shell_mass(n) == pytest.approx(
            poisson_shell_mass(mu, n), abs=1e-10
        )
    # expected number of particles
    assert number_expectation(state) == pytest.approx(mu, abs=1e-8)


def test_weyl_budget_error():
    b = build_basis(1, 8)
    with pytest.raises(TruncationBudgetError):
        weyl(b, np.array([2.0]))


def test_apply_weyl_matches_dense():
    b = build_basis(2, 10)
    f = np.array([0.4, -0.3 + 0.5j])
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    psi /= np.linalg.norm(psi)
    dense = weyl(b, f).to_dense() @ psi
    krylov = apply_weyl(b, f, FockVector(psi, b)).coefficients
    assert np.max(np.abs(dense - krylov)) < 1e-9


def test_bogoliubov_identity_and_squeezed_number():
    b = build_basis(1, 40)
    assert np.allclose(bogoliubov(b, np.zeros((1, 1))).to_dense(), np.eye(b.dim))
    for r in (0.1, 0.5):
        K = np.array([[r]])
        sq = apply_bogoliubov(b, K, vacuum(b))
        assert number_expectation(sq) == pytest.approx(math.sinh(r) ** 2, abs=1e-8)


def test_apply_bogoliubov_matches_dense():
    b = build_basis(2, 10)
    K = np.array([[0.2, 0.1], [0.1, -0.15]])
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    psi /= np.linalg.norm(psi)
    dense = bogoliubov(b, K).to_dense() @ psi
    krylov = apply_bogoliubov(b, K, FockVector(psi, b)).coefficients
    assert np.max(np.abs(dense - krylov)) < 1e-9


def test_bogoliubov_budget():
    b = build_basis(1, 20)
    with pytest.raises(TruncationBudgetError):
        bogoliubov(b, np.array([[2.0]]))
    with pytest.raises(DomainError):
        bogoliubov(build_basis(2, 8), np.array([[0.0, 0.3], [0.1, 0.0]]))


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


def test_mode_symplectic_relation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        K = 0.4 * (K + K.T) / 2
        ch, sh = mode_hyperbolic(K)
        lhs = ch @ ch.conj().T - sh @ sh.conj().T
        assert np.max(np.abs(lhs - np.eye(3))) < 1e-10


def test_reduced_density_product_and_coherent():
    b = build_basis(2, 10)
    phi = np.array([0.6, 0.8], dtype=complex)
    prod = product_state(b, phi, 6)
    assert prod.norm() == pytest.approx(1.0, abs=1e-12)
    gamma = reduced_density(prod)
    assert np.max(np.abs(gamma.matrix - np.outer(phi, phi.conj()))) < 1e-12

    f = math.sqrt(1.5) * phi
    coh = coherent_state(b, f)
    gamma2 = reduced_density(coh)
    assert np.max(np.abs(gamma2.matrix - np.outer(phi, phi.conj()))) < 1e-8
    assert np.trace(gamma2.matrix).real == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(DomainError):
        reduced_density(vacuum(b))


def test_trace_distance_cases():
    b = build_basis(2, 8)
    phi = np.array([1.0, 0.0], dtype=complex)
    perp = np.array([0.0, 1.0], dtype=complex)
    gamma = reduced_density(product_state(b, phi, 4))
    assert trace_distance_to_rank_one(gamma, phi).trace_distance < 1e-12
    assert trace_distance_to_rank_one(gamma, perp).trace_distance == pytest.approx(
        2.0, abs=1e-12
    )
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        from gpk.fock import ReducedDensity

        cmp = trace_distance_to_rank_one(ReducedDensity(rho), phi)
        assert cmp.trace_distance >= cmp.hs_norm - 1e-12
        assert cmp.trace_distance <= 2 * cmp.hs_norm + 1e-12


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


def test_project_N_poisson_shells():
    b = build_basis(2, 36)
    N = 6
    phi = np.array([1.0, 0.0])
    state = coherent_state(b, math.sqrt(N) * phi)
    _, norm = project_N(state, N)
    assert norm**2 == pytest.approx(poisson_shell_mass(N, N), abs=1e-10)
    # idempotent
    vec, _ = project_N(state, N)
    vec2, _ = project_N(vec, N)
    assert np.array_equal(vec.coefficients, vec2.coefficients)
    # concentration: shells within 2 sqrt(N) of N capture at least half
    lo, hi = int(N - 2 * math.sqrt(N)), int(N + 2 * math.sqrt(N))
    mass = sum(state.shell_mass(n) for n in range(max(lo, 0), hi + 1))
    assert mass >= 0.5


def test_fluctuation_identity_at_t0():
    b = build_basis(2, 12)
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    H = hamiltonian(b, h)
    phi0 = np.array([1.0, 0.0], dtype=complex)
    psi = vacuum(b)
    out = fluctuation_dynamics(
        b, H, lambda t: math.sqrt(1.5) * phi0, None, psi, 0.0
    )
    assert np.max(np.abs(out.coefficients - psi.coefficients)) < 1e-9


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
    assert number_expectation(out) < 1e-8


def test_mean_field_trajectory_norm_preserved():
    h = np.array([[0.0, -1.0], [-1.0, 0.3]])
    v = onsite_tensor([1.0, 0.7])
    _, orbit = mean_field_trajectory(h, v, 0.8, np.array([1.0, 0.0]), 0.5, 1e-3)
    norms = np.linalg.norm(orbit, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_toy_study_zero_interaction_degenerate():
    scenario = ToyScenario(
        h=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        v=onsite_tensor([1.0, 1.0]),
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
        v=onsite_tensor([1.0, 1.0]),
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
    assert zero_g.combined_norm == 0.0


def test_evolve_state_unitary():
    b = build_basis(2, 10)
    h = np.array([[0.1, -0.8], [-0.8, -0.2]])
    H = hamiltonian(b, h, onsite_tensor([1.0, 1.0]), coupling=0.4)
    psi = coherent_state(b, np.array([0.7, 0.3]))
    out = evolve_state(H, psi, 1.3)
    assert out.norm() == pytest.approx(psi.norm(), abs=1e-10)


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
    H = hamiltonian(b, h, onsite_tensor([0.8, 1.1]), coupling=0.5)
    psi = coherent_state(b, np.array([0.5, 0.4j]))
    t = 0.9
    dense = expm(-1j * t * H.to_dense()) @ psi.coefficients
    krylov = evolve_state(H, psi, t).coefficients
    assert np.max(np.abs(dense - krylov)) < 1e-9


def reference_scenario(**changes):
    """The [fock] scenario of configs/reference.ini."""
    params = dict(
        h=np.array([[0.0, -1.0], [-1.0, 0.2]]),
        v=onsite_tensor([1.0, 1.0]),
        coupling=0.5,
        phi0=np.array([1.0, 0.0]),
        kappa0=0.2,
        t_final=0.4,
        N_list=(4, 8, 16),
    )
    params.update(changes)
    return ToyScenario(**params)


def test_toy_study_runs_the_five_factors_once_per_N(monkeypatch):
    import gpk.fock as fock

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return expm_multiply(*args, **kwargs)

    expm_multiply = fock.expm_multiply
    monkeypatch.setattr(fock, "expm_multiply", counting)
    scenario = reference_scenario()
    toy_convergence_study(scenario)
    dims = [build_basis(2, scenario.cutoff_for(N)).dim for N in scenario.N_list]
    assert calls == [dim for dim in dims for _ in range(5)]


def test_toy_study_leakage_names_factor_and_N():
    with pytest.raises(TruncationBudgetError,
                       match=r"after factor T\(k_0\) at N = 4$"):
        toy_convergence_study(reference_scenario(leakage_tol=1e-300))


@pytest.mark.parametrize("dense", [
    lambda b: weyl(b, np.array([0.1, 0.0])),
    lambda b: bogoliubov(b, np.array([[0.1, 0.0], [0.0, 0.1]])),
    lambda b: check_TNT_inequality(b, np.array([[0.1, 0.0], [0.0, 0.1]])),
    lambda b: generator_cancellation_check(
        b, [1.0, 1.0], 1.0, 16, np.array([1.0, 0.0]), 0.0025),
], ids=["weyl", "bogoliubov", "tnt", "cancellation"])
def test_dense_exponentials_refuse_dimensions_past_the_cap(dense):
    b = build_basis(2, 60)
    assert b.dim == 1891
    with pytest.raises(ConfigurationError, match="capped at dimension 1500"):
        dense(b)
