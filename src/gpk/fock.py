"""Truncated bosonic Fock space over d discrete modes.

States live in the direct sum of symmetric n-particle sectors with total
occupation at most n_max; operators are sparse matrices over the occupation
basis.  The module provides ladder operators, number-conserving Hamiltonians,
Weyl and Bogoliubov unitaries (dense exponentials at small dimension, Krylov
actions on vectors otherwise), the five-factor fluctuation dynamics, reduced
densities, and the toy-scale convergence and cancellation experiments.

Occupation vectors are enumerated graded-lexicographically: shells of total
occupation n in increasing n, and inside a shell the first mode decreases
from n to 0, recursively (d = 2, n <= 2: 00, 10, 01, 20, 11, 02).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    TruncationBudgetError,
)
from .rates import RateReport, degenerate_report, fit_rate

_DIM_BUDGET = 20000
_DENSE_EXPM_CAP = 1500


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _shell_dim(d: int, n: int) -> int:
    return math.comb(n + d - 1, d - 1)


def basis_dimension(d: int, n_max: int) -> int:
    return sum(_shell_dim(d, n) for n in range(n_max + 1))


def _compositions(n: int, d: int):
    """Occupations of total n over d modes, first mode from n down to 0."""
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, d - 1):
            yield (first, *rest)


@dataclass(frozen=True)
class FockBasis:
    d: int
    n_max: int
    occupations: np.ndarray           # (dim, d) int
    shell_slices: tuple               # slice per total occupation
    dim: int

    def totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    @functools.cached_property
    def index(self) -> dict:
        """Occupation tuple -> flat index."""
        return {tuple(map(int, occ)): i for i, occ in enumerate(self.occupations)}

    @functools.cached_property
    def ladders(self) -> tuple:
        """(annihilators, creators) of every mode, built once and read-only."""
        ops = [ladder(self, mode) for mode in range(self.d)]
        for op in (op for pair in ops for op in pair):
            for arr in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
                arr.setflags(write=False)
        return tuple(a for a, _ in ops), tuple(ad for _, ad in ops)


def build_basis(d: int, n_max: int) -> FockBasis:
    """Enumerate the truncated space; refuses dimensions past the desk budget."""
    if d < 1 or n_max < 0:
        raise DomainError("need d >= 1 modes and n_max >= 0")
    dim = basis_dimension(d, n_max)
    if dim > _DIM_BUDGET:
        raise ConfigurationError(
            f"basis dimension {dim} exceeds the budget {_DIM_BUDGET} "
            f"(d = {d}, n_max = {n_max})"
        )
    occs = []
    slices = []
    start = 0
    for n in range(n_max + 1):
        shell = list(_compositions(n, d))
        occs.extend(shell)
        slices.append(slice(start, start + len(shell)))
        start += len(shell)
    return FockBasis(
        d=d, n_max=n_max, occupations=np.array(occs, dtype=np.int64),
        shell_slices=tuple(slices), dim=dim,
    )


@dataclass(frozen=True)
class FockVector:
    coefficients: np.ndarray
    basis: FockBasis

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def shell_mass(self, n: int) -> float:
        return float(
            np.sum(np.abs(self.coefficients[self.basis.shell_slices[n]]) ** 2)
        )

    def top_shell_mass(self) -> float:
        total = self.norm() ** 2
        return self.shell_mass(self.basis.n_max) / total if total > 0 else 0.0


def vacuum(basis: FockBasis) -> FockVector:
    c = np.zeros(basis.dim, dtype=complex)
    c[0] = 1.0
    return FockVector(coefficients=c, basis=basis)


@dataclass(frozen=True)
class FockOperator:
    matrix: sp.csr_matrix
    basis: FockBasis

    def apply(self, psi: FockVector) -> FockVector:
        return FockVector(
            coefficients=self.matrix @ psi.coefficients, basis=self.basis
        )

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


# ---------------------------------------------------------------------------
# ladder operators and standard observables
# ---------------------------------------------------------------------------

def _rank(occupations: np.ndarray) -> np.ndarray:
    """Flat basis index of each occupation row, without a lookup.

    The shells below total n hold C(n - 1 + d, d) states.  Inside a shell,
    the states before `occ` are counted mode by mode: with `left` particles
    still to place on modes i..d-1, those with more than occ_i on mode i
    number C(left - occ_i + d - 2 - i, d - 1 - i) (a hockey-stick sum).
    """
    d = occupations.shape[1]
    left = occupations.sum(axis=1)
    index = _binomial(left - 1 + d, d)
    for i in range(d - 1):
        index += _binomial(left - occupations[:, i] + d - 2 - i, d - 1 - i)
        left = left - occupations[:, i]
    return index


def _binomial(top: np.ndarray, k: int) -> np.ndarray:
    """C(top, k) elementwise for integer arrays top >= k - 1, exactly.

    After step j the running value is C(top - k + j, j), an integer no
    larger than the result, so floor division is exact.
    """
    out = np.ones_like(top)
    for j in range(1, k + 1):
        out = out * (top - k + j) // j
    return out


def ladder(basis: FockBasis, mode: int):
    """(a, a_dagger) for one mode, with the standard sqrt(n) matrix elements."""
    if not 0 <= mode < basis.d:
        raise DomainError(f"mode {mode} outside 0..{basis.d - 1}")
    cols = np.flatnonzero(basis.occupations[:, mode])
    lowered = basis.occupations[cols]
    vals = np.sqrt(lowered[:, mode].astype(float))
    lowered[:, mode] -= 1
    a = sp.csr_matrix(
        (vals, (_rank(lowered), cols)), shape=(basis.dim, basis.dim),
        dtype=complex,
    )
    return (FockOperator(matrix=a, basis=basis),
            FockOperator(matrix=a.conj().T.tocsr(), basis=basis))


def all_ladders(basis: FockBasis):
    """Annihilators and creators of every mode: the basis's cached ones."""
    ann, cre = basis.ladders
    return list(ann), list(cre)


def number_operator(basis: FockBasis) -> FockOperator:
    diag = basis.totals().astype(float)
    return FockOperator(
        matrix=sp.diags(diag, format="csr").astype(complex), basis=basis
    )


def _sparse_sum(basis: FockBasis, terms) -> sp.csr_matrix:
    """Sum of coefficient * matrix over the (coefficient, matrix) pairs."""
    m = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for coeff, mat in terms:
        m = m + coeff * mat
    return m.tocsr()


def annihilator_of(basis: FockBasis, f: np.ndarray) -> FockOperator:
    """a(f) = sum conj(f_i) a_i (antilinear in f)."""
    ann, _ = all_ladders(basis)
    return FockOperator(
        matrix=_sparse_sum(basis, ((np.conj(fi), a.matrix)
                                   for fi, a in zip(f, ann))),
        basis=basis,
    )


def hamiltonian(
    basis: FockBasis,
    h: np.ndarray,
    v: Optional[np.ndarray] = None,
    coupling: float = 0.0,
) -> FockOperator:
    """Sum h_ij a_i^dag a_j + (coupling/2) sum v_ijkl a_i^dag a_j^dag a_k a_l.

    h must be hermitian, v symmetric under the bosonic exchanges i<->j,
    k<->l and hermitian under (ij)<->(lk) conjugation.
    """
    h = np.asarray(h, dtype=complex)
    d = basis.d
    if h.shape != (d, d) or not np.allclose(h, h.conj().T, atol=1e-13):
        raise DomainError("one-body matrix must be hermitian d x d")
    ann, cre = all_ladders(basis)
    terms = [(h[i, j], cre[i].matrix @ ann[j].matrix)
             for i, j in zip(*np.nonzero(h))]
    if v is not None and coupling != 0.0:
        v = np.asarray(v, dtype=complex)
        if v.shape != (d, d, d, d):
            raise DomainError("interaction tensor must be d^4")
        if not (
            np.allclose(v, v.transpose(1, 0, 2, 3), atol=1e-13)
            and np.allclose(v, v.transpose(0, 1, 3, 2), atol=1e-13)
            and np.allclose(v, np.conj(v.transpose(3, 2, 1, 0)), atol=1e-13)
        ):
            raise DomainError("interaction tensor lacks bosonic symmetry")
        terms += [(0.5 * coupling * v[i, j, k, l],
                   cre[i].matrix @ cre[j].matrix @ ann[k].matrix @ ann[l].matrix)
                  for i, j, k, l in zip(*np.nonzero(v))]
    return FockOperator(matrix=_sparse_sum(basis, terms), basis=basis)


def onsite_tensor(u) -> np.ndarray:
    """Contact interaction tensor with per-mode weights u_i."""
    u = np.asarray(u, dtype=float)
    d = u.size
    v = np.zeros((d, d, d, d))
    for i in range(d):
        v[i, i, i, i] = u[i]
    return v


# ---------------------------------------------------------------------------
# Weyl and Bogoliubov unitaries
# ---------------------------------------------------------------------------

def _dense_expm(gen: sp.csr_matrix, what: str) -> np.ndarray:
    """exp(gen) as a dense matrix; refused past the dense dimension cap."""
    if gen.shape[0] > _DENSE_EXPM_CAP:
        raise ConfigurationError(
            f"dense {what} capped at dimension {_DENSE_EXPM_CAP} "
            f"(got {gen.shape[0]}); apply_weyl and apply_bogoliubov act on "
            "vectors at any dimension"
        )
    return expm(gen.toarray())


def _weyl_generator(basis: FockBasis, f: np.ndarray) -> sp.csr_matrix:
    """a^dag(f) - a(f)."""
    a_f = annihilator_of(basis, f).matrix
    return (a_f.conj().T - a_f).tocsr()


def _check_weyl_budget(basis: FockBasis, f: np.ndarray):
    mean = float(np.sum(np.abs(f) ** 2))
    if mean > basis.n_max / 4.0:
        raise TruncationBudgetError(
            f"|f|^2 = {mean:.3g} exceeds the Poisson budget n_max/4 = "
            f"{basis.n_max / 4.0:.3g}"
        )


def weyl(basis: FockBasis, f: np.ndarray) -> FockOperator:
    """W(f) = exp(a^dag(f) - a(f)) as a dense-backed unitary operator."""
    f = np.asarray(f, dtype=complex)
    _check_weyl_budget(basis, f)
    mat = _dense_expm(_weyl_generator(basis, f), "Weyl operator")
    return FockOperator(matrix=sp.csr_matrix(mat), basis=basis)


def apply_weyl(basis: FockBasis, f: np.ndarray, psi: FockVector) -> FockVector:
    """W(f) psi by Krylov action; exact unitary on the truncated space."""
    f = np.asarray(f, dtype=complex)
    _check_weyl_budget(basis, f)
    gen = _weyl_generator(basis, f)
    return FockVector(
        coefficients=expm_multiply(gen, psi.coefficients), basis=basis
    )


def _bogoliubov_generator(basis: FockBasis, K: np.ndarray) -> sp.csr_matrix:
    ann, cre = all_ladders(basis)
    terms = []
    for i, j in zip(*np.nonzero(K)):
        terms += [(0.5 * K[i, j], cre[i].matrix @ cre[j].matrix),
                  (-0.5 * np.conj(K[i, j]), ann[i].matrix @ ann[j].matrix)]
    return _sparse_sum(basis, terms)


def _check_bogoliubov_budget(basis: FockBasis, K: np.ndarray):
    K = np.asarray(K, dtype=complex)
    if K.shape != (basis.d, basis.d):
        raise DomainError("kernel matrix must be d x d")
    if not np.allclose(K, K.T, atol=1e-12):
        raise DomainError("kernel matrix must be symmetric")
    hs = float(np.linalg.norm(K))
    if hs > 1.5:
        raise TruncationBudgetError(f"|K|_HS = {hs:.3g} exceeds the 1.5 budget")
    amplified = math.sinh(hs) ** 2 * basis.d
    if amplified > basis.n_max / 4.0:
        raise TruncationBudgetError(
            f"sinh-amplified occupation {amplified:.3g} exceeds n_max/4"
        )
    return K


def bogoliubov(basis: FockBasis, K: np.ndarray) -> FockOperator:
    """T(K) = exp(1/2 sum (K a^dag a^dag - conj(K) a a)) as a dense unitary."""
    K = _check_bogoliubov_budget(basis, K)
    mat = _dense_expm(_bogoliubov_generator(basis, K), "Bogoliubov operator")
    return FockOperator(matrix=sp.csr_matrix(mat), basis=basis)


def apply_bogoliubov(basis: FockBasis, K: np.ndarray, psi: FockVector) -> FockVector:
    K = _check_bogoliubov_budget(basis, K)
    gen = _bogoliubov_generator(basis, K)
    return FockVector(
        coefficients=expm_multiply(gen, psi.coefficients), basis=basis
    )


def mode_hyperbolic(K: np.ndarray):
    """(ch(K), sh(K)) for a symmetric complex mode matrix, by series."""
    K = np.asarray(K, dtype=complex)
    d = K.shape[0]
    kkbar = K @ np.conj(K)
    ch = np.eye(d, dtype=complex)
    sh = K.copy()
    power = np.eye(d, dtype=complex)
    norm = np.linalg.norm(K)
    n = 0
    while True:
        n += 1
        power = power @ kkbar
        ch = ch + power / math.factorial(2 * n)
        sh = sh + (power @ K) / math.factorial(2 * n + 1)
        if norm ** (2 * n) / math.factorial(2 * n) < 1e-16:
            break
    return ch, sh


def unitarity_defect(op: FockOperator) -> float:
    d = op.matrix.conj().T @ op.matrix - sp.identity(op.basis.dim, dtype=complex)
    return float(abs(d).max()) if d.nnz else 0.0


def coherent_state(basis: FockBasis, f: np.ndarray) -> FockVector:
    return apply_weyl(basis, f, vacuum(basis))


def product_state(basis: FockBasis, phi: np.ndarray, n: int) -> FockVector:
    """The symmetric n-particle product state of the normalized orbital phi."""
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise DomainError("orbital must be normalized")
    if n > basis.n_max:
        raise DomainError("n exceeds the cutoff")
    c = np.zeros(basis.dim, dtype=complex)
    sl = basis.shell_slices[n]
    for i in range(sl.start, sl.stop):
        occ = basis.occupations[i]
        amp = math.sqrt(math.factorial(n))
        for ni in occ:
            amp /= math.sqrt(math.factorial(int(ni)))
        c[i] = amp * np.prod(phi ** occ)
    return FockVector(coefficients=c, basis=basis)


# ---------------------------------------------------------------------------
# reduced densities and trace distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedDensity:
    """One-particle reduced density: hermitian, PSD, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=1e-12):
            raise InvariantViolation("reduced density is not hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-12:
            raise InvariantViolation("reduced density is not PSD")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise InvariantViolation("reduced density trace is not 1")


def reduced_density(psi: FockVector) -> ReducedDensity:
    """Gamma_ij = <psi, a_j^dag a_i psi> / <psi, N psi>."""
    basis = psi.basis
    ann, _ = all_ladders(basis)
    lowered = [a.matrix @ psi.coefficients for a in ann]
    expected_n = sum(float(np.vdot(w, w).real) for w in lowered)
    if expected_n <= 1e-14:
        raise DomainError("vacuum-like state: expected particle number is zero")
    g = np.empty((basis.d, basis.d), dtype=complex)
    for i in range(basis.d):
        for j in range(basis.d):
            g[i, j] = np.vdot(lowered[j], lowered[i])
    g /= expected_n
    g = 0.5 * (g + g.conj().T)
    return ReducedDensity(matrix=g)


@dataclass(frozen=True)
class TraceComparison:
    trace_distance: float
    hs_norm: float


def trace_distance_to_rank_one(
    gamma: ReducedDensity, phi: np.ndarray
) -> TraceComparison:
    """Tr |Gamma - |phi><phi|| via eigendecomposition of the difference.

    For a PSD unit-trace Gamma against a rank-one projector the difference
    has a single negative eigenvalue, so the trace norm equals twice its
    magnitude and is controlled by twice the Hilbert-Schmidt norm.
    """
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise DomainError("comparison orbital must be normalized")
    diff = gamma.matrix - np.outer(phi, np.conj(phi))
    eigs = np.linalg.eigvalsh(diff)
    trace_dist = float(np.sum(np.abs(eigs)))
    hs = float(np.sqrt(np.sum(eigs**2)))
    if trace_dist > 2 * hs + 1e-12:
        raise InvariantViolation("trace norm exceeded twice the HS norm")
    negatives = int(np.sum(eigs < -1e-12))
    if negatives > 1:
        raise InvariantViolation("more than one negative eigenvalue")
    return TraceComparison(trace_distance=trace_dist, hs_norm=hs)


# ---------------------------------------------------------------------------
# projections and structural checks
# ---------------------------------------------------------------------------

def project_N(psi: FockVector, n: int):
    """Zero all shells except total occupation n; returns (vector, norm)."""
    if n > psi.basis.n_max or n < 0:
        raise DomainError("sector outside the cutoff")
    c = np.zeros_like(psi.coefficients)
    sl = psi.basis.shell_slices[n]
    c[sl] = psi.coefficients[sl]
    vec = FockVector(coefficients=c, basis=psi.basis)
    return vec, vec.norm()


def _sub_cutoff(basis: FockBasis, n_sub: Optional[int]) -> np.ndarray:
    """Mask of the states with total occupation <= n_sub (default n_max - 4)."""
    return basis.totals() <= (basis.n_max - 4 if n_sub is None else n_sub)


@dataclass(frozen=True)
class WeylRelationReport:
    product_residual: float
    shift_residual: float


def check_weyl_relations(
    basis: FockBasis, f: np.ndarray, g: np.ndarray, n_sub: Optional[int] = None
) -> WeylRelationReport:
    """Residuals of the Weyl product relation and the shift relation.

    Both W(f) W(g) = W(f+g) e^{-i Im<f, g>} and
    W(f)^dag a(g) W(f) = a(g) + <g, f> are compared in max norm on the
    sub-cutoff block (default n <= n_max - 4).
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    combined = float(np.sum(np.abs(f) ** 2) + np.sum(np.abs(g) ** 2))
    if combined > basis.n_max / 4.0:
        raise TruncationBudgetError("|f|^2 + |g|^2 exceeds the Poisson budget")
    keep = _sub_cutoff(basis, n_sub)

    wf = weyl(basis, f).to_dense()
    wg = weyl(basis, g).to_dense()
    wfg = weyl(basis, f + g).to_dense()
    phase = np.exp(-1j * np.imag(np.vdot(f, g)))
    prod_res = wf @ wg - wfg * phase
    product_residual = float(np.max(np.abs(prod_res[np.ix_(keep, keep)])))

    ag = annihilator_of(basis, g).to_dense()
    shift = np.vdot(g, f)
    lhs = wf.conj().T @ ag @ wf - ag - shift * np.eye(basis.dim)
    shift_residual = float(np.max(np.abs(lhs[np.ix_(keep, keep)])))
    return WeylRelationReport(
        product_residual=product_residual, shift_residual=shift_residual
    )


def bogoliubov_conjugation_residual(
    basis: FockBasis, K: np.ndarray, f: np.ndarray, n_sub: Optional[int] = None
) -> float:
    """Max-norm defect of T^dag a(f) T = a(ch(K) f) + a^dag(sh(K) conj(f))."""
    keep = _sub_cutoff(basis, n_sub)
    T = bogoliubov(basis, K).to_dense()
    ch, sh = mode_hyperbolic(K)
    f = np.asarray(f, dtype=complex)
    af = annihilator_of(basis, f).to_dense()
    target = annihilator_of(basis, ch @ f).to_dense()
    target = target + annihilator_of(basis, sh @ np.conj(f)).to_dense().conj().T
    lhs = T.conj().T @ af @ T - target
    return float(np.max(np.abs(lhs[np.ix_(keep, keep)])))


@dataclass(frozen=True)
class TntReport:
    smallest_c: float
    heuristic: float


def check_TNT_inequality(
    basis: FockBasis, K: np.ndarray, n_sub: Optional[int] = None
) -> TntReport:
    """Smallest C with C (N + 1) - T^dag N T >= 0 on the sub-cutoff block.

    On the truncated space the K = 0 value is n_sub/(n_sub + 1), approaching
    the untruncated constant 1 from below; the heuristic exp(2 |K|_HS) gives
    the expected growth scale in |K|.
    """
    keep = _sub_cutoff(basis, n_sub)
    T = bogoliubov(basis, K).to_dense()
    nmat = np.diag(basis.totals().astype(float))
    tnt = T.conj().T @ nmat @ T
    tnt = tnt[np.ix_(keep, keep)]
    weights = 1.0 / np.sqrt(basis.totals()[keep] + 1.0)
    pencil = weights[:, None] * tnt * weights[None, :]
    pencil = 0.5 * (pencil + pencil.conj().T)
    return TntReport(
        smallest_c=float(np.max(np.linalg.eigvalsh(pencil))),
        heuristic=math.exp(2.0 * float(np.linalg.norm(K))),
    )


# ---------------------------------------------------------------------------
# fluctuation dynamics
# ---------------------------------------------------------------------------

def evolve_state(H: FockOperator, psi: FockVector, t: float) -> FockVector:
    """e^{-i H t} psi by Krylov action (dense-free at any desk dimension)."""
    if t == 0:
        return psi
    return FockVector(
        coefficients=expm_multiply(-1j * t * H.matrix, psi.coefficients),
        basis=psi.basis,
    )


def _fluctuation_factors(
    basis: FockBasis,
    H: FockOperator,
    phi_traj: Callable[[float], np.ndarray],
    K_traj: Optional[Callable[[float], np.ndarray]],
    psi: FockVector,
    t: float,
    leakage_tol: float,
):
    """Apply T(K_0), W(f_0), e^{-iHt}, W*(f_t), T*(K_t) to psi in turn.

    Yields the state after e^{-iHt}, then the final state.  Shell leakage
    past the cutoff is measured after every factor; above the tolerance it
    raises, naming the factor.
    """
    def checked(vec: FockVector, name: str) -> FockVector:
        leak = vec.top_shell_mass()
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
    yield state
    state = checked(apply_weyl(basis, -phi_traj(t), state), "W*(f_t)")
    if K_traj is not None:
        state = checked(apply_bogoliubov(basis, -K_traj(t), state), "T*(k_t)")
    yield state


def fluctuation_dynamics(
    basis: FockBasis,
    H: FockOperator,
    phi_traj: Callable[[float], np.ndarray],
    K_traj: Optional[Callable[[float], np.ndarray]],
    psi: FockVector,
    t: float,
    leakage_tol: float = 1e-6,
) -> FockVector:
    """Five-factor fluctuation map applied to psi:

        T^dag(K_t) W^dag(f_t) e^{-iHt} W(f_0) T(K_0) psi

    phi_traj returns the Weyl argument f_t (already carrying the sqrt(N)
    amplitude); K_traj may be None for the uncorrelated ansatz.  Shell
    leakage past the cutoff is checked after every factor.
    """
    _, final = _fluctuation_factors(basis, H, phi_traj, K_traj, psi, t,
                                    leakage_tol)
    return final


def number_expectation(psi: FockVector) -> float:
    totals = psi.basis.totals().astype(float)
    return float(np.sum(totals * np.abs(psi.coefficients) ** 2))


# ---------------------------------------------------------------------------
# toy scenarios: convergence of reduced densities, generator cancellation
# ---------------------------------------------------------------------------

_ODE_DT = 1e-3         # RK4 step of the mean-field orbit
_CUTOFF_SIGMAS = 6.0   # n_max = N + sigmas sqrt(N) + base
_CUTOFF_BASE = 8


@dataclass(frozen=True)
class ToyScenario:
    """Mean-field-like interacting scenario over d modes.

    The Hamiltonian is sum h a^dag a + (g/2N) sum v a^dag a^dag a a; initial
    states are W(sqrt(N) phi0) T(K0) psi with K0 = -kappa0 phi0 phi0^T.
    """

    h: np.ndarray
    v: np.ndarray
    coupling: float
    phi0: np.ndarray
    kappa0: float
    t_final: float
    N_list: tuple
    leakage_tol: float = 1e-6

    def cutoff_for(self, N: int) -> int:
        # Poisson tail wants N + sigmas sqrt(N); the Weyl budget wants 4N
        tail = int(math.ceil(N + _CUTOFF_SIGMAS * math.sqrt(N))) + _CUTOFF_BASE
        return max(tail, 4 * N + 1)


def mean_field_trajectory(
    h: np.ndarray, v: np.ndarray, g: float, phi0: np.ndarray,
    t_final: float, dt: float,
):
    """RK4 integration of the limiting one-body equation
    i dphi = h phi + g sum_jkl v_ijkl conj(phi_j) phi_k phi_l."""
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
    times = np.linspace(0.0, t_final, steps + 1)
    return times, np.array(out)


@dataclass(frozen=True)
class ConvergenceReport:
    N_list: tuple
    t: float
    trace_distances: np.ndarray
    number_expectations: np.ndarray
    rate: RateReport


def toy_convergence_study(scenario: ToyScenario) -> ConvergenceReport:
    """Exact evolution across the N sweep, one pass of the five fluctuation
    factors per N: the trace distance of the reduced density after e^{-iHt}
    to the mean-field orbit, and the number of fluctuations left after the
    whole map."""
    d = scenario.phi0.size
    g = scenario.coupling
    times, orbit = mean_field_trajectory(
        scenario.h, scenario.v, g, scenario.phi0, scenario.t_final, _ODE_DT,
    )

    def orbit_at(t):
        idx = int(round(t / scenario.t_final * (len(times) - 1))) if \
            scenario.t_final else 0
        vec = orbit[idx]
        return vec / np.linalg.norm(vec)

    phi_t = orbit[-1] / np.linalg.norm(orbit[-1])
    distances, numbers = [], []
    for N in scenario.N_list:
        basis = build_basis(d, scenario.cutoff_for(N))
        H = hamiltonian(basis, scenario.h, scenario.v, coupling=g / N)

        def f_traj(t):
            return math.sqrt(N) * orbit_at(t)

        def k_traj(t):
            vec = orbit_at(t)
            return -scenario.kappa0 * np.outer(vec, vec)

        try:
            evolved, fluct = _fluctuation_factors(
                basis, H, f_traj, k_traj if scenario.kappa0 != 0 else None,
                vacuum(basis), scenario.t_final, scenario.leakage_tol,
            )
        except TruncationBudgetError as exc:
            raise TruncationBudgetError(f"{exc} at N = {N}") from exc
        distances.append(
            trace_distance_to_rank_one(
                reduced_density(evolved), phi_t).trace_distance
        )
        numbers.append(number_expectation(fluct))

    distances = np.array(distances)
    numbers = np.array(numbers)
    if np.max(distances) < 1e-12:
        rate = degenerate_report(
            scenario.N_list, distances, "degenerate scenario: zero distances"
        )
    else:
        rate = fit_rate(scenario.N_list, distances)
    return ConvergenceReport(
        N_list=tuple(scenario.N_list),
        t=scenario.t_final,
        trace_distances=distances,
        number_expectations=numbers,
        rate=rate,
    )


@dataclass(frozen=True)
class CancellationReport:
    ratio: float
    combined_norm: float
    kappa: float


def generator_cancellation_check(
    basis: FockBasis,
    u,
    g: float,
    N: int,
    phi: np.ndarray,
    omega: float,
    kappa: Optional[float] = None,
) -> CancellationReport:
    """Vacuum -> one-particle elements of the summed large linear terms.

    With the one-body trajectory solving the pair-weighted equation, the
    uncanceled linear generator term is sqrt(N) g omega u_i phi_i^3 (a_i^dag
    + a_i); conjugating the cubic term by T(-kappa phi phi^T) with kappa =
    N omega produces the opposite linear contribution.  At d modes the two
    length scales of the pair kernel collapse to one, leaving a residual
    ratio of order 2 kappa (exact single-mode value: the cubic route yields
    sh (3 sh ch - ch^2 - 2 sh^2) against -kappa e^-kappa), so small kappa is
    the demonstration regime.  kappa = 0 shows no cancellation (ratio ~ 1).
    """
    phi = np.asarray(phi, dtype=float)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise DomainError("mode vector must be real and normalized")
    u = np.asarray(u, dtype=float)
    if kappa is None:
        kappa = N * omega

    ann, cre = all_ladders(basis)
    modes = range(basis.d)
    l1 = _sparse_sum(basis, (
        (math.sqrt(N) * g * omega * u[i] * phi[i] ** 3,
         cre[i].matrix + ann[i].matrix)
        for i in modes))
    l3 = _sparse_sum(basis, (
        (g / math.sqrt(N) * u[i] * phi[i],
         cre[i].matrix @ cre[i].matrix @ ann[i].matrix
         + cre[i].matrix @ ann[i].matrix @ ann[i].matrix)
        for i in modes))

    if kappa != 0:
        T = _dense_expm(_bogoliubov_generator(basis, -kappa * np.outer(phi, phi)),
                        "Bogoliubov operator")
        Td = T.conj().T
        m1 = Td @ l1.toarray() @ T
        m3 = Td @ l3.toarray() @ T
    else:
        m1 = l1.toarray()
        m3 = l3.toarray()

    one_shell = basis.shell_slices[1]
    lin1, lin3 = m1[one_shell, 0], m3[one_shell, 0]
    combined = float(np.linalg.norm(lin1 + lin3))
    denom = max(float(np.linalg.norm(lin1)), float(np.linalg.norm(lin3)))
    return CancellationReport(
        ratio=combined / denom if denom > 0 else 0.0,
        combined_norm=combined,
        kappa=float(kappa),
    )


def poisson_shell_mass(mean: float, n: int) -> float:
    """exp(-mu) mu^n / n! via logarithms."""
    if mean == 0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
