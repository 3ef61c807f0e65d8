"""Truncated bosonic Fock space over d discrete modes.

States live in the direct sum of symmetric n-particle sectors with total
occupation at most n_max.  A state is a complex numpy array over the
occupation basis: a vector, or a block of states as its columns; operators
are `LadderSum`s, sums of ladder monomials over the same basis.  The module
imports numpy alone.  It provides ladder operators, number-conserving
Hamiltonians, Weyl and Bogoliubov unitaries (dense numpy arrays by Pade
scaling and squaring at small dimension, real for a real f or K, and
truncated Taylor actions on states otherwise), reduced densities, the
top-shell share, and the toy-scale convergence and cancellation
experiments.  Both experiments take the pieces of the fluctuation
generator L_N from one place, `FockBasis.mode_products`.

Occupation vectors are enumerated graded-lexicographically: shells of total
occupation n in increasing n, and inside a shell the first mode decreases
from n to 0, recursively (d = 2, n <= 2: 00, 10, 01, 20, 11, 02).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .budgets import (
    DENSE_EXPM_CAP, DIM_BUDGET, FLUCTUATION_CUTOFF, KERNEL_HS_BUDGET, LEAKAGE_TOL,
    NORM_TOL, ORBIT_DT, POISSON_SHARE, ROUNDOFF_SLACK, VACUUM_FLOOR,
    basis_dimension, orbit_steps,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    TruncationBudgetError,
)
from .kernels import ch_sh_series
from .rates import RateReport, fit_rate


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

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
    def ladders(self) -> tuple:
        """(annihilators, creators) of every mode, built once."""
        ops = [ladder(self, mode) for mode in range(self.d)]
        return tuple(a for a, _ in ops), tuple(ad for _, ad in ops)

    @functools.cached_property
    def mode_products(self) -> tuple:
        """Per mode i, the products of its ladder operators that the pieces
        of L_N are made of: (n_i, a_i^dag^2, a_i^2, a_i^dag^2 a_i,
        a_i^dag a_i^2), built once."""
        products = []
        for a, ad in zip(*self.ladders):
            n, ad2 = ad @ a, ad @ ad
            products.append((n, ad2, a @ a, ad2 @ a, n @ a))
        return tuple(products)


def build_basis(d: int, n_max: int) -> FockBasis:
    """Enumerate the truncated space; refuses dimensions past DIM_BUDGET."""
    if d < 1 or n_max < 0:
        raise DomainError("need d >= 1 modes and n_max >= 0")
    dim = basis_dimension(d, n_max)
    if dim > DIM_BUDGET:
        raise ConfigurationError(
            f"basis dimension {dim} exceeds DIM_BUDGET = {DIM_BUDGET} "
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


def vacuum(basis: FockBasis) -> np.ndarray:
    psi = np.zeros(basis.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def top_shell_share(basis: FockBasis, psi: np.ndarray):
    """Share of |psi|^2 in the top shell n_max: a float for a vector, one
    value per column of a block of states."""
    share, _ = _top_share_and_norm(basis, psi)
    return float(share) if psi.ndim == 1 else share


def _top_share_and_norm(basis: FockBasis, psi: np.ndarray):
    """The top-shell share and the norm of a state, or of each column of a
    block, from one pass of squared moduli."""
    weight = psi.real ** 2 + psi.imag ** 2
    total = weight.sum(axis=0)
    return weight[basis.shell_slices[-1]].sum(axis=0) / total, np.sqrt(total)


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


@dataclass(frozen=True)
class LadderSum:
    """A sum of k ladder monomials over one basis, stacked and read-only.  A
    monomial maps each basis state to at most one, so it is a source index
    and a weight per row, (M x)[r] = weight[r] x[src[r]], 0 where none."""

    src: np.ndarray     # (k, dim) int
    weight: np.ndarray  # (k, dim)

    def __post_init__(self):
        self.src.setflags(write=False)
        self.weight.setflags(write=False)

    def __matmul__(self, other):
        """The product with a sum, monomials composed pairwise, or the action
        on a state or on a block of states as columns."""
        if isinstance(other, LadderSum):
            dim = self.src.shape[1]
            return LadderSum(
                src=other.src[:, self.src].reshape(-1, dim),
                weight=(self.weight * other.weight[:, self.src]).reshape(-1, dim))
        weight = self.weight if other.ndim == 1 else self.weight[:, :, None]
        return (weight * other[self.src]).sum(axis=0)

    def __sub__(self, other):
        return LadderSum(src=np.concatenate([self.src, other.src]),
                         weight=np.concatenate([self.weight, -other.weight]))

    def toarray(self) -> np.ndarray:
        """The dense matrix, of the weights' dtype."""
        dense = np.zeros((self.src.shape[1],) * 2, dtype=self.weight.dtype)
        for src, weight in zip(self.src, self.weight):
            dense[np.arange(len(src)), src] += weight
        return dense


def ladder(basis: FockBasis, mode: int):
    """(a, a_dagger) for one mode, with the standard sqrt(n) matrix elements."""
    if not 0 <= mode < basis.d:
        raise DomainError(f"mode {mode} outside 0..{basis.d - 1}")
    cols = np.flatnonzero(basis.occupations[:, mode])
    lowered = basis.occupations[cols]
    vals = np.sqrt(lowered[:, mode].astype(float))
    lowered[:, mode] -= 1
    rows = _rank(lowered)
    src = np.zeros((2, basis.dim), dtype=np.int64)
    weight = np.zeros((2, basis.dim))
    src[0, rows], src[1, cols] = cols, rows
    weight[0, rows] = weight[1, cols] = vals
    return LadderSum(src[:1], weight[:1]), LadderSum(src[1:], weight[1:])


def _ladder_sum(basis: FockBasis, terms) -> LadderSum:
    """Sum of coefficient * operator over the (coefficient, operator) pairs;
    terms with coefficient 0 are left out."""
    terms = [(c, op) for c, op in terms if c != 0]
    empty = np.zeros((0, basis.dim))
    return LadderSum(
        src=np.concatenate([op.src for _, op in terms] + [empty.astype(np.int64)]),
        weight=np.concatenate([c * op.weight for c, op in terms] + [empty]))


def _real_or_complex(x) -> np.ndarray:
    """x as a float64 array, or a complex128 one if x is complex."""
    x = np.asarray(x)
    return x.astype(np.result_type(x.dtype, np.float64), copy=False)


def _mode_vector(basis: FockBasis, f) -> np.ndarray:
    """f as one float or complex entry per mode; DomainError otherwise."""
    f = _real_or_complex(f)
    if f.shape != (basis.d,):
        raise DomainError(f"mode vector needs d = {basis.d} entries, got "
                          f"shape {f.shape}")
    return f


def annihilator_of(basis: FockBasis, f: np.ndarray) -> LadderSum:
    """a(f) = sum conj(f_i) a_i (antilinear in f), f one entry per mode."""
    ann, _ = basis.ladders
    return _ladder_sum(basis, zip(np.conj(_mode_vector(basis, f)), ann))


def hamiltonian(
    basis: FockBasis,
    h: np.ndarray,
    u: Optional[np.ndarray] = None,
    coupling: float = 0.0,
) -> LadderSum:
    """Sum h_ij a_i^dag a_j + (coupling/2) sum u_i a_i^dag a_i^dag a_i a_i.

    h must be hermitian; u holds the d real on-site weights.
    """
    h = np.asarray(h, dtype=complex)
    d = basis.d
    if h.shape != (d, d) or not np.allclose(h, h.conj().T, atol=ROUNDOFF_SLACK):
        raise DomainError("one-body matrix must be hermitian d x d (ROUNDOFF_SLACK)")
    ann, cre = basis.ladders
    terms = [(h[i, j], cre[i] @ ann[j]) for i, j in zip(*np.nonzero(h))]
    if u is not None and coupling != 0.0:
        u = _onsite_weights(u, d)
        terms += [(0.5 * coupling * u[i],
                   cre[i] @ cre[i] @ ann[i] @ ann[i])
                  for i in np.flatnonzero(u)]
    return _ladder_sum(basis, terms)


def _onsite_weights(u, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise DomainError(
            f"on-site weights need d = {d} values, got shape {u.shape}")
    return u


# ---------------------------------------------------------------------------
# Weyl and Bogoliubov unitaries
# ---------------------------------------------------------------------------

# theta_m of Higham (2005), Table 2.3: the largest 1-norm at which the
# [m/m] Pade approximant of exp reaches double precision
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}


def _expm_pade(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade scaling and squaring (Higham 2005, Algorithm 2.3): the
    lowest degree whose theta_m bounds the 1-norm of a, else degree 13 on
    a / 2^s, squared s times."""
    norm = float(np.linalg.norm(a, 1))
    m = next((m for m, theta in _PADE_THETA.items() if norm <= theta), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    a = a * 2.0 ** -s
    # b_j, the coefficients of the numerator p(x); the denominator is p(-x)
    b = [math.factorial(2 * m - j) * math.factorial(m)
         / (math.factorial(2 * m) * math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    even = [np.eye(len(a), dtype=a.dtype), a @ a]  # a^0, a^2, a^4, ...
    while len(even) <= m // 2:
        even.append(even[-1] @ even[1])
    u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
    v = sum(b[2 * k] * p for k, p in enumerate(even))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


# theta_m of Al-Mohy and Higham (2011), Table 3.1, and for m <= 30 of Higham
# and Al-Mohy (2010), Table A.3: the largest 1-norm at which m Taylor terms
# of exp reach double precision
_TAYLOR_THETA = dict(zip([*range(1, 31), 35, 40, 45, 50, 55], [
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 0.144, 0.214, 0.300, 0.400, 0.514, 0.641, 0.781, 0.931, 1.09,
    1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9]))


def _expm_action(gen: LadderSum, psi: np.ndarray) -> np.ndarray:
    """exp(gen) psi, psi a state or a block of states as columns, by the
    truncated Taylor series of Al-Mohy and Higham (2011), Algorithm 3.2: s
    steps of up to m terms, (m, s) of least m s with |gen|_1 / s <= theta_m,
    a step ending once two terms in a row are below double precision.
    |gen|_1 is exact, as no two monomials of a Weyl or Bogoliubov generator
    share an entry; they are traceless, so no shift is taken out."""
    norm = np.bincount(gen.src.ravel(), abs(gen.weight).ravel()).max(initial=0.0)
    m, s = min(((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    term = total = np.array(psi, dtype=complex)
    for _ in range(s):
        before = np.linalg.norm(term, np.inf)
        for j in range(m):
            term = (gen @ term) * (1.0 / (s * (j + 1)))
            size = np.linalg.norm(term, np.inf)
            total = total + term
            if before + size <= 2.0 ** -53 * np.linalg.norm(total, np.inf):
                break
            before = size
        term = total
    return total


def _dense_expm(gen: LadderSum, what: str) -> np.ndarray:
    """exp(gen) as a dense matrix; refused past DENSE_EXPM_CAP."""
    if gen.src.shape[1] > DENSE_EXPM_CAP:
        raise ConfigurationError(
            f"dense {what} capped at dimension {DENSE_EXPM_CAP} (DENSE_EXPM_CAP, "
            f"got {gen.src.shape[1]}); apply_weyl and apply_bogoliubov act on "
            "vectors at any dimension"
        )
    return _expm_pade(gen.toarray())


def _poisson_budget(basis: FockBasis, mean: float, what: str) -> None:
    """Refuse a mean occupation past POISSON_SHARE * n_max."""
    if mean > POISSON_SHARE * basis.n_max:
        raise TruncationBudgetError(
            f"{what} = {mean:.3g} exceeds the Poisson budget POISSON_SHARE * "
            f"n_max = {POISSON_SHARE * basis.n_max:.3g}")


def _weyl_generator(basis: FockBasis, f: np.ndarray) -> LadderSum:
    """a^dag(f) - a(f), real for a real f, refused unless f has one entry
    per mode and past the Poisson budget of |f|^2."""
    f = _mode_vector(basis, f)
    _poisson_budget(basis, float(np.sum(np.abs(f) ** 2)), "|f|^2")
    ann, cre = basis.ladders
    return _ladder_sum(basis, [(fi, ad) for fi, ad in zip(f, cre)]
                       + [(-np.conj(fi), a) for fi, a in zip(f, ann)])


def weyl(basis: FockBasis, f: np.ndarray) -> np.ndarray:
    """W(f) = exp(a^dag(f) - a(f)) as a dense unitary matrix, real
    (orthogonal) for a real f."""
    return _dense_expm(_weyl_generator(basis, f), "Weyl operator")


def apply_weyl(basis: FockBasis, f: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """W(f) psi by Taylor action; exact unitary on the truncated space."""
    return _expm_action(_weyl_generator(basis, f), psi)


def _bogoliubov_generator(basis: FockBasis, K: np.ndarray) -> LadderSum:
    """1/2 sum (K a^dag a^dag - conj(K) a a), real for a real K, refused
    past the budgets of a symmetric d x d kernel: |K|_HS <= KERNEL_HS_BUDGET
    and the Poisson budget of d sinh(|K|_HS)^2.  a_i^dag a_j^dag and
    a_j^dag a_i^dag are one monomial, taken once with the mean of K_ij and
    K_ji."""
    K = _real_or_complex(K)
    if K.shape != (basis.d, basis.d):
        raise DomainError("kernel matrix must be d x d")
    if not np.allclose(K, K.T, atol=ROUNDOFF_SLACK):
        raise DomainError("kernel matrix must be symmetric (ROUNDOFF_SLACK)")
    hs = float(np.linalg.norm(K))
    if hs > KERNEL_HS_BUDGET:
        raise TruncationBudgetError(f"|K|_HS = {hs:.3g} exceeds the "
                                    f"{KERNEL_HS_BUDGET} budget KERNEL_HS_BUDGET")
    _poisson_budget(basis, math.sinh(hs) ** 2 * basis.d,
                    "sinh-amplified occupation")
    ann, cre = basis.ladders
    pair = 0.5 * (np.triu(K + K.T) - np.diag(np.diag(K)))
    terms = []
    for i, j in zip(*np.nonzero(pair)):
        terms += [(pair[i, j], cre[i] @ cre[j]),
                  (-np.conj(pair[i, j]), ann[i] @ ann[j])]
    return _ladder_sum(basis, terms)


def bogoliubov(basis: FockBasis, K: np.ndarray) -> np.ndarray:
    """T(K) = exp(1/2 sum (K a^dag a^dag - conj(K) a a)) as a dense unitary,
    real (orthogonal) for a real K."""
    return _dense_expm(_bogoliubov_generator(basis, K), "Bogoliubov operator")


def apply_bogoliubov(basis: FockBasis, K: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """T(K) psi by Taylor action; psi may be a block of states as columns,
    acted on together."""
    return _expm_action(_bogoliubov_generator(basis, K), psi)


# ---------------------------------------------------------------------------
# reduced densities, particle numbers and trace distances
# ---------------------------------------------------------------------------

def number_expectation(basis: FockBasis, psi: np.ndarray) -> float:
    totals = basis.totals().astype(float)
    return float(np.sum(totals * np.abs(psi) ** 2))


@dataclass(frozen=True)
class ReducedDensity:
    """One-particle reduced density: hermitian, PSD, unit trace, each to
    ROUNDOFF_SLACK."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=ROUNDOFF_SLACK):
            raise InvariantViolation("reduced density not hermitian (ROUNDOFF_SLACK)")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -ROUNDOFF_SLACK:
            raise InvariantViolation("reduced density not PSD (ROUNDOFF_SLACK)")
        if abs(np.trace(m).real - 1.0) > ROUNDOFF_SLACK:
            raise InvariantViolation("reduced density trace not 1 (ROUNDOFF_SLACK)")


def _displaced_densities(basis: FockBasis, block: np.ndarray,
                         shifts: np.ndarray) -> list:
    """Reduced densities of W(f) xi for each column xi of the block and row
    f of the shifts, from moments in xi alone (W*(f) a_i W(f) = a_i + f_i):

        <a_j^dag a_i> + f_i <a_j^dag> + conj(f_j) <a_i> + f_i conj(f_j),

    each divided by its trace, the expected particle number.
    """
    ann, _ = basis.ladders
    lowered = np.stack([a @ block for a in ann])  # (d, dim, m)
    pairs = np.einsum("jkm,ikm->mij", lowered.conj(), lowered)
    means = np.einsum("km,ikm->mi", block.conj(), lowered)
    mixed = shifts[:, :, None] * means.conj()[:, None, :]
    moments = (pairs + mixed + mixed.conj().transpose(0, 2, 1)
               + shifts[:, :, None] * shifts.conj()[:, None, :])
    out = []
    for g in moments:
        expected_n = float(np.trace(g).real)
        if expected_n <= VACUUM_FLOOR:
            raise DomainError(
                "vacuum-like state: expected particle number is zero (VACUUM_FLOOR)")
        g = g / expected_n
        out.append(ReducedDensity(matrix=0.5 * (g + g.conj().T)))
    return out


def trace_distance_to_rank_one(gamma: ReducedDensity, phi: np.ndarray) -> float:
    """Tr |Gamma - |phi><phi|| via eigendecomposition of the difference.

    For a PSD unit-trace Gamma against a rank-one projector the difference
    has a single negative eigenvalue, so the trace norm equals twice its
    magnitude and is controlled by twice the Hilbert-Schmidt norm.
    """
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > NORM_TOL:
        raise DomainError(
            f"comparison orbital must be normalized to NORM_TOL = {NORM_TOL:g}")
    diff = gamma.matrix - np.outer(phi, np.conj(phi))
    eigs = np.linalg.eigvalsh(diff)
    trace_dist = float(np.sum(np.abs(eigs)))
    hs = float(np.sqrt(np.sum(eigs**2)))
    if trace_dist > 2 * hs + ROUNDOFF_SLACK:
        raise InvariantViolation("trace norm above twice the HS norm (ROUNDOFF_SLACK)")
    negatives = int(np.sum(eigs < -ROUNDOFF_SLACK))
    if negatives > 1:
        raise InvariantViolation("more than one eigenvalue below -ROUNDOFF_SLACK")
    return trace_dist


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _sub_cutoff(basis: FockBasis, n_sub: Optional[int] = None) -> np.ndarray:
    """Mask of the states with total occupation <= n_sub (default n_max - 4)."""
    return basis.totals() <= (basis.n_max - 4 if n_sub is None else n_sub)


@dataclass(frozen=True)
class WeylRelationReport:
    product_residual: float
    shift_residual: float


def check_weyl_relations(basis: FockBasis, f: np.ndarray,
                         g: np.ndarray) -> WeylRelationReport:
    """Residuals of the Weyl product relation and the shift relation.

    Both W(f) W(g) = W(f+g) e^{-i Im<f, g>} and
    W(f)^dag a(g) W(f) = a(g) + <g, f> are compared in max norm on the
    sub-cutoff block n <= n_max - 4.  For real f and g the unitaries and
    their products are real.
    """
    f, g = _mode_vector(basis, f), _mode_vector(basis, g)
    _poisson_budget(basis, float(np.sum(np.abs(f) ** 2) + np.sum(np.abs(g) ** 2)),
                    "|f|^2 + |g|^2")
    keep = _sub_cutoff(basis)

    wf = weyl(basis, f)
    wg = weyl(basis, g)
    wfg = weyl(basis, f + g)
    phase = np.exp(-1j * np.imag(np.vdot(f, g)))
    prod_res = wf @ wg - wfg * phase
    product_residual = float(np.max(np.abs(prod_res[np.ix_(keep, keep)])))

    ag = annihilator_of(basis, g).toarray()
    shift = np.vdot(g, f)
    lhs = wf.conj().T @ ag @ wf - ag - shift * np.eye(basis.dim)
    shift_residual = float(np.max(np.abs(lhs[np.ix_(keep, keep)])))
    return WeylRelationReport(
        product_residual=product_residual, shift_residual=shift_residual
    )


def bogoliubov_conjugation_residual(basis: FockBasis, K: np.ndarray,
                                    f: np.ndarray) -> float:
    """Max-norm defect of T^dag a(f) T = a(ch(K) f) + a^dag(sh(K) conj(f)) on
    the sub-cutoff block n <= n_max - 4."""
    keep = _sub_cutoff(basis)
    T = bogoliubov(basis, K)
    K = np.asarray(K, dtype=complex)
    p, r = ch_sh_series(K, tol=1e-16)  # ch(K) = 1 + p, sh(K) = K + r
    f = np.asarray(f, dtype=complex)
    af = annihilator_of(basis, f).toarray()
    target = annihilator_of(basis, f + p @ f).toarray()
    target += annihilator_of(basis, (K + r) @ np.conj(f)).toarray().conj().T
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
    T = bogoliubov(basis, K)
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
# toy scenarios: convergence of reduced densities, generator cancellation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyScenario:
    """Mean-field-like interacting scenario over d modes.

    The Hamiltonian is sum h a^dag a + (g/2N) sum u_i a_i^dag a_i^dag a_i a_i;
    initial states are W(sqrt(N) phi0) T(K0) psi with K0 = -kappa0 phi0 phi0^T.
    """

    h: np.ndarray
    u: np.ndarray
    coupling: float
    phi0: np.ndarray
    kappa0: float
    t_final: float
    N_list: tuple


def mean_field_trajectory(
    h: np.ndarray, u: np.ndarray, g: float, phi0: np.ndarray,
    t_final: float, dt: float,
):
    """RK4 integration of the limiting one-body equation
    i dphi_i = (h phi)_i + g u_i |phi_i|^2 phi_i, in orbit_steps(t_final,
    dt) equal steps (refused past STEP_BUDGET).

    The toy orbits have a few modes, so the steps run on lists of Python
    complex numbers, one per mode: a numpy call costs more than its work."""
    h = np.asarray(h, dtype=complex)
    u = _onsite_weights(u, h.shape[0])
    steps = orbit_steps(t_final, dt)
    modes = list(zip(h.tolist(), u.tolist()))

    def rhs(phi):
        out = []
        for (row, w), p in zip(modes, phi):
            s = 0
            for a, b in zip(row, phi):
                s += a * b
            out.append(-1j * (s + g * (w * (p.conjugate() * p) * p)))
        return out

    dt = t_final / steps
    half, sixth = 0.5 * dt, dt / 6.0
    phi = np.asarray(phi0, dtype=complex).tolist()
    out = [phi]
    for _ in range(steps):
        k1 = rhs(phi)
        k2 = rhs([p + half * q for p, q in zip(phi, k1)])
        k3 = rhs([p + half * q for p, q in zip(phi, k2)])
        k4 = rhs([p + dt * q for p, q in zip(phi, k3)])
        phi = [p + sixth * (a + 2 * b + 2 * c + e)
               for p, a, b, c, e in zip(phi, k1, k2, k3, k4)]
        out.append(phi)
    times = np.linspace(0.0, t_final, steps + 1)
    return times, np.array(out)


@dataclass(frozen=True)
class ConvergenceReport:
    N_list: tuple
    t: float
    trace_distances: np.ndarray
    number_expectations: np.ndarray
    rate: RateReport


def _fluctuation_generator(basis: FockBasis, h: np.ndarray, u: np.ndarray,
                           g: float, orbit: np.ndarray, N: np.ndarray):
    """-i L_N(t) of the fluctuation dynamics W*(sqrt(N) phi_t) e^{-iHt}
    W(sqrt(N) phi_0), as stacked monomials and their coefficients.

    With phi_t solving the mean-field equation the linear terms cancel and,
    up to a scalar, L_N(t) is
        sum h_ij a_i^dag a_j
        + sum_i g u_i [2 |phi_i|^2 n_i + (phi_i^2 a_i^dag^2 + h.c.) / 2]
        + sum_i (g u_i / sqrt(N)) (phi_i a_i^dag^2 a_i + h.c.)
        + sum_i (g u_i / 2N) a_i^dag^2 a_i^2.
    Returns their K monomials as one LadderSum, (K, dim), and the operator's
    coefficient of each, (node, column, 1, K), at each orbit node for each N.
    """
    ops = [hamiltonian(basis, h),
           hamiltonian(basis, np.zeros_like(h), u, coupling=1.0)]
    in_time = [np.ones(len(orbit)), np.full(len(orbit), g)]
    per_N = [np.ones_like(N), 1.0 / N]
    for i, products in enumerate(basis.mode_products):
        phi, gu = orbit[:, i], g * u[i]
        ops += products
        in_time += [2 * gu * np.abs(phi) ** 2, 0.5 * gu * phi ** 2,
                    0.5 * gu * np.conj(phi) ** 2, gu * phi, gu * np.conj(phi)]
        per_N += [np.ones_like(N)] * 3 + [1.0 / np.sqrt(N)] * 2
    counts = [len(op.src) for op in ops]
    coefficients = -1j * (np.repeat(in_time, counts, axis=0).T[:, None, None, :]
                          * np.repeat(per_N, counts, axis=0).T[None, :, None, :])
    return _ladder_sum(basis, ((1.0, op) for op in ops)), coefficients


def toy_convergence_study(scenario: ToyScenario) -> ConvergenceReport:
    """Exact evolution across the N sweep in the fluctuation frame.

    For every N the state is W(sqrt(N) phi_t) xi_t with xi_t the fluctuation
    dynamics of T(k_0) vacuum.  Its generator is O(1) in N, so one basis of
    cutoff FLUCTUATION_CUTOFF holds every N, and the N sweep is stepped
    together as the columns of one block: classical RK4 on pairs of orbit
    nodes, the midpoint stage at the odd node.  Reported per N are the trace
    distance of the reduced density of W(sqrt(N) phi_t) xi_t to the orbit and
    the number of fluctuations left in T*(k_t) xi_t.  Top-shell leakage is
    checked after T(k_0), after every step and after T*(k_t); above
    LEAKAGE_TOL it raises naming the factor or the step time, and the N, and
    so does a norm drift past NORM_TOL.
    """
    d = scenario.phi0.size
    g = scenario.coupling
    N = np.asarray(scenario.N_list, dtype=float)
    # the RK4 steps pair the orbit's nodes: take an even number of them
    pairs = math.ceil(orbit_steps(scenario.t_final) / 2)
    times, orbit = mean_field_trajectory(
        scenario.h, scenario.u, g, scenario.phi0, scenario.t_final,
        abs(scenario.t_final) / (2 * pairs) if scenario.t_final else ORBIT_DT,
    )
    orbit = orbit / np.linalg.norm(orbit, axis=1, keepdims=True)
    phi_t = orbit[-1]
    basis = build_basis(d, FLUCTUATION_CUTOFF)

    def checked(block: np.ndarray, where: str) -> np.ndarray:
        """Top-shell share and norm of every column after `where`."""
        shares, norms = _top_share_and_norm(basis, block)
        for n, leak, norm in zip(scenario.N_list, shares.tolist(),
                                 norms.tolist()):
            if leak > LEAKAGE_TOL:
                raise TruncationBudgetError(
                    f"truncation leakage {leak:.3e} above LEAKAGE_TOL after "
                    f"{where} at N = {n}")
            if abs(norm - 1.0) > NORM_TOL:
                raise InvariantViolation(
                    f"fluctuation norm drifted to {norm!r} after {where} "
                    f"at N = {n}")
        return block

    def kernel(phi):
        return -scenario.kappa0 * np.outer(phi, phi)

    xi = vacuum(basis)
    if scenario.kappa0 != 0:
        xi = apply_bogoliubov(basis, kernel(orbit[0]), xi)
    rows = checked(np.repeat(xi[None], N.size, axis=0).T, "factor T(k_0)").T

    ops, coefficients = _fluctuation_generator(
        basis, scenario.h, _onsite_weights(scenario.u, d), g, orbit, N)

    # states as rows, (N, dim).  Every monomial of every row is gathered in
    # one flat take: row n's sources offset by n * dim, an (N, K, dim) index
    # built once, as are the weights broadcast to it, so each derivative
    # takes no axis gather and no broadcast multiply; then one contraction
    flat = ops.src + basis.dim * np.arange(N.size)[:, None, None]
    weight = np.ascontiguousarray(np.broadcast_to(ops.weight, flat.shape))

    def derivative(node: int, x: np.ndarray) -> np.ndarray:
        terms = x.reshape(-1).take(flat)
        terms *= weight
        return np.matmul(coefficients[node], terms)[:, 0]

    for end in range(2, len(times), 2):
        dt = times[end] - times[end - 2]
        k1 = derivative(end - 2, rows)
        k2 = derivative(end - 1, rows + 0.5 * dt * k1)
        k3 = derivative(end - 1, rows + 0.5 * dt * k2)
        k4 = derivative(end, rows + dt * k3)
        rows = rows + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        checked(rows.T, f"the step to t = {times[end]:.6g}")
    block = rows.T

    distances = np.array([
        trace_distance_to_rank_one(gamma, phi_t)
        for gamma in _displaced_densities(
            basis, block, np.sqrt(N)[:, None] * phi_t)
    ])
    if scenario.kappa0 != 0:
        block = checked(apply_bogoliubov(basis, -kernel(phi_t), block),
                        "factor T*(k_t)")
    numbers = np.array([number_expectation(basis, col) for col in block.T])
    return ConvergenceReport(
        N_list=tuple(scenario.N_list),
        t=scenario.t_final,
        trace_distances=distances,
        number_expectations=numbers,
        rate=fit_rate(scenario.N_list, distances),
    )


@dataclass(frozen=True)
class CancellationReport:
    ratio: float
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
    if abs(np.linalg.norm(phi) - 1.0) > NORM_TOL:
        raise DomainError(
            f"mode vector must be real and normalized to NORM_TOL = {NORM_TOL:g}")
    u = _onsite_weights(u, basis.d)
    if kappa is None:
        kappa = N * omega

    ann, cre = basis.ladders
    l1 = _ladder_sum(basis, (
        (math.sqrt(N) * g * omega * u[i] * phi[i] ** 3, op)
        for i in range(basis.d) for op in (cre[i], ann[i])))
    l3 = _ladder_sum(basis, (
        (g / math.sqrt(N) * u[i] * phi[i], cubic)
        for i, products in enumerate(basis.mode_products)
        for cubic in products[3:]))

    if kappa != 0:
        T = bogoliubov(basis, -kappa * np.outer(phi, phi))
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
    return CancellationReport(ratio=combined / denom if denom > 0 else 0.0,
                              kappa=float(kappa))


def poisson_shell_mass(mean: float, n: int) -> float:
    """exp(-mu) mu^n / n! via logarithms."""
    if mean == 0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
