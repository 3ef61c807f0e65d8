"""The named budgets of gpk: every value a check compares with.

Pure Python (no numpy, no scipy), so `gpk.bench` checks a config against
the Fock caps and the toy study's step count before any stage runs without
importing `gpk.fock`.  Each check reads its budget here, by name, and its
error message names it.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

# invariants
NORM_TOL = 1e-10          # |norm - 1| of a field, a fluctuation state or an orbital
W_BOUND_SLACK = 1e-10     # how far the solved profile w may leave [0, 1]
ROUNDOFF_SLACK = 1e-12    # round-off of a matrix symmetry, a density, w's certificate
RATIO_SLACK = 1e-9        # rounding of a ratio that must be whole or shared

# accuracy and stability
ODE_DEFECT_BUDGET = 1e-8  # max per-step equation defect of the radial solver
STABILITY_BUDGET = 4.0 * math.pi  # max phase |dt| k_max^2 of one split step
STEP_BUDGET = 10_000_000  # max Strang steps of one evolution, t_final / dt
TAIL_WARN = 1e-8          # spectral tail mass that flags aliased Sobolev values
DEGENERATE_FLOOR = 1e-12  # distances or a0 below it are round-off: nothing to fit
TRANSFORM_TOL = 1e-4      # relative gap of the tabulated 3D uhat(0) from 8 pi a0

# Fock truncation
KERNEL_HS_BUDGET = 1.5    # max |K|_HS of a Bogoliubov kernel
POISSON_SHARE = 1 / 4     # max mean occupation of a Weyl or Bogoliubov factor / n_max
LEAKAGE_TOL = 1e-6        # max top-shell share of a toy-study state
DIM_BUDGET = 20000        # the largest basis any Fock operation builds
DENSE_EXPM_CAP = 1500     # the largest basis a dense Weyl or Bogoliubov unitary takes
VACUUM_FLOOR = 1e-14      # expected particle number at or below it: the vacuum
FLUCTUATION_CUTOFF = 16   # n_c of the toy study's basis, the same for every N
PROBE_CUTOFF = 12         # n_c of the fock stage's Weyl, TNT and leakage probes
ORBIT_DT = 1e-3           # RK4 step of the toy study's mean-field orbit


def basis_dimension(d: int, n_max: int) -> int:
    """Number of occupations of d modes with total at most n_max: the shells
    C(n + d - 1, d - 1) summed over n <= n_max (hockey stick)."""
    return math.comb(n_max + d, d) if n_max >= 0 else 0


def orbit_steps(t_final: float, dt: float = ORBIT_DT) -> int:
    """RK4 steps of a mean-field orbit to t_final at a step of about dt, at
    least one; refused past STEP_BUDGET, or if |t_final| / dt is not finite."""
    steps = abs(t_final) / dt
    if not steps <= STEP_BUDGET:
        raise ConfigurationError(
            f"t_final = {t_final:g} over the orbit step {dt:g} asks for "
            f"{steps:.3g} steps, past the step budget STEP_BUDGET = "
            f"{STEP_BUDGET}")
    return max(1, int(round(steps)))
