"""Fock basis sizes: the cutoffs and caps of every basis gpk builds.

Pure Python, so `gpk.bench` refuses an oversized basis when it loads a
config, before any stage runs and without importing `gpk.fock` (which
loads scipy).  `gpk.fock` enforces the same caps when it builds a basis
or a dense unitary.
"""

from __future__ import annotations

import math

DIM_BUDGET = 20000       # the largest basis any Fock operation builds
DENSE_EXPM_CAP = 1500    # the largest basis a dense Weyl or Bogoliubov unitary takes
FLUCTUATION_CUTOFF = 16  # n_c of the toy study's basis, the same for every N
PROBE_CUTOFF = 12        # n_c of the fock stage's Weyl, TNT and leakage probes


def basis_dimension(d: int, n_max: int) -> int:
    """Number of occupations of d modes with total at most n_max: the shells
    C(n + d - 1, d - 1) summed over n <= n_max (hockey stick)."""
    return math.comb(n_max + d, d) if n_max >= 0 else 0
