"""Shared numeric tolerances and capacity limits.

All exact-identity checks in this package compare at REL_TOL_EXACT relative
error; Monte-Carlo consistency checks use MC_SIGMA standard errors.  Keeping
them here means a single knob per kind of comparison.
"""

# Relative tolerance for exact algebraic identities (Parseval, spectral
# sensitivity, piecewise-linearity).
REL_TOL_EXACT = 1e-9

# Absolute tolerance for transform round-trips.
RECON_TOL = 1e-10

# Number of standard errors allowed between a Monte-Carlo estimate and its
# exact counterpart.
MC_SIGMA = 4.0

# Hard cap on dense 2^n tabulation.  values array at n=20 is 2^20 doubles
# (8 MiB); the sign table adds 2^20 x 20 int8 (20 MiB).
MAX_TABULATE_N = 20

# Exhaustive sparsity scans walk indices without materialising the full
# sign table, so they stretch a little further.  This is also the largest
# dimension of a CubePoint or Subset.
MAX_EXHAUSTIVE_N = 24

# Edge-decomposition of average sensitivity keeps per-unit activation
# tables in memory, hence the tighter cap.
MAX_SPLIT_N = 16

# Exact Rademacher enumeration over all 2^m sign patterns.
MAX_EXACT_RADEMACHER_M = 16

# Monomial count cap for low-degree regression design matrices.
MAX_MONOMIALS = 100_000

# Fixed Monte-Carlo chunk size.  Chunk boundaries (and the per-chunk
# generator streams spawned from the caller's generator) depend only on the
# trial count, never on the thread count, so results are reproducible under
# any parallelism level.
MC_CHUNK = 16_384
