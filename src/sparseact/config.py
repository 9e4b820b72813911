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
# (8 MiB); the pre-activations come in fixed-size blocks on top of that.
MAX_TABULATE_N = 20

# Exhaustive sparsity scans keep only one block of pre-activations at a time
# (hypercube.affine_blocks), so they stretch a little further.  This is also
# the largest sample size whose 2^m Rademacher sign vectors are enumerated
# exactly, and the largest dimension of a sign table.
MAX_EXHAUSTIVE_N = 24

# Edge-decomposition of average sensitivity keeps per-unit activation
# tables in memory, hence the tighter cap.
MAX_SPLIT_N = 16

# Largest dimension whose points fit a non-negative int64 index: the cap of
# datasets, Monte-Carlo and bucket-pair draws, juntas and CubePoint.
MAX_PACKED_N = 62

# Monomial count cap for low-degree regression design matrices.
MAX_MONOMIALS = 100_000

# Decision-list gate grid {-M..M}^{n+1}: 5^7 gates at the caps.  2^6 = 64
# inputs are what let one uint64 word hold a gate's fire set.
MAX_LIST_N = 6
MAX_LIST_M = 2

# Constructions: junta relevant coordinates (2^p units), index-net address
# bits, parity-lift base dimension, gate/payload gate bits and payload size.
MAX_JUNTA_P = 20
MAX_INDEX_BITS = 10
MAX_LIFT_M = 12
MAX_GATE_BITS = 8
MAX_PAYLOAD_DIM = 16

# Fixed Monte-Carlo chunk size.  Chunk boundaries (and the per-chunk
# generator streams spawned from the caller's generator) depend only on the
# trial count, never on the thread count, so results are reproducible under
# any parallelism level.
MC_CHUNK = 16_384
