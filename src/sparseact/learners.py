"""Learning algorithms: low-degree polynomial regression on the uniform
distribution, and an improper generalized-decision-list learner for
1-sparse targets under arbitrary distributions.

The regression learner fits least squares over all monomials of degree at
most d; on full-cube data with no ridge its coefficients coincide with the
exact Fourier coefficients, which the tests exploit as an oracle.  The list
learner peels the training set with integer-grid halfspace gates whose
positive side admits an exact affine fit.  Both learn from a
:class:`Dataset` of packed int64 indices and float64 labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_LIST_M, MAX_LIST_N, MAX_MONOMIALS
from .errors import CapacityError, InconsistentDataError, NoConsistentListError
from .fourier import tabulate, values_at
from .hypercube import CubePoint, index_signs, pack_signs, packed_indices


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Labeled points of {-1,+1}^n: packed indices ``idx`` (the encoding of
    :mod:`sparseact.hypercube`, int64, so n <= MAX_PACKED_N) and float64
    labels ``y``.  Both are read-only copies of what was passed."""

    n: int
    idx: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        idx = _frozen(packed_indices(self.idx, self.n))
        y = _frozen(np.array(self.y, dtype=np.float64))
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "y", y)
        if idx.shape != y.shape:
            raise ValueError(f"need idx and y of one shape, got {idx.shape}, {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels must be finite")

    def __len__(self) -> int:
        return self.idx.size


def _monomial_masks(n: int, d: int) -> np.ndarray:
    """Bitmasks of the subsets of size <= d, in (size, lexicographic) order."""
    subsets = (T for size in range(d + 1) for T in itertools.combinations(range(n), size))
    return np.array([sum(1 << i for i in T) for T in subsets], dtype=np.int64)


def _character(idx: np.ndarray, mask) -> np.ndarray:
    """chi_T at packed indices, as float64 +-1, for the subset bitmask of T."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1)


@dataclass(frozen=True)
class MonomialModel:
    """Predictor sum_j coeffs[j] chi_{masks[j]}(x) over monomials of degree <= d.

    ``masks`` holds subset bitmasks (bit i-1 set iff coordinate i is in the
    monomial); ``fit_low_degree`` lists them in (size, lexicographic) order.
    ``coeffs`` holds the matching coefficients.
    """

    n: int
    d: int
    masks: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        masks = _frozen(np.array(self.masks, dtype=np.int64))
        coeffs = _frozen(np.array(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "coeffs", coeffs)
        if masks.ndim != 1 or masks.shape != coeffs.shape:
            raise ValueError(f"need 1-d masks and coeffs of one shape, got {masks.shape}")
        if masks.size and (masks.min() < 0 or masks.max() >= 1 << self.n):
            raise ValueError(f"subset masks out of range [0, 2^{self.n})")
        if np.any(np.bitwise_count(masks) > self.d):
            raise ValueError(f"a coefficient subset exceeds degree {self.d}")

    def eval(self, x: CubePoint) -> float:
        return float(self.eval_batch(x.signs()[None])[0])

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, n) array of +-1 rows; returns (N,) floats."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected (N, {self.n}) sign rows, got {X.shape}")
        idx = pack_signs(X)
        out = np.zeros(idx.size)
        # term by term in mask order, not as a matrix product: reported
        # losses depend on this summation order
        for mask, c in zip(self.masks, self.coeffs):
            out += c * _character(idx, mask)
        return out


def fit_low_degree(data: Dataset, d: int, ridge: float = 1e-10) -> MonomialModel:
    """Least-squares fit over all monomials of degree <= d.

    Solves the normal equations with an optional ridge term for
    conditioning; ridge=0 is exact on full-cube data, where the design is
    orthogonal and the solution equals the truncated Fourier expansion.
    Deterministic for fixed inputs.
    """
    n = data.n
    if not 0 <= d <= n:
        raise ValueError(f"degree must lie in [0, {n}], got {d}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    count = sum(math.comb(n, size) for size in range(d + 1))
    if count > MAX_MONOMIALS:
        raise CapacityError(f"{count} monomials exceed the cap of {MAX_MONOMIALS}")
    masks = _monomial_masks(n, d)
    Phi = np.empty((len(data), count))
    for col, mask in enumerate(masks):
        Phi[:, col] = _character(data.idx, mask)
    G = Phi.T @ Phi
    if ridge > 0:
        G = G + ridge * np.eye(count)
    rhs = Phi.T @ data.y
    try:
        c = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    return MonomialModel(n=n, d=d, masks=masks, coeffs=c)


@dataclass(frozen=True)
class ListNode:
    """One (gate, leaf) stage: if <gate_w, x> - gate_b > 0 predict <leaf_v, x> + leaf_c."""

    gate_w: tuple[int, ...]
    gate_b: int
    leaf_v: tuple[float, ...]
    leaf_c: float


@dataclass(frozen=True)
class GeneralizedDecisionList:
    """Ordered cascade of halfspace gates with affine leaves."""

    n: int
    nodes: tuple[ListNode, ...]
    default: float = 0.0

    def eval(self, x: CubePoint) -> float:
        return float(self.eval_batch(x.signs()[None])[0])

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, n) array of +-1 rows; returns (N,) floats."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected (N, {self.n}) sign rows, got {X.shape}")
        out = np.full(X.shape[0], self.default)
        undecided = np.ones(X.shape[0], dtype=bool)
        for node in self.nodes:
            fires = (X @ np.asarray(node.gate_w, dtype=np.float64) - node.gate_b) > 0.0
            take = fires & undecided
            if take.any():
                out[take] = X[take] @ np.asarray(node.leaf_v) + node.leaf_c
            undecided &= ~fires
        return out


def _distinct_inputs(data: Dataset, tol: float) -> tuple[np.ndarray, ...]:
    """``np.unique(idx, return_index=True, return_inverse=True)``, after
    checking that every sample's label lies within tol of the first label
    its input carries."""
    uniq, first, inverse = np.unique(data.idx, return_index=True, return_inverse=True)
    prev = data.y[first[inverse]]
    bad = np.flatnonzero(np.abs(prev - data.y) > tol)
    if bad.size:
        i = bad[0]
        raise InconsistentDataError(
            f"input index {int(data.idx[i])} carries labels {float(prev[i])} "
            f"and {float(data.y[i])}"
        )
    return uniq, first, inverse


def _affine_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares affine fit; returns (v, c, max abs residual), the residual
    computed as ``GeneralizedDecisionList.eval_batch`` computes the leaf."""
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    v, c = sol[:-1], float(sol[-1])
    return v, c, float(np.max(np.abs(X @ v + c - y)))


def _gate_grid(n: int, M: int) -> np.ndarray:
    """Every gate (w, b) in {-M..M}^{n+1} as a float32 row, in lexicographic
    order; gate pre-activations on the cube are small integers, exact in float32."""
    grid = np.indices((2 * M + 1,) * (n + 1), dtype=np.float32)
    return grid.reshape(n + 1, -1).T - np.float32(M)


def _edge_steps(uniq: np.ndarray, y1: np.ndarray, n: int) -> list[tuple]:
    """Per coordinate i, the cube edges among the sorted distinct inputs
    ``uniq``: positions (lo, hi) of the endpoints with coordinate i at +1
    and at -1, and the label step y1[lo] - y1[hi] (inf where it
    overflows), sorted by step."""
    edges = []
    for i in range(n):
        lo = np.flatnonzero(uniq & (1 << i) == 0)
        partner = uniq[lo] | (1 << i)
        hi = np.minimum(np.searchsorted(uniq, partner), uniq.size - 1)
        hit = uniq[hi] == partner
        lo, hi = lo[hit], hi[hit]
        with np.errstate(over="ignore"):
            step = y1[lo] - y1[hi]
        order = np.argsort(step, kind="stable")
        edges.append((lo[order], hi[order], step[order]))
    return edges


def _within_spread(
    fires: np.ndarray, candidates: np.ndarray, live: np.ndarray, edges: list, slack: float
) -> np.ndarray:
    """The candidate gates, in their given order, on whose live covered
    edges no coordinate's label steps spread wider than ``slack``; a
    non-finite spread rules nothing out.  ``fires`` is inputs by gates."""
    ruled_out = np.zeros(fires.shape[1], dtype=bool)
    idx = np.sort(candidates)  # ascending columns gather faster
    with np.errstate(invalid="ignore"):  # inf - inf gives a nan spread
        for lo, hi, step in edges:
            keep = live[lo] & live[hi]
            lo, hi, step = lo[keep], hi[keep], step[keep]
            # steps ascend, and no gate's edges spread wider than all of them
            if lo.size < 2 or step[-1] - step[0] <= slack:
                continue
            both = fires[lo][:, idx] & fires[hi][:, idx]
            # a gate's spread runs from its first covered edge to its last
            first = both.argmax(axis=0)
            last = lo.size - 1 - both[::-1].argmax(axis=0)
            spread = step[last] - step[first]
            out = both[first, np.arange(idx.size)] & np.isfinite(spread) & (spread > slack)
            ruled_out[idx[out]] = True
            idx = idx[~out]
    return candidates[~ruled_out[candidates]]


def fit_decision_list(
    data: Dataset, s: int, M: int, tol: float = 1e-6
) -> GeneralizedDecisionList:
    """Peel the data with integer-grid halfspace gates and exact affine leaves.

    Each round scans every gate (w, b) in {-M..M}^{n+1} and selects, among
    the gates whose strictly-positive side covers at least
    ceil(remaining / (s+1)) samples and admits an affine fit with max
    absolute residual <= tol, the one with the largest coverage (ties broken
    by lexicographic order on (w, b)).  The covered samples are removed and
    the fitted leaf recorded; the default leaf is 0.  A 1-sparse net with s
    units splits the cube into at most s affine unit regions plus the
    inactive region where it vanishes, hence the s+1 in the pigeonhole
    threshold.

    Gates are evaluated once on the distinct inputs; coverage counts each
    input with its multiplicity.  Before any least-squares solve, a round
    rules out every candidate gate whose covered set carries two parallel
    cube edges with label steps more than ``4*tol + 1e-9*max|y|`` apart,
    which cannot change the result.  If a leaf (v, c) fits every covered
    label within tol, then along any edge x -> x' that flips coordinate i
    from +1 to -1 the step y(x) - y(x') equals 2*v_i up to 2*tol, so two
    such steps differ by at most 4*tol.  The steps use the first label of
    each input, which an accepted leaf fits like any other.  The second
    term bounds floating-point rounding: the residual check, the steps and
    their spread each round to within a few units in the last place of the
    magnitudes involved, and those are O(max|y|) -- the design has +-1
    entries and at most 7 columns, so by Cramer's rule (Hadamard's bound
    over the 2^(k-1) that divides every k x k +-1 determinant) the
    minimum-norm solution has |v_i| and |c| below a few hundred times
    max|y| + tol.  (When tol >= max|y| no spread can exceed 4*tol.)  The
    remaining candidates are fitted in the same order as without the test,
    so the chosen gates and leaves are the same.

    Raises ValueError for a negative or non-finite tol, NoConsistentListError
    when a round finds no qualifying gate, and InconsistentDataError when
    duplicate inputs disagree beyond tol.
    """
    n, y = data.n, data.y
    if s < 1:
        raise ValueError(f"target unit count must be >= 1, got {s}")
    if M < 1:
        raise ValueError(f"grid bound must be >= 1, got {M}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if n > MAX_LIST_N or M > MAX_LIST_M:
        raise CapacityError(
            f"grid search needs n <= {MAX_LIST_N} and M <= {MAX_LIST_M}, "
            f"got n={n}, M={M}"
        )
    uniq, first, inverse = _distinct_inputs(data, tol)
    mult = np.bincount(inverse)
    X = index_signs(data.idx, n).astype(np.float64)
    gates = _gate_grid(n, M)
    X_ext = np.hstack([index_signs(uniq, n), -np.ones((uniq.size, 1), np.int8)])
    fires = (X_ext.astype(np.float32) @ gates.T) > 0.0  # (distinct inputs, gates)
    edges = _edge_steps(uniq, y[first], n)
    slack = 4.0 * tol + 1e-9 * float(np.max(np.abs(y)))

    live = np.ones(uniq.size, dtype=bool)  # inputs no node covers yet
    nodes: list[ListNode] = []
    while live.any():
        remaining = int(mult[live].sum())
        # exact counts, one group per multiplicity (a single one on full-cube data)
        coverage = sum(
            m * np.count_nonzero(fires[live & (mult == m)], axis=0)
            for m in np.unique(mult[live])
        )
        threshold = math.ceil(remaining / (s + 1))
        # max coverage first, lexicographic gate order within equal coverage
        order = np.argsort(-coverage, kind="stable")
        candidates = order[: np.count_nonzero(coverage >= threshold)]
        chosen = None
        for gi in _within_spread(fires, candidates, live, edges, slack):
            covered = np.flatnonzero((live & fires[:, gi])[inverse])
            v, c, max_resid = _affine_fit(X[covered], y[covered])
            if max_resid <= tol:
                chosen = (gi, v, c)
                break
        if chosen is None:
            raise NoConsistentListError(
                f"no gate isolates an affine-fittable subset of size >= {threshold} "
                f"among the {remaining} remaining samples"
            )
        gi, v, c = chosen
        nodes.append(
            ListNode(
                gate_w=tuple(int(g) for g in gates[gi][:-1]),
                gate_b=int(gates[gi][-1]),
                leaf_v=tuple(float(t) for t in v),
                leaf_c=float(c),
            )
        )
        live &= ~fires[:, gi]
    result = GeneralizedDecisionList(n=n, nodes=tuple(nodes), default=0.0)
    # the peel order guarantees each sample fires exactly its covering node,
    # so the per-leaf residual bound transfers to the whole list; check it
    # rather than assume it
    achieved = float(np.max(np.abs(result.eval_batch(X) - y)))
    if achieved > tol:
        raise AssertionError(
            f"internal error: training residual {achieved:.3g} exceeds tol {tol}"
        )
    return result


@dataclass(frozen=True)
class LossReport:
    """Mean half-squared loss (1/2)(prediction - label)^2 over a dataset."""

    mse: float
    count: int


def evaluate_loss(predictor, data: Dataset) -> LossReport:
    """Mean loss of a predictor (anything :func:`~sparseact.fourier.values_at`
    accepts: a CubeFunction, a model with eval_batch, or a callable)."""
    preds = values_at(predictor, data.n, data.idx)
    return LossReport(mse=float(np.mean(0.5 * (preds - data.y) ** 2)), count=len(data))


def sample_uniform_dataset(f, n: int, m: int, rng: np.random.Generator) -> Dataset:
    """m uniform inputs labeled by f (anything ``values_at`` accepts)."""
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    idx = rng.integers(0, 1 << n, size=m)
    return Dataset(n, idx, values_at(f, n, idx))


def full_cube_dataset(f, n: int) -> Dataset:
    """Every point of the cube labeled by f, in index order."""
    return Dataset(n, np.arange(1 << n), tabulate(f, n).values)
