"""Learning algorithms: low-degree polynomial regression on the uniform
distribution, and an improper generalized-decision-list learner for
1-sparse targets under arbitrary distributions.

The regression learner fits least squares over all monomials of degree at
most d, from normal equations read off the transformed sample histogram;
on full-cube data with no ridge its coefficients are the exact Fourier
coefficients, which the tests exploit as an oracle.  The list
learner peels the training set with integer-grid halfspace gates whose
positive side admits an exact affine fit.  Both learn from a
:class:`Dataset` of packed int64 indices and float64 labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_LIST_M, MAX_LIST_N, MAX_MONOMIALS, MAX_PACKED_N, MAX_TABULATE_N
from .errors import CapacityError, InconsistentDataError, NoConsistentListError
from .fourier import _fwht, tabulate, values_at
from .hypercube import _check_dim, _hold_array, index_signs, packed_indices
from .network import _point_slices


@dataclass(frozen=True)
class Dataset:
    """Labeled points of {-1,+1}^n: packed indices ``idx`` (the encoding of
    :mod:`sparseact.hypercube`, int64, so n <= MAX_PACKED_N) and float64
    labels ``y``.  Both are read-only copies of what was passed."""

    n: int
    idx: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        idx = _hold_array(self, "idx", packed_indices(self.idx, self.n), np.int64)
        y = _hold_array(self, "y", self.y, np.float64)
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
        raw = np.asarray(self.masks)
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError(f"subset masks must be integers, got dtype {raw.dtype}")
        masks = _hold_array(self, "masks", raw, np.int64)
        coeffs = _hold_array(self, "coeffs", self.coeffs, np.float64)
        if masks.ndim != 1 or masks.shape != coeffs.shape:
            raise ValueError(f"need 1-d masks and coeffs of one shape, got {masks.shape}")
        if masks.size and (masks.min() < 0 or masks.max() >= 1 << self.n):
            raise ValueError(f"subset masks out of range [0, 2^{self.n})")
        if np.any(np.bitwise_count(masks) > self.d):
            raise ValueError(f"a coefficient subset exceeds degree {self.d}")

    def eval_indices(self, idx) -> np.ndarray:
        """Evaluate at packed int64 indices; returns a float64 array of
        their length.

        When the cube has n <= MAX_TABULATE_N and n 2^n <= len(idx) *
        len(masks), the whole value table is one in-place transform of the
        coefficients (duplicate masks summed) and is read at ``idx``, which
        agrees with the character sum to rounding; otherwise the character
        sum is taken term by term in mask order.
        """
        idx = packed_indices(idx, self.n)
        size = 1 << self.n
        if self.n <= MAX_TABULATE_N and self.n * size <= idx.size * self.masks.size:
            return _fwht(np.bincount(self.masks, weights=self.coeffs, minlength=size))[idx]
        return self._character_sum(idx)

    def _character_sum(self, idx: np.ndarray) -> np.ndarray:
        """sum_j coeffs[j] chi_{masks[j]} at packed indices, term by term in
        mask order rather than as a matrix product."""
        out = np.zeros(idx.size)
        for mask, c in zip(self.masks, self.coeffs):
            out += c * _character(idx, mask)
        return out


def _normal_equations(data: Dataset, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix G[S, T] = sum_i chi_S(x_i) chi_T(x_i) and the
    right-hand side rhs[S] = sum_i chi_S(x_i) y_i of the monomials ``masks``.

    Since chi_S chi_T = chi_{S xor T}, both are read off the transforms of
    two histograms over the cube: sample counts and label sums per input.
    G holds exact integer sums, equal to ``Phi.T @ Phi`` of the design
    matrix Phi bit for bit; rhs is summed in another order than
    ``Phi.T @ y``.  This costs O(n 2^n + m + count^2) time and
    O(2^n + count^2) memory, whatever the sample count m.  Above
    MAX_TABULATE_N the histograms would not fit, and the (m, count) design
    matrix is built.
    """
    if data.n <= MAX_TABULATE_N:
        size = 1 << data.n
        h = _fwht(np.bincount(data.idx, minlength=size).astype(np.float64))
        hy = _fwht(np.bincount(data.idx, weights=data.y, minlength=size))
        return h[masks[:, None] ^ masks[None, :]], hy[masks]
    Phi = np.empty((len(data), masks.size))
    for col, mask in enumerate(masks):
        Phi[:, col] = _character(data.idx, mask)
    return Phi.T @ Phi, Phi.T @ data.y


def fit_low_degree(data: Dataset, d: int, ridge: float = 1e-10) -> MonomialModel:
    """Least-squares fit over all monomials of degree <= d.

    Solves the normal equations (see :func:`_normal_equations`) with an
    optional ridge term for conditioning, falling back to least squares
    when they are singular.  On full-cube data the Gram matrix is 2^n I,
    so with ridge=0 and n <= MAX_TABULATE_N the coefficients equal the
    transform's ``wht(f).coeffs[masks]`` bit for bit.  Deterministic for
    fixed inputs.  Raises ValueError for a degree outside [0, n] or a
    negative or non-finite ridge.
    """
    n = data.n
    if not 0 <= d <= n:
        raise ValueError(f"degree must lie in [0, {n}], got {d}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    count = sum(math.comb(n, size) for size in range(d + 1))
    if count > MAX_MONOMIALS:
        raise CapacityError(f"{count} monomials exceed the cap of {MAX_MONOMIALS}")
    masks = _monomial_masks(n, d)
    G, rhs = _normal_equations(data, masks)
    if ridge > 0:
        G.flat[:: count + 1] += ridge  # G is the fresh matrix _normal_equations built
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

    def eval_indices(self, idx) -> np.ndarray:
        """Evaluate at packed int64 indices; returns a float64 array of their
        length, from the sign rows of one point slice at a time."""
        idx = packed_indices(idx, self.n)
        out = np.full(idx.size, self.default)
        for points, part in zip(_point_slices(idx, self.n), _point_slices(out, self.n)):
            X = index_signs(points, self.n).astype(np.float64)
            undecided = np.ones(points.size, dtype=bool)
            for node in self.nodes:
                fires = (X @ np.asarray(node.gate_w, dtype=np.float64) - node.gate_b) > 0.0
                take = fires & undecided
                if take.any():
                    part[take] = X[take] @ np.asarray(node.leaf_v) + node.leaf_c
                undecided &= ~fires
        return out


def _distinct_inputs(data: Dataset, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(idx, return_index=True)``, after checking that every
    sample's label lies within tol of the first label its input carries."""
    uniq, first, inverse = np.unique(data.idx, return_index=True, return_inverse=True)
    prev = data.y[first[inverse]]
    bad = np.flatnonzero(np.abs(prev - data.y) > tol)
    if bad.size:
        i = bad[0]
        raise InconsistentDataError(
            f"input index {int(data.idx[i])} carries labels {float(prev[i])} "
            f"and {float(data.y[i])}"
        )
    return uniq, first


def _affine_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares affine fit; returns (v, c, max abs residual), the residual
    computed as ``GeneralizedDecisionList.eval_indices`` computes the leaf."""
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    v, c = sol[:-1], float(sol[-1])
    return v, c, float(np.max(np.abs(X @ v + c - y)))


def _words(mask: np.ndarray) -> np.ndarray:
    """Bool rows over the 2^n <= 64 cube points as uint64 words, bit x = point x."""
    packed = np.packbits(mask, axis=-1, bitorder="little")  # 1, 2, 4 or 8 bytes
    return packed.view(f"<u{packed.shape[-1]}")[..., 0].astype(np.uint64)


def _fire_words(n: int, M: int) -> np.ndarray:
    """One word per gate (w, b) in {-M..M}^{n+1}, in lexicographic order (w_1
    slowest, b fastest): bit x set iff <w, x> - b > 0, exact in int8."""
    signs = index_signs(np.arange(1 << n), n)
    values = np.arange(-M, M + 1, dtype=np.int8)
    pre = np.zeros((1, 1 << n), np.int8)  # <w, x>, one row per w
    for i in range(n):
        pre = (pre[:, None, :] + values[:, None] * signs[:, i]).reshape(-1, 1 << n)
    return np.stack([_words(pre > b) for b in values], axis=1).ravel()


def _screen(
    fires: np.ndarray, candidates: np.ndarray, live: np.ndarray, y1: np.ndarray, slack: float
) -> np.ndarray:
    """The candidate gates (ascending) on whose live covered cube edges no
    coordinate's label steps spread wider than ``slack``, a non-finite spread
    ruling nothing out; ``live`` and the labels ``y1`` run over the cube."""
    points = np.arange(y1.size)
    bits = np.uint64(1) << points.astype(np.uint64)
    fl = fires[candidates] & _words(live)
    for i in range(y1.size.bit_length() - 1):
        lo = np.flatnonzero(live & live[points ^ (1 << i)] & ((points & (1 << i)) == 0))
        step = y1[lo] - y1[lo | (1 << i)]
        finite = np.isfinite(step)
        order = np.argsort(step[finite])
        t, tbits = step[finite][order], bits[lo[finite]][order]
        if t.size < 2 or t[-1] - t[0] <= slack:
            continue
        d = t - t[:, None]  # d[e, j] = t_j - t_e, ascending in j
        # W_e runs from the first tie of e to reach[e]; keep the widest ones
        reach = np.count_nonzero(d <= slack, axis=1)
        start = np.flatnonzero(np.diff(reach, prepend=0))
        cum = np.cumsum(np.insert(tbits, 0, 0))
        # a gate's covered edges along i, as the word of their +1 endpoints
        covered = fl & (fl >> np.uint64(1 << i)) & bits[lo].sum(dtype=np.uint64)
        keep = (covered & bits[lo[~finite]].sum(dtype=np.uint64)) != 0
        for w in cum[reach[start]] - cum[start]:
            keep |= (covered & ~w) == 0
        for e in np.flatnonzero(d[:, -1] == np.inf):
            high = tbits[d[e] == np.inf].sum(dtype=np.uint64)
            keep |= ((covered & tbits[e]) != 0) & ((covered & high) != 0)
        candidates, fl = candidates[keep], fl[keep]
    return candidates


@np.errstate(over="ignore", invalid="ignore")
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

    Each gate's fire set is one uint64 word, bit x set iff the gate fires at
    cube point x (n <= MAX_LIST_N = 6).  A round's coverage is exact: the
    sum over the bit-planes b of the input multiplicities of
    popcount(word & live & plane_b) << b.  Before any least-squares solve,
    a round rules out every candidate gate whose covered set carries two
    parallel cube edges with label steps more than ``slack = 4*tol +
    1e-9*max|y|`` apart, which cannot change the result.  If a leaf (v, c)
    fits every covered label within tol, then along any edge x -> x' that
    flips coordinate i from +1 to -1 the step y(x) - y(x') equals 2*v_i up
    to 2*tol, so two such steps differ by at most 4*tol.  The steps use the
    first label of each input, which an accepted leaf fits like any other.
    The second term bounds floating-point rounding: the residual check, the
    steps and their spread each round to within a few units in the last
    place of the magnitudes involved, and those are O(max|y|) -- the design
    has +-1 entries and at most 7 columns, so by Cramer's rule (Hadamard's
    bound over the 2^(k-1) that divides every k x k +-1 determinant) the
    minimum-norm solution has |v_i| and |c| below a few hundred times
    max|y| + tol.  (When tol >= max|y| no spread can exceed 4*tol.)

    Along coordinate i a gate's covered edges are a word too; it survives
    iff they meet a +-inf step, hold two steps whose difference overflows,
    or lie in a window {t >= step_e : t - step_e <= slack} of a finite edge
    e.  Rounding is monotone, so this is the spread rule (out iff max - min
    is finite and > slack): take e at the covered minimum; conversely max -
    min <= max - step_e.  Survivors are fitted by descending coverage, then
    ascending gate index, as a full stable sort orders them.  Labels near
    the float range overflow steps and residuals to +-inf, which rules
    nothing out or fails the fit; numpy's overflow warnings are off here.

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
    uniq, first = _distinct_inputs(data, tol)
    mult = np.bincount(data.idx, minlength=1 << n)
    live = mult > 0  # cube points of samples no node covers yet
    y1 = np.bincount(uniq, weights=y[first], minlength=1 << n)  # first label per point
    planes = _words((mult >> np.arange(int(mult.max()).bit_length())[:, None]) & 1 == 1)
    X = index_signs(data.idx, n).astype(np.float64)
    fires = _fire_words(n, M)
    slack = 4.0 * tol + 1e-9 * float(np.max(np.abs(y)))

    nodes: list[ListNode] = []
    while live.any():
        remaining = int(mult[live].sum())
        fl = fires & _words(live)
        coverage = sum(
            np.bitwise_count(fl & p).astype(np.int64) << b for b, p in enumerate(planes)
        )
        threshold = math.ceil(remaining / (s + 1))
        survivors = _screen(fires, np.flatnonzero(coverage >= threshold), live, y1, slack)
        chosen = None
        # max coverage first, ascending gate index within equal coverage
        while chosen is None and survivors.size:
            top = coverage[survivors] == coverage[survivors].max()
            for gi in survivors[top]:
                side = live & ((fires[gi] >> np.arange(1 << n, dtype=np.uint64)) & 1 == 1)
                covered = np.flatnonzero(side[data.idx])
                v, c, max_resid = _affine_fit(X[covered], y[covered])
                if max_resid <= tol:
                    chosen = (gi, side, v, c)
                    break
            survivors = survivors[~top]
        if chosen is None:
            raise NoConsistentListError(
                f"no gate isolates an affine-fittable subset of size >= {threshold} "
                f"among the {remaining} remaining samples"
            )
        gi, side, v, c = chosen
        *w, b = np.unravel_index(gi, (2 * M + 1,) * (n + 1))
        leaf_v = tuple(float(t) for t in v)
        nodes.append(ListNode(tuple(int(g) - M for g in w), int(b) - M, leaf_v, float(c)))
        live &= ~side
    result = GeneralizedDecisionList(n=n, nodes=tuple(nodes), default=0.0)
    # the peel order guarantees each sample fires exactly its covering node,
    # so the per-leaf residual bound transfers to the whole list; check it
    # rather than assume it
    achieved = float(np.max(np.abs(result.eval_indices(data.idx) - y)))
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
    accepts: a table, net or model with eval_indices, or a callable)."""
    preds = values_at(predictor, data.n, data.idx)
    return LossReport(mse=float(np.mean(0.5 * (preds - data.y) ** 2)), count=len(data))


def sample_uniform_dataset(f, n: int, m: int, rng: np.random.Generator) -> Dataset:
    """m uniform inputs labeled by f (anything ``values_at`` accepts)."""
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    _check_dim(n, MAX_PACKED_N)
    idx = rng.integers(0, 1 << n, size=m)
    return Dataset(n, idx, values_at(f, n, idx))


def full_cube_dataset(f, n: int) -> Dataset:
    """Every point of the cube labeled by f, in index order."""
    values = tabulate(f, n).values
    return Dataset(n, np.arange(values.size), values)
