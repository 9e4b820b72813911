"""Exact Fourier analysis of real functions on the sign hypercube.

Functions are stored densely in the fixed index order of
:mod:`sparseact.hypercube`; spectra are stored densely with subset bitmasks
as indices (bit i-1 of the mask set iff coordinate i belongs to the subset).
Exactness at desk scale is the point: tables and spectra are capped at
n <= 20 (values array 8 MiB) rather than made approximate; ``values_at``
and the Monte-Carlo estimate, which never build a table, reach n <= 62.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_PACKED_N, MAX_TABULATE_N, MC_CHUNK
from .errors import CapacityError
from .hypercube import _hold_array, affine_blocks, flip_sampler, point_index
from .network import SparseNet
from .parallel import mean_and_stderr, run_chunked


@dataclass(frozen=True)
class CubeFunction:
    """A function {-1,+1}^n -> R as a dense array in index order."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _hold_array(self, "values", self.values, np.float64)
        if values.shape != (1 << self.n,):
            raise ValueError(
                f"need exactly 2^{self.n} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values contain non-finite entries")

    def norm2_sq(self) -> float:
        """||f||_2^2 = E_x f(x)^2 under the uniform distribution."""
        return float(np.mean(self.values**2))


@dataclass(frozen=True)
class Spectrum:
    """Dense Fourier coefficient table, indexed by subset bitmask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _hold_array(self, "coeffs", self.coeffs, np.float64)
        if coeffs.shape != (1 << self.n,):
            raise ValueError(
                f"need exactly 2^{self.n} coefficients, got shape {coeffs.shape}"
            )

    def degrees(self) -> np.ndarray:
        """|T| for every subset bitmask, aligned with ``coeffs``.

        Read-only; computed on the first call and kept with the spectrum,
        since every noise-sensitivity row of a spectrum reads it.
        """
        deg = self.__dict__.get("_degrees")
        if deg is None:
            masks = np.arange(1 << self.n, dtype=np.uint64)
            deg = _hold_array(self, "_degrees", np.bitwise_count(masks), np.int64)
        return deg

    def total_mass(self) -> float:
        return float(np.sum(self.coeffs**2))


def values_at(f, n: int, idx) -> np.ndarray:
    """f at the packed indices ``idx`` of {-1,+1}^n, as float64.

    A CubeFunction is looked up; anything with an ``eval_indices(idx)``
    method (nets, monomial models, decision lists) gets the packed indices
    as they are; any other callable is called once per point, with its
    packed index as an ``int``.
    """
    if isinstance(f, CubeFunction):
        if f.n != n:
            raise ValueError(f"function has n={f.n}, requested {n}")
        return f.values[idx]
    if hasattr(f, "eval_indices"):
        if f.n != n:
            raise ValueError(f"model has n={f.n}, requested {n}")
        return f.eval_indices(idx)
    return np.fromiter((f(int(u)) for u in idx), np.float64, len(idx))


def tabulate(f, n: int) -> CubeFunction:
    """Evaluate f on every cube point in index order.

    Accepts anything :func:`values_at` does; a CubeFunction is returned
    as-is, and a SparseNet's pre-activations come from
    :func:`~sparseact.hypercube.affine_blocks`.
    """
    if isinstance(f, CubeFunction):
        if f.n != n:
            raise ValueError(f"function has n={f.n}, requested {n}")
        return f
    if n > MAX_TABULATE_N:
        raise CapacityError(f"tabulation needs n <= {MAX_TABULATE_N}, got {n}")
    if isinstance(f, SparseNet):
        if f.n != n:
            raise ValueError(f"net has n={f.n}, requested {n}")
        values = np.empty(1 << n)
        for lo, z in affine_blocks(f.w, -f.b):
            np.maximum(z, 0.0, out=z)
            values[lo : lo + z.shape[1]] = f.u @ z
        return CubeFunction(n, values)
    return CubeFunction(n, values_at(f, n, np.arange(1 << n)))


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place fast transform: out[t] = sum_u a[u] * (-1)^popcount(u & t).

    Stages pairing elements under 256 apart run on transposed 2^16-element
    slices, where numpy adds whole rows, with each element's operations unchanged."""
    cols, scratch = min(a.size, 256), np.empty(a.size // 2)
    for lo in range(0, a.size, 1 << 16):
        rows = a[lo : lo + (1 << 16)].reshape(-1, cols)
        t = rows.T.copy()
        rows[:] = _butterflies(t.reshape(-1), t.shape[1], scratch).reshape(cols, -1).T
    return _butterflies(a, cols, scratch)


def _butterflies(a: np.ndarray, h: int, scratch: np.ndarray) -> np.ndarray:
    """The stages h, 2h, ... below a.size, in place."""
    while h < a.size:
        pairs, x = a.reshape(-1, 2, h), scratch[: a.size // 2].reshape(-1, h)
        np.copyto(x, pairs[:, 0])
        pairs[:, 0] += pairs[:, 1]
        np.subtract(x, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return a


def wht(f: CubeFunction) -> Spectrum:
    """Fourier coefficients f_hat(T) = 2^-n sum_x f(x) chi_T(x), O(n 2^n)."""
    a = f.values.astype(np.float64, copy=True)
    _fwht(a)
    a /= f.values.size
    return Spectrum(f.n, a)


def inverse_wht(spec: Spectrum) -> CubeFunction:
    """Reconstruct the value table from a spectrum (exact inverse of wht)."""
    a = spec.coeffs.astype(np.float64, copy=True)
    _fwht(a)
    return CubeFunction(spec.n, a)


def tail_mass(spec: Spectrum, d: int) -> float:
    """Squared coefficient mass above degree d: sum_{|T| > d} f_hat(T)^2."""
    if not 0 <= d <= spec.n:
        raise ValueError(f"degree must lie in [0, {spec.n}], got {d}")
    sq = spec.coeffs**2
    return float(sq[spec.degrees() > d].sum())


def sensitivity_at(f: CubeFunction, u: int) -> float:
    """Pointwise sensitivity at the packed point u: sum_i (f(x) - f(x^flip_i))^2 / 4.

    For +-1 valued f this counts the coordinates whose flip changes f(x).
    """
    u = point_index(u, f.n)
    fx = f.values[u]
    total = 0.0
    for i in range(f.n):
        total += (fx - f.values[u ^ (1 << i)]) ** 2
    return 0.25 * float(total)


def avg_sensitivity_exact(f: CubeFunction) -> float:
    """Exact mean of the pointwise sensitivity over the whole cube.

    Equals the degree-weighted coefficient mass sum_T |T| f_hat(T)^2.
    """
    total = 0.0
    for i in range(f.n):
        # the edges along coordinate i pair the two halves of each 2^(i+1) run
        pairs = f.values.reshape(-1, 2, 1 << i)
        d = pairs[:, 0, :] - pairs[:, 1, :]
        # dots of at most 2^13 terms, as OpenBLAS splits longer ones by thread
        parts = d.reshape(-1, min(d.size, 1 << 13))
        total += 2.0 * sum(float(np.vdot(p, p)) for p in parts)
    return 0.25 * total / f.values.size


def noise_sensitivity_exact(spec: Spectrum, rho: float) -> float:
    """sum_T (1 - rho^|T|) f_hat(T)^2 / 2, the exact noise sensitivity."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    powers = np.float_power(rho, np.arange(spec.n + 1))  # rho^d, indexed by degree
    return float(np.sum(0.5 * (1.0 - powers[spec.degrees()]) * spec.coeffs**2))


def noise_sensitivity_mc(
    f,
    rho: float,
    trials: int,
    rng: np.random.Generator,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Monte-Carlo noise sensitivity: mean of (f(x) - f(y))^2 / 4 with y
    a (1-rho)/2-noisy copy of a uniform x.  Returns (estimate, stderr).

    ``f`` is anything :func:`values_at` accepts that has an ``.n``
    attribute.  Points are drawn as packed int64 indices, so n <=
    MAX_PACKED_N (62).  Trials are processed in fixed chunks with
    generators spawned from ``rng``, so the result is identical for any
    thread count, and a function draws the same stream as its table.
    Flips come from one ``flip_sampler`` (ceil(n/8) words a row, exact to
    2^-56 per byte mask), so seeded estimates differ from versions that drew
    one double per coordinate.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    n = f.n
    if n > MAX_PACKED_N:
        raise CapacityError(f"int64-packed sampling needs n <= {MAX_PACKED_N}, got {n}")
    draw_flips = flip_sampler(n, (1.0 - rho) / 2.0)

    def worker(lo: int, hi: int, crng: np.random.Generator) -> np.ndarray:
        count = hi - lo
        xs = crng.integers(0, 1 << n, size=count)
        masks = draw_flips(count, crng)
        return 0.25 * (values_at(f, n, xs) - values_at(f, n, xs ^ masks)) ** 2

    return mean_and_stderr(run_chunked(worker, trials, rng, threads=threads, chunk=MC_CHUNK))
