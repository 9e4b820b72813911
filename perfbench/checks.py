"""Output checks for the benchmark's op kinds.

Every check takes what an op produced and returns ``None`` when the output
is correct, else a one-line reason.  Checks compare against identities and
against oracles written here with plain numpy, independent of the sparseact
code paths they check, at ``REL_TOL_EXACT`` or ``MC_SIGMA`` standard errors.
They never compare raw bytes against a stored copy, so a change of
summation order in the program is not a failure.

Oracles over whole cubes are computed once per process and chunked, so
that their memory stays below the ops' own peak.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

# The tolerances of sparseact.config when this benchmark was defined.  They
# are fixed here so that a change to the program's config cannot loosen
# the benchmark's checks.
REL_TOL_EXACT = 1e-9
MC_SIGMA = 4.0

_CHUNK = 1 << 16


# -- independent oracles -------------------------------------------------


def _signs(idx: np.ndarray, n: int) -> np.ndarray:
    """+-1 rows for packed indices: coordinate i is -1 iff bit i-1 is set."""
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1)


def net_arrays(net: dict) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    return (
        int(net["n"]),
        np.asarray(net["u"], dtype=np.float64),
        np.asarray(net["w"], dtype=np.float64).reshape(len(net["u"]), -1),
        np.asarray(net["b"], dtype=np.float64),
    )


def net_values(net: dict, idx: np.ndarray) -> np.ndarray:
    """h(x) = sum_j u_j relu(<w_j, x> - b_j) at the packed points ``idx``."""
    n, u, w, b = net_arrays(net)
    return np.maximum(_signs(idx, n) @ w.T - b, 0.0) @ u


def net_active(net: dict, idx: np.ndarray) -> np.ndarray:
    """Number of units with strictly positive pre-activation at ``idx``."""
    n, u, w, b = net_arrays(net)
    return ((_signs(idx, n) @ w.T - b) > 0.0).sum(axis=1)


def net_table(net: dict) -> np.ndarray:
    """The full value table of a net in index order."""
    size = 1 << int(net["n"])
    out = np.empty(size)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        out[lo:hi] = net_values(net, np.arange(lo, hi, dtype=np.int64))
    return out


def spectrum(table: np.ndarray) -> np.ndarray:
    """Fourier coefficients 2^-n sum_x f(x) chi_T(x), by subset bitmask."""
    a = table.copy()
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2 * h)
        lo = pairs[:, :h].copy()
        hi = pairs[:, h:]
        pairs[:, :h] += hi
        pairs[:, h:] = lo - hi
        h *= 2
    return a / a.size


def degrees(size: int) -> np.ndarray:
    return np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)


class NetOracle:
    """Exact Fourier quantities of one net, computed on first use."""

    def __init__(self, net: dict):
        self.net = net
        self._coeffs = None

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = spectrum(net_table(self.net))
        return self._coeffs

    def mass(self) -> float:
        return float(np.sum(self.coeffs**2))

    def avg_sensitivity(self) -> float:
        return float(np.sum(degrees(self.coeffs.size) * self.coeffs**2))

    def noise_sensitivity(self, rho: float) -> float:
        deg = degrees(self.coeffs.size)
        return float(np.sum(0.5 * (1.0 - np.float_power(rho, deg)) * self.coeffs**2))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL_EXACT * max(1.0, abs(want))


# -- CLI outputs ---------------------------------------------------------


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _spectrum_record(pairs: list[tuple]) -> tuple:
    """A JSON spectrum record as a (bitmask, coefficient) tuple.

    Tuples take a third of the memory of dicts, which keeps this check's
    peak below the transform's own.
    """
    if [key for key, _ in pairs] != ["bitmask", "coefficient"]:
        raise ValueError(f"unexpected record keys {[key for key, _ in pairs]}")
    return pairs[0][1], pairs[1][1]


def check_spectrum(oracle: NetOracle, text: str, fmt: str) -> str | None:
    """Parseval, and every coefficient against the oracle spectrum."""
    if fmt == "json":
        records = json.loads(text, object_pairs_hook=_spectrum_record)
        masks = np.array([r[0] for r in records], dtype=np.int64)
        coeffs = np.array([r[1] for r in records], dtype=np.float64)
    else:
        header, rows = _csv_rows(text)
        if header != ["bitmask", "coefficient"]:
            return f"unexpected header {header}"
        masks = np.array([int(r[0]) for r in rows], dtype=np.int64)
        coeffs = np.array([float(r[1]) for r in rows], dtype=np.float64)
    want = oracle.coeffs
    if masks.size != want.size or not np.array_equal(masks, np.arange(want.size)):
        return f"expected bitmasks 0..{want.size - 1} in order, got {masks.size} rows"
    scale = math.sqrt(oracle.mass())
    if not _close(float(np.sum(coeffs**2)), oracle.mass()):
        return f"Parseval: sum of squares {np.sum(coeffs ** 2)} vs {oracle.mass()}"
    worst = float(np.max(np.abs(coeffs - want)))
    if worst > REL_TOL_EXACT * max(1.0, scale):
        return f"coefficient off by {worst:.3g}"
    return None


def check_sensitivity(
    oracle: NetOracle, text: str, rhos: list[float], mc: bool
) -> str | None:
    """Exact = spectral = oracle; each MC row within MC_SIGMA of exact."""
    header, rows = _csv_rows(text)
    if header != ["quantity", "rho", "value", "stderr"]:
        return f"unexpected header {header}"
    table: dict[tuple[str, str], tuple[float, str]] = {}
    for quantity, rho, value, stderr in rows:
        table[(quantity, rho)] = (float(value), stderr)
    want_as = oracle.avg_sensitivity()
    for quantity in ("avg_sensitivity_exact", "avg_sensitivity_spectral"):
        got = table.get((quantity, ""))
        if got is None or not _close(got[0], want_as):
            return f"{quantity}: {got} vs oracle {want_as}"
    expected_rows = 2 + len(rhos) * (2 if mc else 1)
    if len(rows) != expected_rows:
        return f"expected {expected_rows} rows, got {len(rows)}"
    for rho in rhos:
        key = repr(float(rho))
        want = oracle.noise_sensitivity(rho)
        exact = table.get(("noise_sensitivity_exact", key))
        if exact is None or not _close(exact[0], want):
            return f"noise_sensitivity_exact at rho={rho}: {exact} vs {want}"
        if mc:
            got = table.get(("noise_sensitivity_mc", key))
            if got is None:
                return f"missing noise_sensitivity_mc at rho={rho}"
            est, err = got[0], float(got[1])
            if not err > 0.0 or abs(est - want) > MC_SIGMA * err:
                return f"MC at rho={rho}: {est} +- {err} vs exact {want}"
    return None


def _net_json(text: str) -> dict:
    net = json.loads(text)
    for key in ("n", "s", "k", "u", "w", "b"):
        if key not in net:
            raise ValueError(f"net JSON lacks {key!r}")
    return net


def check_junta(
    text: str, n: int, relevant: list[int], table_seed: int
) -> str | None:
    """The net reproduces the seeded truth table and is 1-sparse."""
    net = _net_json(text)
    p = len(relevant)
    if (net["n"], net["s"], net["k"]) != (n, 1 << p, 1):
        return f"shape (n, s, k) = {(net['n'], net['s'], net['k'])}"
    table = np.random.default_rng(table_seed).uniform(-1.0, 1.0, size=1 << p)
    rng = np.random.default_rng(table_seed + 1)
    pattern = np.arange(1 << p, dtype=np.int64)
    idx = rng.integers(0, 1 << n, size=1 << p)
    for j, coord in enumerate(relevant):
        bit = np.int64(1) << (coord - 1)
        idx = np.where((pattern >> j) & 1, idx | bit, idx & ~bit)
    got = net_values(net, idx)
    if np.max(np.abs(got - table)) > 1e-12:
        return f"truth table off by {np.max(np.abs(got - table)):.3g}"
    if net_active(net, idx).max() != 1:
        return "junta net is not exactly 1-sparse"
    return None


def check_index(text: str, bits: int, samples: int = 512) -> str | None:
    """Output is the addressed data bit (0/1); at most one unit active."""
    net = _net_json(text)
    n = bits + (1 << bits)
    if (net["n"], net["s"]) != (n, 1 << bits):
        return f"shape (n, s) = {(net['n'], net['s'])} for bits={bits}"
    rng = np.random.default_rng(bits)
    X = 1.0 - 2.0 * rng.integers(0, 2, size=(samples, n))
    _, u, w, b = net_arrays(net)
    pre = X @ w.T - b
    got = np.maximum(pre, 0.0) @ u
    address = ((X[:, :bits] > 0) * (1 << np.arange(bits - 1, -1, -1))).sum(axis=1)
    want = (X[np.arange(samples), bits + address] + 1.0) / 2.0
    if not np.array_equal(got, want):
        return "value differs from the addressed bit"
    if (pre > 0.0).sum(axis=1).max() > 1:
        return "more than one unit active"
    return None


def check_gamma(text: str, gate_bits: int, payload: int) -> str | None:
    """Shape, payload norms <= 1, and 1-sparsity (gamma = sqrt(q))."""
    net = _net_json(text)
    if (net["n"], net["s"]) != (gate_bits + payload, 1 << gate_bits):
        return f"shape (n, s) = {(net['n'], net['s'])}"
    _, _, w, _ = net_arrays(net)
    if np.max(np.linalg.norm(w[:, gate_bits:], axis=1)) > 1.0 + 1e-9:
        return "payload vector norm exceeds 1"
    idx = np.random.default_rng(gate_bits).integers(0, 1 << net["n"], size=4096)
    if net_active(net, idx).max() > 1:
        return "more than one unit active"
    return None


# -- learners --------------------------------------------------------------


def monomial_masks(n: int, d: int) -> np.ndarray:
    return np.array(
        [
            sum(1 << i for i in T)
            for size in range(d + 1)
            for T in itertools.combinations(range(n), size)
        ],
        dtype=np.int64,
    )


def least_squares_loss(idx: np.ndarray, y: np.ndarray, n: int, d: int) -> float:
    """Optimal mean half-squared loss over monomials of degree <= d."""
    masks = monomial_masks(n, d)
    phi = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & masks[None, :]) & 1)
    coef, *_ = np.linalg.lstsq(phi, y, rcond=None)
    return float(np.mean(0.5 * (phi @ coef - y) ** 2))


def check_low_degree(
    text: str, optimum: float, count: int, holdout: int
) -> str | None:
    """Training loss equals the least-squares optimum."""
    payload = json.loads(text)
    train = payload["train_loss"]
    if train["count"] != count:
        return f"trained on {train['count']} samples, expected {count}"
    if not _close(float(train["mse"]), optimum):
        return f"training loss {train['mse']} vs least-squares optimum {optimum}"
    if holdout:
        held = payload.get("holdout_loss")
        if held is None or held["count"] != holdout or not held["mse"] >= 0.0:
            return f"bad holdout loss {held}"
    return None


def check_decision_list(
    text: str, idx: np.ndarray, y: np.ndarray, n: int, tol: float
) -> str | None:
    """The returned list, evaluated here, fits every training label."""
    payload = json.loads(text)
    lst = payload["list"]
    X = _signs(idx, n)
    pred = np.full(idx.size, float(lst["default"]))
    undecided = np.ones(idx.size, dtype=bool)
    for node in lst["nodes"]:
        fires = (X @ np.asarray(node["gate_w"], dtype=np.float64) - node["gate_b"]) > 0.0
        take = fires & undecided
        pred[take] = X[take] @ np.asarray(node["leaf_v"]) + node["leaf_c"]
        undecided &= ~fires
    worst = float(np.max(np.abs(pred - y)))
    if worst > tol:
        return f"list misses a training label by {worst:.3g}"
    loss = payload["loss"]
    if loss["count"] != idx.size or not 0.0 <= loss["mse"] <= 0.5 * tol * tol:
        return f"reported loss {loss}"
    return None


def check_verify(text: str) -> str | None:
    lines = text.splitlines()
    if not lines:
        return "no check lines"
    failed = [line for line in lines if not line.startswith("PASS ")]
    return f"{len(failed)} checks did not pass: {failed[0]}" if failed else None


# -- sampled workload ------------------------------------------------------


def rademacher_rows(text: str, grid: list[int], exact: bool) -> dict[int, tuple]:
    """Parse and sanity-check a rademacher table; raises ValueError."""
    header, rows = _csv_rows(text)
    if header != ["m", "estimate", "stderr", "bound", "ratio"]:
        raise ValueError(f"unexpected header {header}")
    out = {}
    for m, est, err, bound, ratio in rows:
        est, err, bound, ratio = float(est), float(err), float(bound), float(ratio)
        if not (0.0 < est < bound and _close(ratio, est / bound)):
            raise ValueError(f"m={m}: estimate {est}, bound {bound}, ratio {ratio}")
        if (err == 0.0) != exact or err < 0.0:
            raise ValueError(f"m={m}: stderr {err} in {'exact' if exact else 'mc'} mode")
        out[int(m)] = (est, err)
    if list(out) != grid:
        raise ValueError(f"rows for m={list(out)}, expected {grid}")
    return out


def check_rademacher_mc(text: str, grid: list[int], exact_at: dict[int, float]) -> str | None:
    """Sanity of every row; mc within MC_SIGMA of exact where both exist."""
    try:
        rows = rademacher_rows(text, grid, exact=False)
    except ValueError as exc:
        return str(exc)
    shared = [m for m in grid if m in exact_at]
    if not shared:
        return "no exact value to compare the mc estimate against"
    for m in shared:
        est, err = rows[m]
        if abs(est - exact_at[m]) > MC_SIGMA * err:
            return f"m={m}: mc {est} +- {err} vs exact {exact_at[m]}"
    return None


def check_bucket_pairs(pairs: list[tuple], n: int, rho: float) -> str | None:
    """Reported r, bucket range, and per-coordinate flip rate 1/r."""
    r = int(math.floor(2.0 / (1.0 - rho)))
    arr = np.array(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        return f"unexpected pair records of shape {arr.shape}"
    if np.any(arr[:, 2] != r) or np.any((arr[:, 3] < 1) | (arr[:, 3] > r)):
        return f"bucket count or chosen bucket out of range (r={r})"
    trials = arr.shape[0] * n
    rate = int(np.bitwise_count(arr[:, 0] ^ arr[:, 1]).sum()) / trials
    p = 1.0 / r
    if abs(rate - p) > MC_SIGMA * math.sqrt(p * (1.0 - p) / trials):
        return f"flip rate {rate:.5f} vs 1/r = {p:.5f}"
    return None


# -- exhaustive scans ------------------------------------------------------


def scan_oracle(net: dict, k: int) -> tuple[int, int, int | None]:
    """(max active, number of points over k, first such index) over the cube."""
    size = 1 << int(net["n"])
    max_active, over, first = 0, 0, None
    for lo in range(0, size, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, size), dtype=np.int64)
        counts = net_active(net, idx)
        max_active = max(max_active, int(counts.max()))
        hits = np.flatnonzero(counts > k)
        over += hits.size
        if first is None and hits.size:
            first = int(idx[hits[0]])
    return max_active, over, first


def check_scan(report, size: int, max_active: int, over: int, first) -> str | None:
    got_first = None if report.violating_input is None else report.violating_input.index
    got = (report.max_active, report.violation_fraction, report.samples, got_first)
    want = (max_active, over / size, size, first)
    return None if got == want else f"(max, fraction, points, witness) {got} vs {want}"
