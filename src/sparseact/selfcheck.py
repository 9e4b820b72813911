"""Exhaustive construction and identity checks behind the `verify` command.

Each check is a named callable returning (ok, detail); the runner prints one
PASS/FAIL line per check.  Everything is exhaustive or driven by a fixed
seed, so two runs produce identical output.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .config import RECON_TOL, REL_TOL_EXACT
from .constructions import (
    embed_lift,
    gamma_gated_net,
    index_net,
    junta_to_net,
    parity_lift,
    random_junta,
    random_net,
    reference_index,
)
from .fourier import (
    CubeFunction,
    avg_sensitivity_exact,
    inverse_wht,
    tabulate,
    wht,
)
from .hypercube import index_signs, pack_bits
from .network import SparseNet, avg_sensitivity_split, verify_sparsity

DEFAULT_SEED = 20240613


def check_junta_truth_table(n_max: int, rng: np.random.Generator):
    n = min(8, n_max)
    for p in range(0, min(4, n) + 1):
        spec = random_junta(rng, n, p)
        net = junta_to_net(spec)
        got = tabulate(net, n).values
        want = tabulate(spec.value, n).values
        if not np.allclose(got, want, atol=1e-12):
            return False, f"p={p}: max deviation {np.abs(got - want).max():.3g}"
        report = verify_sparsity(net, 1)
        if report.max_active != 1:
            return False, f"p={p}: {report.max_active} units active somewhere"
    return True, f"p in 0..{min(4, n)} on n={n}"


def check_index_reference(n_max: int, rng: np.random.Generator):
    checked = []
    for b in (1, 2, 3):
        n = b + (1 << b)
        if n > n_max:
            break
        net = index_net(b)
        want = tabulate(lambda u: reference_index(u, b), n).values
        bad = np.flatnonzero(tabulate(net, n).values != want)
        if bad.size:
            return False, f"b={b}: mismatch at index {bad[0]}"
        if verify_sparsity(net, 1).max_active > 1:
            return False, f"b={b}: more than one unit active"
        checked.append(b)
    return True, f"address bits {checked}"


def check_parity_lift(n_max: int, rng: np.random.Generator):
    for m in range(1, 5):
        y = np.arange(1 << m)
        lifted = embed_lift(y, m)
        ys = index_signs(y, m)
        support = pack_bits(lifted < 0)
        shifts = np.array([a for a in range(-m, m + 1) if a % 2 == 0])
        for size in range(1, m + 1):
            for S in itertools.combinations(range(1, m + 1), size):
                net = parity_lift(m, S)
                total = ys[:, [i - 1 for i in S]].sum(axis=1, dtype=np.int64)
                pre = net.preactivations(lifted)
                want = 0.5 - (total[:, None] - shifts[None, :]) ** 2
                bad = np.argwhere(pre != want)
                if bad.size:
                    yi, row = bad[0]
                    a, got, exp = shifts[row], pre[yi, row], want[yi, row]
                    return False, f"m={m}, S={S}, a={a}: {got} != {exp}"
                want_val = np.where(total % 2 == 0, 1.0, 0.0)
                bad = np.flatnonzero(net.eval_batch(lifted) != want_val)
                if bad.size:
                    return False, f"m={m}, S={S}, y={bad[0]}: value mismatch"
                rep = verify_sparsity(net, 1, support=support)
                if rep.max_active > 1:
                    return False, f"m={m}, S={S}: {rep.max_active} active on support"
    return True, "m in 1..4, all S"


def check_gamma_gate(n_max: int, rng: np.random.Generator):
    b, q = 2, 3
    if b + q > n_max:
        return True, "skipped (needs n_max >= 5)"
    table = rng.normal(size=(1 << b, q))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    net = gamma_gated_net(b, q, float(np.sqrt(q)), table)
    rep = verify_sparsity(net, 1)
    if rep.max_active > 1:
        return False, f"{rep.max_active} units active at index {rep.violating_input.index}"
    return True, f"b={b}, q={q}, gamma=sqrt(q)"


def check_wht_roundtrip(n_max: int, rng: np.random.Generator):
    n = min(10, n_max)
    for _ in range(5):
        f = CubeFunction(n, rng.normal(size=1 << n))
        spec = wht(f)
        back = inverse_wht(spec).values
        if np.max(np.abs(back - f.values)) > RECON_TOL:
            return False, f"reconstruction off by {np.max(np.abs(back - f.values)):.3g}"
        lhs = f.norm2_sq()
        rhs = spec.total_mass()
        if abs(lhs - rhs) > REL_TOL_EXACT * max(1.0, abs(lhs)):
            return False, f"Parseval: {lhs} vs {rhs}"
    return True, f"5 random functions on n={n}"


def check_spectral_sensitivity(n_max: int, rng: np.random.Generator):
    n = min(10, n_max)
    for _ in range(5):
        f = CubeFunction(n, rng.normal(size=1 << n))
        spec = wht(f)
        direct = avg_sensitivity_exact(f)
        weighted = float(np.sum(spec.degrees() * spec.coeffs**2))
        if abs(direct - weighted) > REL_TOL_EXACT * max(1.0, abs(direct)):
            return False, f"{direct} vs {weighted}"
    return True, f"5 random functions on n={n}"


def check_linear_piece(n_max: int, rng: np.random.Generator):
    n = min(8, n_max)
    net = random_net(rng, n, 6)
    idx = rng.integers(0, 1 << n, size=100)
    X = index_signs(idx, n).astype(np.float64)
    values = net.eval_batch(X)
    for u, x, z, value in zip(idx, X, net.preactivations(X), values):
        wR, bR = net.linear_piece(np.flatnonzero(z > 0.0) + 1)
        affine = float(wR @ x) - bR
        if abs(value - affine) > 1e-12 * max(1.0, abs(affine)):
            return False, f"mismatch at index {u}"
    return True, f"100 random points on n={n}"


def check_split_total(n_max: int, rng: np.random.Generator):
    n = min(8, n_max)
    net = random_net(rng, n, 5)
    split = avg_sensitivity_split(net)
    exact = avg_sensitivity_exact(tabulate(net, n))
    if abs(split.total - exact) > 1e-12 * max(1.0, abs(exact)):
        return False, f"{split.total} vs {exact}"
    return True, f"random net on n={n}"


def check_eval_envelope(n_max: int, rng: np.random.Generator):
    n = min(8, n_max)
    spec = random_junta(rng, n, min(3, n))
    net = junta_to_net(spec)
    scale = net.scale_params()
    cap = 1 * (scale.W * np.sqrt(n) + scale.B)  # k = 1 for junta nets
    values = tabulate(net, n).values
    if np.max(np.abs(values)) > cap + 1e-12:
        return False, f"|h| reaches {np.max(np.abs(values)):.3g} > {cap:.3g}"
    return True, f"junta net on n={n}"


def check_serialization(n_max: int, rng: np.random.Generator):
    net = random_net(rng, min(6, n_max), 4)
    text = net.to_json()
    back = SparseNet.from_json(text)
    same = (
        np.array_equal(net.u, back.u)
        and np.array_equal(net.w, back.w)
        and np.array_equal(net.b, back.b)
        and text == back.to_json()
    )
    return (True, "bit-exact round trip") if same else (False, "round trip changed bytes")


ALL_CHECKS: list[tuple[str, Callable]] = [
    ("junta_truth_table", check_junta_truth_table),
    ("index_reference", check_index_reference),
    ("parity_lift_identity", check_parity_lift),
    ("gamma_gate_sparsity", check_gamma_gate),
    ("wht_roundtrip_parseval", check_wht_roundtrip),
    ("spectral_sensitivity", check_spectral_sensitivity),
    ("linear_piece_identity", check_linear_piece),
    ("sensitivity_split_total", check_split_total),
    ("eval_envelope", check_eval_envelope),
    ("serialization_roundtrip", check_serialization),
]


def run_all(n_max: int, seed: int = DEFAULT_SEED) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.default_rng([seed, len(name)] + [ord(c) for c in name])
        ok, detail = fn(n_max, rng)
        results.append((name, ok, detail))
    return results
