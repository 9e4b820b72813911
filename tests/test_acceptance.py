"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failing criterion fails its test.  Everything is seeded, so
reruns are byte-for-byte repeatable.
"""

import itertools
import math

import numpy as np
import pytest

from sparseact import (
    ClassParams,
    CubeFunction,
    CubePoint,
    Dataset,
    InconsistentDataError,
    JuntaSpec,
    SparseNet,
    avg_sensitivity_bound,
    avg_sensitivity_exact,
    embed_lift,
    empirical_rademacher,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    full_cube_dataset,
    index_net,
    inverse_wht,
    junta_to_net,
    noise_sensitivity_exact,
    noise_sensitivity_mc,
    parity_lift,
    rademacher_bound,
    random_sparse_pool,
    reference_index,
    sample_bucket_pair,
    sample_uniform_dataset,
    tabulate,
    tail_mass,
    uniform_sample_set,
    verify_sparsity,
    wht,
    compare_to_bound,
)
from sparseact.cli import run


def report(number: int, name: str) -> None:
    print(f"[criterion {number:2d}] {name}: PASS")


def random_junta(rng, n, p, unit_table=False):
    relevant = tuple(int(i) + 1 for i in rng.choice(n, size=p, replace=False))
    table = rng.uniform(-1.0, 1.0, size=1 << p)
    if unit_table:
        table /= np.max(np.abs(table))  # pins the scale envelope
    return JuntaSpec(n=n, relevant=relevant, table=table)


def test_criterion_1_construction_equivalence():
    rng = np.random.default_rng(101)
    # juntas: every p <= 4 inside n <= 8, exact table equality on the cube
    for p in range(5):
        for n in (max(p, 1), 8):
            spec = random_junta(rng, n, p)
            net = junta_to_net(spec)
            for u in range(1 << n):
                x = CubePoint(n, u)
                assert net.eval(x) == spec.value(x)
            assert verify_sparsity(net, 1, "exhaustive").max_active <= 1
    # indexing: exact agreement with the reference indexer for b <= 3
    for b in (1, 2, 3):
        net = index_net(b)
        n = b + (1 << b)
        for u in range(1 << n):
            x = CubePoint(n, u)
            assert net.eval(x) == reference_index(x, b)
        assert verify_sparsity(net, 1, "exhaustive").max_active <= 1
    # parity lifting: affine identity and output semantics for m <= 4, all S
    for m in range(1, 5):
        for size in range(1, m + 1):
            for S in itertools.combinations(range(1, m + 1), size):
                net = parity_lift(m, S)
                shifts = [a for a in range(-m, m + 1) if a % 2 == 0]
                support = []
                for u in range(1 << m):
                    y = CubePoint(m, u)
                    x = embed_lift(y).to_point()
                    support.append(x)
                    total = sum(y.sign(i) for i in S)
                    pre = net.preactivations(x)
                    for row, a in enumerate(shifts):
                        assert pre[row] == 0.5 - (total - a) ** 2
                    assert net.eval(x) == (1.0 if total % 2 == 0 else 0.0)
                rep = verify_sparsity(net, 1, "exhaustive", support=support)
                assert rep.max_active <= 1
    report(1, "construction equivalence, exact over full supports")


def test_criterion_2_fourier_exactness():
    rng = np.random.default_rng(102)
    for trial in range(100):
        n = trial % 12 + 1
        f = CubeFunction(n, rng.normal(size=1 << n))
        spec = wht(f)
        norm = f.norm2_sq()
        assert abs(norm - spec.total_mass()) <= 1e-9 * max(1.0, abs(norm))
        back = inverse_wht(spec)
        assert np.max(np.abs(back.values - f.values)) <= 1e-10
        direct = avg_sensitivity_exact(f)
        weighted = float(np.sum(spec.degrees() * spec.coeffs**2))
        assert abs(direct - weighted) <= 1e-9 * max(1.0, abs(direct))
    report(2, "Parseval 1e-9, reconstruction 1e-10, spectral sensitivity 1e-9")


def test_criterion_3_noise_sensitivity_consistency():
    rng = np.random.default_rng(103)
    n = 10
    for _ in range(20):
        net = junta_to_net(random_junta(rng, n, 3))
        spec = wht(tabulate(net, n))
        for rho in (0.3, 0.6, 0.9):
            exact = noise_sensitivity_exact(spec, rho)
            est, err = noise_sensitivity_mc(net, rho, 100_000, rng)
            assert abs(est - exact) <= 4 * err, (rho, est, exact, err)
    report(3, "Monte-Carlo noise sensitivity within 4 stderr of exact")


def test_criterion_4_avg_sensitivity_scaling():
    rng = np.random.default_rng(104)

    def ratio(n):
        spec = random_junta(rng, n, 3, unit_table=True)  # W = sqrt(3), B = 2
        net = junta_to_net(spec)
        scale = net.scale_params()
        measured = avg_sensitivity_exact(tabulate(net, n))
        bound = avg_sensitivity_bound(
            ClassParams(n=n, s=net.s, k=1, W=scale.W, B=scale.B)
        ).value
        return measured / bound

    C = max(ratio(6) for _ in range(20))
    for _ in range(20):
        assert ratio(12) <= 2 * C
    report(4, f"sensitivity bound transfers n=6 -> n=12 with C={C:.4f}")


def test_criterion_5_bucket_sampler_fidelity():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(105)
    n, N = 8, 100_000
    for rho in (0.0, 0.5):
        r_want = int(math.floor(2.0 / (1.0 - rho)))
        indicators = np.zeros((N, n), dtype=bool)
        for t in range(N):
            x, y, r, _ = sample_bucket_pair(n, rho, rng)
            assert r == r_want
            indicators[t] = x.signs() != y.signs()
        p = 1.0 / r_want
        sigma = math.sqrt(p * (1 - p) / N)
        rates = indicators.mean(axis=0)
        assert np.all(np.abs(rates - p) <= 4 * sigma)
        for i in range(n):
            for j in range(i + 1, n):
                table = np.array(
                    [
                        [
                            np.sum(indicators[:, i] & indicators[:, j]),
                            np.sum(indicators[:, i] & ~indicators[:, j]),
                        ],
                        [
                            np.sum(~indicators[:, i] & indicators[:, j]),
                            np.sum(~indicators[:, i] & ~indicators[:, j]),
                        ],
                    ]
                )
                _, pvalue, _, _ = scipy_stats.chi2_contingency(table)
                assert pvalue > 0.001, (rho, i, j, pvalue)
    report(5, "bucket flip rate 4-sigma of 1/r; pairwise chi-square at 0.001")


def test_criterion_6_low_degree_oracle_equality():
    rng = np.random.default_rng(106)
    n, d = 10, 3
    f = CubeFunction(n, rng.normal(size=1 << n))
    data = full_cube_dataset(f, n)
    model = fit_low_degree(data, d, ridge=0.0)
    spec = wht(f)
    for mask, c in zip(model.masks, model.coeffs):
        assert abs(c - spec.coeffs[mask]) <= 1e-8
    loss = evaluate_loss(model, data).mse
    assert abs(loss - 0.5 * tail_mass(spec, d)) <= 1e-8
    report(6, "full-cube regression equals transform; loss equals tail/2")


def test_criterion_7_realizable_uniform_learning():
    successes = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        net = junta_to_net(random_junta(rng, 10, 3))
        train = sample_uniform_dataset(net, 10, 2000, rng)
        holdout = sample_uniform_dataset(net, 10, 2000, rng)
        model = fit_low_degree(train, 3)
        if evaluate_loss(model, holdout).mse <= 0.01:
            successes += 1
    assert successes >= 9, f"only {successes}/10 seeds reached held-out 0.01"
    report(7, f"realizable uniform learning: {successes}/10 seeds under 0.01")


def pattern_target(rng, n, s):
    """1-sparse target in the M=1 integer grid: units gate on distinct sign
    patterns of two coordinates (bias 1), real output weights."""
    coords = tuple(int(i) + 1 for i in rng.choice(n, size=min(2, n), replace=False))
    p = len(coords)
    patterns = list(itertools.product((-1, 1), repeat=p))
    chosen = [patterns[int(i)] for i in rng.choice(len(patterns), size=s, replace=False)]
    w = np.zeros((s, n))
    for j, pattern in enumerate(chosen):
        for t, coord in enumerate(coords):
            w[j, coord - 1] = pattern[t]
    u = rng.uniform(0.5, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    return SparseNet(n=n, s=s, k=1, u=u, w=w, b=np.full(s, p - 1.0))


def test_criterion_8_decision_list_recovery():
    rng = np.random.default_rng(108)
    cases = [(2, 1), (3, 2), (4, 3), (4, 1), (3, 3)]
    for n, s in cases:
        net = pattern_target(rng, n, s)
        assert verify_sparsity(net, 1, "exhaustive").max_active <= 1
        data = full_cube_dataset(net, n)
        dlist = fit_decision_list(data, s=s, M=1, tol=1e-6)
        residuals = [
            abs(dlist.eval(CubePoint(n, int(u))) - y) for u, y in zip(data.idx, data.y)
        ]
        assert max(residuals) <= 1e-6
        for u in range(1 << n):
            x = CubePoint(n, u)
            assert abs(dlist.eval(x) - net.eval(x)) <= 1e-6
    with pytest.raises(InconsistentDataError):
        fit_decision_list(Dataset(3, [2, 2], [0.0, 1.0]), s=1, M=1)
    report(8, "decision-list recovery exact on integer-grid 1-sparse targets")


def test_criterion_9_rademacher_scaling():
    rng = np.random.default_rng(109)
    pool = random_sparse_pool(ClassParams(n=8, s=8, k=1), 32, rng)
    gen = uniform_sample_set(8)

    rows = compare_to_bound(pool, gen, [24, 96], trials=10_000, rng=rng, mode="mc")
    ratio = rows[0]["estimate"] / rows[1]["estimate"]
    assert 1.6 <= ratio <= 2.4, ratio
    for row in rows:
        want = rademacher_bound(
            ClassParams(n=8, s=8, k=1, W=pool.W, B=pool.B, m=row["m"])
        ).value
        assert row["bound"] == want

    S12 = gen(12, rng)
    exact = empirical_rademacher(pool, S12, trials=0, mode="exact")
    mc = empirical_rademacher(pool, S12, trials=10_000, rng=rng, mode="mc")
    assert abs(exact.mean - mc.mean) <= 4 * mc.stderr
    report(9, f"1/sqrt(m) scaling ratio {ratio:.3f}; exact vs MC consistent")


def test_criterion_10_determinism(tmp_path):
    net_path = tmp_path / "net.json"
    rng = np.random.default_rng(110)
    net_path.write_text(junta_to_net(random_junta(rng, 6, 2)).to_json())

    def run_to_bytes(args, name):
        out = tmp_path / name
        assert run(args + ["--out", str(out)]) == 0
        return out.read_bytes()

    sens = ["sensitivity", "--net", str(net_path), "--rho", "0.3,0.7",
            "--trials", "40000", "--seed", "7"]
    a = run_to_bytes(sens + ["--threads", "1"], "s1.csv")
    b = run_to_bytes(sens + ["--threads", "1"], "s2.csv")
    c = run_to_bytes(sens + ["--threads", "4"], "s3.csv")
    assert a == b == c

    rad = ["rademacher", "--n", "6", "--s", "4", "--pool-count", "4",
           "--m-grid", "8,32", "--trials", "20000", "--seed", "3"]
    a = run_to_bytes(rad + ["--threads", "1"], "r1.csv")
    b = run_to_bytes(rad + ["--threads", "1"], "r2.csv")
    c = run_to_bytes(rad + ["--threads", "4"], "r3.csv")
    assert a == b == c

    learn = ["learn-low-degree", "--net", str(net_path), "--samples", "800",
             "--holdout", "200", "--seed", "5", "--degree", "2"]
    a = run_to_bytes(list(learn), "l1.json")
    b = run_to_bytes(list(learn), "l2.json")
    assert a == b

    gamma = ["construct", "--kind", "gamma", "--gate-bits", "2",
             "--payload-dim", "4", "--seed", "13"]
    a = run_to_bytes(list(gamma), "g1.json")
    b = run_to_bytes(list(gamma), "g2.json")
    assert a == b
    report(10, "seeded runs byte-identical, threads 1 vs 4 included")
