"""The benchmark's workloads: seeded inputs and the op kinds run on them.

An op kind is one invocation of ``sparseact.cli.run`` (in process, output
captured) or one call of the public API, plus a check of its output.  Each
op kind adds its median wall time into one end-to-end metric.  Inputs are
written to a fresh directory from the workload seed during set-up; the
program only ever sees those files and arguments.

Why these workloads (see also layers.json):

* ``dense``: whole-cube analysis.  Tabulation, the WHT, exact sensitivity,
  the exhaustive sparsity scan and CLI output formatting do the work;
  samplers, learners and threads do none.  The cube-enumeration kernel
  shows here.  Transform tables are 2^18 points and sensitivity tables
  2^18 or 2^20: writing 2^20 CSV rows takes 3-5 s per op, which would leave
  one sample per op kind within a run.
* ``sampled``: Monte-Carlo trial counts drive the work, not cube size.
  The chunked parallel loop, the Rademacher sup and the samplers dominate;
  it is the only workload that uses threads.
* ``learn``: the per-sample object path (lists of points and samples), the
  design matrix and solve, and the decision-list gate grid.  The CLI reads
  CSV here, while ``dense`` writes it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from sparseact import cli, constructions, hypercube, network

DENSE_N = 18
RHOS = [0.3, 0.6, 0.9]
RHO_ARG = "0.3,0.6,0.9"


@dataclass(frozen=True)
class CliOutput:
    code: int
    out: str
    err: str


@dataclass
class Op:
    kind: str  # unique within the workload
    metric: str  # end-to-end metric that sums this kind's median
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # kind whose output in the same cycle must be byte-identical to this one
    same_as: str | None = None
    # a check that reads other ops' results cannot be cached by output
    memo: bool = True


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def cli_op(kind: str, metric: str, argv: list[str], check, **kw) -> Op:
    return Op(kind, metric, lambda: run_cli(argv), check, **kw)


def random_net(rng: np.random.Generator, n: int, s: int) -> network.SparseNet:
    return network.SparseNet(
        n=n,
        s=s,
        k=s,
        u=rng.uniform(-1.0, 1.0, size=s),
        w=rng.normal(size=(s, n)),
        b=rng.normal(size=s),
    )


def _write_net(path: Path, net: network.SparseNet) -> tuple[str, dict]:
    """Write a net file; returns its path and the parsed JSON for oracles."""
    text = net.to_json()
    path.write_text(text + "\n", encoding="utf-8")
    return str(path), json.loads(text)


def _write_dataset(path: Path, idx: np.ndarray, y: np.ndarray, n: int) -> str:
    signs = 1 - 2 * ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1)
    lines = [",".join([f"x{i}" for i in range(1, n + 1)] + ["y"])]
    lines += [",".join(map(str, row)) + "," + repr(float(v)) for row, v in zip(signs, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(v) for v in state]


def _lazy(fn):
    """Memoize a zero-argument oracle so it runs at most once per process."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


# -- dense ---------------------------------------------------------------------


def dense(workdir: Path, seed: int, mc_threads: int) -> list[Op]:
    junta_seed, gamma_seed, net_seed = _seeds(seed, 1, 3)
    rng = np.random.default_rng(net_seed)
    relevant = sorted(int(i) + 1 for i in rng.choice(DENSE_N, size=6, replace=False))
    relevant_arg = ",".join(map(str, relevant))
    # the table `construct --kind junta --seed` draws, so both ops agree
    table = np.random.default_rng(junta_seed).uniform(-1.0, 1.0, size=64)
    junta_path, junta = _write_net(
        workdir / "junta.json",
        constructions.junta_to_net(
            constructions.JuntaSpec(n=DENSE_N, relevant=tuple(relevant), table=table)
        ),
    )
    index_obj = constructions.index_net(4)
    index_path, index = _write_net(workdir / "index4.json", index_obj)
    random_path, rand = _write_net(workdir / "random.json", random_net(rng, DENSE_N, 64))
    scan_net = random_net(rng, 22, 32)
    scan_dict = _write_net(workdir / "random22.json", scan_net)[1]

    oracle = {
        "junta": checks.NetOracle(junta),
        "index": checks.NetOracle(index),
        "random": checks.NetOracle(rand),
    }
    paths = {"junta": junta_path, "index": index_path, "random": random_path}
    scan_k = 4
    scan_truth = _lazy(lambda: checks.scan_oracle(scan_dict, scan_k))

    def transform_check(name, fmt):
        return lambda r: checks.check_spectrum(oracle[name], r.out, fmt)

    def sensitivity_check(name):
        return lambda r: checks.check_sensitivity(oracle[name], r.out, RHOS, mc=False)

    ops = [
        cli_op(
            "construct.junta",
            "construct_s",
            ["construct", "--kind", "junta", "--n", str(DENSE_N), "--relevant",
             relevant_arg, "--seed", str(junta_seed)],
            lambda r: checks.check_junta(r.out, DENSE_N, relevant, junta_seed),
        ),
        cli_op("construct.index4", "construct_s",
               ["construct", "--kind", "index", "--bits", "4"],
               lambda r: checks.check_index(r.out, 4)),
        cli_op("construct.index10", "construct_s",
               ["construct", "--kind", "index", "--bits", "10"],
               lambda r: checks.check_index(r.out, 10)),
        cli_op("construct.gamma", "construct_s",
               ["construct", "--kind", "gamma", "--gate-bits", "8", "--payload-dim",
                "16", "--seed", str(gamma_seed)],
               lambda r: checks.check_gamma(r.out, 8, 16)),
        cli_op("transform.junta", "transform_s", ["transform", "--net", junta_path],
               transform_check("junta", "csv")),
        cli_op("transform.random", "transform_s", ["transform", "--net", random_path],
               transform_check("random", "csv")),
        cli_op("transform.random_json", "transform_s",
               ["transform", "--net", random_path, "--format", "json"],
               transform_check("random", "json")),
    ]
    for name in ("junta", "index", "random"):
        ops.append(
            cli_op(f"sensitivity.{name}", "sensitivity_s",
                   ["sensitivity", "--net", paths[name], "--rho", RHO_ARG],
                   sensitivity_check(name))
        )
    ops.append(
        Op("scan.index4", "sparsity_scan_s",
           lambda: network.verify_sparsity(index_obj, 1, "exhaustive"),
           # at most one unit is ever strictly active in the index net
           lambda rep: checks.check_scan(rep, 1 << index_obj.n, 1, 0, None))
    )
    ops.append(
        Op("scan.random22", "sparsity_scan_s",
           lambda: network.verify_sparsity(scan_net, scan_k, "exhaustive"),
           lambda rep: checks.check_scan(rep, 1 << scan_net.n, *scan_truth()))
    )
    return ops


# -- sampled -------------------------------------------------------------------

MC_TRIALS = 4_000_000
BUCKET_CALLS = 20_000
BUCKET_N, BUCKET_RHO = 20, 0.9
RAD_ARGS = ["--n", "14", "--s", "16", "--pool-count", "32", "--trials", "100000"]
# m=8 leads both grids: both runs draw the same pool and then the same first
# sample set, so the mc estimate at m=8 is checked against the exact value.
RAD_MC_GRID = [8, 24, 96, 384]
RAD_EXACT_GRID = [8, 12, 16]


def sampled(workdir: Path, seed: int, mc_threads: int) -> list[Op]:
    net_seed, mc_seed, rad_seed, bucket_seed = _seeds(seed, 2, 4)
    net_path, net = _write_net(
        workdir / "random16.json", random_net(np.random.default_rng(net_seed), 16, 32)
    )
    oracle = checks.NetOracle(net)
    exact_at: dict[int, float] = {}

    def sensitivity_argv(threads):
        return ["sensitivity", "--net", net_path, "--rho", RHO_ARG, "--trials",
                str(MC_TRIALS), "--seed", str(mc_seed), "--threads", str(threads)]

    def rademacher_argv(grid, mode):
        return ["rademacher", *RAD_ARGS, "--m-grid", ",".join(map(str, grid)),
                "--seed", str(rad_seed), "--mode", mode, "--threads", str(mc_threads)]

    def exact_check(r):
        try:
            rows = checks.rademacher_rows(r.out, RAD_EXACT_GRID, exact=True)
        except ValueError as exc:
            return str(exc)
        exact_at.update({m: est for m, (est, _) in rows.items()})
        return None

    def bucket_pairs():
        rng = np.random.default_rng(bucket_seed)
        pairs = []
        for _ in range(BUCKET_CALLS):
            x, y, r, b = hypercube.sample_bucket_pair(BUCKET_N, BUCKET_RHO, rng)
            pairs.append((x.index, y.index, r, b))
        return pairs

    def mc_check(r):
        return checks.check_sensitivity(oracle, r.out, RHOS, mc=True)

    return [
        cli_op("sensitivity.mc_threaded", "sensitivity_s",
               sensitivity_argv(mc_threads), mc_check),
        cli_op("sensitivity.mc_1t", "sensitivity_1t_s", sensitivity_argv(1), mc_check,
               same_as="sensitivity.mc_threaded"),
        cli_op("rademacher.exact", "rademacher_s",
               rademacher_argv(RAD_EXACT_GRID, "exact"), exact_check),
        cli_op("rademacher.mc", "rademacher_s", rademacher_argv(RAD_MC_GRID, "mc"),
               lambda r: checks.check_rademacher_mc(r.out, RAD_MC_GRID, exact_at),
               memo=False),
        Op("bucket_pairs", "bucket_pairs_s", bucket_pairs,
           lambda pairs: checks.check_bucket_pairs(pairs, BUCKET_N, BUCKET_RHO)),
    ]


# -- learn ---------------------------------------------------------------------

LD_SAMPLES, LD_DEGREE = 20_000, 3
CSV_N, CSV_ROWS, CSV_DEGREE = 14, 5_000, 2
DLIST_TOL = 1e-6  # the CLI's default --tol


def learn(workdir: Path, seed: int, mc_threads: int) -> list[Op]:
    net_seed, ld_seed, csv_seed, junta_seed = _seeds(seed, 3, 4)
    net_path, net = _write_net(
        workdir / "random16.json", random_net(np.random.default_rng(net_seed), 16, 32)
    )
    rng = np.random.default_rng(csv_seed)
    label_net = _write_net(workdir / "label14.json", random_net(rng, CSV_N, 16))[1]
    csv_idx = rng.integers(0, 1 << CSV_N, size=CSV_ROWS)
    csv_y = checks.net_values(label_net, csv_idx)
    csv_path = _write_dataset(workdir / "data14.csv", csv_idx, csv_y, CSV_N)

    jrng = np.random.default_rng(junta_seed)

    def junta(p):
        relevant = tuple(int(i) + 1 for i in jrng.choice(6, size=p, replace=False))
        spec = constructions.JuntaSpec(
            n=6, relevant=relevant, table=jrng.uniform(-1.0, 1.0, size=1 << p)
        )
        return constructions.junta_to_net(spec)

    j3_path, j3 = _write_net(workdir / "junta6.json", junta(3))
    cube = np.arange(64, dtype=np.int64)
    j2 = _write_net(workdir / "junta6_2.json", junta(2))[1]
    rows_idx = jrng.integers(0, 64, size=400)
    rows_y = checks.net_values(j2, rows_idx)
    rows_path = _write_dataset(workdir / "junta6_rows.csv", rows_idx, rows_y, 6)

    def ld_optimum():
        # the draws `learn-low-degree --seed` makes for its training set
        idx = np.random.default_rng(ld_seed).integers(0, 1 << 16, size=LD_SAMPLES)
        return checks.least_squares_loss(idx, checks.net_values(net, idx), 16, LD_DEGREE)

    ld_truth = _lazy(ld_optimum)
    csv_truth = _lazy(lambda: checks.least_squares_loss(csv_idx, csv_y, CSV_N, CSV_DEGREE))
    return [
        cli_op("learn_low_degree.net", "learn_low_degree_s",
               ["learn-low-degree", "--net", net_path, "--samples", str(LD_SAMPLES),
                "--holdout", str(LD_SAMPLES), "--seed", str(ld_seed), "--degree",
                str(LD_DEGREE)],
               lambda r: checks.check_low_degree(r.out, ld_truth(), LD_SAMPLES, LD_SAMPLES)),
        cli_op("learn_low_degree.csv", "learn_low_degree_s",
               ["learn-low-degree", "--data", csv_path, "--degree", str(CSV_DEGREE)],
               lambda r: checks.check_low_degree(r.out, csv_truth(), CSV_ROWS, 0)),
        cli_op("learn_dlist.full_cube", "learn_dlist_s",
               ["learn-dlist", "--net", j3_path, "--full-cube", "--s", "8", "--grid-m", "2"],
               lambda r: checks.check_decision_list(
                   r.out, cube, checks.net_values(j3, cube), 6, DLIST_TOL)),
        cli_op("learn_dlist.csv", "learn_dlist_s",
               ["learn-dlist", "--data", rows_path, "--s", "4", "--grid-m", "2"],
               lambda r: checks.check_decision_list(r.out, rows_idx, rows_y, 6, DLIST_TOL)),
        cli_op("verify", "verify_s", ["verify", "--all", "--n-max", "10"],
               lambda r: checks.check_verify(r.out)),
    ]


WORKLOADS: dict[str, Callable[[Path, int, int], list[Op]]] = {
    "dense": dense,
    "sampled": sampled,
    "learn": learn,
}
