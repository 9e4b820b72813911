"""Command-line front end.

Every stochastic subcommand takes a mandatory --seed; identical invocations
produce byte-identical output, regardless of --threads.  Data goes to the
output path (or stdout), diagnostics to stderr.  Exit codes: 0 success,
1 runtime failure (capacity, no consistent list), 2 argument errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import bounds, selfcheck
from .config import MAX_PACKED_N
from .constructions import JuntaSpec, gamma_gated_net, index_net, junta_to_net, parity_lift
from .errors import CapacityError, NoConsistentListError
from .fourier import (
    avg_sensitivity_exact,
    noise_sensitivity_exact,
    noise_sensitivity_mc,
    tabulate,
    wht,
)
from .hypercube import pack_signs
from .learners import (
    Dataset,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    full_cube_dataset,
    sample_uniform_dataset,
)
from .network import SparseNet
from .rademacher_lab import compare_to_bound, random_sparse_pool, uniform_sample_set


def _fmt(value) -> str:
    """Round-trip text for CSV cells ('.' decimal, full precision); refuses
    inf and nan."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite result {value}")
        return repr(value)
    return str(value)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _column_texts(columns: Sequence[Sequence], cell) -> list[list[str]]:
    """The text of every cell, column by column.

    A column of floats is checked for finiteness once and formatted in one
    pass, a column of ints likewise; any other column goes through ``cell``
    one value at a time.  When a cell is refused, the error names the first
    bad cell in row order, as a row-by-row writer would.
    """
    try:
        texts = []
        for column in columns:
            kinds = set(map(type, column))
            if kinds <= {float}:
                if not np.isfinite(np.array(column, dtype=np.float64)).all():
                    raise ValueError("non-finite result")
                texts.append(list(map(float.__repr__, column)))
            elif kinds == {int}:
                texts.append(list(map(int.__repr__, column)))
            else:
                texts.append(list(map(cell, column)))
        return texts
    except (TypeError, ValueError):
        for row in zip(*columns):
            for value in row:
                cell(value)
        raise


def _join_rows(texts: list[list[str]], seps: list[str]) -> str:
    """Each row as seps[0] cell_0 seps[1] ... cell_{k-1} seps[k], rows joined:
    one C-level join over interleaved references, no per-row string."""
    rows = len(texts[0]) if texts else 0
    step = 2 * len(texts) + 1
    parts = [""] * (step * rows)
    for j, sep in enumerate(seps):
        parts[2 * j :: step] = [sep] * rows
    for j, column in enumerate(texts):
        parts[2 * j + 1 :: step] = column
    return "".join(parts)


def _columns_to_csv(header: list[str], columns: Sequence[Sequence]) -> str:
    """CSV text of a table given as columns of cell values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    head = buf.getvalue()

    def cell(value) -> str:
        # csv quoting for the rare non-numeric cell; the empty second field
        # keeps an empty cell unquoted, as it is in a row of several fields
        buf.seek(0)
        buf.truncate()
        writer.writerow((_fmt(value), ""))
        return buf.getvalue()[:-2]

    texts = _column_texts(columns, cell)
    if len(texts) == 1:  # csv writes a row of one empty field as ""
        texts = [['""' if text == "" else text for text in texts[0]]]
    return head + _join_rows(texts, [""] + [","] * (len(texts) - 1) + ["\n"])


def _json_cell(value) -> str:
    # nested values sit two levels deep in the indent=2 layout
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n    ")


def _columns_to_json(header: list[str], columns: Sequence[Sequence]) -> str:
    """``json.dumps(records, indent=2, allow_nan=False)`` of the table's rows
    as records keyed by the (distinct) header names, plus a newline."""
    texts = _column_texts(columns, _json_cell)
    if not texts or not texts[0]:
        return "[]\n"
    keys = [f"    {json.dumps(key)}: " for key in header]
    seps = ["  {\n" + keys[0]] + [",\n" + key for key in keys[1:]] + ["\n  },\n"]
    # the last record ends "  }" rather than "  },"
    return "[\n" + _join_rows(texts, seps)[:-2] + "\n]\n"


def _emit_table(args, header: list[str], columns: Sequence[Sequence]) -> None:
    fmt = getattr(args, "format", "csv")
    convert = _columns_to_json if fmt == "json" else _columns_to_csv
    _write_text(args.out, convert(header, columns))


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    """``_emit_table`` for a short table built row by row."""
    _emit_table(args, header, [[row[j] for row in rows] for j in range(len(header))])


def _load_net(path: str) -> SparseNet:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return SparseNet.from_json(text)
    except RecursionError:
        raise ValueError(f"net JSON {path} is nested too deeply") from None


def _thread_count(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _read_dataset_csv(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "y" or not header[0].startswith("x"):
            raise ValueError("dataset CSV needs header x1,...,xn,y")
        n = len(header) - 1
        if n > MAX_PACKED_N:
            raise ValueError(f"dataset CSV has {n} sign columns, at most {MAX_PACKED_N}")
        rows = []
        for row in reader:
            if len(row) != n + 1:
                raise ValueError(
                    f"dataset CSV line {reader.line_num} has {len(row)} fields, "
                    f"expected {n + 1}"
                )
            cells = [float(v) for v in row]
            if any(v != 1.0 and v != -1.0 for v in cells[:n]):
                raise ValueError(f"dataset CSV line {reader.line_num}: a sign is not +-1")
            rows.append(cells)
    if not rows:
        raise ValueError("dataset CSV contains no rows")
    table = np.array(rows)
    return Dataset(n, pack_signs(table[:, :n]), table[:, n])


# -- subcommands -------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.kind == "junta":
        if args.relevant is None:
            raise ValueError("--relevant is required for junta")
        relevant = _parse_ints(args.relevant)
        if args.table is not None:
            table = np.array(_parse_floats(args.table))
        elif args.seed is not None:
            rng = np.random.default_rng(args.seed)
            table = rng.uniform(-1.0, 1.0, size=1 << len(relevant))
        else:
            raise ValueError("junta needs --table or --seed for a random table")
        net = junta_to_net(JuntaSpec(n=args.n, relevant=tuple(relevant), table=table))
    elif args.kind == "index":
        net = index_net(args.bits)
    elif args.kind == "parity":
        if args.subset is None:
            raise ValueError("--subset is required for parity")
        net = parity_lift(args.m, _parse_ints(args.subset))
    else:  # gamma
        if args.seed is None:
            raise ValueError("gamma needs --seed for the payload table")
        rng = np.random.default_rng(args.seed)
        table = rng.normal(size=(1 << args.gate_bits, args.payload_dim))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        gamma = args.gamma if args.gamma is not None else float(np.sqrt(args.payload_dim))
        net = gamma_gated_net(args.gate_bits, args.payload_dim, gamma, table)
    _write_text(args.out, net.to_json() + "\n")
    return 0


def _cmd_transform(args) -> int:
    net = _load_net(args.net)
    spec = wht(tabulate(net, net.n))
    columns = [range(spec.coeffs.size), spec.coeffs.tolist()]
    _emit_table(args, ["bitmask", "coefficient"], columns)
    return 0


def _cmd_sensitivity(args) -> int:
    net = _load_net(args.net)
    f = tabulate(net, net.n)
    spec = wht(f)
    rows: list[list] = [
        ["avg_sensitivity_exact", "", avg_sensitivity_exact(f), ""],
        [
            "avg_sensitivity_spectral",
            "",
            float(np.sum(spec.degrees() * spec.coeffs**2)),
            "",
        ],
    ]
    rhos = _parse_floats(args.rho) if args.rho else []
    for rho in rhos:
        value = noise_sensitivity_exact(spec, rho)
        rows.append(["noise_sensitivity_exact", rho, value, ""])
    if args.trials:
        if args.seed is None:
            raise ValueError("--seed is required with --trials")
        rng = np.random.default_rng(args.seed)
        for rho in rhos:
            est, err = noise_sensitivity_mc(f, rho, args.trials, rng, threads=args.threads)
            rows.append(["noise_sensitivity_mc", rho, est, err])
    _emit_rows(args, ["quantity", "rho", "value", "stderr"], rows)
    return 0


_BOUND_COLUMNS = [
    "avg_sensitivity_bound",
    "noise_sensitivity_bound",
    "degree_for_error",
    "rademacher_theorem",
    "rademacher_conjecture",
    "sample_complexity_main",
    "sample_complexity_list",
]

_PARAM_COLUMNS = ["n", "s", "k", "W", "B", "R", "m", "eps", "delta", "rho"]


def _cmd_bounds_table(args) -> int:
    with open(args.grid, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except RecursionError:
            raise ValueError(f"grid JSON {args.grid} is nested too deeply") from None
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) and "n" in rec and "s" in rec for rec in records
    ):
        raise ValueError("grid JSON must be a list of parameter records with n and s")
    measured_keys = sorted(
        {key for rec in records for key in rec if key.startswith("measured_")}
    )
    header = _PARAM_COLUMNS + _BOUND_COLUMNS + measured_keys
    rows = []
    for pos, rec in enumerate(records, start=1):
        try:
            params = bounds.ClassParams(
                n=int(rec["n"]),
                s=int(rec["s"]),
                k=int(rec.get("k", 1)),
                W=float(rec.get("W", 0.0)),
                B=float(rec.get("B", 0.0)),
                R=float(rec["R"]) if "R" in rec else None,
                m=int(rec["m"]) if "m" in rec else None,
                eps=float(rec["eps"]) if "eps" in rec else None,
                delta=float(rec["delta"]) if "delta" in rec else None,
                rho=float(rec["rho"]) if "rho" in rec else None,
            )
            C = float(rec.get("C", 1.0))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"grid record {pos}: {exc}") from None
        row: list = [
            params.n,
            params.s,
            params.k,
            params.W,
            params.B,
            params.radius,
            params.m if params.m is not None else "",
            params.eps if params.eps is not None else "",
            params.delta if params.delta is not None else "",
            params.rho if params.rho is not None else "",
        ]
        try:
            row.append(bounds.avg_sensitivity_bound(params, C).value)
            row.append(
                bounds.noise_sensitivity_bound(params, C).value
                if params.rho is not None and params.rho < 1.0
                else ""
            )
            row.append(
                bounds.degree_for_error(params, C) if params.eps is not None else ""
            )
            if params.m is not None and params.m >= 2:
                row.append(bounds.rademacher_bound(params).value)
                row.append(bounds.rademacher_conjecture(params).value)
            else:
                row.extend(["", ""])
            if params.eps is not None and params.delta is not None:
                main, dlist = bounds.sample_complexity_general(params, C)
                row.extend([main.value, dlist.value])
            else:
                row.extend(["", ""])
        except OverflowError as exc:
            raise ValueError(f"grid record {pos}: a bound overflows ({exc})") from None
        row.extend([rec.get(key, "") for key in measured_keys])
        rows.append(row)
    _emit_rows(args, header, rows)
    return 0


def _model_payload(model) -> dict:
    return {
        "n": model.n,
        "d": model.d,
        "coeffs": [
            {"T": [i + 1 for i in range(model.n) if mask >> i & 1], "c": c}
            for mask, c in zip(model.masks.tolist(), model.coeffs.tolist())
            if c != 0.0 or not mask
        ],
    }


def _cmd_learn_low_degree(args) -> int:
    if args.data is not None:
        data = _read_dataset_csv(args.data)
        holdout = None
    else:
        if args.net is None or args.samples is None or args.seed is None:
            raise ValueError("generated data needs --net, --samples, and --seed")
        net = _load_net(args.net)
        rng = np.random.default_rng(args.seed)
        data = sample_uniform_dataset(net, net.n, args.samples, rng)
        holdout = (
            sample_uniform_dataset(net, net.n, args.holdout, rng)
            if args.holdout
            else None
        )
    model = fit_low_degree(data, args.degree, args.ridge)
    payload = {
        "model": _model_payload(model),
        "train_loss": vars(evaluate_loss(model, data)),
    }
    if holdout is not None:
        payload["holdout_loss"] = vars(evaluate_loss(model, holdout))
    _write_text(args.out, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_learn_dlist(args) -> int:
    if args.data is not None:
        data = _read_dataset_csv(args.data)
    elif args.full_cube:
        if args.net is None:
            raise ValueError("--full-cube needs --net")
        net = _load_net(args.net)
        data = full_cube_dataset(net, net.n)
    else:
        raise ValueError("give --data or --net with --full-cube")
    dlist = fit_decision_list(data, args.s, args.grid_m, args.tol)
    payload = {
        "list": {
            "n": dlist.n,
            "nodes": [
                {
                    "gate_w": list(node.gate_w),
                    "gate_b": node.gate_b,
                    "leaf_v": list(node.leaf_v),
                    "leaf_c": node.leaf_c,
                }
                for node in dlist.nodes
            ],
            "default": dlist.default,
        },
        "loss": vars(evaluate_loss(dlist, data)),
    }
    _write_text(args.out, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_rademacher(args) -> int:
    rng = np.random.default_rng(args.seed)
    params = bounds.ClassParams(n=args.n, s=args.s, k=args.k)
    pool = random_sparse_pool(params, args.pool_count, rng)
    rows_dicts = compare_to_bound(
        pool,
        uniform_sample_set(args.n),
        _parse_ints(args.m_grid),
        args.trials,
        rng,
        mode=args.mode,
        threads=args.threads,
    )
    header = ["m", "estimate", "stderr", "bound", "ratio"]
    _emit_table(args, header, [[r[key] for r in rows_dicts] for key in header])
    return 0


def _cmd_verify(args) -> int:
    results = selfcheck.run_all(args.n_max, args.seed)
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}: {detail}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if all(ok for _, ok, _ in results) else 1


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseact",
        description="Sparsely activated networks on the hypercube: "
        "constructions, Fourier analysis, learners, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=False):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("construct", help="emit a network as JSON")
    p.add_argument("--kind", choices=["junta", "index", "parity", "gamma"], required=True)
    p.add_argument("--n", type=int, help="ambient dimension (junta)")
    p.add_argument("--relevant", help="comma-separated relevant coordinates (junta)")
    p.add_argument("--table", help="comma-separated truth table values (junta)")
    p.add_argument("--bits", type=int, help="address bits (index)")
    p.add_argument("--m", type=int, help="base dimension (parity)")
    p.add_argument("--subset", help="comma-separated base coordinates (parity)")
    p.add_argument("--gate-bits", type=int, help="gate bits (gamma)")
    p.add_argument("--payload-dim", type=int, help="payload dimension (gamma)")
    p.add_argument("--gamma", type=float, help="gate margin (gamma; default sqrt(q))")
    p.add_argument("--seed", type=int, help="seed for random tables")
    add_common(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("transform", help="dense Fourier spectrum of a network")
    p.add_argument("--net", required=True, help="network JSON path")
    add_common(p, fmt=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("sensitivity", help="sensitivity and noise sensitivity")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--rho", default="", help="comma-separated correlations")
    p.add_argument("--trials", type=int, default=0, help="Monte-Carlo trials")
    p.add_argument("--seed", type=int, help="seed (required with --trials)")
    p.add_argument("--threads", type=_thread_count, default=1)
    add_common(p, fmt=True)
    p.set_defaults(fn=_cmd_sensitivity)

    p = sub.add_parser("bounds-table", help="evaluate bound formulas on a grid")
    p.add_argument("--grid", required=True, help="JSON list of parameter records")
    add_common(p, fmt=True)
    p.set_defaults(fn=_cmd_bounds_table)

    p = sub.add_parser("learn-low-degree", help="monomial least-squares regression")
    p.add_argument("--data", help="dataset CSV (x1..xn,y)")
    p.add_argument("--net", help="network JSON to label generated samples")
    p.add_argument("--samples", type=int, help="generated sample count")
    p.add_argument("--holdout", type=int, default=0, help="generated holdout count")
    p.add_argument("--seed", type=int, help="seed for generated data")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ridge", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(fn=_cmd_learn_low_degree)

    p = sub.add_parser("learn-dlist", help="generalized decision-list learner")
    p.add_argument("--data", help="dataset CSV (x1..xn,y)")
    p.add_argument("--net", help="network JSON for full-cube training data")
    p.add_argument("--full-cube", action="store_true")
    p.add_argument("--s", type=int, required=True, help="target hidden-unit count")
    p.add_argument("--grid-m", type=int, required=True, help="integer weight bound")
    p.add_argument("--tol", type=float, default=1e-6)
    add_common(p)
    p.set_defaults(fn=_cmd_learn_dlist)

    p = sub.add_parser("rademacher", help="empirical complexity vs. theorem bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--pool-count", type=int, required=True)
    p.add_argument("--m-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["auto", "exact", "mc"], default="mc")
    p.add_argument("--threads", type=_thread_count, default=1)
    add_common(p, fmt=True)
    p.set_defaults(fn=_cmd_rademacher)

    p = sub.add_parser("verify", help="run exhaustive construction/identity checks")
    p.add_argument("--all", action="store_true", help="run every check (default)")
    p.add_argument("--n-max", type=int, default=8, help="largest full-cube dimension")
    p.add_argument("--seed", type=int, default=selfcheck.DEFAULT_SEED)
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow to inf/nan is refused where results are written (tables,
        # learner JSON), so numpy's warning lines would only add noise
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (CapacityError, NoConsistentListError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
