"""Command-line front end.

Runs that draw at random need --seed (``verify`` has a default); identical
invocations give byte-identical output, regardless of --threads.  Data goes
to the output path (or stdout), diagnostics to stderr.  Exit codes: 0
success, 1 runtime failure (capacity, no consistent list), 2 argument errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import bounds, constructions, selfcheck
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
from .hypercube import pack_bits
from .learners import (
    Dataset,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    full_cube_dataset,
    sample_uniform_dataset,
)
from .network import SparseNet, json_field
from .rademacher_lab import compare_to_bound, random_sparse_pool
from .texts import _BLOCK, _WIDTH, float_chars, int_chars


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


_INT64 = range(-(1 << 63), 1 << 63)


def _column_bytes(column: Sequence):
    """(width, block), where block(lo, hi) gives the texts of rows lo..hi-1
    as a byte matrix at most ``width`` wide, and the mask of its text bytes.

    A finite float64 array, or a range of int64 values, goes through the
    kernels of ``texts``, whose NUL padding marks the text (the mask is
    None); any other column gives None."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64 and np.isfinite(column).all():
        return _WIDTH, lambda lo, hi: (float_chars(column[lo:hi]), None)
    ends = (*column[:1], *column[-1:]) if isinstance(column, range) else ()
    if ends and all(v in _INT64 for v in ends):  # the first and last values bound the rest
        width = max(len(str(v)) for v in ends)
        return width, lambda lo, hi: (int_chars(column[lo:hi])[:, :width], None)
    return None


def _text_bytes(texts: list[bytes]):
    """(width, block) as ``_column_bytes`` gives, for a column of encoded
    texts, each text's length marking its bytes."""
    lengths = np.array(list(map(len, texts)), dtype=np.intp)
    width = max(1, int(lengths.max(initial=0)))
    chars = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return width, lambda lo, hi: (chars[lo:hi], np.arange(width) < lengths[lo:hi, None])


def _table_text(columns: Sequence[Sequence], cell, seps: list[str], head: str,
                tail: str = "", cut: int = 0) -> str:
    """head, then each row as seps[0] cell_0 seps[1] ... cell_{k-1} seps[k]
    with the last ``cut`` bytes of the rows dropped, then tail.

    ``_BLOCK`` rows at a time are laid out in one byte matrix, each column
    in a slot as wide as its widest text, and one mask drops the padding
    into one buffer, which becomes ``str`` once.  The columns the kernels
    cannot write go through ``cell``, as UTF-8, in one row-major pass before
    any row is laid out, so the first cell in row order on which ``cell``
    raises (TypeError or ValueError) raises, as a row-by-row writer would."""
    slots = [_column_bytes(column) for column in columns]
    loose = [j for j, slot in enumerate(slots) if slot is None]
    values = [columns[j].tolist() if isinstance(columns[j], np.ndarray) else columns[j]
              for j in loose]
    texts = [text.encode() for text in map(cell, itertools.chain.from_iterable(zip(*values)))]
    for q, j in enumerate(loose):
        slots[j] = _text_bytes(texts[q :: len(loose)])
    rows, seps_ = len(columns[0]) if columns else 0, [sep.encode() for sep in seps]
    # the separators are the same in every row, so they are laid out once
    row = b"".join(sep + bytes(width) for sep, (width, _) in zip(seps_, slots + [(0, None)]))
    stops = np.cumsum([len(sep) + width for sep, (width, _) in zip(seps_, slots)]).tolist()
    matrix = np.tile(np.frombuffer(row, np.uint8), (min(rows, _BLOCK), 1))
    keep = np.ones(matrix.shape, dtype=bool)
    head_, tail_ = head.encode(), tail.encode()
    out = np.empty(len(head_) + rows * len(row) + len(tail_), dtype=np.uint8)
    out[: len(head_)] = np.frombuffer(head_, np.uint8)
    end = len(head_)
    for lo in range(0, rows, _BLOCK):
        size = min(_BLOCK, rows - lo)
        for stop, (width, block) in zip(stops, slots):
            chars, kept = block(lo, lo + size)
            at, cells_end = stop - width, stop - width + chars.shape[1]
            matrix[:size, at:cells_end] = chars
            keep[:size, at:cells_end] = chars != 0 if kept is None else kept
            keep[:size, cells_end:stop] = False
        text = matrix[:size][keep[:size]]
        out[end : end + text.size] = text
        end += text.size
    end -= cut
    out[end : end + len(tail_)] = np.frombuffer(tail_, np.uint8)
    return str(out[: end + len(tail_)], "utf-8")


def _columns_to_csv(header: list[str], columns: Sequence[Sequence]) -> str:
    """CSV text of a table given as columns of cell values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    head = buf.getvalue()

    def cell(value) -> str:
        # csv quoting for the rare non-numeric cell; the empty second field
        # keeps an empty cell unquoted, as csv does unless it is a row's only one
        buf.seek(0)
        buf.truncate()
        writer.writerow((_fmt(value), ""))
        return buf.getvalue()[:-2] or ('""' if len(columns) == 1 else "")

    return _table_text(columns, cell, [""] + [","] * (len(columns) - 1) + ["\n"], head)


def _json_cell(value) -> str:
    # nested values sit two levels deep in the indent=2 layout
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n    ")


def _columns_to_json(header: list[str], columns: Sequence[Sequence]) -> str:
    """``json.dumps(records, indent=2, allow_nan=False)`` of the table's rows
    as records keyed by the (distinct) header names, plus a newline."""
    if not columns or not len(columns[0]):
        return "[]\n"
    keys = [f"    {json.dumps(key)}: " for key in header]
    seps = ["  {\n" + keys[0]] + [",\n" + key for key in keys[1:]] + ["\n  },\n"]
    # the last record ends "  }" rather than "  },"
    return _table_text(columns, _json_cell, seps, "[\n", "\n]\n", cut=2)


def _emit_table(args, header: list[str], columns: Sequence[Sequence]) -> None:
    fmt = getattr(args, "format", "csv")
    convert = _columns_to_json if fmt == "json" else _columns_to_csv
    _write_text(args.out, convert(header, columns))


def _read_json(path: str, what: str, parse):
    """``parse`` of the text of the JSON file at ``path``; ValueError naming
    ``what`` when the text nests too deeply to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except RecursionError:
        raise ValueError(f"{what} JSON {path} is nested too deeply") from None


def _thread_count(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


def _parse_list(text: str, kind: type, flag: str) -> list:
    """The nonblank comma-separated entries of ``flag``'s value as ``kind``
    (int or float); ValueError naming the flag at the first other entry."""
    values = []
    for t in filter(str.strip, text.split(",")):
        try:
            values.append(kind(t))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag}: {t!r} is not {what}") from None
    return values


def _read_dataset_csv(path: str) -> Dataset:
    """The dataset of the CSV file at ``path``, read in array passes where
    ``_plain_rows`` can, else by ``_csv_rows``: the same files accepted, and
    the same errors raised in the same order."""
    with open(path, "rb") as fh:
        data = fh.read()
    dataset = _plain_rows(data)
    return dataset if dataset is not None else _csv_rows(data)


def _plain_rows(data: bytes) -> Optional[Dataset]:
    """The dataset of CSV bytes, from the positions of their newlines and
    commas, if they are ASCII with no quote, CR or NUL, the header is
    x1,...,xn,y (n <= MAX_PACKED_N), a row follows, every line has n commas
    and fits csv's field size limit, every sign is 1 or -1 and ``float``
    reads every label; else None, for ``csv.reader`` to read or fault."""
    if not data.isascii() or any(c in data for c in (b'"', b"\r", b"\0")):
        return None
    text = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, text.size)  # a last line with no newline
    header = data[: ends[0]].decode().split(",")
    n = len(header) - 1
    commas = np.flatnonzero(text == ord(","))
    if (header[-1] != "y" or not header[0].startswith("x") or n > MAX_PACKED_N
            or ends.size < 2 or (np.diff(np.searchsorted(commas, ends), prepend=0) != n).any()
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    # each row's n commas: the signs end at them, the label starts after the last;
    # a sign is "1" or "-1" after the comma or newline ending the field before
    cuts = commas[n:].reshape(-1, n)
    one, second, third = (text[cuts - k] for k in (1, 2, 3))
    minus, after = second == ord("-"), lambda b: (b == ord(",")) | (b == ord("\n"))
    if not ((one == ord("1")) & (after(second) | minus & after(third))).all():
        return None
    try:
        labels = [float(data[lo:hi]) for lo, hi in zip((cuts[:, -1] + 1).tolist(),
                                                        ends[1:].tolist())]
    except ValueError:
        return None
    return Dataset(n, pack_bits(minus), np.array(labels))


def _csv_rows(data: bytes) -> Dataset:
    """The dataset of CSV bytes decoded as UTF-8, read by ``csv.reader``."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "y" or not header[0].startswith("x"):
            raise ValueError("dataset CSV needs header x1,...,xn,y")
        n = len(header) - 1
        if n > MAX_PACKED_N:
            raise ValueError(f"dataset CSV has {n} sign columns, at most {MAX_PACKED_N}")
        rows, lines, error = [], [], None
        try:
            for row in reader:
                if len(row) != n + 1:
                    raise ValueError(
                        f"dataset CSV line {reader.line_num} has {len(row)} fields, "
                        f"expected {n + 1}"
                    )
                rows.append(list(map(float, row)))
                lines.append(reader.line_num)
        except ValueError as exc:
            error = exc
        except csv.Error as exc:
            error = ValueError(f"dataset CSV line {reader.line_num}: {exc}")
    # the signs of the rows read before a read error are checked first, so
    # the first bad line in file order wins
    table = np.array(rows).reshape(len(rows), n + 1)
    signs = table[:, :n]
    bad = np.flatnonzero(((signs != 1.0) & (signs != -1.0)).any(axis=1))
    if bad.size:
        raise ValueError(f"dataset CSV line {lines[bad[0]]}: a sign is not +-1")
    if error is not None:
        raise error
    if not rows:
        raise ValueError("dataset CSV contains no rows")
    return Dataset(n, pack_bits(signs < 0), table[:, n])


# -- subcommands -------------------------------------------------------


# Each kind's flags: those it cannot do without, in the order they are
# checked, then those it may take.  Any other kind's flag is refused.
_CONSTRUCT_FLAGS = {
    "junta": (["relevant", "n"], ["table", "seed"]),
    "index": (["bits"], []),
    "parity": (["subset", "m"], []),
    "gamma": (["gate_bits", "payload_dim", "seed"], ["gamma"]),
}
_KIND_FLAGS = [name for required, optional in _CONSTRUCT_FLAGS.values()
               for name in required + optional]


def _refuse_beside(args, beside: str, *names: str) -> None:
    """ValueError for the first flag of ``names`` given along with ``beside``."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} cannot be combined with {beside}")


def _cmd_construct(args) -> int:
    required, optional = _CONSTRUCT_FLAGS[args.kind]
    for name in required:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for {args.kind}")
    _refuse_beside(args, f"--kind {args.kind}",
                   *(name for name in _KIND_FLAGS if name not in required + optional))
    if args.kind == "junta":
        relevant = _parse_list(args.relevant, int, "--relevant")
        if args.table is not None:
            _refuse_beside(args, "--table", "seed")
            table = np.array(_parse_list(args.table, float, "--table"))
        elif args.seed is not None:
            rng = np.random.default_rng(args.seed)
            table = rng.uniform(-1.0, 1.0, size=1 << len(relevant))
        else:
            raise ValueError("junta needs --table or --seed for a random table")
        net = junta_to_net(JuntaSpec(n=args.n, relevant=tuple(relevant), table=table))
    elif args.kind == "index":
        net = index_net(args.bits)
    elif args.kind == "parity":
        net = parity_lift(args.m, _parse_list(args.subset, int, "--subset"))
    else:  # gamma
        constructions.check_gate_sizes(args.gate_bits, args.payload_dim)  # before the draw
        rng = np.random.default_rng(args.seed)
        table = rng.normal(size=(1 << args.gate_bits, args.payload_dim))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        gamma = args.gamma if args.gamma is not None else float(np.sqrt(args.payload_dim))
        net = gamma_gated_net(args.gate_bits, args.payload_dim, gamma, table)
    _write_text(args.out, net.to_json() + "\n")
    return 0


def _cmd_transform(args) -> int:
    net = _read_json(args.net, "net", SparseNet.from_json)
    spec = wht(tabulate(net, net.n))
    _emit_table(args, ["bitmask", "coefficient"], [range(spec.coeffs.size), spec.coeffs])
    return 0


def _cmd_sensitivity(args) -> int:
    if bool(args.trials) == (args.seed is None):
        raise ValueError("--trials needs --seed" if args.trials else "--seed needs --trials")
    rhos = _parse_list(args.rho, float, "--rho") if args.rho else []
    if args.trials and not rhos:
        raise ValueError("--trials needs --rho")  # the Monte-Carlo loop runs once per rho
    if args.threads is not None and not args.trials:
        raise ValueError("--threads needs --trials")
    net = _read_json(args.net, "net", SparseNet.from_json)
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
    for rho in rhos:
        value = noise_sensitivity_exact(spec, rho)
        rows.append(["noise_sensitivity_exact", rho, value, ""])
    if args.trials:
        rng = np.random.default_rng(args.seed)
        for rho in rhos:
            est, err = noise_sensitivity_mc(f, rho, args.trials, rng, threads=args.threads or 1)
            rows.append(["noise_sensitivity_mc", rho, est, err])
    _emit_table(args, ["quantity", "rho", "value", "stderr"], list(zip(*rows)))
    return 0


# Each bound column with its formula, in column order; a formula raising
# bounds.Inapplicable leaves its cell blank.
_BOUND_COLUMNS = {
    "avg_sensitivity_bound": bounds.avg_sensitivity_bound,
    "noise_sensitivity_bound": bounds.noise_sensitivity_bound,
    "degree_for_error": bounds.degree_for_error,
    "rademacher_theorem": lambda p, C: bounds.rademacher_bound(p),
    "rademacher_conjecture": lambda p, C: bounds.rademacher_conjecture(p),
    "sample_complexity_main": lambda p, C: bounds.sample_complexity_general(p, C)[0],
    "sample_complexity_list": lambda p, C: bounds.sample_complexity_general(p, C)[1],
}

# The grid record's ClassParams fields in column order, each with the type it
# is cast to; a field the record leaves out takes the ClassParams default.
_PARAM_TYPES = {
    "n": int, "s": int, "k": int, "W": float, "B": float,
    "R": float, "m": int, "eps": float, "delta": float, "rho": float,
}


def _cmd_bounds_table(args) -> int:
    records = _read_json(args.grid, "grid", json.loads)
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) and "n" in rec and "s" in rec for rec in records
    ):
        raise ValueError("grid JSON must be a list of parameter records with n and s")
    measured_keys = sorted(
        {key for rec in records for key in rec if key.startswith("measured_")}
    )
    header = [*_PARAM_TYPES, *_BOUND_COLUMNS, *measured_keys]
    rows = []
    for pos, rec in enumerate(records, start=1):
        try:
            params = bounds.ClassParams(
                **{key: json_field(rec, key, kind)
                   for key, kind in _PARAM_TYPES.items() if key in rec}
            )
            C = json_field(rec, "C", float) if "C" in rec else 1.0
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"grid record {pos}: {exc}") from None
        bounds.require_level(params)
        values = (params.radius if key == "R" else getattr(params, key) for key in _PARAM_TYPES)
        row: list = ["" if value is None else value for value in values]
        for formula in _BOUND_COLUMNS.values():
            try:
                row.append(formula(params, C))
            except bounds.Inapplicable:
                row.append("")
            except (OverflowError, ZeroDivisionError) as exc:  # eps^2 may underflow to 0
                raise ValueError(f"grid record {pos}: a bound overflows ({exc})") from None
        row.extend([rec.get(key, "") for key in measured_keys])
        rows.append(row)
    _emit_table(args, header, list(zip(*rows)))
    return 0


def _model_json(model, losses: dict) -> str:
    """``json.dumps({"model": M, **losses}, indent=2, allow_nan=False)`` plus a
    newline, M holding n, d and a record {"T": [...], "c": c} per coefficient
    (T the coordinates of its mask, zeros dropped but the constant's), each
    laid out at json's indent; json.dumps raises its own error for inf or nan."""
    kept = [(mask, c) for mask, c in zip(model.masks.tolist(), model.coeffs.tolist())
            if c != 0.0 or not mask]
    if not all(math.isfinite(c) for _, c in kept):
        json.dumps([c for _, c in kept], indent=2, allow_nan=False)  # raises
    records = []
    for mask, c in kept:
        T = []
        while mask:  # the set bits, lowest first
            T.append(f"\n          {(mask & -mask).bit_length()}")
            mask &= mask - 1
        T_text = "[" + ",".join(T) + "\n        ]" if T else "[]"
        records.append(f'{{\n        "T": {T_text},\n        "c": {c!r}\n      }}')
    # json.dumps writes the keys; its first null is the place of the records
    model_keys = {"n": model.n, "d": model.d, "coeffs": [None] if records else []}
    head, _, tail = json.dumps({"model": model_keys, **losses}, indent=2,
                               allow_nan=False).partition("null")
    return head + ",\n      ".join(records) + tail + "\n"


def _cmd_learn_low_degree(args) -> int:
    if args.data is not None:
        _refuse_beside(args, "--data", "net", "samples", "holdout", "seed")
        data = _read_dataset_csv(args.data)
        holdout = None
    else:
        if args.net is None or args.samples is None or args.seed is None:
            raise ValueError("generated data needs --net, --samples, and --seed")
        net = _read_json(args.net, "net", SparseNet.from_json)
        rng = np.random.default_rng(args.seed)
        data = sample_uniform_dataset(net, net.n, args.samples, rng)
        holdout = (
            sample_uniform_dataset(net, net.n, args.holdout, rng)
            if args.holdout is not None
            else None
        )
    model = fit_low_degree(data, args.degree, args.ridge)
    losses = {"train_loss": vars(evaluate_loss(model, data))}
    if holdout is not None:
        losses["holdout_loss"] = vars(evaluate_loss(model, holdout))
    _write_text(args.out, _model_json(model, losses))
    return 0


def _cmd_learn_dlist(args) -> int:
    if args.data is not None:
        _refuse_beside(args, "--data", "net", "full_cube")
        data = _read_dataset_csv(args.data)
    elif args.full_cube:
        if args.net is None:
            raise ValueError("--full-cube needs --net")
        net = _read_json(args.net, "net", SparseNet.from_json)
        data = full_cube_dataset(net, net.n)
    else:
        raise ValueError("give --data or --net with --full-cube")
    dlist = fit_decision_list(data, args.s, args.grid_m, args.tol)
    payload = {"list": dataclasses.asdict(dlist), "loss": vars(evaluate_loss(dlist, data))}
    _write_text(args.out, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_rademacher(args) -> int:
    if args.trials < 1:  # exact mode never reads it, but the flag is required
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    params = bounds.ClassParams(n=args.n, s=args.s, k=args.k)
    pool = random_sparse_pool(params, args.pool_count, rng)
    rows_dicts = compare_to_bound(
        pool,
        _parse_list(args.m_grid, int, "--m-grid"),
        args.trials,
        rng,
        mode=args.mode,
        threads=args.threads,
    )
    header = ["m", "estimate", "stderr", "bound", "ratio"]
    _emit_table(args, header, [[r[key] for r in rows_dicts] for key in header])
    return 0


def _cmd_verify(args) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    results = selfcheck.run_all(args.n_max, args.seed)
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}: {detail}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if all(ok for _, ok, _ in results) else 1


# -- parser ------------------------------------------------------------


@functools.cache  # built once per process; parse_args keeps no state in it
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
    p.add_argument("--seed", type=int, help="seed (required with --trials, refused without)")
    p.add_argument("--threads", type=_thread_count, help="Monte-Carlo threads (default 1; "
                   "only with --trials)")
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
    p.add_argument("--holdout", type=int, help="generated holdout count")
    p.add_argument("--seed", type=int, help="seed for generated data")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ridge", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(fn=_cmd_learn_low_degree)

    p = sub.add_parser("learn-dlist", help="generalized decision-list learner")
    p.add_argument("--data", help="dataset CSV (x1..xn,y)")
    p.add_argument("--net", help="network JSON for full-cube training data")
    p.add_argument("--full-cube", action="store_true", default=None)
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # overflow to inf/nan is refused where results are written (tables,
        # learner JSON), so numpy's warning lines would only add noise
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, NoConsistentListError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
