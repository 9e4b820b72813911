"""Span recorder for the traced benchmark run.

Tracing wraps public functions of the sparseact layers from outside the
program.  While it is on, every reference to a wrapped function is
replaced: the module attribute, the copies other sparseact modules made
with ``from .x import f`` (such as ``sparseact.cli.tabulate``), and class
attributes for methods.  ``uninstall`` puts the originals back, so untraced
cycles run the program exactly as shipped.

A span is (id, parent id, op id, name, start, end).  The parent is the
span open on the same thread, or, for work that ``run_chunked`` hands to
its pool threads, the ``run_chunked`` span.  Spans stay in memory and are
written out at the end of the run.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Counts are recorded at the same boundaries.  Byte and flop counts are
computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _n_chunks(args, kwargs):
    n_items = _arg(args, kwargs, 1, "n_items")
    chunk = _arg(args, kwargs, 4, "chunk")
    if chunk is None:
        from sparseact.config import MC_CHUNK

        chunk = MC_CHUNK
    return -(-n_items // chunk)


def _fit_low_degree(args, kwargs, model):
    m = len(_arg(args, kwargs, 0, "data"))
    n, d = model.n, model.d
    sizes = [math.comb(n, t) for t in range(d + 1)]
    monomials = sum(sizes)
    design = m * sum(max(t - 1, 0) * c for t, c in enumerate(sizes))
    return {
        "monomials": monomials,
        # products for the design matrix, Gram matrix and right-hand side,
        # and an LU solve of the normal equations
        "flops": design + 2 * m * monomials * (monomials + 1) + 2 * monomials**3 // 3,
    }


# (module, attribute path, counter or None, record a span).  Counters return
# {suffix: value}; a "max:" suffix keeps the largest value seen in a cycle
# instead of the sum.
TARGETS: list[tuple[str, str, Callable | None, bool]] = [
    ("cli", "run", None, True),
    ("fourier", "tabulate", lambda a, k, r: {"points": 1 << _arg(a, k, 1, "n")}, True),
    ("fourier", "wht", lambda a, k, r: {"bytes": 2 * r.n * r.coeffs.nbytes}, True),
    ("fourier", "avg_sensitivity_exact", None, True),
    ("fourier", "noise_sensitivity_exact", None, True),
    (
        "fourier",
        "noise_sensitivity_mc",
        lambda a, k, r: {"trials": _arg(a, k, 2, "trials")},
        True,
    ),
    ("network", "SparseNet.eval_batch", lambda a, k, r: {"rows": len(a[1])}, True),
    ("network", "SparseNet.active_counts", None, True),
    ("network", "SparseNet.to_json", None, True),
    ("network", "SparseNet.from_json", None, True),
    ("network", "verify_sparsity", lambda a, k, r: {"points": r.samples}, True),
    ("network", "avg_sensitivity_split", None, True),
    ("constructions", "junta_to_net", None, True),
    ("constructions", "index_net", None, True),
    ("constructions", "gamma_gated_net", None, True),
    (
        "parallel",
        "run_chunked",
        lambda a, k, r: {
            "chunks": _n_chunks(a, k),
            "max:threads": _arg(a, k, 3, "threads", 1),
            "result_bytes": r.nbytes,
        },
        True,
    ),
    ("parallel", "mean_and_stderr", None, True),
    ("rademacher_lab", "random_sparse_pool", None, True),
    ("rademacher_lab", "HypothesisPool.value_matrix", None, True),
    (
        "rademacher_lab",
        "empirical_rademacher",
        lambda a, k, r: {"sign_vectors": r.trials},
        True,
    ),
    (
        "hypercube",
        "sign_table",
        lambda a, k, r: {"bytes": r.nbytes},
        True,
    ),
    ("hypercube", "sample_bucket_pair", None, True),
    # called per point: counted, never spanned
    ("hypercube", "CubePoint.__post_init__", None, False),
    ("hypercube", "CubePoint.signs", None, False),
    ("learners", "sample_uniform_dataset", None, True),
    ("learners", "full_cube_dataset", None, True),
    ("learners", "fit_low_degree", _fit_low_degree, True),
    (
        "learners",
        "fit_decision_list",
        lambda a, k, r: {"gates": (2 * _arg(a, k, 2, "M") + 1) ** (r.n + 1)},
        True,
    ),
    ("learners", "evaluate_loss", None, True),
    ("selfcheck", "run_all", None, True),
]

# Metric names that differ from "<module>.<attribute>.<suffix>".
_RENAMES = {"hypercube.CubePoint.__post_init__.calls": "hypercube.CubePoint.created"}


class Recorder:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.counter_errors = 0
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _add(self, key: str, value: float, keep_max: bool = False) -> None:
        with self._lock:
            if keep_max:
                self.maxima[key] = max(self.maxima.get(key, value), value)
            else:
                self.counts[key] += value

    def _count(self, name: str, counter, args, kwargs, result) -> None:
        self._add(f"{name}.calls", 1)
        if counter is None:
            return
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError):
            # the program changed a signature or return type; keep tracing
            self.counter_errors += 1
            return
        for suffix, value in values.items():
            keep_max = suffix.startswith("max:")
            self._add(f"{name}.{suffix.removeprefix('max:')}", value, keep_max)

    def span_wrapper(self, fn, name: str, counter):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        chunked = name == "parallel.run_chunked"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = getattr(local, "current", 0)
            sid = next(ids)
            if chunked:
                args, kwargs = self._wrap_worker(sid, args, kwargs)
            local.current = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                local.current = parent
                spans.append((sid, parent, self.op_id, name, start, end))
            self._count(name, counter, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        key = _RENAMES.get(f"{name}.calls", f"{name}.calls")
        add = self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            add(key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_worker(self, sid: int, args, kwargs):
        """Parent pool-thread spans on run_chunked and sum chunk CPU time."""
        worker = _arg(args, kwargs, 0, "worker")
        local = self._local

        def traced_worker(*wargs):
            parent = getattr(local, "current", 0)
            local.current = sid
            cpu = time.thread_time()
            try:
                return worker(*wargs)
            finally:
                self._add("parallel.run_chunked.cpu_s", time.thread_time() - cpu)
                local.current = parent

        if "worker" in kwargs:
            return args, {**kwargs, "worker": traced_worker}
        return (traced_worker,) + tuple(args[1:]), kwargs

    def open_op(self, op_id: int) -> int:
        """Open the benchmark's own span around one op; returns its id."""
        self.op_id = op_id
        sid = next(self._ids)
        self._local.current = sid
        return sid

    def close_op(self, sid: int, name: str, start: float, end: float) -> None:
        self._local.current = 0
        self.spans.append((sid, 0, self.op_id, name, start, end))

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for k, m in sys.modules.items() if k.startswith("sparseact")]
        for module_name, path, counter, spanned in TARGETS:
            module = sys.modules[f"sparseact.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = (
                    self.span_wrapper(fn, name, counter)
                    if spanned
                    else self.count_wrapper(fn, name)
                )
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            original = getattr(module, path)
            wrapped = self.span_wrapper(original, name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results --------------------------------------------------------------

    def take_counts(self) -> dict[str, float]:
        """Counts since the last call, with renamed keys; then reset."""
        with self._lock:
            out = {_RENAMES.get(k, k): v for k, v in self.counts.items()}
            out.update(self.maxima)
            self.counts = defaultdict(float)
            self.maxima = {}
        return out

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, op id, self time) per span; children clipped to the parent."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        out = []
        for sid, _, op_id, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((name, op_id, (end - start) - covered))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op_id,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
