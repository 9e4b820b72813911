"""One workload in one fresh process: set-up, closed-loop ops, metrics.

Started by run.py, which caps the BLAS threads in this process's
environment before numpy loads.  One client issues the workload's op kinds
in a fixed order, each after the previous one finished (a closed loop),
cycle after cycle until ``--seconds`` have passed.  Every op's output is
checked outside its timed span.

With ``--trace 0`` every measured cycle is untraced and the end-to-end
metrics are printed.  With ``--trace 1`` cycles alternate between
untraced and traced (see spans.py); the per-layer metrics come from the
traced cycles and the tracing overhead is traced minus untraced cycle_s.

The last line of stdout is the JSON result; nothing is printed there when
the program cannot be imported from the checkout's ``src``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
# Stop starting cycles once this much of the process's life has passed, so
# that the run ends well within the 180 s a run may take.
DEADLINE_S = 140.0
TAIL_BEYOND = 10  # ops beyond the reported tail percentile

# The end-to-end metrics every workload reports in its JSON result, as
# listed in BENCHMARK.json.  The per-command metrics (one per op kind's
# `metric`) and error_rate are printed by name; the result's failed and
# attempted counts carry the error rate.
GATED = ["setup_s", "cycle_s", "op_tail_ratio", "peak_rss_mib"]


@dataclass
class Record:
    cycle: int  # -1 for the warm-up cycle of set-up
    kind: str
    metric: str
    seconds: float
    traced: bool
    error: str | None
    out_bytes: int


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    import sparseact

    origin = Path(sparseact.__file__).resolve()
    if not origin.is_relative_to(src.resolve()):
        raise ImportError(f"sparseact resolved to {origin}, not under {src}")


def _metadata(seed: int, mc_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sparseact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "mc_threads": mc_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _verdict(op, output, memo: dict, last_text: dict) -> str | None:
    import workloads

    if isinstance(output, workloads.CliOutput):
        if output.code != 0:
            lines = output.err.strip().splitlines()
            return f"exit code {output.code}: {lines[-1] if lines else ''}"
        text = output.out
        if op.same_as is not None and text != last_text.get(op.same_as):
            return f"output bytes differ from {op.same_as}"
        if op.kind in last_text:
            last_text[op.kind] = text
        key = (op.kind, hashlib.sha256(text.encode()).digest()) if op.memo else None
        if key in memo:
            return memo[key]
        payload = output
    else:
        key, payload = None, output
    try:
        result = op.check(payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        result = f"unreadable output: {type(exc).__name__}: {exc}"
    if key is not None:
        memo[key] = result
    return result


def _run_cycle(ops, cycle, records, recorder, memo, last_text, next_id) -> int:
    import workloads

    for op in ops:
        sid = recorder.open_op(next_id) if recorder is not None else None
        start = time.perf_counter()
        try:
            output, error = op.call(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if recorder is not None:
            recorder.close_op(sid, f"op.{op.kind}", start, start + seconds)
        if error is None:
            error = _verdict(op, output, memo, last_text)
        out_bytes = len(output.out) if isinstance(output, workloads.CliOutput) else 0
        del output  # so that it does not add to the next op's memory peak
        records.append(
            Record(cycle, op.kind, op.metric, seconds, recorder is not None, error, out_bytes)
        )
        if error is not None:
            print(f"FAILED {op.kind} (cycle {cycle}): {error}", file=sys.stderr)
        next_id += 1
    return next_id


def _medians(records, traced: bool) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for r in records:
        if r.cycle >= 0 and r.traced == traced:
            times.setdefault(r.kind, []).append(r.seconds)
    return times


def _cycle_s(times: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in times.values())


def _end_to_end(records, setup_s, setup_note):
    times = _medians(records, traced=False)
    kinds = {r.kind: r.metric for r in records}
    rows = [("setup_s", setup_s, "s", setup_note)]
    n_ops = sum(len(v) for v in times.values())
    counts = sorted(len(v) for v in times.values())
    rows.append(("cycle_s", _cycle_s(times), "s",
                 f"{len(times)} op kinds, {counts[0]}-{counts[-1]} ops each"))
    for metric in dict.fromkeys(kinds.values()):
        members = [k for k, m in kinds.items() if m == metric]
        value = sum(statistics.median(times[k]) for k in members)
        fewest = min(len(times[k]) for k in members)
        rows.append((metric, value, "s", f"{len(members)} op kinds, >= {fewest} ops each"))
    attempted = len(records)
    failed = sum(r.error is not None for r in records)
    rows.append(("error_rate", failed / attempted, "ratio",
                 f"{failed} failed of {attempted} ops"))
    med = {k: statistics.median(v) for k, v in times.items()}
    ratios = sorted(r.seconds / med[r.kind] for r in records
                    if r.cycle >= 0 and not r.traced)
    if len(ratios) > TAIL_BEYOND:
        tail = ratios[-TAIL_BEYOND - 1]
        pct = 100.0 * (len(ratios) - TAIL_BEYOND) / len(ratios)
        note = f"p{pct:.0f} of {n_ops} ops ({TAIL_BEYOND} beyond)"
    else:
        tail, note = ratios[-1], f"max of {n_ops} ops (too few for a percentile)"
    rows.append(("op_tail_ratio", tail, "ratio", note))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("peak_rss_mib", peak, "MiB", "1 process, set-up and checks included"))
    return rows


def _per_layer(records, recorder, cycle_counts, layer_specs):
    traced_cycles = sorted({r.cycle for r in records if r.cycle >= 0 and r.traced})
    op_cycle = {op_id: r.cycle for op_id, r in enumerate(records)}
    per_cycle: dict[int, dict[str, float]] = {c: {} for c in traced_cycles}
    for name, op_id, self_s in recorder.self_times():
        cycle = op_cycle.get(op_id)
        if cycle in per_cycle and not name.startswith("op."):
            key = f"{name}.self_s"
            per_cycle[cycle][key] = per_cycle[cycle].get(key, 0.0) + self_s
    for cycle, counts in zip(traced_cycles, cycle_counts):
        per_cycle[cycle].update(counts)
        per_cycle[cycle]["cli.out_bytes"] = float(
            sum(r.out_bytes for r in records if r.cycle == cycle)
        )
    traced_cycle = _cycle_s(_medians(records, traced=True))
    untraced_cycle = _cycle_s(_medians(records, traced=False))
    values = {}
    for spec in layer_specs:
        name = spec["name"]
        if name == "trace.cycle_s":
            values[name] = traced_cycle
        elif name == "trace.overhead_s":
            values[name] = traced_cycle - untraced_cycle
        else:
            series = [per_cycle[c].get(name, 0.0) for c in traced_cycles]
            values[name] = statistics.median(series)
    notes = {
        "traced cycles": len(traced_cycles),
        "untraced cycle_s": untraced_cycle,
        "counter errors": recorder.counter_errors,
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["dense", "sampled", "learn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--mc-threads", type=int, required=True)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    layer_specs = json.loads((HERE / "layers.json").read_text())["per_layer"]
    build = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    records: list[Record] = []
    memo: dict = {}
    recorder = spans.Recorder() if args.trace else None
    cycle_counts = []
    try:
        gen_times = []
        for rep in range(SETUP_REPS):
            rep_dir = work / f"setup{rep}"
            rep_dir.mkdir(parents=True)
            start = time.perf_counter()
            ops = build(rep_dir, args.seed, args.mc_threads)
            gen_times.append(time.perf_counter() - start)
        # only outputs that another op is compared against are kept
        last_text = {op.same_as: None for op in ops if op.same_as is not None}
        next_id = _run_cycle(ops, -1, records, None, memo, last_text, 0)
        warm_s = sum(r.seconds for r in records)
        setup_s = import_s + statistics.median(gen_times) + warm_s
        setup_note = (f"import {import_s:.3f} + median of {SETUP_REPS} input set-ups "
                      f"{statistics.median(gen_times):.3f} + warm-up {warm_s:.3f}")

        min_cycles = max(2, -(-(TAIL_BEYOND + 1) // len(ops)))
        start = time.perf_counter()
        cycle = 0
        while True:
            traced = recorder is not None and cycle % 2 == 1
            cycle_start = time.perf_counter()
            if traced:
                recorder.install()
            try:
                next_id = _run_cycle(ops, cycle, records, recorder if traced else None,
                                     memo, last_text, next_id)
            finally:
                if traced:
                    recorder.uninstall()
            if traced:
                cycle_counts.append(recorder.take_counts())
            cycle += 1
            now = time.perf_counter()
            if cycle >= min_cycles and now - start >= args.seconds:
                break
            if now - _T0 + (now - cycle_start) > DEADLINE_S:
                print(f"note: stopping after {cycle} cycles at the deadline", file=sys.stderr)
                break

        meta = _metadata(args.seed, args.mc_threads)
        print(f"sparseact benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
        print(f"closed loop, 1 client, {cycle} measured cycles of {len(ops)} op kinds "
              f"in {time.perf_counter() - start:.1f} s")
        times = _medians(records, traced=False)
        print(f"{'op kind':28s} {'median_s':>10s} {'min_s':>10s} {'max_s':>10s} {'ops':>4s}")
        for kind, values in times.items():
            print(f"{kind:28s} {statistics.median(values):10.4f} {min(values):10.4f} "
                  f"{max(values):10.4f} {len(values):4d}")
        rows = _end_to_end(records, setup_s, setup_note)
        print(f"{'metric':28s} {'value':>12s} {'unit':6s} samples")
        for name, value, unit, note in rows:
            print(f"{name:28s} {value:12.6g} {unit:6s} {note}")
        failed = sum(r.error is not None for r in records)
        if recorder is None:
            metrics = {name: {"value": value, "unit": unit}
                       for name, value, unit, _ in rows if name in GATED}
        else:
            values, notes = _per_layer(records, recorder, cycle_counts, layer_specs)
            print("per-layer (median per traced cycle; bytes and flops computed): "
                  + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                              for k, v in notes.items()))
            for spec in layer_specs:
                print(f"{spec['name']:48s} {values[spec['name']]:14.6g} {spec['unit']}")
            metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                       for spec in layer_specs}
            spans_path = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write(spans_path)
            print(f"spans: {spans_path.relative_to(ROOT)} ({len(recorder.spans)} spans)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
