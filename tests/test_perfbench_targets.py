"""Every function the benchmark's tracer wraps must exist in the package,
and its counters must read what the package returns.

``perfbench/spans.py`` wraps its ``TARGETS`` by name when a traced run
installs it, so renaming or deleting a traced function would break
``perfbench/run.py --trace 1`` at install time.  A changed signature or
return type breaks it silently instead: the recorder counts the counter's
error and goes on.  The module imports only the standard library, so it is
loaded straight from its path.  The workloads also call a few functions
directly; the last tests pin those call shapes.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sparseact.cli  # noqa: F401  the recorder patches every traced layer
import sparseact.selfcheck  # noqa: F401
from sparseact import (
    CubeFunction,
    HypothesisPool,
    SparseNet,
    fourier,
    hypercube,
    network,
    parallel,
    rademacher_lab,
)
from sparseact.config import MC_CHUNK

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name,path", [(t[0], t[1]) for t in _spans().TARGETS], ids=lambda v: v
)
def test_target_resolves(module_name, path):
    module = importlib.import_module(f"sparseact.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, path))


def test_recorder_reads_chunked_monte_carlo():
    f = CubeFunction(6, np.random.default_rng(1).standard_normal(1 << 6))
    pool = HypothesisPool(members=(f, f), n=6, s=1, k=1, W=1.0, B=1.0)
    idx = np.arange(40)
    rng = np.random.default_rng(2)
    recorder = _spans().Recorder()
    recorder.install()
    try:
        fourier.noise_sensitivity_mc(f, 0.5, 3 * MC_CHUNK - 1, rng, threads=2)
        rademacher_lab.empirical_rademacher(pool, idx, MC_CHUNK + 1, rng, "mc", threads=2)
    finally:
        recorder.uninstall()
    assert fourier.run_chunked is parallel.run_chunked
    assert recorder.counter_errors == 0
    counts = recorder.take_counts()
    assert counts["parallel.run_chunked.calls"] == 2
    assert counts["parallel.run_chunked.chunks"] == 3 + 2
    assert counts["parallel.run_chunked.threads"] == 2
    assert counts["parallel.run_chunked.result_bytes"] == (3 + 2) * 3 * 8
    assert counts["parallel.run_chunked.cpu_s"] > 0
    assert counts["parallel.mean_and_stderr.calls"] == 2
    assert counts["rademacher_lab.empirical_rademacher.sign_vectors"] == MC_CHUNK + 1


def test_scan_call_shape():
    # perfbench/workloads.py passes the mode positionally, and
    # perfbench/checks.check_scan reads the point count and the witness index
    net = SparseNet(n=3, s=2, k=1, u=np.ones(2), w=np.zeros((2, 3)), b=np.full(2, -1.0))
    report = network.verify_sparsity(net, 1, "exhaustive")
    assert report.samples == 8
    assert report.violating_input.index == 0


def test_bucket_pair_call_shape():
    # perfbench/workloads.py reads .index off both points of each pair
    x, y, r, b = hypercube.sample_bucket_pair(8, 0.5, np.random.default_rng(3))
    assert isinstance(x.index, int) and isinstance(y.index, int)
    assert r == 4 and 1 <= b <= r
    assert 0 <= x.index < 1 << 8 and 0 <= y.index < 1 << 8
