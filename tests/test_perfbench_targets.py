"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` wraps its ``TARGETS`` by name when a traced run
installs it, so renaming or deleting a traced function would break
``perfbench/run.py --trace 1`` at install time.  The module imports only the
standard library, so it is loaded straight from its path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,path", [(t[0], t[1]) for t in _targets()], ids=lambda v: v
)
def test_target_resolves(module_name, path):
    module = importlib.import_module(f"sparseact.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, path))
