"""The benchmark's traced run fails when a span that a workload must
carry never fires (``perfbench/workloads.py`` ``CARRIES``).  The tracer
makes a span for each public function a layer module defines, and for
``IntSet``, so a rename of one of those names breaks that run.  This
test finds it without running the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _carries():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CARRIES


NAMES = sorted({name for names in _carries().values() for name in names})


@pytest.mark.parametrize("name", NAMES)
def test_carried_span_names_a_public_definition(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"energia.{layer}")
    obj = getattr(module, attr, None)
    assert obj is not None, f"energia.{layer} has no {attr}"
    assert not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    assert obj.__module__ == module.__name__, f"{name} is defined in {obj.__module__}"
