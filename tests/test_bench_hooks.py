"""The names the benchmark harness hooks into must exist in ``cuntz``.

``perfbench/trace.py`` wraps every function and method listed in its
``LAYERS`` table, and ``perfbench/workloads.py`` looks names up on
``cuntz.cli`` at call time.  A rename that drops one of them stops the
benchmark with an AttributeError; these tests name it first.  They only
read ``perfbench``.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return [(module, qualname) for targets in trace.LAYERS.values()
            for module, qualname in targets]


@pytest.mark.parametrize("module_name, qualname", _trace_targets())
def test_trace_target_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # Tracer.install patches a method on the class that defines it.
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, qualname))


def test_workload_cli_names_resolve():
    from cuntz import cli

    names = set(re.findall(r"\bcli\.([A-Za-z_]\w*)", (PERFBENCH / "workloads.py").read_text()))
    assert "main" in names
    assert sorted(name for name in names if not hasattr(cli, name)) == []
