"""The names the benchmark traces and calls must exist in nulldist.

`perfbench/tracing.py` patches the functions it lists; a name that is gone
makes every operation of a workload fail, which no other test notices. The
tracer uses only the standard library, so it is loaded here by path."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in _tracing.SPANS + _tracing.COUNTS]
)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the method in the class's own namespace
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_private_helpers_the_workloads_call():
    from nulldist import curvature

    assert callable(curvature._triangle_from_vertices)
