"""The traced benchmark run (perfbench/tracer.py) wraps fdout functions by
attribute name; a name it lists that its owner no longer holds makes the
traced run fail, so the names are checked here."""

import importlib.util
from pathlib import Path

import fdout.cli  # noqa: F401 -- the tracer finds its owners in sys.modules
import fdout.report  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_an_attribute_of_its_owner():
    tracer = _load_tracer()
    missing = [
        f"{path}.{attr}"
        for path, attr, _name, _amount in tracer.BOUNDARIES
        if attr not in tracer._owner(path).__dict__
    ]
    assert missing == []
