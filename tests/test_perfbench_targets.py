"""perfbench traces kinnav by patching named attributes; a renamed one goes untraced."""

import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    # Tracer.install looks each attribute up in the owner's own namespace
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in load_tracing()._targets()
               if vars(owner).get(attr) is None]
    assert missing == []
