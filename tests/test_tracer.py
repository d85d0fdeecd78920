"""The benchmark's tracer (``perfbench/tracer.py``, imported unchanged)
wraps the public functions and methods of every tractorlab module by
attribute, so a renamed or restructured attribute can break it.  These
tests install it, run a check under it and remove it again."""

import importlib
import inspect
import sys
from pathlib import Path

from tractorlab import fields, verify

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import tracer  # noqa: E402


def _attributes():
    """Every attribute of the traced modules and of the classes they
    define, as the callers see it (a method through ``getattr``)."""
    out = {}
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"tractorlab.{layer}")
        for name, obj in vars(module).items():
            out[module.__name__, name] = obj
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in vars(obj):
                    out[module.__name__, f"{name}.{attr}"] = getattr(obj, attr)
    return out


def test_the_tracer_wraps_the_package_and_restores_every_attribute():
    before = _attributes()
    tr = tracer.Tracer()
    with tracer.Instrumentation(tr):
        inside = _attributes()
        tr.start()
        # through the modules, whose attributes the tracer wraps
        (report,) = verify.run_suite(fields.builtin_geometry("klein", 3), ["bianchi"])
        tr.stop()
    after = _attributes()
    wrapped = [key for key, obj in before.items() if inside[key] != obj]
    assert ("tractorlab.jets", "jet_mul") in wrapped
    assert ("tractorlab.verify", "run_suite") in wrapped
    assert report.status == "pass"
    assert tr.counts["fields.geometry_build.calls"] == 1
    assert tr.self_s["fields"] > 0.0
    assert [key for key in wrapped if after[key] != before[key]] == []
