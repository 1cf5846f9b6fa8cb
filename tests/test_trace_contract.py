"""The traced benchmark run rebinds names inside the package; they must exist.

``perfbench/spans.py`` wraps functions and methods of ``stefan1d``'s modules
by name. Renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
with an ``AttributeError``; this test installs the tracer the same way and
checks that uninstalling it puts every original object back.
"""

import importlib.util
import sys
from pathlib import Path

import stefan1d
import stefan1d.cli  # noqa: F401  (the tracer rebinds names in every module)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("measure", "potential", "solver", "stability", "particles", "cli", "repro")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    modules = [sys.modules[f"stefan1d.{name}"] for name in MODULES]
    return [*modules, modules[1].PiecewiseQuadratic]


def test_tracer_installs_and_restores_every_name():
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = _load_spans().Tracer()
    try:
        tracer.install(stefan1d)
        rebound = [(owner, attr) for owner, attr, _ in tracer._saved]
        assert rebound
        for owner, attr in rebound:
            assert getattr(owner, attr).__name__ == "traced"
    finally:
        tracer.uninstall()
    for ns, names in zip(_namespaces(), before):
        after = vars(ns)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items())
