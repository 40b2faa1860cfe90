"""The benchmark's traced run names package callables; every name must resolve.

benchmarks/tracing.py patches each LAYERS entry by name, so a rename in the
package would make the traced half of benchmarks/run.py raise.  This test
reads the benchmark's tables and fails first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = [
    (span, module, attr) for span, (module, attrs) in tracing.LAYERS.items() for attr in attrs
]


@pytest.mark.parametrize(("span", "module", "attr"), TARGETS)
def test_every_layer_resolves_to_a_callable(span, module, attr):
    owner = importlib.import_module(f"misbounds.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: misbounds.{module}.{attr} is not callable"


@pytest.mark.parametrize("method", ["from_model", "from_profile"])
def test_report_constructors_are_classmethods(method):
    # traced_package rewraps them through __dict__[method].__func__
    from misbounds.report import BoundsReport

    assert isinstance(inspect.getattr_static(BoundsReport, method), classmethod)


def test_counted_spans_are_layers():
    assert set(tracing.COUNTS) <= set(tracing.LAYERS)
