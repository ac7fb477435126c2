"""The names the benchmark tracer patches must exist in the library.

``perfbench/tracer.py`` wraps library functions by name from outside.
A rename or deletion in ``src/`` would only show up as an
``AttributeError``/``KeyError`` in a benchmark run; this test makes it
fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import mlenkf

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(tracer):
    assert tracer.PATCHES
    for path, attr, _ in tracer.PATCHES:
        owner = tracer._resolve(mlenkf, path)
        assert callable(owner.__dict__[attr]), f"{path}.{attr}"


def test_forward_map_and_unit_counter_exist():
    assert callable(mlenkf.filters.propagate_pairs)
    assert {"forward", "moments"} <= set(mlenkf.model.unit_counter)
