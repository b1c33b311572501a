"""The benchmark tracer finds every function it traces under its recorded name.

``perfbench/tracer.py`` looks each traced function up by name in its home
module and refuses generator functions. A rename in the package would
otherwise surface only when the benchmark runs with tracing on.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
FUNCTIONS = [(home, name) for home, names in TRACER.FUNCTIONS.items() for name in names]


@pytest.mark.parametrize("home, name", FUNCTIONS, ids=[f"{h}.{n}" for h, n in FUNCTIONS])
def test_traced_function_exists_and_is_plain(home, name):
    fn = getattr(importlib.import_module(home), name, None)
    assert callable(fn), f"{home} has no function {name}"
    assert not inspect.isgeneratorfunction(fn), f"{home}.{name} is a generator"


@pytest.mark.parametrize("home, cls_name, name", TRACER.METHODS, ids=[f"{c}.{n}" for _, c, n in TRACER.METHODS])
def test_traced_method_exists_and_is_plain(home, cls_name, name):
    cls = getattr(importlib.import_module(home), cls_name)
    assert name in cls.__dict__, f"{home}.{cls_name} defines no {name}"
    assert not inspect.isgeneratorfunction(getattr(cls, name)), f"{cls_name}.{name} is a generator"
