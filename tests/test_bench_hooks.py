"""The benchmark's tracer and its mock launcher patch package names from
outside; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("modname, attr, span", spans.FUNCTIONS)
def test_traced_function_resolves(modname, attr, span):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, clsname, attr, span", spans.METHODS)
def test_traced_method_resolves(modname, clsname, attr, span):
    cls = getattr(importlib.import_module(modname), clsname)
    assert callable(getattr(cls, attr))


# bench/mock_launcher.py wraps these before it starts serve-mock
@pytest.mark.parametrize(
    "owner, attr",
    [("_Handler", "do_POST"), ("MockService", "segment"), ("MockService", "act"), ("MockService", "score"),
     (None, "render_overlay")],
)
def test_mock_launcher_wraps_a_name_that_exists(owner, attr):
    module = importlib.import_module("maskloop.mock_server")
    assert callable(getattr(module if owner is None else getattr(module, owner), attr))


def test_importing_the_cli_loads_every_traced_module():
    # bench/spans.py looks each module up in sys.modules right after
    # `from maskloop.cli import dispatch`; the mock launcher imports
    # maskloop.mock_server itself
    traced = {modname for modname, *_ in spans.FUNCTIONS + spans.METHODS} - {"maskloop.mock_server"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(importlib.import_module("maskloop").__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, maskloop.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert sorted(traced - set(out.stdout.split())) == []
