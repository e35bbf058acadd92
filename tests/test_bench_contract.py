"""The names the benchmark in ``bench/`` wraps and calls must keep existing.

A rename that the tracer cannot resolve would otherwise only show up as a
``missing_layers`` entry in a traced benchmark run.  This module reads
``bench/`` and runs its self-test; it changes nothing there.
"""
import importlib
import importlib.util
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from equiflow.env import EnvConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracing().LAYERS


@pytest.mark.parametrize("layer,module_name,attr", LAYERS, ids=[f"{m}.{a}" for _, m, a in LAYERS])
def test_traced_layer_resolves(layer, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # The tracer swaps the method in the class's own namespace.
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_equity_scorer_is_a_cached_property():
    assert isinstance(EnvConfig.__dict__["equity_of"], cached_property)


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 0 failure(s)" in done.stdout
