"""The names the benchmark in ``bench/`` wraps and calls must keep existing.

A rename that the tracer cannot resolve would otherwise only show up as a
``missing_layers`` entry in a traced benchmark run, and a config document
the parser rejects only as a failed benchmark run.  This module reads
``bench/`` and runs its self-test; it changes nothing there.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from equiflow.config import config_from_dict, config_to_dict, default_config, dump_config
from equiflow.env import EnvConfig

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_bench_module("tracing").LAYERS
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("layer,module_name,attr", LAYERS, ids=[f"{m}.{a}" for _, m, a in LAYERS])
def test_traced_layer_resolves(layer, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # The tracer swaps the method in the class's own namespace.
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_config_parses_without_loss(workload):
    configs = load_bench_module("configs")
    doc = configs.workload_config(json.loads(dump_config(default_config())), workload)
    assert config_to_dict(config_from_dict(doc)) == doc


def test_equity_scorer_is_a_cached_property():
    assert isinstance(EnvConfig.__dict__["equity_of"], cached_property)


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 0 failure(s)" in done.stdout
