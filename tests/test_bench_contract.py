"""The names the benchmark in ``bench/`` wraps and calls must keep existing.

A rename that the tracer cannot resolve would otherwise only show up as a
``missing_layers`` entry in a traced benchmark run, a config document the
parser rejects only as a failed benchmark run, and a change in how often the
step loop calls a layer only as a failed call-count check of a traced run.
This module reads ``bench/`` and runs its self-test; it changes nothing there.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from equiflow import LocalPolicy, run_episode, train_ecadql
from equiflow.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    evaluation_initial,
)
from equiflow.env import EnvConfig

from helpers import count_step_loop

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


def test_step_loop_call_counts(monkeypatch):
    """The counts ``bench/run.py:check_traced_totals`` checks, and per scored
    state one base expansion and one lift call for each destination that a
    scored action delivers to (so that stepping never simulates a scored
    successor again).  A rollout expands only the states its cache does not
    serve, and a start rolled for the third time is served at every step."""
    config = default_config()
    env = replace(config.env)  # a fresh config, so that its kernel can be wrapped
    counts, _ = count_step_loop(monkeypatch, env)

    stats = []
    train_ecadql(env, replace(config.hyper, episodes=20), 7, on_episode=stats.append)
    steps = sum(s.length for s in stats)
    assert steps > 0
    assert counts["step"] == steps
    assert counts["score_actions"] == steps + len(stats)
    assert counts["double_q_update"] == steps
    assert counts["available_actions"] == counts["score_actions"]
    assert counts["expand"] == counts["score_actions"]
    assert 0 < counts["lift"] == counts["delivering"]

    for rollout in range(3):
        counts.clear()
        traj, _ = run_episode(LocalPolicy(), env, evaluation_initial(config),
                              config.eval.epsilon_eval, config.hyper.tau)
        assert traj.length > 0
        assert counts["step"] == counts["score_actions"] == traj.length
        assert counts["available_actions"] == counts["score_actions"]
        assert counts["expand"] == counts["score_actions"] - counts["served"]
        assert counts["lift"] == counts["delivering"] - counts["served_delivering"]
    assert counts["served"] == traj.length and counts["expand"] == counts["lift"] == 0
