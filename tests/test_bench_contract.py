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
from collections import Counter
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

import equiflow.env
import equiflow.evaluate
import equiflow.qlearn
from equiflow import LocalPolicy, run_episode, train_ecadql
from equiflow.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    evaluation_initial,
)
from equiflow.env import Episode, EnvConfig

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
    """The counts ``bench/run.py:check_traced_totals`` checks, and one state
    expansion per scored state with at most one equity evaluation per scored
    action (so that stepping never simulates a scored successor again)."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "score_actions":
                counts["scored"] += len(result)
            return result
        return wrapper

    for module in (equiflow.qlearn, equiflow.evaluate):
        wrapped = counting("score_actions", module.score_actions)
        monkeypatch.setattr(module, "score_actions", wrapped)
    monkeypatch.setattr(equiflow.qlearn, "double_q_update",
                        counting("double_q_update", equiflow.qlearn.double_q_update))
    monkeypatch.setattr(equiflow.env, "available_actions",
                        counting("available_actions", equiflow.env.available_actions))
    monkeypatch.setattr(Episode, "step", counting("step", Episode.step))
    config = default_config()
    env = replace(config.env)  # a fresh config, so that its scorer can be wrapped
    object.__setattr__(env, "equity_of", counting("equity", env.equity_of))

    stats = []
    train_ecadql(env, replace(config.hyper, episodes=20), 7, on_episode=stats.append)
    steps = sum(s.length for s in stats)
    assert steps > 0
    assert counts["step"] == steps
    assert counts["score_actions"] == steps + len(stats)
    assert counts["double_q_update"] == steps
    assert counts["available_actions"] == counts["score_actions"]
    assert 0 < counts["equity"] <= counts["scored"]

    counts.clear()
    traj, _ = run_episode(LocalPolicy(), env, evaluation_initial(config),
                          config.eval.epsilon_eval, config.hyper.tau)
    assert traj.length > 0
    assert counts["step"] == counts["score_actions"] == traj.length
    assert counts["available_actions"] == counts["score_actions"]
    assert 0 < counts["equity"] <= counts["scored"]
