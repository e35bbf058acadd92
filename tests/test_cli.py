import csv
import hashlib
import json
import re
from dataclasses import fields, replace
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import (
    EnvConfig,
    EvalSettings,
    ExperimentConfig,
    Hyperparams,
    LagrangeState,
    LevelParams,
    QModel,
    RandomReset,
    RoadNetwork,
    VillageSpec,
    save_model,
)
from equiflow.cli import main
from equiflow.config import config_from_dict, config_to_dict, default_config, dump_config

from helpers import road_graphs, stalling_world


@pytest.fixture()
def quick_config_path(tmp_path):
    """Config small enough for CLI round trips in well under a second."""
    cfg = default_config()
    data = config_to_dict(cfg)
    data["env"]["total_to_distribute"] = 120_000
    data["eval"]["total_to_distribute"] = 120_000
    data["eval"]["n_runs"] = 3
    data["hyper"]["episodes"] = 10
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Config round trips

def test_config_dict_roundtrip():
    cfg = default_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_dump_config_roundtrip(capsys):
    assert main(["dump-config"]) == 0
    text = capsys.readouterr().out
    cfg = config_from_dict(json.loads(text))
    assert cfg == default_config()
    assert dump_config(cfg) == text


FINITE = st.floats(0.0, 1e6)
RATE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def experiment_configs(draw):
    n, edges = draw(road_graphs())
    villages = [
        VillageSpec(i, draw(st.integers(1, 5000)), draw(FINITE), draw(FINITE), draw(FINITE))
        for i in range(n)
    ]
    quantum = draw(st.integers(1, 20_000))
    low = draw(FINITE)
    env = EnvConfig(
        villages=tuple(villages),
        network=RoadNetwork.from_edges(edges, range(n)),
        capacity=quantum * draw(st.integers(1, 6)),
        delivery_quantum=quantum,
        total_to_distribute=draw(st.integers(1, 10**7)),
        reset_mode=RandomReset(low, draw(st.floats(low, 1e6))),
    )
    min_requirement = draw(st.floats(1e-3, 1e5))
    hyper = Hyperparams(
        alpha=draw(RATE), beta=draw(RATE), alpha_lambda=draw(RATE),
        beta_v=draw(RATE), beta_r=draw(RATE), epsilon=draw(FINITE),
        tau=draw(st.floats(0.0, 1.0, exclude_max=True)), episodes=draw(st.integers(0, 10**6)),
        p0=draw(st.floats(0.0, 1.0)), explore_admissible_only=draw(st.booleans()),
        levels=LevelParams(
            min_requirement, draw(st.floats(min_requirement, 1e6, exclude_min=True)),
            draw(st.integers(1, 12)),
        ),
    )
    evaluation = EvalSettings(
        n_runs=draw(st.integers(1, 500)),
        epsilon_eval=draw(FINITE),
        mode=draw(st.sampled_from(["fixed", "random"])),
        fixed_levels=tuple(draw(st.lists(FINITE, min_size=n, max_size=n))),
        total_to_distribute=draw(st.integers(1, 10**7)),
    )
    return ExperimentConfig(
        env=env, hyper=hyper, policy_kind=draw(st.sampled_from(["local", "eadql", "ecadql"])),
        eval=evaluation, seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=60, deadline=None)
@given(experiment_configs())
def test_config_roundtrip_over_random_road_graphs(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg
    text = dump_config(cfg)
    assert dump_config(config_from_dict(json.loads(text))) == text


def test_dump_config_applies_seed_override(capsys):
    assert main(["dump-config", "--seed", "123"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123


def test_malformed_config_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dump-config", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


# Each mutation returns the start of the error message: the key path and,
# for unknown or missing keys, what is wrong there.

def drop_alpha(data):
    del data["hyper"]["alpha"]
    return "hyper: missing key 'alpha'"


def null_villages(data):
    data["env"]["villages"] = None
    return "env.villages: "


def nan_capacity(data):
    data["env"]["capacity"] = float("nan")
    return "env.capacity: "


def letter_village_id(data):
    data["env"]["villages"][0]["id"] = "a"
    return "env.villages[0].id: "


def fixed_reset(data):
    data["env"]["reset"]["mode"] = "fixed"
    return "env.reset: "


def red_override(data):
    data["hyper"]["levels"]["red_override"] = 50.0
    return "hyper.levels: unknown keys ['red_override']"


def misspelt_top_level_key(data):
    data["sed"] = data.pop("seed")
    return "unknown keys ['sed']"


def misspelt_env_key(data):
    data["env"]["capacty"] = data["env"].pop("capacity")
    return "env: unknown keys ['capacty']"


def misspelt_village_key(data):
    data["env"]["villages"][0]["treshold"] = data["env"]["villages"][0].pop("threshold")
    return "env.villages[0]: unknown keys ['treshold']"


def misspelt_reset_key(data):
    data["env"]["reset"]["hihg"] = data["env"]["reset"].pop("high")
    return "env.reset: unknown keys ['hihg']"


def misspelt_eval_key(data):
    data["eval"]["epsilon_evl"] = data["eval"].pop("epsilon_eval")
    return "eval: unknown keys ['epsilon_evl']"


def misspelt_hyper_key(data):
    data["hyper"]["explore_admisible_only"] = data["hyper"].pop("explore_admissible_only")
    return "hyper: unknown keys ['explore_admisible_only']"


def string_false(data):
    data["hyper"]["explore_admissible_only"] = "false"
    return "hyper.explore_admissible_only: "


def fractional_episodes(data):
    data["hyper"]["episodes"] = 2.7
    return "hyper.episodes: "


def huge_population(data):
    data["env"]["villages"][1]["population"] = 10**400
    return "env.villages: village 1: population must be"


def huge_reset(data):
    # Reset levels this high overflow the equity score once water is delivered.
    data["env"]["reset"]["high"] = 1e306
    return "env.reset: high 1e+306 is above "


def huge_fixed_levels(data):
    # An evaluation start this high overflows the equity score once water is delivered.
    data["eval"]["fixed_levels"][1] = 1e306
    return "eval.fixed_levels: water level 1e+306 is above "


def negative_fixed_level(data):
    data["eval"]["fixed_levels"][2] = -1.0
    return "eval.fixed_levels: water levels must be finite and non-negative"


def action_table_above_the_cap(data):
    # 577 loads a truck on the default map give 1,001,675 legal actions, just above 10**6.
    data["env"]["capacity"] = 576 * data["env"]["delivery_quantum"]
    return "env: capacity 8640000 in quanta of delivery_quantum 15000 gives 1001675 legal actions"


def schema_mutations(cls, where, section):
    """Yield ``(id, mutate)`` for each field of ``cls``, whose JSON object in a
    document ``doc`` is ``section(doc)`` at key path ``where``: one mutation deletes
    the field's key, one gives it a value of the wrong type (a string, or a number
    for a string field)."""
    at, hints = f"{where}: " if where else "", get_type_hints(cls)
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name

        def drop(doc, name=f.name):
            del section(doc)[name]
            return f"{at}missing key '{name}'"

        def mistype(doc, name=f.name, path=path, value=1 if hints[f.name] is str else "x"):
            section(doc)[name] = value
            return f"{path}: "

        yield f"drop-{path}", drop
        yield f"mistype-{path}", mistype


# Every section of a config document read through its dataclass.
CONFIG_SECTIONS = [
    (ExperimentConfig, "", lambda doc: doc),
    (Hyperparams, "hyper", lambda doc: doc["hyper"]),
    (LevelParams, "hyper.levels", lambda doc: doc["hyper"]["levels"]),
    (VillageSpec, "env.villages[0]", lambda doc: doc["env"]["villages"][0]),
    (EvalSettings, "eval", lambda doc: doc["eval"]),
]


@pytest.mark.parametrize(
    "mutate,named",
    [
        *(pytest.param(mutate, "", id=name) for section in CONFIG_SECTIONS
          for name, mutate in schema_mutations(*section)),
        (drop_alpha, "'alpha'"),
        (null_villages, ""),
        (nan_capacity, "NaN"),
        (letter_village_id, "'a'"),
        (fixed_reset, "'fixed'"),
        (red_override, "'red_override'"),
        (misspelt_top_level_key, "'sed'"),
        (misspelt_env_key, "'capacty'"),
        (misspelt_village_key, "'treshold'"),
        (misspelt_reset_key, "'hihg'"),
        (misspelt_eval_key, "'epsilon_evl'"),
        (misspelt_hyper_key, "'explore_admisible_only'"),
        (string_false, "'false'"),
        (fractional_episodes, "2.7"),
        (huge_population, "2**53"),
        (huge_reset, "equity score"),
        (huge_fixed_levels, "equity score"),
        (negative_fixed_level, ""),
        (action_table_above_the_cap, "10**6"),
    ],
)
def test_config_with_missing_or_mistyped_entry_is_a_clean_error(
    tmp_path, quick_config_path, capsys, mutate, named
):
    data = json.loads(quick_config_path.read_text())
    key_path = mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in (["dump-config"], ["train", "--out", str(tmp_path / "m.json")]):
        assert main([*command, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {key_path}") and named in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


def test_model_without_q_table_is_a_clean_error(tmp_path, quick_config_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    del doc["qa"]
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(quick_config_path), "--model", str(model_path),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_path}: missing key 'qa'")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def unknown_model_key(doc):
    doc["avg_reward_estimate"] = doc["avg_reward"]
    return "unknown keys ['avg_reward_estimate']"


def unknown_lagrange_key(doc):
    doc["lagrange"]["lamda"] = doc["lagrange"].pop("lam")
    return "lagrange: unknown keys ['lamda']"


def state_group_as_list(doc):
    state = next(iter(doc["qa"]))
    doc["qa"][state] = list(doc["qa"][state].items())
    return f"qa: state {state!r}: expected a JSON object, got list"


def malformed_action_key(doc):
    state, row = next(iter(doc["qa"].items()))
    row["1;0"] = row.pop(next(iter(row)))
    return f"qa: state {state!r}: malformed action key '1;0'"


def non_numeric_value(doc):
    state, row = next(iter(doc["qa"].items()))
    action = next(iter(row))
    row[action] = "x"
    return f"qa: state {state!r}: action {action!r}: expected a number, got 'x'"


def nan_q_value(doc):
    state, row = next(iter(doc["qa"].items()))
    action = next(iter(row))
    row[action] = float("nan")
    return f"qa: state {state!r}: action {action!r}: expected a finite number, got nan"


def infinite_avg_reward(doc):
    doc["avg_reward"] = float("inf")
    return "avg_reward: expected a finite number, got inf"


def nan_reward_estimate(doc):
    doc["lagrange"]["reward_estimate"] = float("nan")
    return "lagrange.reward_estimate: expected a finite number, got nan"


def huge_int_q_value(doc):
    state, row = next(iter(doc["qa"].items()))
    action = next(iter(row))
    row[action] = 10**400  # beyond float range
    return f"qa: state {state!r}: action {action!r}: expected a finite number, got 1000"


def unknown_version(doc):
    doc["version"] = 3
    return "model file version 3 is not supported; this build reads versions [1, 2]"


@pytest.mark.parametrize("mutate", [unknown_model_key, unknown_lagrange_key, state_group_as_list,
                                    malformed_action_key, non_numeric_value, nan_q_value,
                                    huge_int_q_value, infinite_avg_reward, nan_reward_estimate,
                                    unknown_version,
                                    *(pytest.param(mutate, id=name) for name, mutate in
                                      schema_mutations(LagrangeState, "lagrange", lambda doc: doc["lagrange"]))])
def test_model_with_unknown_key_is_a_clean_error(tmp_path, quick_config_path, capsys, mutate):
    data = json.loads(quick_config_path.read_text())
    data["policy_kind"] = "ecadql"  # a model with a Lagrange block
    cfg = tmp_path / "ecadql.json"
    cfg.write_text(json.dumps(data))
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(cfg), "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    key_path = mutate(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_path}: {key_path}")
    assert "Traceback" not in err and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# train

def test_train_smoke_single_episode(tmp_path, quick_config_path):
    out = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "equiflow-qmodel"
    assert doc["kind"] == "eadql"
    assert doc["qa"]


def test_train_rejects_local_policy(tmp_path, quick_config_path, capsys):
    data = json.loads(quick_config_path.read_text())
    data["policy_kind"] = "local"
    cfg = quick_config_path.parent / "local.json"
    cfg.write_text(json.dumps(data))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 2
    assert "local" in capsys.readouterr().err


def test_train_adql_requires_epsilon_one(tmp_path, quick_config_path):
    data = json.loads(quick_config_path.read_text())
    data["policy_kind"] = "adql"
    cfg = quick_config_path.parent / "adql.json"
    cfg.write_text(json.dumps(data))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 2
    data["hyper"]["epsilon"] = 1.0
    cfg.write_text(json.dumps(data))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 0


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_local_fixed_scenario(tmp_path, quick_config_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(quick_config_path),
                 "--model", "local", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "policy=local" in printed and "score=" in printed
    series = read_csv(out / "series.csv")
    summary = read_csv(out / "summary.csv")
    assert series[0][:4] == ["step", "reward", "running_average", "violation"]
    assert summary[1][0] == "local"
    assert float(summary[1][1]) == 0.0  # the baseline is the eps=0 behaviour


def test_evaluate_with_fixed_levels_above_the_cap_is_a_clean_error(
    tmp_path, quick_config_path, capsys
):
    data = json.loads(quick_config_path.read_text())
    huge_fixed_levels(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["evaluate", "--config", str(bad), "--model", "local",
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: eval.fixed_levels: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["evaluate", "--model"], ["compare"]],
                         ids=["evaluate", "compare"])
def test_a_cycling_model_is_a_clean_error(tmp_path, capsys, command):
    # In the stalling world an empty Q-table takes the first admissible action,
    # a zero-litre move, until no untaken one is left at a revisited state.
    cfg = default_config()
    path = tmp_path / "stalling.json"
    path.write_text(dump_config(replace(cfg, env=stalling_world(),
                                        eval=replace(cfg.eval, fixed_levels=(200.0, 200.0)))))
    model_path = tmp_path / "empty.json"
    save_model(QModel(cfg.hyper), model_path)
    assert main([*command, str(model_path), "--config", str(path), "--eps-eval", "0.0",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: reference run: policy eadql revisited a state at step 3 and has taken every "
        "admissible action from it since the last delivery; the rollout cannot finish\n")


def fewer_villages(data):
    # Village 3 and its roads removed: no key of a 4-village model can match a state.
    data["env"]["villages"].pop()
    data["env"]["edges"] = [edge for edge in data["env"]["edges"] if 3 not in edge]
    data["eval"]["fixed_levels"].pop()
    return "model states have [4] villages, the config's world has 3; refusing to evaluate"


def more_hidden_bands(data):
    data["hyper"]["levels"]["hidden"] = 7
    return "model level bands differ from the config's; refusing to evaluate"


def larger_quantum(data):
    # Loads and dispenses move in 20,000 l: the model's 15,000 l states cannot occur.
    data["env"]["delivery_quantum"] = 20_000
    return ("a model state names node 0 with 15000 l, which the config's world "
            "(capacity 60000, quantum 20000) cannot hold; refusing to evaluate")


def smaller_capacity(data):
    # A 45,000 l truck: the model's full-truck start at the source cannot occur.
    data["env"]["capacity"] = 45_000
    return ("a model state names node -1 with 60000 l, which the config's world "
            "(capacity 45000, quantum 15000) cannot hold; refusing to evaluate")


@pytest.mark.parametrize("mismatch", [fewer_villages, more_hidden_bands, larger_quantum,
                                      smaller_capacity])
@pytest.mark.parametrize("command", [["evaluate", "--model"], ["compare"]],
                         ids=["evaluate", "compare"])
def test_a_model_for_another_world_is_a_clean_error(
    tmp_path, quick_config_path, capsys, command, mismatch
):
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(model_path)]) == 0
    data = json.loads(quick_config_path.read_text())
    message = mismatch(data)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([*command, str(model_path), "--config", str(other),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {model_path}: {message}\n"


def test_evaluate_model_and_aggregate_mode(tmp_path, quick_config_path):
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(model_path)]) == 0
    data = json.loads(quick_config_path.read_text())
    data["eval"]["mode"] = "random"
    cfg = quick_config_path.parent / "agg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path),
                 "--out", str(out), "--runs", "2", "--eps-eval", "0.05"]) == 0
    summary = read_csv(out / "summary.csv")
    assert summary[1][0] == "eadql"
    assert float(summary[1][2]) == 0.05


def test_tau_zero_config_trains_and_evaluates(tmp_path, quick_config_path):
    # tau = 0 disables the equity floor in training and flags no evaluated step.
    data = json.loads(quick_config_path.read_text())
    data["hyper"]["tau"] = 0.0
    cfg = tmp_path / "tau0.json"
    cfg.write_text(json.dumps(data))
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(cfg), "--out", str(model_path)]) == 0
    for model in ("local", str(model_path)):
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", str(cfg), "--model", model, "--out", str(out)]) == 0
        summary = read_csv(out / "summary.csv")
        assert float(summary[1][3]) == 0.0 and float(summary[1][5]) == 0.0
        assert {row[3] for row in read_csv(out / "series.csv")[1:]} == {"0"}


def test_saved_model_evaluates_byte_identically(tmp_path, quick_config_path):
    from equiflow.qlearn import load_model, save_model

    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(model_path)]) == 0
    copy_path = tmp_path / "copy.json"
    save_model(load_model(model_path), copy_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for model, out in ((model_path, out_a), (copy_path, out_b)):
        assert main(["evaluate", "--config", str(quick_config_path),
                     "--model", str(model), "--out", str(out)]) == 0
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


# ---------------------------------------------------------------------------
# compare

def test_compare_writes_row_per_policy_and_shared_seed(tmp_path, quick_config_path):
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(model_path)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(quick_config_path), "--out", str(out),
                 "--runs", "2", "local", str(model_path)]) == 0
    summary = read_csv(out / "compare_summary.csv")
    assert len(summary) == 3
    assert summary[1][0] == "local"
    assert summary[2][0].startswith("eadql")
    assert summary[1][7] == summary[2][7]  # shared seed column
    series = read_csv(out / "compare_series.csv")
    assert series[0] == ["policy", "step", "mean_reward"]
    assert {row[0] for row in series[1:]} == {summary[1][0], summary[2][0]}


def test_compare_single_policy_matches_evaluate(tmp_path, quick_config_path):
    data = json.loads(quick_config_path.read_text())
    data["eval"]["mode"] = "random"
    cfg = quick_config_path.parent / "agg.json"
    cfg.write_text(json.dumps(data))
    out_eval, out_cmp = tmp_path / "ev", tmp_path / "cmp"
    assert main(["evaluate", "--config", str(cfg), "--model", "local", "--out", str(out_eval)]) == 0
    assert main(["compare", "--config", str(cfg), "--out", str(out_cmp), "local"]) == 0
    ev = read_csv(out_eval / "summary.csv")[1]
    cmp_row = read_csv(out_cmp / "compare_summary.csv")[1]
    assert ev[4:7] == cmp_row[4:7]  # score, violation_ratio, episode_length


# ---------------------------------------------------------------------------
# Pinned outputs: stdout and the SHA-256 of every CSV of ``evaluate`` (fixed
# and random mode) and ``compare`` on the quick config, with a 10-episode
# eps-ADQL model.  Reporting changes must keep every byte.

CLI_GOLDEN = {
    "fixed": (
        "policy=eadql score=0.746322 violation_ratio=0.191489\n",
        {
            "series.csv": "1d2241f20f1f7df13f450b0e3617a9a5282fa08bd94d3f0b2daed2f9e4f4fc71",
            "summary.csv": "0c9a174b1b5f97afae45e4e53ea6e852251e3e1fd7033b2c508e19a548c72d09",
        },
    ),
    "random": (
        "policy=eadql score=0.679475 violation_ratio=0.486637\n",
        {
            "series.csv": "1d2241f20f1f7df13f450b0e3617a9a5282fa08bd94d3f0b2daed2f9e4f4fc71",
            "summary.csv": "6c085db550c63c0f517f290d5aa0944cafaeaa56cc25d8a9001d4ae7fb57dd97",
        },
    ),
    "compare": (
        "policy=local score=0.861682 violation_ratio=0.095238\n"
        "policy=eadql:model score=0.679475 violation_ratio=0.486637\n",
        {
            "compare_series.csv": "c65a6261a383ae0205e4e67f584e6673bdecd6b60dad19a9af80812dc96c542e",
            "compare_summary.csv": "60b9f3fa72af540144432e16d7210609c0a5d8e4f0f423f26d4d65dfaf7921e1",
        },
    ),
}


def test_evaluate_and_compare_outputs_are_pinned(tmp_path, quick_config_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(quick_config_path), "--out", str(model_path)]) == 0
    data = json.loads(quick_config_path.read_text())
    data["eval"]["mode"] = "random"
    random_cfg = tmp_path / "random.json"
    random_cfg.write_text(json.dumps(data))
    commands = {
        "fixed": ["evaluate", "--config", str(quick_config_path), "--model", str(model_path)],
        "random": ["evaluate", "--config", str(random_cfg), "--model", str(model_path)],
        "compare": ["compare", "--config", str(quick_config_path), "local", str(model_path)],
    }
    capsys.readouterr()
    outputs = {}
    for name, argv in commands.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        outputs[name] = (
            capsys.readouterr().out,
            {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())},
        )
    assert outputs == CLI_GOLDEN
