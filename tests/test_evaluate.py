import csv
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import (
    Action,
    Episode,
    LocalPolicy,
    ModelPolicy,
    Trajectory,
    WorldState,
    aggregate_runs,
    available_actions,
    normalize_series,
    run_episode,
    train_eadql,
)
from equiflow.evaluate import SummaryRow, compute_metrics, write_series_csv, write_summary_csv
from equiflow.qlearn import Hyperparams

EVAL_START = WorldState((0.0, 300.0, 200.0, 200.0), -1, 60000, 0)

# Deterministic greedy rollout of the baseline on the default map; frozen as
# a regression anchor for the whole reward pipeline.
LOCAL_FULL_SCORE = 0.7742251961132797


def synth_trajectory(rewards, tau=0.7):
    return Trajectory(
        initial=EVAL_START,
        actions=[Action(1, 0)] * len(rewards),
        rewards=list(rewards),
        violations=[r < tau for r in rewards],
        states=[EVAL_START] * len(rewards),
    )


# ---------------------------------------------------------------------------
# Metrics

def test_constant_rewards_give_constant_running_average():
    metrics = compute_metrics(synth_trajectory([0.8] * 25))
    assert metrics.score == pytest.approx(0.8, abs=1e-15)
    assert all(v == pytest.approx(0.8, abs=1e-12) for v in metrics.running_average)


def test_no_violations_when_rewards_clear_tau():
    metrics = compute_metrics(synth_trajectory([0.9, 0.95, 0.8], tau=0.7))
    assert metrics.violation_ratio == 0.0


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
@settings(max_examples=100)
def test_running_average_is_prefix_mean(rewards):
    metrics = compute_metrics(synth_trajectory(rewards))
    for k in range(1, len(rewards) + 1):
        assert metrics.running_average[k - 1] == pytest.approx(
            sum(rewards[:k]) / k, abs=1e-9
        )
    assert metrics.score == metrics.running_average[-1]


# ---------------------------------------------------------------------------
# run_episode

def test_local_policy_full_scenario_regression(experiment_cfg):
    from equiflow.config import evaluation_env, evaluation_initial

    traj, metrics = run_episode(
        LocalPolicy(), evaluation_env(experiment_cfg), evaluation_initial(experiment_cfg), 0.0, 0.7
    )
    assert traj.length == 394
    assert metrics.score == pytest.approx(LOCAL_FULL_SCORE, rel=1e-12)
    assert metrics.final_distribution == traj.states[-1].levels
    assert len(metrics.running_average) == traj.length


def test_replaying_logged_actions_reproduces_rewards(quick_env):
    traj, _ = run_episode(LocalPolicy(), quick_env, EVAL_START, 0.0, 0.7)
    episode = Episode(quick_env)
    episode.reset_to(EVAL_START)
    replayed = [episode.step(a).reward for a in traj.actions]
    assert replayed == traj.rewards


def test_model_policy_actions_are_admissible(quick_env):
    from equiflow import admissible_from, score_actions

    model = train_eadql(quick_env, Hyperparams(episodes=30), seed=3)
    eps = 0.05
    traj, _ = run_episode(ModelPolicy(model), quick_env, EVAL_START, eps, 0.7)
    episode = Episode(quick_env)
    state = episode.reset_to(EVAL_START)
    for action in traj.actions:
        admitted = admissible_from(score_actions(state, quick_env), eps)
        assert action in [sa.action for sa in admitted]
        state = episode.step(action).next_state


class Loiter:
    """Moves without dispensing whenever it can, so the episode never ends."""

    name = "loiter"

    def choose(self, state, admissible):
        free = [sa.action for sa in admissible if sa.action.dispense == 0]
        return free[0] if free else admissible[0].action


def test_run_episode_guards_against_stalls(quick_env):
    with pytest.raises(RuntimeError):
        run_episode(Loiter(), quick_env, EVAL_START, 1.0, 0.7, max_steps=500)


def test_run_episode_stops_a_cycling_policy_at_the_first_revisit(quick_env):
    # Without the revisit check this rollout runs to the default step cap.
    with pytest.raises(RuntimeError, match=r"policy loiter revisited a state at step \d+") as info:
        run_episode(Loiter(), quick_env, EVAL_START, 1.0, 0.7)
    step = int(re.search(r"step (\d+)", str(info.value)).group(1))
    assert step < 500


def test_run_episode_rejects_inadmissible_choice(quick_env):
    # A legal action outside the admissible set must stop the rollout.
    class Rogue:
        name = "rogue"

        def choose(self, state, admissible):
            kept = {sa.action for sa in admissible}
            return next(a for a in available_actions(state, quick_env) if a not in kept)

    with pytest.raises(AssertionError, match="inadmissible"):
        run_episode(Rogue(), quick_env, EVAL_START, 0.0, 0.7)


# ---------------------------------------------------------------------------
# normalize_series

def test_equal_length_series_within_cap_unchanged():
    series = [[0.1, 0.2], [0.3, 0.4]]
    assert normalize_series(series, 10) == series


def test_padding_repeats_final_value():
    out = normalize_series([[0.5, 0.6], [0.1, 0.2, 0.3, 0.4]], 10)
    assert out[0] == [0.5, 0.6, 0.6, 0.6]
    assert out[1] == [0.1, 0.2, 0.3, 0.4]


def test_cropping_at_1_2_times_reference():
    long = list(range(200))
    out = normalize_series([long], 100)
    assert len(out[0]) == 120
    assert out[0] == long[:120]


def test_normalize_rejects_empty_input():
    with pytest.raises(ValueError):
        normalize_series([], 5)
    with pytest.raises(ValueError):
        normalize_series([[1.0], []], 5)


@given(
    lengths=st.lists(st.integers(1, 80), min_size=1, max_size=8),
    reference=st.integers(1, 60),
)
@settings(max_examples=100)
def test_normalize_properties(lengths, reference):
    rng = random.Random(0)
    series = [[rng.random() for _ in range(n)] for n in lengths]
    out = normalize_series(series, reference)
    cap = 12 * reference // 10
    target = max(min(n, cap) for n in lengths)
    assert all(len(s) == target for s in out)
    for before, after in zip(series, out):
        keep = min(len(before), cap)
        assert after[:keep] == before[:keep]
        assert all(v == before[keep - 1] for v in after[keep:])


# ---------------------------------------------------------------------------
# aggregate_runs

@pytest.fixture(scope="module")
def small_aggregate(quick_env):
    env = replace(quick_env, total_to_distribute=240_000)
    return aggregate_runs(LocalPolicy(), env, 12, seed=77, epsilon_eval=0.0,
                          tau=0.7, reference_initial=EVAL_START), env


def test_aggregate_metrics_use_original_lengths(small_aggregate):
    agg, _ = small_aggregate
    assert agg.mean_score == pytest.approx(sum(m.score for m in agg.runs) / len(agg.runs))
    assert agg.mean_violation_ratio == pytest.approx(
        sum(m.violation_ratio for m in agg.runs) / len(agg.runs)
    )
    # Padding must not leak into the score: each run's score is its own mean.
    for m in agg.runs:
        assert m.score == pytest.approx(m.running_average[-1], abs=1e-12)


def test_aggregate_series_respects_crop(small_aggregate):
    agg, _ = small_aggregate
    assert len(agg.mean_series) <= 12 * agg.reference_length // 10


def test_aggregate_is_seed_deterministic_and_policy_shared(quick_env):
    env = replace(quick_env, total_to_distribute=120_000)
    a = aggregate_runs(LocalPolicy(), env, 5, 9, 0.0, 0.7, EVAL_START)
    b = aggregate_runs(LocalPolicy(), env, 5, 9, 0.0, 0.7, EVAL_START)
    assert a.mean_series == b.mean_series
    assert a.mean_score == b.mean_score
    model = train_eadql(env, Hyperparams(episodes=20), seed=1)
    c = aggregate_runs(ModelPolicy(model), env, 5, 9, 0.1, 0.7, EVAL_START)
    assert c.mean_score != a.mean_score  # different policy, same starts


def test_single_run_aggregate_matches_run_episode(quick_env):
    agg = aggregate_runs(LocalPolicy(), quick_env, 1, 40, 0.0, 0.7, EVAL_START)
    rng = random.Random(random.Random(40).randrange(2**63))
    levels = tuple(rng.uniform(0.0, 600.0) for _ in range(quick_env.n_villages))
    traj, metrics = run_episode(
        LocalPolicy(), quick_env, WorldState(levels, -1, quick_env.capacity, 0), 0.0, 0.7
    )
    assert agg.mean_score == pytest.approx(metrics.score, abs=1e-15)
    assert agg.runs[0].violation_ratio == metrics.violation_ratio


# ---------------------------------------------------------------------------
# CSV export

def test_series_csv_layout(quick_env, tmp_path):
    traj, metrics = run_episode(LocalPolicy(), quick_env, EVAL_START, 0.0, 0.7)
    path = tmp_path / "series.csv"
    write_series_csv(path, traj, metrics)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "step", "reward", "running_average", "violation", "position", "load",
        "x0", "x1", "x2", "x3",
    ]
    assert len(rows) == traj.length + 1
    assert [float(r[1]) for r in rows[1:]] == traj.rewards
    assert [int(r[0]) for r in rows[1:]] == list(range(1, traj.length + 1))


def test_summary_csv_layout(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(
        path,
        [SummaryRow("local", 0.0, 0.1, 0.7, 0.77, 0.28, 394.0, 7)],
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "policy", "epsilon_train", "epsilon_eval", "tau", "score",
        "violation_ratio", "episode_length", "seed",
    ]
    assert rows[1][0] == "local" and rows[1][7] == "7"
