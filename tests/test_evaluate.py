import csv
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import (
    Action,
    EnvConfig,
    Episode,
    LocalPolicy,
    ModelPolicy,
    Trajectory,
    WorldState,
    admissible_from,
    aggregate_runs,
    available_actions,
    normalize_series,
    run_episode,
    score_actions,
    train_eadql,
    train_ecadql,
)
from equiflow.config import evaluation_env, evaluation_initial
from equiflow.evaluate import (RolloutError, SummaryRow, compute_metrics, write_series_csv,
                               write_summary_csv)
from equiflow.qlearn import Hyperparams

from helpers import LookaheadPolicy, count_step_loop, stalling_world

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


def test_run_episode_guards_against_stalls(env_cfg):
    # Villages that barely drink never repeat a state, so Loiter never runs out of
    # untaken moves and its rollout stops only at the step limit of one quantum.
    world = replace(env_cfg, total_to_distribute=env_cfg.delivery_quantum,
                    villages=tuple(replace(v, base_rate=1e-6, high_rate=1e-6) for v in env_cfg.villages))
    assert world.step_limit == 1000
    with pytest.raises(RolloutError, match="exceeded 1000 steps"):
        run_episode(Loiter(), world, EVAL_START, 1.0, 0.7)


def test_a_cycling_policy_is_offered_only_the_actions_it_has_not_taken(quick_env):
    # Loiter takes the first zero-litre move wherever it can, so its drained
    # states repeat; back at one, it is offered only the untaken actions, and
    # it delivers once the zero-litre moves from there are spent.
    traj, _ = run_episode(Loiter(), quick_env, EVAL_START, 1.0, 0.7)
    assert traj.length == 921
    assert traj.states[-1].distributed_total == quick_env.total_to_distribute
    episode = Episode(quick_env)
    state = episode.reset_to(EVAL_START)
    taken = set()
    for action in traj.actions:
        assert action in [sa.action for sa in admissible_from(score_actions(state, quick_env), 1.0)]
        if action.dispense:
            taken.clear()
        else:
            assert (state, action) not in taken
            taken.add((state, action))
        state = episode.step(action).next_state


def test_run_episode_raises_when_no_untaken_admissible_action_is_left():
    world = stalling_world()
    start = WorldState((200.0, 200.0), -1, world.capacity, 0)
    with pytest.raises(RolloutError, match=r"^policy local revisited a state at step 3 and has taken "
                                           r"every admissible action from it since the last delivery"):
        run_episode(LocalPolicy(), world, start, 0.0, 0.7)


def test_training_and_evaluation_stop_at_the_configs_step_limit(quick_env, monkeypatch):
    assert quick_env.step_limit == 1000 * 12  # a thousand per quantum of the 180,000 l budget
    assert replace(quick_env, total_to_distribute=180_001).step_limit == 1000 * 13
    monkeypatch.setattr(EnvConfig, "step_limit", property(lambda self: 3))
    with pytest.raises(RuntimeError, match="exceeded 3 steps"):
        train_eadql(quick_env, Hyperparams(episodes=1), seed=3)
    with pytest.raises(RolloutError, match="exceeded 3 steps"):
        run_episode(LocalPolicy(), quick_env, EVAL_START, 0.1, 0.7)


def test_a_rollout_may_run_past_100000_steps(experiment_cfg):
    # The local policy takes about 1.95 steps per 15,000 l quantum, so a budget
    # of 52,000 quanta takes just over 100,000 steps, within its step limit.
    env = replace(experiment_cfg.env, total_to_distribute=15_000 * 52_000)
    traj, _ = run_episode(LocalPolicy(), env, evaluation_initial(experiment_cfg), 0.1, 0.7)
    assert traj.length > 100_000


def test_aggregate_runs_names_the_random_run_that_cycles():
    # Every random start has equal levels and stalls at step 3; from the
    # reference start, the first step delivers the whole budget and levels them.
    world = replace(stalling_world(), total_to_distribute=15_000)
    reference = WorldState((50.0, 200.0), -1, world.capacity, 0)
    assert run_episode(LocalPolicy(), world, reference, 0.0, 0.7)[0].length == 1
    run_seed = random.Random(5).randrange(2**63)
    with pytest.raises(RolloutError, match=rf"^run 0 \(seed {run_seed}\): policy local revisited "
                                           r"a state at step 3"):
        aggregate_runs(LocalPolicy(), world, 3, 5, 0.0, 0.7, reference)


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


def test_rollouts_revisit_scored_states_and_training_does_not(experiment_cfg, monkeypatch):
    # Greedy rollouts drain villages and merge onto the same states, which the
    # rollout cache serves from its third sighting on: 4,343 of the 7,944
    # scored states (54.7%) here.  Training explores; this run scores 7,976
    # states, of which one is a repeat (a drained state met in two episodes).
    env = evaluation_env(experiment_cfg)
    counts, _ = count_step_loop(monkeypatch, env)
    aggregate_runs(LocalPolicy(), env, 20, 7, 0.01, experiment_cfg.hyper.tau,
                   evaluation_initial(experiment_cfg))
    assert counts["served"] >= 0.273 * counts["score_actions"]

    env = replace(experiment_cfg.env)
    _, scored = count_step_loop(monkeypatch, env)
    train_ecadql(env, replace(experiment_cfg.hyper, episodes=50), 7)
    assert len(scored) - len(set(scored)) <= len(scored) // 1000


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


def test_lookahead_planner_ratio_on_the_first_criterion_8_starts(experiment_cfg):
    """Criterion 8's evaluation (default map, seed 7, eps_eval 0.01) on its
    first three random starts.  Depth 1 chooses as the local policy does;
    looking three steps ahead inside the same admissible sets cuts the mean
    violation ratio from 0.462 to 0.265.  README's depth sweep uses this planner."""
    env, init = evaluation_env(experiment_cfg), evaluation_initial(experiment_cfg)
    tau = experiment_cfg.hyper.tau

    def ratio(policy):
        return aggregate_runs(policy, env, 3, experiment_cfg.seed, 0.01, tau,
                              init).mean_violation_ratio

    assert ratio(LookaheadPolicy(env, 1, 0.01, tau)) == ratio(LocalPolicy()) == 0.46201827334372264
    assert ratio(LookaheadPolicy(env, 3, 0.01, tau)) == 0.26526562699502404
