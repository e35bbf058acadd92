import json
import random

import pytest

from equiflow import (
    Action,
    Hyperparams,
    LagrangeState,
    LevelisedState,
    LevelParams,
    ModelPolicy,
    QModel,
    WorldState,
    admissible_from,
    double_q_update,
    lagrange_update,
    levelise,
    load_model,
    save_model,
    score_actions,
    train_eadql,
    train_ecadql,
)
from equiflow.qlearn import _argmax_q, _encode_action, _encode_state_key

from helpers import optimal_average_reward, random_walk_states, write_v1_model

EVAL_START = WorldState((0.0, 300.0, 200.0, 200.0), -1, 60000, 0)


def tiny_hyper(**overrides) -> Hyperparams:
    base = dict(episodes=20, p0=0.3)
    base.update(overrides)
    return Hyperparams(**base)


# ---------------------------------------------------------------------------
# Levelisation

def test_default_band_boundaries():
    params = LevelParams()
    assert params.red_bound == 0.0
    assert params.green_bound == 575.0
    assert params.hidden + 1 == 6  # the top band, above the green bound


@pytest.mark.parametrize(
    "level,band",
    [
        (0.0, 0),  # at or below the red bound
        (0.001, 1),
        (115.0, 1),  # bands are (low, high]
        (120.0, 2),
        (230.0, 2),
        (575.0, 5),
        (575.1, 6),
        (600.0, 6),
    ],
)
def test_levelise_default_bands(level, band):
    state = WorldState((level, 0.0, 0.0, 0.0), -1, 60000, 0)
    assert levelise(state, LevelParams()).levels[0] == band


def test_levelise_copies_position_and_load():
    key = levelise(WorldState((0.0, 300.0, 200.0, 200.0), 3, 15000, 0), LevelParams())
    assert key == LevelisedState((0, 3, 2, 2), 3, 15000)


def test_key_space_over_reachable_states(env_cfg):
    params = LevelParams()
    for s in random_walk_states(env_cfg, seed=31, count=300):
        key = levelise(s, params)
        assert all(0 <= b <= 6 for b in key.levels)
        assert key.position in (-1, 0, 1, 2, 3)
        assert key.load in (0, 15000, 30000, 45000, 60000)


def test_level_params_validation():
    with pytest.raises(ValueError):
        LevelParams(min_requirement=400.0, desired=350.0)
    with pytest.raises(ValueError):
        LevelParams(hidden=0)
    with pytest.raises(ValueError):
        LevelParams(min_requirement=1.0, desired=1.5e308)  # finite, but the green bound overflows


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(alpha=0.0)
    with pytest.raises(ValueError):
        Hyperparams(tau=1.0)
    with pytest.raises(ValueError):
        Hyperparams(p0=1.5)
    Hyperparams(tau=0.0)  # constraint disabled, allowed


# ---------------------------------------------------------------------------
# Double-Q update

class _CoinRng:
    """Deterministic stand-in for random.Random: fixed coin sequence."""

    def __init__(self, coins):
        self.coins = list(coins)

    def random(self):
        return self.coins.pop(0)


def test_update_hand_arithmetic_on_fresh_model():
    model = QModel(Hyperparams())
    delta = double_q_update(model, "s", "a", "s2", ["a", "b"], 0.8, _CoinRng([0.0]))
    assert delta == 0.8
    assert model.avg_reward == pytest.approx(0.008, abs=1e-15)
    assert model.qa["s"]["a"] == pytest.approx(0.024, abs=1e-15)
    assert model.qb == {}


def test_update_targets_companion_table():
    model = QModel(Hyperparams())
    model.qb["s2"] = {"b": 1.0}
    model.qa["s2"] = {"b": -5.0}  # must be ignored when qa is updated
    delta = double_q_update(model, "s", "a", "s2", ["a", "b"], 0.5, _CoinRng([0.0]))
    assert delta == pytest.approx(0.5 + 1.0, abs=1e-15)
    # Coin >= 0.5 updates qb and bootstraps from qa, whose best entry is 0.
    avg_before = model.avg_reward
    qb_before = model.qb.get("s", {}).get("a", 0.0)
    delta_b = double_q_update(model, "s", "a", "s2", ["a", "b"], 0.5, _CoinRng([0.9]))
    assert delta_b == pytest.approx(0.5 - avg_before + 0.0 - qb_before, abs=1e-15)


def test_update_restricts_bootstrap_to_given_actions():
    model = QModel(Hyperparams())
    model.qb["s2"] = {"big": 9.0}
    delta = double_q_update(model, "s", "a", "s2", ["small"], 0.0, _CoinRng([0.0]))
    assert delta == 0.0  # the 9.0 entry is outside the admissible set


def test_zero_delta_changes_nothing():
    model = QModel(Hyperparams())
    delta = double_q_update(model, "s", "a", "s2", ["a"], 0.0, _CoinRng([0.0]))
    assert delta == 0.0
    assert model.avg_reward == 0.0
    assert model.qa == {} and model.qb == {}  # no row is created without a write


def test_update_requires_bootstrap_candidates():
    with pytest.raises(ValueError):
        double_q_update(QModel(Hyperparams()), "s", "a", "s2", [], 0.1, _CoinRng([0.0]))


def test_average_reward_converges_on_two_state_mdp():
    # Stay in state 1 for 0.8/step; the oracle confirms that is optimal.
    transitions = {
        0: {"stay": (0, 0.2), "move": (1, 0.1)},
        1: {"stay": (1, 0.8), "move": (0, 0.3)},
    }
    rho_star, _ = optimal_average_reward(transitions)
    assert rho_star == pytest.approx(0.8, abs=1e-9)

    hyper = Hyperparams(alpha=0.1, beta=0.01)
    model = QModel(hyper)
    rng = random.Random(12)
    state = 0
    for _ in range(100_000):
        actions = list(transitions[state])
        if rng.random() < 0.3:
            action = actions[rng.randrange(len(actions))]
        else:
            action = _argmax_q(model, state, actions)
        nxt, reward = transitions[state][action]
        double_q_update(model, state, action, nxt, list(transitions[nxt]), reward, rng)
        state = nxt
    assert abs(model.avg_reward - rho_star) <= 1e-2


def test_oracle_prefers_best_cycle():
    # Optimal behaviour is the 0.9/0.1 loop (average 0.5), not parking at 0.4.
    transitions = {
        0: {"go": (1, 0.9)},
        1: {"back": (0, 0.1), "stay": (1, 0.4)},
    }
    rho, _ = optimal_average_reward(transitions)
    assert rho == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# Policy sampling

def admissible_at_start(env_cfg, epsilon):
    return admissible_from(score_actions(EVAL_START, env_cfg), epsilon)


def test_fresh_model_picks_first_admissible(env_cfg):
    policy = ModelPolicy(QModel(Hyperparams()))
    admitted = admissible_at_start(env_cfg, 0.1)
    assert policy.choose(EVAL_START, admitted) == admitted[0].action


def test_constant_q_shift_leaves_choice_unchanged(env_cfg):
    model = QModel(Hyperparams())
    policy = ModelPolicy(model)
    rng = random.Random(4)
    key = levelise(EVAL_START, model.hyper.levels)
    admitted = admissible_at_start(env_cfg, 0.1)
    row_a = model.qa[key] = {}
    row_b = model.qb[key] = {}
    for sa in admitted:
        row_a[sa.action] = rng.uniform(-1, 1)
        row_b[sa.action] = rng.uniform(-1, 1)
    before = policy.choose(EVAL_START, admitted)
    assert before != admitted[0].action  # the rows are read, not defaulted to 0
    for sa in admitted:
        row_a[sa.action] += 3.7
    assert policy.choose(EVAL_START, admitted) == before


def test_epsilon_zero_restricts_to_argmax(env_cfg):
    admitted = admissible_at_start(env_cfg, 0.0)
    chosen = ModelPolicy(QModel(Hyperparams())).choose(EVAL_START, admitted)
    assert chosen in [sa.action for sa in admitted]


# ---------------------------------------------------------------------------
# Lagrange machinery

def test_lagrange_update_examples():
    assert lagrange_update(LagrangeState(0.0, 0.0, 0.0), 0, 0.0003) == (LagrangeState(), False)
    lag = LagrangeState(0.5, reward_estimate=0.8, violation_estimate=0.05)
    nxt, clamped = lagrange_update(lag, 100, 0.0003)
    assert nxt.lam == pytest.approx(0.53, abs=1e-12) and not clamped
    lag = LagrangeState(15.99, reward_estimate=0.8, violation_estimate=0.05)
    nxt, clamped = lagrange_update(lag, 200, 0.0003)
    assert nxt.lam == pytest.approx(16.0, abs=1e-12) and clamped


def test_lagrange_update_skips_clamp_without_violation_stats():
    lag = LagrangeState(5.0, reward_estimate=0.0, violation_estimate=0.0)
    nxt, clamped = lagrange_update(lag, 1000, 0.01)
    assert nxt.lam == pytest.approx(15.0) and not clamped


def test_lagrange_update_leaves_estimates_alone():
    lag = LagrangeState(0.1, reward_estimate=0.9, violation_estimate=0.2)
    nxt, _ = lagrange_update(lag, 7, 0.001)
    assert (nxt.reward_estimate, nxt.violation_estimate) == (0.9, 0.2)
    with pytest.raises(ValueError):
        lagrange_update(lag, -1, 0.001)


def test_shaped_return_is_zero_at_the_projection_bound():
    # A path hitting exactly the expected violation ratio under lam = R/V
    # nets a shaped average of zero; fewer violations net a positive one.
    r_hat, v_hat, length = 0.8, 0.05, 200
    lam = r_hat / v_hat
    violations = int(v_hat * length)
    shaped = r_hat * length - lam * violations
    assert shaped / length == pytest.approx(0.0, abs=1e-12)
    better = r_hat * length - lam * (violations - 1)
    worse = r_hat * length - lam * (violations + 1)
    assert better / length > 0.0 > worse / length


# ---------------------------------------------------------------------------
# Training loops

@pytest.fixture(scope="module")
def fast_env(quick_env):
    return quick_env


def test_training_is_seed_deterministic(fast_env):
    a = train_eadql(fast_env, tiny_hyper(), seed=5)
    b = train_eadql(fast_env, tiny_hyper(), seed=5)
    assert a.qa == b.qa and a.qb == b.qb
    assert a.avg_reward == b.avg_reward
    c = train_eadql(fast_env, tiny_hyper(), seed=6)
    assert c.qa != a.qa


def test_zero_episodes_returns_fresh_model(fast_env):
    model = train_eadql(fast_env, tiny_hyper(episodes=0), seed=1)
    assert model.qa == {} and model.qb == {} and model.avg_reward == 0.0


def test_exploration_decays_linearly(fast_env):
    seen = []
    train_eadql(fast_env, tiny_hyper(episodes=10, p0=0.5), seed=2, on_episode=seen.append)
    assert [round(s.exploration, 10) for s in seen] == [
        round(0.5 * (1 - o / 10), 10) for o in range(10)
    ]


def test_greedy_actions_stay_admissible(fast_env):
    hyper = tiny_hyper(episodes=6)

    def check(o, state, scored, admissible, action, explored):
        if not explored:
            assert action in [sa.action for sa in admissible]

    train_eadql(fast_env, hyper, seed=9, step_hook=check)


def test_epsilon_one_training_admits_full_action_set(fast_env):
    hyper = tiny_hyper(episodes=6, epsilon=1.0)
    checked = []

    def check(o, state, scored, admissible, action, explored):
        assert len(admissible) == len(scored)
        checked.append(1)

    model = train_eadql(fast_env, hyper, seed=9, step_hook=check)
    assert checked and model.kind == "adql"


def test_constrained_with_tau_zero_matches_unconstrained(fast_env):
    hyper = tiny_hyper(episodes=8, tau=0.0)
    plain = train_eadql(fast_env, hyper, seed=3)
    constrained = train_ecadql(fast_env, hyper, seed=3)
    assert constrained.qa == plain.qa and constrained.qb == plain.qb
    assert constrained.avg_reward == plain.avg_reward
    assert constrained.kind == "ecadql"
    assert constrained.lagrange is not None and constrained.lagrange.lam == 0.0


def test_zero_lambda_keeps_raw_rewards_on_first_episode(fast_env):
    # Violations occur from the start, but shaping begins only once lambda
    # grows after the first completed episode.
    hyper = tiny_hyper(episodes=1, tau=0.85)
    plain = train_eadql(fast_env, hyper, seed=11)
    constrained = train_ecadql(fast_env, hyper, seed=11)
    assert constrained.qa == plain.qa and constrained.qb == plain.qb
    assert constrained.lagrange.lam > 0.0  # violations were counted


def test_constrained_training_tracks_lagrange_history(fast_env):
    stats = []
    hyper = tiny_hyper(episodes=12, tau=0.85)
    model = train_ecadql(fast_env, hyper, seed=21, on_episode=stats.append)
    assert any(s.violations > 0 for s in stats)
    for s in stats:
        if s.violation_estimate > 0:
            assert s.lam <= s.reward_estimate / s.violation_estimate + 1e-12
    # lambda never decreases while the clamp is inactive
    prev = 0.0
    for s in stats:
        if not s.clamped:
            assert s.lam >= prev - 1e-15
        prev = s.lam
    assert model.lagrange.lam == stats[-1].lam


# ---------------------------------------------------------------------------
# Persistence

def test_model_roundtrip(fast_env, tmp_path):
    model = train_ecadql(fast_env, tiny_hyper(episodes=8, tau=0.85), seed=13)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.qa == model.qa
    assert loaded.qb == model.qb
    assert loaded.avg_reward == model.avg_reward
    assert loaded.hyper == model.hyper
    assert loaded.lagrange == model.lagrange
    assert loaded.kind == model.kind


def test_version_1_model_file_still_loads(fast_env, tmp_path):
    model = train_ecadql(fast_env, tiny_hyper(episodes=8, tau=0.85), seed=13)
    write_v1_model(model, tmp_path / "v1.json")
    loaded = load_model(tmp_path / "v1.json")
    assert loaded.qa == model.qa
    assert loaded.qb == model.qb
    assert loaded.avg_reward == model.avg_reward
    assert loaded.hyper == model.hyper
    assert loaded.lagrange == model.lagrange
    assert loaded.kind == model.kind
    save_model(loaded, tmp_path / "v2.json")
    assert json.loads((tmp_path / "v2.json").read_text())["version"] == 2
    resaved = load_model(tmp_path / "v2.json")
    assert resaved.qa == model.qa
    assert resaved.qb == model.qb


def test_model_file_is_deterministic(fast_env, tmp_path):
    model = train_eadql(fast_env, tiny_hyper(episodes=5), seed=2)
    save_model(model, tmp_path / "a.json")
    save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_serialised_key_format():
    key = LevelisedState((0, 3, 2, 2), -1, 60000)
    assert _encode_state_key(key) == "0,3,2,2|-1|60000"
    assert _encode_action(Action(1, 30000)) == "1,30000"


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(path)
