import json
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiflow import (
    Action,
    ConfigurationError,
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
from equiflow import qlearn
from equiflow.config import default_env_config
from equiflow.qlearn import _argmax_q, _table_text

from helpers import (optimal_average_reward, random_walk_states, reference_levelise,
                     reference_model_text, write_v1_model)

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


@pytest.mark.parametrize("build", [
    lambda: LevelParams(hidden=5.0),
    lambda: LevelParams(hidden=True),
    lambda: Hyperparams(episodes=2.5),
    lambda: Hyperparams(episodes=True),
], ids=["hidden-float", "hidden-bool", "episodes-float", "episodes-bool"])
def test_int_fields_reject_floats_and_bools(build):
    # A float band count would reach the model file as '6.0' bands, which load_model rejects.
    with pytest.raises(ValueError, match="must be an int"):
        build()


SUBNORMALS = (5e-324, 2.225073858507201e-308)
LEVEL_CAP = default_env_config()._level_cap


@st.composite
def levelise_cases(draw):
    """Random band bounds with 1-20 hidden bands, and 1-12 levels, each at 0, a
    band edge (red, green, red + k*width), one ulp either side of one,
    subnormal, at the level cap, or anywhere below it."""
    low = draw(st.floats(1e-6, 1e6))
    params = LevelParams(low, low + draw(st.floats(1e-6, 1e6)), draw(st.integers(1, 20)))
    red, green = params.red_bound, params.green_bound
    width = (green - red) / params.hidden
    edge = st.sampled_from([red, green, *(red + k * width for k in range(1, params.hidden))])
    level = (st.sampled_from((0.0, *SUBNORMALS, LEVEL_CAP)) | edge
             | edge.map(lambda x: math.nextafter(x, 0.0)) | edge.map(lambda x: math.nextafter(x, math.inf))
             | st.floats(0.0, LEVEL_CAP))
    levels = tuple(draw(st.lists(level, min_size=1, max_size=12)))
    return params, WorldState(levels, draw(st.integers(-1, 11)), 15000 * draw(st.integers(0, 4)), 0)


# At its green bound, (green - red) / width rounds above ``hidden`` and the
# band is held to ``hidden``; a subnormal level divides to 0 and is held to 1.
CLAMPED = LevelParams(100.0, 1100.0, 11)


@settings(max_examples=300, deadline=None)
@given(levelise_cases())
@example((CLAMPED, WorldState((CLAMPED.green_bound, 5e-324), -1, 0, 0)))
def test_compiled_levelise_equals_the_reference_loop(case):
    params, state = case
    key = levelise(state, params)
    assert type(key) is LevelisedState
    assert tuple(key) == reference_levelise(state, params)
    assert all(type(b) is int for b in key.levels)


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


def test_training_episode_that_never_delivers_stops_at_the_cap(env_cfg, monkeypatch):
    # On the reference map a zero-litre move is always legal: between the
    # villages 0 and 1 while loaded, and to the source when empty.  A greedy
    # pick that always takes one never finishes the one-quantum budget.
    config = replace(env_cfg, total_to_distribute=env_cfg.delivery_quantum)
    monkeypatch.setattr(
        qlearn, "_argmax_q", lambda model, key, actions: next(a for a in actions if a.dispense == 0)
    )
    steps = []
    with pytest.raises(RuntimeError, match="training episode 0 exceeded 1000 steps"):
        train_eadql(config, tiny_hyper(episodes=1, p0=0.0, epsilon=1.0), seed=4,
                    step_hook=lambda *args: steps.append(args[-2]))
    assert len(steps) == 1000
    assert all(action.dispense == 0 for action in steps)


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
    assert _table_text("qa", {key: {Action(1, 30000): 0.5}}) == '{"0,3,2,2|-1|60000":{"1,30000":0.5}}'


# Values that json.dumps and float.__repr__ must write alike: signed zero, the
# smallest subnormal, the float extremes and a value with no short binary form.
Q_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1e16]),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def q_tables(draw):
    """Tables of 1-4 villages with multi-digit bands, negative positions and
    loads of several digit lengths, so that keys sort differently as strings
    and as numbers."""
    n = draw(st.integers(1, 4))
    keys = st.builds(LevelisedState, st.tuples(*[st.integers(0, 20)] * n), st.integers(-1, 12),
                     st.sampled_from([0, 5, 15, 150, 15000, 150000]))
    actions = st.builds(Action, st.integers(-1, 12), st.sampled_from([0, 1, 15, 150, 15000, 150000]))
    return draw(st.dictionaries(keys, st.dictionaries(actions, Q_VALUES, min_size=1, max_size=6),
                                max_size=8))


@settings(max_examples=200, deadline=None)
@given(qa=q_tables(), qb=q_tables(), avg_reward=Q_VALUES, lagrange=st.booleans())
def test_model_file_equals_the_json_dumps_layout_byte_for_byte(tmp_path_factory, qa, qb,
                                                               avg_reward, lagrange):
    model = QModel(Hyperparams(), kind="ecadql" if lagrange else "eadql")
    model.qa, model.qb, model.avg_reward = qa, qb, avg_reward
    model.lagrange = LagrangeState(0.25, avg_reward, 0.1) if lagrange else None
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == reference_model_text(model)
    loaded = load_model(path)
    assert (loaded.qa, loaded.qb, loaded.avg_reward) == (qa, qb, avg_reward)


@pytest.mark.parametrize("where,value,message", [
    ("qa", math.inf, "qa: state '1,2,3,4|0|0': action '1,0': cannot write the non-finite value inf"),
    ("qb", -math.inf, "qb: state '1,2,3,4|0|0': action '1,0': cannot write the non-finite value -inf"),
    ("qa", math.nan, "qa: state '1,2,3,4|0|0': action '1,0': cannot write the non-finite value nan"),
    ("avg_reward", math.inf, "not JSON compliant"),
    ("reward_estimate", math.nan, "not JSON compliant"),
    ("violation_estimate", -math.inf, "not JSON compliant"),
])
def test_save_model_refuses_a_non_finite_number(tmp_path, where, value, message):
    # load_model would refuse the file ("expected a finite number"), so writing it fails.
    model = QModel(Hyperparams(), kind="ecadql")
    model.lagrange = LagrangeState()
    key = LevelisedState((1, 2, 3, 4), 0, 0)
    model.qa[key] = {Action(1, 0): 0.5}
    model.qb[key] = {Action(1, 0): 0.25}
    if where in ("qa", "qb"):
        getattr(model, where)[key][Action(1, 0)] = value
    elif where == "avg_reward":
        model.avg_reward = value
    else:
        model.lagrange = replace(model.lagrange, **{where: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def reference_argmax(qa, qb, key, actions):
    """The first action whose qa+qb value beats every earlier one, each missing entry 0.0."""
    row_a, row_b = qa.get(key, {}), qb.get(key, {})
    best, best_value = actions[0], row_a.get(actions[0], 0.0) + row_b.get(actions[0], 0.0)
    for a in actions[1:]:
        v = row_a.get(a, 0.0) + row_b.get(a, 0.0)
        if v > best_value:
            best, best_value = a, v
    return best


def reference_update(model, key, action, next_key, next_actions, reward, rng):
    """double_q_update as a plain loop over the selector row, each missing entry 0.0."""
    q_upd, q_sel = (model.qa, model.qb) if rng.random() < 0.5 else (model.qb, model.qa)
    next_row = q_sel.get(next_key, {})
    best = -math.inf
    for a in next_actions:
        v = next_row.get(a, 0.0)
        if v > best:
            best = v
    current = q_upd.get(key, {}).get(action, 0.0)
    delta = reward - model.avg_reward + best - current
    if delta != 0.0:
        model.avg_reward += model.hyper.beta * delta
        q_upd.setdefault(key, {})[action] = current + model.hyper.alpha * delta
    return delta


SMALL_KEYS = [LevelisedState((b,), 0, 0) for b in range(3)]
SMALL_ACTIONS = [Action(d, q) for d in range(2) for q in (0, 15000)]
SMALL_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, -2.0, 3.0])


@st.composite
def small_models(draw):
    """Two small Q-tables over three keys, where a key's row may be missing from
    neither, one or both; rows are never empty, as training leaves them."""
    rows = st.dictionaries(st.sampled_from(SMALL_ACTIONS), SMALL_VALUES, min_size=1)
    return [draw(st.dictionaries(st.sampled_from(SMALL_KEYS), rows, max_size=3)) for _ in range(2)]


def hexed(table):
    return {key: {a: v.hex() for a, v in row.items()} for key, row in table.items()}


@settings(max_examples=300, deadline=None)
@given(tables=small_models(), key=st.sampled_from(SMALL_KEYS),
       actions=st.lists(st.sampled_from(SMALL_ACTIONS), min_size=1, max_size=4, unique=True))
def test_argmax_fast_paths_equal_the_first_max_loop(tables, key, actions):
    model = QModel(Hyperparams())
    model.qa, model.qb = tables
    assert _argmax_q(model, key, actions) == reference_argmax(*tables, key, actions)


@settings(max_examples=300, deadline=None)
@given(tables=small_models(), key=st.sampled_from(SMALL_KEYS), next_key=st.sampled_from(SMALL_KEYS),
       action=st.sampled_from(SMALL_ACTIONS), reward=SMALL_VALUES, seed=st.integers(0, 2**32),
       next_actions=st.lists(st.sampled_from(SMALL_ACTIONS), min_size=1, max_size=4, unique=True))
def test_double_q_update_fast_path_equals_the_loop(tables, key, next_key, action, reward, seed,
                                                   next_actions):
    fast, slow = QModel(Hyperparams()), QModel(Hyperparams())
    for model in (fast, slow):
        model.qa, model.qb = ({k: dict(row) for k, row in table.items()} for table in tables)
        model.avg_reward = 0.125
    delta = double_q_update(fast, key, action, next_key, next_actions, reward, random.Random(seed))
    expected = reference_update(slow, key, action, next_key, next_actions, reward, random.Random(seed))
    assert delta.hex() == expected.hex()
    assert fast.avg_reward.hex() == slow.avg_reward.hex()
    assert (hexed(fast.qa), hexed(fast.qb)) == (hexed(slow.qa), hexed(slow.qb))


def non_canonical_files(path):
    """Model files whose keys are not the text ``save_model`` writes, each with the
    key that must be named.  The decoded keys would merge with a canonical row or
    read another band or number."""
    model = QModel(Hyperparams())
    model.qa = {LevelisedState((0, 2, 1, 1), -1, 60000): {Action(1, 0): 0.5, Action(1, 15000): 0.25}}
    save_model(model, path)
    text = path.read_text()
    yield text.replace('"qb":{}', '"qb":{"00,2,1,1|-1|60000":{"1,0":0.125}}'), "'00,2,1,1|-1|60000'"
    yield text.replace('"qa":{"0,2,1,1', '"qa":{"0,2,1,1|-1|60000":{},"1_0,2,1,1'), "'1_0,2,1,1|-1|60000'"
    yield text.replace('"1,15000"', '"1,+15000"'), "'1,+15000'"
    yield text.replace('"1,15000"', '"1, 15000"'), "'1, 15000'"
    yield text.replace('|-1|', '|-01|'), "'0,2,1,1|-01|60000'"
    write_v1_model(model, path)
    doc = json.loads(path.read_text())
    doc["qa"].append(list(doc["qa"][0]))  # a second row for one (state, action)
    yield json.dumps(doc), "'0,2,1,1|-1|60000': action '1,0' has two rows"


def test_load_refuses_non_canonical_keys_and_duplicate_rows(tmp_path):
    path = tmp_path / "model.json"
    for text, named in list(non_canonical_files(path)):
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            load_model(path)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(path)
