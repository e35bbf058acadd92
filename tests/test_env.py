import math
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import (
    SOURCE,
    Action,
    ConfigurationError,
    EmptyActionSetError,
    EnvConfig,
    Episode,
    EpisodeFinishedError,
    IllegalActionError,
    InvalidStateError,
    LevelOverflowError,
    LocalPolicy,
    RandomReset,
    RoadNetwork,
    VillageSpec,
    WorldState,
    available_actions,
    predict_transition,
    run_episode,
    score_actions,
    train_ecadql,
)
import equiflow.env
import equiflow.qlearn
from equiflow.env import _rollout_successors, successors
from helpers import (consume, random_legal_action, random_walk_states, reference_equity,
                     reference_transition, road_graphs, successor_dict)

QUANTA = (0, 15000, 30000, 45000, 60000)


def state(levels, position=SOURCE, load=60000, distributed=0):
    return WorldState(tuple(float(x) for x in levels), position, load, distributed)


# ---------------------------------------------------------------------------
# available_actions

def test_from_source_full_truck_lists_all_quanta(env_cfg):
    acts = available_actions(state((0, 300, 200, 200)), env_cfg)
    v1 = [a for a in acts if a.destination == 1]
    assert v1 == [Action(1, d) for d in QUANTA]


def test_dead_end_forces_full_dispense(env_cfg):
    # Village 2 has no outgoing road to another village.
    acts = available_actions(state((0, 300, 200, 200), position=1, load=30000), env_cfg)
    v2 = [a for a in acts if a.destination == 2]
    assert v2 == [Action(2, 30000)]


def test_loaded_truck_cannot_return_to_source(env_cfg):
    acts = available_actions(state((0, 300, 200, 200), position=3, load=30000), env_cfg)
    assert all(a.destination != SOURCE for a in acts)


def test_empty_truck_may_refill(env_cfg):
    acts = available_actions(state((0, 300, 200, 200), position=3, load=0), env_cfg)
    assert Action(SOURCE, 0) in acts


def test_actions_sorted_by_destination_then_dispense(env_cfg):
    for pos, load in [(SOURCE, 60000), (1, 60000), (1, 0), (3, 15000)]:
        acts = available_actions(state((0, 300, 200, 200), position=pos, load=load), env_cfg)
        assert list(acts) == sorted(acts)


def test_dead_end_with_empty_truck_offers_zero_dispense(env_cfg):
    acts = available_actions(state((0, 300, 200, 200), position=1, load=0), env_cfg)
    assert Action(2, 0) in acts


def test_unknown_position_raises(env_cfg):
    with pytest.raises(InvalidStateError):
        available_actions(state((0, 300, 200, 200), position=9), env_cfg)


def test_bad_load_raises(env_cfg):
    with pytest.raises(InvalidStateError):
        available_actions(state((0, 300, 200, 200), load=7000), env_cfg)


@pytest.mark.parametrize(
    "field,value",
    [("distributed_total", math.nan), ("distributed_total", -10**9), ("distributed_total", 2.5),
     ("distributed_total", True), ("position", 1.0), ("position", True), ("load", 60000.0),
     ("load", True)],
    ids=["nan", "negative", "float", "bool", "position-float", "position-bool", "load-float",
         "load-bool"],
)
def test_bad_distributed_total_is_rejected_where_it_enters(env_cfg, field, value):
    # A float or bool equals an int as a set member and dict key, so only the type tells.
    bad = state((0, 300, 200, 200))._replace(**{field: value})
    with pytest.raises(InvalidStateError, match=field):
        Episode(env_cfg).reset_to(bad)
    with pytest.raises(InvalidStateError, match=field):
        run_episode(LocalPolicy(), env_cfg, bad, 0.1, 0.7)


def test_stranded_truck_is_a_configuration_error():
    # A fixed start that parks a loaded truck on a village whose only road
    # leads to the source: unreachable in normal play, flagged loudly.
    villages = (
        VillageSpec(0, 10, 1.0, 2.0, 100.0),
        VillageSpec(1, 10, 1.0, 2.0, 100.0),
    )
    network = RoadNetwork.from_edges(
        [(SOURCE, 0), (0, 1), (1, SOURCE), (0, SOURCE)], [0, 1]
    )
    cfg = EnvConfig(villages=villages, network=network, capacity=30000,
                    delivery_quantum=15000, total_to_distribute=60000)
    stranded = WorldState((50.0, 50.0), 1, 15000, 0)
    with pytest.raises(EmptyActionSetError):
        available_actions(stranded, cfg)


# ---------------------------------------------------------------------------
# consumption

@pytest.mark.parametrize(
    "village_id,level,expected",
    [
        (0, 200.0, 196.0),  # scarcity rate 4
        (0, 400.0, 300.0),  # above 350: rate 100
        (0, 0.0, 0.0),  # clamped at zero
        (3, 100.0, 96.5),  # boundary: high rate only strictly above threshold
        (1, 250.0, 246.5),
        (1, 250.5, 241.5),
    ],
)
def test_consume_rates(env_cfg, village_id, level, expected):
    levels = [0.0] * env_cfg.n_villages
    levels[village_id] = level
    consumed, _, _ = env_cfg._kernel()(tuple(levels))
    assert consumed[village_id] == pytest.approx(expected, abs=1e-12)


def star_config(villages):
    """Every village on its own road to and from the source."""
    n = len(villages)
    edges = [e for v in range(n) for e in ((SOURCE, v), (v, SOURCE))]
    return EnvConfig(villages=tuple(villages), network=RoadNetwork.from_edges(edges, range(n)))


def consume_each(levels, config):
    return tuple(consume(x, v.base_rate, v.high_rate, v.threshold)
                 for x, v in zip(levels, config.villages))


def hexes(values):
    return [x.hex() for x in values]


SUBNORMALS = (5e-324, 2.225073858507201e-308)


def edge_levels(draw, villages, offset=lambda v: 0.0):
    """Per village: 0, a threshold or a rate (less ``offset``), one ulp either
    side of one, subnormal, or anywhere up to 1e6; or all 0.0."""
    if draw(st.integers(0, 9)) == 0:
        return (0.0,) * len(villages)
    levels = []
    for v in villages:
        edge = max(0.0, draw(st.sampled_from((v.threshold, v.base_rate, v.high_rate))) - offset(v))
        levels.append(draw(
            st.sampled_from((0.0, edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                             *SUBNORMALS))
            | st.floats(0.0, 1e6)
        ))
    return tuple(levels)


@st.composite
def village_lists(draw):
    """1-12 villages with rates at zero, subnormal or up to 1e3."""
    rates = st.floats(0.0, 1e3) | st.sampled_from(SUBNORMALS)
    return [
        VillageSpec(i, draw(st.integers(1, 5000)), draw(rates), draw(rates),
                    draw(st.floats(0.0, 1e6)))
        for i in range(draw(st.integers(1, 12)))
    ]


@st.composite
def villages_and_levels(draw):
    villages = draw(village_lists())
    return villages, edge_levels(draw, villages)


@settings(max_examples=300, deadline=None)
@given(villages_and_levels())
def test_base_expansion_is_bit_equal_to_consume_and_the_scorer(world):
    villages, levels = world
    config = star_config(villages)
    consumed, terms, score = config._kernel()(levels)
    assert type(consumed) is tuple
    assert hexes(consumed) == hexes(consume_each(levels, config))
    assert score.hex() == reference_equity(consumed, config.populations).hex()


@st.composite
def kernel_states(draw):
    """A state of a 1-12-village world where every village has a road to every
    other node, so that every village takes every quantum of a load.  Levels
    come from ``edge_levels``, some one quantum per inhabitant below an edge."""
    villages = draw(village_lists())
    n = len(villages)
    nodes = range(SOURCE, n)
    quantum = draw(st.integers(1, 20_000))
    config = EnvConfig(
        villages=tuple(villages),
        network=RoadNetwork.from_edges([(a, b) for a in nodes for b in nodes if a != b], range(n)),
        capacity=quantum * draw(st.integers(1, 4)),
        delivery_quantum=quantum,
    )
    below = draw(st.booleans())
    levels = edge_levels(draw, villages, lambda v: quantum / v.population if below else 0.0)
    load = quantum * draw(st.integers(0, config.capacity // quantum))
    # A lone village is a dead end: a truck there must be empty.
    position = draw(st.sampled_from(nodes)) if n > 1 or load == 0 else SOURCE
    return config, WorldState(levels, position, load, 0)


@settings(max_examples=200, deadline=None)
@given(kernel_states())
def test_successor_table_is_bit_equal_to_reference_equity(world):
    config, s = world
    table = successor_dict(s, config)
    assert list(table) == list(available_actions(s, config))
    for action, (levels, score) in table.items():
        expected = reference_transition(s, action, config).levels
        assert hexes(levels) == hexes(expected)
        assert score.hex() == reference_equity(expected, config.populations).hex()


def test_base_expansion_and_a_lift_build_for_200_villages_in_under_a_second():
    rng = random.Random(5)
    config = star_config([
        VillageSpec(i, rng.randint(1, 5000), rng.uniform(0.0, 10.0), rng.uniform(0.0, 100.0),
                    rng.uniform(0.0, 600.0))
        for i in range(200)
    ])
    start = time.process_time()
    expand = config._kernel()
    assert time.process_time() - start < 1.0
    start = time.process_time()
    lift = config._kernel(117)
    assert time.process_time() - start < 1.0
    levels = tuple(rng.uniform(0.0, 700.0) for _ in range(200))
    consumed, terms, score = expand(levels)
    assert consumed == consume_each(levels, config)
    assert score == reference_equity(consumed, config.populations)
    entries = []
    for dispense in (15000, 30000, 45000):
        lifted = list(levels)
        lifted[117] += dispense / config.populations[117]
        expected = consume_each(lifted, config)
        entries.append((expected, reference_equity(expected, config.populations)))
    assert lift(levels, (15000, 30000, 45000), consumed, terms) == entries


def test_star_map_of_200_villages_validates_in_under_0_2_s():
    edges = [e for v in range(200) for e in ((SOURCE, v), (v, SOURCE))]
    start = time.process_time()
    RoadNetwork.from_edges(edges, range(200))
    assert time.process_time() - start < 0.2


# ---------------------------------------------------------------------------
# predict_transition

def test_transition_two_phase_hand_trace(env_cfg):
    # Deliver 30000 to village 1 (population 260) from the evaluation start:
    # move+dispense lifts it to 300 + 30000/260, then every village consumes.
    s = state((0, 300, 200, 200))
    nxt = predict_transition(s, Action(1, 30000), env_cfg)
    lifted = 300.0 + 30000 / 260
    assert lifted == pytest.approx(415.3846153846154, abs=1e-12)
    assert nxt.levels[1] == lifted - 9.0  # above 250 -> high rate
    assert nxt.levels[0] == 0.0
    assert nxt.levels[2] == 196.5
    assert nxt.levels[3] == 184.0
    assert nxt.position == 1
    assert nxt.load == 30000
    assert nxt.distributed_total == 30000


def test_refill_sets_full_capacity(env_cfg):
    s = state((0, 300, 200, 200), position=3, load=0)
    nxt = predict_transition(s, Action(SOURCE, 0), env_cfg)
    assert nxt.load == 60000
    assert nxt.distributed_total == 0


def test_zero_dispense_still_consumes(env_cfg):
    s = state((0, 300, 200, 200))
    nxt = predict_transition(s, Action(1, 0), env_cfg)
    assert nxt.levels == (0.0, 291.0, 196.5, 184.0)
    assert nxt.load == 60000


def test_illegal_action_raises(env_cfg):
    s = state((0, 300, 200, 200))
    with pytest.raises(IllegalActionError):
        predict_transition(s, Action(2, 15000), env_cfg)  # no edge source->2
    with pytest.raises(IllegalActionError):
        predict_transition(s, Action(SOURCE, 0), env_cfg)  # loaded truck


@pytest.mark.parametrize("action", [
    Action(1, 15000.0), Action(1.0, 15000), Action(True, 15000), Action(1, False),
])
def test_action_fields_must_be_ints(env_cfg, action):
    # Each is equal to a legal action, whose fields would go into the state.
    s = state((0, 300, 200, 200))
    assert action in available_actions(s, env_cfg)
    with pytest.raises(IllegalActionError, match="int"):
        predict_transition(s, action, env_cfg)
    ep = Episode(env_cfg)
    ep.reset_to(s)
    with pytest.raises(IllegalActionError, match="int"):
        ep.step(action)
    assert ep.state is s


def test_transition_is_pure(env_cfg):
    s = state((0, 300, 200, 200))
    predict_transition(s, Action(1, 15000), env_cfg)
    assert s == state((0, 300, 200, 200))


# ---------------------------------------------------------------------------
# Episode: step and reset

def test_step_matches_predict_transition_bit_exactly(env_cfg):
    rng = random.Random(17)
    ep = Episode(env_cfg, rng=rng)
    s = ep.reset()
    for _ in range(200):
        if ep.done:
            s = ep.reset()
        a = random_legal_action(s, env_cfg, rng)
        expected = reference_transition(s, a, env_cfg)
        assert predict_transition(s, a, env_cfg) == expected
        out = ep.step(a)
        assert out.next_state == expected
        assert out.reward == env_cfg.equity_of(expected.levels)
        s = out.next_state


def test_step_reward_is_bounded_and_done_on_budget(env_cfg):
    cfg = replace(env_cfg, total_to_distribute=30000)
    ep = Episode(cfg)
    ep.reset_to(state((0, 300, 200, 200)))
    out = ep.step(Action(1, 30000))
    assert 0.0 <= out.reward <= 1.0
    assert out.done
    with pytest.raises(EpisodeFinishedError):
        ep.step(Action(1, 0))


def test_random_reset_is_seed_deterministic(env_cfg):
    a = Episode(env_cfg, seed=99).reset()
    b = Episode(env_cfg, seed=99).reset()
    assert a == b


def test_random_reset_levels_within_bounds(env_cfg):
    ep = Episode(env_cfg, seed=5)
    for _ in range(10000 // env_cfg.n_villages):
        s = ep.reset()
        assert s.position == SOURCE
        assert s.load == env_cfg.capacity
        assert s.distributed_total == 0
        assert all(0.0 <= x <= 600.0 for x in s.levels)


# ---------------------------------------------------------------------------
# Trajectory-level invariants

def test_random_walk_invariants(env_cfg):
    cfg = replace(env_cfg, total_to_distribute=300_000)
    rng = random.Random(23)
    ep = Episode(cfg, rng=rng)
    s = ep.reset()
    for _ in range(2000):
        if ep.done:
            s = ep.reset()
        a = random_legal_action(s, cfg, rng)
        before = s
        s = ep.step(a).next_state
        # Conservation: the load drop equals the delivered per-person lift.
        if a.destination != SOURCE:
            assert before.load - s.load == a.dispense
            pop = cfg.villages[a.destination].population
            lifted = before.levels[a.destination] + (a.dispense / pop if a.dispense else 0.0)
            v = cfg.villages[a.destination]
            left = consume(lifted, v.base_rate, v.high_rate, v.threshold)
            assert s.levels[a.destination] == left
        else:
            assert s.load == cfg.capacity
        if a.destination != SOURCE and cfg.network.is_dead_end(a.destination):
            assert s.load == 0
        assert s.distributed_total == before.distributed_total + a.dispense
        assert all(x >= 0.0 for x in s.levels)
        assert 0 <= s.load <= cfg.capacity and s.load % cfg.delivery_quantum == 0


def test_full_trajectory_determinism(env_cfg):
    def rollout(seed):
        rng = random.Random(seed)
        ep = Episode(env_cfg, rng=rng)
        s = ep.reset()
        seen = []
        for _ in range(500):
            if ep.done:
                s = ep.reset()
            a = random_legal_action(s, env_cfg, rng)
            out = ep.step(a)
            seen.append((a, out.next_state, out.reward))
            s = out.next_state
        return seen

    assert rollout(321) == rollout(321)


def test_local_policy_liveness(env_cfg, experiment_cfg):
    # The greedy baseline must actually finish the evaluation scenario.
    from equiflow.config import evaluation_env, evaluation_initial

    env = replace(evaluation_env(experiment_cfg), total_to_distribute=600_000)
    traj, _ = run_episode(LocalPolicy(), env, evaluation_initial(experiment_cfg), 0.0, 0.7)
    assert traj.states[-1].distributed_total >= 600_000


# ---------------------------------------------------------------------------
# Config validation

def test_largest_population_scores_finitely():
    # Populations up to the bound are exact floats, and the pair weight 2**106 is finite.
    villages = (VillageSpec(0, 2**53, 1.0, 1.0, 1.0), VillageSpec(1, 2**53, 1.0, 1.0, 1.0))
    env = EnvConfig(villages=villages, network=RoadNetwork.from_edges(
        [(SOURCE, 0), (0, 1), (1, SOURCE)], [0, 1]), capacity=10, delivery_quantum=10,
        total_to_distribute=10, reset_mode=RandomReset(0.0, 1.0))
    assert env.equity_of((1.0, 3.0)) == 0.75


def test_config_validation_errors(env_cfg):
    with pytest.raises(ConfigurationError):
        replace(env_cfg, capacity=50000)  # not a quantum multiple
    with pytest.raises(ConfigurationError):
        replace(env_cfg, total_to_distribute=0)
    with pytest.raises(ConfigurationError):
        VillageSpec(0, 0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match=r"\[1, 2\*\*53\]"):
        VillageSpec(0, 2**53 + 1, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        RoadNetwork.from_edges([(SOURCE, 0), (0, 0), (0, SOURCE)], [0])
    with pytest.raises(ConfigurationError):
        # village 1 unreachable from the source
        RoadNetwork.from_edges([(SOURCE, 0), (0, SOURCE)], [0, 1])
    with pytest.raises(ConfigurationError):
        # source unreachable from every village
        RoadNetwork.from_edges([(SOURCE, 0), (SOURCE, 1), (0, 1), (1, 0)], [0, 1])
    with pytest.raises(ConfigurationError, match=r"\[2\]"):
        # village 2 has no road out at all
        RoadNetwork.from_edges(
            [(SOURCE, 0), (0, SOURCE), (0, 2), (SOURCE, 1), (1, SOURCE)], [0, 1, 2]
        )
    with pytest.raises(ConfigurationError, match=r"\[1, 2\]"):
        # villages 1 and 2 loop among themselves; an empty truck there never refills
        RoadNetwork.from_edges([(SOURCE, 0), (0, SOURCE), (0, 1), (1, 2), (2, 1)], [0, 1, 2])


def test_network_requires_matching_villages(env_cfg):
    network = RoadNetwork.from_edges([(SOURCE, 0), (0, SOURCE)], [0])
    with pytest.raises(ConfigurationError):
        EnvConfig(villages=env_cfg.villages, network=network)


# ---------------------------------------------------------------------------
# Successor kernel: one pass per state, memoised for the last state object

def assert_kernel_matches_reference(config, states):
    for s in states:
        table = successor_dict(s, config)
        assert list(table) == list(available_actions(s, config))
        for action, (levels, score) in table.items():
            expected = reference_transition(s, action, config)
            assert type(levels) is tuple
            # Bit-equal, not approximately equal.
            assert [x.hex() for x in levels] == [x.hex() for x in expected.levels]
            assert predict_transition(s, action, config) == expected
            assert score == config.equity_of(expected.levels)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_kernel_matches_reference_on_default_map(env_cfg, seed):
    assert_kernel_matches_reference(env_cfg, random_walk_states(env_cfg, seed, 200))


@st.composite
def random_worlds(draw):
    n, edges = draw(road_graphs())
    rates, thresholds = st.floats(0.0, 50.0), st.floats(0.0, 600.0)
    villages = tuple(
        VillageSpec(i, draw(st.integers(1, 5000)), draw(rates), draw(rates), draw(thresholds))
        for i in range(n)
    )
    quantum = draw(st.integers(1, 20_000))
    env = EnvConfig(
        villages=villages,
        network=RoadNetwork.from_edges(edges, range(n)),
        capacity=quantum * draw(st.integers(1, 6)),
        delivery_quantum=quantum,
        total_to_distribute=draw(st.integers(1, 10**6)),
        reset_mode=RandomReset(0.0, draw(st.floats(0.0, 1e4))),
    )
    return env, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(random_worlds())
def test_kernel_matches_reference_over_random_road_graphs(world):
    env, seed = world
    assert_kernel_matches_reference(env, random_walk_states(env, seed, 80))


def test_alternating_episodes_on_one_config_step_their_own_states(env_cfg):
    rng = random.Random(8)
    episodes = [Episode(env_cfg, seed=1), Episode(env_cfg, seed=2)]
    for ep in episodes:
        ep.reset()
    for _ in range(300):
        for ep in episodes:
            if ep.done:
                ep.reset()
        # Score both, so that each step finds the other episode's table memoised.
        for ep in episodes:
            score_actions(ep.state, env_cfg)
        for ep in episodes:
            s = ep.state
            a = random_legal_action(s, env_cfg, rng)
            expected = reference_transition(s, a, env_cfg)
            out = ep.step(a)
            assert out.next_state == expected
            assert out.reward == env_cfg.equity_of(expected.levels)


def test_step_after_scoring_another_state(env_cfg):
    ep = Episode(env_cfg)
    y = ep.reset_to(state((0, 300, 200, 200)))
    score_actions(state((100, 100, 100, 100)), env_cfg)  # same actions, other levels
    out = ep.step(Action(1, 30000))
    expected = reference_transition(y, Action(1, 30000), env_cfg)
    assert out.next_state == expected
    assert out.reward == env_cfg.equity_of(expected.levels)


def test_scored_list_belongs_to_the_caller(env_cfg):
    ep = Episode(env_cfg)
    s = ep.reset_to(state((0, 300, 200, 200)))
    scored = score_actions(s, env_cfg)
    original = list(scored)
    scored.sort(key=lambda sa: sa.successor_alignment)
    scored.clear()
    action = original[3].action
    assert action.dispense  # a lifted entry, not the shared zero-litre one
    out = ep.step(action)
    expected = reference_transition(s, action, env_cfg)
    assert out.next_state == expected
    assert out.reward == original[3].successor_alignment == env_cfg.equity_of(expected.levels)
    assert score_actions(s, env_cfg) == original


def test_equal_but_distinct_state_is_expanded_afresh(env_cfg):
    x = state((0, 300, 200, 200))
    twin = x._replace(levels=tuple(list(x.levels)))
    assert twin == x and twin.levels is not x.levels
    first = successors(x, env_cfg)
    second = successors(twin, env_cfg)
    assert second is not first  # keyed on the state object, not on equality
    assert second == first
    # A state freed before the next one is made usually leaves it its id.
    rng = random.Random(4)
    for _ in range(200):
        s = state([rng.uniform(0.0, 600.0) for _ in range(4)])
        expected = reference_transition(s, Action(1, 15000), env_cfg)
        assert predict_transition(s, Action(1, 15000), env_cfg) == expected
        del s


@settings(max_examples=150, deadline=None)
@given(kernel_states(), st.integers(1, 10**6))
def test_a_value_equal_twin_is_served_a_bit_equal_table(world, delivered):
    config, s = world
    # Equal as a cache key: -0.0 for 0.0, an int for an integral level, more delivered.
    twin = WorldState(tuple(-0.0 if x == 0.0 else int(x) if x.is_integer() else x for x in s.levels),
                      s.position, s.load, s.distributed_total + delivered)
    assert not _rollout_successors(WorldState(*s), config)  # its hash is recorded
    assert not _rollout_successors(WorldState(*s), config)  # its table is stored
    assert _rollout_successors(twin, config)
    assert not _rollout_successors(twin, config)  # memoised already: nothing to serve
    table = successor_dict(twin, config)
    assert config._cache.table is config._cache.stored[s[:3]]
    for action, (levels, score) in table.items():
        expected = reference_transition(twin, action, config)
        assert hexes(levels) == hexes(expected.levels)
        assert score.hex() == reference_equity(expected.levels, config.populations).hex()
        episode = Episode(config)
        episode.reset_to(twin)
        nxt, reward, _ = episode.step(action)
        assert nxt.distributed_total == twin.distributed_total + action.dispense
        assert hexes(nxt.levels) == hexes(expected.levels) and reward.hex() == score.hex()


def test_rollout_cache_holds_at_most_its_bound_plus_one_table(env_cfg, monkeypatch):
    monkeypatch.setattr(equiflow.env, "_ROLLOUT_VALUES", 600)
    monkeypatch.setattr(equiflow.env, "_ROLLOUT_HASHES", 50)
    config = replace(env_cfg)
    cache = config._cache
    largest, drops, held = 0, 0, 0
    for s in random_walk_states(config, 3, 400):
        largest = max(largest, len(available_actions(s, config)) * config.n_villages)
        for _ in range(3):
            _rollout_successors(WorldState(*s), config)
            drops += cache.held < held
            held = cache.held
            assert held == sum(len(scored) * config.n_villages for scored, _, _ in cache.stored.values())
            assert held <= 600 + largest
            assert len(cache.seen) <= 50
    assert drops > 0 and cache.stored


def test_training_never_builds_the_rollout_cache(experiment_cfg):
    config = replace(experiment_cfg.env)
    train_ecadql(config, replace(experiment_cfg.hyper, episodes=5), 7)
    cache = config._cache
    assert not cache.seen and not cache.stored and cache.held == 0
    # A first rollout records the hashes of its states, a second stores their tables.
    run_episode(LocalPolicy(), config, state((0, 300, 200, 200)), 0.1, 0.7)
    assert cache.seen
    run_episode(LocalPolicy(), config, state((0, 300, 200, 200)), 0.1, 0.7)
    assert cache.stored and cache.held > 0


def test_illegal_action_after_memo_hit_raises(env_cfg):
    ep = Episode(env_cfg)
    s = ep.reset_to(state((0, 300, 200, 200)))
    # The refill is legal for an empty truck at village 3, not for a full one.
    score_actions(state((0, 300, 200, 200), position=3, load=0), env_cfg)
    score_actions(s, env_cfg)
    predict_transition(s, Action(1, 0), env_cfg)  # served from the memo
    with pytest.raises(IllegalActionError):
        predict_transition(s, Action(2, 15000), env_cfg)
    with pytest.raises(IllegalActionError):
        ep.step(Action(SOURCE, 0))
    assert ep.state is s


def test_list_levels_are_rejected(env_cfg):
    bad = WorldState([0.0, 300.0, 200.0, 200.0], SOURCE, 60000, 0)
    with pytest.raises(InvalidStateError):
        available_actions(bad, env_cfg)
    with pytest.raises(InvalidStateError):
        score_actions(bad, env_cfg)
    with pytest.raises(InvalidStateError):
        predict_transition(bad, Action(1, 0), env_cfg)
    with pytest.raises(InvalidStateError):
        Episode(env_cfg).reset_to(bad)


def test_committed_state_skips_validation_but_its_user_built_twins_do_not(env_cfg):
    ep = Episode(env_cfg)
    ep.reset_to(state((0, 300, 200, 200)))
    produced = ep.step(Action(1, 30000)).next_state
    assert available_actions(produced, env_cfg)
    twins = [
        produced._replace(levels=list(produced.levels)),
        produced._replace(levels=(math.nan,) + produced.levels[1:]),
    ]
    for twin in twins:
        with pytest.raises(InvalidStateError):
            available_actions(twin, env_cfg)
        with pytest.raises(InvalidStateError):
            score_actions(twin, env_cfg)
        with pytest.raises(InvalidStateError):
            predict_transition(twin, Action(1, 0), env_cfg)
    # The committed state is still the one let through.
    assert score_actions(produced, env_cfg)


def test_state_committed_under_one_config_is_checked_by_another(env_cfg):
    produced = predict_transition(state((0, 300, 200, 200)), Action(1, 0), env_cfg)
    three = EnvConfig(villages=env_cfg.villages[:3], network=RoadNetwork.from_edges(
        [(SOURCE, 0), (0, 1), (1, 2), (2, SOURCE)], [0, 1, 2]))
    with pytest.raises(InvalidStateError):
        available_actions(produced, three)
    with pytest.raises(InvalidStateError):
        predict_transition(produced, Action(0, 0), three)
    with pytest.raises(InvalidStateError):
        Episode(three).reset_to(produced)


def test_levels_that_could_overflow_the_equity_score_are_rejected(env_cfg):
    with pytest.raises(LevelOverflowError, match="equity score"):
        replace(env_cfg, reset_mode=RandomReset(0.0, 1e306))
    huge = state((0, 1e306, 200, 200))
    with pytest.raises(LevelOverflowError):
        Episode(env_cfg).reset_to(huge)
    with pytest.raises(LevelOverflowError):
        score_actions(huge, env_cfg)
    # Started at the cap itself, every state an episode reaches scores finitely.
    cap = env_cfg._level_cap
    assert 1e290 < cap < 1e306
    ep = Episode(env_cfg, seed=3)
    ep.reset_to(state((0, cap, cap / 2, 200)))
    while not ep.done:
        scored = score_actions(ep.state, env_cfg)
        assert all(math.isfinite(sa.successor_alignment) for sa in scored)
        ep.step(scored[-1].action)


# ---------------------------------------------------------------------------
# compiled expansions

def chord_world():
    """Dead ends at villages 2 and 4, roads back to the source from 0, 1, 2
    and 4, and the one-way chords 0 -> 1, 1 -> 3 and 3 -> 0."""
    villages = tuple(VillageSpec(i, pop, 4.0, 100.0, 350.0)
                     for i, pop in enumerate((25, 260, 90, 400, 7)))
    edges = [(SOURCE, 0), (SOURCE, 1), (SOURCE, 3), (0, 1), (0, 2), (1, 3), (3, 0), (3, 4),
             (0, SOURCE), (1, SOURCE), (2, SOURCE), (4, SOURCE)]
    return EnvConfig(villages=villages, network=RoadNetwork.from_edges(edges, range(5)))


def recorded_builds(monkeypatch):
    """The ``(position, load)`` of every pair entry built from now on, in order."""
    built = []
    build_pair = EnvConfig._build_pair
    monkeypatch.setattr(EnvConfig, "_build_pair",
                        lambda self, where: built.append(where) or build_pair(self, where))
    return built


def test_every_expansion_is_bit_equal_to_the_reference_and_compiled_once(monkeypatch):
    config = chord_world()
    assert config.network.is_dead_end(2) and config.network.is_dead_end(4)
    built = recorded_builds(monkeypatch)
    pairs = [(position, load) for position in sorted(config.network.nodes) for load in QUANTA]
    rng = random.Random(18)
    for _ in range(3):
        for position, load in pairs:
            s = state([rng.choice((0.0, 350.0, rng.uniform(0.0, 700.0))) for _ in range(5)],
                      position, load)
            if load and config.network.is_dead_end(position):  # a loaded truck at a dead end
                with pytest.raises(EmptyActionSetError):
                    successors(s, config)
                assert config._cache.pairs[position, load] == ((), None)
                continue
            table = successor_dict(s, config)
            assert list(table) == list(available_actions(s, config))
            for action, (levels, score) in table.items():
                expected = reference_transition(s, action, config).levels
                assert hexes(levels) == hexes(expected)
                assert score.hex() == reference_equity(expected, config.populations).hex()
    assert sorted(built) == sorted(pairs)


def test_training_compiles_one_expansion_per_visited_position_and_load(monkeypatch, experiment_cfg):
    config = replace(experiment_cfg.env)  # a fresh config, with no pair built yet
    built, visited = recorded_builds(monkeypatch), set()
    score = equiflow.qlearn.score_actions
    monkeypatch.setattr(equiflow.qlearn, "score_actions",
                        lambda s, c: visited.add((s.position, s.load)) or score(s, c))
    train_ecadql(config, replace(experiment_cfg.hyper, episodes=20), 7)
    assert len(built) == len(set(built))
    assert set(built) == visited


def test_a_first_step_builds_only_its_own_pair_on_a_963605_action_world():
    # 3 roads into a village that is no dead end, each with 801 * 802 / 2 (load, dispense)
    # pairs, plus 2 roads back to the source: 963,605 legal actions, under the 10**6 bound.
    villages = tuple(VillageSpec(i, 100, 4.0, 6.0, 200.0) for i in range(2))
    edges = [(SOURCE, 0), (0, 1), (1, 0), (0, SOURCE), (1, SOURCE)]
    config = EnvConfig(villages=villages, network=RoadNetwork.from_edges(edges, range(2)),
                       capacity=12_000, delivery_quantum=15)
    with pytest.raises(ConfigurationError, match="gives 1284806 legal actions"):
        replace(config, network=RoadNetwork.from_edges(edges + [(SOURCE, 1)], range(2)))
    s = state((300.0, 300.0), SOURCE, 12_000)
    lift, dispenses = config._kernel(0), []
    config._cache.kernels[0] = lambda *args: dispenses.append(args[1]) or lift(*args)
    scored, next_levels, index = successors(s, config)
    assert list(config._cache.pairs) == [(SOURCE, 12_000)]
    actions, expansion = config._cache.pairs[SOURCE, 12_000]
    assert len(actions) == 801 and expansion is not None
    assert [sa.action for sa in scored] == list(actions) == list(index)
    assert len(next_levels) == 801 and list(index.values()) == list(range(801))
    # One lift call over the 800 deliveries, each entry bit-equal to the reference.
    assert dispenses == [tuple(range(15, 12_001, 15))]
    for (action, score), levels in zip(scored, next_levels):
        expected = reference_transition(s, action, config).levels
        assert hexes(levels) == hexes(expected)
        assert score.hex() == reference_equity(expected, config.populations).hex()
    fresh = replace(config)
    assert len(available_actions(state((300.0, 300.0), 1, 600), fresh)) == 41
    assert list(fresh._cache.pairs) == [(1, 600)]
