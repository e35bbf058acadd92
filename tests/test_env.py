import random
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
    LocalPolicy,
    RandomReset,
    RoadNetwork,
    VillageSpec,
    WorldState,
    available_actions,
    consume,
    predict_transition,
    run_episode,
    score_actions,
)
from equiflow.env import successors
from helpers import random_legal_action, random_walk_states, reference_transition, road_graphs

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
# consume

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
    v = env_cfg.villages[village_id]
    left = consume(level, v.base_rate, v.high_rate, v.threshold)
    assert left == pytest.approx(expected, abs=1e-12)


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
    ep = Episode(env_cfg, seed=1)
    first = ep.reset()
    assert ep.reset(seed=1) == first  # reseeding rewinds the stream


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
        table = successors(s, config)
        assert list(table) == list(available_actions(s, config))
        for action, (nxt, score) in table.items():
            expected = reference_transition(s, action, config)
            assert nxt == expected  # bit-equal, not approximately equal
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
