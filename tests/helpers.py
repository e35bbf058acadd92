"""Independent reference implementations and state generators for tests.

Everything here deliberately avoids the library's own computation paths so
that agreement between the two is meaningful.
"""
from __future__ import annotations

import json
import random
from dataclasses import asdict
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from equiflow import SOURCE, Action, Episode, EnvConfig, WorldState, available_actions


def expanded_gini_rank(values, weights) -> float:
    """Gini via the sorted-rank formula on the fully expanded per-person list."""
    person = np.repeat(np.asarray(values, dtype=float), np.asarray(weights, dtype=np.int64))
    n = person.size
    total = float(person.sum())
    if total == 0.0:
        return 1.0  # drained-state convention, mirrored from the library
    s = np.sort(person)
    ranks = np.arange(1, n + 1, dtype=float)
    return float((2.0 * np.dot(ranks, s) - (n + 1) * total) / (n * total))


def expanded_gini_pairwise(values, weights) -> float:
    """Literal O(n^2) mean-absolute-difference Gini over the expanded list."""
    person = []
    for v, w in zip(values, weights):
        person.extend([float(v)] * int(w))
    n = len(person)
    total = sum(person)
    if total == 0.0:
        return 1.0
    spread = 0.0
    for i in range(n):
        for j in range(n):
            spread += abs(person[i] - person[j])
    return spread / (2.0 * n * total)


def optimal_average_reward(transitions: dict, sweeps: int = 200_000, tol: float = 1e-13):
    """Relative value iteration on a tiny deterministic MDP.

    ``transitions[state][action] == (next_state, reward)``.  Returns the
    optimal long-run average reward and the relative values.  A half-weight
    self-loop blend keeps the iteration from oscillating on periodic optimal
    cycles; it leaves the stationary distribution (and hence the gain)
    unchanged.
    """
    kappa = 0.5
    states = sorted(transitions)
    ref = states[0]
    h = {s: 0.0 for s in states}
    rho = 0.0
    for _ in range(sweeps):
        t = {
            s: max(r + (1.0 - kappa) * h[s] + kappa * h[ns] for ns, r in transitions[s].values())
            for s in states
        }
        rho_new = t[ref]
        h_new = {s: t[s] - rho_new for s in states}
        drift = max(abs(h_new[s] - h[s]) for s in states)
        h, rho = h_new, rho_new
        if drift < tol:
            break
    return rho, h


def random_walk_states(
    config: EnvConfig, seed: int, count: int, max_steps_per_episode: int = 60
) -> list[WorldState]:
    """Reachable states sampled by random-action walks with periodic resets."""
    rng = random.Random(seed)
    episode = Episode(config, rng=rng)
    states: list[WorldState] = []
    state = episode.reset()
    steps = 0
    while len(states) < count:
        states.append(state)
        if episode.done or steps >= max_steps_per_episode:
            state = episode.reset()
            steps = 0
            continue
        acts = available_actions(state, config)
        state = episode.step(acts[rng.randrange(len(acts))]).next_state
        steps += 1
    return states


def random_legal_action(state: WorldState, config: EnvConfig, rng: random.Random) -> Action:
    acts = available_actions(state, config)
    return acts[rng.randrange(len(acts))]


def reference_transition(state: WorldState, action: Action, config: EnvConfig) -> WorldState:
    """One step the direct way: copy the levels, add the delivery per
    inhabitant at the destination, then let every village consume."""
    dest, dispense = action
    levels = list(state.levels)
    if dest == SOURCE:
        load = config.capacity
    else:
        load = state.load - dispense
        if dispense:
            levels[dest] += dispense / config.villages[dest].population
    consumed = []
    for level, village in zip(levels, config.villages):
        left = level - (village.high_rate if level > village.threshold else village.base_rate)
        consumed.append(left if left > 0.0 else 0.0)
    return WorldState(tuple(consumed), dest, load, state.distributed_total + dispense)


@st.composite
def road_graphs(draw):
    """Village count and edges of a map where every village is reachable from
    the source and can return to it: village v has a road in from, and a road
    out to, the source or an earlier village, plus any extra roads."""
    n = draw(st.integers(1, 6))
    edges = set()
    for v in range(n):
        edges.add((draw(st.integers(-1, v - 1)), v))
        edges.add((v, draw(st.integers(-1, v - 1))))
    nodes = st.integers(-1, n - 1)
    extra = draw(st.lists(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]), max_size=8))
    return n, edges | set(extra)


def write_v1_model(model, path) -> None:
    """Write ``model`` in the version-1 model file layout, as earlier releases did:
    one ``[state key, action, value]`` row per Q-table entry, rows sorted by
    their two keys as strings, the document indented by one space."""

    def rows(table):
        out = [
            [f"{','.join(str(b) for b in key.levels)}|{key.position}|{key.load}",
             f"{action.destination},{action.dispense}", value]
            for key, entries in table.items()
            for action, value in entries.items()
        ]
        out.sort(key=lambda row: (row[0], row[1]))
        return out

    doc = {
        "format": "equiflow-qmodel",
        "version": 1,
        "kind": model.kind,
        "hyper": asdict(model.hyper),
        "avg_reward": model.avg_reward,
        "lagrange": None if model.lagrange is None else asdict(model.lagrange),
        "qa": rows(model.qa),
        "qb": rows(model.qb),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
