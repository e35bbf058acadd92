"""Independent reference implementations, state generators and a lookahead
planner for tests.

The references deliberately avoid the library's own computation paths so
that agreement between the two is meaningful.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from equiflow import (
    SOURCE,
    Action,
    Episode,
    EnvConfig,
    RandomReset,
    RoadNetwork,
    VillageSpec,
    WorldState,
    admissible_from,
    available_actions,
    is_violation,
    score_actions,
)
import equiflow.env
import equiflow.evaluate
import equiflow.qlearn
from equiflow.env import successors


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


def reference_equity(values, weights) -> float:
    """One minus the weighted Gini as a plain loop, in the order the library's
    scorer must keep: village terms in village order, then pairs ``(i, j)``
    with ``i < j`` in lexicographic order.  The scorer must equal it bit for bit."""
    weighted_total = 0.0
    for w, v in zip(weights, values):
        weighted_total += w * v
    if weighted_total == 0.0:
        return 0.0
    spread = 0.0
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            diff = values[i] - values[j]
            spread += weights[i] * weights[j] * (diff if diff >= 0.0 else -diff)
    return 1.0 - spread / (sum(weights) * weighted_total)


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


def successor_dict(state: WorldState, config: EnvConfig) -> dict:
    """``{action: (next levels, equity)}`` in action order, read from the
    ``(scored, next_levels, index)`` table that ``env.successors`` returns,
    whose index must give each action's position."""
    scored, next_levels, index = successors(state, config)
    assert index == {sa.action: k for k, sa in enumerate(scored)}
    return {sa.action: (levels, sa.successor_alignment) for sa, levels in zip(scored, next_levels)}


def random_legal_action(state: WorldState, config: EnvConfig, rng: random.Random) -> Action:
    acts = available_actions(state, config)
    return acts[rng.randrange(len(acts))]


def reference_levelise(state: WorldState, params) -> tuple:
    """The Q-table key as a loop over the villages: band 0 at or below the red
    bound, ``hidden + 1`` above the green bound, else ``ceil((x - red) / width)``
    held to ``[1, hidden]``.  The compiled ``levelise`` must return an equal key."""
    red, green = params.red_bound, params.green_bound
    width = (green - red) / params.hidden
    bands = []
    for x in state.levels:
        if x <= red:
            band = 0
        elif x > green:
            band = params.hidden + 1
        else:
            band = math.ceil((x - red) / width)
            if band < 1:
                band = 1
            elif band > params.hidden:
                band = params.hidden
        bands.append(band)
    return tuple(bands), state.position, state.load


def consume(level: float, base: float, high: float, threshold: float) -> float:
    """Level after one step: ``high`` strictly above ``threshold``, else ``base``; floor 0."""
    rate = high if level > threshold else base
    left = level - rate
    return left if left > 0.0 else 0.0


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
    consumed = tuple(consume(level, v.base_rate, v.high_rate, v.threshold)
                     for level, v in zip(levels, config.villages))
    return WorldState(consumed, dest, load, state.distributed_total + dispense)


class LookaheadPolicy:
    """Depth-``depth`` planner inside the ``epsilon``-admissible sets.

    It takes the admissible action whose best continuation through admissible
    actions has the fewest violations (equity below ``tau``) in the next
    ``depth`` steps, its own step included, and a continuation stops where the
    water budget runs out.  Ties go to the higher one-step score, then to the
    first action in order, so depth 1 chooses as ``LocalPolicy`` does.
    """

    def __init__(self, config: EnvConfig, depth: int, epsilon: float, tau: float) -> None:
        self.config, self.depth, self.epsilon, self.tau = config, depth, epsilon, tau
        self.name = f"lookahead{depth}"

    def _fewest(self, state: WorldState, depth: int, bound: int) -> int:
        """Fewest violations in ``depth`` steps from ``state``, or ``bound`` if none is fewer."""
        if depth == 0 or state.distributed_total >= self.config.total_to_distribute:
            return 0
        best = bound
        for sa in admissible_from(score_actions(state, self.config), self.epsilon):
            own = is_violation(sa.successor_alignment, self.tau)
            if own < best:
                nxt = reference_transition(state, sa.action, self.config)
                best = own + self._fewest(nxt, depth - 1, best - own)
            if best == 0:
                break
        return best

    def choose(self, state: WorldState, admissible) -> Action:
        best_key, choice = None, None
        for sa in admissible:
            own = is_violation(sa.successor_alignment, self.tau)
            bound = self.depth + 1 if best_key is None else best_key[0] + 1
            nxt = reference_transition(state, sa.action, self.config)
            key = (own + self._fewest(nxt, self.depth - 1, bound - own), -sa.successor_alignment)
            if best_key is None or key < best_key:
                best_key, choice = key, sa.action
        return choice


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


def stalling_world() -> EnvConfig:
    """Two villages of equal population that consume nothing, every random
    start at 200 l per inhabitant in both.  With equal levels a zero-litre move keeps
    the equity at 1 and any delivery lowers it, so at ``epsilon`` 0 a rollout
    from the source shuttles 0 -> 1 -> 0 and has no admissible action left
    untaken when it is back at village 0, at step 3."""
    villages = (VillageSpec(0, 100, 0.0, 0.0, 0.0), VillageSpec(1, 100, 0.0, 0.0, 0.0))
    edges = [(SOURCE, 0), (0, 1), (1, 0), (0, SOURCE), (1, SOURCE)]
    return EnvConfig(villages, RoadNetwork.from_edges(edges, range(2)),
                     reset_mode=RandomReset(200.0, 200.0))


def reference_model_text(model) -> str:
    """The model file the way earlier releases wrote it: the version-2 layout
    ({state key: {action: value}}, both levels sorted as strings) built as
    dicts, then the whole document through ``json.dumps``.  ``save_model`` must
    write the same bytes."""

    def groups(table):
        rows = {f"{','.join(map(str, key.levels))}|{key.position}|{key.load}": row
                for key, row in table.items()}
        return {text: dict(sorted((f"{a.destination},{a.dispense}", v) for a, v in rows[text].items()))
                for text in sorted(rows)}

    doc = {
        "format": "equiflow-qmodel",
        "version": 2,
        "kind": model.kind,
        "hyper": asdict(model.hyper),
        "avg_reward": model.avg_reward,
        "lagrange": None if model.lagrange is None else asdict(model.lagrange),
        "qa": groups(model.qa),
        "qb": groups(model.qb),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def count_step_loop(monkeypatch, env: EnvConfig) -> tuple[Counter, list]:
    """Wrap the step loop's layers, and the kernel of ``env`` (a config whose kernel is
    not built yet), to count calls until the test ends.

    Returns ``(counts, scored)``.  ``counts`` has the calls of ``score_actions``,
    ``available_actions``, ``step``, ``double_q_update``, ``expand`` (the base
    expansion), ``lift`` and ``rollout_successors``; ``delivering``, the destinations
    that the actions of each scored state deliver to; ``served``, the tables the
    rollout cache served, and ``served_delivering``, those destinations counted over
    the served tables only.  ``scored`` lists the ``(levels, position, load)`` of each
    scored state, in order.
    """
    counts: Counter = Counter()
    scored: list = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "score_actions":
                scored.append(args[0][:3])
                counts["delivering"] += len({a.destination for a, _ in result if a.dispense})
            elif name == "rollout_successors" and result:
                counts["served"] += 1
                table = args[1]._cache.table[0]
                counts["served_delivering"] += len({a.destination for a, _ in table if a.dispense})
            return result
        return wrapper

    for module in (equiflow.qlearn, equiflow.evaluate):
        monkeypatch.setattr(module, "score_actions", counting("score_actions", module.score_actions))
    monkeypatch.setattr(equiflow.qlearn, "double_q_update",
                        counting("double_q_update", equiflow.qlearn.double_q_update))
    monkeypatch.setattr(equiflow.env, "available_actions",
                        counting("available_actions", equiflow.env.available_actions))
    monkeypatch.setattr(equiflow.evaluate, "_rollout_successors",
                        counting("rollout_successors", equiflow.evaluate._rollout_successors))
    monkeypatch.setattr(Episode, "step", counting("step", Episode.step))
    kernels = env._cache.kernels
    kernels[None] = counting("expand", env._kernel())
    for d in range(env.n_villages):
        kernels[d] = counting("lift", env._kernel(d))
    return counts, scored
