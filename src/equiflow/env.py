"""Water-delivery world: villages, road graph, truck actions, transitions.

One step is one truck movement (about an hour).  The truck moves along a
directed road edge, dispenses a quantum-multiple of water at a village (or
refills at the source), and then every village consumes one step's worth of
water.  Movement rules:

* arriving at a village with no outgoing road to another village forces the
  truck to dispense its entire load there;
* a loaded truck may not return to the source; an empty one that does refills
  completely;
* zero-litre deliveries are legal at non-dead-end villages.

An episode ends once a configured total amount of water has been delivered.
The per-step reward is the equity score of the state the action produces.

``successors`` is the one copy of the dynamics: per state, every village
consumes once and each action's successor replaces only its destination
entry.  The last state's table stays on the config, keyed by object
identity, so scoring a state and stepping from it cost one pass together.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .equity import make_equity_scorer

SOURCE = -1

__all__ = [
    "SOURCE", "ConfigurationError", "EmptyActionSetError", "InvalidStateError",
    "IllegalActionError", "EpisodeFinishedError", "VillageSpec", "RoadNetwork", "RandomReset",
    "EnvConfig", "WorldState", "Action", "StepOutcome", "Episode", "available_actions",
    "consume", "predict_transition", "successors"
]


class ConfigurationError(ValueError):
    """The environment configuration is malformed."""


class EmptyActionSetError(ConfigurationError):
    """A reachable state has no legal action; the road graph is defective."""


class InvalidStateError(ValueError):
    """A state violates the world invariants (unknown position, bad load)."""


class IllegalActionError(ValueError):
    """The action is not available from the current state."""


class EpisodeFinishedError(RuntimeError):
    """step() was called on a finished episode."""


@dataclass(frozen=True)
class VillageSpec:
    """Static parameters of one village.

    Consumption is ``high_rate`` litres per inhabitant per step while the
    level is strictly above ``threshold``, otherwise ``base_rate``.
    """

    id: int
    population: int
    base_rate: float
    high_rate: float
    threshold: float

    def __post_init__(self) -> None:
        # Up to 2**53 every population is an exact float and the scorer's
        # pairwise products stay finite.
        if not 0 < self.population <= 2**53:
            raise ConfigurationError(f"village {self.id}: population must be in [1, 2**53]")
        if not all(0.0 <= x < math.inf for x in (self.base_rate, self.high_rate, self.threshold)):
            raise ConfigurationError(f"village {self.id}: rates and threshold must be in [0, inf)")


@dataclass(frozen=True)
class RoadNetwork:
    """Directed road graph over the source (node -1) and the villages."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(int(n) for n in self.nodes))
        object.__setattr__(self, "edges", frozenset((int(a), int(b)) for a, b in self.edges))
        if SOURCE not in self.nodes:
            raise ConfigurationError("network must contain the source node (-1)")
        for a, b in self.edges:
            if a == b:
                raise ConfigurationError(f"self-loop edge on node {a}")
            if a not in self.nodes or b not in self.nodes:
                raise ConfigurationError(f"edge ({a}, {b}) references an unknown node")
        villages = self.nodes - {SOURCE}
        reached = self._reachable_from(SOURCE)
        missing = villages - reached
        if missing:
            raise ConfigurationError(f"villages unreachable from the source: {sorted(missing)}")
        stranded = sorted(v for v in villages if SOURCE not in self._reachable_from(v))
        if stranded:
            raise ConfigurationError(f"villages with no road back to the source: {stranded}")

    @classmethod
    def from_edges(cls, edges: Iterable[Sequence[int]], village_ids: Iterable[int]) -> "RoadNetwork":
        nodes = frozenset(village_ids) | {SOURCE}
        return cls(nodes=nodes, edges=frozenset((int(a), int(b)) for a, b in edges))

    def _reachable_from(self, start: int) -> frozenset[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for a, b in self.edges:
                if a == node and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return frozenset(seen)

    @cached_property
    def _outgoing(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            out[a].append(b)
        return {n: tuple(sorted(dests)) for n, dests in out.items()}

    def outgoing(self, node: int) -> tuple[int, ...]:
        """Destinations reachable from ``node``, in ascending id order."""
        try:
            return self._outgoing[node]
        except KeyError:
            raise InvalidStateError(f"node {node} is not part of the network") from None

    def is_dead_end(self, village: int) -> bool:
        """True when the village has no outgoing road to another village."""
        return all(dest == SOURCE for dest in self.outgoing(village))


class WorldState(NamedTuple):
    """Continuous environment state."""

    levels: tuple[float, ...]  # litres per inhabitant, indexed by village id
    position: int  # SOURCE or a village id
    load: int  # litres aboard the truck
    distributed_total: int = 0  # litres delivered so far this episode


class Action(NamedTuple):
    """Move to ``destination`` and dispense ``dispense`` litres there."""

    destination: int
    dispense: int


class StepOutcome(NamedTuple):
    next_state: WorldState
    reward: float
    done: bool


@dataclass(frozen=True)
class RandomReset:
    """Reset with independent uniform per-village levels."""

    low: float = 0.0
    high: float = 600.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high < math.inf:
            raise ConfigurationError("random reset needs 0 <= low <= high < inf")


@dataclass(frozen=True)
class EnvConfig:
    """Immutable environment configuration; shareable between episodes."""

    villages: tuple[VillageSpec, ...]
    network: RoadNetwork
    capacity: int = 60_000
    delivery_quantum: int = 15_000
    total_to_distribute: int = 1_440_000
    reset_mode: RandomReset = field(default_factory=RandomReset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "villages", tuple(self.villages))
        ids = sorted(v.id for v in self.villages)
        if not self.villages or ids != list(range(len(self.villages))):
            raise ConfigurationError("village ids must be exactly 0..V-1")
        if list(ids) != [v.id for v in self.villages]:
            object.__setattr__(
                self, "villages", tuple(sorted(self.villages, key=lambda v: v.id))
            )
        expected_nodes = frozenset(ids) | {SOURCE}
        if self.network.nodes != expected_nodes:
            raise ConfigurationError("network nodes must be the source plus every village id")
        if self.capacity <= 0 or self.delivery_quantum <= 0:
            raise ConfigurationError("capacity and delivery quantum must be positive")
        if self.capacity % self.delivery_quantum != 0:
            raise ConfigurationError("capacity must be a multiple of the delivery quantum")
        if self.total_to_distribute <= 0:
            raise ConfigurationError("total_to_distribute must be positive")

    @property
    def n_villages(self) -> int:
        return len(self.villages)

    @cached_property
    def populations(self) -> tuple[int, ...]:
        return tuple(v.population for v in self.villages)

    @cached_property
    def equity_of(self):
        """Equity score of a level vector, shared by rewards and scoring."""
        return make_equity_scorer(self.populations)

    @cached_property
    def _successor_memo(self) -> list:
        """One slot, ``(state, successors(state))`` of the last expanded state."""
        return [(object(), {})]

    @cached_property
    def _rate_table(self) -> tuple[tuple[float, float, float], ...]:
        return tuple((v.base_rate, v.high_rate, v.threshold) for v in self.villages)

    @cached_property
    def _action_table(self) -> dict[tuple[int, int], tuple[Action, ...]]:
        """Legal actions for every (position, load) pair, pre-sorted."""
        table: dict[tuple[int, int], tuple[Action, ...]] = {}
        loads = range(0, self.capacity + 1, self.delivery_quantum)
        for pos in self.network.nodes:
            for load in loads:
                acts: list[Action] = []
                for dest in self.network.outgoing(pos):
                    if dest == SOURCE:
                        if load == 0:
                            acts.append(Action(SOURCE, 0))
                    elif self.network.is_dead_end(dest):
                        acts.append(Action(dest, load))
                    else:
                        acts.extend(
                            Action(dest, d)
                            for d in range(0, load + 1, self.delivery_quantum)
                        )
                table[(pos, load)] = tuple(acts)
        return table

    def validate_state(self, state: WorldState) -> None:
        if state.position not in self.network.nodes:
            raise InvalidStateError(f"position {state.position} is not in the network")
        # A tuple, so that a table memoised for this state object stays valid.
        if not isinstance(state.levels, tuple) or len(state.levels) != self.n_villages:
            raise InvalidStateError("levels must be a tuple with one entry per village")
        if not all(0.0 <= x < math.inf for x in state.levels):
            raise InvalidStateError("water levels must be finite and non-negative")
        if not 0 <= state.load <= self.capacity or state.load % self.delivery_quantum != 0:
            raise InvalidStateError(
                f"load {state.load} must be a quantum multiple within [0, capacity]"
            )


def consume(level: float, base: float, high: float, threshold: float) -> float:
    """Level after one step: ``high`` strictly above ``threshold``, else ``base``; floor 0."""
    rate = high if level > threshold else base
    left = level - rate
    return left if left > 0.0 else 0.0


def available_actions(state: WorldState, config: EnvConfig) -> tuple[Action, ...]:
    """Legal actions from ``state``, sorted by (destination, dispense).

    Raises EmptyActionSetError when the graph leaves the truck stranded;
    with the refill and dead-end rules that indicates a malformed network.
    """
    config.validate_state(state)
    acts = config._action_table[(state.position, state.load)]
    if not acts:
        raise EmptyActionSetError(
            f"no legal action at position {state.position} with load {state.load}"
        )
    return acts


def successors(state: WorldState, config: EnvConfig) -> dict[Action, tuple[WorldState, float]]:
    """``{action: (next state, its equity)}`` for every legal action, in action order.

    Move and dispense, then every village consumes.  Asked again for the same
    state object, it returns the same table, kept on ``config``: do not mutate it.
    """
    last, table = config._successor_memo[0]
    if last is state:
        return table
    acts = available_actions(state, config)
    equity, rates, levels = config.equity_of, config._rate_table, state.levels
    base = tuple([consume(lvl, *rate) for lvl, rate in zip(levels, rates)])
    base_score = None  # shared by every zero-litre and source move
    table = {}
    for action in acts:
        dest, dispense = action
        new, score = base, base_score
        if dispense:
            lifted = consume(levels[dest] + dispense / config.populations[dest], *rates[dest])
            new = base[:dest] + (lifted,) + base[dest + 1:]
            score = equity(new)
        elif score is None:
            score = base_score = equity(base)
        load = config.capacity if dest == SOURCE else state.load - dispense
        table[action] = (WorldState(new, dest, load, state.distributed_total + dispense), score)
    config._successor_memo[0] = (state, table)
    return table


def _successor(state: WorldState, action: Action, config: EnvConfig) -> tuple[WorldState, float]:
    entry = successors(state, config).get(action)
    if entry is None:
        raise IllegalActionError(f"action {action} is not available from {state}")
    return entry


def predict_transition(state: WorldState, action: Action, config: EnvConfig) -> WorldState:
    """Pure one-step dynamics: move and dispense, then all villages consume."""
    return _successor(state, action, config)[0]


class Episode:
    """Single-owner episode handle over an immutable config."""

    def __init__(
        self,
        config: EnvConfig,
        seed: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self._rng = rng if rng is not None else random.Random(seed)
        self._state: WorldState | None = None
        self._done = False

    @property
    def state(self) -> WorldState:
        if self._state is None:
            raise InvalidStateError("episode has not been reset")
        return self._state

    @property
    def done(self) -> bool:
        return self._done

    def reset(self, seed: int | None = None) -> WorldState:
        """Start a new episode; deterministic for a given seed."""
        if seed is not None:
            self._rng.seed(seed)
        mode = self.config.reset_mode
        levels = tuple(
            self._rng.uniform(mode.low, mode.high) for _ in range(self.config.n_villages)
        )
        self._state = WorldState(levels, SOURCE, self.config.capacity, 0)
        self._done = False
        return self._state

    def reset_to(self, state: WorldState) -> WorldState:
        """Start a new episode from an explicit state (evaluation entry point)."""
        self.config.validate_state(state)
        self._state = state
        self._done = state.distributed_total >= self.config.total_to_distribute
        return state

    def step(self, action: Action) -> StepOutcome:
        """Apply ``action``; reward is the equity score of the produced state."""
        if self._done:
            raise EpisodeFinishedError("episode already distributed its water budget")
        nxt, reward = _successor(self.state, action, self.config)
        done = nxt.distributed_total >= self.config.total_to_distribute
        self._state = nxt
        self._done = done
        return StepOutcome(nxt, reward, done)
