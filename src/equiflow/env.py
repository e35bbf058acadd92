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

``successors`` is the one copy of the dynamics, and each config keeps one
cache record for it.  The first time ``available_actions`` is asked about a
``(position, load)``, it builds the pair's legal actions and their compiled
expansion together, so this one-off cost scales with the pairs a run visits.
An expansion returns the table ``(scored, next_levels, index)``: the
``ScoredAction`` list of the legal actions in order, the level vectors they
lead to at the same indices, and the pair's ``{action: index}``.  It calls
a base expansion, compiled once per world, which lets every village consume and
computes the equity score's village and pair terms and the score of the
consumed levels, shared by every zero-litre and source move.  A delivery
changes only its destination: one ``lift(levels, <dispenses>, consumed,
terms)`` call per destination lifts and consumes it for each dispense,
recomputes its ``n`` terms and sums them with the other terms.
``equity.compile_scorer`` writes the terms and their sum for both, as for
``EnvConfig.equity_of``, so every score is bit-equal to ``equity_of`` of the
level vector.  A ``WorldState`` is built for the one action a step commits.
The last state's table stays in the record, keyed by object identity, so
scoring a state and stepping from it cost one pass together; ``score_actions``
hands out a copy of its list, which the caller owns.

Greedy rollouts drain villages and merge onto states they have scored before,
so ``run_episode`` serves a state whose ``(levels, position, load)`` it has
scored twice before from a bounded rollout cache in the same record.  Training
explores and scores almost no state twice, so it does not use that cache.
Tables are shared, so do not mutate one; a served table is bit-equal to a
fresh one.

States are validated where they enter: reset states and any state a caller
builds.  The state the kernel last committed is made from a validated one and
is let through by identity.  A level is valid up to a cap from which a whole
water budget delivered to the smallest village keeps the equity score finite,
so the states the kernel produces need no check of their own.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .equity import compile_scorer, make_equity_scorer, term_names

SOURCE = -1
# Bounds of the rollout cache: level values held in its stored tables, and hashes of states seen once.
_ROLLOUT_VALUES = 2**14
_ROLLOUT_HASHES = 1024
# ``_new(Cls, fields)`` builds a NamedTuple without the frame of its Python ``__new__``.
_new = tuple.__new__

__all__ = [
    "SOURCE", "ConfigurationError", "EmptyActionSetError", "LevelOverflowError",
    "InvalidStateError", "IllegalActionError", "EpisodeFinishedError", "VillageSpec",
    "RoadNetwork", "RandomReset", "EnvConfig", "WorldState", "Action", "ScoredAction", "StepOutcome",
    "Episode", "available_actions", "predict_transition", "successors"
]


class ConfigurationError(ValueError):
    """The environment configuration is malformed."""


class EmptyActionSetError(ConfigurationError):
    """A reachable state has no legal action; the road graph is defective."""


class LevelOverflowError(ConfigurationError):
    """Levels a state starts from, or can reach, would overflow the equity score."""

    def __init__(self, what: str, level: float, cap: float) -> None:
        self.what, self.level, self.cap = what, level, cap
        super().__init__(
            f"{what} {level!r} is above {cap!r}, the largest level from which a whole water "
            "budget delivered to the smallest village keeps the equity score finite"
        )


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
        # Floats, as a config file gives them: the compiled kernel writes them
        # in as literals, and float rates keep every consumed level a float.
        for name in ("base_rate", "high_rate", "threshold"):
            object.__setattr__(self, name, float(getattr(self, name)))


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
            for node in self._outgoing[frontier.pop()]:
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
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


class ScoredAction(NamedTuple):
    action: Action
    successor_alignment: float  # equity of the state the action produces


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


class _Cache:
    """What an ``EnvConfig`` caches for the successor kernel, in one record per world.

    ``pairs`` maps each ``(position, load)`` met to its ``(legal actions, expansion)``,
    and ``kernels`` holds the base expansion (key ``None``) and each village's lift.
    ``state`` is the last state expanded and ``table`` its table; ``committed`` is the
    last state ``_successor`` built.  The rollout cache is ``seen``, hashes of keys met
    once, ``stored``, the tables of keys met again, and ``held``, their level values.
    """

    __slots__ = ("pairs", "kernels", "state", "table", "committed", "seen", "stored", "held")

    def __init__(self) -> None:
        self.pairs, self.kernels, self.seen, self.stored, self.held = {}, {}, set(), {}, 0
        self.state = self.committed = object()
        self.table = [], (), {}


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
        # Legal actions of every (position, load), counted per edge; ``_build_pair`` builds only visited ones.
        loads = self.capacity // self.delivery_quantum + 1
        entries = sum(1 if b == SOURCE else loads if self.network.is_dead_end(b) else
                      loads * (loads + 1) // 2 for _, b in self.network.edges)
        if entries > 10**6:
            raise ConfigurationError(f"capacity {self.capacity} in quanta of delivery_quantum "
                                     f"{self.delivery_quantum} gives {entries} legal actions, above 10**6")
        if self.total_to_distribute <= 0:
            raise ConfigurationError("total_to_distribute must be positive")
        if not self.reset_mode.high <= self._level_cap:
            raise LevelOverflowError("high", self.reset_mode.high, self._level_cap)

    @property
    def n_villages(self) -> int:
        return len(self.villages)

    @property
    def step_limit(self) -> int:
        """Steps after which training or a rollout stops an unfinished episode: a thousand per
        delivery quantum of the budget, where episodes on the shipped maps take under 300."""
        return 1000 * -(-self.total_to_distribute // self.delivery_quantum)

    @cached_property
    def populations(self) -> tuple[int, ...]:
        return tuple(v.population for v in self.villages)

    @cached_property
    def equity_of(self):
        """Equity score of a level vector, shared by rewards and scoring."""
        return make_equity_scorer(self.populations)

    @cached_property
    def _level_cap(self) -> float:
        """Largest level a validated state may hold.

        From there the water budget plus one truckload, all delivered to the
        smallest village, keeps the equity score's total, pairwise spread and
        denominator finite: each is at most (sum of populations)**2 times the
        largest level, and the factor 2 covers the rounding of the sums.
        """
        weight = float(sum(self.populations))
        try:
            reach = (self.total_to_distribute + self.capacity) / min(self.populations)
        except OverflowError:  # a budget beyond float range
            return -math.inf
        return sys.float_info.max / (2.0 * weight * weight) - reach

    @cached_property
    def _cache(self) -> _Cache:
        return _Cache()

    def _kernel(self, d: int | None = None) -> Callable:
        """Compiled successor code, built on first use: the base expansion, or the lift of village ``d``.

        The base expansion maps ``levels`` to ``(consumed levels, terms, their
        equity)``: every village consumes, and ``compile_scorer`` scores the
        result.  The lift of ``d`` maps ``(levels, dispenses, consumed levels,
        terms)`` to a list of ``(next levels, equity)``, one per dispense: ``d``
        gains ``dispense / population`` (int over int), only it consumes, and
        only its terms are computed again.  A village consumes ``high_rate``
        strictly above ``threshold``, else ``base_rate``, down to 0; the rates
        are written in as float literals.  Each function is O(villages**2) code.
        """
        kernel = self._cache.kernels.get(d)
        if kernel is not None:
            return kernel
        n = self.n_villages
        levels = "".join(f"c{i}, " for i in range(n))
        terms = "".join(f"{t}, " for t in term_names(n))
        if d is None:
            changed, returning, name, pad = range(n), f"({levels}), ({terms}), ", "base expansion", "    "
            lines = ["def f(levels):", f"    {levels}= levels"]
        else:
            changed, returning, name, pad = (d,), f"({levels}), ", f"lift {d}", "        "
            lines = ["def f(levels, dispenses, consumed, terms):", f"    {levels}= consumed",
                     f"    {terms}= terms", "    entries = []", "    for dispense in dispenses:",
                     f"        c{d} = levels[{d}] + dispense / {self.populations[d]!r}"]
        for i in changed:
            v = self.villages[i]
            rate = f"({v.high_rate!r} if c{i} > {v.threshold!r} else {v.base_rate!r})"
            lines += [f"{pad}c{i} = c{i} - {rate}", f"{pad}c{i} = c{i} if c{i} > 0.0 else 0.0"]
        self._cache.kernels[d] = kernel = compile_scorer(
            f"{name} of {n}", lines, self.populations, changed, returning, "entries" if d is not None else "")
        return kernel

    def _build_pair(self, where: tuple[int, int]) -> tuple[tuple[Action, ...], Callable | None]:
        """Legal actions at ``where`` in (destination, dispense) order, and for a non-empty set
        the expansion ``levels -> (scored, next_levels, index)`` over them: one call of the base
        expansion and of each delivering destination's lift with its dispenses written in, then
        both displays in action order, where zero-litre and source moves share the consumed
        levels, and the pair's one ``{action: index}``."""
        position, load = where
        acts: list[Action] = []
        for dest in self.network.outgoing(position):
            if dest == SOURCE:
                if load == 0:
                    acts.append(Action(SOURCE, 0))
            elif self.network.is_dead_end(dest):
                acts.append(Action(dest, load))
            else:
                acts.extend(Action(dest, d) for d in range(0, load + 1, self.delivery_quantum))
        actions, expansion = tuple(acts), None
        if actions:
            lines = ["def f(levels):", "    consumed, terms, score = expand(levels)"]
            namespace = {"expand": self._kernel(), "new": _new, "SA": ScoredAction,
                         "index": {a: k for k, a in enumerate(actions)}}
            delivered: dict[int, list[int]] = {}
            for k, a in enumerate(actions):
                namespace[f"a{k}"] = a
                if a.dispense:
                    delivered.setdefault(a.destination, []).append(k)
            for d, ks in delivered.items():
                namespace[f"lift{d}"] = self._kernel(d)
                dispenses = "".join(f"{actions[k].dispense!r}, " for k in ks)
                lines.append(f"    {''.join(f'(l{k}, s{k}), ' for k in ks)}= "
                             f"lift{d}(levels, ({dispenses}), consumed, terms)")
            scored = ", ".join(f"new(SA, (a{k}, {f's{k}' if a.dispense else 'score'}))"
                               for k, a in enumerate(actions))
            nexts = "".join(f"l{k}, " if a.dispense else "consumed, " for k, a in enumerate(actions))
            lines.append(f"    return [{scored}], ({nexts}), index")
            label = f"<expansion of {self.n_villages} villages at {where}>"
            exec(compile("\n".join(lines), label, "exec"), namespace)
            expansion = namespace["f"]
        self._cache.pairs[where] = pair = actions, expansion
        return pair

    def validate_state(self, state: WorldState) -> None:
        if state is self._cache.committed:
            return  # committed by the kernel from a validated state
        # Ints only: 1.0 and True equal 1 as set members and dict keys.
        if type(state.position) is not int or state.position not in self.network.nodes:
            raise InvalidStateError(f"position {state.position!r} must be an int node of the network")
        # A tuple, so that a table memoised for this state object stays valid.
        if not isinstance(state.levels, tuple) or len(state.levels) != self.n_villages:
            raise InvalidStateError("levels must be a tuple with one entry per village")
        cap = self._level_cap
        if not all(0.0 <= x <= cap for x in state.levels):
            if not all(0.0 <= x < math.inf for x in state.levels):
                raise InvalidStateError("water levels must be finite and non-negative")
            raise LevelOverflowError("water level", max(state.levels), cap)
        if (type(state.load) is not int or not 0 <= state.load <= self.capacity
                or state.load % self.delivery_quantum != 0):
            raise InvalidStateError(f"load {state.load!r} must be an int quantum multiple within [0, capacity]")
        if type(state.distributed_total) is not int or state.distributed_total < 0:
            raise InvalidStateError(f"distributed_total {state.distributed_total!r} must be an int >= 0")


def available_actions(state: WorldState, config: EnvConfig) -> tuple[Action, ...]:
    """Legal actions from ``state``, validated first, sorted by (destination, dispense).

    The first call at a ``(position, load)`` caches them with their compiled expansion.
    Raises EmptyActionSetError when the graph leaves the truck stranded;
    with the refill and dead-end rules that indicates a malformed network.
    """
    config.validate_state(state)
    where = state.position, state.load
    acts = (config._cache.pairs.get(where) or config._build_pair(where))[0]
    if not acts:
        raise EmptyActionSetError(
            f"no legal action at position {state.position} with load {state.load}"
        )
    return acts


def successors(
    state: WorldState, config: EnvConfig
) -> tuple[list[ScoredAction], tuple[tuple[float, ...], ...], dict[Action, int]]:
    """The table ``(scored, next_levels, index)`` of ``state``: each of
    ``available_actions``, in order, as a ``ScoredAction`` with the equity of the
    state it produces, the levels of that state at the same indices, and each
    action's index, ``{action: index}``, shared by every state at its ``(position, load)``.

    Only the level vectors are built; ``predict_transition`` and ``Episode.step``
    make the ``WorldState`` of the action they commit.  Tables are shared: asked
    again for the same state object this returns the same table, and a rollout
    may serve one built for an equal ``(levels, position, load)``, bit-equal to a
    fresh one.  Do not mutate a table.
    """
    cache = config._cache
    if cache.state is state:
        return cache.table
    available_actions(state, config)
    table = cache.pairs[state.position, state.load][1](state.levels)
    cache.state, cache.table = state, table
    return table


def _rollout_successors(state: WorldState, config: EnvConfig) -> bool:
    """Record, store or serve the table of a validated ``state`` in the rollout cache.

    Called by ``run_episode`` before each ``score_actions``.  The first sighting of
    ``(levels, position, load)`` records its hash, the second stores its table, and
    later ones make the stored table the state's.  A served state is validated
    through ``available_actions``, as ``score_actions`` would.  Equal keys give
    bit-equal tables: the kernel reads a level only through the consume step, whose
    clamp turns -0.0 into 0.0, and as ``level + dispense / population`` with
    ``dispense > 0``.  Past ``_ROLLOUT_HASHES`` hashes or ``_ROLLOUT_VALUES`` level
    values that part is cleared.  Returns True when the table was served.
    """
    cache = config._cache
    if cache.state is state:
        return False
    key = state[:3]
    table = cache.stored.get(key)
    if table is not None:
        available_actions(state, config)
        cache.state, cache.table = state, table
        return True
    seen = cache.seen
    digest = hash(key)
    if digest not in seen:
        if len(seen) >= _ROLLOUT_HASHES:
            seen.clear()
        seen.add(digest)
        return False
    table = successors(state, config)
    values = len(table[0]) * config.n_villages
    if cache.held + values > _ROLLOUT_VALUES:
        cache.stored.clear()
        cache.held = 0
    cache.stored[key] = table
    cache.held += values
    return False


def _successor(state: WorldState, action: Action, config: EnvConfig) -> tuple[WorldState, float]:
    cache = config._cache
    scored, next_levels, index = cache.table if cache.state is state else successors(state, config)
    k = index.get(action)
    if k is None:
        raise IllegalActionError(f"action {action} is not available from {state}")
    dest, dispense = action
    # An equal action with float or bool fields would carry them into the state.
    if type(dest) is not int or type(dispense) is not int:
        raise IllegalActionError(f"action {action} must have int destination and dispense")
    load = config.capacity if dest == SOURCE else state.load - dispense
    cache.committed = nxt = _new(WorldState, (next_levels[k], dest, load, state.distributed_total + dispense))
    return nxt, scored[k][1]


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

    def reset(self) -> WorldState:
        """Start a new episode at random levels drawn from the episode's random stream."""
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
        return _new(StepOutcome, (nxt, reward, done))
