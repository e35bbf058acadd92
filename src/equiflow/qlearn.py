"""Tabular average-reward double Q-learning over discretized world states.

States are keyed by mapping each village's continuous level into a small
number of bands (a red band at the bottom, a green band at the top, and a
configurable count of evenly sized bands in between) plus the truck position
and load.  Two lazily grown Q-tables are updated in random alternation
against a running average-reward estimate; action choice is always
restricted to the epsilon-admissible set.

The constrained trainer additionally shapes rewards with a learned penalty
weight: every step whose equity falls below ``tau`` costs ``lam``, and after
each episode ``lam`` grows with the episode's violation count but is
projected so that violation-free episodes always remain preferable.
"""
from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence

from .admissible import admissible_from, is_violation, score_actions
from .env import Action, ConfigurationError, EnvConfig, Episode, WorldState

__all__ = [
    "LevelParams",
    "LevelisedState",
    "levelise",
    "Hyperparams",
    "QModel",
    "LagrangeState",
    "lagrange_update",
    "double_q_update",
    "EpisodeStats",
    "train_eadql",
    "train_ecadql",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class LevelParams:
    """Discretization bands for per-inhabitant water levels.

    ``min_requirement`` and ``desired`` set the band boundaries:
    red bound = max(0, min_requirement - (desired + min_requirement) / 2),
    green bound = desired + (desired + min_requirement) / 2.  ``hidden``
    bands split the space in between.
    """

    min_requirement: float = 100.0
    desired: float = 350.0
    hidden: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.min_requirement < self.desired < math.inf:
            raise ValueError("need 0 < min_requirement < desired < inf")
        if self.hidden < 1:
            raise ValueError("need at least one hidden band")
        if self.green_bound == math.inf:
            # A finite desired level near the float maximum still overflows here.
            raise ValueError("desired is too large: the green bound overflows")

    @property
    def red_bound(self) -> float:
        half = (self.desired + self.min_requirement) / 2.0
        return max(0.0, self.min_requirement - half)

    @property
    def green_bound(self) -> float:
        return self.desired + (self.desired + self.min_requirement) / 2.0


class LevelisedState(NamedTuple):
    """Discrete Q-table key: level band per village, truck position, load."""

    levels: tuple[int, ...]
    position: int
    load: int


def levelise(state: WorldState, params: LevelParams) -> LevelisedState:
    """Map a continuous state onto its discrete Q-table key."""
    red = params.red_bound
    green = params.green_bound
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
    return LevelisedState(tuple(bands), state.position, state.load)


@dataclass(frozen=True)
class Hyperparams:
    alpha: float = 0.03  # Q-table step size
    beta: float = 0.01  # average-reward estimator step size
    alpha_lambda: float = 0.0003  # penalty-weight step size
    beta_v: float = 0.001  # violation-ratio estimator step size
    beta_r: float = 0.001  # episode-reward estimator step size
    epsilon: float = 0.1  # admissibility slack
    tau: float = 0.7  # equity floor for the constrained trainer
    episodes: int = 30_000
    p0: float = 0.3  # initial exploration rate, decays linearly to 0
    explore_admissible_only: bool = False
    levels: LevelParams = field(default_factory=LevelParams)

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "alpha_lambda", "beta_v", "beta_r"):
            rate = getattr(self, name)
            if not 0.0 < rate < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if not 0.0 <= self.tau < 1.0:
            # tau = 0 disables the constraint (no state scores below zero).
            raise ValueError("tau must be in [0, 1)")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must be in [0, 1]")


@dataclass(frozen=True)
class LagrangeState:
    """Penalty weight plus the slow estimates that bound it."""

    lam: float = 0.0
    reward_estimate: float = 0.0  # expected episode-average raw reward
    violation_estimate: float = 0.0  # expected per-step violation ratio

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")


def lagrange_update(
    lag: LagrangeState, violations: int, alpha_lambda: float
) -> tuple[LagrangeState, bool]:
    """Grow the penalty weight with the episode's violation count, projected.

    The projection caps ``lam`` at reward_estimate / violation_estimate so a
    violation-free episode always keeps a higher shaped return than any
    violating one; no cap applies while the violation estimate is zero.
    Returns the new state and whether the projection cut the step short.
    """
    if violations < 0:
        raise ValueError("violations must be >= 0")
    lam = lag.lam + alpha_lambda * violations
    clamped = False
    if lag.violation_estimate > 0.0:
        bound = lag.reward_estimate / lag.violation_estimate
        if lam > bound:
            lam = bound
            clamped = True
    return replace(lag, lam=lam), clamped


class QModel:
    """Average-reward estimate and two lazily grown Q-tables, each {state key: {action: value}}."""

    def __init__(self, hyper: Hyperparams, kind: str = "eadql") -> None:
        self.hyper = hyper
        self.kind = kind
        self.qa: dict[Hashable, dict[Action, float]] = {}
        self.qb: dict[Hashable, dict[Action, float]] = {}
        self.avg_reward = 0.0
        self.lagrange: LagrangeState | None = None


def _argmax_q(model: QModel, key: Hashable, actions: Sequence[Action]) -> Action:
    """First action maximizing qa+qb, in the given deterministic order."""
    row_a, row_b = model.qa.get(key, {}), model.qb.get(key, {})
    best_action = actions[0]
    best_value = row_a.get(best_action, 0.0) + row_b.get(best_action, 0.0)
    for a in actions[1:]:
        v = row_a.get(a, 0.0) + row_b.get(a, 0.0)
        if v > best_value:
            best_value = v
            best_action = a
    return best_action


def double_q_update(
    model: QModel,
    key: Hashable,
    action: Action,
    next_key: Hashable,
    next_actions: Sequence[Action],
    reward: float,
    rng: random.Random,
) -> float:
    """One differential double-Q update; returns the TD error.

    ``next_actions`` is the admissible set the caller computed for the next
    state; the bootstrap maximizes the randomly selected companion table
    over exactly that set.
    """
    if not next_actions:
        raise ValueError("next_actions must not be empty")
    q_upd, q_sel = (model.qa, model.qb) if rng.random() < 0.5 else (model.qb, model.qa)
    next_row = q_sel.get(next_key, {})
    best = -math.inf
    for a in next_actions:
        v = next_row.get(a, 0.0)
        if v > best:
            best = v
    row = q_upd.get(key)
    current = 0.0 if row is None else row.get(action, 0.0)
    delta = reward - model.avg_reward + best - current
    if delta != 0.0:
        model.avg_reward += model.hyper.beta * delta
        if row is None:
            row = q_upd[key] = {}
        row[action] = current + model.hyper.alpha * delta
    return delta


class EpisodeStats(NamedTuple):
    """Per-episode training telemetry."""

    episode: int
    length: int
    reward_mean: float  # raw (pre-penalty) per-step mean
    violations: int
    exploration: float
    avg_reward_estimate: float
    lam: float
    reward_estimate: float
    violation_estimate: float
    clamped: bool


StepHook = Callable[[int, WorldState, Sequence, Sequence, Action, bool], None]


def train_eadql(
    config: EnvConfig,
    hyper: Hyperparams,
    seed: int,
    on_episode: Callable[[EpisodeStats], None] | None = None,
    step_hook: StepHook | None = None,
) -> QModel:
    """Train an epsilon-admissible average-reward double-Q policy."""
    return _train(config, hyper, seed, constrained=False, on_episode=on_episode, step_hook=step_hook)


def train_ecadql(
    config: EnvConfig,
    hyper: Hyperparams,
    seed: int,
    on_episode: Callable[[EpisodeStats], None] | None = None,
    step_hook: StepHook | None = None,
) -> QModel:
    """Train the constrained variant with penalty-shaped rewards."""
    return _train(config, hyper, seed, constrained=True, on_episode=on_episode, step_hook=step_hook)


def _train(
    config: EnvConfig,
    hyper: Hyperparams,
    seed: int,
    constrained: bool,
    on_episode: Callable[[EpisodeStats], None] | None,
    step_hook: StepHook | None,
) -> QModel:
    rng = random.Random(seed)
    if constrained:
        kind = "ecadql"
    else:
        kind = "adql" if hyper.epsilon >= 1.0 else "eadql"
    model = QModel(hyper, kind=kind)
    lag = LagrangeState()
    episode = Episode(config, rng=rng)
    eps = hyper.epsilon
    tau = hyper.tau
    n_episodes = hyper.episodes
    key_params = hyper.levels

    for o in range(n_episodes):
        p = hyper.p0 * (1.0 - o / n_episodes)
        state = episode.reset()
        key = levelise(state, key_params)
        scored = score_actions(state, config)
        adm = admissible_from(scored, eps)
        actions = [sa.action for sa in adm]
        steps = 0
        raw_sum = 0.0
        violations = 0
        while not episode.done:
            if p > 0.0 and rng.random() < p:
                pool = adm if hyper.explore_admissible_only else scored
                action = pool[rng.randrange(len(pool))].action
                explored = True
            else:
                action = _argmax_q(model, key, actions)
                explored = False
            if step_hook is not None:
                step_hook(o, state, scored, adm, action, explored)
            outcome = episode.step(action)
            reward = outcome.reward
            raw_sum += reward
            if constrained and is_violation(reward, tau):
                violations += 1
                reward = reward - lag.lam
            next_state = outcome.next_state
            next_key = levelise(next_state, key_params)
            next_scored = score_actions(next_state, config)
            next_adm = admissible_from(next_scored, eps)
            next_actions = [sa.action for sa in next_adm]
            double_q_update(model, key, action, next_key, next_actions, reward, rng)
            state, key, scored, adm, actions = next_state, next_key, next_scored, next_adm, next_actions
            steps += 1

        clamped = False
        if constrained:
            v_hat = hyper.beta_v * (violations / steps) + (1.0 - hyper.beta_v) * lag.violation_estimate
            r_hat = hyper.beta_r * (raw_sum / steps) + (1.0 - hyper.beta_r) * lag.reward_estimate
            lag = LagrangeState(lag.lam, r_hat, v_hat)
            lag, clamped = lagrange_update(lag, violations, hyper.alpha_lambda)
        if on_episode is not None:
            on_episode(
                EpisodeStats(
                    episode=o,
                    length=steps,
                    reward_mean=raw_sum / steps if steps else 0.0,
                    violations=violations,
                    exploration=p,
                    avg_reward_estimate=model.avg_reward,
                    lam=lag.lam,
                    reward_estimate=lag.reward_estimate,
                    violation_estimate=lag.violation_estimate,
                    clamped=clamped,
                )
            )
    if constrained:
        model.lagrange = lag
    return model


# ---------------------------------------------------------------------------
# Persistence

_FORMAT = "equiflow-qmodel"
_VERSION = 2


def _encode_state_key(key: LevelisedState) -> str:
    return f"{','.join(map(str, key.levels))}|{key.position}|{key.load}"


def _decode_state_key(text: str) -> LevelisedState:
    try:
        bands, position, load = text.split("|")
        return LevelisedState(tuple(map(int, bands.split(","))), int(position), int(load))
    except ValueError:
        raise ValueError(f"malformed state key {text!r}") from None


def _encode_action(action: Action) -> str:
    return f"{action.destination},{action.dispense}"


def _decode_action(text: str) -> Action:
    try:
        dest, dispense = text.split(",")
        return Action(int(dest), int(dispense))
    except ValueError:
        raise ValueError(f"malformed action key {text!r}") from None


def _table_to_groups(table: dict) -> dict[str, dict[str, float]]:
    """Version-2 layout: {state key: {action: value}}, both levels sorted as strings."""
    rows = {_encode_state_key(key): row for key, row in table.items()}
    return {text: dict(sorted((_encode_action(a), v) for a, v in rows[text].items()))
            for text in sorted(rows)}


def _groups_to_table(groups: object) -> dict:
    """Read the version-2 layout written by ``_table_to_groups``."""
    if not isinstance(groups, dict):
        raise ValueError(f"expected a JSON object, got {type(groups).__name__}")
    actions: dict[str, Action] = {}  # one Action per distinct key, shared by its entries
    table = {}
    for text, row in groups.items():
        decoded = table.setdefault(_decode_state_key(text), {})
        try:
            if not isinstance(row, dict):
                raise ValueError(f"expected a JSON object, got {type(row).__name__}")
            for action_text, value in row.items():
                action = actions.get(action_text)
                if action is None:
                    action = actions[action_text] = _decode_action(action_text)
                try:
                    decoded[action] = as_float(value)
                except ValueError as exc:
                    raise ValueError(f"action {action_text!r}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"state {text!r}: {exc}") from exc
    return table


def _rows_to_table(rows: list) -> dict:
    """Read the version-1 layout: a list of [state key, action, value] rows."""
    groups: dict = {}
    for key, action, value in rows:
        groups.setdefault(key, {})[action] = value
    return _groups_to_table(groups)


class KeyPathError(ConfigurationError):
    """A config or model entry is unknown, missing or malformed; the message names its key path."""


def read_fields(data: object, converters: dict[str, Callable], where: str = "") -> dict:
    """Convert the JSON object ``data``, which must have exactly the keys of ``converters``.

    ``where`` is the key path of ``data`` in its document ("" at the top);
    every section of a config or model document is read through here.
    """
    at = f"{where}: " if where else ""
    if not isinstance(data, dict):
        raise KeyPathError(f"{at}expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(converters))
    if unknown:
        raise KeyPathError(f"{at}unknown keys {unknown}")
    out = {}
    for key, convert in converters.items():
        if key not in data:
            raise KeyPathError(f"{at}missing key {key!r}")
        try:
            out[key] = convert(data[key])
        except KeyPathError:
            raise
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise KeyPathError(f"{where}.{key}: {exc}" if where else f"{key}: {exc}") from exc
    return out


def as_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def as_int(value: object) -> int:
    if isinstance(value, float) and int(value) == value:  # int() rejects NaN and infinity
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def as_float(value: object) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value):
            return float(value)
        raise ValueError(f"expected a finite number, got {value!r}")
    raise ValueError(f"expected a number, got {value!r}")


def as_str(value: object) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {value!r}")


_LEVEL_FIELDS = {"min_requirement": as_float, "desired": as_float, "hidden": as_int}
_HYPER_FLOATS = ("alpha", "beta", "alpha_lambda", "beta_v", "beta_r", "epsilon", "tau", "p0")
_HYPER_FIELDS = {
    **dict.fromkeys(_HYPER_FLOATS, as_float),
    "episodes": as_int,
    "explore_admissible_only": as_bool,
    "levels": lambda data: LevelParams(**read_fields(data, _LEVEL_FIELDS, "hyper.levels")),
}
_LAGRANGE_FIELDS = dict.fromkeys(("lam", "reward_estimate", "violation_estimate"), as_float)


def hyper_from_dict(data: object) -> Hyperparams:
    return Hyperparams(**read_fields(data, _HYPER_FIELDS, "hyper"))


_MODEL_FIELDS = {"format": as_str, "version": as_int, "kind": as_str, "hyper": hyper_from_dict,
                 "avg_reward": as_float,
                 "lagrange": lambda data: None if data is None
                 else LagrangeState(**read_fields(data, _LAGRANGE_FIELDS, "lagrange"))}
_TABLE_READERS = {1: _rows_to_table, 2: _groups_to_table}  # by model file version


def save_model(model: QModel, path: str | Path) -> None:
    """Write the model as compact version-2 JSON; loading reproduces evaluation bit-exactly."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": model.kind,
        "hyper": asdict(model.hyper),
        "avg_reward": model.avg_reward,
        "lagrange": None if model.lagrange is None else asdict(model.lagrange),
        "qa": _table_to_groups(model.qa),
        "qb": _table_to_groups(model.qb),
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


@contextmanager
def reporting_malformed(path: str | Path) -> Iterator[None]:
    """Report any malformed or invalid entry of ``path`` as a ConfigurationError naming it."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def load_model(path: str | Path) -> QModel:
    """Read a model file of any version in ``_TABLE_READERS``."""
    with reporting_malformed(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            raise ValueError("not a recognised model file")
        version = doc.get("version")
        read_table = _TABLE_READERS.get(version) if type(version) is int else None
        if read_table is None:
            raise ValueError(f"model file version {version!r} is not supported; "
                             f"this build reads versions {sorted(_TABLE_READERS)}")
        fields = read_fields(doc, {**_MODEL_FIELDS, "qa": read_table, "qb": read_table})
    model = QModel(fields["hyper"], kind=fields["kind"])
    model.avg_reward, model.lagrange = fields["avg_reward"], fields["lagrange"]
    model.qa, model.qb = fields["qa"], fields["qb"]
    return model
