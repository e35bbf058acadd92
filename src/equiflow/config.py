"""Experiment configuration: one JSON document per experiment.

The shipped default reproduces the reference setup: four villages with the
published populations and consumption rules, a 60,000 l truck delivering in
15,000 l quanta, training episodes that end after 1,440,000 l and a fixed
evaluation scenario of (0, 300, 200, 200) that runs until 3,000,000 l.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .env import (
    SOURCE,
    ConfigurationError,
    EnvConfig,
    RandomReset,
    RoadNetwork,
    VillageSpec,
    WorldState,
)
from .qlearn import Hyperparams, hyper_from_dict, hyper_to_dict, reporting_malformed

__all__ = [
    "EvalSettings",
    "ExperimentConfig",
    "POLICY_KINDS",
    "default_env_config",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "dump_config",
    "evaluation_env",
    "evaluation_initial",
]

POLICY_KINDS = ("local", "adql", "eadql", "ecadql")

# Road graph used when no explicit topology is configured.  The exact map of
# the reference scenario is not published; this one keeps its qualitative
# structure: village 1 is the hub with many connections and village 2 is a
# dead end that forces full dispensing.
DEFAULT_EDGES: tuple[tuple[int, int], ...] = (
    (SOURCE, 0),
    (SOURCE, 1),
    (0, 1),
    (1, 0),
    (1, 3),
    (3, 1),
    (1, 2),
    (3, 2),
    (0, SOURCE),
    (2, SOURCE),
    (3, SOURCE),
)

DEFAULT_VILLAGES: tuple[VillageSpec, ...] = (
    VillageSpec(id=0, population=25, base_rate=4.0, high_rate=100.0, threshold=350.0),
    VillageSpec(id=1, population=260, base_rate=3.5, high_rate=9.0, threshold=250.0),
    VillageSpec(id=2, population=1000, base_rate=3.5, high_rate=50.0, threshold=350.0),
    VillageSpec(id=3, population=1050, base_rate=3.5, high_rate=16.0, threshold=100.0),
)


@dataclass(frozen=True)
class EvalSettings:
    """Evaluation protocol: scenario, admissibility slack, run count."""

    n_runs: int = 100
    epsilon_eval: float = 0.1
    mode: str = "fixed"  # "fixed": single scenario run; "random": aggregate
    fixed_levels: tuple[float, ...] = (0.0, 300.0, 200.0, 200.0)
    total_to_distribute: int = 3_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_levels", tuple(float(x) for x in self.fixed_levels))
        if self.mode not in ("fixed", "random"):
            raise ConfigurationError("eval mode must be 'fixed' or 'random'")
        if self.n_runs < 1:
            raise ConfigurationError("eval n_runs must be >= 1")
        if not 0.0 <= self.epsilon_eval < math.inf:
            raise ConfigurationError("epsilon_eval must be finite and >= 0")
        if self.total_to_distribute <= 0:
            raise ConfigurationError("eval total_to_distribute must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig
    hyper: Hyperparams = field(default_factory=Hyperparams)
    policy_kind: str = "eadql"
    eval: EvalSettings = field(default_factory=EvalSettings)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigurationError(f"policy_kind must be one of {POLICY_KINDS}")
        if self.policy_kind == "adql" and self.hyper.epsilon < 1.0:
            raise ConfigurationError("policy_kind 'adql' requires epsilon >= 1")
        if len(self.eval.fixed_levels) != self.env.n_villages:
            raise ConfigurationError("eval fixed_levels length must match the village count")


def default_env_config() -> EnvConfig:
    return EnvConfig(
        villages=DEFAULT_VILLAGES,
        network=RoadNetwork.from_edges(DEFAULT_EDGES, [v.id for v in DEFAULT_VILLAGES]),
        capacity=60_000,
        delivery_quantum=15_000,
        total_to_distribute=1_440_000,
        reset_mode=RandomReset(0.0, 600.0),
    )


def default_config() -> ExperimentConfig:
    return ExperimentConfig(env=default_env_config())


def evaluation_env(config: ExperimentConfig) -> EnvConfig:
    """The training environment with the evaluation water budget."""
    return replace(config.env, total_to_distribute=config.eval.total_to_distribute)


def evaluation_initial(config: ExperimentConfig) -> WorldState:
    """The fixed evaluation start: configured levels, truck full at the source."""
    return WorldState(config.eval.fixed_levels, SOURCE, config.env.capacity, 0)


# ---------------------------------------------------------------------------
# JSON marshalling

def _village_to_dict(v: VillageSpec) -> dict:
    return {
        "id": v.id,
        "population": v.population,
        "base_rate": v.base_rate,
        "high_rate": v.high_rate,
        "threshold": v.threshold,
    }


def env_to_dict(env: EnvConfig) -> dict:
    reset = {"mode": "random", "low": env.reset_mode.low, "high": env.reset_mode.high}
    return {
        "villages": [_village_to_dict(v) for v in env.villages],
        "edges": sorted([a, b] for a, b in env.network.edges),
        "capacity": env.capacity,
        "delivery_quantum": env.delivery_quantum,
        "total_to_distribute": env.total_to_distribute,
        "reset": reset,
    }


def env_from_dict(data: dict) -> EnvConfig:
    villages = tuple(
        VillageSpec(
            id=int(v["id"]),
            population=int(v["population"]),
            base_rate=float(v["base_rate"]),
            high_rate=float(v["high_rate"]),
            threshold=float(v["threshold"]),
        )
        for v in data["villages"]
    )
    network = RoadNetwork.from_edges(data["edges"], [v.id for v in villages])
    reset_data = data.get("reset", {"mode": "random", "low": 0.0, "high": 600.0})
    if reset_data["mode"] != "random":
        raise ConfigurationError(f"unknown reset mode {reset_data['mode']!r}")
    reset = RandomReset(float(reset_data.get("low", 0.0)), float(reset_data.get("high", 600.0)))
    return EnvConfig(
        villages=villages,
        network=network,
        capacity=int(data["capacity"]),
        delivery_quantum=int(data["delivery_quantum"]),
        total_to_distribute=int(data["total_to_distribute"]),
        reset_mode=reset,
    )


def _eval_to_dict(ev: EvalSettings) -> dict:
    return {
        "n_runs": ev.n_runs,
        "epsilon_eval": ev.epsilon_eval,
        "mode": ev.mode,
        "fixed_levels": list(ev.fixed_levels),
        "total_to_distribute": ev.total_to_distribute,
    }


def _eval_from_dict(data: dict) -> EvalSettings:
    return EvalSettings(
        n_runs=int(data["n_runs"]),
        epsilon_eval=float(data["epsilon_eval"]),
        mode=str(data["mode"]),
        fixed_levels=tuple(float(x) for x in data["fixed_levels"]),
        total_to_distribute=int(data["total_to_distribute"]),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "seed": config.seed,
        "policy_kind": config.policy_kind,
        "env": env_to_dict(config.env),
        "hyper": hyper_to_dict(config.hyper),
        "eval": _eval_to_dict(config.eval),
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    return ExperimentConfig(
        env=env_from_dict(data["env"]),
        hyper=hyper_from_dict(data["hyper"]),
        policy_kind=str(data.get("policy_kind", "eadql")),
        eval=_eval_from_dict(data["eval"]),
        seed=int(data["seed"]),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    with reporting_malformed(path):
        return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def dump_config(config: ExperimentConfig) -> str:
    """Canonical JSON text; parsing it back yields an equal configuration."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
