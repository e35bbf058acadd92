"""Non-finite numbers are rejected where they enter the library."""
import math

import pytest

from equiflow import (
    Action,
    ConfigurationError,
    EvalSettings,
    Hyperparams,
    InvalidStateError,
    LagrangeState,
    LevelParams,
    LocalPolicy,
    RandomReset,
    ScoredAction,
    VillageSpec,
    WorldState,
    admissible_from,
    run_episode,
)
from equiflow.config import default_env_config

ENV = default_env_config()
START = WorldState((0.0, 300.0, 200.0, 200.0), -1, 60000, 0)


def village(**changes):
    spec = dict(id=0, population=25, base_rate=4.0, high_rate=100.0, threshold=350.0)
    return VillageSpec(**{**spec, **changes})


ENTRY_POINTS = {
    "Hyperparams.epsilon": (ValueError, lambda x: Hyperparams(epsilon=x)),
    "EvalSettings.epsilon_eval": (ConfigurationError, lambda x: EvalSettings(epsilon_eval=x)),
    "VillageSpec.base_rate": (ConfigurationError, lambda x: village(base_rate=x)),
    "VillageSpec.high_rate": (ConfigurationError, lambda x: village(high_rate=x)),
    "VillageSpec.threshold": (ConfigurationError, lambda x: village(threshold=x)),
    "validate_state.levels": (
        InvalidStateError,
        lambda x: ENV.validate_state(START._replace(levels=(0.0, x, 200.0, 200.0))),
    ),
    "admissible_from.epsilon": (
        ValueError,
        lambda x: admissible_from([ScoredAction(Action(0, 0), 0.5)], x),
    ),
    "run_episode.epsilon_eval": (
        ValueError,
        lambda x: run_episode(LocalPolicy(), ENV, START, x, 0.7),
    ),
    "run_episode.tau": (ValueError, lambda x: run_episode(LocalPolicy(), ENV, START, 0.1, x)),
    "RandomReset.high": (ConfigurationError, lambda x: RandomReset(0.0, x)),
    "LevelParams.desired": (ValueError, lambda x: LevelParams(desired=x)),
    "LagrangeState.lam": (ValueError, lambda x: LagrangeState(lam=x)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_value_is_rejected(entry, value):
    error, build = ENTRY_POINTS[entry]
    with pytest.raises(error):
        build(value)
