"""Equity-driven water delivery: simulator, admissible policies, learners."""

from .admissible import admissible_from, best_scored, is_violation, score_actions
from .config import (
    EvalSettings,
    ExperimentConfig,
    default_config,
    default_env_config,
    dump_config,
    evaluation_env,
    evaluation_initial,
    load_config,
)
from .env import (
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
    RandomReset,
    RoadNetwork,
    ScoredAction,
    StepOutcome,
    VillageSpec,
    WorldState,
    available_actions,
    predict_transition,
)
from .equity import make_equity_scorer
from .evaluate import (
    AggregateResult,
    LocalPolicy,
    ModelPolicy,
    RunMetrics,
    SummaryRow,
    Trajectory,
    aggregate_runs,
    normalize_series,
    run_episode,
)
from .qlearn import (
    EpisodeStats,
    Hyperparams,
    LagrangeState,
    LevelisedState,
    LevelParams,
    QModel,
    double_q_update,
    lagrange_update,
    levelise,
    load_model,
    save_model,
    train_eadql,
    train_ecadql,
)

__version__ = "0.1.0"
