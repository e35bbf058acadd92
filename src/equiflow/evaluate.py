"""Policy evaluation: greedy rollouts, aggregate statistics, CSV export.

Evaluation is always greedy (no exploration).  A run records the per-step
equity rewards and violation flags; the score of a run is the plain mean of
its rewards over the run's own length.  When many runs of different lengths
are averaged into one reward series, the series are first cropped to 1.2x a
reference run's length and the shorter ones padded by repeating their final
value -- scores and violation ratios are never computed on padded series.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import astuple, dataclass, fields
from itertools import accumulate
from pathlib import Path
from typing import Protocol, Sequence

from .admissible import admissible_from, best_scored, is_violation, score_actions
from .env import Action, EnvConfig, Episode, ScoredAction, WorldState, _rollout_successors
from .qlearn import QModel, _argmax_q, levelise

__all__ = [
    "RolloutError",
    "Trajectory",
    "RunMetrics",
    "Policy",
    "LocalPolicy",
    "ModelPolicy",
    "run_episode",
    "AggregateResult",
    "aggregate_runs",
    "normalize_series",
    "write_series_csv",
    "write_summary_csv",
    "write_compare_series_csv",
    "SummaryRow",
]


class RolloutError(RuntimeError):
    """A rollout cannot finish: back at a state, it has taken every admissible action from there
    since the last delivery, or it ran past ``EnvConfig.step_limit`` steps."""


@dataclass
class Trajectory:
    """One evaluated episode: the action taken and the state it produced."""

    initial: WorldState
    actions: list[Action]
    rewards: list[float]
    violations: list[bool]
    states: list[WorldState]

    @property
    def length(self) -> int:
        return len(self.rewards)


@dataclass
class RunMetrics:
    score: float  # mean per-step reward over the original length
    violation_ratio: float
    final_distribution: tuple[float, ...]
    running_average: list[float]


class Policy(Protocol):
    """Picks one action of the (non-empty) epsilon-admissible set of ``state``.

    Back at a state without a delivery in between, ``run_episode`` offers only
    the admissible actions not yet taken from there, so a loop is left.
    """

    name: str

    def choose(self, state: WorldState, admissible: Sequence[ScoredAction]) -> Action: ...


class LocalPolicy:
    """Greedy one-step equity maximizer; the non-learned baseline."""

    name = "local"

    def choose(self, state: WorldState, admissible: Sequence[ScoredAction]) -> Action:
        return best_scored(admissible).action


class ModelPolicy:
    """Greedy Q-model policy restricted to the epsilon-admissible set."""

    def __init__(self, model: QModel) -> None:
        self.model = model
        self.name = model.kind

    def choose(self, state: WorldState, admissible: Sequence[ScoredAction]) -> Action:
        return _argmax_q(self.model, levelise(state, self.model.hyper.levels),
                         [sa[0] for sa in admissible])


def run_episode(
    policy: Policy,
    config: EnvConfig,
    initial: WorldState,
    epsilon_eval: float,
    tau: float,
) -> tuple[Trajectory, RunMetrics]:
    """Roll the policy greedily from ``initial`` until the budget is delivered.

    Back at a state it left since the last delivery, the policy is offered only
    the admissible actions it has not taken from there.  Raises RolloutError when
    none is left, or past ``config.step_limit`` steps, as in training.  A state
    whose ``(levels, position, load)`` was scored twice before on ``config``, in
    any rollout, is served its table from the config's rollout cache, bit-equal
    to a fresh one (see ``env``).
    """
    if not 0.0 <= epsilon_eval < math.inf:
        raise ValueError("epsilon_eval must be finite and >= 0")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must be in [0, 1)")
    max_steps = config.step_limit
    episode = Episode(config)
    state = episode.reset_to(initial)
    traj = Trajectory(initial=initial, actions=[], rewards=[], violations=[], states=[])
    actions, rewards, violations, states = traj.actions, traj.rewards, traj.violations, traj.states
    # A delivery raises distributed_total, so a state recurs only between two
    # deliveries, and the actions taken from it are those since the last one.
    taken: dict[WorldState, list[Action]] = {}
    done = episode.done
    while not done:
        if len(rewards) >= max_steps:
            raise RolloutError(f"policy {policy.name} exceeded {max_steps} steps without finishing")
        _rollout_successors(state, config)
        admissible = admissible_from(score_actions(state, config), epsilon_eval)
        before = taken.setdefault(state, [])  # hashes the state once
        if before:
            admissible = [sa for sa in admissible if sa[0] not in before]
            if not admissible:
                raise RolloutError(f"policy {policy.name} revisited a state at step {len(rewards)} and has "
                                   "taken every admissible action from it since the last delivery; "
                                   "the rollout cannot finish")
        action = policy.choose(state, admissible)
        if action not in [sa[0] for sa in admissible]:
            raise AssertionError(f"policy {policy.name} chose an inadmissible action {action}")
        before.append(action)
        state, reward, done = episode.step(action)
        actions.append(action)
        rewards.append(reward)
        violations.append(is_violation(reward, tau))
        states.append(state)
    return traj, compute_metrics(traj)


def compute_metrics(traj: Trajectory) -> RunMetrics:
    # Running sums left to right, as a loop from 0.0 adds them (rewards are never -0.0).
    running = [acc / k for k, acc in enumerate(accumulate(traj.rewards), start=1)]
    n = traj.length
    return RunMetrics(
        score=running[-1] if n else 0.0,
        violation_ratio=sum(traj.violations) / n if n else 0.0,
        final_distribution=traj.states[-1].levels if n else traj.initial.levels,
        running_average=running,
    )


def normalize_series(
    series_list: Sequence[Sequence[float]], reference_length: int
) -> list[list[float]]:
    """Crop at floor(1.2 x reference length), then pad with each last value."""
    if not series_list or any(len(s) == 0 for s in series_list):
        raise ValueError("series list must be non-empty with non-empty series")
    if reference_length < 1:
        raise ValueError("reference_length must be >= 1")
    cap = (12 * reference_length) // 10
    cropped = [list(s[:cap]) for s in series_list]
    target = max(len(c) for c in cropped)
    return [c + [c[-1]] * (target - len(c)) for c in cropped]


@dataclass
class AggregateResult:
    mean_series: list[float]
    mean_score: float
    mean_violation_ratio: float
    mean_length: float
    reference_length: int
    reference_trajectory: Trajectory
    reference_metrics: RunMetrics
    runs: list[RunMetrics]


def aggregate_runs(
    policy: Policy,
    config: EnvConfig,
    n_runs: int,
    seed: int,
    epsilon_eval: float,
    tau: float,
    reference_initial: WorldState,
) -> AggregateResult:
    """Evaluate over random initial states; per-run seeds derive from ``seed``.

    The reference run from ``reference_initial`` sets the series crop length.
    Metrics are averaged over original (uncropped, unpadded) run lengths.  A
    RolloutError names its run: ``reference run`` or ``run k (seed s)``, k from 0.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")

    def run(name: str, initial: WorldState) -> tuple[Trajectory, RunMetrics]:
        try:
            return run_episode(policy, config, initial, epsilon_eval, tau)
        except RolloutError as exc:
            raise RolloutError(f"{name}: {exc}") from None

    ref_traj, ref_metrics = run("reference run", reference_initial)
    master = random.Random(seed)
    run_seeds = [master.randrange(2**63) for _ in range(n_runs)]

    series: list[list[float]] = []
    runs: list[RunMetrics] = []
    for k, run_seed in enumerate(run_seeds):
        traj, metrics = run(f"run {k} (seed {run_seed})", Episode(config, seed=run_seed).reset())
        series.append(traj.rewards)
        runs.append(metrics)

    normalized = normalize_series(series, ref_traj.length)
    mean_series = [sum(col) / n_runs for col in zip(*normalized)]
    return AggregateResult(
        mean_series=mean_series,
        mean_score=sum(m.score for m in runs) / n_runs,
        mean_violation_ratio=sum(m.violation_ratio for m in runs) / n_runs,
        mean_length=sum(map(len, series)) / n_runs,
        reference_length=ref_traj.length,
        reference_trajectory=ref_traj,
        reference_metrics=ref_metrics,
        runs=runs,
    )


# ---------------------------------------------------------------------------
# CSV export

@dataclass
class SummaryRow:
    policy: str
    epsilon_train: float
    epsilon_eval: float
    tau: float
    score: float
    violation_ratio: float
    episode_length: float
    seed: int


def write_series_csv(path: str | Path, traj: Trajectory, metrics: RunMetrics) -> None:
    n_villages = len(traj.initial.levels)
    header = ["step", "reward", "running_average", "violation", "position", "load"]
    header += [f"x{i}" for i in range(n_villages)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, state in enumerate(traj.states):
            writer.writerow([i + 1, traj.rewards[i], metrics.running_average[i],
                             int(traj.violations[i]), state.position, state.load, *state.levels])


def write_summary_csv(path: str | Path, rows: Sequence[SummaryRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(SummaryRow))
        writer.writerows(astuple(row) for row in rows)


def write_compare_series_csv(
    path: str | Path, named_series: Sequence[tuple[str, Sequence[float]]]
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "step", "mean_reward"])
        for name, series in named_series:
            writer.writerows([name, i, value] for i, value in enumerate(series, start=1))
