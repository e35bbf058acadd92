"""Checks of equiflow's outputs against the oracle and the method's properties.

Every check returns a list of problems (empty when the check passes), so one
run can report all of them.  None compares with a stored copy of earlier
output: each is recomputed from the oracle, from the seeds, or from a second
run of the same seeded computation.
"""
from __future__ import annotations

import random
from contextlib import contextmanager

from oracle import SOURCE, World

EQUITY_TOL = 1e-12
LEVEL_TOL = 1e-9
LAMBDA_TOL = 1e-12
MAX_PROBLEMS = 20


def _state_problem(expected, actual) -> str | None:
    """Why ``actual`` differs from the oracle's ``expected`` state, if it does."""
    levels, position, load, distributed = expected
    if (actual.position, actual.load, actual.distributed_total) != (position, load, distributed):
        return (
            f"truck state {(actual.position, actual.load, actual.distributed_total)}"
            f" != oracle {(position, load, distributed)}"
        )
    if len(actual.levels) != len(levels) or any(
        abs(a - b) > LEVEL_TOL for a, b in zip(actual.levels, levels)
    ):
        return f"levels {actual.levels} != oracle {levels}"
    return None


class TrainingChecker:
    """Observation-only ``step_hook`` that checks every training step it sees.

    On each step it confirms that the scored actions are exactly the oracle's
    legal actions with the oracle's successor equities, that the admissible
    list is exactly the scored entries within ``epsilon`` of the best, that a
    non-explored action lies in it, and that the state is the oracle's
    successor of the previous step's state and action.
    """

    def __init__(self, world: World, epsilon: float, reset_low: float, reset_high: float) -> None:
        self.world = world
        self.epsilon = epsilon
        self.reset_range = (reset_low, reset_high)
        self.problems: list[str] = []
        self.steps: dict[int, int] = {}
        self._last: tuple | None = None  # (episode, state, action)

    def _fail(self, episode: int, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"training episode {episode}: {message}")

    def _close_episode(self) -> None:
        """The previous episode's last step must spend the water budget."""
        if self._last is None:
            return
        episode, state, action = self._last
        delivered = self.world.step(state, action)[3]
        if delivered < self.world.budget:
            self._fail(episode, f"ended after {delivered} l of a {self.world.budget} l budget")

    def __call__(self, episode, state, scored, adm, action, explored) -> None:
        world = self.world
        self.steps[episode] = self.steps.get(episode, 0) + 1
        if self._last is not None and self._last[0] == episode:
            problem = _state_problem(world.step(self._last[1], self._last[2]), state)
            if problem:
                self._fail(episode, problem)
        else:
            self._close_episode()
            low, high = self.reset_range
            if (state.position, state.load, state.distributed_total) != (
                SOURCE, world.capacity, 0
            ) or not all(low <= x <= high for x in state.levels):
                self._fail(episode, f"bad reset state {state}")
        if state.distributed_total >= world.budget:
            self._fail(episode, f"stepped after the budget was spent: {state}")
        self._last = (episode, state, action)

        expected = world.successor_equities(state)
        if [sa.action for sa in scored] != [a for a, _ in expected]:
            self._fail(episode, f"scored actions {[sa.action for sa in scored]}"
                                f" != legal {[a for a, _ in expected]}")
            return
        for sa, (_, equity) in zip(scored, expected):
            if abs(sa.successor_alignment - equity) > EQUITY_TOL:
                self._fail(
                    episode, f"{sa.action} scored {sa.successor_alignment!r}, oracle {equity!r}"
                )
        cut = max(sa.successor_alignment for sa in scored) - self.epsilon
        if list(adm) != [sa for sa in scored if sa.successor_alignment >= cut]:
            self._fail(episode, f"admissible list {adm} is not the entries within epsilon")
        if not explored and action not in [sa.action for sa in adm]:
            self._fail(episode, f"greedy action {action} is not admissible")
        elif action not in [sa.action for sa in scored]:
            self._fail(episode, f"explored action {action} is not legal")

    def finish(self, lengths: list[int]) -> list[str]:
        """Problems found, given the per-episode lengths ``on_episode`` reported."""
        self._close_episode()
        self._last = None
        seen = [self.steps.get(o, 0) for o in range(len(lengths))]
        if seen != list(lengths) or len(self.steps) != len(lengths):
            self._fail(-1, f"hook saw {sum(seen)} steps, on_episode reported {sum(lengths)}")
        return self.problems


def check_rollout(world: World, traj, epsilon: float, tau: float) -> list[str]:
    """Replay one evaluation rollout with the oracle.

    States and rewards must match, every action must be within ``epsilon`` of
    the best legal action, and the delivered total must end in
    [budget, budget + capacity).
    """
    problems: list[str] = []
    state = tuple(traj.initial)
    n = len(traj.actions)
    if not (n == len(traj.rewards) == len(traj.violations) == len(traj.states)) or n == 0:
        return [f"rollout from {traj.initial}: ragged or empty trajectory"]
    for i, action in enumerate(traj.actions):
        if state[3] >= world.budget:
            problems.append(f"step {i}: stepped after the budget was spent")
            break
        options = dict(world.successor_equities(state))
        if tuple(action) not in options:
            problems.append(f"step {i}: illegal action {action} from {state}")
            break
        if options[tuple(action)] < max(options.values()) - epsilon - EQUITY_TOL:
            problems.append(f"step {i}: inadmissible action {action} at epsilon {epsilon}")
        expected = world.step(state, action)
        problem = _state_problem(expected, traj.states[i])
        if problem:
            problems.append(f"step {i}: {problem}")
            break
        if abs(traj.rewards[i] - world.equity(expected[0])) > EQUITY_TOL:
            problems.append(f"step {i}: reward {traj.rewards[i]!r} != oracle equity")
        if bool(traj.violations[i]) != (traj.rewards[i] < tau):
            problems.append(f"step {i}: violation flag disagrees with tau {tau}")
        state = tuple(traj.states[i])
        if len(problems) >= MAX_PROBLEMS:
            break
    delivered = traj.states[-1].distributed_total
    if not world.budget <= delivered < world.budget + world.capacity:
        problems.append(
            f"delivered {delivered} l, outside [{world.budget}, {world.budget + world.capacity})"
        )
    return problems


def oracle_score(world: World, traj) -> float:
    """Mean per-step equity of a rollout, recomputed by the oracle."""
    return sum(world.equity(s.levels) for s in traj.states) / len(traj.states)


def seeded_starts(seed: int, n_runs: int, n_villages: int, low: float, high: float) -> list:
    """The random-start levels of an n-run evaluation, derived from its seed."""
    master = random.Random(seed)
    run_seeds = [master.randrange(2**63) for _ in range(n_runs)]
    starts = []
    for run_seed in run_seeds:
        rng = random.Random(run_seed)
        starts.append(tuple(rng.uniform(low, high) for _ in range(n_villages)))
    return starts


def check_aggregate(world: World, agg, trajs: list, seed: int, n_runs: int, reset: tuple,
                    reference_initial, epsilon: float, tau: float) -> list[str]:
    """Check one ``aggregate_runs`` result against its captured rollouts.

    ``trajs`` holds the reference rollout first, then the random-start ones.
    """
    if len(trajs) != n_runs + 1:
        return [f"captured {len(trajs)} rollouts, expected {n_runs + 1}"]
    reference, runs = trajs[0], trajs[1:]
    problems = []
    if tuple(reference.initial) != tuple(reference_initial):
        problems.append(f"reference run starts at {reference.initial}")
    for traj, levels in zip(runs, seeded_starts(seed, n_runs, world.n, *reset)):
        if tuple(traj.initial) != (levels, SOURCE, world.capacity, 0):
            problems.append(f"run starts at {traj.initial}, seeded start is {levels}")
    for traj in trajs:
        problems += check_rollout(world, traj, epsilon, tau)[:MAX_PROBLEMS]
    if problems:
        return problems[:MAX_PROBLEMS]
    mean_score = sum(oracle_score(world, t) for t in runs) / n_runs
    if abs(agg.mean_score - mean_score) > EQUITY_TOL:
        problems.append(f"mean_score {agg.mean_score!r} != oracle mean {mean_score!r}")
    mean_length = sum(len(t.states) for t in runs) / n_runs
    if agg.mean_length != mean_length:
        problems.append(f"mean_length {agg.mean_length!r} != {mean_length!r}")
    if agg.reference_length != len(reference.states):
        problems.append(f"reference_length {agg.reference_length} != {len(reference.states)}")
    return problems


def check_lambda_bound(stats) -> list[str]:
    """The projection keeps lam <= R_hat / V_hat wherever V_hat > 0."""
    problems = []
    for s in stats:
        if s.lam < 0.0:
            problems.append(f"episode {s.episode}: lam {s.lam!r} < 0")
        elif s.violation_estimate > 0.0 and (
            s.lam > s.reward_estimate / s.violation_estimate + LAMBDA_TOL
        ):
            problems.append(
                f"episode {s.episode}: lam {s.lam!r} above its bound"
                f" {s.reward_estimate / s.violation_estimate!r}"
            )
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_digest(label: str, expected: str, actual: str) -> list[str]:
    return [] if expected == actual else [f"{label}: digest {actual} != {expected}"]


@contextmanager
def after_each_rollout(evaluate_module, fn):
    """Call ``fn`` with every result ``run_episode`` returns in the block.

    ``aggregate_runs`` looks ``run_episode`` up in its module's namespace, so
    a pass-through bound there sees every rollout, reference runs included.
    """
    inner = evaluate_module.run_episode

    def run_episode(*args, **kwargs):
        result = inner(*args, **kwargs)
        fn(result)
        return result

    evaluate_module.run_episode = run_episode
    try:
        yield
    finally:
        evaluate_module.run_episode = inner


@contextmanager
def capture_rollouts(evaluate_module):
    """Collect every trajectory ``run_episode`` returns while the block runs."""
    captured: list = []
    with after_each_rollout(evaluate_module, lambda result: captured.append(result[0])):
        yield captured
