"""Show that each benchmark check rejects a tampered input.

    python3 bench/selftest.py

Runs in about a second.  Builds real outputs with equiflow (a local-policy
rollout, scored training steps, a short eps-CADQL run), confirms that every
check accepts them, then tampers with each and confirms the check rejects
it.  Exits 1 if any check fails either way.
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    TrainingChecker,
    capture_rollouts,
    check_aggregate,
    check_digest,
    check_lambda_bound,
    check_rollout,
)
from oracle import World  # noqa: E402

import equiflow as ef  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rejects(problems: list[str], word: str) -> bool:
    return any(word in p for p in problems)


def check_oracle_gini() -> None:
    """The oracle's rank formula against the literal pairwise definition."""
    rng = random.Random(5)
    small = World({**DOC["env"], "villages": [
        {**v, "population": p} for v, p in zip(DOC["env"]["villages"], (3, 1, 4, 2))
    ]})
    for _ in range(20):
        levels = [rng.choice([0.0, rng.uniform(0, 500)]) for _ in range(small.n)]
        people = [x for x, w in zip(levels, small.populations) for _ in range(w)]
        total = sum(people)
        pairwise = 1.0 if total == 0.0 else sum(
            abs(a - b) for a, b in combinations(people, 2)
        ) * 2 / (2 * len(people) * total)
        if abs(small.gini(levels) - pairwise) > 1e-12:
            expect(False, f"oracle gini {small.gini(levels)} != pairwise {pairwise}")
            return
    expect(small.gini([0.0] * small.n) == 1.0, "oracle gini of an all-zero vector is 1")
    expect(True, "oracle gini agrees with the pairwise definition")


def check_rollouts(env, world: World) -> None:
    initial = ef.WorldState((0.0, 300.0, 200.0, 200.0), ef.SOURCE, env.capacity, 0)
    eps, tau = 0.01, 0.7
    traj, _ = ef.run_episode(ef.LocalPolicy(), env, initial, eps, tau)
    expect(not check_rollout(world, traj, eps, tau), "a real rollout passes")

    # An inadmissible action swapped in at the first step that has one.
    for i, state in enumerate([traj.initial] + traj.states[:-1]):
        options = world.successor_equities(tuple(state))
        best = max(e for _, e in options)
        bad = [a for a, e in options if e < best - eps]
        if bad:
            break
    tampered = replace(traj, actions=list(traj.actions))
    tampered.actions[i] = ef.Action(*bad[0])
    expect(rejects(check_rollout(world, tampered, eps, tau), "inadmissible"),
           "an inadmissible action is rejected")

    # One village level altered in the middle of the run.
    k = len(traj.states) // 2
    levels = list(traj.states[k].levels)
    levels[1] += 0.5
    tampered = replace(traj, states=list(traj.states))
    tampered.states[k] = traj.states[k]._replace(levels=tuple(levels))
    expect(rejects(check_rollout(world, tampered, eps, tau), "levels"),
           "an altered level is rejected")

    # A reward that is not the equity of the produced state.
    tampered = replace(traj, rewards=list(traj.rewards))
    tampered.rewards[k] += 1e-6
    expect(rejects(check_rollout(world, tampered, eps, tau), "reward"),
           "an altered reward is rejected")

    # A run cut short of its water budget.
    short = replace(traj, actions=traj.actions[:-1], rewards=traj.rewards[:-1],
                    violations=traj.violations[:-1], states=traj.states[:-1])
    expect(rejects(check_rollout(world, short, eps, tau), "delivered"),
           "a run that stops before the budget is rejected")

    # An aggregate whose mean score disagrees with the oracle's rewards.
    n_runs, seed = 3, 11
    with capture_rollouts(ef.evaluate) as trajs:
        agg = ef.aggregate_runs(ef.LocalPolicy(), env, n_runs, seed, eps, tau, initial)
    args = (world, agg, trajs, seed, n_runs, (0.0, 600.0), initial, eps, tau)
    expect(not check_aggregate(*args), "a real aggregate passes")
    agg.mean_score += 1e-9
    expect(rejects(check_aggregate(*args), "mean_score"), "a wrong mean_score is rejected")
    agg.mean_score -= 1e-9
    expect(rejects(check_aggregate(world, agg, trajs, seed + 1, *args[4:]), "seeded start"),
           "rollouts from other starts are rejected")


def check_training_steps(env, world: World) -> None:
    eps = 0.1
    episode = ef.Episode(env, seed=3)
    while True:  # a reset state with an action outside the admissible list
        state = episode.reset()
        scored = ef.score_actions(state, env)
        adm = ef.admissible_from(scored, eps)
        outside = [sa for sa in scored if sa not in adm]
        if outside:
            break

    def hook_problems(scored, adm, action, explored) -> list[str]:
        checker = TrainingChecker(world, eps, 0.0, 600.0)
        checker(0, state, scored, adm, action, explored)
        return checker.problems

    expect(not hook_problems(scored, adm, adm[0].action, False), "a real training step passes")
    expect(rejects(hook_problems(scored, adm[:-1], adm[0].action, False), "admissible list"),
           "an admissible list missing an entry is rejected")
    expect(rejects(hook_problems(scored, adm, outside[0].action, False), "greedy action"),
           "a greedy action outside the admissible list is rejected")
    bent = list(scored)
    bent[0] = bent[0]._replace(successor_alignment=bent[0].successor_alignment + 1e-9)
    expect(rejects(hook_problems(bent, adm, adm[0].action, False), "oracle"),
           "a mis-scored successor is rejected")


def check_training_run(config) -> None:
    hyper = replace(config.hyper, episodes=3)
    env = replace(config.env, total_to_distribute=180_000)
    checker = TrainingChecker(World(DOC["env"], budget=180_000), hyper.epsilon, 0.0, 600.0)
    stats: list = []
    ef.train_ecadql(env, hyper, 1, on_episode=stats.append, step_hook=checker)
    expect(not checker.finish([s.length for s in stats]), "a real training run passes")
    expect(not check_lambda_bound(stats), "real lambdas pass the projection bound")
    s = stats[-1]._replace(violation_estimate=0.5, reward_estimate=0.4)
    over = s._replace(lam=0.8 + 1e-9)
    expect(not check_lambda_bound([s._replace(lam=0.8)]), "lam at its bound passes")
    expect(rejects(check_lambda_bound([over]), "above its bound"),
           "lam over its bound is rejected")
    expect(rejects(check_lambda_bound([s._replace(lam=-1e-9)]), "< 0"), "negative lam is rejected")

    short = TrainingChecker(World(DOC["env"], budget=180_000), hyper.epsilon, 0.0, 600.0)
    ef.train_ecadql(env, hyper, 1, step_hook=short)
    expect(rejects(short.finish([s.length + 1 for s in stats]), "on_episode reported"),
           "a step count that disagrees with on_episode is rejected")


DOC = json.loads(ef.dump_config(ef.default_config()))


def main() -> int:
    config = ef.default_config()
    world = World(DOC["env"], budget=300_000)
    env = replace(config.env, total_to_distribute=300_000)
    check_oracle_gini()
    check_rollouts(env, world)
    check_training_steps(config.env, World(DOC["env"]))
    check_training_run(config)
    expect(not check_digest("model", "ab" * 32, "ab" * 32), "equal digests pass")
    expect(rejects(check_digest("model", "ab" * 32, "ab" * 31 + "ac"), "digest"),
           "a mismatched model digest is rejected")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
