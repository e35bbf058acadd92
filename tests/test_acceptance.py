"""Acceptance suite: one test per release criterion, full-scale where stated.

Criteria 3 and 5-8 share two full 30,000-episode training runs on the
shipped default configuration (session fixtures; 137 s single-threaded on a
2-vCPU Intel Xeon with Python 3.11).  Each test prints one PASS line; run
with ``-v -s`` to see them live.
"""
import random
import time
from dataclasses import replace

import pytest

import equiflow as ef
from equiflow import (
    Episode,
    LocalPolicy,
    ModelPolicy,
    WorldState,
    admissible_from,
    available_actions,
    make_equity_scorer,
    normalize_series,
    predict_transition,
    run_episode,
    score_actions,
    train_eadql,
    train_ecadql,
)
from equiflow.config import default_config, evaluation_env, evaluation_initial
from equiflow.qlearn import Hyperparams, QModel, _argmax_q, double_q_update, load_model, save_model

from helpers import expanded_gini_rank, optimal_average_reward, random_legal_action

pytestmark = pytest.mark.acceptance

TAU = 0.7
EPS_TRAIN = 0.1


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS", flush=True)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def eadql(cfg):
    t0 = time.time()
    model = train_eadql(cfg.env, cfg.hyper, cfg.seed)
    print(f"\n[acceptance] trained eadql in {time.time() - t0:.0f}s", flush=True)
    return model


@pytest.fixture(scope="module")
def ecadql(cfg):
    history = []
    t0 = time.time()
    model = train_ecadql(cfg.env, cfg.hyper, cfg.seed, on_episode=history.append)
    print(f"\n[acceptance] trained ecadql in {time.time() - t0:.0f}s", flush=True)
    return model, history


@pytest.fixture(scope="module")
def fixed_scores(cfg, eadql, ecadql):
    env = evaluation_env(cfg)
    init = evaluation_initial(cfg)
    out = {}
    for name, policy in (
        ("local", LocalPolicy()),
        ("eadql", ModelPolicy(eadql)),
        ("ecadql", ModelPolicy(ecadql[0])),
    ):
        eps = 0.0 if name == "local" else EPS_TRAIN
        traj, metrics = run_episode(policy, env, init, eps, TAU)
        out[name] = metrics
        print(
            f"[acceptance] fixed scenario {name}: score={metrics.score:.4f}"
            f" violation_ratio={metrics.violation_ratio:.4f} steps={traj.length}",
            flush=True,
        )
    return out


# ---------------------------------------------------------------------------
# 1. Gini oracle equivalence

def test_criterion_1_gini_oracle_equivalence():
    rng = random.Random(101)
    instances = []
    for _ in range(1000):
        weights = tuple(rng.randint(1, 2000) for _ in range(4))
        values = tuple(
            0.0 if rng.random() < 0.15 else rng.uniform(0.0, 600.0) for _ in range(4)
        )
        if sum(values) == 0.0:
            values = (rng.uniform(1.0, 600.0),) + values[1:]
        instances.append((values, weights))
    start = time.time()
    worst = max(
        abs(1.0 - make_equity_scorer(w)(v) - expanded_gini_rank(v, w))
        for v, w in instances
    )
    elapsed = time.time() - start
    assert worst <= 1e-12, f"max deviation {worst}"
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report(1, f"gini oracle equivalence, max|delta|={worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Environment determinism and conservation over 10,000 random steps

def test_criterion_2_environment_invariants(cfg):
    env = replace(cfg.env, total_to_distribute=600_000)

    def walk(seed, n_steps):
        rng = random.Random(seed)
        episode = Episode(env, rng=rng)
        state = episode.reset()
        log = []
        for _ in range(n_steps):
            if episode.done:
                state = episode.reset()
            action = random_legal_action(state, env, rng)
            expected = predict_transition(state, action, env)
            outcome = episode.step(action)
            assert outcome.next_state == expected  # step == pure transition
            nxt = outcome.next_state
            if action.destination == ef.SOURCE:
                assert nxt.load == env.capacity
            else:
                assert state.load - nxt.load == action.dispense
                if env.network.is_dead_end(action.destination):
                    assert nxt.load == 0
            assert nxt.distributed_total == state.distributed_total + action.dispense
            assert all(x >= 0.0 for x in nxt.levels)
            assert 0 <= nxt.load <= env.capacity
            assert nxt.load % env.delivery_quantum == 0
            assert 0.0 <= outcome.reward <= 1.0
            log.append((action, nxt, outcome.reward))
            state = nxt
        return log

    first = walk(2024, 10_000)
    second = walk(2024, 10_000)
    assert first == second  # bit-identical trajectories for the same seed
    report(2, "determinism + conservation over 10,000 random steps")


# ---------------------------------------------------------------------------
# 3. Epsilon-adherence of trained policies at evaluation

def test_criterion_3_epsilon_adherence(cfg, eadql, ecadql):
    env = evaluation_env(cfg)
    checked = 0
    for model in (eadql, ecadql[0]):
        policy = ModelPolicy(model)
        rng = random.Random(5)
        total = 0
        start = evaluation_initial(cfg)
        while total < 5000:
            traj, _ = run_episode(policy, env, start, EPS_TRAIN, TAU)
            episode = Episode(env)
            state = episode.reset_to(start)
            for action in traj.actions:
                scored = score_actions(state, env)
                best = max(sa.successor_alignment for sa in scored)
                chosen = next(sa for sa in scored if sa.action == action)
                assert chosen.successor_alignment >= best - EPS_TRAIN
                state = episode.step(action).next_state
                total += 1
            start = WorldState(
                tuple(rng.uniform(0.0, 600.0) for _ in range(4)), ef.SOURCE,
                env.capacity, 0,
            )
        checked += total
    report(3, f"epsilon-adherence verified on {checked} greedy steps")


# ---------------------------------------------------------------------------
# 4. Differential double-Q convergence on a hand-built MDP

def test_criterion_4_differential_double_q_convergence():
    transitions = {
        0: {"stay": (0, 0.2), "move": (1, 0.1)},
        1: {"stay": (1, 0.8), "move": (0, 0.3)},
    }
    rho_star, _ = optimal_average_reward(transitions)
    model = QModel(Hyperparams(alpha=0.1, beta=0.01))
    rng = random.Random(12)
    state = 0
    for _ in range(100_000):
        actions = list(transitions[state])
        if rng.random() < 0.3:
            action = actions[rng.randrange(len(actions))]
        else:
            action = _argmax_q(model, state, actions)
        nxt, reward = transitions[state][action]
        double_q_update(model, state, action, nxt, list(transitions[nxt]), reward, rng)
        state = nxt
    err = abs(model.avg_reward - rho_star)
    assert err <= 1e-2, f"r_hat={model.avg_reward}, rho*={rho_star}"
    report(4, f"average-reward estimate within {err:.2e} of the oracle")


# ---------------------------------------------------------------------------
# 5. Lagrange projection across a full constrained training run

def test_criterion_5_lambda_projection(ecadql):
    _, history = ecadql
    assert len(history) == 30_000
    assert any(s.violations > 0 for s in history)
    for stats in history:
        if stats.violation_estimate > 0.0:
            bound = stats.reward_estimate / stats.violation_estimate
            assert stats.lam <= bound + 1e-12, (
                f"episode {stats.episode}: lam={stats.lam} > bound={bound}"
            )
    prev = 0.0
    for stats in history:
        if not stats.clamped and stats.violations > 0:
            assert stats.lam > prev - 1e-15
        prev = stats.lam
    report(5, "lambda stayed within R/V bound for all 30,000 episodes")


# ---------------------------------------------------------------------------
# 6. Trained epsilon-admissible policy beats the local baseline

def test_criterion_6_eadql_beats_local(fixed_scores):
    local = fixed_scores["local"].score
    trained = fixed_scores["eadql"].score
    assert trained >= local + 0.05, f"eadql={trained:.4f} local={local:.4f}"
    assert trained >= 0.78, f"eadql={trained:.4f}"
    report(6, f"eadql score {trained:.4f} vs local {local:.4f}")


# ---------------------------------------------------------------------------
# 7. Constrained variant sits between the plain variant and the baseline

def test_criterion_7_score_ordering(fixed_scores):
    local = fixed_scores["local"].score
    eadql_score = fixed_scores["eadql"].score
    ecadql_score = fixed_scores["ecadql"].score
    assert ecadql_score <= eadql_score, (
        f"ecadql={ecadql_score:.4f} > eadql={eadql_score:.4f}"
    )
    assert ecadql_score >= local, f"ecadql={ecadql_score:.4f} < local={local:.4f}"
    report(7, f"ordering local {local:.4f} <= ecadql {ecadql_score:.4f} <= eadql {eadql_score:.4f}")


# ---------------------------------------------------------------------------
# 8. Constrained robustness when the evaluation slack shrinks to 0.01

def test_criterion_8_violation_robustness_under_eps_shrink(cfg, eadql, ecadql):
    env = evaluation_env(cfg)
    init = evaluation_initial(cfg)
    agg_e = ef.aggregate_runs(ModelPolicy(eadql), env, 100, cfg.seed, 0.01, TAU, init)
    agg_c = ef.aggregate_runs(ModelPolicy(ecadql[0]), env, 100, cfg.seed, 0.01, TAU, init)
    print(
        f"[acceptance] eps_eval=0.01: eadql ratio={agg_e.mean_violation_ratio:.4f}"
        f" ecadql ratio={agg_c.mean_violation_ratio:.4f}",
        flush=True,
    )
    assert agg_c.mean_violation_ratio < agg_e.mean_violation_ratio, (
        f"ecadql={agg_c.mean_violation_ratio:.4f} >= eadql={agg_e.mean_violation_ratio:.4f}"
    )
    assert agg_c.mean_violation_ratio < 0.10, (
        f"ecadql violation ratio {agg_c.mean_violation_ratio:.4f} >= 0.10"
    )
    report(8, f"ecadql ratio {agg_c.mean_violation_ratio:.4f} < eadql "
              f"{agg_e.mean_violation_ratio:.4f} and < 0.10")


# ---------------------------------------------------------------------------
# 9. Epsilon = 1 training admits the full action set at every step

def test_criterion_9_epsilon_one_equals_unconstrained(cfg):
    hyper = replace(cfg.hyper, epsilon=1.0, episodes=300)
    steps = 0

    def check(o, state, scored, admissible, action, explored):
        nonlocal steps
        assert len(admissible) == len(scored)
        steps += 1

    model = train_eadql(cfg.env, hyper, cfg.seed, step_hook=check)
    assert steps > 10_000
    assert model.kind == "adql"
    rng = random.Random(77)
    episode = Episode(cfg.env, rng=rng)
    state = episode.reset()
    for _ in range(500):
        if episode.done:
            state = episode.reset()
        admitted = admissible_from(score_actions(state, cfg.env), 1.0)
        assert [sa.action for sa in admitted] == list(available_actions(state, cfg.env))
        state = episode.step(random_legal_action(state, cfg.env, rng)).next_state
    report(9, f"A_eps == A(s) on all {steps} training steps at eps=1")


# ---------------------------------------------------------------------------
# 10. Series normalization properties

def test_criterion_10_series_normalization():
    rng = random.Random(9)
    for trial in range(200):
        reference = rng.randint(1, 120)
        series = [
            [rng.random() for _ in range(rng.randint(1, 200))]
            for _ in range(rng.randint(1, 10))
        ]
        out = normalize_series(series, reference)
        cap = 12 * reference // 10
        target = max(min(len(s), cap) for s in series)
        assert all(len(o) == target for o in out)
        for before, after in zip(series, out):
            keep = min(len(before), cap)
            assert after[:keep] == before[:keep]  # crop preserves the prefix
            assert all(v == before[keep - 1] for v in after[keep:])  # pad by last
    # Metrics are computed on original lengths, never on padded series.
    cfg = default_config()
    env = replace(cfg.env, total_to_distribute=240_000)
    agg = ef.aggregate_runs(
        LocalPolicy(), env, 10, 3, 0.0, TAU, evaluation_initial(cfg)
    )
    assert agg.mean_score == pytest.approx(
        sum(m.score for m in agg.runs) / len(agg.runs), abs=1e-15
    )
    for metrics in agg.runs:
        assert metrics.score == pytest.approx(metrics.running_average[-1], abs=1e-12)
    report(10, "crop at 1.2x, pad-by-last, metrics on original lengths")


# ---------------------------------------------------------------------------
# 11. Persistence round trip reproduces evaluation byte-for-byte

def test_criterion_11_persistence_roundtrip(cfg, tmp_path):
    from equiflow.evaluate import write_series_csv, write_summary_csv, SummaryRow

    env = replace(cfg.env, total_to_distribute=240_000)
    hyper = replace(cfg.hyper, episodes=120)
    model = train_ecadql(env, hyper, seed=41)
    save_model(model, tmp_path / "model.json")
    reloaded = load_model(tmp_path / "model.json")
    save_model(reloaded, tmp_path / "model2.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    outputs = []
    for tag, m in (("orig", model), ("loaded", reloaded)):
        traj, metrics = run_episode(
            ModelPolicy(m), env, evaluation_initial(cfg), EPS_TRAIN, TAU
        )
        series = tmp_path / f"series_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.csv"
        write_series_csv(series, traj, metrics)
        write_summary_csv(
            summary,
            [SummaryRow(m.kind, m.hyper.epsilon, EPS_TRAIN, TAU, metrics.score,
                        metrics.violation_ratio, traj.length, cfg.seed)],
        )
        outputs.append((series.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    report(11, "save -> load -> evaluate reproduces CSVs byte-for-byte")
