"""Golden behaviour fingerprint: SHA-256 of trained models and evaluation CSVs.

A short seeded training of both learners on the shipped default config, the
fixed evaluation scenario of the local baseline and of both models, and a
20-start aggregate at eps_eval 0.01 are written through the same public
calls the CLI uses, as is the ``dump-config`` text of the default config.
Any change to dynamics, scoring, admissibility, the double-Q update, the
Lagrange update, evaluation or serialisation changes at least one digest;
such a change must be deliberate and noted.
"""
import hashlib
from dataclasses import replace

import pytest

from equiflow import LocalPolicy, ModelPolicy, aggregate_runs, run_episode
from equiflow.config import default_config, dump_config, evaluation_env, evaluation_initial
from equiflow.evaluate import write_compare_series_csv, write_series_csv
from equiflow.qlearn import save_model, train_eadql, train_ecadql

EPISODES = 50
AGGREGATE_RUNS = 20
AGGREGATE_EPS = 0.01

GOLDEN = {
    "config.json": "202261738400b337b68cd7b9a308e7b930a392951ec8b022d2c25fd2ebccec64",
    "eadql.json": "ffa562d4a15bfaa0cdd2cc4b6de41b8cfe0ce73810ccbe47de7a28d97a00939f",
    "ecadql.json": "7becc7d90bee5e9cea52d821183c8218c2f61a47cadb7e9bd6af3d242f454b58",
    "series_local.csv": "4548b2df450bea26ac79e98d2da064013f74c02d99012d3e3c968336bb7b6567",
    "series_eadql.csv": "7998e437614edb314959bf1b54ab426dadc51aa98196ce350ca9942dc440ac1a",
    "series_ecadql.csv": "6450feadb87dddd0c661b879bb13630e15db3ba6c8f460d4077ea5d904259b54",
    "compare_series.csv": "c085aea1c3bc7e69b6fc95bb85af182164ac8bf23ceb8449f9afea5e0641890e",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("fingerprint")
    cfg = default_config()
    (out / "config.json").write_text(dump_config(cfg), encoding="utf-8")
    hyper = replace(cfg.hyper, episodes=EPISODES)
    policies = [LocalPolicy()]
    for kind, trainer in (("eadql", train_eadql), ("ecadql", train_ecadql)):
        model = trainer(cfg.env, hyper, cfg.seed)
        model.kind = kind  # as ``equiflow train`` labels the model
        save_model(model, out / f"{kind}.json")
        policies.append(ModelPolicy(model))

    env, initial = evaluation_env(cfg), evaluation_initial(cfg)
    named_series = []
    for policy in policies:
        traj, metrics = run_episode(policy, env, initial, cfg.eval.epsilon_eval, cfg.hyper.tau)
        write_series_csv(out / f"series_{policy.name}.csv", traj, metrics)
        agg = aggregate_runs(
            policy, env, AGGREGATE_RUNS, cfg.seed, AGGREGATE_EPS, cfg.hyper.tau, initial
        )
        named_series.append((policy.name, agg.mean_series))
    write_compare_series_csv(out / "compare_series.csv", named_series)
    return {name: sha256(out / name) for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_fingerprint(digests, name):
    assert digests[name] == GOLDEN[name]
