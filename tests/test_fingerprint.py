"""Golden behaviour fingerprint: SHA-256 of trained models and evaluation CSVs.

A short seeded training of both learners on the shipped default config, the
fixed evaluation scenario of the local baseline and of both models, and a
20-start aggregate at eps_eval 0.01 are written through the same public
calls the CLI uses, as is the ``dump-config`` text of the default config.
The aggregate's summary rows are written as ``evaluate`` writes one policy's
row in random mode (``summary.csv``) and as ``compare`` writes all three
(``compare_summary.csv``).
Any change to dynamics, scoring, admissibility, the double-Q update, the
Lagrange update, evaluation or serialisation changes at least one digest;
such a change must be deliberate and noted.

The models are also written through ``helpers.write_v1_model``, the
version-1 layout earlier releases wrote: those digests predate the
version-2 format and show that its Q-tables are the same.
"""
import hashlib
from dataclasses import replace

import pytest

from equiflow import LocalPolicy, ModelPolicy, aggregate_runs, run_episode
from equiflow.config import default_config, dump_config, evaluation_env, evaluation_initial
from equiflow.evaluate import (
    SummaryRow,
    write_compare_series_csv,
    write_series_csv,
    write_summary_csv,
)
from equiflow.qlearn import save_model, train_eadql, train_ecadql

from helpers import write_v1_model

EPISODES = 50
AGGREGATE_RUNS = 20
AGGREGATE_EPS = 0.01

GOLDEN = {
    "config.json": "202261738400b337b68cd7b9a308e7b930a392951ec8b022d2c25fd2ebccec64",
    "eadql.json": "c8b145588ef52634c962ba1b5e583b4c7080b931979f4ceefadba26a16c32115",
    "ecadql.json": "7aef9f03701e65b49360b58fb4e459f44dcd094df72bd46968eb518ba7f2b50d",
    "eadql.v1.json": "ffa562d4a15bfaa0cdd2cc4b6de41b8cfe0ce73810ccbe47de7a28d97a00939f",
    "ecadql.v1.json": "7becc7d90bee5e9cea52d821183c8218c2f61a47cadb7e9bd6af3d242f454b58",
    "series_local.csv": "4548b2df450bea26ac79e98d2da064013f74c02d99012d3e3c968336bb7b6567",
    "series_eadql.csv": "7998e437614edb314959bf1b54ab426dadc51aa98196ce350ca9942dc440ac1a",
    "series_ecadql.csv": "6450feadb87dddd0c661b879bb13630e15db3ba6c8f460d4077ea5d904259b54",
    "compare_series.csv": "c085aea1c3bc7e69b6fc95bb85af182164ac8bf23ceb8449f9afea5e0641890e",
    "summary.csv": "05797bb542b172c056f7acf281d8ddf617f906b0d0dec513a2b61720cf6f1c8e",
    "compare_summary.csv": "3a9d52aaa25c6977225ef9bd643af593314cea5f054c2126c032f83a27cc59b5",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("fingerprint")
    cfg = default_config()
    (out / "config.json").write_text(dump_config(cfg), encoding="utf-8")
    hyper = replace(cfg.hyper, episodes=EPISODES)
    policies = [(LocalPolicy(), 0.0)]
    for kind, trainer in (("eadql", train_eadql), ("ecadql", train_ecadql)):
        model = trainer(cfg.env, hyper, cfg.seed)
        model.kind = kind  # as ``equiflow train`` labels the model
        save_model(model, out / f"{kind}.json")
        write_v1_model(model, out / f"{kind}.v1.json")
        policies.append((ModelPolicy(model), hyper.epsilon))

    env, initial = evaluation_env(cfg), evaluation_initial(cfg)
    named_series, rows = [], []
    for policy, eps_train in policies:
        traj, metrics = run_episode(policy, env, initial, cfg.eval.epsilon_eval, cfg.hyper.tau)
        write_series_csv(out / f"series_{policy.name}.csv", traj, metrics)
        agg = aggregate_runs(
            policy, env, AGGREGATE_RUNS, cfg.seed, AGGREGATE_EPS, cfg.hyper.tau, initial
        )
        named_series.append((policy.name, agg.mean_series))
        rows.append(SummaryRow(
            policy=policy.name, epsilon_train=eps_train, epsilon_eval=AGGREGATE_EPS,
            tau=cfg.hyper.tau, score=agg.mean_score, violation_ratio=agg.mean_violation_ratio,
            episode_length=agg.mean_length, seed=cfg.seed,
        ))
    write_compare_series_csv(out / "compare_series.csv", named_series)
    write_summary_csv(out / "summary.csv", rows[-1:])
    write_summary_csv(out / "compare_summary.csv", rows)
    return {name: sha256(out / name) for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_fingerprint(digests, name):
    assert digests[name] == GOLDEN[name]
