"""Experiment-config documents of the benchmark workloads.

Each workload writes its config as JSON and the timed part reads it back
with ``equiflow.config.load_config``, as the CLI does.  The oracle reads the
same document.
"""
from __future__ import annotations

import json
import random

SOURCE = -1

# Episodes per training round.  A round is one ``train`` of this many
# episodes from scratch, so the exploration schedule decays over the round.
ECADQL_EPISODES = 200
WIDE_MAP_EPISODES = 120
# Episodes of each of the two models the compare workload trains in set-up.
COMPARE_MODEL_EPISODES = 200
# Random-start evaluation runs after each training round, and per policy in
# a compare.
TRAIN_EVAL_RUNS = 20
COMPARE_RUNS = 100

# The generated map of train-wide-map: fixed, so that every seed trains on
# the same world and only the training seed varies.
WIDE_MAP_SEED = 2406
WIDE_MAP_VILLAGES = 8
WIDE_MAP_DEAD_ENDS = 2
WIDE_MAP_CHORDS = 5
WIDE_MAP_FIXED_LEVELS = [0.0, 300.0, 200.0, 200.0, 100.0, 250.0, 150.0, 50.0]


def wide_map() -> dict:
    """The ``env`` section of the ``WIDE_MAP_VILLAGES``-village road map.

    Drawn from ``random.Random(WIDE_MAP_SEED)``.  With ``n`` villages, the
    villages 0 .. n-d-1 form a two-way chain, the source serves the
    first three, every third chain village has a road back to the source,
    ``d = WIDE_MAP_DEAD_ENDS`` villages at the end are dead ends (reached
    from two chain villages each, with a road only back to the source), and
    ``WIDE_MAP_CHORDS`` extra one-way roads join random chain villages.
    Village parameters are drawn from the ranges of the reference villages.
    """
    n = WIDE_MAP_VILLAGES
    rng = random.Random(WIDE_MAP_SEED)
    chain = n - WIDE_MAP_DEAD_ENDS
    villages = [
        {
            "id": i,
            "population": rng.randint(25, 1100),
            "base_rate": rng.choice([3.0, 3.5, 4.0, 4.5]),
            "high_rate": float(rng.randint(9, 100)),
            "threshold": rng.choice([100.0, 250.0, 350.0]),
        }
        for i in range(n)
    ]
    edges = {(SOURCE, 0), (SOURCE, 1), (SOURCE, 2)}
    for i in range(chain - 1):
        edges |= {(i, i + 1), (i + 1, i)}
    edges |= {(i, SOURCE) for i in range(0, chain, 3)}
    for dead_end in range(chain, n):
        edges |= {(v, dead_end) for v in rng.sample(range(chain), 2)}
        edges.add((dead_end, SOURCE))
    chords = 0
    while chords < WIDE_MAP_CHORDS:
        a, b = rng.sample(range(chain), 2)
        if abs(a - b) > 1 and (a, b) not in edges:
            edges.add((a, b))
            chords += 1
    _check_returns_to_source(n, edges)
    return {
        "villages": villages,
        "edges": sorted([a, b] for a, b in edges),
        "capacity": 60000,
        "delivery_quantum": 15000,
        "total_to_distribute": 1440000,
        "reset": {"mode": "random", "low": 0.0, "high": 600.0},
    }


def _check_returns_to_source(n: int, edges: set) -> None:
    """An empty truck anywhere must be able to drive back to refill."""
    reach = {SOURCE}
    grew = True
    while grew:
        grew = False
        for a, b in edges:
            if b in reach and a not in reach:
                reach.add(a)
                grew = True
    if reach != set(range(-1, n)):
        raise ValueError(f"villages {sorted(set(range(n)) - reach)} cannot reach the source")


def workload_config(default: dict, workload: str) -> dict:
    """The config document of ``workload``, derived from the shipped default."""
    doc = json.loads(json.dumps(default))
    doc["eval"].update(mode="random", n_runs=TRAIN_EVAL_RUNS)
    if workload == "train-ecadql":
        doc["policy_kind"] = "ecadql"
        doc["hyper"]["episodes"] = ECADQL_EPISODES
    elif workload == "train-wide-map":
        doc["policy_kind"] = "eadql"
        doc["hyper"]["episodes"] = WIDE_MAP_EPISODES
        doc["env"] = wide_map()
        doc["eval"]["fixed_levels"] = WIDE_MAP_FIXED_LEVELS
    elif workload == "compare-eps001":
        doc["hyper"]["episodes"] = COMPARE_MODEL_EPISODES
        doc["eval"].update(n_runs=COMPARE_RUNS, epsilon_eval=0.01)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return doc
