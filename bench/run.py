"""equiflow benchmark: training and evaluation throughput, checked by an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; equiflow is imported from its
``src/`` directory.  Workloads (see README.md):

* ``train-ecadql``: rounds of eps-CADQL training on the shipped default config;
* ``train-wide-map``: rounds of eps-ADQL training on a generated 8-village map;
* ``compare-eps001``: rounds of ``compare local eadql ecadql`` at eps_eval 0.01
  with two models trained in set-up.

A round mirrors CLI invocations, driven through the same public calls, and
the timed part runs whole rounds until ``--seconds`` have passed and at
least ``MIN_ROUNDS`` rounds have run.  Every time is scaled to a reference
machine speed by ``speed.SpeedClock``.  A verification pass then replays
the first round with observation hooks and checks it against the oracle.  With ``--trace 1`` one round runs with the
layer functions wrapped by timing spans, then again without them, and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import configs
from checks import (
    TrainingChecker,
    after_each_rollout,
    capture_rollouts,
    check_aggregate,
    check_digest,
    check_lambda_bound,
)
from oracle import World
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("train-ecadql", "train-wide-map", "compare-eps001")
# Rates and times are medians over rounds; with three or more, one round
# slowed by a burst of load on the host moves them little.  A compare round
# takes about 10 s, so without this a run would often have one or two.
MIN_ROUNDS = 3


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Round:
    """What one round did, for the metrics and for the verification pass.

    Times are (scaled, raw) pairs of seconds (see ``speed``).
    """

    index: int
    seed: int
    wall_s: tuple = (0.0, 0.0)  # the train, or the compare, command
    train_s: tuple = (0.0, 0.0)  # the trainer call
    eval_s: tuple = (0.0, 0.0)  # the aggregate_runs calls
    total_s: tuple = (0.0, 0.0)  # the whole round
    eval_steps: int = 0
    lengths: list = field(default_factory=list)  # training episode lengths
    stats: list = field(default_factory=list)  # EpisodeStats of training
    digests: dict = field(default_factory=dict)  # output file -> SHA-256
    model_bytes: int = 0
    qtable_entries: int = 0
    phase_counts: dict = field(default_factory=dict)  # traced calls per phase
    aggs: list = field(default_factory=list)  # AggregateResult per policy, if kept


def add(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], a[1] + b[1]


def rollout_steps(agg) -> int:
    return agg.reference_length + sum(len(m.running_average) for m in agg.runs)


class Bench:
    def __init__(self, ef, workload: str, seed: int, work: Path, clock: SpeedClock) -> None:
        self.ef = ef
        self.workload = workload
        self.seed = seed
        self.work = work
        self.clock = clock
        self.tracer = None
        doc = configs.workload_config(json.loads(ef.dump_config(ef.default_config())), workload)
        self.doc = doc
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        self.config = ef.load_config(self.config_path)
        self.train_world = World(doc["env"])
        self.eval_world = World(doc["env"], budget=doc["eval"]["total_to_distribute"])
        self.reset = (doc["env"]["reset"]["low"], doc["env"]["reset"]["high"])
        self.setup_train = None  # (steps, (scaled, raw) s) of set-up training
        self.setup_model_bytes = None
        self.model_digests: dict = {}  # set-up model file -> SHA-256
        # Operations per round: training episodes and evaluation rollouts.
        rollouts = doc["eval"]["n_runs"] + 1
        if workload == "compare-eps001":
            self.round_ops = 3 * rollouts
            self._train_compare_models()
        else:
            self.round_ops = doc["hyper"]["episodes"] + rollouts

    def _trainer(self, kind: str):
        return self.ef.train_ecadql if kind == "ecadql" else self.ef.train_eadql

    def _train(self, trainer, config, seed: int, stats: list, hook=None):
        """Run ``trainer``; returns the model and its (scaled, raw) time."""
        clock = self.clock

        def on_episode(s) -> None:
            stats.append(s)
            clock.lap()

        mark = clock.mark()
        model = trainer(config.env, config.hyper, seed, on_episode=on_episode, step_hook=hook)
        return model, clock.since(mark)

    def _aggregate(self, policy, env, config, seed: int, initial):
        """Run ``aggregate_runs``; returns the result and its (scaled, raw) time."""
        clock = self.clock
        mark = clock.mark()
        with after_each_rollout(self.ef.evaluate, lambda _: clock.lap()):
            agg = self.ef.aggregate_runs(policy, env, config.eval.n_runs, seed,
                                         config.eval.epsilon_eval, config.hyper.tau, initial)
        return agg, clock.since(mark)

    def _train_compare_models(self) -> None:
        """Train the eps-ADQL and eps-CADQL models the compare evaluates."""
        self.model_paths = []
        steps, train_s, size = 0, (0.0, 0.0), 0
        for kind in ("eadql", "ecadql"):
            stats: list = []
            model, seconds = self._train(self._trainer(kind), self.config, self.seed, stats)
            train_s = add(train_s, seconds)
            steps += sum(s.length for s in stats)
            model.kind = kind
            path = self.work / f"{kind}.json"
            self.ef.save_model(model, path)
            size += path.stat().st_size
            self.model_paths.append(path)
            self.model_digests[path.name] = sha256(path)
        self.setup_train = (steps, train_s)
        self.setup_model_bytes = size

    def round_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def _counts(self) -> dict:
        return self.tracer.counts() if self.tracer else {}

    def run_round(self, index: int, out: Path, hook=None, keep_aggs: bool = False) -> Round:
        """Run round ``index``.

        The ``aggregate_runs`` results are kept only with ``keep_aggs``: the
        timed rounds drop them, as the CLI does, so that memory held for the
        checks stays out of ``peak_rss_mb``.
        """
        out.mkdir(parents=True, exist_ok=True)
        mark = self.clock.mark()
        if self.workload == "compare-eps001":
            rnd = self._compare_round(index, out, mark, keep_aggs)
        else:
            rnd = self._train_round(index, out, mark, hook, keep_aggs)
        rnd.total_s = self.clock.since(mark)
        return rnd

    def _train_round(self, index: int, out: Path, mark: tuple, hook, keep_aggs: bool) -> Round:
        """``equiflow train``, then ``equiflow evaluate --model local``.

        The evaluation is of the local baseline, not of the trained model: a
        briefly trained greedy Q-policy can cycle on zero-litre moves without
        ever spending its budget, and ``run_episode`` then fails after its
        step limit on some seeds.
        """
        ef, clock = self.ef, self.clock
        rnd = Round(index=index, seed=self.round_seed(index))
        model_path = out / "model.json"
        c0 = self._counts()
        config = ef.load_config(self.config_path)
        trainer = self._trainer(config.policy_kind)
        model, rnd.train_s = self._train(trainer, config, rnd.seed, rnd.stats, hook)
        model.kind = config.policy_kind
        ef.save_model(model, model_path)
        rnd.wall_s = clock.since(mark)
        c1 = self._counts()

        policy = ef.LocalPolicy()
        env, initial = ef.evaluation_env(config), ef.evaluation_initial(config)
        agg, rnd.eval_s = self._aggregate(policy, env, config, rnd.seed, initial)
        ef.evaluate.write_series_csv(out / "series.csv", agg.reference_trajectory,
                                     agg.reference_metrics)
        ef.evaluate.write_summary_csv(out / "summary.csv", [ef.SummaryRow(
            policy=policy.name, epsilon_train=0.0, epsilon_eval=config.eval.epsilon_eval,
            tau=config.hyper.tau, score=agg.mean_score,
            violation_ratio=agg.mean_violation_ratio, episode_length=agg.mean_length,
            seed=rnd.seed,
        )])
        c2 = self._counts()

        rnd.lengths = [s.length for s in rnd.stats]
        rnd.eval_steps = rollout_steps(agg)
        if keep_aggs:
            rnd.aggs.append(agg)
        rnd.model_bytes = model_path.stat().st_size
        rnd.qtable_entries = len(model.qa) + len(model.qb)
        rnd.digests = {name: sha256(out / name)
                       for name in ("model.json", "series.csv", "summary.csv")}
        if self.tracer:
            rnd.phase_counts = {
                "train": {k: c1[k] - c0[k] for k in c0},
                "eval": {k: c2[k] - c1[k] for k in c1},
            }
        return rnd

    def _compare_round(self, index: int, out: Path, mark: tuple, keep_aggs: bool) -> Round:
        """``equiflow compare local eadql.json ecadql.json``."""
        ef, clock = self.ef, self.clock
        rnd = Round(index=index, seed=self.round_seed(index))
        c0 = self._counts()
        config = ef.load_config(self.config_path)
        env, initial = ef.evaluation_env(config), ef.evaluation_initial(config)
        specs = [("local", ef.LocalPolicy(), 0.0)]
        for path in self.model_paths:
            model = ef.load_model(path)
            rnd.qtable_entries += len(model.qa) + len(model.qb)
            policy = ef.ModelPolicy(model)
            specs.append((f"{policy.name}:{path.stem}", policy, model.hyper.epsilon))
        rows, named_series = [], []
        for name, policy, eps_train in specs:
            agg, seconds = self._aggregate(policy, env, config, rnd.seed, initial)
            rnd.eval_s = add(rnd.eval_s, seconds)
            rnd.eval_steps += rollout_steps(agg)
            if keep_aggs:
                rnd.aggs.append(agg)
            rows.append(ef.SummaryRow(
                policy=name, epsilon_train=eps_train, epsilon_eval=config.eval.epsilon_eval,
                tau=config.hyper.tau, score=agg.mean_score,
                violation_ratio=agg.mean_violation_ratio, episode_length=agg.mean_length,
                seed=rnd.seed,
            ))
            named_series.append((name, agg.mean_series))
        ef.evaluate.write_summary_csv(out / "compare_summary.csv", rows)
        ef.evaluate.write_compare_series_csv(out / "compare_series.csv", named_series)
        rnd.wall_s = clock.since(mark)
        rnd.digests = {name: sha256(out / name)
                       for name in ("compare_summary.csv", "compare_series.csv")}
        if self.tracer:
            rnd.phase_counts = {"eval": {k: v - c0[k] for k, v in self._counts().items()}}
        return rnd

    def verify(self, rnd: Round) -> list[str]:
        """Replay a round with observation hooks and check it all."""
        index = rnd.index
        out = self.work / f"verify-{index}"
        hyper = self.config.hyper
        checker = None
        if self.workload != "compare-eps001":
            checker = TrainingChecker(self.train_world, hyper.epsilon, *self.reset)
        with capture_rollouts(self.ef.evaluate) as trajs:
            again = self.run_round(index, out, hook=checker, keep_aggs=True)
        problems = []
        for name, digest in rnd.digests.items():
            problems += check_digest(f"round {index} {name}", digest, again.digests[name])
        if again.stats != rnd.stats:
            problems.append(f"round {index}: replayed EpisodeStats differ")
        if checker is not None:
            problems += checker.finish(again.lengths)
        eps_eval, tau = self.config.eval.epsilon_eval, hyper.tau
        n_runs = self.doc["eval"]["n_runs"]
        initial = self.ef.evaluation_initial(self.config)
        if len(trajs) != len(again.aggs) * (n_runs + 1):
            problems.append(f"round {index}: captured {len(trajs)} rollouts")
        for i, agg in enumerate(again.aggs):
            chunk = trajs[i * (n_runs + 1):(i + 1) * (n_runs + 1)]
            problems += check_aggregate(self.eval_world, agg, chunk, again.seed, n_runs,
                                        self.reset, initial, eps_eval, tau)
        shutil.rmtree(out)
        return [f"{self.workload} seed {self.seed}: {p}" for p in problems]


def check_traced_totals(workload: str, rnd: Round) -> list[str]:
    """Totals counted by the tracer must equal totals counted independently."""
    problems = []
    eval_counts = rnd.phase_counts["eval"]
    if eval_counts["env.step"] != rnd.eval_steps:
        problems.append(
            f"env.step calls {eval_counts['env.step']} != {rnd.eval_steps} rollout steps"
        )
    if workload != "compare-eps001":
        train = rnd.phase_counts["train"]
        steps, episodes = sum(rnd.lengths), len(rnd.lengths)
        if train["qlearn.double_q_update"] != steps:
            problems.append(
                f"double_q_update calls {train['qlearn.double_q_update']} != {steps} steps"
            )
        if train["admissible.score_actions"] != steps + episodes:
            problems.append(
                f"score_actions calls {train['admissible.score_actions']}"
                f" != {steps} steps + {episodes} episodes"
            )
    return problems


def import_equiflow():
    """Import equiflow from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "equiflow" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from an equiflow checkout")
    sys.path.insert(0, str(SRC))
    import equiflow
    import equiflow.evaluate

    if Path(equiflow.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported equiflow from {equiflow.__file__}, not {package}")
    return equiflow


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, rounds: list[Round], setup_s: tuple, peak_rss_mb: float,
               raw: bool = False) -> dict:
    """The end-to-end metrics; with ``raw`` the times are the unscaled ones.

    Rates and times are medians over rounds, so that a burst of load on the
    host that slows one round moves them little.
    """
    k = int(raw)
    if bench.setup_train is not None:
        steps, seconds = bench.setup_train
        train_rate = steps / seconds[k]
    else:
        train_rate = statistics.median(sum(r.lengths) / r.train_s[k] for r in rounds)
    model_bytes = bench.setup_model_bytes
    if model_bytes is None:
        model_bytes = statistics.median(r.model_bytes for r in rounds)
    return {
        "setup_s": metric(setup_s[k], "s"),
        "train_steps_per_s": metric(train_rate, "steps/s"),
        "eval_steps_per_s": metric(
            statistics.median(r.eval_steps / r.eval_s[k] for r in rounds), "steps/s"
        ),
        "wall_s": metric(statistics.median(r.wall_s[k] for r in rounds), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "model_bytes": metric(model_bytes, "bytes"),
    }


def per_layer(tracer, rnd: Round, overhead_s: float) -> dict:
    """Per-layer metrics of a traced round, times scaled like the round's."""
    scale = rnd.total_s[0] / rnd.total_s[1]
    out = {}
    for name, (value, unit) in tracer.layer_metrics().items():
        out[name] = metric(value if unit == "count" else value * scale, unit)
    counts = tracer.counts()
    steps = counts["env.step"]
    out["env.transitions_per_step"] = metric(
        counts["env.predict_transition"] / steps if steps else 0.0, "ratio"
    )
    out["admissible.scored_per_state"] = metric(
        tracer.mean_size("admissible.score_actions"), "actions"
    )
    out["admissible.admitted_per_state"] = metric(
        tracer.mean_size("admissible.admissible_from"), "actions"
    )
    out["qlearn.qtable_entries"] = metric(rnd.qtable_entries, "count")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up is timed from the start of the process: its CPU clock reads 0 there.
    clock = SpeedClock(0.0)
    ef = import_equiflow()
    work = OUT / f"work-{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(ef, args.workload, args.seed, work, clock)
        setup_s = clock.mark()

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            bench.tracer = tracer
            clock.on_pause = tracer.pause
        rounds: list[Round] = []
        failed_rounds = 0
        t0 = time.perf_counter()
        while True:
            index = len(rounds) + failed_rounds
            try:
                rounds.append(bench.run_round(index, work / f"round-{index}"))
            except Exception:
                traceback.print_exc()
                failed_rounds += 1
            if args.trace or (time.perf_counter() - t0 >= args.seconds
                               and index + 1 >= MIN_ROUNDS):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = (len(rounds) + failed_rounds) * bench.round_ops
        failed = failed_rounds * bench.round_ops
        if not rounds:
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1

        problems = []
        if tracer is not None:
            tracer.uninstall()
            bench.tracer = None
            clock.on_pause = None
            problems += check_traced_totals(args.workload, rounds[0])
            untraced = bench.run_round(0, work / "untraced-0")
            for name, digest in rounds[0].digests.items():
                problems += check_digest(f"untraced {name}", digest, untraced.digests[name])
        for rnd in rounds:
            if args.workload == "train-ecadql":
                problems += check_lambda_bound(rnd.stats)
        # A replay with the oracle costs one and a half rounds, so only the
        # first round is replayed.
        problems += bench.verify(rounds[0])
        for name, digest in {**bench.model_digests, **rounds[0].digests}.items():
            print(f"{args.workload} seed {args.seed} round 0 {name} sha256 {digest}",
                  file=sys.stderr)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)

        if tracer is not None:
            traced_s = rounds[0].total_s
            metrics = per_layer(tracer, rounds[0], traced_s[0] - untraced.total_s[0])
            # One file pair per workload, overwritten by its next traced run:
            # the spans of the compare round take about 56 MB gzipped.
            stem = OUT / f"trace-{args.workload}"
            tracer.write_spans(stem.with_suffix(".csv.gz"))
            stem.with_suffix(".json").write_text(json.dumps(
                {"seed": args.seed, "metrics": metrics, "missing_layers": tracer.missing,
                 "spans": tracer.spans_seen,
                 # Scaled / raw time of the traced round: divide a scaled time
                 # by it for the raw one.
                 "scale": traced_s[0] / traced_s[1],
                 "raw_overhead_s": traced_s[1] - untraced.total_s[1]},
                indent=1), encoding="utf-8")
        else:
            metrics = end_to_end(bench, rounds, setup_s, peak_rss_mb)
            raw = {k: v["value"] for k, v in
                   end_to_end(bench, rounds, setup_s, peak_rss_mb, raw=True).items()}
            print(f"unscaled {json.dumps(raw)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
