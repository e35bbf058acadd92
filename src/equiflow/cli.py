"""Command-line front end: train, evaluate, compare, dump-config.

Experiments are described by one JSON config file; flags only carry paths
and overrides of the seed, the evaluation epsilon and the number of
random-start runs.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ExperimentConfig,
    default_config,
    dump_config,
    evaluation_env,
    evaluation_initial,
    load_config,
)
from .env import ConfigurationError, EnvConfig, WorldState
from .evaluate import (
    LocalPolicy,
    ModelPolicy,
    SummaryRow,
    aggregate_runs,
    run_episode,
    write_compare_series_csv,
    write_series_csv,
    write_summary_csv,
)
from .qlearn import EpisodeStats, load_model, save_model, train_eadql, train_ecadql


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "eps_eval", None) is not None:
        config = replace(config, eval=replace(config.eval, epsilon_eval=args.eps_eval))
    if getattr(args, "runs", None) is not None:
        config = replace(config, eval=replace(config.eval, n_runs=args.runs))
    return config


def _print_progress(stats: EpisodeStats) -> None:
    if stats.episode % 1000 == 0:
        print(
            f"episode {stats.episode:>6}  r_hat={stats.avg_reward_estimate:.4f}"
            f"  lam={stats.lam:.4f}  v_hat={stats.violation_estimate:.4f}"
            f"  R_hat={stats.reward_estimate:.4f}",
            file=sys.stderr,
            flush=True,
        )


def cmd_train(args: argparse.Namespace) -> int:
    config = _load(args)
    if config.policy_kind == "local":
        raise ConfigurationError("the local policy needs no training")
    trainer = train_ecadql if config.policy_kind == "ecadql" else train_eadql
    model = trainer(config.env, config.hyper, config.seed, on_episode=_print_progress)
    model.kind = config.policy_kind
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    print(f"model written to {out}")
    return 0


def _build_policy(spec: str, config: ExperimentConfig):
    if spec == "local":
        # The untrained baseline is exactly the epsilon=0 behaviour.
        return LocalPolicy(), 0.0
    model = load_model(spec)
    if model.hyper.levels != config.hyper.levels:
        raise ConfigurationError(
            f"{spec}: model level bands differ from the config's; refusing to evaluate"
        )
    return ModelPolicy(model), model.hyper.epsilon


def _evaluation_setup(
    args: argparse.Namespace,
) -> tuple[ExperimentConfig, EnvConfig, WorldState, Path]:
    """The config, evaluation world, fixed start and (created) output directory."""
    config = _load(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return config, evaluation_env(config), evaluation_initial(config), out_dir


def _summary_row(
    name: str, eps_train: float, config: ExperimentConfig, score: float, ratio: float,
    length: float,
) -> SummaryRow:
    """Print a policy's summary line and return its ``summary.csv`` row."""
    print(f"policy={name} score={score:.6f} violation_ratio={ratio:.6f}")
    return SummaryRow(policy=name, epsilon_train=eps_train, epsilon_eval=config.eval.epsilon_eval,
                      tau=config.hyper.tau, score=score, violation_ratio=ratio,
                      episode_length=length, seed=config.seed)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, env, initial, out_dir = _evaluation_setup(args)
    policy, eps_train = _build_policy(args.model, config)
    eps_eval, tau = config.eval.epsilon_eval, config.hyper.tau
    if config.eval.mode == "fixed":
        traj, metrics = run_episode(policy, env, initial, eps_eval, tau)
        stats = metrics.score, metrics.violation_ratio, float(traj.length)
    else:
        agg = aggregate_runs(policy, env, config.eval.n_runs, config.seed, eps_eval, tau, initial)
        stats = agg.mean_score, agg.mean_violation_ratio, agg.mean_length
        # The per-step series file always describes the fixed reference run.
        traj, metrics = agg.reference_trajectory, agg.reference_metrics
    write_series_csv(out_dir / "series.csv", traj, metrics)
    write_summary_csv(out_dir / "summary.csv",
                      [_summary_row(policy.name, eps_train, config, *stats)])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config, env, initial, out_dir = _evaluation_setup(args)
    rows: list[SummaryRow] = []
    named_series: list[tuple[str, list[float]]] = []
    for spec in args.policies:
        policy, eps_train = _build_policy(spec, config)
        name = policy.name if spec == "local" else f"{policy.name}:{Path(spec).stem}"
        while any(row.policy == name for row in rows):
            name += "+"
        agg = aggregate_runs(policy, env, config.eval.n_runs, config.seed,
                             config.eval.epsilon_eval, config.hyper.tau, initial)
        rows.append(_summary_row(name, eps_train, config, agg.mean_score,
                                 agg.mean_violation_ratio, agg.mean_length))
        named_series.append((name, agg.mean_series))
    write_summary_csv(out_dir / "compare_summary.csv", rows)
    write_compare_series_csv(out_dir / "compare_series.csv", named_series)
    return 0


def cmd_dump_config(args: argparse.Namespace) -> int:
    config = _load(args)
    sys.stdout.write(dump_config(config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiflow",
        description="Train and evaluate equity-constrained water-delivery policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="experiment config JSON (default: built-in)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_train = sub.add_parser("train", help="train a policy and write the model JSON")
    common(p_train)
    p_train.add_argument("--out", required=True, help="output model path (.json)")
    p_train.set_defaults(fn=cmd_train)

    def evaluation(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--out", required=True, help="output directory for the CSV files")
        p.add_argument("--eps-eval", dest="eps_eval", type=float, help="override eval epsilon")
        p.add_argument("--runs", type=int, help="override the number of random-start runs")

    p_eval = sub.add_parser("evaluate", help="evaluate a model file or the local baseline")
    evaluation(p_eval)
    p_eval.add_argument("--model", required=True, help='model path or the literal "local"')
    p_eval.set_defaults(fn=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="aggregate several policies on shared starts")
    evaluation(p_cmp)
    p_cmp.add_argument("policies", nargs="+", help='model paths and/or the literal "local"')
    p_cmp.set_defaults(fn=cmd_compare)

    p_dump = sub.add_parser("dump-config", help="print the effective config as JSON")
    common(p_dump)
    p_dump.set_defaults(fn=cmd_dump_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # ConfigurationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
