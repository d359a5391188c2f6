"""Command-line surface: synth, train, infer, verify, eval.

Exit codes: 0 success, 1 usage error, 2 invalid input or data, 3 property
refuted (verify only). With --json every command prints one machine-
parseable JSON document on stdout; otherwise output is human-oriented.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from .errors import GritError, TrajectoryError, _cut
from .evaluation import (
    benchmark,
    evaluate,
    generate_synthetic,
    template_names,
)
from .features import FEATURE_NAMES
from .inference import GoalPosterior, infer
from .scenario import load_scenario, save_scenario
from .trajectory import build_datasets, history_for, load_trajectories, save_trajectories
from .training import DEFAULT_GRID, grid_configs, grid_search, train_model
from .tree import load_model, pair_label, save_model
from .verification import (
    VerificationResult,
    export_smtlib,
    load_proposition,
    verify,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_REFUTED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this surface reserves 2 for
    bad input data, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _grid_token(token: str) -> Tuple[str, Tuple[float, ...]]:
    key, sep, raw = token.partition("=")
    if not sep or not raw:
        raise argparse.ArgumentTypeError(f"expected key=value, got '{_cut(token)}'")
    if key not in ("alpha", "ccp"):
        raise argparse.ArgumentTypeError(f"unknown grid key '{_cut(key)}' (alpha or ccp)")
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number in '{_cut(token)}'")
    return key, values


def build_parser() -> _Parser:
    parser = _Parser(
        prog="grit",
        description="Goal recognition with interpretable, verifiable trees.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "synth", parents=[common], help="generate a synthetic scenario and episodes"
    )
    p.add_argument("--template", default="t_junction", help=", ".join(template_names()))
    p.add_argument("--vehicles", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-rate", type=float, default=25.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("train", parents=[common], help="fit trees and priors")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trajectories", nargs="+", required=True, metavar="CSV")
    p.add_argument("--frame-rate", type=float, default=25.0)
    p.add_argument("--val-split", type=float, default=0.2)
    p.add_argument(
        "--grid",
        nargs="*",
        type=_grid_token,
        default=[],
        metavar="KEY=V1,V2",
        help="grid values, e.g. alpha=0.1,1,10 ccp=0,0.001,0.01",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("infer", parents=[common], help="posterior for one vehicle")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trajectories", required=True, metavar="CSV")
    p.add_argument("--frame-rate", type=float, default=25.0)
    p.add_argument("--vehicle", required=True)
    p.add_argument("--frame", type=int, default=None, help="cutoff frame (default last)")
    p.set_defaults(func=cmd_infer, parser=p)

    p = sub.add_parser("verify", parents=[common], help="check a proposition")
    p.add_argument("--model", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--emit-smt", default=None, metavar="PATH")
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("eval", parents=[common], help="accuracy/entropy curves")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trajectories", nargs="+", required=True, metavar="CSV")
    p.add_argument("--frame-rate", type=float, default=25.0)
    p.add_argument("--baseline", choices=["no-dt"], default=None)
    p.add_argument("--no-benchmark", action="store_true")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_eval, parser=p)
    return parser


def cmd_synth(args) -> int:
    if args.vehicles < 1:
        args.parser.error("--vehicles must be at least 1")
    scenario, episodes = generate_synthetic(
        args.template, args.vehicles, args.seed, frame_rate=args.frame_rate
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario_path = out / "scenario.json"
    save_scenario(scenario, scenario_path)
    episode_paths: List[str] = []
    for i, episode in enumerate(episodes):
        path = out / f"episode_{i:03d}.csv"
        save_trajectories(episode, path)
        episode_paths.append(str(path))
    doc = {
        "scenario": str(scenario_path),
        "episodes": episode_paths,
        "vehicles": args.vehicles,
        "seed": args.seed,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"wrote {scenario_path}")
        for path in episode_paths:
            print(f"wrote {path}")
    return EXIT_OK


def _holdout(episodes, val_split) -> Tuple[Set[Tuple[int, str]], int]:
    """Vehicles the grid search validates on, and the first held-out episode.

    Two or more episodes hold out the last ones whole; a single episode
    holds out the vehicles last in id order.
    """
    if not (0.0 < val_split < 1.0):
        raise GritError("--val-split must lie strictly between 0 and 1")
    n = len(episodes)
    if n >= 2:
        first = n - min(n - 1, max(1, round(val_split * n)))
        return {(e, a) for e in range(first, n) for a in episodes[e].agent_ids()}, first
    agents = episodes[0].agent_ids()
    k = min(len(agents) - 1, max(1, round(val_split * len(agents))))
    if k < 1:
        raise GritError("not enough vehicles to hold out a validation split")
    return {(0, a) for a in agents[len(agents) - k :]}, 0


def _split_datasets(datasets, held, first):
    """Train and validation buckets cut from build_datasets over all episodes.

    Samples are bucketed again in the order build_datasets emits them
    (episode, vehicle, frame, goal), so each split equals build_datasets run
    on that split alone, bucket order included. Validation episodes are
    renumbered from 0.
    """
    samples = [s for bucket in datasets.values() for s in bucket]
    samples.sort(key=lambda s: (s.episode_index, s.agent_id, s.frame_index, s.goal_id))
    train, val = {}, {}
    for s in samples:
        split = train
        if (s.episode_index, s.agent_id) in held:
            s = replace(s, episode_index=s.episode_index - first)
            split = val
        split.setdefault((s.goal_id, s.goal_type), []).append(s)
    return train, val


def cmd_train(args) -> int:
    configs = grid_configs(
        next((v for k, v in args.grid if k == "alpha"), DEFAULT_GRID[0]),
        next((v for k, v in args.grid if k == "ccp"), DEFAULT_GRID[1]),
    )
    scenario = load_scenario(args.scenario)
    episodes = [load_trajectories(p, args.frame_rate) for p in args.trajectories]

    grid_rows: List[dict] = []
    if len(configs) == 1:
        config = configs[0]
        datasets = build_datasets(episodes, scenario)
        if not datasets:
            raise GritError("no vehicle reaches a goal; nothing to train on")
    else:
        held, first = _holdout(episodes, args.val_split)
        datasets = build_datasets(episodes, scenario)
        train_ds, val_ds = _split_datasets(datasets, held, first)
        if not train_ds or not val_ds:
            raise GritError("no vehicle reaches a goal; nothing to train on")
        search = grid_search(train_ds, val_ds, configs)
        config = search.best_config
        grid_rows = [
            {"alpha": r.config.alpha, "ccp_alpha": r.config.ccp_alpha, "loss": r.loss}
            for r in search.results
        ]
    model = train_model(datasets, config)
    save_model(model, args.out)
    doc = {
        "out": args.out,
        "config": {"alpha": config.alpha, "ccp_alpha": config.ccp_alpha,
                   "max_depth": config.max_depth},
        "trees": model.describe(),
        "grid": grid_rows,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"wrote {args.out}")
        print(f"config: alpha={config.alpha:g} ccp_alpha={config.ccp_alpha:g}")
        for name, stats in doc["trees"].items():
            print(
                f"  {name}: depth {stats['depth']}, {stats['nodes']} nodes, "
                f"{stats['leaves']} leaves"
            )
    return EXIT_OK


def _print_posterior(post: GoalPosterior) -> None:
    print(f"status: {post.status}")
    if not post.entries:
        return
    rows = [("goal", "type", "likelihood", "prior", "probability")]
    for e in post.entries:
        rows.append(
            (
                e.goal_id,
                e.goal_type.value,
                f"{e.likelihood:.6g}",
                f"{e.prior:.6g}",
                f"{e.probability:.6g}",
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    print(f"argmax: {post.argmax_goal}")
    print(f"normalized entropy: {post.entropy:.6g}")


def cmd_infer(args) -> int:
    scenario = load_scenario(args.scenario)
    model = load_model(args.model)
    episode = load_trajectories(args.trajectories, args.frame_rate)
    if args.vehicle not in episode.trajectories:
        raise TrajectoryError(f"unknown vehicle '{_cut(args.vehicle)}'")
    cutoff = args.frame
    if cutoff is None:
        cutoff = len(episode.trajectories[args.vehicle]) - 1
    history = history_for(episode, args.vehicle, cutoff)
    post = infer(history, args.vehicle, scenario, model)
    if args.json:
        print(json.dumps(post.to_dict()))
    else:
        _print_posterior(post)
    return EXIT_OK


def _counterexample_table(result: VerificationResult) -> str:
    ce = result.counterexample
    scope = list(result.proposition.scope)
    headers = [""] + [pair_label(pair) for pair in scope]

    def fmt(v) -> str:
        if isinstance(v, bool):
            return str(v)
        return f"{v:.6g}"

    rows: List[List[str]] = []
    for feature in FEATURE_NAMES:
        rows.append([feature] + [fmt(ce.features[pair][feature]) for pair in scope])
    rows.append(["likelihood"] + [fmt(ce.likelihoods[pair]) for pair in scope])
    rows.append(["prior"] + [fmt(ce.priors[pair]) for pair in scope])
    rows.append(["probability"] + [fmt(ce.posterior[pair]) for pair in scope])
    table = [headers] + rows
    widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in table]
    return "\n".join(lines)


def cmd_verify(args) -> int:
    model = load_model(args.model)
    prop = load_proposition(args.prop)
    result = verify(model, prop)
    if args.emit_smt:
        Path(args.emit_smt).write_text(export_smtlib(model, prop))
    if args.json:
        print(json.dumps(result.to_dict()))
    elif result.verified:
        print(f"Verified: {prop.name} ({result.boxes_checked} boxes checked)")
        print(f"claim: {prop.render()}")
    else:
        print(f"Refuted: {prop.name}")
        print(f"claim: {prop.render()}")
        print(f"reason: {result.counterexample.reason}")
        print(_counterexample_table(result))
    return EXIT_OK if result.verified else EXIT_REFUTED


def cmd_eval(args) -> int:
    scenario = load_scenario(args.scenario)
    model = load_model(args.model)
    episodes = [load_trajectories(p, args.frame_rate) for p in args.trajectories]
    report = evaluate(
        model, episodes, scenario, include_baseline=args.baseline == "no-dt"
    )
    doc = report.to_dict()
    if not args.no_benchmark:
        doc["benchmark"] = benchmark(model, episodes, scenario).to_dict()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = out.with_suffix(".json")
    csv_path = out.with_suffix(".csv")
    dat_path = out.with_suffix(".dat")
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    csv_path.write_text(report.to_csv())
    dat_path.write_text(report.to_gnuplot())
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"wrote {json_path}, {csv_path}, {dat_path}")
        for p in report.curve:
            line = (
                f"fraction {p.fraction:.1f}: accuracy {p.accuracy:.3f} "
                f"± {p.accuracy_stderr:.3f}, entropy {p.entropy:.3f} "
                f"± {p.entropy_stderr:.3f} (n={p.n})"
            )
            print(line)
        if report.baseline_curve:
            print(
                "baseline (no trees) accuracy at 0.9: "
                f"{report.accuracy_at(0.9, baseline=True):.3f}"
            )
        print(
            f"inference: {report.timing_mean_us:.0f} ± {report.timing_stderr_us:.0f} "
            f"us/vehicle over {report.n_inferences} calls"
        )
        if "benchmark" in doc:
            bench = doc["benchmark"]
            print(
                f"benchmark: {bench['mean_us']:.0f} ± {bench['stderr_us']:.0f} us "
                f"({bench['n_calls']} calls)"
            )
            for stage, us in bench["stage_means_us"].items():
                print(f"  {stage}: {us:.0f} us")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.error("a command is required")
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return EXIT_OK if exc.code is None else EXIT_USAGE
    except GritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
