"""The three benchmark workloads: pipeline, track and verify.

Each workload is a closed loop with one client in one thread. ``setup()``
builds its inputs from the seed; ``fresh()`` hands the next pass its own
copy of the world; ``run_pass()`` performs one fixed unit of timed work and
returns one latency per operation, keyed by the operation, plus the number
of operations whose output did not match the golden digest (or raised).

Golden digests pin the program's outputs: a faster program that changes a
single bit of a model, a posterior, a verdict or a counterexample fails the
operation that produced it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

# Calls go through the module objects so that the tracer's rebinding of
# module attributes sees them.
from grit import cli, evaluation, inference, scenario, trajectory, training, verification
from grit.features import FEATURE_NAMES

# Model used by track and verify: the conftest fixture's configuration.
WORLD_CONFIG = training.TrainConfig(alpha=1.0, ccp_alpha=0.001)
# Master seed of the proposition pool; --seed only orders the pool, so every
# proposition has a stored digest.
PROPOSITION_POOL_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is the benchmark; TINY drives the self-test."""

    pipeline_fixture_seed: int = 7
    pipeline_vehicles: int = 50
    pipeline_vehicles_per_episode: int = 5
    pipeline_eval_csvs: int = 2
    world_seed: int = 7
    world_vehicles: int = 100
    world_train_episodes: int = 2
    vehicles_per_episode: int = 25
    track_every: int = 80
    verify_pool: int = 1024
    setup_reps: int = 3
    min_passes: int = 3


FULL = Sizes()
TINY = Sizes(
    pipeline_fixture_seed=3,
    pipeline_vehicles=30,
    pipeline_vehicles_per_episode=10,
    pipeline_eval_csvs=1,
    world_seed=3,
    world_vehicles=20,
    world_train_episodes=1,
    vehicles_per_episode=10,
    track_every=40,
    verify_pool=12,
    setup_reps=2,
    min_passes=1,
)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:12]


def _report_error(what: str) -> None:
    print(f"error in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def clear_caches() -> None:
    """Empty every ``functools`` cache held at module level in grit."""
    for name, module in list(sys.modules.items()):
        if name != "grit" and not name.startswith("grit."):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


@dataclass
class PassResult:
    attempted: int
    failed: int
    latencies: Dict[Hashable, float]  # seconds per operation that returned
    detail: Dict[str, float]


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, golden: Optional[dict]):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        # None records digests into self.recorded instead of checking them
        self.golden = golden
        self.recorded: dict = {}

    # What a pass reads and may fill with caches; fresh() replaces it.
    world = None

    def setup(self) -> None:
        raise NotImplementedError

    def fresh(self) -> None:
        """Give the next pass a world no earlier pass has touched, so a
        cache filled by one pass cannot answer the same queries in the next."""
        clear_caches()

    def run_pass(self, plan=None) -> PassResult:
        """One pass, or the part of one that ``plan`` (a chunk) names."""
        raise NotImplementedError

    def chunks(self) -> list:
        """Plans that together make one pass, each about a second where the
        workload allows, so traced and untraced runs can alternate."""
        return [None]

    def inputs(self) -> dict:
        """What the run measured, for the report."""
        raise NotImplementedError

    def _check(self, key: str, value: str) -> bool:
        if self.golden is None:
            self.recorded[key] = value
            return True
        return self.golden.get(key) == value


# -- pipeline -------------------------------------------------------------------


class Pipeline(Workload):
    """``grit train`` then ``grit eval`` on a synthesized t-junction fixture.

    The last CSVs are held out for ``eval``; the seed rotates the order in
    which the training CSVs are given, which moves the validation split of
    the grid search but not the work of preprocessing.
    """

    name = "pipeline"
    trained = False  # whether the pass's train step succeeded

    @property
    def rotations(self) -> int:
        s = self.sizes
        return s.pipeline_vehicles // s.pipeline_vehicles_per_episode - s.pipeline_eval_csvs

    @property
    def rotation(self) -> int:
        return self.seed % self.rotations

    def setup(self) -> None:
        s = self.sizes
        world, episodes = evaluation.generate_synthetic(
            "t_junction", s.pipeline_vehicles, s.pipeline_fixture_seed,
            vehicles_per_episode=s.pipeline_vehicles_per_episode,
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = self.workdir / "scenario.json"
        scenario.save_scenario(world, self.scenario_path)
        csvs = []
        for i, episode in enumerate(episodes):
            path = self.workdir / f"episode_{i:03d}.csv"
            trajectory.save_trajectories(episode, path)
            csvs.append(str(path))
        train, self.eval_csvs = csvs[: self.rotations], csvs[self.rotations :]
        self.train_csvs = train[self.rotation :] + train[: self.rotation]
        self.model_path = self.workdir / "model.json"
        self.eval_prefix = self.workdir / "eval" / "curves"
        self.scenario = world

    def run_pass(self, plan=None) -> PassResult:
        """``train`` then ``eval``, or the one of them ``plan`` names. The
        operation is the pair; its digest is checked after ``eval``."""
        commands = {
            "train": [
                "train", "--scenario", str(self.scenario_path),
                "--trajectories", *self.train_csvs, "--out", str(self.model_path),
            ],
            "eval": [
                "eval", "--scenario", str(self.scenario_path), "--model", str(self.model_path),
                "--trajectories", *self.eval_csvs, "--baseline", "no-dt",
                "--out", str(self.eval_prefix),
            ],
        }
        attempted = failed = 0
        detail = {}
        for step in commands if plan is None else [plan]:
            stale = [self.eval_prefix.with_suffix(".csv")]
            if step == "train":
                stale.append(self.model_path)
            for path in stale:
                path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    ok = cli.main(commands[step]) == 0
            except Exception:
                _report_error(f"pipeline {step}")
                ok = False
            detail[f"{step}_s"] = time.perf_counter() - t0
            if step == "train":
                self.trained = ok
                continue
            ok = ok and self.trained
            if ok:
                value = digest(
                    self.model_path.read_bytes(),
                    self.eval_prefix.with_suffix(".csv").read_bytes(),
                )
                ok = self._check(f"rotation{self.rotation}", value)
            attempted += 1
            failed += 0 if ok else 1
        return PassResult(attempted, failed, {"pass": sum(detail.values())}, detail)

    def chunks(self) -> list:
        return ["train", "eval"]

    def inputs(self) -> dict:
        s = self.sizes
        return {
            "template": "t_junction",
            "lanes": len(self.scenario.lanes),
            "goals": len(self.scenario.goals),
            "fixture_seed": s.pipeline_fixture_seed,
            "vehicles": s.pipeline_vehicles,
            "vehicles_per_csv": s.pipeline_vehicles_per_episode,
            "train_csvs": [Path(c).name for c in self.train_csvs],
            "eval_csvs": [Path(c).name for c in self.eval_csvs],
            "grid": "default 3x3 (alpha 0.1,1,10 x ccp 0,0.001,0.01)",
        }


# -- the crossroad world shared by track and verify ---------------------------------


class _CrossroadWorld(Workload):
    def setup(self) -> None:
        s = self.sizes
        world, episodes = evaluation.generate_synthetic(
            "crossroad", s.world_vehicles, s.world_seed,
            vehicles_per_episode=s.vehicles_per_episode,
        )
        datasets = trajectory.build_datasets(episodes[: s.world_train_episodes], world)
        model = training.train_model(datasets, WORLD_CONFIG)
        self.world = (world, model, episodes)
        self._pristine = pickle.dumps(self.world, pickle.HIGHEST_PROTOCOL)

    def fresh(self) -> None:
        super().fresh()
        self.world = None  # let the old copy go before the new one loads
        self.world = pickle.loads(self._pristine)

    @property
    def scenario(self):
        return self.world[0]

    @property
    def model(self):
        return self.world[1]

    @property
    def episodes(self):
        return self.world[2]

    def _world_inputs(self) -> dict:
        s = self.sizes
        return {
            "template": "crossroad",
            "lanes": len(self.scenario.lanes),
            "goals": len(self.scenario.goals),
            "world_seed": s.world_seed,
            "vehicles": s.world_vehicles,
            "train_episodes": s.world_train_episodes,
            "model_pairs": len(self.model.pairs()),
            "model_leaves": {
                f"{g}:{t.value}": tree.leaf_count()
                for (g, t), tree in sorted(self.model.trees.items())
            },
        }


# -- track ----------------------------------------------------------------------------


def posterior_bytes(post) -> bytes:
    rows = [
        (e.goal_id, e.goal_type.value, e.likelihood, e.prior, e.probability)
        for e in post.entries
    ]
    return repr((post.status, rows)).encode()


class Track(_CrossroadWorld):
    """Every vehicle present at every k-th frame of the held-out episodes.

    The seed picks the order of the episodes; the queries are the same for
    every seed, so runs differ only in the machine's speed.
    """

    name = "track"

    def setup(self) -> None:
        super().setup()
        k = self.sizes.track_every
        rng = np.random.default_rng(self.seed)
        held_out = list(range(self.sizes.world_train_episodes, len(self.episodes)))
        self.order = [held_out[i] for i in rng.permutation(len(held_out))]
        self.frames = {e: frame_index(self.episodes[e]) for e in held_out}
        self.plan = [(e, f) for e in self.order for f in sorted(self.frames[e]) if f % k == 0]

    def queries(self, e: int, f: int, latencies: Dict[Hashable, float]) -> Optional[bytes]:
        """Run one frame's queries; the digest input, or None on an exception."""
        episode = self.episodes[e]
        out = []
        for vehicle, cutoff in self.frames[e][f]:
            t0 = time.perf_counter()
            try:
                history = trajectory.history_for(episode, vehicle, cutoff)
                post = inference.infer(history, vehicle, self.scenario, self.model)
            except Exception:
                _report_error(f"track query {e}/{f}/{vehicle}")
                return None
            latencies[e, f, vehicle] = time.perf_counter() - t0
            out.append(vehicle.encode() + b"=" + posterior_bytes(post))
        return b"\n".join(out)

    def run_pass(self, plan=None) -> PassResult:
        latencies: Dict[Hashable, float] = {}
        attempted = failed = 0
        for e, f in self.plan if plan is None else plan:
            data = self.queries(e, f, latencies)
            attempted += len(self.frames[e][f])
            if data is None or not self._check(f"{e}/{f}", digest(data)):
                failed += len(self.frames[e][f])
        return PassResult(attempted, failed, latencies, {})

    def chunks(self) -> list:
        return [self.plan[i : i + 10] for i in range(0, len(self.plan), 10)]

    def record_all(self) -> None:
        """Digests of every frame, whatever ``track_every`` (golden.json input)."""
        self.run_pass([(e, f) for e in sorted(self.frames) for f in sorted(self.frames[e])])

    def inputs(self) -> dict:
        doc = self._world_inputs()
        n = sum(len(self.frames[e][f]) for e, f in self.plan)
        doc.update(
            held_out_episodes=self.order,
            every_kth_frame=self.sizes.track_every,
            frames=len(self.plan),
            queries=n,
            vehicles_visible_per_frame=n / len(self.plan),
        )
        return doc


def frame_index(episode) -> Dict[int, List[Tuple[str, int]]]:
    """Frame number -> (vehicle, index into its trajectory), by vehicle id."""
    out: Dict[int, List[Tuple[str, int]]] = {}
    for vehicle in episode.agent_ids():
        for i, state in enumerate(episode.trajectories[vehicle]):
            out.setdefault(round(state.time * episode.frame_rate), []).append((vehicle, i))
    return out


# -- verify ---------------------------------------------------------------------------


def generate_propositions(model, count: int, seed: int) -> List[dict]:
    """Random propositions over the model's pairs.

    Scopes hold from two pairs up to every pair; antecedents take zero to two
    atoms whose constants are the trees' own thresholds, so they cut leaf
    boxes; consequents mix the three kinds.
    """
    rng = np.random.default_rng(seed)
    pairs = model.pairs()
    metadata = model.metadata
    thresholds: Dict[str, List[float]] = {}
    for tree in model.trees.values():
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            if node.rule.kind == "threshold":
                thresholds.setdefault(node.rule.feature, []).append(node.rule.threshold)
            stack += [node.true_child, node.false_child]
    for values in thresholds.values():
        values.sort()
    props = []
    for n in range(count):
        size = int(rng.integers(2, len(pairs) + 1))
        scope = [pairs[i] for i in rng.choice(len(pairs), size, replace=False)]
        goals = list(dict.fromkeys(g for g, _ in scope))
        goal = goals[int(rng.integers(len(goals)))]
        kinds = ["argmax_is", "prob_at_least"] + (["prob_greater"] if len(goals) > 1 else [])
        kind = kinds[int(rng.integers(len(kinds)))]
        consequent: dict = {"kind": kind, "goal": goal}
        if kind == "prob_greater":
            consequent["than"] = [g for g in goals if g != goal][int(rng.integers(len(goals) - 1))]
        elif kind == "prob_at_least":
            consequent["threshold"] = round(float(rng.uniform(0.02, 0.6)), 2)
        atoms = []
        for _ in range(int(rng.integers(0, 3))):
            feature = FEATURE_NAMES[int(rng.integers(len(FEATURE_NAMES)))]
            atom: dict = {"feature": feature}
            if feature in metadata.per_goal:
                gid, gtype = scope[int(rng.integers(len(scope)))]
                atom["pair"] = [gid, gtype.value]
            if feature in metadata.boolean:
                atom.update(op="=", value=bool(rng.integers(2)))
            else:
                cuts = thresholds.get(feature) or [0.0]
                atom.update(
                    op=["<", "<=", ">", ">="][int(rng.integers(4))],
                    value=cuts[int(rng.integers(len(cuts)))],
                )
            atoms.append(atom)
        props.append({
            "name": f"p{n:04d}",
            "scope": [[g, t.value] for g, t in scope],
            "antecedent": atoms,
            "consequent": consequent,
        })
    return props


def verification_bytes(result, smt: str) -> bytes:
    ce = result.counterexample
    return b"\n".join([
        repr((result.verified, result.boxes_checked)).encode(),
        json.dumps(ce.to_dict() if ce else None, sort_keys=True).encode(),
        smt.encode(),
    ])


class Verify(_CrossroadWorld):
    """``verify`` plus ``export_smtlib`` per proposition, in seed order."""

    name = "verify"

    def setup(self) -> None:
        super().setup()
        docs = generate_propositions(self.model, self.sizes.verify_pool, PROPOSITION_POOL_SEED)
        self.props = [verification.proposition_from_dict(d, self.model.metadata) for d in docs]
        self.order = np.random.default_rng(self.seed).permutation(len(self.props)).tolist()
        self.verdicts: Dict[int, bool] = {}

    def run_pass(self, order=None) -> PassResult:
        latencies: Dict[Hashable, float] = {}
        failed = 0
        order = self.order if order is None else order
        for i in order:
            prop = self.props[i]
            t0 = time.perf_counter()
            try:
                result = verification.verify(self.model, prop)
                smt = verification.export_smtlib(self.model, prop)
            except Exception:
                _report_error(f"verify {prop.name}")
                failed += 1
                continue
            latencies[i] = time.perf_counter() - t0
            self.verdicts[i] = result.verified
            if not self._check(str(i), digest(verification_bytes(result, smt))):
                failed += 1
        return PassResult(len(order), failed, latencies, {})

    def chunks(self) -> list:
        return [self.order[i : i + 512] for i in range(0, len(self.order), 512)]

    def inputs(self) -> dict:
        doc = self._world_inputs()
        sizes: Dict[int, int] = {}
        for p in self.props:
            sizes[len(p.scope)] = sizes.get(len(p.scope), 0) + 1
        kinds: Dict[str, int] = {}
        for p in self.props:
            kinds[p.consequent.kind] = kinds.get(p.consequent.kind, 0) + 1
        verified = sum(self.verdicts.values())
        doc.update(
            propositions=len(self.props),
            pool_seed=PROPOSITION_POOL_SEED,
            scope_sizes=dict(sorted(sizes.items())),
            consequent_kinds=dict(sorted(kinds.items())),
            verified=verified,
            refuted=len(self.verdicts) - verified,
        )
        return doc


WORKLOADS = {w.name: w for w in (Pipeline, Track, Verify)}
