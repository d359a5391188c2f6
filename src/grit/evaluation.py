"""Desk-scale evaluation harness: synthetic scenes, curves, and timing.

The synthetic generator stands in for recorded datasets. Vehicles pick a
goal from a configurable mix, follow the lane centerlines with a
trapezoidal speed profile that slows for curvature, and carry additive
Gaussian sensor noise; everything is driven by one seeded generator so
reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import GritError, ScenarioError, TrajectoryError, _cut
from .geometry import Polyline, wrap_heading
from .inference import infer, infer_no_dt
from .scenario import GoalSpec, Scenario, scenario_from_dict
from .trajectory import (
    FRACTION_GRID,
    AgentState,
    Episode,
    first_goal_entry,
    fraction_cutoffs,
    history_for,
    states_from_columns,
)
from .tree import GoalModel

DEFAULT_FRAME_RATE = 25.0
VEHICLES_PER_EPISODE = 25
POSITION_NOISE = 0.1
HEADING_NOISE = 0.02
ACCEL_LIMIT = 2.0
LATERAL_ACCEL_LIMIT = 2.0
MIN_CREEP_SPEED = 1.0

T_JUNCTION_MIX: Dict[str, float] = {"G_east": 0.45, "G_north": 0.30, "G_west": 0.25}
CROSSROAD_MIX: Dict[str, float] = {
    "G_east": 0.40,
    "G_north": 0.25,
    "G_south": 0.15,
    "G_west": 0.20,
}


# -- scene templates ----------------------------------------------------------------


def _arc(
    cx: float, cy: float, r: float, a0: float, a1: float, steps: int
) -> List[List[float]]:
    return [
        [cx + r * math.cos(a), cy + r * math.sin(a)]
        for a in np.linspace(a0, a1, steps)
    ]


def _lane(
    lane_id: str,
    centerline: List[List[float]],
    successors: List[str],
    in_junction: bool,
    left: Optional[Tuple[str, bool]] = None,
    right: Optional[Tuple[str, bool]] = None,
) -> dict:
    """One lane entry; left and right are (lane id, same direction) or None."""
    return {
        "id": lane_id,
        "centerline": centerline,
        "successors": successors,
        "left": left and {"id": left[0], "same_direction": left[1]},
        "right": right and {"id": right[0], "same_direction": right[1]},
        "in_junction": in_junction,
    }


def _junction_dict(prefix: str, south: bool) -> dict:
    """Two westbound-origin lanes feeding a left turn and a straight exit,
    plus an eastbound-origin lane crossing the turn path. With south, the
    straight lane also feeds a right turn south. Junction lane ids start
    with prefix."""
    north, east, west, south_id = (
        f"{prefix}_{side}" for side in ("north", "east", "west", "south")
    )
    lanes = [
        _lane("w_left", [[-100.0, -2.0], [-10.0, -2.0]], [north], False,
              left=(west, False), right=("w_straight", True)),
        _lane("w_straight", [[-100.0, -6.0], [-10.0, -6.0]],
              [east, south_id] if south else [east], False, left=("w_left", True)),
        _lane(north, _arc(-10.0, 10.0, 12.0, -math.pi / 2, 0.0, 13)
              + [[2.0, 35.0], [2.0, 60.0]], [], True),
        _lane(east, [[-10.0, -6.0], [100.0, -6.0]], [], True),
    ]
    goals = [
        {"id": "G_north", "x": 2.0, "y": 60.0},
        {"id": "G_east", "x": 100.0, "y": -6.0},
    ]
    if south:
        lanes.append(_lane(south_id, _arc(-10.0, -14.0, 8.0, math.pi / 2, 0.0, 9)
                           + [[-2.0, -35.0], [-2.0, -60.0]], [], True))
        goals.append({"id": "G_south", "x": -2.0, "y": -60.0})
    lanes.append(_lane("e_in", [[100.0, 2.0], [10.0, 2.0]], [west], False))
    lanes.append(_lane(west, [[10.0, 2.0], [-100.0, 2.0]], [], True))
    goals.append({"id": "G_west", "x": -100.0, "y": 2.0})
    return {"lanes": lanes, "goals": goals, "conflicts": [[north, west]]}


# name -> (lane-graph builder, default goal mix)
_TEMPLATES: Dict[str, Tuple[Callable[[], dict], Dict[str, float]]] = {
    "t_junction": (lambda: _junction_dict("j", south=False), T_JUNCTION_MIX),
    "crossroad": (lambda: _junction_dict("x", south=True), CROSSROAD_MIX),
}


def template_names() -> List[str]:
    return sorted(_TEMPLATES)


def _template(name: str) -> Tuple[Callable[[], dict], Dict[str, float]]:
    key = name.replace("-", "_")
    if key not in _TEMPLATES:
        raise ScenarioError(
            f"unknown template '{name}' (have: {', '.join(template_names())})"
        )
    return _TEMPLATES[key]


def build_template(name: str) -> Scenario:
    layout, _ = _template(name)
    return scenario_from_dict(layout())


# -- synthetic trajectories ----------------------------------------------------------


def _smoothstep(t: float) -> float:
    return t * t * (3.0 - 2.0 * t)


BLEND_LENGTH = 40.0


def _blend_waypoints(
    x0: float, y0: float, y1: float, x_change: float, x_end: float
) -> List[Tuple[float, float]]:
    """Straight run, a smooth lateral lane change, then the target lane.

    The blend is long and finely sampled so its curvature stays well below
    the turn curvature; the speed profile then brakes for actual turns, not
    for lane changes.
    """
    pts: List[Tuple[float, float]] = [(x0, y0), (x_change, y0)]
    steps = 16
    for k in range(1, steps + 1):
        t = k / steps
        pts.append((x_change + BLEND_LENGTH * t, y0 + (y1 - y0) * _smoothstep(t)))
    pts.append((x_end, y1))
    return pts


def _goal_path(
    scenario: Scenario, goal: GoalSpec, rng: np.random.Generator
) -> List[Tuple[float, float]]:
    """Waypoints to one goal along the scenario's lanes.

    The goal's anchor lane and its chain of unique predecessors, entered
    from the first lane's right-hand same-direction neighbour, when it has
    one, with one lane change.
    """
    predecessors: Dict[str, List[str]] = {}
    for lane in scenario.lanes.values():
        for successor in lane.successors:
            predecessors.setdefault(successor, []).append(lane.lane_id)
    chain = [scenario.goal_anchor(goal)[0]]
    while len(predecessors.get(chain[0], [])) == 1:
        chain.insert(0, predecessors[chain[0]][0])
    entry = scenario.lanes[chain[0]]
    if entry.right is not None and entry.right.same_direction:
        x0, y0 = scenario.lanes[entry.right.lane_id].centerline[0]
        d_change = float(rng.uniform(20.0, 48.0))
        pts = _blend_waypoints(
            x0, y0, entry.centerline[0][1], x0 + d_change, entry.centerline[-1][0]
        )
    else:
        pts = list(entry.centerline)
    for lane_id in chain[1:]:
        pts += scenario.lanes[lane_id].centerline[1:]
    return pts


def _speed_profile(path: Polyline, v_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vertex speeds: curvature-limited, then accel-limited both ways."""
    s = path.cum_length
    n = len(s)
    limit = np.full(n, v_max)
    headings = path.segment_headings()
    seg_len = np.diff(s)
    for i in range(1, n - 1):
        dh = abs(wrap_heading(float(headings[i] - headings[i - 1])))
        ds = 0.5 * (seg_len[i - 1] + seg_len[i])
        if ds <= 0:
            continue
        kappa = dh / ds
        if kappa > 1e-9:
            limit[i] = min(v_max, math.sqrt(LATERAL_ACCEL_LIMIT / kappa))
    limit = np.maximum(limit, MIN_CREEP_SPEED)
    v = limit.copy()
    for i in range(1, n):
        v[i] = min(v[i], math.sqrt(v[i - 1] ** 2 + 2.0 * ACCEL_LIMIT * seg_len[i - 1]))
    for i in range(n - 2, -1, -1):
        v[i] = min(v[i], math.sqrt(v[i + 1] ** 2 + 2.0 * ACCEL_LIMIT * seg_len[i]))
    return s, v


def _roll_out(
    path: Polyline,
    v_max: float,
    spawn_frame: int,
    frame_rate: float,
    rng: np.random.Generator,
) -> List[AgentState]:
    s_grid, v_grid = _speed_profile(path, v_max)
    # Low-frequency speed wobble so no vehicle holds a bit-exact constant
    # speed; without it, zero acceleration identifies straight-through
    # traffic from the first frame.
    amp = float(rng.uniform(0.15, 0.35))
    freq = float(rng.uniform(0.05, 0.20))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    dt = 1.0 / frame_rate
    arcs: List[float] = []
    speeds: List[float] = []
    s = 0.0
    k = 0
    while True:
        base = float(np.interp(s, s_grid, v_grid))
        wobble = amp * math.sin(2.0 * math.pi * freq * k * dt + phase)
        v = max(0.5 * MIN_CREEP_SPEED, base + wobble)
        arcs.append(s)
        speeds.append(v)
        if s >= path.length:
            break
        s = min(path.length, s + v * dt)
        k += 1
    n = len(arcs)
    accel = [
        (speeds[k + 1] - speeds[k]) / dt if k + 1 < n else 0.0 for k in range(n)
    ]
    noise_xy = rng.normal(0.0, POSITION_NOISE, size=(n, 2))
    noise_h = rng.normal(0.0, HEADING_NOISE, size=n)
    xy = path.points_at(arcs) + noise_xy
    return states_from_columns([
        (spawn_frame + np.arange(n)) / frame_rate,
        xy[:, 0],
        xy[:, 1],
        path.tangents_at(arcs) + noise_h,
        speeds,
        accel,
    ])


def generate_synthetic(
    template: str,
    vehicles: int,
    seed: int,
    goal_mix: Optional[Mapping[str, float]] = None,
    frame_rate: float = DEFAULT_FRAME_RATE,
    vehicles_per_episode: int = VEHICLES_PER_EPISODE,
) -> Tuple[Scenario, List[Episode]]:
    """Deterministic synthetic fixture for a named template.

    Vehicles are split into episodes of vehicles_per_episode, spawn at
    staggered integer frames, and always run until they enter their goal
    radius. Same arguments, same bytes.
    """
    if vehicles < 1:
        raise GritError("vehicle count must be at least 1")
    if vehicles_per_episode < 1:
        raise GritError("vehicles per episode must be at least 1")
    layout, default_mix = _template(template)
    scenario = scenario_from_dict(layout())
    mix = dict(goal_mix if goal_mix is not None else default_mix)
    goal_ids = sorted(mix)
    if not goal_ids:
        raise GritError("goal mix must not be empty")
    weights = np.array([mix[g] for g in goal_ids], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise GritError("goal mix weights must be non-negative and sum > 0")
    goals = {g.goal_id: g for g in scenario.goals}
    for gid in goal_ids:
        if gid not in goals:
            raise GritError(f"goal mix names unknown goal '{_cut(gid)}'")
    weights = weights / weights.sum()

    rng = np.random.default_rng(seed)
    episodes: List[Episode] = []
    vehicle_no = 0
    remaining = vehicles
    while remaining > 0:
        batch = min(vehicles_per_episode, remaining)
        remaining -= batch
        trajectories: Dict[str, List[AgentState]] = {}
        spawn = 0
        for _ in range(batch):
            goal_id = goal_ids[int(rng.choice(len(goal_ids), p=weights))]
            v_max = float(rng.uniform(8.0, 12.0))
            waypoints = _goal_path(scenario, goals[goal_id], rng)
            gap = int(rng.integers(15, 45))
            path = Polyline(waypoints)
            states = _roll_out(path, v_max, spawn, frame_rate, rng)
            trajectories[f"v{vehicle_no:05d}"] = states
            vehicle_no += 1
            spawn += gap
        episodes.append(Episode(frame_rate=frame_rate, trajectories=trajectories))
    return scenario, episodes


# -- evaluation curves ----------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    n: int
    accuracy: float
    accuracy_stderr: float
    entropy: float
    entropy_stderr: float

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "n": self.n,
            "accuracy": self.accuracy,
            "accuracy_stderr": self.accuracy_stderr,
            "entropy": self.entropy,
            "entropy_stderr": self.entropy_stderr,
        }


@dataclass
class EvalReport:
    curve: List[CurvePoint]
    baseline_curve: Optional[List[CurvePoint]] = None
    timing_mean_us: float = 0.0
    timing_stderr_us: float = 0.0
    n_vehicles: int = 0
    n_inferences: int = 0

    def _point_at(self, fraction: float, baseline: bool = False) -> CurvePoint:
        curve = self.baseline_curve if baseline else self.curve
        for point in curve or []:
            if abs(point.fraction - fraction) < 1e-9:
                return point
        raise GritError(f"no curve point at fraction {fraction}")

    def accuracy_at(self, fraction: float, baseline: bool = False) -> float:
        return self._point_at(fraction, baseline).accuracy

    def entropy_at(self, fraction: float, baseline: bool = False) -> float:
        return self._point_at(fraction, baseline).entropy

    def to_dict(self) -> dict:
        doc = {
            "curve": [p.to_dict() for p in self.curve],
            "timing_mean_us": self.timing_mean_us,
            "timing_stderr_us": self.timing_stderr_us,
            "n_vehicles": self.n_vehicles,
            "n_inferences": self.n_inferences,
        }
        if self.baseline_curve is not None:
            doc["baseline_curve"] = [p.to_dict() for p in self.baseline_curve]
        return doc

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = [
            "fraction",
            "n",
            "accuracy",
            "accuracy_stderr",
            "entropy",
            "entropy_stderr",
        ]
        if self.baseline_curve is not None:
            header += [
                "baseline_accuracy",
                "baseline_accuracy_stderr",
                "baseline_entropy",
                "baseline_entropy_stderr",
            ]
        writer.writerow(header)
        for i, p in enumerate(self.curve):
            row = [
                f"{p.fraction:.1f}",
                p.n,
                repr(p.accuracy),
                repr(p.accuracy_stderr),
                repr(p.entropy),
                repr(p.entropy_stderr),
            ]
            if self.baseline_curve is not None:
                b = self.baseline_curve[i]
                row += [
                    repr(b.accuracy),
                    repr(b.accuracy_stderr),
                    repr(b.entropy),
                    repr(b.entropy_stderr),
                ]
            writer.writerow(row)
        return buf.getvalue()

    def to_gnuplot(self) -> str:
        lines = ["# fraction accuracy accuracy_stderr entropy entropy_stderr"]
        for p in self.curve:
            lines.append(
                f"{p.fraction:.1f} {p.accuracy!r} {p.accuracy_stderr!r} "
                f"{p.entropy!r} {p.entropy_stderr!r}"
            )
        return "\n".join(lines) + "\n"


def _stderr(values: Sequence[float]) -> float:
    n = len(values)
    if n <= 1:
        return 0.0
    arr = np.asarray(values, dtype=float)
    return float(arr.std(ddof=1) / math.sqrt(n))


@dataclass
class _VehicleEval:
    accuracy: List[float]
    entropy: List[float]
    times_us: List[float]
    base_accuracy: List[float]
    base_entropy: List[float]


def _evaluate_vehicle(
    episode: Episode,
    vehicle_id: str,
    scenario: Scenario,
    model: GoalModel,
    include_baseline: bool,
) -> Optional[_VehicleEval]:
    trajectory = episode.trajectories[vehicle_id]
    reached = first_goal_entry(trajectory, scenario)
    if reached is None:
        return None
    goal, trim = reached
    out = _VehicleEval([], [], [], [], [])
    for cutoff in fraction_cutoffs(trim):
        history = history_for(episode, vehicle_id, cutoff)
        t0 = time.perf_counter()
        post = infer(history, vehicle_id, scenario, model)
        t1 = time.perf_counter()
        out.times_us.append((t1 - t0) * 1e6)
        out.accuracy.append(1.0 if post.argmax_goal == goal.goal_id else 0.0)
        out.entropy.append(post.entropy)
        if include_baseline:
            base = infer_no_dt(history, vehicle_id, scenario, model)
            out.base_accuracy.append(1.0 if base.argmax_goal == goal.goal_id else 0.0)
            out.base_entropy.append(base.entropy)
    return out


def evaluate(
    model: GoalModel,
    episodes: Sequence[Episode],
    scenario: Scenario,
    include_baseline: bool = False,
) -> EvalReport:
    """Accuracy and normalized-entropy curves over the 11-fraction grid.

    Each goal-reaching vehicle contributes one truncated inference per
    fraction; argmax ties count as incorrect. Vehicles are aggregated in
    (episode index, vehicle id) order.
    """
    tasks = sorted(
        (e, vehicle_id)
        for e, episode in enumerate(episodes)
        for vehicle_id in episode.agent_ids()
    )
    if not tasks:
        raise TrajectoryError("no vehicles to evaluate")
    rows: List[_VehicleEval] = []
    for e, vehicle_id in tasks:
        row = _evaluate_vehicle(episodes[e], vehicle_id, scenario, model, include_baseline)
        if row is not None:
            rows.append(row)
    if not rows:
        raise TrajectoryError("no vehicle reaches a goal; nothing to evaluate")

    def build_curve(acc_rows: List[List[float]], ent_rows: List[List[float]]) -> List[CurvePoint]:
        points = []
        for i, fraction in enumerate(FRACTION_GRID):
            acc_col = [r[i] for r in acc_rows]
            ent_col = [r[i] for r in ent_rows]
            points.append(
                CurvePoint(
                    fraction=fraction,
                    n=len(acc_col),
                    accuracy=float(np.mean(acc_col)),
                    accuracy_stderr=_stderr(acc_col),
                    entropy=float(np.mean(ent_col)),
                    entropy_stderr=_stderr(ent_col),
                )
            )
        return points

    curve = build_curve([r.accuracy for r in rows], [r.entropy for r in rows])
    baseline_curve = None
    if include_baseline:
        baseline_curve = build_curve(
            [r.base_accuracy for r in rows], [r.base_entropy for r in rows]
        )
    times = [t for r in rows for t in r.times_us]
    return EvalReport(
        curve=curve,
        baseline_curve=baseline_curve,
        timing_mean_us=float(np.mean(times)),
        timing_stderr_us=_stderr(times),
        n_vehicles=len(rows),
        n_inferences=len(times),
    )


# -- timing ------------------------------------------------------------------------


@dataclass
class BenchmarkReport:
    mean_us: float
    stderr_us: float
    n_calls: int
    stage_means_us: Dict[str, float]

    @property
    def stage_shares(self) -> Dict[str, float]:
        total = sum(self.stage_means_us.values())
        if total <= 0:
            return {k: 0.0 for k in self.stage_means_us}
        return {k: v / total for k, v in self.stage_means_us.items()}

    def to_dict(self) -> dict:
        return {
            "mean_us": self.mean_us,
            "stderr_us": self.stderr_us,
            "n_calls": self.n_calls,
            "stage_means_us": dict(self.stage_means_us),
            "stage_shares": self.stage_shares,
        }


def benchmark(
    model: GoalModel,
    episodes: Sequence[Episode],
    scenario: Scenario,
    repetitions: Optional[int] = None,
) -> BenchmarkReport:
    """Wall-clock per-vehicle inference at each vehicle's final frame.

    One untimed warm-up pass precedes the measurement; repetitions defaults
    to whatever brings the total to at least 30 calls. Runs single-threaded
    so the numbers are not contention noise. The scenario's nearest-lane memo
    is cleared before each timed pass, so no call is answered by the
    warm-up or an earlier repetition.
    """
    histories: List[Tuple[Episode, str]] = []
    for episode in episodes:
        for vehicle_id in episode.agent_ids():
            cutoff = len(episode.trajectories[vehicle_id]) - 1
            histories.append((history_for(episode, vehicle_id, cutoff), vehicle_id))
    if not histories:
        raise TrajectoryError("no vehicles to benchmark")
    if repetitions is None:
        repetitions = max(1, math.ceil(30 / len(histories)))
    if repetitions < 1 or len(histories) * repetitions < 30:
        raise GritError(
            "benchmark needs at least 30 timed calls; raise repetitions"
        )

    for history, vehicle_id in histories:
        infer(history, vehicle_id, scenario, model)

    samples: List[float] = []
    stages: Dict[str, float] = {}
    for _ in range(repetitions):
        scenario.clear_nearest_memo()
        for history, vehicle_id in histories:
            t0 = time.perf_counter()
            infer(history, vehicle_id, scenario, model, timings=stages)
            t1 = time.perf_counter()
            samples.append((t1 - t0) * 1e6)
    n = len(samples)
    stage_means = {k: (v * 1e6) / n for k, v in sorted(stages.items())}
    return BenchmarkReport(
        mean_us=float(np.mean(samples)),
        stderr_us=_stderr(samples),
        n_calls=n,
        stage_means_us=stage_means,
    )
