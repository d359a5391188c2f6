"""Feature extraction: eight features per (vehicle, reachable goal) pair.

Two features depend on the goal (path_to_goal_length, in_correct_lane); the
remaining six describe the vehicle and surrounding traffic and are identical
across goals for one vehicle and frame. Features that can be absent
(vehicle_in_front_dist/speed, oncoming_vehicle_dist) use None as the MISSING
value and are imputed with fixed caps before threshold tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Container, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .geometry import wrap_heading, wrap_signed
from .scenario import GoalSpec, GoalType, Route, Scenario, assign_goal_type, nearest_lane, path_offsets

FEATURE_NAMES: Tuple[str, ...] = (
    "path_to_goal_length",
    "in_correct_lane",
    "speed",
    "acceleration",
    "angle_in_lane",
    "vehicle_in_front_dist",
    "vehicle_in_front_speed",
    "oncoming_vehicle_dist",
)

BOOLEAN_FEATURES: Tuple[str, ...] = ("in_correct_lane",)
PER_GOAL_FEATURES: Tuple[str, ...] = ("path_to_goal_length", "in_correct_lane")
SHARED_FEATURES: Tuple[str, ...] = tuple(
    f for f in FEATURE_NAMES if f not in PER_GOAL_FEATURES
)

LOOKAHEAD_CAP = 100.0
MISSING_DIST = 100.0
MISSING_SPEED = 20.0


@dataclass(frozen=True)
class FeatureMetadata:
    """The feature schema: imputation values and bounded domains.

    DEFAULT_METADATA is the program's one schema. The fields take no
    arguments, so every instance equals it, and its maps are read-only, so
    what grit.verification caches from it cannot go stale; model files
    repeat it, and grit.tree.model_from_dict checks the copy."""

    per_goal: Tuple[str, ...] = field(init=False, default=PER_GOAL_FEATURES)
    shared: Tuple[str, ...] = field(init=False, default=SHARED_FEATURES)
    boolean: Tuple[str, ...] = field(init=False, default=BOOLEAN_FEATURES)
    imputation: Mapping[str, float] = field(
        init=False,
        default_factory=lambda: MappingProxyType({
            "vehicle_in_front_dist": MISSING_DIST,
            "vehicle_in_front_speed": MISSING_SPEED,
            "oncoming_vehicle_dist": MISSING_DIST,
        }),
    )
    # name -> (lo, hi, hi_open); None means unbounded on that side
    domains: Mapping[str, Tuple[Optional[float], Optional[float], bool]] = field(
        init=False,
        default_factory=lambda: MappingProxyType({
            "path_to_goal_length": (0.0, None, False),
            "speed": (0.0, None, False),
            "acceleration": (None, None, False),
            "angle_in_lane": (-math.pi, math.pi, True),
            "vehicle_in_front_dist": (0.0, LOOKAHEAD_CAP, False),
            "vehicle_in_front_speed": (0.0, None, False),
            "oncoming_vehicle_dist": (0.0, LOOKAHEAD_CAP, False),
        }),
    )

    def to_dict(self) -> dict:
        return {
            "per_goal": list(self.per_goal),
            "shared": list(self.shared),
            "boolean": list(self.boolean),
            "imputation": dict(self.imputation),
            "domains": {
                name: {"lo": lo, "hi": hi, "hi_open": open_}
                for name, (lo, hi, open_) in self.domains.items()
            },
        }


DEFAULT_METADATA = FeatureMetadata()


@dataclass(frozen=True)
class FeatureVector:
    path_to_goal_length: float
    in_correct_lane: bool
    speed: float
    acceleration: float
    angle_in_lane: float
    vehicle_in_front_dist: Optional[float]
    vehicle_in_front_speed: Optional[float]
    oncoming_vehicle_dist: Optional[float]

    def to_dict(self) -> Dict[str, Union[float, bool, None]]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    def imputed(self) -> Dict[str, Union[float, bool]]:
        """Feature map with MISSING values replaced by their fixed caps."""
        out: Dict[str, Union[float, bool]] = {}
        for name in FEATURE_NAMES:
            value = getattr(self, name)
            if value is None:
                value = DEFAULT_METADATA.imputation[name]
            out[name] = value
        return out


# -- individual features -----------------------------------------------------


def in_correct_lane(lane_id: str, goal: GoalSpec, scenario: Scenario) -> bool:
    """True when the goal is reachable from the lane via successors alone."""
    goal_lanes = {lid for lid, _s, _d in scenario.goal_projections(goal.goal_id)}
    seen = {lane_id}
    frontier = [lane_id]
    while frontier:
        cur = frontier.pop()
        if cur in goal_lanes:
            return True
        for nxt in scenario.lanes[cur].successors:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def angle_in_lane(state, scenario: Scenario) -> float:
    """Signed angle between vehicle heading and its lane tangent, [-pi, pi).

    Positive values mean the vehicle points left of the lane direction.
    """
    lane_id, s = nearest_lane(state.x, state.y, state.heading, scenario)
    tangent = scenario.lane_poly(lane_id).tangent_at(s)
    return wrap_signed(state.heading - tangent)


def _others_at_current_frame(history, vehicle_id: str):
    subject = history.trajectories[vehicle_id]
    t_now = subject[-1].time
    out = []
    for agent_id in history.agent_ids():
        if agent_id == vehicle_id:
            continue
        state = history.state_at(agent_id, t_now)
        if state is not None:
            out.append((agent_id, state))
    return out


def vehicle_in_front(
    history, vehicle_id: str, route: Route, scenario: Scenario
) -> Tuple[Optional[float], Optional[float]]:
    """Along-path gap and speed of the closest agent ahead on the lane path.

    Agents count when their nearest lane lies on the route and their
    along-path arclength exceeds the subject's. Gaps beyond the lookahead
    cap report MISSING. Lane-change penalties do not contribute to gaps.
    """
    offsets: Dict[str, Tuple[float, float]] = {}
    for lane_id, entry_s, offset in path_offsets(route):
        offsets.setdefault(lane_id, (entry_s, offset))
    best: Optional[Tuple[float, float]] = None
    for _agent_id, state in _others_at_current_frame(history, vehicle_id):
        lane_id, s_agent = nearest_lane(state.x, state.y, state.heading, scenario)
        if lane_id not in offsets:
            continue
        entry_s, offset = offsets[lane_id]
        if s_agent < entry_s - 1e-9:
            continue
        coord = offset + (s_agent - entry_s)
        if coord <= 1e-9:
            continue
        if best is None or coord < best[0]:
            best = (coord, state.speed)
    if best is None or best[0] > LOOKAHEAD_CAP:
        return None, None
    return best


def oncoming_vehicle(
    history, vehicle_id: str, route: Route, scenario: Scenario
) -> Optional[float]:
    """Distance from the nearest oncoming agent to the crossing point.

    Considers agents whose nearest lane conflicts with a lane on the route
    and who still head toward the crossing. MISSING when the route crosses
    no conflict or no such agent is within the lookahead cap.
    """
    conflicts: Dict[str, List[float]] = {}
    for lane_id in route.lane_ids:
        for other, s_conflict in scenario.conflicts_for(lane_id):
            conflicts.setdefault(other, []).append(s_conflict)
    if not conflicts:
        return None
    best: Optional[float] = None
    for _agent_id, state in _others_at_current_frame(history, vehicle_id):
        lane_id, s_agent = nearest_lane(state.x, state.y, state.heading, scenario)
        if lane_id not in conflicts:
            continue
        tangent = scenario.lane_poly(lane_id).tangent_at(s_agent)
        if abs(wrap_heading(state.heading - tangent)) >= math.pi / 2.0:
            continue
        for s_conflict in conflicts[lane_id]:
            if s_conflict >= s_agent - 1e-9:
                dist = max(0.0, s_conflict - s_agent)
                if best is None or dist < best:
                    best = dist
    if best is None or best > LOOKAHEAD_CAP:
        return None
    return best


# -- full extraction -----------------------------------------------------------


def extract_all(
    history,
    vehicle_id: str,
    routes: Sequence[Route],
    scenario: Scenario,
) -> Dict[str, FeatureVector]:
    """Feature vectors for every reachable goal of one vehicle.

    The six goal-independent features are computed once against a canonical
    reference route (the shortest one, ties to the smallest goal id) so they
    are identical across goals, mirroring the reporting and the verifier's
    equality constraints.
    """
    if not routes:
        return {}
    subject = history.trajectories[vehicle_id][-1]
    reference = min(routes, key=lambda r: (r.length, r.goal.goal_id))
    angle = angle_in_lane(subject, scenario)
    vif_dist, vif_speed = vehicle_in_front(history, vehicle_id, reference, scenario)
    oncoming = oncoming_vehicle(history, vehicle_id, reference, scenario)
    out: Dict[str, FeatureVector] = {}
    for route in routes:
        out[route.goal.goal_id] = FeatureVector(
            path_to_goal_length=route.length,
            in_correct_lane=in_correct_lane(route.start_lane, route.goal, scenario),
            speed=subject.speed,
            acceleration=subject.acceleration,
            angle_in_lane=angle,
            vehicle_in_front_dist=vif_dist,
            vehicle_in_front_speed=vif_speed,
            oncoming_vehicle_dist=oncoming,
        )
    return out


def candidates(
    history,
    vehicle_id: str,
    routes: Sequence[Route],
    scenario: Scenario,
    trees: Optional[Container[Tuple[str, GoalType]]] = None,
) -> List[Tuple[Tuple[str, GoalType], Optional[FeatureVector]]]:
    """((goal id, goal type), feature vector) for each route, in route order.

    The goal type is that of the vehicle's last state in history. Features
    are extracted unless trees is given and holds none of the pairs; then
    every vector is None.
    """
    state = history.trajectories[vehicle_id][-1]
    pairs = [(route.goal.goal_id, assign_goal_type(state, route, scenario)) for route in routes]
    if trees is not None and not any(pair in trees for pair in pairs):
        return [(pair, None) for pair in pairs]
    features = extract_all(history, vehicle_id, routes, scenario)
    return [(pair, features[pair[0]]) for pair in pairs]

