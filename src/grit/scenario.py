"""Lane-graph scenarios: lanes, goals, routing, and maneuver classification.

A scenario is a directed lane graph (successor edges plus same-direction
adjacency for lane changes), a set of radius goals, and an optional list of
conflicting lane pairs inside junctions. Routing distances are arclengths
along lane centerlines; a lane change costs no arclength but a fixed penalty.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ScenarioError, _shown, json_bool, json_names, json_number, read_json
from .geometry import (
    Polyline,
    PolylineSet,
    cumulative_heading_change,
    polyline_crossing,
    wrap_heading,
)

LANE_CHANGE_PENALTY = 5.0
GOAL_OFFROAD_LIMIT = 5.0
DEFAULT_GOAL_RADIUS = 1.5

_DIST_TIE = 1e-9
# poses whose nearest_lane result each scenario keeps; least recently used go first
_NEAREST_MEMO = 1024


class GoalType(str, Enum):
    STRAIGHT_ON = "straight_on"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    U_TURN = "u_turn"


def classify_heading_change(delta: float) -> GoalType:
    """Map a cumulative signed heading change onto a maneuver class.

    The input is wrapped to (-pi, pi]; the four classes partition that
    interval exactly: |d| < pi/4 straight on, [pi/4, 3pi/4) left,
    (-3pi/4, -pi/4] right, the rest u-turn.
    """
    d = wrap_heading(delta)
    quarter = math.pi / 4.0
    if abs(d) < quarter:
        return GoalType.STRAIGHT_ON
    if quarter <= d < 3.0 * quarter:
        return GoalType.TURN_LEFT
    if -3.0 * quarter < d <= -quarter:
        return GoalType.TURN_RIGHT
    return GoalType.U_TURN


@dataclass(frozen=True)
class AdjacentRef:
    """Neighbouring lane reference; lane changes require same_direction."""

    lane_id: str
    same_direction: bool


@dataclass(frozen=True)
class Lane:
    lane_id: str
    centerline: Tuple[Tuple[float, float], ...]
    successors: Tuple[str, ...] = ()
    left: Optional[AdjacentRef] = None
    right: Optional[AdjacentRef] = None
    in_junction: bool = False


@dataclass(frozen=True)
class GoalSpec:
    goal_id: str
    x: float
    y: float
    radius: float = DEFAULT_GOAL_RADIUS


@dataclass(frozen=True)
class Route:
    """Shortest lane route from a vehicle state to one goal.

    length is the routing cost: driven arclength plus the lane-change
    penalty for every change. segments lists (lane id, entry s, exit s) for
    the driven portions; the first segment starts at the vehicle projection
    and the last one ends at the goal projection.
    """

    goal: GoalSpec
    lane_ids: Tuple[str, ...]
    length: float
    segments: Tuple[Tuple[str, float, float], ...]
    start_lane: str
    start_s: float
    goal_lane: str
    goal_s: float


class Scenario:
    """Validated lane graph with cached static geometry and a bounded
    memo of :func:`nearest_lane` results."""

    def __init__(
        self,
        lanes: Sequence[Lane],
        goals: Sequence[GoalSpec],
        conflict_pairs: Sequence[Tuple[str, str]] = (),
    ):
        if not lanes:
            raise ScenarioError("scenario has no lanes")
        ids = [l.lane_id for l in lanes]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate lane ids")
        gids = [g.goal_id for g in goals]
        if len(set(gids)) != len(gids):
            raise ScenarioError("duplicate goal ids")
        self.lanes: Dict[str, Lane] = {l.lane_id: l for l in lanes}
        self.goals: List[GoalSpec] = list(goals)
        self.conflict_pairs: List[Tuple[str, str]] = [
            (a, b) for a, b in conflict_pairs
        ]
        self._poly: Dict[str, Polyline] = {}
        for lane in lanes:
            try:
                self._poly[lane.lane_id] = Polyline(lane.centerline)
            except ValueError as exc:
                raise ScenarioError(f"lane {_shown(lane.lane_id)}: {exc}") from exc
        self._validate_refs()
        self._lane_ids = sorted(self.lanes)
        self._segments = PolylineSet([self._poly[lid] for lid in self._lane_ids])
        self._goal_lanes, self._goal_anchors = self._project_goals()
        self._conflict_map = self._locate_conflicts()
        self.clear_nearest_memo()

    def clear_nearest_memo(self) -> None:
        """Start an empty memo of :func:`nearest_lane` results."""
        # a weak proxy, so the memo does not keep its scenario alive in a cycle
        self._nearest = functools.lru_cache(maxsize=_NEAREST_MEMO)(
            functools.partial(_nearest_lane_uncached, scenario=weakref.proxy(self))
        )

    # an lru_cache wrapper cannot be pickled; a copy starts with an empty memo
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_nearest"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.clear_nearest_memo()

    # -- validation and caches -------------------------------------------

    def _validate_refs(self) -> None:
        for lane in self.lanes.values():
            for s in lane.successors:
                if s not in self.lanes:
                    raise ScenarioError(
                        f"lane {_shown(lane.lane_id)} references unknown successor {_shown(s)}"
                    )
            for ref in (lane.left, lane.right):
                if ref is not None and ref.lane_id not in self.lanes:
                    raise ScenarioError(
                        f"lane {_shown(lane.lane_id)} references unknown neighbour "
                        f"{_shown(ref.lane_id)}"
                    )
        for a, b in self.conflict_pairs:
            for lid in (a, b):
                if lid not in self.lanes:
                    raise ScenarioError(f"conflict references unknown lane {_shown(lid)}")
        for goal in self.goals:
            if goal.radius <= 0.0 or not math.isfinite(goal.radius):
                raise ScenarioError(f"goal {_shown(goal.goal_id)} has invalid radius")
            if not (math.isfinite(goal.x) and math.isfinite(goal.y)):
                raise ScenarioError(f"goal {_shown(goal.goal_id)} has non-finite location")

    def _project_goals(
        self,
    ) -> Tuple[Dict[str, List[Tuple[str, float, float]]], Dict[str, Tuple[str, float]]]:
        """Lanes within each goal's radius, and each goal's anchor."""
        table: Dict[str, List[Tuple[str, float, float]]] = {}
        anchors: Dict[str, Tuple[str, float]] = {}
        for goal in self.goals:
            rows: List[Tuple[str, float, float]] = []
            best = math.inf
            anchor: Optional[Tuple[float, str, float]] = None
            # a goal far beyond the lanes overflows the projection to an
            # infinite or NaN distance, which the offroad check below rejects
            with np.errstate(over="ignore", invalid="ignore"):
                for lid in self._lane_ids:
                    s, d = self._poly[lid].project(goal.x, goal.y)
                    best = min(best, d)
                    if anchor is None or d < anchor[0] - _DIST_TIE:
                        anchor = (d, lid, s)
                    if d <= goal.radius:
                        rows.append((lid, s, d))
            if best > GOAL_OFFROAD_LIMIT:
                raise ScenarioError(
                    f"goal {_shown(goal.goal_id)} lies {best:.3g} m from the nearest "
                    f"lane centerline (limit {GOAL_OFFROAD_LIMIT:.1f} m)"
                )
            table[goal.goal_id] = rows
            anchors[goal.goal_id] = (anchor[1], anchor[2])
        return table, anchors

    def _locate_conflicts(self) -> Dict[str, List[Tuple[str, float]]]:
        table: Dict[str, List[Tuple[str, float]]] = {}
        for a, b in self.conflict_pairs:
            hit = polyline_crossing(self._poly[a], self._poly[b])
            if hit is None:
                raise ScenarioError(
                    f"conflict pair ({_shown(a)}, {_shown(b)}) has no crossing point"
                )
            s_a, s_b = hit
            table.setdefault(a, []).append((b, s_b))
            table.setdefault(b, []).append((a, s_a))
        return table

    # -- lookups ----------------------------------------------------------

    def lane_poly(self, lane_id: str) -> Polyline:
        return self._poly[lane_id]

    def goal_projections(self, goal_id: str) -> List[Tuple[str, float, float]]:
        """Lanes whose centerline passes within the goal radius."""
        return self._goal_lanes[goal_id]

    def conflicts_for(self, lane_id: str) -> List[Tuple[str, float]]:
        """(conflicting lane, arclength of the crossing on that lane)."""
        return self._conflict_map.get(lane_id, [])

    def goal_anchor(self, goal: GoalSpec) -> Tuple[str, float]:
        """Closest lane projection of the goal location, for tangents.

        Distance ties within 1e-9 keep the smaller lane id. Computed once
        per goal when the scenario is built.
        """
        return self._goal_anchors[goal.goal_id]

    def same_direction_neighbours(self, lane_id: str) -> List[str]:
        lane = self.lanes[lane_id]
        out = []
        for ref in (lane.left, lane.right):
            if ref is not None and ref.same_direction:
                out.append(ref.lane_id)
        return out


# -- scenario file format --------------------------------------------------


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file, validating structure and references."""
    return scenario_from_dict(read_json(path, ScenarioError, "scenario"))


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict) or "lanes" not in raw or "goals" not in raw:
        raise ScenarioError("scenario JSON must contain 'lanes' and 'goals'")
    for key in ("lanes", "goals", "conflicts"):
        if not isinstance(raw.get(key, []), list):
            raise ScenarioError(f"scenario '{key}' must be a list")

    def adj(entry, what: str) -> Optional[AdjacentRef]:
        if entry is None:
            return None
        lane_id, flag = str(entry["id"]), entry.get("same_direction", False)
        return AdjacentRef(lane_id, json_bool(flag, ScenarioError, f"{what} same_direction"))

    lanes = []
    for item in raw["lanes"]:
        try:
            lane_id = str(item["id"])
            what = f"malformed lane entry: lane {_shown(lane_id)}"
            centerline = tuple(
                (float(json_number(x, ScenarioError, f"{what} centerline x")),
                 float(json_number(y, ScenarioError, f"{what} centerline y")))
                for x, y in item["centerline"]
            )
            successors = json_names(item.get("successors", []), ScenarioError, f"{what} successors")
            flag = item.get("in_junction", False)
            in_junction = json_bool(flag, ScenarioError, f"{what} in_junction")
            left, right = adj(item.get("left"), what), adj(item.get("right"), what)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed lane entry: {exc}") from exc
        lanes.append(Lane(lane_id, centerline, tuple(successors), left, right, in_junction))
    goals = []
    for item in raw["goals"]:
        try:
            goal_id = str(item["id"])
            what = f"malformed goal entry: goal {_shown(goal_id)}"
            x = float(json_number(item["x"], ScenarioError, f"{what} x"))
            y = float(json_number(item["y"], ScenarioError, f"{what} y"))
            radius = item.get("radius", DEFAULT_GOAL_RADIUS)
            radius = float(json_number(radius, ScenarioError, f"{what} radius"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed goal entry: {exc}") from exc
        goals.append(GoalSpec(goal_id, x, y, radius))
    try:
        conflicts = [(str(a), str(b)) for a, b in raw.get("conflicts", [])]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed conflict entry: {exc}") from exc
    return Scenario(lanes, goals, conflicts)


def scenario_to_dict(scenario: Scenario) -> dict:
    def adj(ref: Optional[AdjacentRef]):
        if ref is None:
            return None
        return {"id": ref.lane_id, "same_direction": ref.same_direction}

    return {
        "lanes": [
            {
                "id": lane.lane_id,
                "centerline": [[x, y] for x, y in lane.centerline],
                "successors": list(lane.successors),
                "left": adj(lane.left),
                "right": adj(lane.right),
                "in_junction": lane.in_junction,
            }
            for lane in scenario.lanes.values()
        ],
        "goals": [
            {"id": g.goal_id, "x": g.x, "y": g.y, "radius": g.radius}
            for g in scenario.goals
        ],
        "conflicts": [[a, b] for a, b in scenario.conflict_pairs],
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


# -- nearest lane -----------------------------------------------------------


def nearest_lane(
    x: float, y: float, heading: float, scenario: Scenario
) -> Tuple[str, float]:
    """Lane whose centerline is closest to (x, y).

    One numpy pass over the scenario's stacked lane segments projects the
    point onto every lane, bit-equal to each lane's Polyline.project. Lanes
    are then walked in lane-id order: distance ties resolve to the smallest
    absolute heading difference between the vehicle heading and the lane
    tangent at the nearest point; remaining ties pick the lexicographically
    smallest lane id.

    The result depends only on the pose and the lane geometry, so each
    scenario memoises it by the exact pose (x, y, heading) and keeps the
    _NEAREST_MEMO most recently used poses. Float keys merge 0.0 with -0.0,
    which give the same result.
    """
    return scenario._nearest(x, y, heading)


def _nearest_lane_uncached(
    x: float, y: float, heading: float, scenario: Scenario
) -> Tuple[str, float]:
    """:func:`nearest_lane` without the memo."""
    best = None  # (dist, heading_diff, lane_id, s)
    arclengths, dists = scenario._segments.project(x, y)
    for lid, s, d in zip(scenario._lane_ids, arclengths, dists):
        if best is not None and d >= best[0] + _DIST_TIE:
            continue
        hd = abs(wrap_heading(heading - scenario.lane_poly(lid).tangent_at(s)))
        if best is None or d < best[0] - _DIST_TIE or hd < best[1] - 1e-12:
            best = (d, hd, lid, s)
    assert best is not None
    return best[2], best[3]


# -- routing ----------------------------------------------------------------


@dataclass
class _SourceEntry:
    cost: float
    changes: int
    entry_s: float  # arclength carried onto this lane by the lane changes


def _adjacency_closure(
    scenario: Scenario, start_lane: str, start_s: float
) -> Dict[str, _SourceEntry]:
    """Lanes reachable from a mid-lane position by lane changes alone."""
    out: Dict[str, _SourceEntry] = {
        start_lane: _SourceEntry(0.0, 0, start_s)
    }
    frontier = [start_lane]
    while frontier:
        cur = frontier.pop(0)
        entry = out[cur]
        for nxt in scenario.same_direction_neighbours(cur):
            if nxt in out:
                continue
            carried = min(entry.entry_s, scenario.lane_poly(nxt).length)
            out[nxt] = _SourceEntry(
                entry.cost + LANE_CHANGE_PENALTY, entry.changes + 1, carried
            )
            frontier.append(nxt)
    return out


def reachable_goals(state, scenario: Scenario) -> List[Route]:
    """Goals reachable from the state's nearest lane, with shortest routes.

    state needs x, y and heading attributes. A goal containing the vehicle
    inside its radius is always reachable with the straight-line distance as
    length. Results are sorted by goal id.
    """
    for v in (state.x, state.y, state.heading):
        if not math.isfinite(v):
            raise ScenarioError("vehicle state has non-finite pose")
    start_lane, start_s = nearest_lane(state.x, state.y, state.heading, scenario)
    closure = _adjacency_closure(scenario, start_lane, start_s)

    # Dijkstra over (kind, lane) nodes; kind 0 = lane start, 1 = lane end.
    dist: Dict[Tuple[int, str], float] = {}
    pred: Dict[Tuple[int, str], Tuple[Tuple[int, str], str]] = {}
    source_info: Dict[Tuple[int, str], _SourceEntry] = {}
    heap: List[Tuple[float, Tuple[int, str]]] = []
    for lid, entry in closure.items():
        cost = entry.cost + scenario.lane_poly(lid).length - entry.entry_s
        node = (1, lid)
        if cost < dist.get(node, math.inf):
            dist[node] = cost
            source_info[node] = entry
            heapq.heappush(heap, (cost, node))

    def relax(node, nxt, weight, kind):
        cand = dist[node] + weight
        if cand < dist.get(nxt, math.inf) - 1e-12:
            dist[nxt] = cand
            pred[nxt] = (node, kind)
            source_info.pop(nxt, None)
            heapq.heappush(heap, (cand, nxt))

    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done or d > dist.get(node, math.inf):
            continue
        done.add(node)
        kind, lid = node
        lane = scenario.lanes[lid]
        if kind == 0:
            relax(node, (1, lid), scenario.lane_poly(lid).length, "drive")
            for nb in scenario.same_direction_neighbours(lid):
                relax(node, (0, nb), LANE_CHANGE_PENALTY, "change")
        else:
            for succ in lane.successors:
                relax(node, (0, succ), 0.0, "succ")
            for nb in scenario.same_direction_neighbours(lid):
                relax(node, (1, nb), LANE_CHANGE_PENALTY, "change")

    def rebuild_prefix(node) -> List[Tuple[str, float, float]]:
        """Driven segments from the vehicle position up to entering node."""
        steps = []
        cur = node
        while cur in pred:
            prev, kind = pred[cur]
            steps.append((cur, kind))
            cur = prev
        steps.reverse()
        segments: List[Tuple[str, float, float]] = [(start_lane, start_s, start_s)]
        entry = source_info[cur]
        lid = cur[1]
        segments.append((lid, entry.entry_s, scenario.lane_poly(lid).length))
        for nxt, kind in steps:
            if kind == "drive":
                drv = nxt[1]
                segments.append((drv, 0.0, scenario.lane_poly(drv).length))
        return segments

    routes: List[Route] = []
    for goal in scenario.goals:
        candidates: List[Tuple[float, List[Tuple[str, float, float]], str, float]] = []
        euclid = math.hypot(state.x - goal.x, state.y - goal.y)
        anchor_lane, anchor_s = scenario.goal_anchor(goal)
        if euclid <= goal.radius:
            candidates.append(
                (euclid, [(start_lane, start_s, start_s)], anchor_lane, anchor_s)
            )
        for lid, s_g, _d in scenario.goal_projections(goal.goal_id):
            entry = closure.get(lid)
            if entry is not None and s_g >= entry.entry_s - 1e-9:
                cost = max(0.0, entry.cost + (s_g - entry.entry_s))
                if entry.changes:
                    segs = [
                        (start_lane, start_s, start_s),
                        (lid, entry.entry_s, max(entry.entry_s, s_g)),
                    ]
                else:
                    segs = [(start_lane, start_s, max(start_s, s_g))]
                candidates.append((cost, segs, lid, s_g))
            node = (0, lid)
            if node in dist:
                segs = rebuild_prefix(node)
                segs.append((lid, 0.0, s_g))
                candidates.append((dist[node] + s_g, segs, lid, s_g))
        if not candidates:
            continue
        best = min(candidates, key=lambda c: c[0])
        cost, segs, goal_lane, goal_s = best
        merged: List[Tuple[str, float, float]] = []
        for seg in segs:
            if merged and merged[-1][0] == seg[0] and merged[-1][2] == seg[1]:
                merged[-1] = (seg[0], merged[-1][1], seg[2])
            else:
                merged.append(seg)
        lane_ids = tuple(dict.fromkeys(s[0] for s in merged))
        routes.append(
            Route(
                goal=goal,
                lane_ids=lane_ids,
                length=cost,
                segments=tuple(merged),
                start_lane=start_lane,
                start_s=start_s,
                goal_lane=goal_lane,
                goal_s=goal_s,
            )
        )
    routes.sort(key=lambda r: r.goal.goal_id)
    return routes


def route_polyline_headings(route: Route, scenario: Scenario) -> List[float]:
    """Segment headings along the driven route, in travel order."""
    headings: List[float] = []
    for lid, a, b in route.segments:
        if b - a <= 1e-9:
            continue
        poly = scenario.lane_poly(lid)
        pts = [poly.point_at(a)]
        for cum, p in zip(poly.cum_length, poly.points):
            if a < cum < b:
                pts.append((float(p[0]), float(p[1])))
        pts.append(poly.point_at(b))
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            if math.hypot(x1 - x0, y1 - y0) > 1e-9:
                headings.append(math.atan2(y1 - y0, x1 - x0))
    return headings


def assign_goal_type(state, route: Route, scenario: Scenario) -> GoalType:
    """Maneuver class for a route: accumulated heading change to the goal.

    The change is accumulated from the vehicle heading through the route
    polyline to the lane tangent at the goal projection, then wrapped to
    (-pi, pi] and classified.
    """
    headings = route_polyline_headings(route, scenario)
    goal_tangent = scenario.lane_poly(route.goal_lane).tangent_at(route.goal_s)
    headings.append(goal_tangent)
    delta = cumulative_heading_change(state.heading, headings)
    return classify_heading_change(delta)


def path_offsets(route: Route) -> List[Tuple[str, float, float]]:
    """(lane, entry s, driven offset at entry) for every route segment.

    Offsets count driven arclength only; lane-change penalties are routing
    cost, not distance, so they do not shift the coordinate.
    """
    out = []
    offset = 0.0
    for lid, a, b in route.segments:
        out.append((lid, a, offset))
        offset += b - a
    return out
