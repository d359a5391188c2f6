import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grit.errors import ScenarioError
from grit.evaluation import build_template
from grit.geometry import wrap_heading
from grit.scenario import (
    _NEAREST_MEMO,
    AdjacentRef,
    GoalSpec,
    GoalType,
    Lane,
    Scenario,
    assign_goal_type,
    classify_heading_change,
    load_scenario,
    nearest_lane,
    path_offsets,
    reachable_goals,
    _nearest_lane_uncached,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from grit.trajectory import AgentState


def state(x, y, heading):
    return AgentState(time=0.0, x=x, y=y, heading=heading, speed=5.0, acceleration=0.0)


@pytest.fixture(scope="module")
def tj(fixture_scenario_factory=None):
    return build_template("t_junction")


# -- maneuver classification --------------------------------------------------


def test_classify_heading_change_hand_table():
    q = math.pi / 4.0
    assert classify_heading_change(0.0) is GoalType.STRAIGHT_ON
    assert classify_heading_change(q - 1e-9) is GoalType.STRAIGHT_ON
    assert classify_heading_change(-q + 1e-9) is GoalType.STRAIGHT_ON
    assert classify_heading_change(q) is GoalType.TURN_LEFT
    assert classify_heading_change(math.pi / 2.0) is GoalType.TURN_LEFT
    assert classify_heading_change(3.0 * q - 1e-9) is GoalType.TURN_LEFT
    assert classify_heading_change(-q) is GoalType.TURN_RIGHT
    assert classify_heading_change(-math.pi / 2.0) is GoalType.TURN_RIGHT
    assert classify_heading_change(3.0 * q) is GoalType.U_TURN
    assert classify_heading_change(-3.0 * q) is GoalType.U_TURN
    assert classify_heading_change(math.pi) is GoalType.U_TURN


@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_classify_is_periodic_and_total(delta):
    cls = classify_heading_change(delta)
    assert cls in set(GoalType)
    assert classify_heading_change(delta + 2.0 * math.pi) is cls


# -- graph validation ----------------------------------------------------------


def _line(lane_id, p0, p1, **kw):
    return Lane(lane_id=lane_id, centerline=(tuple(p0), tuple(p1)), **kw)


def test_scenario_rejects_bad_graphs():
    a = _line("a", (0, 0), (10, 0))
    goal = GoalSpec("g", 10.0, 0.0)
    with pytest.raises(ScenarioError):
        Scenario([a, _line("a", (0, 5), (10, 5))], [goal])
    with pytest.raises(ScenarioError):
        Scenario([_line("a", (0, 0), (10, 0), successors=("ghost",))], [goal])
    with pytest.raises(ScenarioError):
        Scenario(
            [_line("a", (0, 0), (10, 0), left=AdjacentRef("ghost", True))], [goal]
        )
    with pytest.raises(ScenarioError):
        Scenario([a], [goal], conflict_pairs=[("a", "ghost")])
    with pytest.raises(ScenarioError):
        Scenario([a], [goal, GoalSpec("g", 0.0, 0.0)])
    with pytest.raises(ScenarioError):
        Scenario([a], [GoalSpec("far", 10.0, 50.0)])
    with pytest.raises(ScenarioError):
        Scenario([a], [GoalSpec("bad", 10.0, 0.0, radius=0.0)])


def test_conflict_needs_a_crossing():
    a = _line("a", (0, 0), (10, 0))
    b = _line("b", (0, 30), (10, 30))
    with pytest.raises(ScenarioError):
        Scenario([a, b], [GoalSpec("g", 10.0, 0.0)], conflict_pairs=[("a", "b")])


def test_json_round_trip(tmp_path, tj):
    doc = scenario_to_dict(tj)
    again = scenario_to_dict(scenario_from_dict(doc))
    assert doc == again
    path = tmp_path / "scenario.json"
    save_scenario(tj, path)
    assert scenario_to_dict(load_scenario(path)) == doc


def test_scenario_from_dict_requires_keys():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"lanes": []})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"goals": []})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"lanes": 5, "goals": []})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"lanes": [], "goals": {"id": "g"}})


def test_load_scenario_rejects_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"lanes": ' + "[" * 100000)
    with pytest.raises(ScenarioError, match="nested too deeply"):
        load_scenario(path)


def _lane_entry(doc, lane_id):
    return next(lane for lane in doc["lanes"] if lane["id"] == lane_id)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: _lane_entry(doc, "w_left")["left"].update(same_direction="false"),
        lambda doc: _lane_entry(doc, "w_left")["left"].update(same_direction=0),
        lambda doc: _lane_entry(doc, "w_left")["left"].update(same_direction=None),
        lambda doc: _lane_entry(doc, "j_north").update(in_junction="no"),
        lambda doc: _lane_entry(doc, "j_north").update(in_junction=1),
        lambda doc: _lane_entry(doc, "e_in")["centerline"][0].append(0.0),
        lambda doc: _lane_entry(doc, "e_in")["centerline"][0].pop(),
        lambda doc: _lane_entry(doc, "e_in")["centerline"].insert(0, [True, False]),
        lambda doc: _lane_entry(doc, "e_in")["centerline"].insert(0, ["120", 2.0]),
        lambda doc: _lane_entry(doc, "e_in")["centerline"].insert(0, 120.0),
    ],
)
def test_scenario_from_dict_requires_strict_lane_fields(tj, edit):
    doc = scenario_to_dict(tj)
    edit(doc)
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_scenario_from_dict_lane_flags_default_to_false(tj):
    doc = scenario_to_dict(tj)
    del _lane_entry(doc, "w_left")["left"]["same_direction"]
    del _lane_entry(doc, "j_north")["in_junction"]
    scenario = scenario_from_dict(doc)
    assert scenario.lanes["w_left"].left == AdjacentRef("j_west", False)
    assert scenario.lanes["j_north"].in_junction is False


@pytest.mark.parametrize("conflicts", [[["j_north"]], [["j_north", "j_west", "e_in"]], [5], 7])
def test_scenario_from_dict_rejects_malformed_conflicts(tj, conflicts):
    doc = dict(scenario_to_dict(tj), conflicts=conflicts)
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


# -- nearest lane --------------------------------------------------------------


def test_nearest_lane_brute_force(tj):
    rng = np.random.default_rng(5)
    for _ in range(60):
        x = float(rng.uniform(-110.0, 110.0))
        y = float(rng.uniform(-20.0, 70.0))
        heading = float(rng.uniform(-math.pi, math.pi))
        dists = {
            lid: tj.lane_poly(lid).project(x, y)[1] for lid in tj.lanes
        }
        best = min(dists.values())
        contenders = {lid for lid, d in dists.items() if d < best + 1e-6}
        if len(contenders) > 1:
            continue  # tie-breaking covered by the dedicated cases below
        lane_id, s = nearest_lane(x, y, heading, tj)
        assert lane_id in contenders
        ps, pd = tj.lane_poly(lane_id).project(x, y)
        assert s == ps and pd == best


def test_nearest_lane_tie_breaks(tj):
    # equidistant between the two westbound approach lanes: same tangents,
    # so the lexicographically smaller id wins
    lane_id, _ = nearest_lane(-50.0, -4.0, 0.0, tj)
    assert lane_id == "w_left"
    # equidistant between opposite-direction lanes: heading decides
    assert nearest_lane(-50.0, 0.0, 0.0, tj)[0] == "w_left"
    assert nearest_lane(-50.0, 0.0, math.pi, tj)[0] == "j_west"


def _nearest_lane_reference(x, y, heading, scenario):
    """nearest_lane as one Polyline.project call per lane."""
    best = None
    for lid in sorted(scenario.lanes):
        poly = scenario.lane_poly(lid)
        s, d = poly.project(x, y)
        if best is not None and d >= best[0] + 1e-9:
            continue
        hd = abs(wrap_heading(heading - poly.tangent_at(s)))
        if best is None or d < best[0] - 1e-9 or hd < best[1] - 1e-12:
            best = (d, hd, lid, s)
    return best[2], best[3]


def _nearest_lane_queries(scenario):
    """A grid of poses over the scenario, plus poses at distance ties."""
    polys = [scenario.lane_poly(lid) for lid in sorted(scenario.lanes)]
    vertices = np.vstack([p.points for p in polys])
    lo, hi = vertices.min(axis=0) - 10.0, vertices.max(axis=0) + 10.0
    grid = [
        (x, y) for x in np.linspace(lo[0], hi[0], 31) for y in np.linspace(lo[1], hi[1], 31)
    ]
    queries = [(x, y, h) for x, y in grid for h in (0.0, math.pi / 2, math.pi, -math.pi / 2)]
    # segment joints, and points midway between vertices of two different
    # lanes (equidistant from both when the lanes run parallel), each with the
    # two lanes' tangents and their bisector so the heading tie flips
    for i, a in enumerate(polys):
        for j, b in enumerate(polys):
            if j < i:
                continue
            for pa, ta in zip(a.points, a.segment_headings().tolist() + [None]):
                for pb, tb in zip(b.points, b.segment_headings().tolist() + [None]):
                    x, y = (pa + pb) / 2.0
                    for h in (ta, tb, math.pi):
                        if h is not None:
                            queries.append((x, y, h))
                    if ta is not None and tb is not None:
                        queries.append((x, y, (ta + tb) / 2.0))
    return [(float(x), float(y), float(h)) for x, y, h in queries]


@pytest.mark.parametrize("template", ["t_junction", "crossroad"])
def test_nearest_lane_equals_per_lane_projection(template):
    scenario = build_template(template)
    polys = [scenario.lane_poly(lid) for lid in sorted(scenario.lanes)]
    ties = 0
    for x, y, h in _nearest_lane_queries(scenario):
        assert nearest_lane(x, y, h, scenario) == _nearest_lane_reference(x, y, h, scenario)
        dists = sorted(p.project(x, y)[1] for p in polys)
        ties += dists[1] - dists[0] < 1e-9
    assert ties > 50  # the adversarial points do reach the distance tie


def _same(a, b):
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("template", ["t_junction", "crossroad"])
def test_nearest_lane_memo_is_bit_equal_to_uncached(template):
    scenario = build_template(template)
    queries = _nearest_lane_queries(scenario)
    assert len(set(queries)) > _NEAREST_MEMO  # the cold pass also evicts
    for x, y, h in queries:
        want = _nearest_lane_uncached(x, y, h, scenario)
        assert _same(nearest_lane(x, y, h, scenario), want)  # cold, or evicted
        assert _same(nearest_lane(x, y, h, scenario), want)  # warm
    info = scenario._nearest.cache_info()
    assert info.hits >= len(queries)
    assert info.hits + info.misses == 2 * len(queries)


def test_nearest_lane_memo_merges_signed_zeros():
    for template in ("t_junction", "crossroad"):
        scenario = build_template(template)
        for x, y, h in [(0.0, 0.0, 0.0), (0.0, -6.0, math.pi), (-10.0, 0.0, 0.0)]:
            neg = (-x if x == 0.0 else x, -y if y == 0.0 else y, -h if h == 0.0 else h)
            want = _nearest_lane_uncached(x, y, h, scenario)
            assert _same(_nearest_lane_uncached(*neg, scenario), want)
            assert _same(nearest_lane(*neg, scenario), want)
            assert _same(nearest_lane(x, y, h, scenario), want)
        info = scenario._nearest.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 3, 3)


def test_nearest_lane_memo_starts_empty_after_pickling():
    scenario = build_template("t_junction")
    poses = [(float(x), 1.0, 0.5) for x in range(-60, 60, 7)]
    want = [nearest_lane(*pose, scenario) for pose in poses]
    copy = pickle.loads(pickle.dumps(scenario))
    assert copy._nearest.cache_info().currsize == 0
    assert scenario._nearest.cache_info().currsize == len(poses)
    assert all(_same(nearest_lane(*pose, copy), w) for pose, w in zip(poses, want))
    assert scenario_to_dict(copy) == scenario_to_dict(scenario)


def test_nearest_lane_memo_is_bounded():
    scenario = build_template("crossroad")
    for i in range(_NEAREST_MEMO + 300):
        nearest_lane(0.25 * i, 1.0, 0.0, scenario)
    info = scenario._nearest.cache_info()
    assert info.maxsize == _NEAREST_MEMO
    assert info.currsize == _NEAREST_MEMO
    assert info.misses == _NEAREST_MEMO + 300


def test_nearest_lane_memo_is_per_scenario():
    a = build_template("t_junction")
    b = build_template("t_junction")
    cross = build_template("crossroad")
    pose = (2.0, 50.0, math.pi / 2)
    assert nearest_lane(*pose, a)[0] == "j_north"
    assert b._nearest.cache_info().currsize == 0
    got = nearest_lane(*pose, cross)
    assert got[0] == "x_north"
    assert _same(got, _nearest_lane_uncached(*pose, cross))
    assert b._nearest.cache_info().currsize == 0
    assert a._nearest.cache_info().currsize == cross._nearest.cache_info().currsize == 1


def test_nearest_lane_memo_does_not_keep_its_scenario_alive():
    scenario = build_template("crossroad")
    for x in range(-30, 30, 3):
        nearest_lane(float(x), 1.0, 0.0, scenario)
    assert scenario._nearest.cache_info().currsize == 20
    ref = weakref.ref(scenario)
    gc.disable()  # freed by reference counting alone, not the cycle collector
    try:
        del scenario
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("template", ["t_junction", "crossroad", "tie"])
def test_goal_anchor_equals_brute_force(template):
    if template == "tie":
        # the goal lies exactly midway between lanes "b" and "a"
        lanes = [_line("b", (0, 2), (20, 2)), _line("a", (0, 0), (20, 0))]
        scenario = Scenario(lanes, [GoalSpec("g", 10.0, 1.0)])
        assert scenario.goal_anchor(scenario.goals[0]) == ("a", 10.0)
    else:
        scenario = build_template(template)
    for goal in scenario.goals:
        best = None
        for lid in sorted(scenario.lanes):
            s, d = scenario.lane_poly(lid).project(goal.x, goal.y)
            if best is None or d < best[0] - 1e-9:
                best = (d, lid, s)
        assert scenario.goal_anchor(goal) == (best[1], best[2])


# -- routing -------------------------------------------------------------------


def _j_north_length():
    # 12 chords spanning a quarter circle of radius 12, then two 25 m legs
    chord = 2.0 * 12.0 * math.sin((math.pi / 2.0) / 24.0)
    return 12.0 * chord + 50.0


def test_route_straight_to_west_goal(tj):
    routes = reachable_goals(state(50.0, 2.0, math.pi), tj)
    assert [r.goal.goal_id for r in routes] == ["G_west"]
    route = routes[0]
    assert route.length == pytest.approx(150.0)
    assert route.lane_ids == ("e_in", "j_west")
    assert route.start_lane == "e_in"
    assert route.start_s == pytest.approx(50.0)
    assert route.goal_lane == "j_west"
    assert route.goal_s == pytest.approx(110.0)


def test_route_with_lane_change_penalty(tj):
    routes = reachable_goals(state(-50.0, -6.0, 0.0), tj)
    by_goal = {r.goal.goal_id: r for r in routes}
    assert sorted(by_goal) == ["G_east", "G_north"]
    assert by_goal["G_east"].length == pytest.approx(150.0)
    # change into w_left (5 m penalty), drive the remaining 40 m, then the
    # junction lane end to end
    expected = 5.0 + 40.0 + _j_north_length()
    assert by_goal["G_north"].length == pytest.approx(expected, abs=1e-9)
    assert by_goal["G_north"].lane_ids[-1] == "j_north"


def test_routes_are_sorted_by_goal_id(tj):
    routes = reachable_goals(state(-80.0, -2.0, 0.0), tj)
    ids = [r.goal.goal_id for r in routes]
    assert ids == sorted(ids)


def test_goal_inside_radius_uses_euclidean_distance(tj):
    routes = reachable_goals(state(99.0, -6.0, 0.0), tj)
    by_goal = {r.goal.goal_id: r for r in routes}
    assert by_goal["G_east"].length == pytest.approx(1.0)


def test_reachable_goals_rejects_non_finite_state(tj):
    from types import SimpleNamespace

    bad = SimpleNamespace(x=math.nan, y=0.0, heading=0.0)
    with pytest.raises(ScenarioError):
        reachable_goals(bad, tj)


def test_path_offsets_arithmetic(tj):
    routes = reachable_goals(state(-50.0, -6.0, 0.0), tj)
    route = {r.goal.goal_id: r for r in routes}["G_east"]
    offsets = path_offsets(route)
    assert offsets[0] == ("w_straight", pytest.approx(50.0), 0.0)
    assert offsets[-1][0] == "j_east"
    # driven distance up to the junction lane: the 40 m left on w_straight
    assert offsets[-1][2] == pytest.approx(40.0)


# -- goal types ----------------------------------------------------------------


def test_assign_goal_type_on_t_junction(tj):
    s = state(-50.0, -6.0, 0.0)
    routes = {r.goal.goal_id: r for r in reachable_goals(s, tj)}
    assert assign_goal_type(s, routes["G_east"], tj) is GoalType.STRAIGHT_ON
    assert assign_goal_type(s, routes["G_north"], tj) is GoalType.TURN_LEFT
    w = state(50.0, 2.0, math.pi)
    west = reachable_goals(w, tj)[0]
    assert assign_goal_type(w, west, tj) is GoalType.STRAIGHT_ON


def test_assign_goal_type_right_and_u_turn():
    right = Scenario(
        [Lane("r", ((0.0, 0.0), (10.0, 0.0), (10.0, -10.0)))],
        [GoalSpec("g", 10.0, -10.0)],
    )
    s = state(1.0, 0.0, 0.0)
    route = reachable_goals(s, right)[0]
    assert assign_goal_type(s, route, right) is GoalType.TURN_RIGHT

    uturn = Scenario(
        [Lane("u", ((0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (0.0, 4.0)))],
        [GoalSpec("g", 0.0, 4.0)],
    )
    s = state(1.0, 0.0, 0.0)
    route = reachable_goals(s, uturn)[0]
    assert assign_goal_type(s, route, uturn) is GoalType.U_TURN


# -- static caches -------------------------------------------------------------


def test_goal_projections_and_anchor(tj):
    rows = tj.goal_projections("G_east")
    assert [(lid, pytest.approx(110.0)) for lid, s, _ in rows] == [
        ("j_east", pytest.approx(110.0))
    ]
    lane_id, s = tj.goal_anchor(GoalSpec("G_east", 100.0, -6.0))
    assert lane_id == "j_east" and s == pytest.approx(110.0)


def test_conflicts_for(tj):
    hits = tj.conflicts_for("j_north")
    assert len(hits) == 1
    other, s_on_other = hits[0]
    assert other == "j_west"
    # the crossing sits just west of x = -1 on j_west (which starts at x = 10)
    assert 10.0 < s_on_other < 12.0
    assert tj.conflicts_for("j_east") == []
