import math

import pytest

from grit.features import (
    DEFAULT_METADATA,
    FEATURE_NAMES,
    FeatureMetadata,
    FeatureVector,
    LOOKAHEAD_CAP,
    MISSING_DIST,
    MISSING_SPEED,
    angle_in_lane,
    extract_all,
    in_correct_lane,
    oncoming_vehicle,
    vehicle_in_front,
)
from grit.scenario import reachable_goals
from grit.trajectory import AgentState, Episode

FR = 25.0


def vec(**overrides):
    base = dict(
        path_to_goal_length=50.0,
        in_correct_lane=True,
        speed=10.0,
        acceleration=0.0,
        angle_in_lane=0.1,
        vehicle_in_front_dist=None,
        vehicle_in_front_speed=None,
        oncoming_vehicle_dist=None,
    )
    base.update(overrides)
    return FeatureVector(**base)


def scene(subject, others=()):
    """Single-frame episode: the subject plus labelled bystanders."""
    trajectories = {"ego": [subject]}
    for i, state in enumerate(others):
        trajectories[f"o{i}"] = [state]
    return Episode(FR, trajectories)


def state(x, y, heading, speed=10.0):
    return AgentState(0.0, x, y, heading, speed, 0.0)


def route_to(scenario, subject, goal_id):
    routes = {r.goal.goal_id: r for r in reachable_goals(subject, scenario)}
    return routes[goal_id]


# -- metadata and imputation -----------------------------------------------------


def test_imputed_fills_missing_values():
    filled = vec().imputed()
    assert filled["vehicle_in_front_dist"] == MISSING_DIST == 100.0
    assert filled["vehicle_in_front_speed"] == MISSING_SPEED == 20.0
    assert filled["oncoming_vehicle_dist"] == MISSING_DIST
    assert filled["speed"] == 10.0 and filled["in_correct_lane"] is True


def test_imputed_keeps_present_values():
    filled = vec(vehicle_in_front_dist=12.5, vehicle_in_front_speed=3.0).imputed()
    assert filled["vehicle_in_front_dist"] == 12.5
    assert filled["vehicle_in_front_speed"] == 3.0


def test_schema_is_read_only():
    # what verification caches from the schema is keyed without a snapshot
    # of it, so an edit in place must fail rather than serve stale boxes
    with pytest.raises(TypeError):
        DEFAULT_METADATA.domains["speed"] = (6.0, None, False)
    with pytest.raises(TypeError):
        DEFAULT_METADATA.imputation["vehicle_in_front_dist"] = 150.0
    assert DEFAULT_METADATA.domains["speed"] == (0.0, None, False)
    assert DEFAULT_METADATA.domains["angle_in_lane"] == (-math.pi, math.pi, True)


@pytest.mark.parametrize(
    "name", ["per_goal", "shared", "boolean", "imputation", "domains"]
)
def test_schema_takes_no_arguments(name):
    # a second schema could parse a proposition that verify then reads
    # under the first one
    assert FeatureMetadata() == DEFAULT_METADATA
    with pytest.raises(TypeError):
        FeatureMetadata(**{name: getattr(DEFAULT_METADATA, name)})


# -- lane membership ---------------------------------------------------------------


def test_in_correct_lane_follows_successor_chains(fixture_scenario):
    goals = {g.goal_id: g for g in fixture_scenario.goals}
    assert in_correct_lane("w_left", goals["G_north"], fixture_scenario)
    assert not in_correct_lane("w_left", goals["G_east"], fixture_scenario)
    assert in_correct_lane("w_straight", goals["G_east"], fixture_scenario)
    assert not in_correct_lane("w_straight", goals["G_north"], fixture_scenario)
    assert in_correct_lane("e_in", goals["G_west"], fixture_scenario)
    assert in_correct_lane("j_north", goals["G_north"], fixture_scenario)


# -- lane-relative angle -------------------------------------------------------------


def test_angle_in_lane_signed_values(fixture_scenario):
    # w_left runs along +x, so the tangent is 0 and the angle is the heading
    assert angle_in_lane(state(-50.0, -2.0, 0.3), fixture_scenario) == pytest.approx(
        0.3
    )
    assert angle_in_lane(state(-50.0, -2.0, -0.25), fixture_scenario) == pytest.approx(
        -0.25
    )
    # e_in runs along -x: heading pi - 0.2 points right of the lane direction
    assert angle_in_lane(
        state(50.0, 2.0, math.pi - 0.2), fixture_scenario
    ) == pytest.approx(-0.2)


# -- traffic features ----------------------------------------------------------------


def test_vehicle_in_front_same_lane_gap(fixture_scenario):
    subject = state(-50.0, -6.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_east")
    leader = state(-30.0, -6.0, 0.0, speed=7.0)
    dist, speed = vehicle_in_front(
        scene(subject, [leader]), "ego", route, fixture_scenario
    )
    assert dist == pytest.approx(20.0)
    assert speed == 7.0


def test_vehicle_in_front_prefers_nearest_across_lanes(fixture_scenario):
    subject = state(-50.0, -6.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_east")
    near = state(-30.0, -6.0, 0.0, speed=7.0)
    # on the successor lane j_east: path coordinate 40 + 20 = 60
    far = state(10.0, -6.0, 0.0, speed=9.0)
    dist, speed = vehicle_in_front(
        scene(subject, [far, near]), "ego", route, fixture_scenario
    )
    assert dist == pytest.approx(20.0) and speed == 7.0
    dist_far, speed_far = vehicle_in_front(
        scene(subject, [far]), "ego", route, fixture_scenario
    )
    assert dist_far == pytest.approx(60.0) and speed_far == 9.0


def test_vehicle_in_front_ignores_followers_and_other_lanes(fixture_scenario):
    subject = state(-50.0, -6.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_east")
    behind = state(-70.0, -6.0, 0.0)
    neighbour = state(-30.0, -2.0, 0.0)  # w_left is not on the G_east route
    assert vehicle_in_front(
        scene(subject, [behind, neighbour]), "ego", route, fixture_scenario
    ) == (None, None)


def test_vehicle_in_front_gap_beyond_cap_is_missing(fixture_scenario):
    subject = state(-50.0, -6.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_east")
    far = state(70.0, -6.0, 0.0)  # path coordinate 40 + 80 = 120 > cap
    assert vehicle_in_front(
        scene(subject, [far]), "ego", route, fixture_scenario
    ) == (None, None)
    assert LOOKAHEAD_CAP == 100.0


def test_oncoming_vehicle_distance_to_crossing(fixture_scenario):
    subject = state(-50.0, -2.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_north")
    (conflict_lane, s_conflict), = fixture_scenario.conflicts_for("j_north")
    assert conflict_lane == "j_west"
    # j_west runs from (10, 2) toward -x; an agent at x = 5 is 5 m along it
    toward = state(5.0, 2.0, math.pi, speed=6.0)
    dist = oncoming_vehicle(scene(subject, [toward]), "ego", route, fixture_scenario)
    assert dist == pytest.approx(s_conflict - 5.0)


def test_oncoming_vehicle_ignores_past_and_receding_agents(fixture_scenario):
    subject = state(-50.0, -2.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_north")
    past = state(-30.0, 2.0, math.pi)  # already beyond the crossing point
    receding = state(5.0, 2.0, 0.0)  # heads away from the lane direction
    assert (
        oncoming_vehicle(scene(subject, [past]), "ego", route, fixture_scenario)
        is None
    )
    assert (
        oncoming_vehicle(scene(subject, [receding]), "ego", route, fixture_scenario)
        is None
    )


def test_oncoming_vehicle_missing_without_conflicts(fixture_scenario):
    subject = state(-50.0, -6.0, 0.0)
    route = route_to(fixture_scenario, subject, "G_east")
    oncomer = state(5.0, 2.0, math.pi)
    assert (
        oncoming_vehicle(scene(subject, [oncomer]), "ego", route, fixture_scenario)
        is None
    )


# -- full extraction ---------------------------------------------------------------


def test_extract_all_shares_goal_independent_features(fixture_scenario):
    subject = state(-50.0, -6.0, 0.0, speed=8.0)
    leader = state(-30.0, -6.0, 0.0, speed=7.0)
    history = scene(subject, [leader])
    routes = reachable_goals(subject, fixture_scenario)
    assert len(routes) >= 2
    vectors = extract_all(history, "ego", routes, fixture_scenario)
    assert set(vectors) == {r.goal.goal_id for r in routes}
    east, north = vectors["G_east"], vectors["G_north"]
    for name in ("speed", "acceleration", "angle_in_lane", "vehicle_in_front_dist",
                 "vehicle_in_front_speed", "oncoming_vehicle_dist"):
        assert getattr(east, name) == getattr(north, name)
    assert east.speed == 8.0
    assert east.vehicle_in_front_dist == pytest.approx(20.0)
    assert east.in_correct_lane and not north.in_correct_lane
    assert east.path_to_goal_length == pytest.approx(150.0)
    # the lane-change route to G_north costs 5 + 40 + junction arc, under 150
    assert north.path_to_goal_length != east.path_to_goal_length
    assert extract_all(history, "ego", [], fixture_scenario) == {}


def test_feature_name_partitions():
    assert len(FEATURE_NAMES) == 8
    assert set(DEFAULT_METADATA.per_goal) | set(DEFAULT_METADATA.shared) == set(
        FEATURE_NAMES
    )
    assert set(DEFAULT_METADATA.per_goal) & set(DEFAULT_METADATA.shared) == set()
