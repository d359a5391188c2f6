import math
import pickle

import pytest
from hypothesis import given, strategies as st

from grit.errors import TrajectoryError
from grit.evaluation import generate_synthetic
from grit.scenario import GoalSpec, Lane, Scenario
from grit.trajectory import (
    AgentState,
    Episode,
    build_datasets,
    derive_kinematics,
    first_goal_entry,
    fraction_cutoffs,
    ground_truth_goal,
    history_for,
    load_trajectories,
    sample_points,
    save_trajectories,
    states_from_columns,
)

FR = 25.0
DT = 1.0 / FR


def drive(n, v=10.0, x0=0.0, y=0.0, t0=0.0):
    """n frames of straight constant-speed motion along +x."""
    return [
        AgentState(t0 + k * DT, x0 + v * k * DT, y, 0.0, v, 0.0) for k in range(n)
    ]


@pytest.fixture()
def lane_world():
    lane = Lane("main", ((0.0, 0.0), (200.0, 0.0)))
    return Scenario([lane], [GoalSpec("G_end", 150.0, 0.0)])


# -- state and episode validation ----------------------------------------------


def test_agent_state_validation():
    with pytest.raises(TrajectoryError):
        AgentState(0.0, math.inf, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(TrajectoryError):
        AgentState(0.0, 0.0, 0.0, 0.0, -1.0, 0.0)
    s = AgentState(0.0, 0.0, 0.0, 3.0 * math.pi, 1.0, 0.0)
    assert s.heading == pytest.approx(math.pi)


FIELDS = ("time", "x", "y", "heading", "speed", "acceleration")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_agent_state_rejects_non_finite_fields(field, bad):
    values = dict(time=0.0, x=1.0, y=2.0, heading=0.5, speed=1.0, acceleration=0.0)
    values[field] = bad
    message = f"non-finite {field} in agent state"
    with pytest.raises(TrajectoryError, match=message):
        AgentState(**values)
    with pytest.raises(TrajectoryError, match=message):
        states_from_columns([[values[f]] for f in FIELDS])


@pytest.mark.parametrize("speed", [-1.0, -1e-300, -math.inf])
def test_agent_state_rejects_negative_speed(speed):
    message = "non-finite speed" if math.isinf(speed) else "negative speed in agent state"
    with pytest.raises(TrajectoryError, match=message):
        AgentState(0.0, 0.0, 0.0, 0.0, speed, 0.0)
    with pytest.raises(TrajectoryError, match=message):
        states_from_columns([[0.0, 1.0], [0.0] * 2, [0.0] * 2, [0.0] * 2, [1.0, speed], [0.0] * 2])


def assert_trusted_states_are_public(states):
    """Each state equals its rebuild by the validating constructor."""
    for state in states:
        public = AgentState(*(getattr(state, f) for f in FIELDS))
        assert type(state) is AgentState and not hasattr(state, "__dict__")
        assert state == public and repr(state) == repr(public)


@pytest.mark.parametrize("template", ["t_junction", "crossroad"])
def test_synthetic_states_equal_publicly_built_ones(template):
    _, episodes = generate_synthetic(template, 40, seed=5)
    for episode in episodes:
        for states in episode.trajectories.values():
            assert_trusted_states_are_public(states)


# headings on both sides of +-pi and signed zeros, speeds of both zero signs
EDGE_ROWS = [
    (0.0, 0.0, -0.0, math.pi, 0.0, -0.0),
    (DT, 0.1, 0.0, -math.pi, -0.0, 0.0),
    (2 * DT, -0.0, 0.2, 3.0 * math.pi, 2.5, -1.5),
    (3 * DT, 0.3, 0.3, -3.0 * math.pi, 2.5, 1e-300),
    (4 * DT, 0.4, 0.4, -0.0, 1e-300, -1e-300),
    (5 * DT, 0.5, 0.5, math.nextafter(-math.pi, 0.0), 7.0, 0.0),
    (6 * DT, 0.6, 0.6, math.nextafter(math.pi, 4.0), 7.0, 0.0),
    (7 * DT, 0.7, 0.7, 1e6, 7.0, 0.0),
]


@pytest.mark.parametrize("with_kinematics", [True, False])
def test_loaded_states_equal_publicly_built_ones(tmp_path, with_kinematics):
    header = "time,agent_id,x,y,heading" + (",speed,acceleration" if with_kinematics else "")
    lines = [header]
    for t, x, y, h, v, a in EDGE_ROWS:
        kin = f",{v!r},{a!r}" if with_kinematics else ""
        lines.append(f"{t!r},a,{x!r},{y!r},{h!r}{kin}")
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(lines) + "\n")
    states = load_trajectories(path, FR).trajectories["a"]
    if with_kinematics:
        expected = [AgentState(*row) for row in EDGE_ROWS]
    else:
        expected = derive_kinematics([AgentState(*row[:4], 0.0, 0.0) for row in EDGE_ROWS], FR)
    assert [repr(s) for s in states] == [repr(s) for s in expected]
    assert states == tuple(expected)
    assert states[0].heading == states[1].heading == math.pi
    assert_trusted_states_are_public(states)


@pytest.mark.parametrize("with_kinematics", [True, False])
def test_loaded_synthetic_states_equal_publicly_built_ones(tmp_path, fixture_world, with_kinematics):
    _, episodes = fixture_world
    path = tmp_path / "ep.csv"
    save_trajectories(episodes[3], path)
    if not with_kinematics:
        text = path.read_text().splitlines()
        path.write_text("\n".join(",".join(line.split(",")[:5]) for line in text) + "\n")
    for states in load_trajectories(path, FR).trajectories.values():
        assert_trusted_states_are_public(states)


def _same_episode(a, b):
    assert type(b) is Episode and b.frame_rate == a.frame_rate
    assert list(b.trajectories) == list(a.trajectories)
    assert b.trajectories == a.trajectories
    assert repr(b.trajectories) == repr(a.trajectories)
    assert b._times == a._times and all(type(t) is list for t in b._times.values())


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickling_round_trips_states_and_episodes(protocol, fixture_world):
    edge = [AgentState(*row) for row in EDGE_ROWS]
    for state in edge:
        back = pickle.loads(pickle.dumps(state, protocol))
        assert type(back) is AgentState and not hasattr(back, "__dict__")
        assert back == state and repr(back) == repr(state)
    episode = fixture_world[1][0]
    history = history_for(episode, episode.agent_ids()[5], 40)
    for ep in (Episode(FR, {"edge": edge, "b": drive(3)}), episode, history):
        _same_episode(ep, pickle.loads(pickle.dumps(ep, protocol)))


def test_episode_frame_grid_validation():
    good = drive(5)
    Episode(FR, {"a": good})
    skewed = good[:2] + [AgentState(good[2].time + 0.01, 1.0, 0.0, 0.0, 1.0, 0.0)]
    with pytest.raises(TrajectoryError):
        Episode(FR, {"a": skewed})
    with pytest.raises(TrajectoryError):
        Episode(FR, {"a": list(reversed(good))})
    with pytest.raises(TrajectoryError):
        Episode(FR, {"a": []})
    with pytest.raises(TrajectoryError):
        Episode(0.0, {"a": good})


def test_state_at_frame_lookup():
    ep = Episode(FR, {"a": drive(10, t0=1.0)})
    hit = ep.state_at("a", 1.0 + 3 * DT)
    assert hit is not None and hit.x == pytest.approx(10.0 * 3 * DT)
    assert ep.state_at("a", 0.5) is None
    assert ep.state_at("ghost", 1.0) is None


# -- CSV round trip --------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ep = Episode(FR, {"a": drive(7), "b": drive(4, v=3.3, y=5.0, t0=2 * DT)})
    path = tmp_path / "ep.csv"
    save_trajectories(ep, path)
    back = load_trajectories(path, FR)
    assert back.trajectories == ep.trajectories


def test_csv_round_trip_on_synthetic_episode(tmp_path, fixture_world):
    _, episodes = fixture_world
    path = tmp_path / "ep0.csv"
    save_trajectories(episodes[0], path)
    back = load_trajectories(path, episodes[0].frame_rate)
    assert back.trajectories == episodes[0].trajectories


def test_csv_missing_required_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,agent_id,x,y\n0.0,a,0,0\n")
    with pytest.raises(TrajectoryError):
        load_trajectories(path, FR)


def test_csv_without_kinematics_derives_them(tmp_path):
    lines = ["time,agent_id,x,y,heading"]
    v = 8.0
    for k in range(12):
        lines.append(f"{k * DT!r},a,{v * k * DT!r},0.0,0.0")
    path = tmp_path / "pos.csv"
    path.write_text("\n".join(lines) + "\n")
    ep = load_trajectories(path, FR)
    for s in ep.trajectories["a"]:
        assert s.speed == pytest.approx(v, abs=1e-9)
        assert s.acceleration == pytest.approx(0.0, abs=1e-9)
    # kinematics divide by the frame rate, so it is checked before deriving them
    for rate in (0.0, -FR, math.nan, math.inf):
        with pytest.raises(TrajectoryError, match="frame rate"):
            load_trajectories(path, rate)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.08,a,abc,0,0,1,0", "malformed row at line 5"),
        ("0.08,a,1,0", "malformed row at line 5"),
        ("0.08,,1,0,0,1,0", "empty agent id at line 5"),
        ("0.08,a,nan,0,0,1,0", "non-finite x in agent state at line 5"),
        ("0.08,a,1,0,inf,1,0", "non-finite heading in agent state at line 5"),
        ("0.08,a,1,0,0,1,-inf", "non-finite acceleration in agent state at line 5"),
        ("0.08,a,1,0,0,-2,0", "negative speed in agent state at line 5"),
    ],
)
def test_csv_bad_row_reports_its_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    # the blank line 3 is skipped but still counted
    path.write_text(
        "time,agent_id,x,y,heading,speed,acceleration\n"
        f"0.0,a,0,0,0,1,0\n\n0.04,a,0.5,0,0,1,0\n{row}\n0.12,a,1.5,0,0,1,0\n"
    )
    with pytest.raises(TrajectoryError, match=message):
        load_trajectories(path, FR)


def test_csv_derived_kinematics_fault_reports_its_line(tmp_path):
    # positions whose differences overflow give a non-finite derived speed
    path = tmp_path / "huge.csv"
    path.write_text("time,agent_id,x,y,heading\n0.0,a,-1e308,0,0\n0.04,a,1e308,0,0\n")
    with pytest.raises(TrajectoryError, match="non-finite speed in agent state at line 2"):
        load_trajectories(path, FR)


def test_csv_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "ooo.csv"
    path.write_text(
        "time,agent_id,x,y,heading\n0.08,a,1,0,0\n0.04,a,0.5,0,0\n"
    )
    with pytest.raises(TrajectoryError):
        load_trajectories(path, FR)


# -- kinematics ------------------------------------------------------------------


def test_derive_kinematics_quadratic_oracle():
    # x(t) = v0 t + a t^2 / 2: the central difference recovers v(t) exactly on
    # a quadratic, and averaging a linear sequence over a symmetric window
    # returns its centre, so frames whose smoothing window avoids the
    # one-sided boundary estimates must match the closed form.
    v0, a = 2.0, 1.5
    n = 20
    states = [
        AgentState(k * DT, v0 * (k * DT) + 0.5 * a * (k * DT) ** 2, 0.0, 0.0, 0.0, 0.0)
        for k in range(n)
    ]
    out = derive_kinematics(states, FR)
    for k in range(3, n - 3):
        assert out[k].speed == pytest.approx(v0 + a * k * DT, abs=1e-9)
    for k in range(4, n - 4):
        assert out[k].acceleration == pytest.approx(a, abs=1e-9)


def test_derive_kinematics_short_inputs():
    single = derive_kinematics(drive(1), FR)
    assert single[0].speed == 0.0 and single[0].acceleration == 0.0
    assert derive_kinematics([], FR) == []


# -- sampling grid ----------------------------------------------------------------


def test_fraction_cutoffs_long_trajectory():
    assert fraction_cutoffs(250) == [0, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250]


def test_fraction_cutoffs_rounding_ties_go_down():
    # f * 4 hits 2.0 twice and half-steps where ceil(x - 0.5) rounds down
    assert fraction_cutoffs(4) == [0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    # 0.5 * 1 = 0.5 is a tie and stays at frame 0
    assert fraction_cutoffs(1)[5] == 0


@given(st.integers(min_value=0, max_value=5000))
def test_fraction_cutoffs_shape(trim):
    cuts = fraction_cutoffs(trim)
    assert len(cuts) == 11
    assert cuts[0] == 0 and cuts[-1] == trim
    assert all(0 <= c <= trim for c in cuts)
    assert cuts == sorted(cuts)
    assert 1 <= len(set(cuts)) <= 11


def test_sample_points_trims_at_goal_radius(lane_world):
    goal = lane_world.goals[0]
    traj = drive(130, v=30.0)  # 1.2 m per frame, inside the radius at frame 124
    cuts = sample_points(traj, goal)
    entry = next(
        i for i, s in enumerate(traj) if math.hypot(s.x - 150.0, s.y) <= goal.radius
    )
    assert cuts == sorted(set(fraction_cutoffs(entry)))
    assert cuts[-1] == entry


def test_sample_points_short_trajectory_keeps_every_frame(lane_world):
    goal = lane_world.goals[0]
    # 7.0 m out: first frame within 1.5 m of the goal is frame 5 exactly
    traj = drive(6, v=30.0, x0=143.0)
    assert sample_points(traj, goal) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("template", ["t_junction", "crossroad"])
def test_goal_entry_frame_gives_sample_points(template):
    # build_datasets samples at the frame first_goal_entry returns, without
    # scanning the trajectory again: no goal is entered before it
    scenario, episodes = generate_synthetic(template, 60, seed=2)
    vehicles = 0
    for episode in episodes:
        for trajectory in episode.trajectories.values():
            goal, trim = first_goal_entry(trajectory, scenario)
            assert sorted(set(fraction_cutoffs(trim))) == sample_points(trajectory, goal)
            vehicles += 1
    assert vehicles == 60


def test_sample_points_requires_goal_entry(lane_world):
    with pytest.raises(TrajectoryError):
        sample_points(drive(5), lane_world.goals[0])


def test_first_goal_entry_and_ground_truth(lane_world):
    traj = drive(130, v=30.0)
    hit = first_goal_entry(traj, lane_world)
    assert hit is not None
    goal, idx = hit
    assert goal.goal_id == "G_end"
    assert math.hypot(traj[idx].x - 150.0, traj[idx].y) <= goal.radius
    assert math.hypot(traj[idx - 1].x - 150.0, traj[idx - 1].y) > goal.radius
    assert ground_truth_goal(drive(3), lane_world) is None


# -- history truncation -----------------------------------------------------------


def test_history_for_truncates_subject_and_clips_others():
    subject = drive(20)
    other = drive(30, v=5.0, y=4.0, t0=0.0)
    late = drive(10, v=5.0, y=8.0, t0=15 * DT)
    ep = Episode(FR, {"s": subject, "o": other, "l": late})
    hist = history_for(ep, "s", 9)
    assert len(hist.trajectories["s"]) == 10
    assert hist.trajectories["s"][-1] == subject[9]
    assert all(s.time <= subject[9].time + 1e-9 for s in hist.trajectories["o"])
    # an agent that spawns after the cutoff disappears entirely
    assert "l" not in hist.trajectories


def _history_reference(episode, vehicle_id, cutoff_index):
    """history_for as a filter over every state and a validated Episode."""
    subject = episode.trajectories[vehicle_id]
    t_first = subject[0].time - 1e-6
    t_cut = subject[cutoff_index].time + 1e-6
    out = {vehicle_id: subject[: cutoff_index + 1]}
    for agent_id, states in episode.trajectories.items():
        if agent_id == vehicle_id:
            continue
        kept = [s for s in states if t_first <= s.time <= t_cut]
        if kept:
            out[agent_id] = kept
    return Episode(episode.frame_rate, out)


def test_history_for_equals_filtered_episode():
    _scenario, episodes = generate_synthetic("crossroad", 3, seed=3, vehicles_per_episode=3)
    episode = episodes[0]
    for vehicle in episode.agent_ids():
        for cutoff in range(len(episode.trajectories[vehicle])):
            got = history_for(episode, vehicle, cutoff)
            want = _history_reference(episode, vehicle, cutoff)
            assert got.frame_rate == want.frame_rate
            assert list(got.trajectories) == list(want.trajectories)
            for agent_id, states in want.trajectories.items():
                assert type(got.trajectories[agent_id]) is tuple
                assert got.trajectories[agent_id] == states
            assert got._times == want._times


def test_history_for_validates_arguments():
    ep = Episode(FR, {"s": drive(5)})
    with pytest.raises(TrajectoryError):
        history_for(ep, "ghost", 0)
    with pytest.raises(TrajectoryError):
        history_for(ep, "s", 5)


# -- dataset assembly --------------------------------------------------------------


def test_build_datasets_on_single_lane_world(lane_world):
    traj = drive(130, v=30.0)
    ep = Episode(FR, {"a": traj})
    buckets = build_datasets([ep], lane_world)
    assert len(buckets) == 1
    (goal_id, gtype), samples = next(iter(buckets.items()))
    assert goal_id == "G_end"
    entry = first_goal_entry(traj, lane_world)[1]
    assert len(samples) == len(sample_points(traj, lane_world.goals[0]))
    assert all(s.label for s in samples)
    assert all(s.agent_id == "a" and s.episode_index == 0 for s in samples)
    assert max(s.frame_index for s in samples) == entry


def test_build_datasets_skips_non_reaching_vehicles(lane_world):
    ep = Episode(FR, {"a": drive(10)})
    assert build_datasets([ep], lane_world) == {}


def test_build_datasets_agent_filter_keeps_context(lane_world):
    reaching = drive(130, v=30.0)
    ep = Episode(FR, {"a": reaching, "b": drive(130, v=30.0, y=0.5)})
    all_buckets = build_datasets([ep], lane_world)
    only_a = build_datasets([ep], lane_world, agent_filter={(0, "a")})
    assert {s.agent_id for samples in only_a.values() for s in samples} == {"a"}
    total_all = sum(len(s) for s in all_buckets.values())
    total_a = sum(len(s) for s in only_a.values())
    assert 0 < total_a < total_all
