import hashlib
import json
import math
import pickle

import pytest

from grit import evaluation
from grit.errors import GritError, ScenarioError, TrajectoryError
from grit.evaluation import (
    VEHICLES_PER_EPISODE,
    benchmark,
    build_template,
    evaluate,
    generate_synthetic,
    template_names,
)
from grit.inference import infer
from grit.scenario import GoalSpec, Lane, Scenario, scenario_to_dict
from grit.trajectory import (
    FRACTION_GRID,
    AgentState,
    Episode,
    first_goal_entry,
    ground_truth_goal,
    history_for,
    save_trajectories,
)

from conftest import FIXTURE_SEED, FIXTURE_TEMPLATE, FIXTURE_VEHICLES


# -- templates -------------------------------------------------------------------


def test_template_inventory():
    assert set(template_names()) == {"t_junction", "crossroad"}
    with pytest.raises(ScenarioError):
        build_template("roundabout")


def test_t_junction_template_counts():
    scenario = build_template("t_junction")
    assert len(scenario.lanes) == 6
    assert len(scenario.goals) == 3
    assert len(scenario.conflict_pairs) == 1


def test_crossroad_template_counts():
    scenario = build_template("crossroad")
    assert len(scenario.lanes) == 7
    assert len(scenario.goals) == 4


# -- synthetic generation ----------------------------------------------------------


# SHA-256 of the scenario JSON plus every episode CSV for 30 vehicles at
# seed 11, recorded before the templates moved into one table; any change to
# the layouts, goal paths or random draws moves them.
SYNTHETIC_DIGESTS = {
    "t_junction": "076523664dbd369292c811db624f7d2307670d6a5660bad4b35a8bef60c35249",
    "crossroad": "65b76068598fded7da6d1eff11b1d7d763c5830f3a4b4984ca45bb2e40487988",
}


def _synthetic_digest(template, tmp_path):
    scenario, episodes = generate_synthetic(template, 30, seed=11)
    digest = hashlib.sha256(
        json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    )
    for i, episode in enumerate(episodes):
        path = tmp_path / f"{template}_{i}.csv"
        save_trajectories(episode, path)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_generate_synthetic_is_deterministic(tmp_path):
    _, first = generate_synthetic("t_junction", 30, seed=11)
    _, second = generate_synthetic("t_junction", 30, seed=11)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.trajectories == b.trajectories
    _, other_seed = generate_synthetic("t_junction", 30, seed=12)
    assert first[0].trajectories != other_seed[0].trajectories
    for template, digest in SYNTHETIC_DIGESTS.items():
        assert _synthetic_digest(template, tmp_path) == digest, template


def test_generate_synthetic_fixture_shape(fixture_world):
    scenario, episodes = fixture_world
    assert FIXTURE_VEHICLES == 250 and VEHICLES_PER_EPISODE == 25
    assert len(episodes) == 10
    ids = [vid for e in episodes for vid in e.agent_ids()]
    assert len(ids) == 250
    assert len(set(ids)) == 250
    assert ids[0] == "v00000" and ids[-1] == "v00249"
    for episode in episodes:
        assert len(episode.trajectories) == 25
        for trajectory in episode.trajectories.values():
            assert first_goal_entry(trajectory, scenario) is not None


def test_generate_synthetic_goal_mix(fixture_world):
    # the default t-junction mix; binomial 3-sigma bands around each share
    scenario, episodes = fixture_world
    counts = {g.goal_id: 0 for g in scenario.goals}
    total = 0
    for episode in episodes:
        for trajectory in episode.trajectories.values():
            counts[ground_truth_goal(trajectory, scenario).goal_id] += 1
            total += 1
    assert total == FIXTURE_VEHICLES
    for goal_id, share in (("G_east", 0.45), ("G_north", 0.30), ("G_west", 0.25)):
        sigma = math.sqrt(share * (1.0 - share) * total)
        assert abs(counts[goal_id] - share * total) <= 3.0 * sigma, counts


def test_generate_synthetic_follows_an_edited_lane(monkeypatch):
    # vehicles drive the template's lanes, so lengthening one carries them on
    layout, mix = evaluation._TEMPLATES["t_junction"]
    doc = layout()
    (east,) = [lane for lane in doc["lanes"] if lane["id"] == "j_east"]
    east["centerline"][-1][0] = 120.0
    (goal,) = [g for g in doc["goals"] if g["id"] == "G_east"]
    goal["x"] = 120.0
    monkeypatch.setitem(evaluation._TEMPLATES, "t_junction", (lambda: doc, mix))
    scenario, episodes = generate_synthetic("t_junction", 5, seed=0)
    hits = [first_goal_entry(t, scenario) for t in episodes[0].trajectories.values()]
    assert None not in hits
    assert "G_east" in {g.goal_id for g, _ in hits}


def test_generate_synthetic_small_counts():
    scenario, episodes = generate_synthetic("t_junction", 5, seed=3)
    assert len(episodes) == 1
    assert len(episodes[0].trajectories) == 5
    for trajectory in episodes[0].trajectories.values():
        assert first_goal_entry(trajectory, scenario) is not None


def test_generate_synthetic_rejects_bad_arguments():
    with pytest.raises(GritError):
        generate_synthetic("t_junction", 0, seed=1)
    with pytest.raises(ScenarioError):
        generate_synthetic("y_junction", 10, seed=1)
    with pytest.raises(GritError):
        generate_synthetic("t_junction", 10, seed=1, vehicles_per_episode=0)


# -- evaluation --------------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_report(fixture_model, fixture_world):
    scenario, episodes = fixture_world
    return evaluate(fixture_model, episodes[8:], scenario, include_baseline=True)


def test_evaluate_curve_shape(eval_report):
    assert [p.fraction for p in eval_report.curve] == list(FRACTION_GRID)
    assert len(eval_report.curve) == 11
    assert len(eval_report.baseline_curve) == 11
    assert eval_report.n_vehicles == 50
    assert eval_report.n_inferences == 550
    assert all(p.n == 50 for p in eval_report.curve)
    assert eval_report.timing_mean_us > 0.0
    for point in eval_report.curve:
        assert 0.0 <= point.accuracy <= 1.0
        assert 0.0 <= point.entropy <= 1.0
        assert point.accuracy_stderr >= 0.0


def test_evaluate_trees_beat_prior_baseline_late(eval_report):
    assert eval_report.accuracy_at(1.0) >= 0.9
    assert eval_report.accuracy_at(1.0) >= eval_report.accuracy_at(1.0, baseline=True)
    assert eval_report.entropy_at(1.0) <= eval_report.entropy_at(0.1) + 1e-9
    with pytest.raises(GritError):
        eval_report.accuracy_at(0.55)
    with pytest.raises(GritError):
        eval_report.entropy_at(-1.0)


def test_evaluate_report_serializations(eval_report):
    doc = eval_report.to_dict()
    assert len(doc["curve"]) == 11 and len(doc["baseline_curve"]) == 11
    csv_text = eval_report.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("fraction,n,accuracy")
    assert "baseline_accuracy" in lines[0]
    gp = eval_report.to_gnuplot()
    assert len(gp.strip().splitlines()) == 12


def test_evaluate_requires_goal_reaching_vehicles(fixture_model):
    with pytest.raises(TrajectoryError):
        evaluate(fixture_model, [], Scenario(
            [Lane("main", ((0.0, 0.0), (100.0, 0.0)))],
            [GoalSpec("G_end", 90.0, 0.0)],
        ))
    lane = Lane("main", ((0.0, 0.0), (100.0, 0.0)))
    world = Scenario([lane], [GoalSpec("G_end", 90.0, 0.0)])
    idle = Episode(
        25.0,
        {"v": [AgentState(k / 25.0, 1.0 + 0.1 * k, 0.0, 0.0, 2.5, 0.0)
               for k in range(10)]},
    )
    with pytest.raises(TrajectoryError):
        evaluate(fixture_model, [idle], world)


# -- benchmark ---------------------------------------------------------------------


def test_benchmark_reports_stage_breakdown(fixture_model, fixture_world):
    scenario, episodes = fixture_world
    scenario = pickle.loads(pickle.dumps(scenario))  # its nearest-lane memo is empty
    report = benchmark(fixture_model, episodes[8:9], scenario)
    assert report.n_calls >= 30
    # the memo (and its statistics) is cleared before every timed pass, so
    # the last pass found it as empty as one pass over the vehicles does
    after = scenario._nearest.cache_info()
    scenario.clear_nearest_memo()
    episode = episodes[8]
    for vehicle_id in episode.agent_ids():
        cutoff = len(episode.trajectories[vehicle_id]) - 1
        infer(history_for(episode, vehicle_id, cutoff), vehicle_id, scenario, fixture_model)
    assert scenario._nearest.cache_info() == after
    assert report.mean_us > 0.0
    assert set(report.stage_means_us) == {
        "goal_generation",
        "features",
        "traversal",
        "posterior",
    }
    shares = report.stage_shares
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0.0 for v in shares.values())


def test_benchmark_enforces_minimum_calls(fixture_model, fixture_world):
    scenario, episodes = fixture_world
    vehicle_id = episodes[8].agent_ids()[0]
    one = Episode(
        frame_rate=episodes[8].frame_rate,
        trajectories={vehicle_id: episodes[8].trajectories[vehicle_id]},
    )
    assert benchmark(fixture_model, [one], scenario).n_calls == 30
    with pytest.raises(TrajectoryError):
        benchmark(fixture_model, [], scenario)
