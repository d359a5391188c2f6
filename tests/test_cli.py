import json
import warnings
from pathlib import Path

import pytest

from grit import cli
from grit.cli import _holdout, _split_datasets, main
from grit.evaluation import build_template, generate_synthetic, template_names
from grit.features import FEATURE_NAMES
from grit.inference import infer
from grit.scenario import GoalType, load_scenario, save_scenario
from grit.trajectory import (
    AgentState,
    Episode,
    build_datasets,
    history_for,
    load_trajectories,
    save_trajectories,
)
from grit.tree import DecisionRule, GoalModel, TreeNode, load_model, save_model
from grit.verification import load_proposition, proposition_to_dict, verify


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth run plus one trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(
        [
            "synth",
            "--template",
            "t_junction",
            "--vehicles",
            "50",
            "--seed",
            "5",
            "--out-dir",
            str(data),
        ]
    )
    assert code == 0
    scenario = data / "scenario.json"
    episodes = sorted(data.glob("episode_*.csv"))
    model = root / "model.json"
    code = main(
        [
            "train",
            "--scenario",
            str(scenario),
            "--trajectories",
            str(episodes[0]),
            str(episodes[1]),
            "--grid",
            "alpha=1.0",
            "ccp=0.001",
            "--out",
            str(model),
        ]
    )
    assert code == 0
    return {"root": root, "scenario": scenario, "episodes": episodes, "model": model}


# -- synth --------------------------------------------------------------------


def test_synth_writes_scenario_and_episodes(pipeline, capsys, tmp_path):
    out = tmp_path / "fresh"
    code = main(
        ["synth", "--template", "t_junction", "--vehicles", "25", "--seed", "3",
         "--out-dir", str(out), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vehicles"] == 25 and doc["seed"] == 3
    assert doc["scenario"] == str(out / "scenario.json")
    assert doc["episodes"] == [str(out / "episode_000.csv")]
    scenario = load_scenario(doc["scenario"])
    assert len(scenario.goals) == 3
    episode = load_trajectories(doc["episodes"][0], 25.0)
    assert len(episode.trajectories) == 25


def test_synth_is_deterministic_per_seed(tmp_path, capsys):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for out, seed in zip(dirs, (9, 9, 10)):
        assert main(
            ["synth", "--template", "t_junction", "--vehicles", "25",
             "--seed", str(seed), "--out-dir", str(out)]
        ) == 0
    capsys.readouterr()
    for name in ("scenario.json", "episode_000.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert (dirs[0] / "episode_000.csv").read_bytes() != (
        dirs[2] / "episode_000.csv"
    ).read_bytes()


def test_synth_rejects_nonpositive_vehicle_count(tmp_path, capsys):
    code = main(
        ["synth", "--template", "t_junction", "--vehicles", "0",
         "--out-dir", str(tmp_path / "x")]
    )
    assert code == 1
    assert "--vehicles" in capsys.readouterr().err


# -- argument errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["drive"],
        ["synth", "--template", "t_junction", "--out-dir", "x"],
        ["synth", "--template", "t_junction", "--vehicles", "3",
         "--out-dir", "x", "--warp"],
        ["train", "--scenario", "s", "--trajectories", "t", "--out", "m",
         "--grid", "alpha"],
        ["train", "--scenario", "s", "--trajectories", "t", "--out", "m",
         "--grid", "gamma=1.0"],
        ["train", "--scenario", "s", "--trajectories", "t", "--out", "m",
         "--grid", "alpha=abc"],
        ["eval", "--scenario", "s", "--model", "m", "--trajectories", "t",
         "--out", "r", "--threads", "2"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


def test_missing_input_files_exit_2(pipeline, tmp_path, capsys):
    code = main(
        ["infer", "--scenario", str(tmp_path / "absent.json"),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][0]),
         "--vehicle", "v00000"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# -- train ----------------------------------------------------------------------


def test_train_single_cell_reports_config(pipeline, capsys):
    out = pipeline["root"] / "model2.json"
    code = main(
        ["train", "--scenario", str(pipeline["scenario"]),
         "--trajectories", str(pipeline["episodes"][0]), str(pipeline["episodes"][1]),
         "--grid", "alpha=1.0", "ccp=0.001", "--out", str(out), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["out"] == str(out)
    assert doc["config"] == {"alpha": 1.0, "ccp_alpha": 0.001, "max_depth": 7}
    assert doc["grid"] == []
    model = load_model(out)
    assert set(doc["trees"]) == {f"{g}:{t.value}" for g, t in model.pairs()}
    # a single grid cell must skip the validation split and behave like train_model
    assert (out.read_bytes() == pipeline["model"].read_bytes())


def test_train_grid_search_over_episode_split(pipeline, capsys):
    out = pipeline["root"] / "model_grid.json"
    code = main(
        ["train", "--scenario", str(pipeline["scenario"]),
         "--trajectories", str(pipeline["episodes"][0]), str(pipeline["episodes"][1]),
         "--grid", "alpha=0.1,1.0", "ccp=0.001", "--val-split", "0.5",
         "--out", str(out), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["alpha"], r["ccp_alpha"]) for r in doc["grid"]] == [
        (1.0, 0.001),
        (0.1, 0.001),
    ]
    losses = [r["loss"] for r in doc["grid"]]
    assert all(l > 0.0 for l in losses)
    best = min(doc["grid"], key=lambda r: r["loss"])
    assert doc["config"]["alpha"] == best["alpha"]
    load_model(out)


def test_train_grid_search_splits_single_episode_by_vehicle(pipeline, capsys):
    out = pipeline["root"] / "model_single_ep.json"
    code = main(
        ["train", "--scenario", str(pipeline["scenario"]),
         "--trajectories", str(pipeline["episodes"][0]),
         "--grid", "alpha=0.1,1.0", "ccp=0.001",
         "--out", str(out), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["grid"]) == 2
    load_model(out)


def test_train_grid_search_preprocesses_once(pipeline, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_datasets(*args, **kwargs)

    monkeypatch.setattr(cli, "build_datasets", counted)
    code = main(
        ["train", "--scenario", str(pipeline["scenario"]),
         "--trajectories", str(pipeline["episodes"][0]), str(pipeline["episodes"][1]),
         "--grid", "alpha=0.1,1.0", "ccp=0.001", "--val-split", "0.5",
         "--out", str(pipeline["root"] / "model_once.json")]
    )
    capsys.readouterr()
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("grid, message", [
    ("alpha=nan,1", "alpha must be finite and non-negative"),
    ("ccp=inf,0", "ccp_alpha must be finite and non-negative"),
])
def test_train_checks_the_grid_before_preprocessing(pipeline, tmp_path, capsys, monkeypatch,
                                                    grid, message):
    calls = []
    monkeypatch.setattr(cli, "build_datasets", lambda *args, **kwargs: calls.append(args))
    code = main(
        ["train", "--scenario", str(pipeline["scenario"]),
         "--trajectories", str(pipeline["episodes"][0]), str(pipeline["episodes"][1]),
         "--grid", grid, "--out", str(tmp_path / "model.json")]
    )
    assert code == 2 and calls == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("vehicles_per_episode", [6, 30])
def test_split_datasets_equals_building_each_split(vehicles_per_episode):
    # seed 5: in both branches some validation bucket fills first in a
    # validation episode or vehicle but appears earlier in the full build
    scenario, episodes = generate_synthetic(
        "t_junction", 30, seed=5, vehicles_per_episode=vehicles_per_episode
    )
    held, first = _holdout(episodes, 0.5)
    train, val = _split_datasets(build_datasets(episodes, scenario), held, first)
    if vehicles_per_episode == 6:
        # five episodes: the last two are held out and renumbered from 0
        assert first == 3
        want_train = build_datasets(episodes[:3], scenario)
        want_val = build_datasets(episodes[3:], scenario)
    else:
        # one episode: the last 15 vehicles in id order are held out
        agents = episodes[0].agent_ids()
        assert first == 0 and len(agents) == 30
        want_train = build_datasets(
            episodes, scenario, agent_filter={(0, a) for a in agents[:15]}
        )
        want_val = build_datasets(
            episodes, scenario, agent_filter={(0, a) for a in agents[15:]}
        )
    for got, want in ((train, want_train), (val, want_val)):
        assert want
        assert list(got) == list(want)
        assert got == want


def _idle_episode_csv(path):
    states = [AgentState(k / 25.0, -80.0, -6.0, 0.0, 0.0, 0.0) for k in range(30)]
    save_trajectories(Episode(25.0, {"idle": states}), path)
    return path


def test_train_without_goal_reaching_vehicles_exit_2(pipeline, tmp_path, capsys):
    csv = _idle_episode_csv(tmp_path / "idle.csv")
    code = main(
        ["train", "--scenario", str(pipeline["scenario"]),
         "--trajectories", str(csv),
         "--grid", "alpha=1.0", "ccp=0.001",
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "nothing to train on" in capsys.readouterr().err


# -- infer ----------------------------------------------------------------------


def test_infer_json_matches_library_call(pipeline, capsys):
    scenario = load_scenario(pipeline["scenario"])
    model = load_model(pipeline["model"])
    episode = load_trajectories(pipeline["episodes"][1], 25.0)
    vehicle = sorted(episode.trajectories)[0]
    code = main(
        ["infer", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", vehicle, "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)

    cutoff = len(episode.trajectories[vehicle]) - 1
    expected = infer(history_for(episode, vehicle, cutoff), vehicle, scenario, model)
    assert doc == expected.to_dict()
    assert doc["status"] == "ok"
    assert sum(doc["p_goal"].values()) == pytest.approx(1.0)


def test_infer_human_output_mentions_argmax(pipeline, capsys):
    episode = load_trajectories(pipeline["episodes"][1], 25.0)
    vehicle = sorted(episode.trajectories)[0]
    code = main(
        ["infer", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", vehicle, "--frame", "40"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "argmax:" in out and "normalized entropy:" in out


def test_infer_unknown_vehicle_exit_2(pipeline, capsys):
    code = main(
        ["infer", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", "v99999"]
    )
    assert code == 2
    assert "v99999" in capsys.readouterr().err


def test_infer_malformed_scenario_exit_2(pipeline, tmp_path, capsys):
    doc = json.loads(pipeline["scenario"].read_text())
    doc["conflicts"] = [doc["conflicts"][0][:1]]
    broken = tmp_path / "conflicts.json"
    broken.write_text(json.dumps(doc))
    code = main(
        ["infer", "--scenario", str(broken),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", "v00000"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_infer_overflowing_lane_exit_2(pipeline, tmp_path, capsys):
    doc = json.loads(pipeline["scenario"].read_text())
    doc["lanes"][0]["centerline"] = [[0.0, 0.0], [1e160, 0.0]]
    broken = tmp_path / "overflow.json"
    broken.write_text(json.dumps(doc))
    code = main(
        ["infer", "--scenario", str(broken),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", "v00000"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rate", ["0", "nan"])
def test_infer_bad_frame_rate_exit_2(pipeline, tmp_path, capsys, rate):
    # no speed/acceleration columns, so the loader derives them from positions
    positions = tmp_path / "positions.csv"
    positions.write_text("time,agent_id,x,y,heading\n0.0,v0,0,0,0\n0.04,v0,0.4,0,0\n")
    code = main(
        ["infer", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(positions),
         "--vehicle", "v0", "--frame-rate", rate]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "frame rate must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("0.04,v0,0.4,zero,0", "malformed row at line 3"),
        ("0.04,v0,0.4,nan,0", "non-finite y in agent state at line 3"),
    ],
)
def test_infer_bad_csv_row_exit_2(pipeline, tmp_path, capsys, bad_row, message):
    positions = tmp_path / "positions.csv"
    positions.write_text(f"time,agent_id,x,y,heading\n0.0,v0,0,0,0\n{bad_row}\n")
    code = main(
        ["infer", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(positions), "--vehicle", "v0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# -- verify -----------------------------------------------------------------------


def _stump(feature, threshold, l_true, l_false):
    return TreeNode(
        likelihood=0.5,
        rule=DecisionRule(feature, "threshold", threshold),
        true_child=TreeNode(likelihood=l_true),
        false_child=TreeNode(likelihood=l_false),
        true_weight=l_true / 0.5,
        false_weight=l_false / 0.5,
    )


@pytest.fixture(scope="module")
def verify_assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    a = ("G_a", GoalType.STRAIGHT_ON)
    b = ("G_b", GoalType.TURN_LEFT)
    model = GoalModel(
        trees={
            a: _stump("speed", 5.0, 0.9, 0.1),
            b: _stump("angle_in_lane", 0.0, 0.7, 0.3),
        },
        priors={a: 0.5, b: 0.5},
        prior_floor=0.01,
    )
    model_path = root / "model.json"
    save_model(model, model_path)
    base = {
        "name": "slow_vehicles_go_to_a",
        "scope": [["G_a", "straight_on"], ["G_b", "turn_left"]],
        "antecedent": [{"feature": "speed", "op": "<", "value": 5.0}],
        "consequent": {"kind": "argmax_is", "goal": "G_a"},
    }
    verified_path = root / "guarded.json"
    verified_path.write_text(json.dumps(base))
    refuted_path = root / "unguarded.json"
    refuted_path.write_text(json.dumps(dict(base, antecedent=[])))
    return {"model": model_path, "verified": verified_path, "refuted": refuted_path}


def test_verify_verified_exit_0(verify_assets, capsys):
    code = main(
        ["verify", "--model", str(verify_assets["model"]),
         "--prop", str(verify_assets["verified"])]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Verified: slow_vehicles_go_to_a (2 boxes checked)")
    assert "claim:" in out


def test_verify_refuted_exit_3_with_witness_table(verify_assets, capsys):
    code = main(
        ["verify", "--model", str(verify_assets["model"]),
         "--prop", str(verify_assets["refuted"])]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert out.startswith("Refuted: slow_vehicles_go_to_a")
    assert "reason:" in out
    assert "G_a:straight_on" in out and "G_b:turn_left" in out
    assert "likelihood" in out and "probability" in out


def test_verify_malformed_model_exit_2(verify_assets, tmp_path, capsys):
    no_rule_value = json.loads(verify_assets["model"].read_text())
    del no_rule_value["trees"]["G_a"]["straight_on"]["rule"]["value"]
    text_bound = json.loads(verify_assets["model"].read_text())
    text_bound["features"]["domains"]["speed"]["lo"] = "zero"
    # an empty domain would leave no box to check and "verify" anything
    inverted = json.loads(verify_assets["model"].read_text())
    inverted["features"]["domains"]["speed"] = {"lo": 10.0, "hi": 5.0, "hi_open": False}
    for doc in (no_rule_value, text_bound, inverted):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(["verify", "--model", str(broken), "--prop", str(verify_assets["verified"])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_verify_malformed_proposition_exit_2(verify_assets, tmp_path, capsys):
    doc = json.loads(verify_assets["verified"].read_text())
    doc["antecedent"] = 5
    broken = tmp_path / "antecedent.json"
    broken.write_text(json.dumps(doc))
    code = main(["verify", "--model", str(verify_assets["model"]), "--prop", str(broken)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _deep_chain(model_path, depth):
    """The model file with its G_a tree replaced by a chain of `depth` rules."""
    doc = json.loads(model_path.read_text())
    rule = '"rule": {"feature": "speed", "op": "gt", "value": 1.0}'
    node = '{%s, "L": 0.5, "w_true": 1.0, "w_false": 1.0, "false": {"L": 0.5}, "true": ' % rule
    chain = node * depth + '{"L": 0.5}' + "}" * depth
    return json.dumps(doc).replace(json.dumps(doc["trees"]["G_a"]["straight_on"]), chain)


def test_verify_deeply_nested_inputs_exit_2(verify_assets, tmp_path, capsys):
    deep_list = tmp_path / "deep_list.json"
    deep_list.write_text("[" * 100000)
    deep_chain = tmp_path / "deep_chain.json"
    deep_chain.write_text(_deep_chain(verify_assets["model"], 2000))
    for model, prop in (
        (verify_assets["model"], deep_list),
        (deep_list, verify_assets["verified"]),
        (deep_chain, verify_assets["verified"]),
    ):
        code = main(["verify", "--model", str(model), "--prop", str(prop)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err


def test_infer_deeply_nested_scenario_exit_2(pipeline, tmp_path, capsys):
    deep = tmp_path / "deep_scenario.json"
    deep.write_text('{"lanes": ' + "[" * 100000)
    code = main(
        ["infer", "--scenario", str(deep),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", "v00000"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize("threshold", [True, "0.5", None, [0.5]])
def test_verify_non_numeric_threshold_exit_2(verify_assets, tmp_path, capsys, threshold):
    doc = json.loads(verify_assets["verified"].read_text())
    doc["consequent"] = {"kind": "prob_at_least", "goal": "G_a", "threshold": threshold}
    broken = tmp_path / "threshold.json"
    broken.write_text(json.dumps(doc))
    code = main(["verify", "--model", str(verify_assets["model"]), "--prop", str(broken)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threshold" in err


def test_verify_json_matches_library_result(verify_assets, capsys):
    code = main(
        ["verify", "--model", str(verify_assets["model"]),
         "--prop", str(verify_assets["refuted"]), "--json"]
    )
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    model = load_model(verify_assets["model"])
    prop = load_proposition(verify_assets["refuted"])
    assert doc == verify(model, prop).to_dict()
    assert doc["verified"] is False


def test_verify_emit_smt_writes_file(verify_assets, tmp_path, capsys):
    smt = tmp_path / "prop.smt2"
    code = main(
        ["verify", "--model", str(verify_assets["model"]),
         "--prop", str(verify_assets["verified"]), "--emit-smt", str(smt)]
    )
    assert code == 0
    capsys.readouterr()
    text = smt.read_text()
    assert text.splitlines()[0] == "(set-logic QF_LRA)"
    assert "(check-sat)" in text


# -- eval -------------------------------------------------------------------------


def test_eval_writes_report_files(pipeline, tmp_path, capsys):
    prefix = tmp_path / "reports" / "curve"
    code = main(
        ["eval", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--baseline", "no-dt", "--no-benchmark",
         "--out", str(prefix), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "benchmark" not in doc
    assert len(doc["curve"]) == 11 and len(doc["baseline_curve"]) == 11
    assert doc["n_vehicles"] == 25

    json_path = prefix.with_suffix(".json")
    csv_path = prefix.with_suffix(".csv")
    dat_path = prefix.with_suffix(".dat")
    assert json.loads(json_path.read_text()) == doc
    csv_lines = csv_path.read_text().strip().splitlines()
    assert len(csv_lines) == 12
    assert csv_lines[0].startswith("fraction,")
    assert "baseline_accuracy" in csv_lines[0]
    assert len(dat_path.read_text().strip().splitlines()) == 12


def test_eval_includes_benchmark_by_default(pipeline, tmp_path, capsys):
    prefix = tmp_path / "bench"
    code = main(
        ["eval", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--out", str(prefix), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    bench = doc["benchmark"]
    assert bench["n_calls"] >= 30
    assert set(bench["stage_means_us"]) == {
        "goal_generation", "features", "traversal", "posterior",
    }
    assert "baseline_curve" not in doc


def test_eval_without_goal_reaching_vehicles_exit_2(pipeline, tmp_path, capsys):
    csv = _idle_episode_csv(tmp_path / "idle.csv")
    code = main(
        ["eval", "--scenario", str(pipeline["scenario"]),
         "--model", str(pipeline["model"]),
         "--trajectories", str(csv),
         "--out", str(tmp_path / "r")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# -- oversized and mistyped values ------------------------------------------------

HUGE = 10**400  # a JSON integer beyond the float range


def test_verify_huge_integer_prior_exit_2(verify_assets, tmp_path, capsys):
    doc = json.loads(verify_assets["model"].read_text())
    doc["priors"]["G_a"]["straight_on"] = HUGE
    broken = tmp_path / "prior.json"
    broken.write_text(json.dumps(doc))
    code = main(["verify", "--model", str(broken), "--prop", str(verify_assets["verified"])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prior of G_a:straight_on" in err
    assert "Traceback" not in err


def test_verify_list_feature_name_exit_2(verify_assets, tmp_path, capsys):
    doc = json.loads(verify_assets["model"].read_text())
    doc["features"]["per_goal"].append(["path_to_goal_length"])
    broken = tmp_path / "per_goal.json"
    broken.write_text(json.dumps(doc))
    code = main(["verify", "--model", str(broken), "--prop", str(verify_assets["verified"])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and NOT_THE_SCHEMA in err
    assert "Traceback" not in err


def _infer_with_scenario(pipeline, tmp_path, doc):
    broken = tmp_path / "scenario.json"
    broken.write_text(json.dumps(doc))
    return main(
        ["infer", "--scenario", str(broken),
         "--model", str(pipeline["model"]),
         "--trajectories", str(pipeline["episodes"][1]),
         "--vehicle", "v00000"]
    )


def test_infer_huge_integer_goal_exit_2(pipeline, tmp_path, capsys):
    doc = json.loads(pipeline["scenario"].read_text())
    doc["goals"][0]["x"] = HUGE
    assert _infer_with_scenario(pipeline, tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed goal entry" in err
    assert "Traceback" not in err


def test_infer_huge_integer_centerline_point_exit_2(pipeline, tmp_path, capsys):
    doc = json.loads(pipeline["scenario"].read_text())
    doc["lanes"][0]["centerline"][0] = [HUGE, 0.0]
    assert _infer_with_scenario(pipeline, tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed lane entry" in err
    assert "Traceback" not in err


# -- every JSON document through the one reader -----------------------------------

DIGITS = "1" * 5000  # an integer literal beyond int's default str-digit limit


def _not_utf8(text, old, new):
    return text.replace(old, new).encode("latin-1")


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc).replace('"DIGITS"', DIGITS).encode()


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


def _append(*path_and_value):
    *path, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc.append(value)

    return edit


def _each(*edits):
    def edit(doc):
        for one in edits:
            one(doc)

    return edit


LONG = "x" * 5000  # an identifier far longer than an error line
NOT_THE_SCHEMA = "model features block is not the program's feature schema"


def _line_break_id_csv(text):
    # an id holding U+2028 on every row of its agent, then a bad row at line 5
    header, *rows = text.splitlines()
    agent = rows[0].split(",")[1]
    rows = [r.replace(f",{agent},", ",a\u2028b,") for r in rows if f",{agent}," in r]
    return "\n".join([header, *rows[:3], "0.5,c,bad,0,0,1,0"]).encode() + b"\n"


def _long_agent_csv(text, order):
    # the first agent's rows, renamed to LONG, in the given order of row positions
    header, *rows = text.splitlines()
    agent = rows[0].split(",")[1]
    rows = [r.replace(f",{agent},", f",{LONG},") for r in rows if f",{agent}," in r]
    return "\n".join([header, *(rows[i] for i in order)]).encode() + b"\n"


# (command, file or option replaced, its new bytes from the file's text or its
# new value, text the error names[, exit code when it is not 2])
MALFORMED_INPUTS = {
    "model not UTF-8": (
        "verify", "model", lambda t: _not_utf8(t, "G_a", "G_é"), "model file is not valid JSON"
    ),
    "proposition not UTF-8": (
        "verify", "prop", lambda t: _not_utf8(t, "slow", "slöw"),
        "proposition file is not valid JSON",
    ),
    "scenario not UTF-8": (
        "infer", "scenario", lambda t: _not_utf8(t, "G_north", "G_nörth"),
        "scenario file is not valid JSON",
    ),
    "model integer of 5000 digits": (
        "verify", "model", lambda t: _edited(t, _set("prior_floor", "DIGITS")),
        "model file is not valid JSON",
    ),
    "proposition integer of 5000 digits": (
        "verify", "prop", lambda t: _edited(t, _set("antecedent", 0, "value", "DIGITS")),
        "proposition file is not valid JSON",
    ),
    "scenario integer of 5000 digits": (
        "infer", "scenario", lambda t: _edited(t, _set("goals", 0, "x", "DIGITS")),
        "scenario file is not valid JSON",
    ),
    "domain flag as a string": (
        "verify", "model",
        lambda t: _edited(t, _set("features", "domains", "vehicle_in_front_dist", "hi_open", "false")),
        NOT_THE_SCHEMA,
    ),
    "feature names as a string": (
        "verify", "model", lambda t: _edited(t, _set("features", "boolean", "in_correct_lane")),
        NOT_THE_SCHEMA,
    ),
    "prior floor as a string": (
        "verify", "model", lambda t: _edited(t, _set("prior_floor", "0.0")),
        "prior floor must be a finite number, not '0.0'",
    ),
    "goal x as a string": (
        "infer", "scenario", lambda t: _edited(t, _set("goals", 0, "x", "2.0")),
        "goal 'G_north' x must be a finite number, not '2.0'",
    ),
    "goal radius as a flag": (
        "eval", "scenario", lambda t: _edited(t, _set("goals", 0, "radius", True)),
        "goal 'G_north' radius must be a finite number, not True",
    ),
    "goal far beyond the lanes": (
        "infer", "scenario", lambda t: _edited(t, _set("goals", 0, "x", 1e308)),
        "goal 'G_north' lies 1e+308 m from the nearest lane centerline",
    ),
    "line break character in an agent id": (
        "eval", "trajectories", _line_break_id_csv, "malformed row at line 5",
    ),
    "unknown per-goal feature name": (
        "verify", "model", lambda t: _edited(t, _append("features", "per_goal", "nonsense")),
        NOT_THE_SCHEMA,
    ),
    "unknown feature in domains and imputation": (
        "verify", "model",
        lambda t: _edited(t, _each(
            _set("features", "domains", "speeed", {"lo": 0.0, "hi": None, "hi_open": False}),
            _set("features", "imputation", "speeed", "fast"),
        )),
        NOT_THE_SCHEMA,
    ),
    "feature both per-goal and shared": (
        "verify", "model", lambda t: _edited(t, _append("features", "per_goal", "speed")),
        NOT_THE_SCHEMA,
    ),
    # well-formed feature blocks that differ from the schema: each of these
    # once loaded, and verify reasoned over features that infer never computes
    "every feature shared": (
        "verify", "model",
        lambda t: _edited(t, _each(_set("features", "per_goal", []),
                                   _set("features", "shared", list(FEATURE_NAMES)))),
        NOT_THE_SCHEMA,
    ),
    "speed domain floor of 6": (
        "verify", "model", lambda t: _edited(t, _set("features", "domains", "speed", "lo", 6.0)),
        NOT_THE_SCHEMA,
    ),
    "imputation outside its domain": (
        "verify", "model",
        lambda t: _edited(t, _set("features", "imputation", "vehicle_in_front_dist", 150.0)),
        NOT_THE_SCHEMA,
    ),
    "goal id of 5000 characters": (
        "infer", "scenario",
        lambda t: _edited(t, _each(_set("goals", 0, "id", LONG), _set("goals", 0, "x", "2.0"))),
        "goal 'xxxxxxxx",
    ),
    "lane id of 5000 characters": (
        "infer", "scenario",
        lambda t: _edited(t, _each(_set("lanes", 0, "id", LONG),
                                   _set("lanes", 0, "centerline", 0, ["2.0", 0.0]))),
        "lane 'xxxxxxxx",
    ),
    "model goal type of 5000 characters": (
        "verify", "model", lambda t: _edited(t, _set("trees", "G_a", LONG, {"L": 0.5})),
        "unknown goal type 'xxxxxxxx",
    ),
    "proposition goal type of 5000 characters": (
        "verify", "prop", lambda t: _edited(t, _set("scope", 0, 1, LONG)),
        "scope: unknown goal type 'xxxxxxxx",
    ),
    "model domain name of 5000 characters": (
        "verify", "model",
        lambda t: _edited(t, _set("features", "domains", LONG,
                                  {"lo": 0.0, "hi": None, "hi_open": "false"})),
        NOT_THE_SCHEMA,
    ),
    "model prior of a 5000-character goal id": (
        "verify", "model", lambda t: _edited(t, _set("priors", LONG, {"straight_on": "0.5"})),
        "prior of xxxxxxxx",
    ),
    "model trees of a 5000-character goal id": (
        "verify", "model", lambda t: _edited(t, _set("trees", LONG, [])),
        "trees of xxxxxxxx",
    ),
    "model tree of a 5000-character goal id": (
        "verify", "model",
        lambda t: _edited(t, _set("trees", LONG, {"straight_on": {"L": "0.5"}})),
        "tree xxxxxxxx",
    ),
    "proposition name of 5000 characters": (
        "verify", "prop", lambda t: _edited(t, _each(_set("name", LONG), _set("scope", []))),
        "xxxxxxxx: scope must be a non-empty list of pairs",
    ),
    "agent id of 5000 characters with out-of-order times": (
        "eval", "trajectories", lambda t: _long_agent_csv(t, [1, 0, 2]),
        "xxxxxxxx' has out-of-order timestamps",
    ),
    "agent id of 5000 characters with a frame gap": (
        "eval", "trajectories", lambda t: _long_agent_csv(t, [0, 2, 3]),
        "xxxxxxxx' frame gap",
    ),
    "vehicle id of 5000 characters": (
        "infer", "vehicle", lambda _: LONG, "unknown vehicle 'xxxxxxxx",
    ),
    "template name of 5000 characters": (
        "synth", "template", lambda _: LONG, "unknown template 'xxxxxxxx",
    ),
    # --grid values are usage errors, which exit with 1
    "grid token of 5000 characters": (
        "train", "grid", lambda _: LONG, "expected key=value, got 'xxxxxxxx", 1,
    ),
    "grid key of 5000 characters": (
        "train", "grid", lambda _: f"{LONG}=1", "unknown grid key 'xxxxxxxx", 1,
    ),
    "grid number of 5000 characters": (
        "train", "grid", lambda _: f"alpha={LONG}", "bad number in 'alpha=xxxxxxxx", 1,
    ),
    # non-finite strengths once pruned every tree to a leaf or failed later
    # on an unrelated check, and an overflowing alpha warned from numpy
    "alpha of nan": (
        "train", "grid", lambda _: "alpha=nan", "alpha must be finite and non-negative",
    ),
    "alpha of infinity": (
        "train", "grid", lambda _: "alpha=inf", "alpha must be finite and non-negative",
    ),
    "ccp of nan": (
        "train", "grid", lambda _: "ccp=nan", "ccp_alpha must be finite and non-negative",
    ),
    "ccp of infinity": (
        "train", "grid", lambda _: "ccp=inf", "ccp_alpha must be finite and non-negative",
    ),
    "alpha that overflows the class weights": (
        "train", "grid", lambda _: "alpha=1e308", "alpha 1e+308 overflows the class weights",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_ends_as_one_error_line(pipeline, verify_assets, tmp_path, capsys, case):
    command, replaced, make, message, *exit_code = MALFORMED_INPUTS[case]
    if command == "verify":
        files = {"model": verify_assets["model"], "prop": verify_assets["verified"]}
    elif command == "train":
        files = {"scenario": pipeline["scenario"], "trajectories": pipeline["episodes"][1]}
    elif command == "synth":
        files = {}
    else:
        files = {"scenario": pipeline["scenario"], "model": pipeline["model"],
                 "trajectories": pipeline["episodes"][1]}
    options = {key: str(path) for key, path in files.items()}
    if command == "infer":
        options["vehicle"] = pipeline["episodes"][1].read_text().splitlines()[1].split(",")[1]
    elif command in ("eval", "train"):
        options["out"] = str(tmp_path / "r")
    elif command == "synth":
        options.update({"vehicles": "1", "out-dir": str(tmp_path / "r")})
    if replaced in files:
        broken = tmp_path / f"broken{files[replaced].suffix}"
        broken.write_bytes(make(files[replaced].read_bytes().decode()))
        options[replaced] = str(broken)
    else:
        options[replaced] = make(options.get(replaced))
    argv = [command] + [arg for key, value in options.items() for arg in (f"--{key}", value)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code == (exit_code[0] if exit_code else 2)
    lines = [line for line in err.splitlines() if line.startswith(("error:", f"grit {command}: error:"))]
    assert len(lines) == 1 and len(lines[0]) <= 200, lines
    assert message in lines[0]
    assert "Traceback" not in err and "Warning" not in err


def test_bundled_documents_round_trip_byte_for_byte(tmp_path, fixture_world, train_episodes):
    data = Path(cli.__file__).parent / "data"
    # scenarios and models: saving what was loaded rewrites the same bytes
    saved = []
    for name in template_names():
        path = tmp_path / f"{name}.json"
        save_scenario(build_template(name), path)
        saved.append((path, load_scenario, save_scenario))
    for path in sorted((data / "smt").glob("*_model.json")):
        saved.append((path, load_model, save_model))
    save_scenario(fixture_world[0], tmp_path / "scenario.json")
    csvs = []
    for i, episode in enumerate(train_episodes):
        csvs.append(str(tmp_path / f"episode_{i}.csv"))
        save_trajectories(episode, csvs[-1])
    trained = tmp_path / "trained.json"
    assert main(["train", "--scenario", str(tmp_path / "scenario.json"), "--trajectories",
                 *csvs, "--grid", "alpha=1.0", "ccp=0.001", "--out", str(trained)]) == 0
    saved.append((trained, load_model, save_model))
    for path, load, save in saved:
        again = tmp_path / "again.json"
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes(), path.name
    # propositions have no saver; every key and number must come back as written
    props = sorted((data / "propositions").glob("*.json"))
    assert len(props) == 5
    for path in props:
        written = json.loads(path.read_text())
        reserialized = proposition_to_dict(load_proposition(path))
        assert json.dumps(reserialized, sort_keys=True) == json.dumps(written, sort_keys=True)
