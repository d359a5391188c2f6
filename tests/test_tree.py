import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grit.errors import ModelError
from grit.scenario import GoalType
from grit.tree import (
    DecisionRule,
    GoalModel,
    TreeNode,
    edge_weights,
    explain,
    load_model,
    model_from_dict,
    model_to_dict,
    node_likelihood,
    save_model,
    traverse,
)

ST = GoalType.STRAIGHT_ON
TL = GoalType.TURN_LEFT


def stump(feature="speed", threshold=5.0, l_true=0.8, l_false=0.2):
    return TreeNode(
        likelihood=0.5,
        rule=DecisionRule(feature, "threshold", threshold),
        true_child=TreeNode(likelihood=l_true),
        false_child=TreeNode(likelihood=l_false),
        true_weight=l_true / 0.5,
        false_weight=l_false / 0.5,
    )


def small_model():
    return GoalModel(
        trees={("G_a", ST): stump(), ("G_b", TL): TreeNode(likelihood=0.5)},
        priors={("G_a", ST): 0.75, ("G_b", TL): 0.25},
        prior_floor=0.01,
    )


FULL_X = {
    "path_to_goal_length": 50.0,
    "in_correct_lane": True,
    "speed": 3.0,
    "acceleration": 0.0,
    "angle_in_lane": 0.0,
    "vehicle_in_front_dist": 100.0,
    "vehicle_in_front_speed": 20.0,
    "oncoming_vehicle_dist": 100.0,
}


# -- node likelihood ---------------------------------------------------------------


def test_node_likelihood_hand_value():
    # dataset 90 pos / 10 neg, node 9 pos / 5 neg, no smoothing:
    # (9 * 10) / (9 * 10 + 5 * 90) = 90 / 540 = 1/6
    assert node_likelihood(9, 5, 90, 10, 0.0) == 90.0 / 540.0
    assert node_likelihood(9, 5, 90, 10, 0.0) == pytest.approx(1.0 / 6.0, abs=0)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_node_likelihood_root_is_exactly_half(n_pos, n_neg, alpha):
    # at the root the node counts equal the dataset counts, so a == b;
    # single-class datasets without smoothing decide outright instead
    a = (n_pos + alpha) * (n_neg + alpha)
    if a + a == 0.0:
        return
    assert node_likelihood(n_pos, n_neg, n_pos, n_neg, alpha) == 0.5


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_node_likelihood_matches_exact_rational(node_pos, node_neg, pos, neg, alpha):
    a = Fraction(node_pos + alpha) * Fraction(neg + alpha)
    b = Fraction(node_neg + alpha) * Fraction(pos + alpha)
    got = node_likelihood(node_pos, node_neg, pos, neg, alpha)
    if a + b == 0:
        assert got in (0.0, 0.5, 1.0)
    else:
        assert abs(got - a / (a + b)) <= 1e-12


def test_node_likelihood_degenerate_rules():
    # empty node, two-class dataset: inherit the parent value
    assert node_likelihood(0, 0, 5, 3, 0.0) == 0.5
    assert node_likelihood(0, 0, 5, 3, 0.0, parent_likelihood=0.7) == 0.7
    # single-class datasets decide outright
    assert node_likelihood(4, 0, 10, 0, 0.0) == 1.0
    assert node_likelihood(0, 4, 0, 10, 0.0) == 0.0


def test_node_likelihood_rejects_bad_inputs():
    with pytest.raises(ModelError):
        node_likelihood(-1, 0, 1, 1, 0.0)
    with pytest.raises(ModelError):
        node_likelihood(0, 0, 1, 1, -0.5)


def test_edge_weights_ratios():
    assert edge_weights(0.5, 0.4, 0.6) == (0.8, 1.2)
    with pytest.raises(ModelError):
        edge_weights(0.0, 0.1, 0.2)


# -- rules and traversal -------------------------------------------------------------


def test_decision_rule_validation():
    with pytest.raises(ModelError):
        DecisionRule("speed", "banana", 1.0)
    with pytest.raises(ModelError):
        DecisionRule("speed", "threshold", None)
    with pytest.raises(ModelError):
        DecisionRule("speed", "threshold", float("inf"))
    with pytest.raises(ModelError):
        DecisionRule("in_correct_lane", "threshold", 0.5)
    with pytest.raises(ModelError):
        DecisionRule("speed", "boolean")
    with pytest.raises(ModelError):
        DecisionRule("not_a_feature", "threshold", 1.0)


def test_threshold_rule_is_strict_less_than():
    rule = DecisionRule("speed", "threshold", 5.0)
    assert rule.test({"speed": 4.999})
    assert not rule.test({"speed": 5.0})
    assert not rule.test({"speed": 5.001})


def test_boolean_rule_reads_flag():
    rule = DecisionRule("in_correct_lane", "boolean")
    assert rule.test({"in_correct_lane": True})
    assert not rule.test({"in_correct_lane": False})


def test_traverse_returns_leaf_and_path():
    tree = stump()
    lik, path = traverse(tree, dict(FULL_X, speed=3.0))
    assert lik == 0.8
    assert [branch for _n, branch in path] == [True, None]
    lik, path = traverse(tree, dict(FULL_X, speed=5.0))
    assert lik == 0.2
    assert [branch for _n, branch in path] == [False, None]
    # leaf likelihood equals root times the product of edge weights
    assert 0.5 * tree.false_weight == 0.2


def test_explain_renders_branch_conditions():
    tree = stump()
    assert explain(tree, dict(FULL_X, speed=3.0)) == ["speed < 5"]
    assert explain(tree, dict(FULL_X, speed=9.0)) == ["speed >= 5"]
    flag = TreeNode(
        likelihood=0.5,
        rule=DecisionRule("in_correct_lane", "boolean"),
        true_child=TreeNode(likelihood=0.9),
        false_child=TreeNode(likelihood=0.1),
        true_weight=1.8,
        false_weight=0.2,
    )
    assert explain(flag, dict(FULL_X, in_correct_lane=True)) == ["in_correct_lane"]
    assert explain(flag, dict(FULL_X, in_correct_lane=False)) == [
        "not in_correct_lane"
    ]


def test_tree_shape_helpers():
    tree = stump()
    assert tree.depth() == 1
    assert tree.node_count() == 3
    assert tree.leaf_count() == 2
    clone = dataclasses.replace(
        tree, true_child=dataclasses.replace(tree.true_child, likelihood=0.95)
    )
    assert clone.true_child.likelihood == 0.95
    assert tree.true_child.likelihood == 0.8


# -- model container -----------------------------------------------------------------


def test_goal_model_helpers():
    model = small_model()
    assert model.pairs() == [("G_a", ST), ("G_b", TL)]
    assert model.prior_for(("G_a", ST)) == 0.75
    assert model.prior_for(("G_missing", ST)) == 0.01
    assert model.likelihood(("G_a", ST), dict(FULL_X, speed=3.0)) == 0.8
    assert model.likelihood(("G_a", ST), dict(FULL_X, speed=5.0)) == 0.2
    # a pair without a tree scores the uninformed 0.5 and reads no feature
    assert model.likelihood(("G_missing", ST), {}) == 0.5
    model.validate()
    assert model.describe()["G_a:straight_on"] == {
        "depth": 1,
        "nodes": 3,
        "leaves": 2,
    }


def test_validate_rejects_bad_models():
    with pytest.raises(ModelError):
        GoalModel(trees={}, priors={}).validate()
    bad_root = small_model()
    bad_root.trees[("G_a", ST)] = dataclasses.replace(
        bad_root.trees[("G_a", ST)], likelihood=0.6
    )
    with pytest.raises(ModelError):
        bad_root.validate()
    bad_prior = small_model()
    bad_prior.priors[("G_a", ST)] = 0.9
    with pytest.raises(ModelError):
        bad_prior.validate()
    neg_prior = small_model()
    neg_prior.priors = {("G_a", ST): 1.25, ("G_b", TL): -0.25}
    with pytest.raises(ModelError):
        neg_prior.validate()
    bad_weight = small_model()
    bad_weight.trees[("G_a", ST)] = dataclasses.replace(
        bad_weight.trees[("G_a", ST)], true_weight=1.7
    )
    with pytest.raises(ModelError):
        bad_weight.validate()


# -- serialization ---------------------------------------------------------------------


def test_model_dict_round_trip_is_exact():
    model = small_model()
    doc = model_to_dict(model)
    back = model_from_dict(doc)
    assert model_to_dict(back) == doc
    assert back.pairs() == model.pairs()
    assert back.prior_floor == 0.01
    assert back.metadata == model.metadata


def test_model_file_round_trip(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert model_to_dict(back) == model_to_dict(model)
    lik, _ = traverse(back.trees[("G_a", ST)], dict(FULL_X, speed=1.0))
    assert lik == 0.8


def test_fixture_model_round_trip(fixture_model, tmp_path):
    path = tmp_path / "fixture.json"
    save_model(fixture_model, path)
    back = load_model(path)
    assert model_to_dict(back) == model_to_dict(fixture_model)


NOT_THE_SCHEMA = "^model features block is not the program's feature schema$"


def test_model_from_dict_rejects_malformed_documents():
    good = model_to_dict(small_model())

    with pytest.raises(ModelError):
        model_from_dict({"format": "something-else"})

    broken_type = json.loads(json.dumps(good))
    broken_type["trees"]["G_a"]["sideways"] = broken_type["trees"]["G_a"].pop(
        "straight_on"
    )
    with pytest.raises(ModelError):
        model_from_dict(broken_type)

    broken_op = json.loads(json.dumps(good))
    broken_op["trees"]["G_a"]["straight_on"]["rule"]["op"] = "lt"
    with pytest.raises(ModelError):
        model_from_dict(broken_op)

    missing_weight = json.loads(json.dumps(good))
    del missing_weight["trees"]["G_a"]["straight_on"]["w_true"]
    with pytest.raises(ModelError):
        model_from_dict(missing_weight)

    broken_link = json.loads(json.dumps(good))
    broken_link["trees"]["G_a"]["straight_on"]["true"]["L"] = 0.9
    with pytest.raises(ModelError):
        model_from_dict(broken_link)

    no_likelihood = json.loads(json.dumps(good))
    del no_likelihood["trees"]["G_b"]["turn_left"]["L"]
    with pytest.raises(ModelError):
        model_from_dict(no_likelihood)

    no_rule_value = json.loads(json.dumps(good))
    del no_rule_value["trees"]["G_a"]["straight_on"]["rule"]["value"]
    with pytest.raises(ModelError):
        model_from_dict(no_rule_value)

    for key in ("trees", "priors"):
        not_an_object = json.loads(json.dumps(good))
        not_an_object[key] = []
        with pytest.raises(ModelError):
            model_from_dict(not_an_object)

    text_prior = json.loads(json.dumps(good))
    text_prior["priors"]["G_a"]["straight_on"] = "most"
    with pytest.raises(ModelError):
        model_from_dict(text_prior)

    for floor in ("low", float("nan")):
        bad_floor = json.loads(json.dumps(good))
        bad_floor["prior_floor"] = floor
        with pytest.raises(ModelError):
            model_from_dict(bad_floor)

    list_domains = json.loads(json.dumps(good))
    list_domains["features"]["domains"] = []
    with pytest.raises(ModelError, match=NOT_THE_SCHEMA):
        model_from_dict(list_domains)

    nan_weight = json.loads(json.dumps(good))
    nan_weight["trees"]["G_a"]["straight_on"]["w_true"] = float("nan")
    with pytest.raises(ModelError):
        model_from_dict(nan_weight)

    no_imputation = json.loads(json.dumps(good))
    del no_imputation["features"]["imputation"]["oncoming_vehicle_dist"]
    with pytest.raises(ModelError, match=NOT_THE_SCHEMA):
        model_from_dict(no_imputation)

    for value in (float("nan"), float("inf"), "far", None, True):
        bad_imputation = json.loads(json.dumps(good))
        bad_imputation["features"]["imputation"]["vehicle_in_front_dist"] = value
        with pytest.raises(ModelError, match=NOT_THE_SCHEMA):
            model_from_dict(bad_imputation)

    for side in ("lo", "hi"):
        for value in ("zero", float("nan"), float("inf"), [0.0], False):
            bad_bound = json.loads(json.dumps(good))
            bad_bound["features"]["domains"]["speed"][side] = value
            with pytest.raises(ModelError, match=NOT_THE_SCHEMA):
                model_from_dict(bad_bound)

    for lo, hi, hi_open in ((10.0, 5.0, False), (2.0, 2.0, True)):
        empty = json.loads(json.dumps(good))
        empty["features"]["domains"]["speed"] = {"lo": lo, "hi": hi, "hi_open": hi_open}
        with pytest.raises(ModelError, match=NOT_THE_SCHEMA):
            model_from_dict(empty)

    # the features block must repeat the schema: a valid domain that differs,
    # 1 for 1.0, 1 for a flag, true for a number or reordered names all fail
    point = json.loads(json.dumps(good))
    point["features"]["domains"]["speed"] = {"lo": 2.0, "hi": 2.0, "hi_open": False}
    one_int = json.loads(json.dumps(good))
    one_int["features"]["imputation"]["vehicle_in_front_speed"] = 20
    int_flag = json.loads(json.dumps(good))
    int_flag["features"]["domains"]["angle_in_lane"]["hi_open"] = 1
    flag_bound = json.loads(json.dumps(good))
    flag_bound["features"]["domains"]["speed"]["lo"] = True
    reordered = json.loads(json.dumps(good))
    reordered["features"]["per_goal"].reverse()
    for doc in (point, one_int, int_flag, flag_bound, reordered):
        with pytest.raises(ModelError, match=NOT_THE_SCHEMA):
            model_from_dict(doc)
    # key order is not part of the schema
    shuffled = json.loads(json.dumps(good))
    shuffled["features"] = dict(reversed(list(shuffled["features"].items())))
    assert model_to_dict(model_from_dict(shuffled)) == good


def deep_chain_text(depth):
    """A model file whose G_a tree is a chain of `depth` speed rules."""
    rule = '"rule": {"feature": "speed", "op": "gt", "value": 1.0}'
    node = '{%s, "L": 0.5, "w_true": 1.0, "w_false": 1.0, "false": {"L": 0.5}, "true": ' % rule
    tree = node * depth + '{"L": 0.5}' + "}" * depth
    doc = model_to_dict(small_model())
    text = json.dumps(doc).replace(json.dumps(doc["trees"]["G_a"]["straight_on"]), tree)
    assert text.count(rule) == depth
    return text


def test_deeply_nested_models_raise_model_error(tmp_path):
    path = tmp_path / "deep.json"
    for text in ("[" * 100000, deep_chain_text(2000)):
        path.write_text(text)
        with pytest.raises(ModelError, match="nested too deeply"):
            load_model(path)
    deep = {"L": 0.5}
    for _ in range(5000):
        deep = {"rule": {"feature": "speed", "op": "gt", "value": 1.0}, "L": 0.5,
                "w_true": 1.0, "w_false": 1.0, "true": deep, "false": {"L": 0.5}}
    doc = model_to_dict(small_model())
    doc["trees"]["G_a"]["straight_on"] = deep
    with pytest.raises(ModelError, match="nested too deeply"):
        model_from_dict(doc)
    # a chain well inside the limit still loads
    path.write_text(deep_chain_text(50))
    assert load_model(path).trees[("G_a", ST)].depth() == 50


def test_load_model_io_errors(tmp_path):
    with pytest.raises(ModelError):
        load_model(tmp_path / "absent.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(garbled)
