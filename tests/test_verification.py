import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

import grit.inference
import grit.verification
from grit.errors import PropositionError
from grit.assets import proposition_assets, smt_pair_assets
from grit.features import DEFAULT_METADATA, FEATURE_NAMES
from grit.inference import posterior
from grit.scenario import GoalType
from grit.tree import DecisionRule, GoalModel, TreeNode, traverse
from grit.verification import (
    Atom,
    FULL_BOOL,
    Interval,
    enumerate_paths,
    export_smtlib,
    feature_domain,
    load_proposition,
    proposition_from_dict,
    proposition_to_dict,
    scoped_priors,
    var_key,
    verify,
    _rat,
)

ST_ON = GoalType.STRAIGHT_ON
TL = GoalType.TURN_LEFT

A = ("G_a", ST_ON)
B = ("G_b", TL)


def stump(feature, threshold, l_true, l_false):
    return TreeNode(
        likelihood=0.5,
        rule=DecisionRule(feature, "threshold", threshold),
        true_child=TreeNode(likelihood=l_true),
        false_child=TreeNode(likelihood=l_false),
        true_weight=l_true / 0.5,
        false_weight=l_false / 0.5,
    )


def two_pair_model():
    return GoalModel(
        trees={
            A: stump("speed", 5.0, 0.9, 0.1),
            B: stump("angle_in_lane", 0.0, 0.7, 0.3),
        },
        priors={A: 0.5, B: 0.5},
        prior_floor=0.01,
    )


def prop_doc(**overrides):
    doc = {
        "name": "slow_vehicles_go_to_a",
        "scope": [["G_a", "straight_on"], ["G_b", "turn_left"]],
        "antecedent": [{"feature": "speed", "op": "<", "value": 5.0}],
        "consequent": {"kind": "argmax_is", "goal": "G_a"},
    }
    doc.update(overrides)
    return doc


# -- interval algebra -----------------------------------------------------------------


def test_interval_feasibility_and_containment():
    assert Interval(0.0, 1.0).feasible()
    assert not Interval(1.0, 0.0).feasible()
    assert Interval(2.0, 2.0).feasible()
    assert not Interval(2.0, 2.0, lo_open=True).feasible()
    inner = Interval(1.0, 3.0, lo_open=True, hi_open=True)
    assert inner.contains(2.0)
    assert not inner.contains(1.0) and not inner.contains(3.0)
    closed = Interval(1.0, 3.0)
    assert closed.contains(1.0) and closed.contains(3.0)


def test_interval_intersection_merges_open_flags_on_equal_bounds():
    merged = Interval(0.0, 5.0).intersect(Interval(0.0, 5.0, lo_open=True))
    assert merged == Interval(0.0, 5.0, lo_open=True)
    merged = Interval(0.0, 5.0, hi_open=True).intersect(Interval(1.0, 7.0))
    assert merged == Interval(1.0, 5.0, hi_open=True)


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
flags = st.booleans()


@given(finite, finite, flags, flags, finite, finite, flags, flags, finite)
def test_interval_intersection_matches_pointwise(
    lo1, hi1, o1, c1, lo2, hi2, o2, c2, x
):
    a = Interval(lo1, hi1, o1, c1)
    b = Interval(lo2, hi2, o2, c2)
    both = a.intersect(b)
    assert both.contains(x) == (a.contains(x) and b.contains(x))


@given(finite, finite, flags, flags)
def test_interval_witness_is_contained(lo, hi, lo_open, hi_open):
    interval = Interval(lo, hi, lo_open, hi_open)
    if not interval.feasible():
        with pytest.raises(PropositionError):
            interval.witness()
        return
    assert interval.contains(interval.witness())


def test_interval_witness_prefers_interior_points():
    assert Interval().witness() == 0.0
    assert Interval(hi=5.0).witness() == 5.0
    assert Interval(hi=5.0, hi_open=True).witness() == 4.0
    assert Interval(lo=3.0).witness() == 3.0
    assert Interval(lo=3.0, lo_open=True).witness() == 4.0
    assert Interval(2.0, 2.0).witness() == 2.0
    assert Interval(1.0, 2.0, True, True).witness() == 1.5


def test_feature_domains_and_variable_keys():
    assert feature_domain("in_correct_lane", DEFAULT_METADATA) == FULL_BOOL
    angle = feature_domain("angle_in_lane", DEFAULT_METADATA)
    assert angle == Interval(-math.pi, math.pi, False, True)
    accel = feature_domain("acceleration", DEFAULT_METADATA)
    assert accel.lo == -math.inf and accel.hi == math.inf
    assert feature_domain("speed", DEFAULT_METADATA).lo == 0.0
    assert var_key(A, "path_to_goal_length", DEFAULT_METADATA) == (
        "G_a:straight_on:path_to_goal_length"
    )
    assert var_key(A, "speed", DEFAULT_METADATA) == "speed"


# -- leaf box enumeration --------------------------------------------------------------


def in_box(box, assignment):
    for key, dom in box.constraints.items():
        value = assignment[key]
        if isinstance(dom, frozenset):
            if value not in dom:
                return False
        elif not dom.contains(value):
            return False
    return True


def test_enumerate_paths_degenerate_trees():
    missing = enumerate_paths(None, A, DEFAULT_METADATA)
    assert len(missing) == 1
    assert missing[0].likelihood == 0.5 and missing[0].leaf_index == 0
    single = enumerate_paths(TreeNode(likelihood=0.5), A, DEFAULT_METADATA)
    assert len(single) == 1
    assert set(single[0].constraints) == {
        var_key(A, f, DEFAULT_METADATA) for f in FEATURE_NAMES
    }


feature_point = st.fixed_dictionaries(
    {
        "path_to_goal_length": st.floats(0.0, 500.0),
        "in_correct_lane": st.booleans(),
        "speed": st.floats(0.0, 40.0),
        "acceleration": st.floats(-10.0, 10.0),
        "angle_in_lane": st.floats(-math.pi, math.pi, exclude_max=True),
        "vehicle_in_front_dist": st.floats(0.0, 100.0),
        "vehicle_in_front_speed": st.floats(0.0, 40.0),
        "oncoming_vehicle_dist": st.floats(0.0, 100.0),
    }
)


@given(feature_point)
def test_boxes_partition_the_feature_space(fixture_model, x):
    # every point lands in exactly one box per tree, and that box holds the
    # leaf likelihood the production traversal computes
    for pair, tree in sorted(fixture_model.trees.items()):
        boxes = enumerate_paths(tree, pair, fixture_model.metadata)
        assert len(boxes) == tree.leaf_count()
        assignment = {
            var_key(pair, f, fixture_model.metadata): v for f, v in x.items()
        }
        hits = [box for box in boxes if in_box(box, assignment)]
        assert len(hits) == 1
        like, _ = traverse(tree, x)
        assert hits[0].likelihood == like


def test_boxes_order_is_true_branch_first():
    boxes = enumerate_paths(stump("speed", 5.0, 0.9, 0.1), A, DEFAULT_METADATA)
    assert [b.likelihood for b in boxes] == [0.9, 0.1]
    assert [b.leaf_index for b in boxes] == [0, 1]
    assert boxes[0].constraints["speed"] == Interval(0.0, 5.0, False, True)
    assert boxes[1].constraints["speed"] == Interval(5.0, math.inf)


# -- proposition parsing ----------------------------------------------------------------


def test_atom_to_interval_table():
    assert Atom("speed", "<", 5.0).to_interval() == Interval(hi=5.0, hi_open=True)
    assert Atom("speed", "<=", 5.0).to_interval() == Interval(hi=5.0)
    assert Atom("speed", ">", 5.0).to_interval() == Interval(lo=5.0, lo_open=True)
    assert Atom("speed", ">=", 5.0).to_interval() == Interval(lo=5.0)
    assert Atom("speed", "=", 5.0).to_interval() == Interval(5.0, 5.0)


def test_proposition_round_trip():
    prop = proposition_from_dict(prop_doc())
    assert prop.name == "slow_vehicles_go_to_a"
    assert prop.scope == (A, B)
    assert prop.goals() == ["G_a", "G_b"]
    assert proposition_from_dict(proposition_to_dict(prop)) == prop
    assert "=>" in prop.render()


@pytest.mark.parametrize(
    "mutation",
    [
        {"name": ""},
        {"scope": []},
        {"scope": [["G_a"]]},
        {"scope": [["G_a", "sideways"]]},
        {"scope": [["G_a", "straight_on"], ["G_a", "straight_on"]]},
        {"antecedent": 5},
        {"antecedent": "speed"},
        {"antecedent": [{"feature": "warp", "op": "<", "value": 1.0}]},
        {"antecedent": [{"feature": "speed", "op": "~", "value": 1.0}]},
        {"antecedent": [{"feature": "speed", "op": "<", "value": "fast"}]},
        {"antecedent": [{"feature": "speed", "op": "<", "value": True}]},
        {"antecedent": [{"feature": "speed", "op": "<", "value": math.inf}]},
        {"antecedent": [{"feature": "speed", "op": "<", "value": 1.0,
                         "pair": ["G_a", "straight_on"]}]},
        {"antecedent": [{"feature": "in_correct_lane", "op": "<", "value": True,
                         "pair": ["G_a", "straight_on"]}]},
        {"antecedent": [{"feature": "in_correct_lane", "op": "=", "value": 1,
                         "pair": ["G_a", "straight_on"]}]},
        {"antecedent": [{"feature": "path_to_goal_length", "op": "<", "value": 1.0}]},
        {"antecedent": [{"feature": "path_to_goal_length", "op": "<", "value": 1.0,
                         "pair": ["G_zzz", "straight_on"]}]},
        {"consequent": {"kind": "probably", "goal": "G_a"}},
        {"consequent": {"kind": "argmax_is", "goal": "G_zzz"}},
        {"consequent": {"kind": "prob_greater", "goal": "G_a", "than": "G_a"}},
        {"consequent": {"kind": "prob_greater", "goal": "G_a", "than": "G_zzz"}},
        {"consequent": {"kind": "prob_at_least", "goal": "G_a"}},
        {"consequent": {"kind": "prob_at_least", "goal": "G_a", "threshold": 1.5}},
    ],
)
def test_proposition_from_dict_rejects_malformed(mutation):
    with pytest.raises(PropositionError):
        proposition_from_dict(prop_doc(**mutation))


@pytest.mark.parametrize("threshold", [True, "0.5", " 0.25 ", None, [0.5], 10**400])
def test_prob_at_least_threshold_must_be_a_json_number(threshold):
    doc = prop_doc(
        consequent={"kind": "prob_at_least", "goal": "G_a", "threshold": threshold}
    )
    with pytest.raises(PropositionError):
        proposition_from_dict(doc)
    # the same document with a number loads, as a float
    doc["consequent"]["threshold"] = 1
    assert proposition_from_dict(doc).consequent.threshold == 1.0


def test_antecedent_value_beyond_the_float_range_is_rejected():
    doc = prop_doc(antecedent=[{"feature": "speed", "op": "<", "value": 10**400}])
    with pytest.raises(PropositionError, match="finite"):
        proposition_from_dict(doc)


def test_load_proposition_io_errors(tmp_path):
    with pytest.raises(PropositionError):
        load_proposition(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("]")
    with pytest.raises(PropositionError):
        load_proposition(bad)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    with pytest.raises(PropositionError, match="nested too deeply"):
        load_proposition(deep)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(prop_doc()))
    assert load_proposition(good).name == "slow_vehicles_go_to_a"


# -- the decision procedure ---------------------------------------------------------------


def brute_force_verdict(model, prop):
    """Independent oracle: try every combination of leaves directly."""
    scope = list(prop.scope)
    priors = scoped_priors(model, scope)
    env = {}
    for pair in scope:
        for f in FEATURE_NAMES:
            env.setdefault(
                var_key(pair, f, model.metadata),
                feature_domain(f, model.metadata),
            )
    for atom in prop.antecedent:
        anchor = atom.pair if atom.pair is not None else scope[0]
        key = var_key(anchor, atom.feature, model.metadata)
        if atom.feature in model.metadata.boolean:
            env[key] = env[key] & frozenset((bool(atom.value),))
        else:
            env[key] = env[key].intersect(atom.to_interval())

    all_boxes = [
        enumerate_paths(model.trees.get(pair), pair, model.metadata)
        for pair in scope
    ]
    checked = 0
    for combo in itertools.product(*all_boxes):
        merged = dict(env)
        feasible = True
        for box in combo:
            for key, dom in box.constraints.items():
                cur = merged[key]
                if isinstance(dom, frozenset):
                    cur = cur & dom
                    ok = bool(cur)
                else:
                    cur = cur.intersect(dom)
                    ok = cur.feasible()
                if not ok:
                    feasible = False
                    break
                merged[key] = cur
            if not feasible:
                break
        if not feasible:
            continue
        checked += 1
        probs = posterior([b.likelihood for b in combo], priors)
        p_goal = {}
        for (gid, _), p in zip(scope, probs):
            p_goal[gid] = p_goal.get(gid, 0.0) + p
        cons = prop.consequent
        if cons.kind == "argmax_is":
            bad = any(
                p >= p_goal[cons.goal] for g, p in p_goal.items() if g != cons.goal
            )
        elif cons.kind == "prob_greater":
            bad = p_goal[cons.goal] <= p_goal[cons.other]
        else:
            bad = p_goal[cons.goal] < cons.threshold
        if bad:
            return False, checked
    return True, checked


def test_verify_guarded_claim_holds():
    model = two_pair_model()
    prop = proposition_from_dict(prop_doc())
    result = verify(model, prop)
    assert result.verified and result.counterexample is None
    # the speed >= 5 leaf of tree A is infeasible under the antecedent,
    # leaving one box for A times two for B
    assert result.boxes_checked == 2
    expected, combos = brute_force_verdict(model, prop)
    assert expected and combos == 2


def test_verify_unguarded_claim_fails_with_witness():
    model = two_pair_model()
    prop = proposition_from_dict(prop_doc(antecedent=[]))
    result = verify(model, prop)
    assert not result.verified
    ce = result.counterexample
    assert ce is not None
    # first violating combination in leaf order: A at 0.1, B at 0.7
    assert result.boxes_checked == 3
    assert ce.likelihoods == {A: 0.1, B: 0.7}
    assert ce.leaf_indices == {A: 1, B: 0}
    assert ce.priors == {A: 0.5, B: 0.5}
    assert ce.p_goal["G_a"] == pytest.approx(0.125)
    assert ce.assignment["speed"] == 5.0
    assert ce.assignment["angle_in_lane"] == pytest.approx(-math.pi / 2)
    assert "P(G_a)" in ce.reason
    expected, combos = brute_force_verdict(model, prop)
    assert not expected

    doc = result.to_dict()
    assert doc["verified"] is False
    assert doc["counterexample"]["likelihoods"] == {
        "G_a:straight_on": 0.1,
        "G_b:turn_left": 0.7,
    }


def test_verify_matches_brute_force_on_consequent_kinds():
    model = two_pair_model()
    for consequent in (
        {"kind": "argmax_is", "goal": "G_b"},
        {"kind": "prob_greater", "goal": "G_a", "than": "G_b"},
        {"kind": "prob_at_least", "goal": "G_a", "threshold": 0.2},
        {"kind": "prob_at_least", "goal": "G_b", "threshold": 0.9},
    ):
        for antecedent in (
            [],
            [{"feature": "speed", "op": "<", "value": 5.0}],
            [{"feature": "angle_in_lane", "op": ">=", "value": 0.0}],
        ):
            prop = proposition_from_dict(
                prop_doc(name="combo", antecedent=antecedent, consequent=consequent)
            )
            result = verify(model, prop)
            expected, combos = brute_force_verdict(model, prop)
            assert result.verified == expected, prop.render()
            if result.verified:
                assert result.boxes_checked == combos


def test_verify_witness_replays_through_production_path():
    model = two_pair_model()
    prop = proposition_from_dict(
        prop_doc(
            name="floor",
            antecedent=[],
            consequent={"kind": "prob_at_least", "goal": "G_a", "threshold": 0.5},
        )
    )
    result = verify(model, prop)
    assert not result.verified
    ce = result.counterexample
    likes = []
    for pair in prop.scope:
        like, _ = traverse(model.trees[pair], ce.features[pair])
        assert like == ce.likelihoods[pair]
        likes.append(like)
    probs = posterior(likes, [ce.priors[p] for p in prop.scope])
    assert probs == [ce.posterior[p] for p in prop.scope]


def test_verify_vacuous_antecedents():
    model = two_pair_model()
    impossible = proposition_from_dict(
        prop_doc(antecedent=[{"feature": "speed", "op": "<", "value": 0.0}])
    )
    result = verify(model, impossible)
    assert result.verified and result.boxes_checked == 0

    contradictory = proposition_from_dict(
        prop_doc(
            antecedent=[
                {"feature": "in_correct_lane", "op": "=", "value": True,
                 "pair": ["G_a", "straight_on"]},
                {"feature": "in_correct_lane", "op": "=", "value": False,
                 "pair": ["G_a", "straight_on"]},
            ]
        )
    )
    result = verify(model, contradictory)
    assert result.verified and result.boxes_checked == 0


def test_verify_missing_tree_uses_uninformed_likelihood():
    model = two_pair_model()
    del model.trees[B]
    prop = proposition_from_dict(
        prop_doc(
            antecedent=[{"feature": "speed", "op": ">=", "value": 5.0}],
            consequent={"kind": "prob_greater", "goal": "G_b", "than": "G_a"},
        )
    )
    result = verify(model, prop)
    # A is pinned at 0.1, the missing B tree scores 0.5 everywhere
    assert result.verified and result.boxes_checked == 1


def test_scoped_priors_fall_back_to_uniform():
    model = two_pair_model()
    assert scoped_priors(model, [A, B]) == [0.5, 0.5]
    empty = GoalModel(
        trees={A: TreeNode(likelihood=0.5)}, priors={}, prior_floor=0.0
    )
    assert scoped_priors(empty, [A, B]) == [0.5, 0.5]
    assert scoped_priors(model, []) == []
    assert scoped_priors(empty, []) == []
    assert grit.verification.scoped_priors is grit.inference.scoped_priors


def test_bundled_propositions_replay_their_witnesses(fixture_model):
    results = {}
    for prop in proposition_assets():
        result = verify(fixture_model, prop)
        results[prop.name] = result
        if result.verified:
            continue
        ce = result.counterexample
        likes = []
        for pair in prop.scope:
            like, _ = traverse(fixture_model.trees[pair], ce.features[pair])
            assert like == ce.likelihoods[pair]
            likes.append(like)
        probs = posterior(likes, [ce.priors[p] for p in prop.scope])
        assert probs == [ce.posterior[p] for p in prop.scope]
    verdicts = {name: r.verified for name, r in results.items()}
    assert verdicts == {
        "east_goal_near_argmax": True,
        "left_lane_turn_argmax": True,
        "east_lane_floor": False,
        "angled_turn_dominates": True,
        "turn_lane_dominates": False,
    }


# -- SMT-LIB export -----------------------------------------------------------------------


def test_rational_rendering():
    assert _rat(3.0) == "3.0"
    assert _rat(-2.0) == "(- 2.0)"
    assert _rat(0.5) == "(/ 1.0 2.0)"
    assert _rat(-0.25) == "(- (/ 1.0 4.0))"
    assert _rat(0.0) == "0.0"


def balanced(text):
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def test_export_smtlib_structure():
    model = two_pair_model()
    prop = proposition_from_dict(prop_doc())
    text = export_smtlib(model, prop)
    lines = text.splitlines()
    assert lines[0] == "(set-logic QF_LRA)"
    assert balanced(text)
    assert "(check-sat)" in lines
    assert "(get-model)" in lines
    assert "(declare-const speed Real)" in lines
    assert "(declare-const G_a.straight_on.in_correct_lane Bool)" in lines
    assert "(declare-const L.G_a.straight_on Real)" in lines
    # antecedent uses strict comparison against an exact rational
    assert "(assert (< speed 5.0))" in lines
    # negated argmax consequent compares unnormalized scores
    assert "(assert (>= S.G_b S.G_a))" in lines


def test_export_smtlib_single_goal_argmax_is_unsatisfiable_by_construction():
    model = GoalModel(
        trees={A: stump("speed", 5.0, 0.9, 0.1)}, priors={A: 1.0}
    )
    prop = proposition_from_dict(
        prop_doc(
            scope=[["G_a", "straight_on"]],
            antecedent=[],
            consequent={"kind": "argmax_is", "goal": "G_a"},
        )
    )
    text = export_smtlib(model, prop)
    assert "(assert false)" in text.splitlines()


def test_export_smtlib_threshold_compares_against_total():
    model = two_pair_model()
    prop = proposition_from_dict(
        prop_doc(
            antecedent=[],
            consequent={"kind": "prob_at_least", "goal": "G_a", "threshold": 0.25},
        )
    )
    text = export_smtlib(model, prop)
    assert "(assert (< S.G_a (* (/ 1.0 4.0) (+ S.G_a S.G_b))))" in text.splitlines()


def test_smt_parity_with_solver_on_bundled_pairs():
    z3 = pytest.importorskip("z3")
    for model, prop in smt_pair_assets():
        expected = verify(model, prop).verified
        solver = z3.Solver()
        solver.from_string(export_smtlib(model, prop))
        got = solver.check()
        if expected:
            assert got == z3.unsat, prop.name
        else:
            assert got == z3.sat, prop.name
