"""Compiled trees: verify and export_smtlib against a cache-free reference.

verify and export_smtlib build each tree's leaf boxes and SMT-LIB fragment
once per tree object and reuse them. The reference below recomputes
everything per call, the way the decision procedure is specified: every
box merges every constraint it carries, and every constant is rendered
afresh. Results must be equal (==) and byte-identical as JSON or text, on a
cold cache, on a warm cache and after the model is pickled.
"""

import dataclasses
import gc
import json
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grit import verification
from grit.assets import desk_assets, proposition_assets, smt_pair_assets
from grit.errors import ModelError
from grit.features import FEATURE_NAMES
from grit.inference import goal_sums, posterior, scoped_priors
from grit.scenario import GoalType
from grit.training import TrainConfig, fit_tree
from grit.tree import DecisionRule, GoalModel, TreeNode
from grit.verification import (
    enumerate_paths,
    export_smtlib,
    feature_domain,
    proposition_from_dict,
    proposition_to_dict,
    var_key,
    verify,
)

ST_ON = GoalType.STRAIGHT_ON
TL = GoalType.TURN_LEFT
A = ("G_a", ST_ON)
B = ("G_b", TL)


# -- the cache-free reference -------------------------------------------------------


def _merge(a, b):
    return a & b if isinstance(a, frozenset) else a.intersect(b)


def _feasible(d):
    return bool(d) if isinstance(d, frozenset) else d.feasible()


def _witness(d):
    return (True in d) if isinstance(d, frozenset) else d.witness()


def _reason(cons, p_goal):
    if cons.kind == "argmax_is":
        target = p_goal[cons.goal]
        for gid, p in p_goal.items():
            if gid != cons.goal and p >= target:
                return f"P({gid}) = {p:.6g} >= P({cons.goal}) = {target:.6g}"
        return None
    if cons.kind == "prob_greater":
        pg, po = p_goal[cons.goal], p_goal[cons.other]
        if pg <= po:
            return f"P({cons.goal}) = {pg:.6g} <= P({cons.other}) = {po:.6g}"
        return None
    pg = p_goal[cons.goal]
    if pg < cons.threshold:
        return f"P({cons.goal}) = {pg:.6g} < {cons.threshold:g}"
    return None


def reference_verify(model, prop):
    """VerificationResult.to_dict() of the decision procedure, uncached:
    fresh boxes per call, and every box constraint merged."""
    md = model.metadata
    scope = list(prop.scope)
    goals = [gid for gid, _ in scope]
    priors = scoped_priors(model, scope)

    def result(verified, checked, ce=None):
        return {
            "proposition": proposition_to_dict(prop),
            "verified": verified,
            "boxes_checked": checked,
            "counterexample": ce,
        }

    env = {}
    for pair in scope:
        for f in FEATURE_NAMES:
            env.setdefault(var_key(pair, f, md), feature_domain(f, md))
    for atom in prop.antecedent:
        anchor = atom.pair if atom.pair is not None else scope[0]
        key = var_key(anchor, atom.feature, md)
        if atom.feature in md.boolean:
            env[key] = _merge(env[key], frozenset((bool(atom.value),)))
        else:
            env[key] = _merge(env[key], atom.to_interval())
        if not _feasible(env[key]):
            return result(True, 0)
    boxes = [enumerate_paths(model.trees.get(pair), pair, md) for pair in scope]
    checked = 0

    def search(i, cur, chosen):
        nonlocal checked
        if i == len(scope):
            checked += 1
            probs = posterior([b.likelihood for b in chosen], priors)
            reason = _reason(prop.consequent, goal_sums(goals, probs))
            return None if reason is None else (list(chosen), dict(cur), reason, probs)
        for box in boxes[i]:
            nxt = dict(cur)
            for key, restriction in box.constraints.items():
                nxt[key] = _merge(nxt[key], restriction)
                if not _feasible(nxt[key]):
                    break
            else:
                found = search(i + 1, nxt, chosen + [box])
                if found is not None:
                    return found
        return None

    found = search(0, env, [])
    if found is None:
        return result(True, checked)
    chosen, final, reason, probs = found
    assignment = {key: _witness(d) for key, d in sorted(final.items())}

    def by_pair(values):
        return {f"{gid}:{gtype.value}": v for (gid, gtype), v in zip(scope, values)}

    ce = {
        "assignment": assignment,
        "features": by_pair(
            [{f: assignment[var_key(pair, f, md)] for f in FEATURE_NAMES} for pair in scope]
        ),
        "likelihoods": by_pair([b.likelihood for b in chosen]),
        "priors": by_pair(priors),
        "posterior": by_pair(probs),
        "p_goal": goal_sums(goals, probs),
        "leaf_indices": by_pair([b.leaf_index for b in chosen]),
        "reason": reason,
    }
    return result(False, checked, ce)


def _rat(x):
    frac = Fraction(x)
    num, den = frac.numerator, frac.denominator
    if den == 1:
        return f"{num}.0" if num >= 0 else f"(- {-num}.0)"
    if num >= 0:
        return f"(/ {num}.0 {den}.0)"
    return f"(- (/ {-num}.0 {den}.0))"


def _sym(name):
    return name.replace(":", ".")


def reference_export(model, prop):
    """The SMT-LIB text of export_smtlib, rendered in full on every call."""
    md = model.metadata
    scope = list(prop.scope)
    priors = scoped_priors(model, scope)
    out = ["(set-logic QF_LRA)", f"; proposition: {prop.name}", f"; claim: {prop.render()}"]
    declared = set()
    for pair in scope:
        for f in FEATURE_NAMES:
            key = var_key(pair, f, md)
            if key in declared:
                continue
            declared.add(key)
            if f in md.boolean:
                out.append(f"(declare-const {_sym(key)} Bool)")
                continue
            out.append(f"(declare-const {_sym(key)} Real)")
            lo, hi, hi_open = md.domains.get(f, (None, None, False))
            if lo is not None:
                out.append(f"(assert (>= {_sym(key)} {_rat(lo)}))")
            if hi is not None:
                out.append(f"(assert ({'<' if hi_open else '<='} {_sym(key)} {_rat(hi)}))")
    for gid, gtype in scope:
        out.append(f"(declare-const L.{_sym(f'{gid}:{gtype.value}')} Real)")
    for pair in scope:
        gid, gtype = pair
        ps = _sym(f"{gid}:{gtype.value}")
        out.append(f"; tree {gid}:{gtype.value}")
        tree = model.trees.get(pair)
        if tree is None:
            out.append(f"(assert (= L.{ps} {_rat(0.5)}))")
            continue
        syms = []

        def declare(node):
            idx = len(syms)
            syms.append(f"{ps}.n{idx}")
            out.append(f"(declare-const {syms[idx]} Bool)")
            if node.rule is None:
                out.append(f"(assert (=> {syms[idx]} (= L.{ps} {_rat(node.likelihood)})))")
                return idx
            t = declare(node.true_child)
            f_idx = declare(node.false_child)
            key = _sym(var_key(pair, node.rule.feature, md))
            cond = key if node.rule.kind == "boolean" else f"(< {key} {_rat(node.rule.threshold)})"
            out.append(f"(assert (= {syms[t]} (and {syms[idx]} {cond})))")
            out.append(f"(assert (= {syms[f_idx]} (and {syms[idx]} (not {cond}))))")
            return idx

        declare(tree)
        out.append(f"(assert {syms[0]})")
    out.append("; antecedent")
    for atom in prop.antecedent:
        anchor = atom.pair if atom.pair is not None else scope[0]
        sym = _sym(var_key(anchor, atom.feature, md))
        if atom.feature in md.boolean:
            out.append(f"(assert {sym})" if atom.value else f"(assert (not {sym}))")
        else:
            out.append(f"(assert ({atom.op} {sym} {_rat(float(atom.value))}))")
    out.append("; unnormalized goal scores")
    terms = {}
    for (gid, gtype), prior in zip(scope, priors):
        terms.setdefault(gid, []).append(f"(* L.{_sym(f'{gid}:{gtype.value}')} {_rat(prior)})")
    for gid in prop.goals():
        t = terms[gid]
        expr = t[0] if len(t) == 1 else "(+ " + " ".join(t) + ")"
        out.append(f"(declare-const S.{_sym(gid)} Real)")
        out.append(f"(assert (= S.{_sym(gid)} {expr}))")
    cons = prop.consequent
    goal_sym = f"S.{_sym(cons.goal)}"
    out.append("; negated consequent")
    if cons.kind == "argmax_is":
        parts = [f"(>= S.{_sym(g)} {goal_sym})" for g in prop.goals() if g != cons.goal]
        body = "false" if not parts else parts[0] if len(parts) == 1 else "(or " + " ".join(parts) + ")"
        out.append(f"(assert {body})")
    elif cons.kind == "prob_greater":
        out.append(f"(assert (<= {goal_sym} S.{_sym(cons.other)}))")
    else:
        totals = [f"S.{_sym(g)}" for g in prop.goals()]
        total = totals[0] if len(totals) == 1 else "(+ " + " ".join(totals) + ")"
        out.append(f"(assert (< {goal_sym} (* {_rat(cons.threshold)} {total})))")
    out += ["(check-sat)", "(get-model)"]
    return "\n".join(out) + "\n"


# -- comparison helpers ------------------------------------------------------------


def assert_matches_reference(model, prop):
    got = verify(model, prop).to_dict()
    want = reference_verify(model, prop)
    assert got == want, prop.render()
    # JSON text also tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert export_smtlib(model, prop) == reference_export(model, prop)


def cold_copy(model):
    """An equal model whose trees no cache has seen."""
    copy = pickle.loads(pickle.dumps(model))
    assert not any(tree in verification._COMPILED for tree in copy.trees.values())
    verification._rat.cache_clear()
    return copy


def check_cold_warm_pickled(model, props):
    for prop in props:
        cold = cold_copy(model)
        assert_matches_reference(cold, prop)  # cold
        scoped = [cold.trees[pair] for pair in prop.scope if pair in cold.trees]
        assert all(tree in verification._COMPILED for tree in scoped)
        assert_matches_reference(cold, prop)  # warm
        assert_matches_reference(pickle.loads(pickle.dumps(cold)), prop)  # pickled


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
        trees={A: stump("speed", 5.0, 0.9, 0.1), B: stump("angle_in_lane", 0.0, 0.7, 0.3)},
        priors={A: 0.5, B: 0.5},
        prior_floor=0.01,
    )


def unguarded(kind="argmax_is", **consequent):
    return proposition_from_dict(
        {
            "name": "unguarded",
            "scope": [["G_a", "straight_on"], ["G_b", "turn_left"]],
            "consequent": {"kind": kind, "goal": "G_a", **consequent},
        }
    )


# -- proposition pools ---------------------------------------------------------------


def tree_thresholds(model):
    cuts = {}
    for tree in model.trees.values():
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.rule is None:
                continue
            if node.rule.kind == "threshold":
                cuts.setdefault(node.rule.feature, []).append(node.rule.threshold)
            stack += [node.true_child, node.false_child]
    return cuts


@st.composite
def propositions(draw, model):
    """Propositions over the model's pairs whose constants cut leaf boxes."""
    md = model.metadata
    cuts = tree_thresholds(model)
    pairs = model.pairs()
    scope = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(4, len(pairs)), unique=True))
    goals = list(dict.fromkeys(g for g, _ in scope))
    atoms = []
    for _ in range(draw(st.integers(0, 3))):
        feature = draw(st.sampled_from(FEATURE_NAMES))
        atom = {"feature": feature}
        if feature in md.per_goal:
            gid, gtype = draw(st.sampled_from(scope))
            atom["pair"] = [gid, gtype.value]
        if feature in md.boolean:
            atom.update(op="=", value=draw(st.booleans()))
        else:
            value = draw(
                st.one_of(
                    st.sampled_from(cuts.get(feature, [0.0])),
                    st.just(-0.0),
                    st.integers(-5, 5).map(float),
                    st.floats(-60.0, 60.0, allow_nan=False),
                )
            )
            atom.update(op=draw(st.sampled_from(["<", "<=", ">", ">=", "="])), value=value)
        atoms.append(atom)
    kinds = ["argmax_is", "prob_at_least"] + (["prob_greater"] if len(goals) > 1 else [])
    consequent = {"kind": draw(st.sampled_from(kinds)), "goal": draw(st.sampled_from(goals))}
    if consequent["kind"] == "prob_greater":
        consequent["than"] = draw(st.sampled_from([g for g in goals if g != consequent["goal"]]))
    elif consequent["kind"] == "prob_at_least":
        consequent["threshold"] = draw(st.floats(0.0, 1.0))
    doc = {
        "name": "drawn",
        "scope": [[g, t.value] for g, t in scope],
        "antecedent": atoms,
        "consequent": consequent,
    }
    return proposition_from_dict(doc, md)


def desk_model():
    """One pair per desk fixture, each with the tree fit on that fixture."""
    pairs = [("G_a", ST_ON), ("G_b", TL), ("G_c", ST_ON)]
    trees = {}
    for pair, desk in zip(pairs, desk_assets()):
        trees[pair] = fit_tree(desk["rows"], desk["labels"], TrainConfig(alpha=desk["alpha"]))
    return GoalModel(trees=trees, priors={p: 1.0 / 3.0 for p in pairs}, prior_floor=0.0)


# -- equality with the reference -------------------------------------------------------


def test_shipped_propositions_match_reference(fixture_model):
    check_cold_warm_pickled(fixture_model, proposition_assets())


def test_bundled_smt_pairs_match_reference():
    for model, prop in smt_pair_assets():
        check_cold_warm_pickled(model, [prop])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_desk_models_match_reference(data):
    model = desk_model()
    check_cold_warm_pickled(model, [data.draw(propositions(model))])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drawn_propositions_match_reference(fixture_model, data):
    check_cold_warm_pickled(fixture_model, [data.draw(propositions(fixture_model))])


def test_missing_tree_matches_reference():
    model = two_pair_model()
    del model.trees[B]
    for prop in (unguarded(), unguarded("prob_greater", than="G_b")):
        check_cold_warm_pickled(model, [prop])


# -- no stale artifact ----------------------------------------------------------------


def test_replaced_tree_gets_fresh_artifacts():
    model = two_pair_model()
    prop = unguarded("prob_at_least", threshold=0.5)
    before = verify(model, prop)
    smt_before = export_smtlib(model, prop)
    tree = model.trees[A]
    model.trees[A] = dataclasses.replace(
        tree, true_child=dataclasses.replace(tree.true_child, likelihood=0.2)
    )
    assert_matches_reference(model, prop)
    assert export_smtlib(model, prop) != smt_before
    assert verify(model, prop).counterexample.likelihoods != before.counterexample.likelihoods


def test_one_tree_under_two_pairs_gets_boxes_per_pair():
    # a per-goal feature names one variable per pair, so the shared tree
    # compiles once for each pair
    shared = stump("path_to_goal_length", 20.0, 0.8, 0.2)
    model = GoalModel({A: shared, B: shared}, {A: 0.5, B: 0.5})
    for kind, extra in (("argmax_is", {}), ("prob_at_least", {"threshold": 0.6})):
        assert_matches_reference(model, unguarded(kind, **extra))
    assert len(verification._COMPILED[shared]) == 4


def test_tree_too_deep_to_compile_raises_model_error():
    deep = TreeNode(likelihood=0.5)
    for _ in range(5000):
        deep = TreeNode(0.5, DecisionRule("speed", "threshold", 1.0), TreeNode(0.5), deep, 1.0, 1.0)
    model = GoalModel({A: deep, B: stump("angle_in_lane", 0.0, 0.7, 0.3)}, {A: 0.5, B: 0.5})
    for check in (verify, export_smtlib):
        with pytest.raises(ModelError, match="nested too deeply"):
            check(model, unguarded())
    assert deep not in verification._COMPILED or not verification._COMPILED[deep]


# -- lifetime and immutability --------------------------------------------------------


def test_compiled_trees_do_not_keep_a_dropped_model_alive():
    model = two_pair_model()
    prop = unguarded()
    verify(model, prop)
    export_smtlib(model, prop)
    trees = list(model.trees.values())
    assert all(tree in verification._COMPILED for tree in trees)
    refs = [weakref.ref(model)] + [weakref.ref(tree) for tree in trees]
    size = len(verification._COMPILED)
    del trees
    gc.disable()  # freed by reference counting alone, not the cycle collector
    try:
        del model
        assert all(ref() is None for ref in refs)
        assert len(verification._COMPILED) == size - 2
    finally:
        gc.enable()


def test_tree_nodes_are_frozen():
    node = stump("speed", 5.0, 0.9, 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.likelihood = 0.6
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.true_child.likelihood = 0.6
    # identity, not value, decides equality, so a tree can key a cache
    assert node != stump("speed", 5.0, 0.9, 0.1)
    assert len({node, node}) == 1


def test_rule_kind_flag_survives_copies():
    boolean = DecisionRule("in_correct_lane", "boolean")
    threshold = DecisionRule("speed", "threshold", 5.0)
    assert boolean.is_boolean and not threshold.is_boolean
    for rule in (boolean, threshold):
        for copy in (pickle.loads(pickle.dumps(rule)), dataclasses.replace(rule)):
            assert copy == rule and copy.is_boolean == rule.is_boolean
    assert repr(threshold) == "DecisionRule(feature='speed', kind='threshold', threshold=5.0)"
