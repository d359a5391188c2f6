"""Each per-pair decision has one owner; each owner equals the derivation it replaced.

- features.candidates: the (goal, goal type) pairs and feature vectors of one
  query, for both training (build_datasets) and inference (infer);
- verification.scope_variables: the variable keys of a scope, for verify's
  environment, the SMT-LIB declarations and the leaf boxes;
- tree.pair_label and tree.goal_type_named: the "goal_id:goal_type" name.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

import grit.features
from grit.errors import ModelError, PropositionError
from grit.evaluation import generate_synthetic, template_names
from grit.features import FEATURE_NAMES, DEFAULT_METADATA, candidates, extract_all
from grit.inference import GoalEstimate, infer, infer_no_dt, posterior, scoped_priors
from grit.scenario import GoalType, assign_goal_type, reachable_goals
from grit.trajectory import build_datasets, first_goal_entry, history_for, sample_points
from grit.training import train_model
from grit.tree import goal_type_named, pair_label
from grit.verification import scope_variables, var_key


@pytest.fixture(scope="module", params=template_names())
def world(request):
    scenario, episodes = generate_synthetic(request.param, 20, seed=3)
    return scenario, episodes, train_model(build_datasets(episodes, scenario))


def _queries(scenario, episodes):
    """(history, vehicle, state at the cutoff, routes) at every sample point."""
    for episode in episodes:
        for vid in episode.agent_ids():
            trajectory = episode.trajectories[vid]
            hit = first_goal_entry(trajectory, scenario)
            if hit is None:
                continue
            for cutoff in sample_points(trajectory, hit[0]):
                state = trajectory[cutoff]
                yield history_for(episode, vid, cutoff), vid, state, reachable_goals(state, scenario)


def test_candidates_equal_the_direct_derivation(world):
    scenario, episodes, model = world
    checked = 0
    for history, vid, state, routes in _queries(scenario, episodes):
        pairs = [(r.goal.goal_id, assign_goal_type(state, r, scenario)) for r in routes]
        features = extract_all(history, vid, routes, scenario)
        expected = [(pair, features[pair[0]]) for pair in pairs]
        assert candidates(history, vid, routes, scenario) == expected
        assert candidates(history, vid, routes, scenario, model.trees) == (
            expected if any(p in model.trees for p in pairs) else [(p, None) for p in pairs]
        )
        assert candidates(history, vid, routes, scenario, {}) == [(p, None) for p in pairs]
        checked += bool(routes)
    assert checked > 100


def test_tree_less_inference_extracts_no_features(world, monkeypatch):
    scenario, episodes, model = world
    calls = []

    def counted(*args):
        calls.append(args)
        return extract_all(*args)

    monkeypatch.setattr(grit.features, "extract_all", counted)
    bare = dataclasses.replace(model, trees={})
    queries = 0
    extracted = 0
    for history, vid, state, routes in _queries(scenario, episodes):
        if not routes:
            continue
        pairs = [(r.goal.goal_id, assign_goal_type(state, r, scenario)) for r in routes]
        priors = scoped_priors(model, pairs)
        probs = posterior([0.5] * len(pairs), priors)
        expected = sorted(
            (GoalEstimate(gid, gtype, 0.5, prior, p)
             for (gid, gtype), prior, p in zip(pairs, priors, probs)),
            key=lambda e: (e.goal_id, e.goal_type.value),
        )
        for result in (infer(history, vid, scenario, bare), infer_no_dt(history, vid, scenario, model)):
            assert result.entries == expected
        assert len(calls) == extracted
        # with trees, one extraction per query that scores any pair by a tree
        infer(history, vid, scenario, model)
        extracted += any(pair in model.trees for pair in pairs)
        assert len(calls) == extracted
        queries += 1
    assert queries > 100 and extracted > 100


def _nested_loop(scope, metadata):
    """The variable table as verify built it before scope_variables."""
    table = {}
    for pair in scope:
        for f in FEATURE_NAMES:
            key = var_key(pair, f, metadata)
            if key not in table:
                table[key] = f
    return table


PAIRS = st.tuples(st.sampled_from(["G_a", "G_b", "G:c", ""]), st.sampled_from(list(GoalType)))


@given(scope=st.lists(PAIRS, max_size=8))
def test_scope_variables_equal_the_nested_loop(scope):
    table = scope_variables(scope, DEFAULT_METADATA)
    assert list(table.items()) == list(_nested_loop(scope, DEFAULT_METADATA).items())


@pytest.mark.parametrize("gtype", list(GoalType))
def test_pair_label_and_goal_type_named_round_trip(gtype):
    for gid in ("G_a", "G:with:colons", ""):
        label = pair_label((gid, gtype))
        assert label == f"{gid}:{gtype.value}"
        head, name = label.rsplit(":", 1)
        assert (head, goal_type_named(name, ModelError)) == (gid, gtype)


def test_goal_type_named_keeps_the_caller_error_and_cuts_the_name():
    with pytest.raises(ModelError, match=r"^unknown goal type 'turn_lft'$"):
        goal_type_named("turn_lft", ModelError)
    with pytest.raises(PropositionError) as info:
        goal_type_named("x" * 5000, PropositionError, "p: scope: ")
    assert str(info.value) == "p: scope: unknown goal type '" + "x" * 39
