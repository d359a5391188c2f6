"""End-to-end acceptance gates for the goal-recognition stack.

Each test is one release gate and shows up as a single pass/fail line under
``pytest -v tests/test_acceptance.py``. Every numeric claim is checked
against an oracle implemented inline, independent of the code under test.
"""

import itertools
import math
import operator
import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest

from grit.assets import desk_asset, proposition_assets, smt_pair_assets
from grit.evaluation import benchmark, evaluate
from grit.features import FEATURE_NAMES
from grit.inference import posterior
from grit.scenario import GoalSpec, Lane, Scenario
from grit.trajectory import (
    AgentState,
    Episode,
    build_datasets,
    first_goal_entry,
    sample_points,
)
from grit.training import TrainConfig, fit_tree
from grit.tree import node_likelihood, traverse
from grit.verification import (
    Interval,
    feature_domain,
    scoped_priors,
    var_key,
    verify,
)

FR = 25.0
DT = 1.0 / FR


@pytest.fixture(scope="module")
def eval_report(fixture_model, test_episodes, fixture_scenario):
    return evaluate(
        fixture_model,
        test_episodes,
        fixture_scenario,
        include_baseline=True,
    )


# -- 1: smoothed likelihood against exact rational arithmetic ---------------------


def test_01_node_likelihood_matches_exact_rational_oracle():
    rng = random.Random(104729)
    checked = 0
    while checked < 1000:
        n_pos = rng.randint(0, 400)
        n_neg = rng.randint(0, 400)
        node_pos = rng.randint(0, n_pos)
        node_neg = rng.randint(0, n_neg)
        alpha = rng.choice([0.0, 0.1, 0.5, 1.0, 2.0, 10.0])
        fa = Fraction(alpha)
        a = (Fraction(node_pos) + fa) * (Fraction(n_neg) + fa)
        b = (Fraction(node_neg) + fa) * (Fraction(n_pos) + fa)
        if a + b == 0:
            continue
        got = node_likelihood(node_pos, node_neg, n_pos, n_neg, alpha)
        assert abs(got - float(a / (a + b))) <= 1e-12
        checked += 1
    assert node_likelihood(9, 5, 90, 10, 0.0) == 90.0 / 540.0
    assert abs(node_likelihood(9, 5, 90, 10, 0.0) - float(Fraction(1, 6))) <= 1e-12


# -- 2: tree anatomy on the trained fixture ---------------------------------------


def _leaf_products(node, running):
    if node.is_leaf:
        yield running, node.likelihood
        return
    yield from _leaf_products(node.true_child, running * node.true_weight)
    yield from _leaf_products(node.false_child, running * node.false_weight)


def test_02_roots_are_half_and_weight_products_reach_leaves(fixture_model):
    assert fixture_model.trees
    for pair, tree in fixture_model.trees.items():
        assert tree.likelihood == 0.5, pair
        for product, leaf_like in _leaf_products(tree, tree.likelihood):
            assert abs(product - leaf_like) <= 1e-9, pair


# -- 3: posterior normalization and scale invariance ------------------------------


def test_03_posterior_normalizes_and_ignores_likelihood_scale():
    rng = random.Random(28657)
    for _ in range(10000):
        n = rng.randint(1, 6)
        likelihoods = [rng.uniform(1e-6, 1.0) for _ in range(n)]
        priors = [rng.uniform(1e-6, 1.0) for _ in range(n)]
        total = sum(priors)
        priors = [p / total for p in priors]
        probs = posterior(likelihoods, priors)
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert all(p >= 0.0 for p in probs)
        scale = rng.uniform(0.1, 10.0)
        scaled = posterior([scale * l for l in likelihoods], priors)
        assert all(abs(p - q) <= 1e-9 for p, q in zip(probs, scaled))


# -- 4: greedy fits against exhaustive shallow search ------------------------------


def _candidate_splits(rows):
    splits = []
    for feature in sorted(rows[0]):
        values = sorted({row[feature] for row in rows})
        if all(isinstance(v, bool) for v in values):
            if len(values) == 2:
                splits.append((feature, None))
            continue
        for a, b in zip(values, values[1:]):
            splits.append((feature, (a + b) / 2.0))
    return splits


def _split_indices(rows, idx, split):
    feature, threshold = split
    if threshold is None:
        true_side = [i for i in idx if rows[i][feature]]
    else:
        true_side = [i for i in idx if rows[i][feature] < threshold]
    chosen = set(true_side)
    return true_side, [i for i in idx if i not in chosen]


def _best_shallow_hits(rows, labels):
    """Exhaustive maximum training hits over depth <= 2 majority-vote trees."""

    def majority(idx):
        pos = sum(1 for i in idx if labels[i])
        return max(pos, len(idx) - pos)

    splits = _candidate_splits(rows)

    def best_subtree(idx):
        best = majority(idx)
        for split in splits:
            t, f = _split_indices(rows, idx, split)
            if not t or not f:
                continue
            best = max(best, majority(t) + majority(f))
        return best

    everything = list(range(len(rows)))
    best = majority(everything)
    for split in splits:
        t, f = _split_indices(rows, everything, split)
        if not t or not f:
            continue
        best = max(best, best_subtree(t) + best_subtree(f))
    return best


def test_04_greedy_fit_matches_exhaustive_shallow_search():
    for name in ("desk_separable", "desk_conjunction", "desk_nonmonotone"):
        desk = desk_asset(name)
        rows, labels = desk["rows"], desk["labels"]
        config = TrainConfig(max_depth=2, alpha=desk["alpha"])
        tree = fit_tree(rows, labels, config)
        hits = sum(
            (traverse(tree, row)[0] > 0.5) == label
            for row, label in zip(rows, labels)
        )
        assert hits == _best_shallow_hits(rows, labels), name
    separable = desk_asset("desk_separable")
    stump = fit_tree(
        separable["rows"],
        separable["labels"],
        TrainConfig(max_depth=2, alpha=separable["alpha"]),
    )
    assert stump.rule.threshold == 5.0


# -- 5: shipped propositions, witness replay and sampling survival -----------------

EXPECTED_VERDICTS = {
    "east_goal_near_argmax": True,
    "left_lane_turn_argmax": True,
    "east_lane_floor": False,
    "angled_turn_dominates": True,
    "turn_lane_dominates": False,
}

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
}

SAMPLING_CLIP = 250.0


def _consequent_holds(consequent, p_goal):
    if consequent.kind == "argmax_is":
        target = p_goal[consequent.goal]
        return all(p < target for g, p in p_goal.items() if g != consequent.goal)
    if consequent.kind == "prob_greater":
        return p_goal[consequent.goal] > p_goal[consequent.other]
    return p_goal[consequent.goal] >= consequent.threshold


def _p_goal_at(model, prop, features_by_pair):
    priors = scoped_priors(model, prop.scope)
    likelihoods = []
    for pair in prop.scope:
        tree = model.trees.get(pair)
        if tree is None:
            likelihoods.append(0.5)
        else:
            likelihoods.append(traverse(tree, features_by_pair[pair])[0])
        # the replay runs through the same traversal/posterior calls the
        # inference entry point uses on live trajectories
    probs = posterior(likelihoods, priors)
    p_goal = {}
    for (gid, _), p in zip(prop.scope, probs):
        p_goal[gid] = p_goal.get(gid, 0.0) + p
    return p_goal, likelihoods


def _clamped_env(model, prop):
    md = model.metadata
    env = {}
    for pair in prop.scope:
        for feature in FEATURE_NAMES:
            env.setdefault(var_key(pair, feature, md), feature_domain(feature, md))
    for atom in prop.antecedent:
        anchor = atom.pair if atom.pair is not None else prop.scope[0]
        key = var_key(anchor, atom.feature, md)
        if atom.feature in md.boolean:
            env[key] = env[key] & frozenset((bool(atom.value),))
        else:
            env[key] = env[key].intersect(atom.to_interval())
    return env


def _domain_witness(domain):
    if isinstance(domain, frozenset):
        return max(domain)
    return domain.witness()


def _draw(rng, domain):
    if isinstance(domain, frozenset):
        return rng.choice(sorted(domain))
    lo = max(domain.lo, -SAMPLING_CLIP)
    hi = min(domain.hi, SAMPLING_CLIP)
    value = rng.uniform(lo, hi)
    if not domain.contains(value):
        value = domain.witness()
    return value


def _axis_points(domain, thresholds):
    """A 0.25-stepped lattice hitting every cell the thresholds cut from domain.

    Breakpoints are the split thresholds plus any finite domain bound; taking
    each breakpoint, its 0.25-neighbours, and the midpoints of adjacent
    breakpoints guarantees one representative inside every feasible cell of
    the axis partition, because the trees only ever test `feature < t`.
    """
    if isinstance(domain, frozenset):
        return sorted(domain)
    breaks = sorted(set(thresholds))
    for bound in (domain.lo, domain.hi):
        if math.isfinite(bound):
            breaks.append(bound)
    breaks = sorted(set(breaks))
    points = {_domain_witness(domain)}
    for b in breaks:
        points.update((b - 0.25, b, b + 0.25))
    for a, b in zip(breaks, breaks[1:]):
        points.add((a + b) / 2.0)
    return sorted(p for p in points if domain.contains(p))


def _tree_rules(node, out):
    if node.rule is not None:
        out.append(node.rule)
        _tree_rules(node.true_child, out)
        _tree_rules(node.false_child, out)
    return out


def _grid_check(model, prop):
    """Exhaustively walk the threshold lattice; count posterior evaluations.

    The full cartesian product over all axes is factored through the model
    structure: each tree's likelihood depends only on its own variables, so
    enumerating private lattices per shared-axis point and then combining
    the reachable leaf likelihoods visits exactly the set of posteriors the
    flat product would.
    """
    md = model.metadata
    env = _clamped_env(model, prop)
    priors = scoped_priors(model, prop.scope)

    shared_thresholds = defaultdict(set)
    private_thresholds = {pair: defaultdict(set) for pair in prop.scope}
    for pair in prop.scope:
        tree = model.trees.get(pair)
        rules = _tree_rules(tree, []) if tree is not None else []
        for rule in rules:
            table = (
                private_thresholds[pair]
                if rule.feature in md.per_goal
                else shared_thresholds
            )
            table[rule.feature]
            if rule.kind == "threshold":
                table[rule.feature].add(rule.threshold)
    for atom in prop.antecedent:
        if atom.feature in md.per_goal:
            anchor = atom.pair if atom.pair is not None else prop.scope[0]
            private_thresholds[anchor][atom.feature]
        else:
            shared_thresholds[atom.feature]

    shared_axes = [
        (f, _axis_points(env[var_key(prop.scope[0], f, md)], thr))
        for f, thr in sorted(shared_thresholds.items())
    ]
    private_axes = {
        pair: [
            (f, _axis_points(env[var_key(pair, f, md)], thr))
            for f, thr in sorted(private_thresholds[pair].items())
        ]
        for pair in prop.scope
    }

    protos = {
        pair: {f: _domain_witness(env[var_key(pair, f, md)]) for f in FEATURE_NAMES}
        for pair in prop.scope
    }
    combo_ok = {}
    leafset_seen = set()
    evaluated = 0
    for shared_values in itertools.product(*(pts for _, pts in shared_axes)):
        leaf_sets = []
        for pair in prop.scope:
            proto = protos[pair]
            for (feature, _), value in zip(shared_axes, shared_values):
                proto[feature] = value
            tree = model.trees.get(pair)
            outcomes = set()
            axes = private_axes[pair]
            for private_values in itertools.product(*(pts for _, pts in axes)):
                for (feature, _), value in zip(axes, private_values):
                    proto[feature] = value
                outcomes.add(0.5 if tree is None else traverse(tree, proto)[0])
            leaf_sets.append(tuple(sorted(outcomes)))
        key = tuple(leaf_sets)
        if key in leafset_seen:
            continue
        leafset_seen.add(key)
        for combo in itertools.product(*leaf_sets):
            if combo not in combo_ok:
                probs = posterior(list(combo), priors)
                p_goal = {}
                for (gid, _), p in zip(prop.scope, probs):
                    p_goal[gid] = p_goal.get(gid, 0.0) + p
                combo_ok[combo] = _consequent_holds(prop.consequent, p_goal)
                evaluated += 1
            assert combo_ok[combo], (
                f"{prop.name}: lattice point violates the claim at "
                f"likelihoods {combo}"
            )
    return evaluated


def test_05_shipped_propositions_replay_witnesses_and_survive_sampling(
    fixture_model,
):
    started = time.monotonic()
    props = proposition_assets()
    assert {p.name for p in props} == set(EXPECTED_VERDICTS)
    verdicts = {}
    rng = random.Random(514229)
    for prop in props:
        result = verify(fixture_model, prop)
        verdicts[prop.name] = result.verified
        if not result.verified:
            ce = result.counterexample
            assert ce is not None
            # the witness satisfies every antecedent constraint
            for atom in prop.antecedent:
                anchor = atom.pair if atom.pair is not None else prop.scope[0]
                value = ce.features[anchor][atom.feature]
                assert _OPS[atom.op](value, atom.value), prop.name
            # and replays to a genuine violation through live inference calls
            p_goal, likelihoods = _p_goal_at(fixture_model, prop, ce.features)
            for pair, like in zip(prop.scope, likelihoods):
                assert like == ce.likelihoods[pair], prop.name
            assert p_goal == ce.p_goal, prop.name
            assert not _consequent_holds(prop.consequent, p_goal), prop.name
            continue

        env = _clamped_env(fixture_model, prop)
        for domain in env.values():
            feasible = bool(domain) if isinstance(domain, frozenset) else domain.feasible()
            assert feasible, f"{prop.name}: vacuous antecedent"
        md = fixture_model.metadata
        for _ in range(100000):
            features = {
                pair: {
                    f: _draw(rng, env[var_key(pair, f, md)]) for f in FEATURE_NAMES
                }
                for pair in prop.scope
            }
            p_goal, _ = _p_goal_at(fixture_model, prop, features)
            assert _consequent_holds(prop.consequent, p_goal), (
                f"{prop.name}: random sample violates the claim at {features}"
            )
        assert _grid_check(fixture_model, prop) > 0

    assert verdicts == EXPECTED_VERDICTS
    assert time.monotonic() - started < 60.0


# -- 6: SMT exports agree with an external solver -----------------------------------


def test_06_smt_exports_agree_with_external_solver():
    z3 = pytest.importorskip("z3")
    from grit.verification import export_smtlib

    for model, prop in smt_pair_assets():
        native = verify(model, prop).verified
        solver = z3.Solver()
        solver.from_string(export_smtlib(model, prop))
        got = solver.check()
        assert got == (z3.unsat if native else z3.sat), prop.name


# -- 7: accuracy and entropy trends on held-out vehicles ----------------------------


def test_07_accuracy_rises_and_entropy_falls_with_observation(eval_report):
    report = eval_report
    assert report.accuracy_at(1.0) >= report.accuracy_at(0.1) + 0.15
    assert report.entropy_at(1.0) <= report.entropy_at(0.1) - 0.10
    assert report.accuracy_at(0.9) >= report.accuracy_at(0.9, baseline=True)


# -- 8: latency budget and stage profile --------------------------------------------


def test_08_inference_is_fast_and_feature_bound(
    fixture_model, test_episodes, fixture_scenario
):
    bench = benchmark(fixture_model, test_episodes, fixture_scenario)
    assert bench.n_calls >= 30
    assert bench.mean_us < 10000.0
    shares = bench.stage_shares
    assert shares["features"] > 0.5
    assert abs(sum(shares.values()) - 1.0) <= 1e-9


# -- 9: depth bound ------------------------------------------------------------------


def test_09_no_trained_tree_exceeds_depth_seven(fixture_model):
    assert fixture_model.trees
    for pair, tree in fixture_model.trees.items():
        assert tree.depth() <= 7, pair


# -- 10: sampling-grid and goal-radius fidelity --------------------------------------


def test_10_sample_counts_goal_radius_and_exclusion(
    fixture_datasets, test_episodes, fixture_scenario, train_episodes
):
    for episodes, datasets in (
        (train_episodes, fixture_datasets),
        (test_episodes, build_datasets(test_episodes, fixture_scenario)),
    ):
        frames = defaultdict(set)
        for samples in datasets.values():
            for s in samples:
                frames[(s.episode_index, s.agent_id)].add(s.frame_index)
        everyone = {
            (i, agent)
            for i, episode in enumerate(episodes)
            for agent in episode.trajectories
        }
        assert set(frames) == everyone
        assert all(1 <= len(cuts) <= 11 for cuts in frames.values())

    lane = Lane("main", ((0.0, 0.0), (200.0, 0.0)))
    world = Scenario([lane], [GoalSpec("G_end", 150.0, 0.0)])
    assert world.goals[0].radius == 1.5
    near = [
        AgentState(k * DT, 140.0 + 20.0 * k * DT, 1.4, 0.0, 20.0, 0.0)
        for k in range(25)
    ]
    far = [
        AgentState(k * DT, 140.0 + 20.0 * k * DT, 1.6, 0.0, 20.0, 0.0)
        for k in range(25)
    ]
    goal = world.goals[0]
    hit = first_goal_entry(near, world)
    assert hit is not None and hit[0].goal_id == "G_end"
    expected_entry = min(
        k
        for k, s in enumerate(near)
        if math.hypot(s.x - goal.x, s.y - goal.y) <= 1.5
    )
    assert hit[1] == expected_entry
    assert first_goal_entry(far, world) is None
    assert sample_points(near, goal) == sorted(set(sample_points(near, goal)))

    episode = Episode(FR, {"reach": near, "misses": far})
    datasets = build_datasets([episode], world)
    assert datasets
    agents = {s.agent_id for samples in datasets.values() for s in samples}
    assert agents == {"reach"}
