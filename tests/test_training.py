import copy
import dataclasses
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grit.assets import desk_asset
from grit.errors import ModelError
from grit.features import BOOLEAN_FEATURES, FEATURE_NAMES, FeatureVector
from grit.scenario import GoalType
from grit.training import (
    TREE_COUNTS,
    TrainConfig,
    best_split,
    estimate_priors,
    fit_tree,
    grid_configs,
    grid_search,
    prune,
    train_model,
    validation_loss,
)
from grit.inference import infer
from grit.tree import GoalModel, TreeNode, traverse
from grit.trajectory import LabeledSample, history_for
from oracle import best_split_per_column, fit_tree_reference

ST = GoalType.STRAIGHT_ON
TL = GoalType.TURN_LEFT


def fit_desk(name, max_depth=2):
    desk = desk_asset(name)
    config = TrainConfig(max_depth=max_depth, alpha=desk["alpha"])
    tree = fit_tree(desk["rows"], desk["labels"], config)
    return desk, tree


def training_accuracy(tree, rows, labels):
    hits = 0
    for row, label in zip(rows, labels):
        like, _ = traverse(tree, row)
        hits += (like > 0.5) == label
    return hits / len(labels)


def shape(node):
    if node.is_leaf:
        return ("leaf", node.likelihood)
    return (
        node.rule.feature,
        node.rule.kind,
        node.rule.threshold,
        shape(node.true_child),
        shape(node.false_child),
    )


def sample(vehicle, pair, label, frame=0, speed=5.0):
    features = FeatureVector(
        path_to_goal_length=50.0,
        in_correct_lane=True,
        speed=speed,
        acceleration=0.0,
        angle_in_lane=0.0,
        vehicle_in_front_dist=None,
        vehicle_in_front_speed=None,
        oncoming_vehicle_dist=None,
    )
    return LabeledSample(
        episode_index=0,
        agent_id=vehicle,
        frame_index=frame,
        time=frame / 25.0,
        goal_id=pair[0],
        goal_type=pair[1],
        features=features,
        label=label,
    )


# -- growing -----------------------------------------------------------------------


def test_separable_data_yields_exact_midpoint_stump():
    desk, tree = fit_desk("desk_separable")
    assert tree.depth() == 1
    assert tree.rule.feature == "speed"
    assert tree.rule.threshold == 5.0
    assert tree.likelihood == 0.5
    assert tree.true_child.likelihood > 0.5 > tree.false_child.likelihood
    assert training_accuracy(tree, desk["rows"], desk["labels"]) == 1.0


def test_conjunction_tie_breaks_to_lexicographic_feature():
    # the first split gain ties between speed @ 5.0 and angle_in_lane @ 0.0;
    # the lexicographically first feature must win
    desk, tree = fit_desk("desk_conjunction")
    assert tree.rule.feature == "angle_in_lane"
    assert tree.rule.threshold == 0.0
    assert tree.depth() == 2
    assert training_accuracy(tree, desk["rows"], desk["labels"]) == 1.0


def test_nonmonotone_labels_need_both_levels():
    desk, tree = fit_desk("desk_nonmonotone")
    assert tree.depth() == 2
    assert training_accuracy(tree, desk["rows"], desk["labels"]) == 1.0


def test_single_class_data_fits_a_half_leaf():
    rows = [{"speed": float(v)} for v in range(6)]
    tree = fit_tree(rows, [True] * 6, TrainConfig(alpha=1.0))
    assert tree.is_leaf
    assert tree.likelihood == 0.5
    with pytest.raises(ModelError):
        fit_tree(rows, [True] * 6, TrainConfig(alpha=0.0))


def test_fit_tree_input_validation():
    with pytest.raises(ModelError):
        fit_tree([], [], TrainConfig())
    with pytest.raises(ModelError):
        fit_tree([{"speed": 1.0}], [True, False], TrainConfig())
    with pytest.raises(ModelError):
        fit_tree([{"speed": 1.0}, {"angle_in_lane": 1.0}], [True, False], TrainConfig())
    with pytest.raises(ModelError):
        fit_tree([{"warp_factor": 1.0}], [True], TrainConfig())
    with pytest.raises(ModelError):
        fit_tree([{"speed": None}], [True], TrainConfig())


def test_max_depth_and_min_samples_bound_growth():
    desk = desk_asset("desk_nonmonotone")
    assert fit_tree(desk["rows"], desk["labels"], TrainConfig(max_depth=0)).is_leaf
    assert (
        fit_tree(desk["rows"], desk["labels"], TrainConfig(max_depth=1)).depth() == 1
    )
    wide = fit_tree(
        desk["rows"], desk["labels"], TrainConfig(min_samples_split=100)
    )
    assert wide.is_leaf
    with pytest.raises(ModelError):
        TrainConfig(min_samples_split=1)
    with pytest.raises(ModelError):
        TrainConfig(max_depth=-1)
    with pytest.raises(ModelError):
        TrainConfig(ccp_alpha=-0.1)


def _entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _preorder(node):
    yield node
    if not node.is_leaf:
        yield from _preorder(node.true_child)
        yield from _preorder(node.false_child)


def _counts(tree):
    """{node: (positive, negative)} from the tree's TREE_COUNTS entry."""
    counts = TREE_COUNTS[tree].counts
    assert len(counts) == tree.node_count()
    return dict(zip(_preorder(tree), counts))


def test_fixture_tree_counts_and_gains_are_consistent(fixture_datasets):
    pair = ("G_east", ST)
    samples = fixture_datasets[pair]
    rows = [s.features.imputed() for s in samples]
    labels = [s.label for s in samples]
    tree = fit_tree(rows, labels, TrainConfig(alpha=1.0))
    w_pos, w_neg = TREE_COUNTS[tree].class_weights
    counts = _counts(tree)
    assert counts[tree][0] == sum(labels)
    assert counts[tree][1] == len(labels) - sum(labels)

    def check(node):
        if node.is_leaf:
            return
        t, f = node.true_child, node.false_child
        (pos, neg), (t_pos, t_neg), (f_pos, f_neg) = counts[node], counts[t], counts[f]
        assert pos == t_pos + f_pos
        assert neg == t_neg + f_neg
        mass = w_pos * pos + w_neg * neg
        h = _entropy(w_pos * pos / mass)
        child_h = 0.0
        for c_pos, c_neg in (counts[t], counts[f]):
            m = w_pos * c_pos + w_neg * c_neg
            if m > 0:
                child_h += m * _entropy(w_pos * c_pos / m)
        assert h - child_h / mass > 1e-12
        check(t)
        check(f)

    check(tree)


# -- whole-node split scoring against the per-column oracle -------------------------

GRID_ALPHAS = (0.1, 1.0, 10.0)
# few distinct values, so columns tie, repeat values and come out constant
_VALUES = st.sampled_from([-2.5, -1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 3.0, 7.25])


def _class_weights(labels, alpha):
    n_pos = sum(labels)
    total = len(labels) + 2.0 * alpha
    return total / (n_pos + alpha), total / (len(labels) - n_pos + alpha)


def _labels(draw, n):
    """Mixed labels, or one class only (the other absent, as alpha > 0 allows)."""
    single = draw(st.sampled_from([None, True, False]))
    if single is None:
        return draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [single] * n


@st.composite
def split_cases(draw):
    n = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(["value", "boolean", "constant"]), max_size=6))
    columns = []
    for kind in kinds:
        if kind == "boolean":
            columns.append(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        elif kind == "constant":
            columns.append([draw(_VALUES)] * n)
        else:
            columns.append(draw(st.lists(_VALUES, min_size=n, max_size=n)))
    X = np.array(columns, dtype=float).reshape(len(kinds), n).T
    labels = _labels(draw, n)
    alpha = draw(st.sampled_from(GRID_ALPHAS))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return X, labels, np.array(sorted(rows)), alpha


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_best_split_equals_per_column_oracle(case):
    X, labels, idx, alpha = case
    y = np.array(labels, dtype=bool)
    w_pos, w_neg = _class_weights(labels, alpha)
    fast = best_split(np.ascontiguousarray(X.T), y, idx, w_pos, w_neg)
    assert fast == best_split_per_column(X, y, idx, w_pos, w_neg)


def test_best_split_no_columns_constant_columns_and_nan_gains():
    y = np.array([True, False, True, False])
    idx = np.arange(4)
    assert best_split(np.empty((0, 4)), y, idx, 2.0, 2.0) is None
    constant = np.array([[1.0] * 4, [0.0] * 4])
    assert best_split(constant, y, idx, 2.0, 2.0) is None
    # an infinite class weight makes every gain NaN: each column's argmax
    # lands on a NaN, which is skipped, so nothing splits
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    for w_pos, w_neg in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with np.errstate(all="ignore"):
            assert best_split(np.ascontiguousarray(X.T), y, idx, w_pos, w_neg) is None
            assert best_split_per_column(X, y, idx, w_pos, w_neg) is None


@st.composite
def tree_cases(draw):
    n = draw(st.integers(1, 30))
    names = draw(st.lists(st.sampled_from(FEATURE_NAMES), unique=True, max_size=5))
    rows = []
    for _ in range(n):
        rows.append({
            name: draw(st.booleans()) if name in BOOLEAN_FEATURES else draw(_VALUES)
            for name in names
        })
    labels = _labels(draw, n)
    config = TrainConfig(
        max_depth=draw(st.integers(0, 5)),
        alpha=draw(st.sampled_from(GRID_ALPHAS)),
        min_samples_split=draw(st.integers(2, n + 2)),
    )
    return rows, labels, config


def _fit_both(rows, labels, config):
    """fit_tree's tree and the reference grower's (tree, counts entry)."""
    tree = fit_tree(rows, labels, config)
    reference = fit_tree_reference(
        rows, labels, config.max_depth, config.alpha, config.min_samples_split
    )
    return tree, reference


@settings(max_examples=150, deadline=None)
@given(tree_cases())
def test_fit_tree_equals_per_column_reference_grower(case):
    tree, reference = _fit_both(*case)
    assert _dump(tree) == _dump(*reference)
    assert TREE_COUNTS[tree] == reference[1]


def test_fit_tree_equals_reference_grower_on_fixture(fixture_datasets):
    for pair, samples in sorted(fixture_datasets.items()):
        rows = [s.features.imputed() for s in samples]
        labels = [s.label for s in samples]
        for alpha in GRID_ALPHAS:
            tree, reference = _fit_both(rows, labels, TrainConfig(alpha=alpha))
            assert _dump(tree) == _dump(*reference), (pair, alpha)


# -- pruning -----------------------------------------------------------------------


def test_prune_zero_is_identity_and_infinity_collapses(fixture_datasets):
    samples = fixture_datasets[("G_east", ST)]
    rows = [s.features.imputed() for s in samples]
    labels = [s.label for s in samples]
    tree = fit_tree(rows, labels, TrainConfig(alpha=1.0))
    assert shape(prune(tree, 0.0)) == shape(tree)
    collapsed = prune(tree, 1e9)
    assert collapsed.is_leaf and collapsed.likelihood == 0.5
    # the input tree is untouched
    assert not tree.is_leaf

    leaf_counts = [prune(tree, c).leaf_count() for c in (0.0, 1e-4, 1e-3, 1e-2, 1e9)]
    assert leaf_counts == sorted(leaf_counts, reverse=True)
    assert leaf_counts[0] == tree.leaf_count() and leaf_counts[-1] == 1


class _MutableNode:
    """A node whose subtree can be cut in place, for the reference pruner;
    counts yields the (positive, negative) counts in preorder."""

    def __init__(self, node, counts):
        self.node = node
        self.pos, self.neg = next(counts)
        self.children = None if node.is_leaf else [
            _MutableNode(node.true_child, counts), _MutableNode(node.false_child, counts)
        ]

    def dump(self):
        n = self.node
        if self.children is None:
            return (n.likelihood, self.pos, self.neg)
        return (n.likelihood, self.pos, self.neg, n.rule, n.true_weight, n.false_weight,
                self.children[0].dump(), self.children[1].dump())


def reference_prune(tree, ccp_alpha):
    """Weakest-link pruning that collapses nodes of a mutable copy in place:
    lowest effective alpha first, ties to the earliest node in preorder."""
    w_pos, w_neg = TREE_COUNTS[tree].class_weights
    root = _MutableNode(tree, iter(TREE_COUNTS[tree].counts))
    root_mass = w_pos * root.pos + w_neg * root.neg

    def risk(m):
        mass = w_pos * m.pos + w_neg * m.neg
        return 0.0 if mass <= 0 else (mass / root_mass) * _entropy(w_pos * m.pos / mass)

    def leaves(m):
        return [m] if m.children is None else leaves(m.children[0]) + leaves(m.children[1])

    def preorder(m):
        return [m] + ([] if m.children is None else preorder(m.children[0]) + preorder(m.children[1]))

    while root.children is not None:
        best = None
        for index, m in enumerate(preorder(root)):
            if m.children is None:
                continue
            below = leaves(m)
            leaf_risk = 0.0
            for leaf in below:
                leaf_risk += risk(leaf)
            eff = (risk(m) - leaf_risk) / (len(below) - 1)
            if best is None or eff < best[0]:
                best = (eff, index, m)
        if best[0] > ccp_alpha + 1e-12:
            break
        best[2].children = None
    return root.dump()


def _dump(tree, entry=None):
    """The tree with each node's counts, from entry or its TREE_COUNTS entry."""
    counts = iter((entry or TREE_COUNTS[tree])[1])

    def walk(node):
        pos, neg = next(counts)
        if node.is_leaf:
            return (node.likelihood, pos, neg)
        return (node.likelihood, pos, neg, node.rule, node.true_weight,
                node.false_weight, walk(node.true_child), walk(node.false_child))

    dumped = walk(tree)
    assert next(counts, None) is None
    return dumped


def test_prune_equals_in_place_reference(fixture_datasets):
    for pair, samples in sorted(fixture_datasets.items()):
        rows = [s.features.imputed() for s in samples]
        tree = fit_tree(rows, [s.label for s in samples], TrainConfig(alpha=1.0))
        for ccp in (1e-4, 1e-3, 3e-3, 1e-2, 0.05):
            pruned = prune(tree, ccp)
            assert _dump(pruned) == reference_prune(tree, ccp), (pair, ccp)
            assert TREE_COUNTS[pruned].class_weights == TREE_COUNTS[tree].class_weights
            # a pruned tree prunes again, as a fitted one does
            assert _dump(prune(pruned, 3 * ccp)) == reference_prune(pruned, 3 * ccp)


@settings(max_examples=40, deadline=None)
@given(tree_cases(), st.sampled_from([1e-3, 1e-2, 0.05, 0.2]))
def test_prune_equals_in_place_reference_on_random_trees(case, ccp):
    tree = fit_tree(*case)
    assert _dump(prune(tree, ccp)) == reference_prune(tree, ccp)


def test_prune_effective_alpha_hand_case():
    # 6 separable samples, alpha 1: both class weights are 2, the root holds
    # 1 bit of weighted entropy and the pure leaves none, so the stump's
    # effective alpha is exactly (1.0 - 0.0) / (2 - 1) = 1.0
    desk = desk_asset("desk_separable")
    tree = fit_tree(desk["rows"], desk["labels"], TrainConfig(alpha=1.0))
    assert TREE_COUNTS[tree].class_weights == (2.0, 2.0)
    assert not prune(tree, 0.9).is_leaf
    assert prune(tree, 1.0).is_leaf


def test_prune_requires_training_bookkeeping():
    loaded = TreeNode(likelihood=0.5)
    assert prune(loaded, 0.5).is_leaf
    desk = desk_asset("desk_separable")
    tree = fit_tree(desk["rows"], desk["labels"], TrainConfig(alpha=1.0))
    # counts belong to the fitted root object: a copy of it has none
    for stripped in (dataclasses.replace(tree), copy.copy(tree), pickle.loads(pickle.dumps(tree))):
        with pytest.raises(ModelError, match="lacks training counts"):
            prune(stripped, 0.5)
    with pytest.raises(ModelError):
        prune(tree, -1.0)


def test_prune_rejects_non_finite_ccp_alpha():
    rows = [{"speed": float(i)} for i in range(40)]
    tree = fit_tree(rows, [i < 20 for i in range(40)], TrainConfig(max_depth=1))
    assert tree.depth() == 1
    for ccp in (math.nan, math.inf):
        with pytest.raises(ModelError, match="ccp_alpha must be finite and non-negative"):
            prune(tree, ccp)


def test_dropped_tree_frees_its_counts():
    desk = desk_asset("desk_separable")
    gc.disable()
    try:
        before = len(TREE_COUNTS)
        tree = fit_tree(desk["rows"], desk["labels"], TrainConfig(alpha=1.0))
        pruned = prune(tree, 0.5)
        assert len(TREE_COUNTS) == before + 2
        refs = [weakref.ref(tree), weakref.ref(pruned)]
        del tree, pruned
        # freed by reference counting alone: the table holds no node
        assert [r() for r in refs] == [None, None]
        assert len(TREE_COUNTS) == before
    finally:
        gc.enable()



def test_fit_tree_leaves_no_reference_cycle():
    # grow is a closure that calls itself; kept alive after fit_tree
    # returned, it would hold the columns until the cyclic collector ran
    rng = np.random.default_rng(0)
    rows = [{"speed": float(v), "acceleration": float(a)} for v, a in rng.normal(size=(200, 2))]
    labels = [row["speed"] + row["acceleration"] > 0 for row in rows]
    gc.collect()
    gc.disable()
    try:
        assert fit_tree(rows, labels, TrainConfig(max_depth=3)).depth() == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- priors ------------------------------------------------------------------------


def test_estimate_priors_counts_distinct_vehicles():
    a, b = ("G_a", ST), ("G_b", TL)
    datasets = {
        a: [sample(f"v{i}", a, True, frame=f) for i in range(9) for f in (0, 1)],
        b: [sample("w0", b, True), sample("v0", b, False)],
    }
    priors, floor = estimate_priors(datasets, alpha=1.0)
    assert priors[a] == (9 + 1) / 12
    assert priors[b] == (1 + 1) / 12
    assert floor == 1 / 12
    assert math.isclose(sum(priors.values()) + 0 * floor, 1.0)


def test_estimate_priors_validation():
    with pytest.raises(ModelError):
        estimate_priors({}, alpha=1.0)
    with pytest.raises(ModelError):
        estimate_priors({("G_a", ST): []}, alpha=-1.0)
    with pytest.raises(ModelError):
        estimate_priors({("G_a", ST): [sample("v", ("G_a", ST), False)]}, alpha=0.0)


# -- validation loss ----------------------------------------------------------------


def leaf_model(priors, floor=0.0):
    trees = {pair: TreeNode(likelihood=0.5) for pair in priors}
    return GoalModel(trees=dict(trees), priors=dict(priors), prior_floor=floor)


def test_validation_loss_hand_arithmetic():
    a, b = ("G_a", ST), ("G_b", TL)
    model = leaf_model({a: 0.8, b: 0.2})
    val = {
        a: [sample("v0", a, False, frame=0), sample("v1", a, True, frame=1)],
        b: [sample("v0", b, True, frame=0), sample("v1", b, False, frame=1)],
    }
    # frame v0: p(true) = 0.2, frame v1: p(true) = 0.8
    expected = (-math.log(0.2) - math.log(0.8)) / 2.0
    assert validation_loss(model, val) == pytest.approx(expected, abs=1e-12)


def test_validation_loss_clamps_zero_probability():
    a, b = ("G_a", ST), ("G_b", TL)
    model = leaf_model({a: 1.0, b: 0.0})
    val = {b: [sample("v0", b, True)], a: [sample("v0", a, False)]}
    assert validation_loss(model, val) == pytest.approx(-math.log(1e-12))


def test_validation_loss_uses_half_likelihood_for_missing_trees():
    a, b = ("G_a", ST), ("G_b", TL)
    model = leaf_model({a: 0.5, b: 0.5})
    del model.trees[b]
    val = {a: [sample("v0", a, False)], b: [sample("v0", b, True)]}
    assert validation_loss(model, val) == pytest.approx(-math.log(0.5))


def test_validation_loss_scores_all_zero_priors_like_infer(fixture_world, fixture_datasets,
                                                          fixture_model):
    scenario, episodes = fixture_world
    groups = {}
    for pair, samples in fixture_datasets.items():
        for s in samples:
            groups.setdefault((s.episode_index, s.agent_id, s.frame_index), []).append(
                (pair, s)
            )
    (ep, vehicle, frame), group = next(
        (key, group) for key, group in sorted(groups.items()) if len(group) >= 2
    )
    # floor 0 and no candidate in the priors: every likelihood x prior is 0,
    # so the scoped priors fall back to uniform exactly as in infer
    model = GoalModel(
        trees=fixture_model.trees, priors={("G_nowhere", ST): 1.0}, prior_floor=0.0
    )
    assert all(model.prior_for(pair) == 0.0 for pair, _ in group)
    true_goal = next(s.goal_id for _, s in group if s.label)
    post = infer(history_for(episodes[ep], vehicle, frame), vehicle, scenario, model)
    assert len(post.entries) == len(group)
    expected = -math.log(post.probability_of(true_goal))
    loss = validation_loss(model, {pair: [s] for pair, s in group})
    assert loss == pytest.approx(expected, rel=1e-12)


def test_validation_loss_needs_positive_decisions():
    a = ("G_a", ST)
    model = leaf_model({a: 1.0})
    with pytest.raises(ModelError):
        validation_loss(model, {a: [sample("v0", a, False)]})


# -- end-to-end and grid search -------------------------------------------------------


def test_train_model_fits_all_pairs(fixture_datasets, fixture_model):
    assert set(fixture_model.trees) == set(fixture_datasets)
    assert set(fixture_model.priors) == set(fixture_datasets)
    fixture_model.validate()
    with pytest.raises(ModelError):
        train_model({})


def test_grid_configs_order_and_empty_axis():
    assert [(c.alpha, c.ccp_alpha) for c in grid_configs((1.0, 10.0), (0.0, 0.01))] == [
        (10.0, 0.01), (10.0, 0.0), (1.0, 0.01), (1.0, 0.0)
    ]
    assert grid_configs((1.0,), (0.001,)) == [TrainConfig(alpha=1.0, ccp_alpha=0.001)]
    with pytest.raises(ModelError):
        grid_configs((), (0.0,))
    with pytest.raises(ModelError):
        grid_configs((1.0,), ())


def test_grid_search_matches_independent_recompute(fixture_datasets, test_episodes,
                                                   fixture_scenario):
    from grit.trajectory import build_datasets

    val = build_datasets(test_episodes[:4], fixture_scenario)
    alphas = (0.1, 1.0)
    ccps = (0.0, 0.001)
    result = grid_search(fixture_datasets, val, grid_configs(alphas, ccps))
    assert len(result.results) == 4

    expected_order = [
        (alpha, ccp)
        for alpha in sorted(alphas, reverse=True)
        for ccp in sorted(ccps, reverse=True)
    ]
    assert [(r.config.alpha, r.config.ccp_alpha) for r in result.results] == (
        expected_order
    )
    for r in result.results:
        model = train_model(fixture_datasets, r.config)
        assert validation_loss(model, val) == pytest.approx(r.loss, abs=1e-12)
    best_loss = min(r.loss for r in result.results)
    first_best = next(r.config for r in result.results if r.loss == best_loss)
    assert result.best_config == first_best
    assert validation_loss(train_model(fixture_datasets, result.best_config), val) == (
        pytest.approx(best_loss, abs=1e-12)
    )

    again = grid_search(fixture_datasets, val, grid_configs(alphas, ccps))
    assert again.best_config == result.best_config
    assert [r.loss for r in again.results] == [r.loss for r in result.results]
