"""Tree growing, cost-complexity pruning, priors, and hyperparameter search.

Splits maximize class-weighted information gain, where the weights rescale
the two classes to equal total mass so trees are insensitive to the heavy
negative skew of one-vs-rest datasets. The same weights drive the pruning
risk so growing and pruning agree on what a node costs.

Model trees carry only what a model file holds. The class weights and
each node's sample counts live in TREE_COUNTS, a table this module owns,
keyed by the root of every tree fit_tree grows or prune returns.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ModelError
from .features import BOOLEAN_FEATURES, FEATURE_NAMES
from .inference import posterior, scoped_priors
from .tree import DecisionRule, GoalModel, PairKey, TreeNode, edge_weights, node_likelihood
from .trajectory import LabeledSample

_GAIN_TOL = 1e-12
_PRUNE_TOL = 1e-12
_LOSS_CLAMP = 1e-12

# (alphas, ccp_alphas) that `grit train` searches unless told otherwise
DEFAULT_GRID = ((0.1, 1.0, 10.0), (0.0, 0.001, 0.01))


class TreeCounts(NamedTuple):
    """Training bookkeeping of one tree: the (positive, negative) class
    weights and every node's (positive, negative) sample counts in preorder,
    true branch first."""

    class_weights: Tuple[float, float]
    counts: Tuple[Tuple[int, int], ...]


# holds no nodes, so an entry dies with its root
TREE_COUNTS: "weakref.WeakKeyDictionary[TreeNode, TreeCounts]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class TrainConfig:
    max_depth: int = 7
    alpha: float = 1.0
    ccp_alpha: float = 0.0
    min_samples_split: int = 2

    def __post_init__(self):
        if self.max_depth < 0:
            raise ModelError("max_depth must be non-negative")
        if not 0.0 <= self.alpha < math.inf:
            raise ModelError("alpha must be finite and non-negative")
        if not 0.0 <= self.ccp_alpha < math.inf:
            raise ModelError("ccp_alpha must be finite and non-negative")
        if self.min_samples_split < 2:
            raise ModelError("min_samples_split must be at least 2")


def _entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _rows_to_columns(
    rows: Sequence[Mapping[str, object]]
) -> Tuple[np.ndarray, List[str]]:
    """The feature table, one row per sorted feature name, and those names."""
    if not rows:
        raise ModelError("cannot fit a tree on an empty dataset")
    names = sorted(rows[0])
    key_set = set(names)
    for name in names:
        if name not in FEATURE_NAMES:
            raise ModelError(f"unknown feature '{name}'")
    columns = np.empty((len(names), len(rows)), dtype=float)
    for i, row in enumerate(rows):
        if set(row) != key_set:
            raise ModelError("all samples must share the same feature keys")
        for j, name in enumerate(names):
            value = row[name]
            if value is None:
                raise ModelError(
                    f"feature '{name}' is missing in sample {i}; impute before fitting"
                )
            columns[j, i] = float(value)
    return columns, names


def best_split(
    columns: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    w_pos: float,
    w_neg: float,
) -> Optional[Tuple[int, float, float]]:
    """(column, threshold, gain) of the best split of the rows idx, or None.

    columns holds one row per feature (features × samples), y the labels
    and idx the node's samples in ascending order. Every column of the node
    is scored in one pass: one stable argsort, one cumulative positive count
    and one gain array, with positions that are not a cut between distinct
    values set to -inf. The tie rule is fit_tree's: the lexicographically
    first feature (lowest column) keeps a tie, later columns must beat it
    by a strictly larger gain, and within a column the first maximum (the
    smallest threshold) wins. A gain that is not finite or not above
    _GAIN_TOL never splits; a NaN gain takes its column's argmax and so
    rules that column out.

    Impurity uses the class weights on raw node counts, so a pure node
    has zero entropy and never splits, regardless of smoothing.
    """
    ys = y[idx]
    pos_here = int(ys.sum())
    neg_here = idx.size - pos_here
    parent_mass = w_pos * pos_here + w_neg * neg_here
    if parent_mass <= 0:
        return None
    parent_h = _entropy_bits(w_pos * pos_here / parent_mass)
    cols = columns[:, idx]
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    is_cut = xs[:, :-1] < xs[:, 1:]
    if not is_cut.any():
        return None
    pos_l = np.cumsum(ys[order[:, :-1]], axis=1).astype(float)
    n_l = np.arange(1.0, idx.size)
    neg_l = n_l - pos_l
    pos_r = pos_here - pos_l
    neg_r = neg_here - neg_l
    m_l = w_pos * pos_l + w_neg * neg_l
    m_r = w_pos * pos_r + w_neg * neg_r
    h_l = _vec_entropy(w_pos * pos_l / m_l)
    h_r = _vec_entropy(w_pos * pos_r / m_r)
    gains = parent_h - (m_l * h_l + m_r * h_r) / parent_mass
    gains[~is_cut] = -np.inf
    best: Optional[Tuple[int, float, float]] = None
    for j, k in enumerate(gains.argmax(axis=1).tolist()):
        gain = float(gains[j, k])
        if not math.isfinite(gain) or gain <= _GAIN_TOL:
            continue
        if best is None or gain > best[2]:
            best = (j, float((xs[j, k] + xs[j, k + 1]) / 2.0), gain)
    return best


def fit_tree(
    rows: Sequence[Mapping[str, object]],
    labels: Sequence[bool],
    config: TrainConfig = TrainConfig(),
) -> TreeNode:
    """Grow a likelihood tree by recursive binary splitting.

    Rows are feature maps sharing one key set (any subset of the known
    features, possibly none); missing values must already be imputed.
    Threshold candidates are midpoints between consecutive distinct values;
    the split with the highest weighted information gain wins, ties going
    to the lexicographically first feature and then the smallest threshold.
    best_split scores all feature columns of a node together, under that
    same tie rule. Growth stops at max_depth, below min_samples_split, or
    when no split has positive gain. With alpha = 0 the data must contain
    both classes. The tree's counts go to TREE_COUNTS.
    """
    columns, names = _rows_to_columns(rows)
    y = np.asarray(labels, dtype=bool)
    if y.shape != (columns.shape[1],):
        raise ModelError("labels must match samples one to one")
    n_pos = int(y.sum())
    n_neg = int(y.size) - n_pos
    alpha = config.alpha
    if n_pos + alpha <= 0 or n_neg + alpha <= 0:
        raise ModelError(
            "training needs both classes present, or a positive alpha"
        )
    total_mass = y.size + 2.0 * alpha
    # node_likelihood multiplies smoothed counts, each below total_mass
    if not math.isfinite(total_mass * total_mass):
        raise ModelError(f"alpha {alpha:g} overflows the class weights")
    w_pos = total_mass / (n_pos + alpha)
    w_neg = total_mass / (n_neg + alpha)
    counts: List[Tuple[int, int]] = []

    def grow(idx: np.ndarray, depth: int, parent_l: float) -> TreeNode:
        pos_here = int(y[idx].sum())
        neg_here = idx.size - pos_here
        counts.append((pos_here, neg_here))
        likelihood = node_likelihood(pos_here, neg_here, n_pos, n_neg, alpha, parent_l)
        found = None
        if depth < config.max_depth and idx.size >= config.min_samples_split:
            found = best_split(columns, y, idx, w_pos, w_neg)
        if found is None:
            return TreeNode(likelihood)
        j, thr, _ = found
        name = names[j]
        if name in BOOLEAN_FEATURES:
            rule = DecisionRule(name, "boolean")
            true_mask = columns[j, idx] >= thr
        else:
            rule = DecisionRule(name, "threshold", thr)
            true_mask = columns[j, idx] < thr
        true_child = grow(idx[true_mask], depth + 1, likelihood)
        false_child = grow(idx[~true_mask], depth + 1, likelihood)
        true_weight, false_weight = edge_weights(
            likelihood, true_child.likelihood, false_child.likelihood
        )
        return TreeNode(likelihood, rule, true_child, false_child, true_weight, false_weight)

    root = grow(np.arange(y.size), 0, 0.5)
    TREE_COUNTS[root] = TreeCounts((w_pos, w_neg), tuple(counts))
    return root


def _vec_entropy(p: np.ndarray) -> np.ndarray:
    q = 1.0 - p
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    qi = q[interior]
    out[interior] = -(pi * np.log2(pi) + qi * np.log2(qi))
    return out


# -- minimal cost-complexity pruning ---------------------------------------------


def prune(root: TreeNode, ccp_alpha: float) -> TreeNode:
    """Collapse subtrees whose effective complexity parameter is at most
    ccp_alpha, weakest link first. Returns the pruned tree; the input is
    untouched, and is itself returned when ccp_alpha is 0 or it is a leaf.

    Reads the tree's entry in TREE_COUNTS and gives the pruned tree one, so
    it prunes trees fit_tree grew or prune returned, not loaded, copied or
    unpickled ones. Each round scans the nodes once in preorder; the lowest
    effective alpha wins, ties going to the earliest node.
    """
    if not 0.0 <= ccp_alpha < math.inf:
        raise ModelError("ccp_alpha must be finite and non-negative")
    if ccp_alpha == 0.0 or root.is_leaf:
        return root
    entry = TREE_COUNTS.get(root)
    if entry is None:
        raise ModelError("tree lacks training counts; prune freshly fit trees")
    (w_pos, w_neg), counts = entry
    root_mass = w_pos * counts[0][0] + w_neg * counts[0][1]
    if root_mass <= 0:
        raise ModelError("tree has no mass")
    nodes: List[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += (node.false_child, node.true_child)
    # end[i]: one past node i's subtree, so node i's false child is end[i + 1]
    end = [0] * len(nodes)
    for i in reversed(range(len(nodes))):
        end[i] = i + 1 if nodes[i].is_leaf else end[end[i + 1]]
    # the same weighted raw-count entropy the growing criterion used
    risk = []
    for pos, neg in counts:
        mass = w_pos * pos + w_neg * neg
        risk.append(0.0 if mass <= 0 else (mass / root_mass) * _entropy_bits(w_pos * pos / mass))
    # a leaf now: a leaf of the input, or an internal node collapsed so far
    cut = [node.is_leaf for node in nodes]

    def current(i: int, stop: int) -> Iterator[int]:
        """The nodes in [i, stop) that are still in the tree, in preorder."""
        while i < stop:
            yield i
            i = end[i] if cut[i] else i + 1

    while not cut[0]:
        best_eff, best = math.inf, 0
        for i in current(0, len(nodes)):
            if cut[i]:
                continue
            # the subtree's leaf risks, summed left to right
            leaf_risk, leaves = 0.0, 0
            for j in current(i, end[i]):
                if cut[j]:
                    leaf_risk += risk[j]
                    leaves += 1
            eff = (risk[i] - leaf_risk) / (leaves - 1)
            if eff < best_eff:
                best_eff, best = eff, i
        if best_eff > ccp_alpha + _PRUNE_TOL:
            break
        cut[best] = True

    kept = list(current(0, len(nodes)))
    # copies built children first, collapsed nodes made leaves
    built: Dict[int, TreeNode] = {}
    for i in reversed(kept):
        built[i] = TreeNode(nodes[i].likelihood) if cut[i] else replace(
            nodes[i], true_child=built[i + 1], false_child=built[end[i + 1]]
        )
    TREE_COUNTS[built[0]] = TreeCounts((w_pos, w_neg), tuple(counts[i] for i in kept))
    return built[0]


# -- priors ------------------------------------------------------------------------


def estimate_priors(
    datasets: Mapping[PairKey, Sequence[LabeledSample]], alpha: float = 1.0
) -> Tuple[Dict[PairKey, float], float]:
    """Smoothed vehicle-count priors over (goal, goal type) pairs.

    Each pair scores the number of distinct vehicles that actually realized
    it (at least one positively labeled sample); alpha is added everywhere
    before normalizing. Returns the prior table and the floor an unseen pair
    would receive (alpha over the same total).
    """
    if not 0.0 <= alpha < math.inf:
        raise ModelError("alpha must be finite and non-negative")
    if not datasets:
        raise ModelError("no datasets to estimate priors from")
    counts: Dict[PairKey, int] = {}
    for pair, samples in datasets.items():
        vehicles = {
            (s.episode_index, s.agent_id) for s in samples if s.label
        }
        counts[pair] = len(vehicles)
    total = sum(counts.values()) + alpha * len(counts)
    if not math.isfinite(total):
        raise ModelError(f"alpha {alpha:g} overflows the prior total")
    if total <= 0:
        raise ModelError("no positive samples to estimate priors from")
    priors = {pair: (c + alpha) / total for pair, c in counts.items()}
    return priors, alpha / total


# -- end-to-end training ------------------------------------------------------------


def train_model(
    datasets: Mapping[PairKey, Sequence[LabeledSample]],
    config: TrainConfig = TrainConfig(),
) -> GoalModel:
    """Fit one pruned tree per (goal, goal type) pair and estimate priors."""
    if not datasets:
        raise ModelError("no datasets to train on")
    trees: Dict[PairKey, TreeNode] = {}
    for pair in sorted(datasets):
        samples = datasets[pair]
        if not samples:
            continue
        rows = [s.features.imputed() for s in samples]
        tree = fit_tree(rows, [s.label for s in samples], config)
        trees[pair] = prune(tree, config.ccp_alpha)
    if not trees:
        raise ModelError("no datasets to train on")
    priors, floor = estimate_priors(datasets, config.alpha)
    model = GoalModel(trees=trees, priors=priors, prior_floor=floor)
    model.validate()
    return model


# -- hyperparameter grid ------------------------------------------------------------


@dataclass(frozen=True)
class GridResult:
    config: TrainConfig
    loss: float


@dataclass
class GridSearchResult:
    best_config: TrainConfig
    results: List[GridResult]


def _group_by_decision(
    datasets: Mapping[PairKey, Sequence[LabeledSample]]
) -> List[List[Tuple[PairKey, LabeledSample]]]:
    """Regroup per-pair samples into per-decision groups (one vehicle frame)."""
    groups: Dict[Tuple[int, str, int], List[Tuple[PairKey, LabeledSample]]] = {}
    for pair, samples in datasets.items():
        for s in samples:
            groups.setdefault((s.episode_index, s.agent_id, s.frame_index), []).append(
                (pair, s)
            )
    return [groups[k] for k in sorted(groups)]


def validation_loss(
    model: GoalModel,
    val_datasets: Mapping[PairKey, Sequence[LabeledSample]],
) -> float:
    """Mean negative log of the posterior infer gives the realized goal.

    Each decision (one vehicle frame) scores its candidate pairs with the
    scoped priors and the posterior of grit.inference; a zero probability is
    clamped so the loss stays finite.
    """
    losses: List[float] = []
    for group in _group_by_decision(val_datasets):
        if not any(s.label for _, s in group):
            continue
        pairs = [pair for pair, _ in group]
        likelihoods = [model.likelihood(pair, s.features.imputed()) for pair, s in group]
        probs = posterior(likelihoods, scoped_priors(model, pairs))
        p_true = sum(p for (_, s), p in zip(group, probs) if s.label)
        losses.append(-math.log(max(p_true, _LOSS_CLAMP)))
    if not losses:
        raise ModelError("validation set has no labeled decisions")
    return sum(losses) / len(losses)


def grid_configs(alphas: Sequence[float], ccp_alphas: Sequence[float]) -> List[TrainConfig]:
    """Every cell of the grid, from the strongest regularizer down: larger
    alpha first, and within an alpha larger ccp_alpha first."""
    if not alphas or not ccp_alphas:
        raise ModelError("grid must contain at least one value per axis")
    return [
        TrainConfig(alpha=alpha, ccp_alpha=ccp)
        for alpha in sorted(alphas, reverse=True)
        for ccp in sorted(ccp_alphas, reverse=True)
    ]


def grid_search(
    train_datasets: Mapping[PairKey, Sequence[LabeledSample]],
    val_datasets: Mapping[PairKey, Sequence[LabeledSample]],
    configs: Sequence[TrainConfig],
) -> GridSearchResult:
    """Pick smoothing and pruning strength by validation likelihood.

    Each config, a cell of grid_configs in its order, is scored by
    validation_loss: the mean negative log of the posterior infer gives the
    true goal. train_model fits the trees once per alpha, unpruned, and
    each ccp_alpha re-prunes them. Equal losses resolve to the earlier
    config, the stronger regularizer.
    """
    results: List[GridResult] = []
    unpruned: Dict[float, GoalModel] = {}
    for config in configs:
        if config.alpha not in unpruned:
            unpruned[config.alpha] = train_model(train_datasets, replace(config, ccp_alpha=0.0))
        base = unpruned[config.alpha]
        model = replace(
            base,
            trees={pair: prune(tree, config.ccp_alpha) for pair, tree in base.trees.items()},
        )
        results.append(GridResult(config, validation_loss(model, val_datasets)))
    # min keeps the first of equal losses
    best = min(results, key=lambda r: r.loss)
    return GridSearchResult(best.config, results)
