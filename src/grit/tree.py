"""Decision trees whose nodes carry goal likelihoods.

Each node stores the likelihood of the true goal given that the sample
reaches the node, computed from class-weighted counts so the root is always
exactly 0.5. Edges carry the ratio of child to parent likelihood; the leaf
likelihood therefore equals 0.5 times the product of edge weights along the
path, which is what an explanation renders.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import GritError, ModelError, _cut, _shown, json_number, read_json
from .features import BOOLEAN_FEATURES, DEFAULT_METADATA, FEATURE_NAMES, FeatureMetadata
from .scenario import GoalType

MODEL_FORMAT = "grit-model"
MODEL_VERSION = 1

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class DecisionRule:
    """Binary test on one feature.

    Threshold rules take the true branch when value < threshold (stored in
    the canonical "threshold greater than value" direction); boolean rules
    take the true branch when the feature is set.
    """

    feature: str
    kind: str  # "threshold" | "boolean"
    threshold: Optional[float] = None
    # kind == "boolean", resolved once so traversal compares no strings
    is_boolean: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("threshold", "boolean"):
            raise ModelError(f"unknown rule kind '{self.kind}'")
        object.__setattr__(self, "is_boolean", self.kind == "boolean")
        if self.kind == "threshold":
            if self.threshold is None or not math.isfinite(self.threshold):
                raise ModelError("threshold rule needs a finite threshold")
            if self.feature in BOOLEAN_FEATURES:
                raise ModelError(
                    f"threshold rule on boolean feature '{self.feature}'"
                )
        else:
            if self.feature not in BOOLEAN_FEATURES:
                raise ModelError(
                    f"boolean rule only applies to boolean features, "
                    f"got '{self.feature}'"
                )
        if self.feature not in FEATURE_NAMES:
            raise ModelError(f"rule references unknown feature '{self.feature}'")

    def test(self, x: Mapping[str, Union[float, bool]]) -> bool:
        value = x[self.feature]
        if self.is_boolean:
            return bool(value)
        return float(value) < self.threshold  # type: ignore[operator]

    def render(self, branch: bool) -> str:
        if self.kind == "boolean":
            return self.feature if branch else f"not {self.feature}"
        if branch:
            return f"{self.feature} < {self.threshold:g}"
        return f"{self.feature} >= {self.threshold:g}"


@dataclass(frozen=True, eq=False)
class TreeNode:
    """One node of a likelihood tree; a leaf when it has no rule.

    Nodes are immutable and compare and hash by identity, so a tree object
    can key tables of what is derived from it: grit.verification's compiled
    artifacts, and grit.training's sample counts per node. A node holds
    only what a model file holds.
    """

    likelihood: float
    rule: Optional[DecisionRule] = None
    true_child: Optional["TreeNode"] = None
    false_child: Optional["TreeNode"] = None
    true_weight: Optional[float] = None
    false_weight: Optional[float] = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.true_child.depth(), self.false_child.depth())

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.true_child.node_count() + self.false_child.node_count()

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.true_child.leaf_count() + self.false_child.leaf_count()


def node_likelihood(
    n_node_pos: float,
    n_node_neg: float,
    n_pos: float,
    n_neg: float,
    alpha: float,
    parent_likelihood: float = 0.5,
) -> float:
    """Class-weighted likelihood of the true goal at a node.

    Counts are dataset positives/negatives (n_pos, n_neg) and node
    positives/negatives; additive smoothing adds alpha to all four before
    the class weights are formed. Evaluated as a/(a+b) with
    a = (n_node_pos+alpha)(n_neg+alpha) and b = (n_node_neg+alpha)(n_pos+alpha),
    which is the same rational and rounds once, so integer-count cases are
    exact and the root (node counts equal dataset counts) is exactly 0.5.

    With alpha = 0 an empty node inherits parent_likelihood; a node in a
    single-class dataset scores 1 (or 0) outright.
    """
    for v in (n_node_pos, n_node_neg, n_pos, n_neg):
        if v < 0:
            raise ModelError("negative count")
    if alpha < 0:
        raise ModelError("negative smoothing")
    a = (n_node_pos + alpha) * (n_neg + alpha)
    b = (n_node_neg + alpha) * (n_pos + alpha)
    total = a + b
    if total == 0.0:
        if (n_node_pos + alpha) > 0 and (n_neg + alpha) == 0:
            return 1.0
        if (n_node_neg + alpha) > 0 and (n_pos + alpha) == 0:
            return 0.0
        return parent_likelihood
    return a / total


def edge_weights(
    parent_likelihood: float, true_likelihood: float, false_likelihood: float
) -> Tuple[float, float]:
    """Ratios of child to parent likelihood for both branches."""
    if parent_likelihood <= 0.0:
        raise ModelError("edge weights need a positive parent likelihood")
    return true_likelihood / parent_likelihood, false_likelihood / parent_likelihood


def traverse(
    node: TreeNode, x: Mapping[str, Union[float, bool]]
) -> Tuple[float, List[Tuple[TreeNode, Optional[bool]]]]:
    """Route an imputed feature map to a leaf.

    Returns the leaf likelihood and the visited nodes paired with the branch
    taken at each (None at the leaf).
    """
    path: List[Tuple[TreeNode, Optional[bool]]] = []
    rule = node.rule
    while rule is not None:
        if rule.is_boolean:
            branch = bool(x[rule.feature])
        else:
            branch = float(x[rule.feature]) < rule.threshold
        path.append((node, branch))
        node = node.true_child if branch else node.false_child
        rule = node.rule
    path.append((node, None))
    return node.likelihood, path


def explain(node: TreeNode, x: Mapping[str, Union[float, bool]]) -> List[str]:
    """Human-readable branch conditions on the path x takes."""
    _, path = traverse(node, x)
    return [n.rule.render(branch) for n, branch in path[:-1]]


# -- model container -----------------------------------------------------------

PairKey = Tuple[str, GoalType]


def pair_label(pair: PairKey) -> str:
    """The pair's name, "goal_id:goal_type"."""
    return f"{pair[0]}:{pair[1].value}"


def goal_type_named(name: str, error: type[GritError], where: str = "") -> GoalType:
    """The goal type whose value is name; else error, prefixed by where."""
    try:
        return GoalType(name)
    except ValueError as exc:
        raise error(f"{where}unknown goal type {_shown(name)}") from exc


@dataclass
class GoalModel:
    """Trees and priors per (goal, goal type) pair; metadata is the
    program's feature schema, the same for every model."""

    trees: Dict[PairKey, TreeNode]
    priors: Dict[PairKey, float]
    prior_floor: float = 0.0
    metadata: ClassVar[FeatureMetadata] = DEFAULT_METADATA

    def pairs(self) -> List[PairKey]:
        return sorted(set(self.trees) | set(self.priors))

    def prior_for(self, pair: PairKey) -> float:
        return self.priors.get(pair, self.prior_floor)

    def likelihood(self, pair: PairKey, x: Mapping[str, Union[float, bool]]) -> float:
        """Leaf likelihood of the pair's tree at the imputed feature map x;
        the uninformed 0.5 when the pair has no tree (x is then not read)."""
        tree = self.trees.get(pair)
        return 0.5 if tree is None else traverse(tree, x)[0]

    def validate(self) -> None:
        if not self.trees:
            raise ModelError("model has no trees")
        if self.prior_floor < 0 or not math.isfinite(self.prior_floor):
            raise ModelError("prior floor is invalid")
        total = 0.0
        for pair, p in self.priors.items():
            if p < 0 or not math.isfinite(p):
                raise ModelError(f"prior for {_cut(pair_label(pair))} is invalid")
            total += p
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ModelError(f"priors sum to {total!r}, expected 1")
        for pair, tree in self.trees.items():
            label = _cut(pair_label(pair))
            if tree.likelihood != 0.5:
                raise ModelError(f"tree {label} root likelihood is not 0.5")
            _validate_node(tree, label, "root")

    def describe(self) -> Dict[str, Dict[str, int]]:
        return {
            pair_label(pair): {
                "depth": tree.depth(),
                "nodes": tree.node_count(),
                "leaves": tree.leaf_count(),
            }
            for pair, tree in sorted(self.trees.items())
        }


def _validate_node(node: TreeNode, tree_label: str, where: str) -> None:
    if not (0.0 <= node.likelihood <= 1.0) or not math.isfinite(node.likelihood):
        raise ModelError(f"tree {tree_label}: node {where} likelihood out of range")
    if node.is_leaf:
        if node.true_child or node.false_child:
            raise ModelError(f"tree {tree_label}: leaf {where} has children")
        return
    if node.true_child is None or node.false_child is None:
        raise ModelError(f"tree {tree_label}: internal node {where} missing a child")
    if node.true_weight is None or node.false_weight is None:
        raise ModelError(f"tree {tree_label}: internal node {where} missing weights")
    for branch, child, weight in (
        (True, node.true_child, node.true_weight),
        (False, node.false_child, node.false_weight),
    ):
        expected = node.likelihood * weight
        if not math.isfinite(weight) or abs(child.likelihood - expected) > _WEIGHT_TOL:
            raise ModelError(
                f"tree {tree_label}: node {where}.{str(branch).lower()} likelihood "
                f"{child.likelihood!r} != parent * weight = {expected!r}"
            )
        _validate_node(child, tree_label, f"{where}.{str(branch).lower()}")


# -- serialization ---------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"L": node.likelihood}
    rule = node.rule
    if rule.kind == "threshold":
        rule_doc = {"feature": rule.feature, "op": "gt", "value": rule.threshold}
    else:
        rule_doc = {"feature": rule.feature, "op": "is", "value": True}
    return {
        "rule": rule_doc,
        "L": node.likelihood,
        "w_true": node.true_weight,
        "w_false": node.false_weight,
        "true": _node_to_dict(node.true_child),
        "false": _node_to_dict(node.false_child),
    }


def _object(raw: object, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ModelError(f"{what} must be a JSON object")
    return raw


def _node_from_dict(doc: object, label: str) -> TreeNode:
    what = f"tree {label}: node"
    doc = _object(doc, what)
    likelihood = float(json_number(doc.get("L"), ModelError, f"{what} likelihood"))
    if "rule" not in doc:
        return TreeNode(likelihood=likelihood)
    rule_doc = doc["rule"]
    try:
        feature = str(rule_doc["feature"])
        op = str(rule_doc["op"])
    except (KeyError, TypeError) as exc:
        raise ModelError(f"tree {label}: malformed rule") from exc
    if op == "gt":
        threshold = json_number(rule_doc.get("value"), ModelError, f"tree {label}: rule value")
        rule = DecisionRule(feature, "threshold", float(threshold))
    elif op == "is":
        rule = DecisionRule(feature, "boolean")
    else:
        raise ModelError(f"tree {label}: unknown rule op '{_cut(op)}'")
    try:
        true_child = _node_from_dict(doc["true"], label)
        false_child = _node_from_dict(doc["false"], label)
    except KeyError as exc:
        raise ModelError(f"tree {label}: internal node missing {exc}") from exc
    return TreeNode(
        likelihood=likelihood,
        rule=rule,
        true_child=true_child,
        false_child=false_child,
        true_weight=float(json_number(doc.get("w_true"), ModelError, f"{what} w_true")),
        false_weight=float(json_number(doc.get("w_false"), ModelError, f"{what} w_false")),
    )


def _by_pair(raw: dict, group: str) -> Iterator[Tuple[PairKey, object]]:
    """(pair, value) for each entry of a {goal id: {goal type: value}} group."""
    for gid, by_type in _object(raw.get(group, {}), group).items():
        for type_name, value in _object(by_type, f"{group} of {_cut(gid)}").items():
            yield (gid, goal_type_named(type_name, ModelError)), value


def _canonical(doc: object) -> Optional[str]:
    """doc as canonical JSON, which tells true from 1 and 1 from 1.0;
    None when doc has no JSON form."""
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        return None


# A model file's features block repeats the schema; a load accepts no other.
_SCHEMA_JSON = _canonical(DEFAULT_METADATA.to_dict())


def model_to_dict(model: GoalModel) -> dict:
    trees: Dict[str, Dict[str, dict]] = {}
    for (gid, gtype), tree in sorted(model.trees.items()):
        trees.setdefault(gid, {})[gtype.value] = _node_to_dict(tree)
    priors: Dict[str, Dict[str, float]] = {}
    for (gid, gtype), p in sorted(model.priors.items()):
        priors.setdefault(gid, {})[gtype.value] = p
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "features": model.metadata.to_dict(),
        "prior_floor": model.prior_floor,
        "priors": priors,
        "trees": trees,
    }


def model_from_dict(raw: dict) -> GoalModel:
    try:
        return _model_from_dict(raw)
    except RecursionError as exc:
        raise ModelError("model is nested too deeply") from exc


def _model_from_dict(raw: dict) -> GoalModel:
    if not isinstance(raw, dict) or raw.get("format") != MODEL_FORMAT:
        raise ModelError("not a model file")
    if _canonical(raw.get("features")) != _SCHEMA_JSON:
        raise ModelError("model features block is not the program's feature schema")
    trees = {
        pair: _node_from_dict(doc, _cut(pair_label(pair))) for pair, doc in _by_pair(raw, "trees")
    }
    priors = {
        pair: float(json_number(p, ModelError, f"prior of {_cut(pair_label(pair))}"))
        for pair, p in _by_pair(raw, "priors")
    }
    floor = float(json_number(raw.get("prior_floor", 0.0), ModelError, "prior floor"))
    model = GoalModel(trees=trees, priors=priors, prior_floor=floor)
    model.validate()
    return model


def save_model(model: GoalModel, path: str | Path) -> None:
    model.validate()
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> GoalModel:
    return model_from_dict(read_json(path, ModelError, "model"))
