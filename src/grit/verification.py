"""Exhaustive verification of posterior properties with counterexamples.

The posterior depends on the features only through which leaf each tree
routes them to, so the feature space factors into finitely many boxes (one
per combination of leaves across the trees in scope). Checking the claimed
property on every feasible box is therefore a complete decision procedure;
a failing box yields a concrete witness assignment. The same semantics can
be exported as an SMT-LIB problem whose unsatisfiability certifies the
property with exact rational arithmetic.

Trees are immutable, so what is derived from one is built once per tree
object and kept while the tree lives (weak keys): its leaf boxes, each with
the restrictions its path narrows, and its SMT-LIB fragment. Entries are
keyed by the (goal, goal type) pair and a snapshot of the metadata parts
they read (per-goal and boolean features, domains), so a changed metadata
gets fresh artifacts. ``_rat`` keeps a bounded memo of rendered constants.
The search merges only the narrowed restrictions into its environment.
That is exact: the environment starts at the full feature domains and only
shrinks, and intersecting a domain with the full domain it was cut from
returns an equal domain whose bounds are the environment's own; so
feasibility, the boxes checked and every witness are unchanged.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar, Union

from .errors import ModelError, PropositionError, json_bool, json_number, read_json
from .features import FEATURE_NAMES, DEFAULT_METADATA, FeatureMetadata
from .inference import goal_sums, posterior, scoped_priors
from .scenario import GoalType
from .tree import GoalModel, PairKey, TreeNode

EPS_OPEN = 1e-6

_INF = math.inf

Value = Union[float, bool]


@dataclass(frozen=True)
class Interval:
    """Connected set of reals with independently open or closed endpoints."""

    lo: float = -_INF
    hi: float = _INF
    lo_open: bool = False
    hi_open: bool = False

    def feasible(self) -> bool:
        if self.lo < self.hi:
            return True
        return self.lo == self.hi and not self.lo_open and not self.hi_open

    def contains(self, x: float) -> bool:
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        if x > self.hi or (x == self.hi and self.hi_open):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        elif other.lo < self.lo:
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        elif other.hi > self.hi:
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def witness(self) -> float:
        """Any contained point, preferring interior values away from bounds."""
        if not self.feasible():
            raise PropositionError("cannot pick a witness from an empty interval")
        if self.lo == -_INF and self.hi == _INF:
            return 0.0
        if self.lo == -_INF:
            return self.hi - 1.0 if self.hi_open else self.hi
        if self.hi == _INF:
            return self.lo + 1.0 if self.lo_open else self.lo
        if self.lo == self.hi:
            return self.lo
        mid = 0.5 * (self.lo + self.hi)
        for cand in (
            mid,
            self.lo,
            self.hi,
            self.lo + EPS_OPEN * (self.hi - self.lo),
            self.hi - EPS_OPEN * (self.hi - self.lo),
        ):
            if self.contains(cand):
                return cand
        raise PropositionError("no representable witness in interval")


Domain = Union[Interval, frozenset]
FULL_BOOL: frozenset = frozenset((False, True))


def _merge(a: Domain, b: Domain) -> Domain:
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.intersect(b)
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return a & b
    raise PropositionError("mixed boolean and numeric constraints on one feature")


def _domain_feasible(d: Domain) -> bool:
    if isinstance(d, Interval):
        return d.feasible()
    return bool(d)


def _domain_witness(d: Domain) -> Value:
    if isinstance(d, Interval):
        return d.witness()
    if not d:
        raise PropositionError("cannot pick a witness from an empty set")
    return True in d


def feature_domain(feature: str, metadata: FeatureMetadata) -> Domain:
    if feature in metadata.boolean:
        return FULL_BOOL
    lo, hi, hi_open = metadata.domains.get(feature, (None, None, False))
    return Interval(
        -_INF if lo is None else lo,
        _INF if hi is None else hi,
        False,
        hi_open,
    )


def var_key(pair: PairKey, feature: str, metadata: FeatureMetadata) -> str:
    """Per-goal features get one variable per pair; the rest are shared."""
    if feature in metadata.per_goal:
        return f"{pair[0]}:{pair[1].value}:{feature}"
    return feature


# -- leaf boxes -----------------------------------------------------------------


@dataclass(frozen=True)
class PathBox:
    """Feature region routed to one leaf, with that leaf's likelihood."""

    constraints: Mapping[str, Domain]
    likelihood: float
    leaf_index: int


def enumerate_paths(
    tree: Optional[TreeNode], pair: PairKey, metadata: FeatureMetadata
) -> List[PathBox]:
    """All feasible root-to-leaf boxes, true branch first.

    Boxes start from the full feature domains, so together they partition
    the domain product. A missing tree yields the single uninformed box.
    """
    base: Dict[str, Domain] = {
        var_key(pair, f, metadata): feature_domain(f, metadata)
        for f in FEATURE_NAMES
    }
    if tree is None:
        return [PathBox(dict(base), 0.5, 0)]
    boxes: List[PathBox] = []

    def rec(node: TreeNode, cons: Dict[str, Domain]) -> None:
        if node.is_leaf:
            boxes.append(PathBox(dict(cons), node.likelihood, len(boxes)))
            return
        key = var_key(pair, node.rule.feature, metadata)
        if node.rule.kind == "boolean":
            branches = (
                (frozenset((True,)), node.true_child),
                (frozenset((False,)), node.false_child),
            )
        else:
            thr = node.rule.threshold
            branches = (
                (Interval(hi=thr, hi_open=True), node.true_child),
                (Interval(lo=thr), node.false_child),
            )
        for restriction, child in branches:
            merged = _merge(cons[key], restriction)
            if not _domain_feasible(merged):
                continue
            child_cons = dict(cons)
            child_cons[key] = merged
            rec(child, child_cons)

    rec(tree, base)
    return boxes


# -- compiled trees ------------------------------------------------------------------

# Narrowed restrictions of one leaf box: (variable key, domain) for each key
# whose domain differs from the full feature domain.
_Narrowed = Tuple[Tuple[str, Domain], ...]
_Artifact = TypeVar("_Artifact")
# What is built from each tree: tree -> {(builder, pair, metadata key): artifact}
_COMPILED: "weakref.WeakKeyDictionary[TreeNode, dict]" = weakref.WeakKeyDictionary()


def _metadata_key(metadata: FeatureMetadata) -> tuple:
    """Hashable snapshot of the metadata parts the tree artifacts read.

    Snapshots compare with ==, so bounds 0.0 and -0.0 (or 1 and 1.0) share
    an entry. That is exact: cached boxes read these bounds only through
    comparisons, and a witness takes each metadata bound from the search
    environment, never from a cached box."""
    return (
        tuple(metadata.per_goal),
        tuple(metadata.boolean),
        tuple((name, lo, hi, hi_open) for name, (lo, hi, hi_open) in metadata.domains.items()),
    )


def _compiled(
    build: Callable[[Optional[TreeNode], PairKey, FeatureMetadata], _Artifact],
    tree: Optional[TreeNode],
    pair: PairKey,
    metadata: FeatureMetadata,
    metadata_key: tuple,
) -> _Artifact:
    """build(tree, pair, metadata), built once per tree object and key;
    a missing tree (None) is built on every call."""
    if tree is None:
        return build(None, pair, metadata)
    per_tree = _COMPILED.get(tree)
    if per_tree is None:
        per_tree = _COMPILED[tree] = {}
    key = (build, pair, metadata_key)
    found = per_tree.get(key)
    if found is None:
        try:
            found = per_tree[key] = build(tree, pair, metadata)
        except RecursionError as exc:
            raise ModelError(
                f"tree {pair[0]}:{pair[1].value} is nested too deeply"
            ) from exc
    return found


def _narrowed_boxes(
    tree: Optional[TreeNode], pair: PairKey, metadata: FeatureMetadata
) -> List[Tuple[PathBox, _Narrowed]]:
    """enumerate_paths' boxes, each with the restrictions its path narrows."""
    full = {var_key(pair, f, metadata): feature_domain(f, metadata) for f in FEATURE_NAMES}
    return [
        (box, tuple((k, d) for k, d in box.constraints.items() if d != full[k]))
        for box in enumerate_paths(tree, pair, metadata)
    ]


# -- propositions ----------------------------------------------------------------

_SCALAR_OPS = ("<", "<=", ">", ">=", "=")

CONSEQUENT_KINDS = ("argmax_is", "prob_greater", "prob_at_least")


@dataclass(frozen=True)
class Atom:
    """One antecedent constraint on a feature variable."""

    feature: str
    op: str
    value: Value
    pair: Optional[PairKey] = None

    def to_interval(self) -> Interval:
        v = float(self.value)
        if self.op == "<":
            return Interval(hi=v, hi_open=True)
        if self.op == "<=":
            return Interval(hi=v)
        if self.op == ">":
            return Interval(lo=v, lo_open=True)
        if self.op == ">=":
            return Interval(lo=v)
        return Interval(lo=v, hi=v)

    def render(self) -> str:
        where = f"{self.pair[0]}:{self.pair[1].value}." if self.pair else ""
        return f"{where}{self.feature} {self.op} {self.value}"


@dataclass(frozen=True)
class Consequent:
    kind: str
    goal: str
    other: Optional[str] = None
    threshold: Optional[float] = None

    def render(self) -> str:
        if self.kind == "argmax_is":
            return f"argmax P = {self.goal}"
        if self.kind == "prob_greater":
            return f"P({self.goal}) > P({self.other})"
        return f"P({self.goal}) >= {self.threshold:g}"


@dataclass(frozen=True)
class Proposition:
    name: str
    scope: Tuple[PairKey, ...]
    antecedent: Tuple[Atom, ...]
    consequent: Consequent
    description: str = ""

    def goals(self) -> List[str]:
        seen: List[str] = []
        for gid, _ in self.scope:
            if gid not in seen:
                seen.append(gid)
        return seen

    def render(self) -> str:
        if self.antecedent:
            ante = " and ".join(a.render() for a in self.antecedent)
            return f"{ante} => {self.consequent.render()}"
        return self.consequent.render()


def _parse_pair(raw: object, where: str) -> PairKey:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise PropositionError(f"{where}: pair must be [goal_id, goal_type]")
    gid, type_name = raw
    try:
        return str(gid), GoalType(str(type_name))
    except ValueError as exc:
        raise PropositionError(f"{where}: unknown goal type '{type_name}'") from exc


def proposition_from_dict(
    raw: dict, metadata: FeatureMetadata = DEFAULT_METADATA
) -> Proposition:
    if not isinstance(raw, dict):
        raise PropositionError("proposition must be an object")
    name = str(raw.get("name", "")).strip()
    if not name:
        raise PropositionError("proposition needs a name")
    scope_raw = raw.get("scope")
    if not isinstance(scope_raw, list) or not scope_raw:
        raise PropositionError(f"{name}: scope must be a non-empty list of pairs")
    scope = tuple(_parse_pair(p, f"{name}: scope") for p in scope_raw)
    if len(set(scope)) != len(scope):
        raise PropositionError(f"{name}: scope contains duplicate pairs")
    goals = {gid for gid, _ in scope}

    antecedent = raw.get("antecedent", [])
    if not isinstance(antecedent, list):
        raise PropositionError(f"{name}: antecedent must be a list of atoms")
    atoms: List[Atom] = []
    for i, doc in enumerate(antecedent):
        where = f"{name}: antecedent[{i}]"
        if not isinstance(doc, dict):
            raise PropositionError(f"{where}: must be an object")
        feature = str(doc.get("feature", ""))
        if feature not in FEATURE_NAMES:
            raise PropositionError(f"{where}: unknown feature '{feature}'")
        op = str(doc.get("op", ""))
        value = doc.get("value")
        pair: Optional[PairKey] = None
        if feature in metadata.per_goal:
            if "pair" not in doc:
                raise PropositionError(
                    f"{where}: per-goal feature '{feature}' needs a pair"
                )
            pair = _parse_pair(doc["pair"], where)
            if pair not in scope:
                raise PropositionError(f"{where}: pair not in scope")
        elif "pair" in doc and doc["pair"] is not None:
            raise PropositionError(
                f"{where}: shared feature '{feature}' cannot name a pair"
            )
        if feature in metadata.boolean:
            if op != "=":
                raise PropositionError(f"{where}: boolean feature needs op '='")
            value = json_bool(value, PropositionError, f"{where}: value")
        else:
            if op not in _SCALAR_OPS:
                raise PropositionError(f"{where}: unknown op '{op}'")
            value = float(json_number(value, PropositionError, f"{where}: value"))
        atoms.append(Atom(feature, op, value, pair))

    cons_raw = raw.get("consequent")
    if not isinstance(cons_raw, dict):
        raise PropositionError(f"{name}: consequent must be an object")
    kind = str(cons_raw.get("kind", ""))
    if kind not in CONSEQUENT_KINDS:
        raise PropositionError(f"{name}: unknown consequent kind '{kind}'")
    goal = str(cons_raw.get("goal", ""))
    if goal not in goals:
        raise PropositionError(f"{name}: consequent goal '{goal}' not in scope")
    other: Optional[str] = None
    threshold: Optional[float] = None
    if kind == "prob_greater":
        other = str(cons_raw.get("than", ""))
        if other not in goals or other == goal:
            raise PropositionError(
                f"{name}: prob_greater needs a distinct in-scope goal to compare"
            )
    elif kind == "prob_at_least":
        threshold = cons_raw.get("threshold")
        threshold = float(json_number(threshold, PropositionError, f"{name}: threshold"))
        if not (0.0 <= threshold <= 1.0):
            raise PropositionError(f"{name}: threshold must lie in [0, 1]")
    return Proposition(
        name=name,
        scope=scope,
        antecedent=tuple(atoms),
        consequent=Consequent(kind, goal, other, threshold),
        description=str(raw.get("description", "")),
    )


def load_proposition(
    path: str | Path, metadata: FeatureMetadata = DEFAULT_METADATA
) -> Proposition:
    return proposition_from_dict(read_json(path, PropositionError, "proposition"), metadata)


def proposition_to_dict(prop: Proposition) -> dict:
    doc: dict = {
        "name": prop.name,
        "scope": [[gid, gtype.value] for gid, gtype in prop.scope],
        "antecedent": [],
        "consequent": {"kind": prop.consequent.kind, "goal": prop.consequent.goal},
    }
    if prop.description:
        doc["description"] = prop.description
    for atom in prop.antecedent:
        a: dict = {"feature": atom.feature, "op": atom.op, "value": atom.value}
        if atom.pair is not None:
            a["pair"] = [atom.pair[0], atom.pair[1].value]
        doc["antecedent"].append(a)
    if prop.consequent.kind == "prob_greater":
        doc["consequent"]["than"] = prop.consequent.other
    elif prop.consequent.kind == "prob_at_least":
        doc["consequent"]["threshold"] = prop.consequent.threshold
    return doc


# -- the decision procedure --------------------------------------------------------


@dataclass
class Counterexample:
    assignment: Dict[str, Value]
    features: Dict[PairKey, Dict[str, Value]]
    likelihoods: Dict[PairKey, float]
    priors: Dict[PairKey, float]
    posterior: Dict[PairKey, float]
    p_goal: Dict[str, float]
    leaf_indices: Dict[PairKey, int]
    reason: str

    def to_dict(self) -> dict:
        def by_pair(table: Mapping[PairKey, object]) -> dict:
            return {f"{gid}:{gtype.value}": v for (gid, gtype), v in table.items()}

        return {
            "assignment": dict(self.assignment),
            "features": by_pair({p: dict(f) for p, f in self.features.items()}),
            "likelihoods": by_pair(self.likelihoods),
            "priors": by_pair(self.priors),
            "posterior": by_pair(self.posterior),
            "p_goal": dict(self.p_goal),
            "leaf_indices": by_pair(self.leaf_indices),
            "reason": self.reason,
        }


@dataclass
class VerificationResult:
    proposition: Proposition
    verified: bool
    counterexample: Optional[Counterexample] = None
    boxes_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "proposition": proposition_to_dict(self.proposition),
            "verified": self.verified,
            "boxes_checked": self.boxes_checked,
            "counterexample": (
                self.counterexample.to_dict() if self.counterexample else None
            ),
        }


def _violation(
    consequent: Consequent, p_goal: Mapping[str, float]
) -> Optional[str]:
    """Reason string when the posterior breaks the consequent, else None."""
    if consequent.kind == "argmax_is":
        target = p_goal[consequent.goal]
        for gid, p in p_goal.items():
            if gid != consequent.goal and p >= target:
                return (
                    f"P({gid}) = {p:.6g} >= P({consequent.goal}) = {target:.6g}"
                )
        return None
    if consequent.kind == "prob_greater":
        pg = p_goal[consequent.goal]
        po = p_goal[consequent.other]
        if pg <= po:
            return f"P({consequent.goal}) = {pg:.6g} <= P({consequent.other}) = {po:.6g}"
        return None
    pg = p_goal[consequent.goal]
    if pg < consequent.threshold:
        return f"P({consequent.goal}) = {pg:.6g} < {consequent.threshold:g}"
    return None


def verify(model: GoalModel, prop: Proposition) -> VerificationResult:
    """Decide the proposition over the whole constrained feature space.

    Enumerates the product of leaf boxes across the trees in scope,
    pruning on shared features as it goes, and evaluates the posterior
    once per feasible combination. Returns the first violating box in
    (scope order, leaf order) as a replayed counterexample, or a
    verification over all boxes.
    """
    metadata = model.metadata
    scope = list(prop.scope)
    scope_goals = [gid for gid, _ in scope]
    priors = scoped_priors(model, scope)

    env: Dict[str, Domain] = {}
    for pair in scope:
        for f in FEATURE_NAMES:
            key = var_key(pair, f, metadata)
            if key not in env:
                env[key] = feature_domain(f, metadata)
    for atom in prop.antecedent:
        anchor = atom.pair if atom.pair is not None else scope[0]
        key = var_key(anchor, atom.feature, metadata)
        if atom.feature in metadata.boolean:
            restriction: Domain = frozenset((bool(atom.value),))
        else:
            restriction = atom.to_interval()
        env[key] = _merge(env[key], restriction)
        if not _domain_feasible(env[key]):
            return VerificationResult(prop, verified=True, boxes_checked=0)

    metadata_key = _metadata_key(metadata)
    boxes = [
        _compiled(_narrowed_boxes, model.trees.get(pair), pair, metadata, metadata_key)
        for pair in scope
    ]
    # Boxes merge only the keys they narrow, so an empty feature domain that
    # no box touches must stop the search here, as merging it would have.
    if not all(_domain_feasible(d) for d in env.values()):
        return VerificationResult(prop, verified=True, boxes_checked=0)
    checked = 0
    found: Optional[Tuple[List[PathBox], Dict[str, Domain], str, List[float]]] = None

    def recurse(i: int, cur: Dict[str, Domain], chosen: List[PathBox]) -> bool:
        nonlocal checked, found
        if i == len(scope):
            checked += 1
            likelihoods = [b.likelihood for b in chosen]
            probs = posterior(likelihoods, priors)
            reason = _violation(prop.consequent, goal_sums(scope_goals, probs))
            if reason is not None:
                found = (list(chosen), dict(cur), reason, probs)
                return True
            return False
        for box, narrowed in boxes[i]:
            nxt = dict(cur)
            for key, restriction in narrowed:
                merged = _merge(nxt[key], restriction)
                if not _domain_feasible(merged):
                    break
                nxt[key] = merged
            else:
                chosen.append(box)
                if recurse(i + 1, nxt, chosen):
                    return True
                chosen.pop()
        return False

    if recurse(0, env, []):
        assert found is not None
        chosen, final_env, reason, probs = found
        assignment = {key: _domain_witness(d) for key, d in sorted(final_env.items())}
        features: Dict[PairKey, Dict[str, Value]] = {}
        likelihoods: Dict[PairKey, float] = {}
        leaf_indices: Dict[PairKey, int] = {}
        for pair, box in zip(scope, chosen):
            features[pair] = {
                f: assignment[var_key(pair, f, metadata)] for f in FEATURE_NAMES
            }
            likelihoods[pair] = box.likelihood
            leaf_indices[pair] = box.leaf_index
        _replay(model, scope, features, likelihoods, priors, probs)
        ce = Counterexample(
            assignment=assignment,
            features=features,
            likelihoods=likelihoods,
            priors={pair: pr for pair, pr in zip(scope, priors)},
            posterior={pair: p for pair, p in zip(scope, probs)},
            p_goal=goal_sums(scope_goals, probs),
            leaf_indices=leaf_indices,
            reason=reason,
        )
        return VerificationResult(prop, verified=False, counterexample=ce, boxes_checked=checked)
    return VerificationResult(prop, verified=True, boxes_checked=checked)


def _replay(
    model: GoalModel,
    scope: Sequence[PairKey],
    features: Mapping[PairKey, Mapping[str, Value]],
    likelihoods: Mapping[PairKey, float],
    priors: Sequence[float],
    probs: Sequence[float],
) -> None:
    """Route the witness back through the model; must match bit for bit."""
    replayed: List[float] = []
    for pair in scope:
        like = model.likelihood(pair, features[pair])
        replayed.append(like)
        if like != likelihoods[pair]:
            raise PropositionError(
                f"witness replay diverged on {pair[0]}:{pair[1].value}"
            )
    if posterior(replayed, list(priors)) != list(probs):
        raise PropositionError("witness replay produced a different posterior")


# -- SMT-LIB export -----------------------------------------------------------------


@lru_cache(maxsize=4096)
def _rat(x: float) -> str:
    frac = Fraction(x)
    num, den = frac.numerator, frac.denominator
    if den == 1:
        return f"{num}.0" if num >= 0 else f"(- {-num}.0)"
    if num >= 0:
        return f"(/ {num}.0 {den}.0)"
    return f"(- (/ {-num}.0 {den}.0))"


def _smt_sym(name: str) -> str:
    return name.replace(":", ".")


def _smt_tree(tree: Optional[TreeNode], pair: PairKey, metadata: FeatureMetadata) -> str:
    """The tree's node Booleans and leaf likelihoods as SMT-LIB lines."""
    gid, gtype = pair
    pair_sym = _smt_sym(f"{gid}:{gtype.value}")
    lines = [f"; tree {gid}:{gtype.value}"]
    if tree is None:
        lines.append(f"(assert (= L.{pair_sym} {_rat(0.5)}))")
        return "\n".join(lines)
    node_syms: List[str] = []

    def declare(node: TreeNode) -> int:
        idx = len(node_syms)
        node_syms.append(f"{pair_sym}.n{idx}")
        lines.append(f"(declare-const {node_syms[idx]} Bool)")
        if not node.is_leaf:
            t = declare(node.true_child)
            f_idx = declare(node.false_child)
            rule = node.rule
            key = _smt_sym(var_key(pair, rule.feature, metadata))
            if rule.kind == "boolean":
                cond = key
            else:
                cond = f"(< {key} {_rat(rule.threshold)})"
            lines.append(
                f"(assert (= {node_syms[t]} (and {node_syms[idx]} {cond})))"
            )
            lines.append(
                f"(assert (= {node_syms[f_idx]} "
                f"(and {node_syms[idx]} (not {cond}))))"
            )
        else:
            lines.append(
                f"(assert (=> {node_syms[idx]} "
                f"(= L.{pair_sym} {_rat(node.likelihood)})))"
            )
        return idx

    declare(tree)
    lines.append(f"(assert {node_syms[0]})")
    return "\n".join(lines)


def export_smtlib(model: GoalModel, prop: Proposition) -> str:
    """Encode the negated proposition as a QF_LRA satisfiability problem.

    All constants are exact rationals taken from the model floats, so an
    unsat answer from any SMT solver certifies the proposition and a model
    is a counterexample assignment. Goal scores are kept in the
    unnormalized product form (likelihood times prior) to stay linear;
    probability thresholds compare against the explicit total.
    """
    metadata = model.metadata
    scope = list(prop.scope)
    priors = scoped_priors(model, scope)
    lines: List[str] = [
        "(set-logic QF_LRA)",
        f"; proposition: {prop.name}",
        f"; claim: {prop.render()}",
    ]

    declared: Set[str] = set()
    for pair in scope:
        for f in FEATURE_NAMES:
            key = var_key(pair, f, metadata)
            if key in declared:
                continue
            declared.add(key)
            sym = _smt_sym(key)
            if f in metadata.boolean:
                lines.append(f"(declare-const {sym} Bool)")
                continue
            lines.append(f"(declare-const {sym} Real)")
            lo, hi, hi_open = metadata.domains.get(f, (None, None, False))
            if lo is not None:
                lines.append(f"(assert (>= {sym} {_rat(lo)}))")
            if hi is not None:
                op = "<" if hi_open else "<="
                lines.append(f"(assert ({op} {sym} {_rat(hi)}))")

    for gid, gtype in scope:
        pair_sym = _smt_sym(f"{gid}:{gtype.value}")
        lines.append(f"(declare-const L.{pair_sym} Real)")

    metadata_key = _metadata_key(metadata)
    for pair in scope:
        lines.append(_compiled(_smt_tree, model.trees.get(pair), pair, metadata, metadata_key))

    lines.append("; antecedent")
    for atom in prop.antecedent:
        anchor = atom.pair if atom.pair is not None else scope[0]
        sym = _smt_sym(var_key(anchor, atom.feature, metadata))
        if atom.feature in metadata.boolean:
            lines.append(f"(assert {sym})" if atom.value else f"(assert (not {sym}))")
            continue
        op = "=" if atom.op == "=" else atom.op
        lines.append(f"(assert ({op} {sym} {_rat(float(atom.value))}))")

    lines.append("; unnormalized goal scores")
    terms_by_goal: Dict[str, List[str]] = {}
    for (gid, gtype), prior in zip(scope, priors):
        pair_sym = _smt_sym(f"{gid}:{gtype.value}")
        terms_by_goal.setdefault(gid, []).append(f"(* L.{pair_sym} {_rat(prior)})")
    for gid in prop.goals():
        terms = terms_by_goal[gid]
        expr = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
        lines.append(f"(declare-const S.{_smt_sym(gid)} Real)")
        lines.append(f"(assert (= S.{_smt_sym(gid)} {expr}))")

    cons = prop.consequent
    goal_sym = f"S.{_smt_sym(cons.goal)}"
    lines.append("; negated consequent")
    if cons.kind == "argmax_is":
        others = [g for g in prop.goals() if g != cons.goal]
        parts = [f"(>= S.{_smt_sym(g)} {goal_sym})" for g in others]
        if not parts:
            body = "false"
        elif len(parts) == 1:
            body = parts[0]
        else:
            body = "(or " + " ".join(parts) + ")"
        lines.append(f"(assert {body})")
    elif cons.kind == "prob_greater":
        lines.append(f"(assert (<= {goal_sym} S.{_smt_sym(cons.other)}))")
    else:
        total_terms = [f"S.{_smt_sym(g)}" for g in prop.goals()]
        total = (
            total_terms[0]
            if len(total_terms) == 1
            else "(+ " + " ".join(total_terms) + ")"
        )
        lines.append(
            f"(assert (< {goal_sym} (* {_rat(cons.threshold)} {total})))"
        )
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"
