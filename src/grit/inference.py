"""Bayesian goal posteriors from reachability, priors, and tree likelihoods."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from .errors import TrajectoryError, _cut
from .features import candidates
from .scenario import GoalType, Scenario, reachable_goals
from .trajectory import Episode
from .tree import GoalModel, PairKey

STATUS_OK = "ok"
STATUS_NO_GOALS = "no_reachable_goals"


def posterior(likelihoods: Sequence[float], priors: Sequence[float]) -> List[float]:
    """Normalize likelihood times prior over the candidate set.

    A degenerate all-zero score vector falls back to the uniform
    distribution so downstream consumers always see probabilities.
    """
    if len(likelihoods) != len(priors):
        raise ValueError("likelihoods and priors must align")
    n = len(likelihoods)
    if n == 0:
        return []
    scores = [l * p for l, p in zip(likelihoods, priors)]
    total = sum(scores)
    if total <= 0.0:
        return [1.0 / n] * n
    return [s / total for s in scores]


def normalized_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy scaled to [0, 1] by the log of the support size."""
    n = len(probs)
    if n <= 1:
        return 0.0
    h = 0.0
    for p in probs:
        if p > 0.0:
            h -= p * math.log(p)
    return max(0.0, h / math.log(n))


def goal_sums(goal_ids: Sequence[str], probs: Sequence[float]) -> Dict[str, float]:
    """Total probability per goal, summed in the order the pairs are given."""
    out: Dict[str, float] = {}
    for gid, p in zip(goal_ids, probs):
        out[gid] = out.get(gid, 0.0) + p
    return out


@dataclass(frozen=True)
class GoalEstimate:
    goal_id: str
    goal_type: GoalType
    likelihood: float
    prior: float
    probability: float

    def to_dict(self) -> dict:
        return {
            "goal_id": self.goal_id,
            "goal_type": self.goal_type.value,
            "likelihood": self.likelihood,
            "prior": self.prior,
            "probability": self.probability,
        }


@dataclass
class GoalPosterior:
    status: str
    entries: List[GoalEstimate] = field(default_factory=list)

    @property
    def p_goal(self) -> Dict[str, float]:
        return goal_sums(
            [e.goal_id for e in self.entries], [e.probability for e in self.entries]
        )

    @property
    def argmax_goal(self) -> Optional[str]:
        """Most probable goal; None when empty or tied at the top."""
        by_goal = self.p_goal
        if not by_goal:
            return None
        best = max(by_goal.values())
        winners = [g for g, p in by_goal.items() if p == best]
        if len(winners) != 1:
            return None
        return winners[0]

    @property
    def entropy(self) -> float:
        return normalized_entropy(list(self.p_goal.values()))

    def probability_of(self, goal_id: str) -> float:
        return self.p_goal.get(goal_id, 0.0)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "entries": [e.to_dict() for e in self.entries],
            "p_goal": self.p_goal,
            "argmax_goal": self.argmax_goal,
            "normalized_entropy": self.entropy,
        }


def scoped_priors(model: GoalModel, scope: Sequence[PairKey]) -> List[float]:
    """Model priors of the pairs in scope, renormalized to sum to one.

    An all-zero scope falls back to uniform; an empty scope gives [].
    """
    raw = [model.prior_for(pair) for pair in scope]
    return posterior([1.0] * len(raw), raw)  # 1.0 * p == p for every finite p


def _lap(timings: Optional[Dict[str, float]], stage: str, t0: float) -> float:
    """Add the time since t0 to timings[stage]; return the new start time."""
    t1 = time.perf_counter()
    if timings is not None:
        timings[stage] = timings.get(stage, 0.0) + (t1 - t0)
    return t1


def _infer(
    history: Episode,
    vehicle_id: str,
    scenario: Scenario,
    model: GoalModel,
    timings: Optional[Dict[str, float]] = None,
) -> GoalPosterior:
    """Body of infer and infer_no_dt."""
    if vehicle_id not in history.trajectories:
        raise TrajectoryError(f"unknown vehicle '{_cut(vehicle_id)}'")
    state = history.trajectories[vehicle_id][-1]

    t0 = time.perf_counter()
    routes = reachable_goals(state, scenario)
    t0 = _lap(timings, "goal_generation", t0)
    if not routes:
        return GoalPosterior(status=STATUS_NO_GOALS)

    scored = candidates(history, vehicle_id, routes, scenario, model.trees)
    t0 = _lap(timings, "features", t0)

    pairs = [pair for pair, _ in scored]
    likelihoods = [
        model.likelihood(pair, {} if feats is None else feats.imputed())
        for pair, feats in scored
    ]
    t0 = _lap(timings, "traversal", t0)

    priors = scoped_priors(model, pairs)
    probs = posterior(likelihoods, priors)
    entries = sorted(
        (
            GoalEstimate(gid, gtype, like, prior, prob)
            for (gid, gtype), like, prior, prob in zip(pairs, likelihoods, priors, probs)
        ),
        key=lambda e: (e.goal_id, e.goal_type.value),
    )
    _lap(timings, "posterior", t0)
    return GoalPosterior(status=STATUS_OK, entries=entries)


def infer(
    history: Episode,
    vehicle_id: str,
    scenario: Scenario,
    model: GoalModel,
    timings: Optional[Dict[str, float]] = None,
) -> GoalPosterior:
    """Posterior over (goal, goal type) pairs for one vehicle at its last frame.

    The history must already be truncated at the decision point. Pairs
    without a trained tree score the uninformed likelihood 0.5; pairs
    without a prior receive the model's floor. Pass a dict as timings to
    accumulate per-stage wall-clock seconds (goal_generation, features,
    traversal, posterior).
    """
    return _infer(history, vehicle_id, scenario, model, timings)


def infer_no_dt(
    history: Episode,
    vehicle_id: str,
    scenario: Scenario,
    model: GoalModel,
) -> GoalPosterior:
    """Reachability-plus-priors baseline: inference with every tree removed,
    so each candidate scores the uninformed likelihood 0.5."""
    return _infer(history, vehicle_id, scenario, replace(model, trees={}))
