"""Bundled verification propositions and model fixtures."""

import json
from importlib import resources
from typing import List, Tuple

from .tree import GoalModel, model_from_dict
from .verification import Proposition, proposition_from_dict

SMT_PAIR_ASSETS = ("pair1", "pair2", "pair3")
DESK_ASSETS = ("desk_separable", "desk_conjunction", "desk_nonmonotone")
PROPOSITION_ASSETS = (
    "east_goal_near_argmax",
    "left_lane_turn_argmax",
    "east_lane_floor",
    "angled_turn_dominates",
    "turn_lane_dominates",
)


def asset_text(*parts: str) -> str:
    node = resources.files("grit").joinpath("data")
    for part in parts:
        node = node.joinpath(part)
    return node.read_text(encoding="utf-8")


def proposition_asset(name: str) -> Proposition:
    """Load one of the bundled propositions by name."""
    if name not in PROPOSITION_ASSETS:
        raise KeyError(
            f"no bundled proposition '{name}' (have: {', '.join(PROPOSITION_ASSETS)})"
        )
    return proposition_from_dict(
        json.loads(asset_text("propositions", f"{name}.json"))
    )


def proposition_assets() -> List[Proposition]:
    """All bundled propositions, in their documented order."""
    return [proposition_asset(name) for name in PROPOSITION_ASSETS]


def smt_pair_asset(stem: str) -> Tuple[GoalModel, Proposition]:
    """Load one bundled SMT parity fixture: (model, proposition)."""
    if stem not in SMT_PAIR_ASSETS:
        raise KeyError(f"no bundled SMT pair '{stem}' (have: {', '.join(SMT_PAIR_ASSETS)})")
    model = model_from_dict(json.loads(asset_text("smt", f"{stem}_model.json")))
    return model, proposition_from_dict(json.loads(asset_text("smt", f"{stem}_prop.json")))


def smt_pair_assets() -> List[Tuple[GoalModel, Proposition]]:
    """All bundled SMT parity fixtures, in order."""
    return [smt_pair_asset(stem) for stem in SMT_PAIR_ASSETS]


def desk_asset(name: str) -> dict:
    """Load one bundled desk-scale training fixture by name."""
    if name not in DESK_ASSETS:
        raise KeyError(f"no bundled desk fixture '{name}' (have: {', '.join(DESK_ASSETS)})")
    return json.loads(asset_text("desk", f"{name}.json"))


def desk_assets() -> List[dict]:
    """All bundled desk-scale training fixtures, in order."""
    return [desk_asset(name) for name in DESK_ASSETS]
