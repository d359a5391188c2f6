"""Span tracer that wraps grit's public functions from outside the package.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent). Spans live in flat arrays while the run
lasts and are written out once at the end. A span's self time is its
duration minus the durations of its direct children; the program is single
threaded, so children always nest inside their parent.

Wrapping rebinds the function object itself wherever a ``grit`` module holds
it under any name, because modules import these functions by name
(``from .scenario import nearest_lane``): patching only the defining module
would miss every call made through such an alias and undercount.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# (module, attribute) for functions, (module, "Class.method") for methods.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("geometry", "Polyline.project"),
    ("scenario", "nearest_lane"),
    ("scenario", "reachable_goals"),
    ("scenario", "Scenario.goal_anchor"),
    ("scenario", "assign_goal_type"),
    ("trajectory", "history_for"),
    ("trajectory", "load_trajectories"),
    ("trajectory", "build_datasets"),
    ("features", "extract_all"),
    ("features", "vehicle_in_front"),
    ("features", "oncoming_vehicle"),
    ("features", "angle_in_lane"),
    ("tree", "traverse"),
    ("training", "fit_tree"),
    ("training", "prune"),
    ("training", "validation_loss"),
    ("training", "grid_search"),
    ("training", "train_model"),
    ("inference", "infer"),
    ("inference", "infer_no_dt"),
    ("inference", "posterior"),
    ("verification", "verify"),
    ("verification", "enumerate_paths"),
    ("verification", "export_smtlib"),
    ("evaluation", "generate_synthetic"),
    ("evaluation", "evaluate"),
    ("evaluation", "benchmark"),
    ("cli", "cmd_train"),
    ("cli", "cmd_eval"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function: ``geometry.project`` and so on."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


# observer(args, kwargs, result) runs after the span has closed
Observer = Callable[[tuple, dict, object], None]


class Tracer:
    """Records spans for the wrapped functions between install and uninstall.

    Install and uninstall may alternate; spans accumulate across them.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self, observers: Optional[Dict[str, Observer]] = None) -> None:
        """Wrap every function in TRACED and rebind all of its aliases."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        observers = observers or {}
        for module, _attr in TRACED:
            importlib.import_module(f"grit.{module}")
        grit_modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "grit" or n.startswith("grit."))
        ]
        for module, attr in TRACED:
            name = span_name(module, attr)
            mod = sys.modules[f"grit.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, observers.get(name)))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, observers.get(name))
            for m in grit_modules:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, alias, original))
                        setattr(m, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> Tuple[Dict[str, int], Dict[str, float], float]:
        """Calls and self seconds per span name, and seconds under root spans."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        rooted = float(dur[~has_parent].sum())
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            rooted,
        )

    def write(self, path: Path) -> None:
        """Write every span as parallel arrays (``numpy.load`` reads them)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def traced_names() -> Sequence[str]:
    return [span_name(m, a) for m, a in TRACED]
