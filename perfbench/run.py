#!/usr/bin/env python3
"""grit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {pipeline,track,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports grit from ``src/``. With
``--trace 0`` it sets up the workload several times (``setup_s`` is their
median), then repeats whole passes of the timed work, each on a fresh copy
of the world, until ``--seconds`` have passed (and at least three passes
have run). Every operation so runs several times spread over the run. Each
timing is taken at the reference clock (``reference.py``), an operation's
latency is the median of its runs, and the end-to-end metrics summarise
those. With ``--trace 1`` it runs one pass untraced and one traced, and
reports per-layer calls and self time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller report,
including the machine context, goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from reference import REFERENCE_S, reference_s

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def import_grit() -> None:
    """Put the checkout's ``src`` first on the path, or stop the run."""
    src = ROOT / "src"
    if not (src / "grit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grit package under {src}")
    sys.path.insert(0, str(src))


def machine_context() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "reference_s_at_start": reference_s(),
    }


def nearest_rank(ordered: List[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def latency_summary(latencies: List[float]) -> Optional[dict]:
    """Median, p99 and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if not n:
        return None
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            tail = p
            break
    return {
        "samples": n,
        "p50_ms": nearest_rank(ordered, 50.0) * 1e3,
        "p99_ms": nearest_rank(ordered, 99.0) * 1e3,
        "tail_percentile": tail,
        "tail_ms": None if tail is None else nearest_rank(ordered, tail) * 1e3,
        "ops_per_s": n / sum(ordered),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden(workload: str) -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text()).get(workload, {})
    except (OSError, ValueError):
        return {}


# -- end-to-end run ----------------------------------------------------------------


def run_untraced(wl, seconds: float) -> dict:
    """Set up, then time whole passes until ``seconds`` and ``min_passes``.

    The shared machine switches between a fast and a slow state, in spells
    that can outlast a run (see ``reference``). Every timing is therefore
    taken at the reference clock: the wall time of each setup, and of each
    chunk of a pass, is scaled by ``REFERENCE_S`` over the mean of the
    reference timings just before and just after it. An operation's latency
    is the median of its scaled runs. Each pass runs on a fresh world
    (``Workload.fresh``), so that no run of an operation finds it answered
    by a cache an earlier run of it filled.
    """
    setups, setups_wall = [], []
    for _ in range(wl.sizes.setup_reps):
        before = reference_s()
        t0 = time.perf_counter()
        wl.setup()
        wall = time.perf_counter() - t0
        setups_wall.append(wall)
        setups.append(wall * REFERENCE_S / ((before + reference_s()) / 2.0))
    runs: Dict[object, List[float]] = {}
    wall_runs: Dict[object, List[float]] = {}
    attempted = failed = 0
    details: List[dict] = []
    pass_s: List[float] = []
    scales: List[float] = []
    chunks = wl.chunks()
    while len(pass_s) < wl.sizes.min_passes or sum(pass_s) < seconds:
        wl.fresh()
        pass_s.append(0.0)
        op_scaled: Dict[object, float] = {}  # an operation may span chunks
        op_wall: Dict[object, float] = {}
        detail: dict = {}
        before = reference_s()
        for chunk in chunks:
            t0 = time.perf_counter()
            result = wl.run_pass(chunk)
            pass_s[-1] += time.perf_counter() - t0
            after = reference_s()
            scale = REFERENCE_S / ((before + after) / 2.0)
            before = after
            scales.append(scale)
            attempted += result.attempted
            failed += result.failed
            for key, latency in result.latencies.items():
                op_scaled[key] = op_scaled.get(key, 0.0) + latency * scale
                op_wall[key] = op_wall.get(key, 0.0) + latency
            detail.update(result.detail)
        for key in op_scaled:
            runs.setdefault(key, []).append(op_scaled[key])
            wall_runs.setdefault(key, []).append(op_wall[key])
        if detail:
            details.append(detail)
    summary = latency_summary([statistics.median(r) for r in runs.values()])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if summary is not None:
        metrics["p50_ms"] = (summary["p50_ms"], "ms")
        metrics["p99_ms"] = (summary["p99_ms"], "ms")
        metrics["ops_per_s"] = (summary["ops_per_s"], "1/s")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "setup_runs_s": setups,
            "setup_runs_wall_s": setups_wall,
            "pass_wall_s": pass_s,
            "chunk_scale": scales,
            "latency": summary,
            "latency_wall": latency_summary(
                [statistics.median(r) for r in wall_runs.values()]),
            "pass_details": details,
        },
    }


# -- traced run ----------------------------------------------------------------------


class LayerCounts:
    """Counts taken at the traced boundaries, beyond calls and self time."""

    def __init__(self) -> None:
        self.poses: set = set()
        self.nearest_calls = 0
        self.nearest_repeats = 0
        self.states_copied = 0
        self.samples = 0
        self.boxes_checked = 0
        self.verified_boxes = 0
        self.verified_box_product = 0
        self.smt_bytes = 0

    def _nearest(self, args, kwargs, result) -> None:
        pose = tuple(args[:3]) if len(args) >= 3 else (kwargs["x"], kwargs["y"], kwargs["heading"])
        self.nearest_calls += 1
        if pose in self.poses:
            self.nearest_repeats += 1
        else:
            self.poses.add(pose)

    def _history(self, args, kwargs, result) -> None:
        self.states_copied += sum(len(t) for t in result.trajectories.values())

    def _build(self, args, kwargs, result) -> None:
        self.samples += sum(len(b) for b in result.values())

    def _verify(self, args, kwargs, result) -> None:
        self.boxes_checked += result.boxes_checked
        if result.verified:
            model, prop = args[0], args[1]
            product = 1
            for pair in prop.scope:
                tree = model.trees.get(pair)
                product *= 1 if tree is None else tree.leaf_count()
            self.verified_boxes += result.boxes_checked
            self.verified_box_product += product

    def _smt(self, args, kwargs, result) -> None:
        self.smt_bytes += len(result.encode())

    def observers(self) -> dict:
        return {
            "scenario.nearest_lane": self._nearest,
            "trajectory.history_for": self._history,
            "trajectory.build_datasets": self._build,
            "verification.verify": self._verify,
            "verification.export_smtlib": self._smt,
        }

    def metrics(self) -> Dict[str, tuple]:
        return {
            "scenario.nearest_lane.repeat_share": (
                self.nearest_repeats / self.nearest_calls if self.nearest_calls else 0.0, "share"),
            "trajectory.history_for.states_copied": (self.states_copied, "count"),
            "trajectory.build_datasets.samples": (self.samples, "count"),
            "verification.boxes_checked": (self.boxes_checked, "count"),
            "verification.box_feasible_share": (
                self.verified_boxes / self.verified_box_product
                if self.verified_box_product else 0.0, "share"),
            "verification.smt_bytes": (self.smt_bytes, "bytes"),
        }


def run_traced(wl, trace_path: Path) -> dict:
    """One traced setup, then one pass in chunks, each chunk run untraced and
    traced back to back (alternating which goes first) so that the overhead
    estimate is not swamped by the shared machine's changing speed."""
    from spans import Tracer, traced_names

    tracer = Tracer()
    counts = LayerCounts()
    observers = counts.observers()
    tracer.install(observers)
    t0 = time.perf_counter()
    try:
        wl.setup()
    finally:
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()
    # The untraced and the traced pass each keep a world of their own.
    worlds = {}
    for traced in (False, True):
        wl.fresh()
        worlds[traced] = wl.world
    walls = {False: 0.0, True: 0.0}  # pass time, untraced and traced
    attempted = failed = 0
    for i, chunk in enumerate(wl.chunks()):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            wl.world = worlds[traced]
            if traced:
                tracer.install(observers)
            t0 = time.perf_counter()
            try:
                result = wl.run_pass(chunk)
            finally:
                walls[traced] += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            attempted += result.attempted
            failed += result.failed
    traced_wall += walls[True]
    calls, self_s, rooted = tracer.summary()
    tracer.write(trace_path)

    metrics: Dict[str, tuple] = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics.update(counts.metrics())
    metrics["trace.unattributed_share"] = (1.0 - rooted / traced_wall, "share")
    metrics["trace.overhead_share"] = (walls[True] / walls[False] - 1.0, "share")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "untraced_pass_s": walls[False],
            "traced_pass_s": walls[True],
            "traced_wall_s": traced_wall,
            "spans": len(tracer),
            "trace_file": str(trace_path.relative_to(ROOT)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "track", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_grit()
    context = machine_context()
    from workloads import FULL, WORKLOADS

    workdir = OUT_DIR / "work" / args.workload
    wl = WORKLOADS[args.workload](args.seed, FULL, workdir, load_golden(args.workload))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = run_traced(wl, OUT_DIR / f"spans-{args.workload}.npz")
    else:
        result = run_untraced(wl, args.seconds)

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "inputs": wl.inputs(),
        **result["report"],
        "result": line,
    }
    context["reference_s_at_end"] = reference_s()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print("context: " + json.dumps(context))
    if result["report"].get("latency"):
        print("latency: " + json.dumps(result["report"]["latency"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
