#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks, on every workload:
- every metric named in BENCHMARK.json is emitted with its unit, end-to-end
  metrics without tracing and per-layer metrics with it;
- outputs nudged by one ulp (or one box) fail the golden digest check;
- the tracer counts every call of every wrapped function, compared with
  counts from ``sys.setprofile`` on the original code objects;
- count-type layer metrics repeat exactly across two traced runs;
- uninstalling the tracer restores every alias it rebound;
- ``fresh()`` hands each pass a world of its own, equal to the first.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

from run import OUT_DIR, ROOT, import_grit, run_traced, run_untraced

SEED = 5


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
    print(f"ok: {message}")


def make(name, golden):
    from workloads import TINY, WORKLOADS

    return WORKLOADS[name](SEED, TINY, OUT_DIR / "selftest" / name, golden)


def recorded_golden(name) -> dict:
    wl = make(name, None)
    wl.setup()
    wl.run_pass()
    return wl.recorded


def check_metric_names(name, golden, spec) -> None:
    e2e = run_untraced(make(name, golden), 0.0)
    check(e2e["failed"] == 0 and e2e["attempted"] > 0, f"{name}: tiny run matches its digests")
    layer = run_traced(make(name, golden), OUT_DIR / "selftest" / f"spans-{name}.npz")
    check(layer["failed"] == 0, f"{name}: traced run matches its digests")
    for kind, result in (("end_to_end", e2e), ("per_layer", layer)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: u for k, (_v, u) in result["metrics"].items()}
        check(got == want, f"{name}: emits every {kind} metric with its unit")
        values = [v for v, _u in result["metrics"].values()]
        check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
              f"{name}: {kind} values are finite numbers")


def check_perturbation(name, golden, target, attr, nudge) -> None:
    """Replace target.attr by a version whose first output is nudged."""
    original = getattr(target, attr)
    state = {"done": False}

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        if not state["done"]:
            state["done"] = True
            result = nudge(result)
        return result

    setattr(target, attr, perturbed)
    try:
        out = run_untraced(make(name, golden), 0.0)
    finally:
        setattr(target, attr, original)
    check(state["done"] and out["failed"] > 0, f"{name}: a nudged output fails the digest check")


def nudge_posterior(post):
    first = post.entries[0]
    bumped = dataclasses.replace(first, probability=math.nextafter(first.probability, 2.0))
    return dataclasses.replace(post, entries=[bumped] + post.entries[1:])


def nudge_model(model, path):
    from grit import tree

    pair = sorted(model.priors)[0]
    priors = dict(model.priors)
    priors[pair] = math.nextafter(priors[pair], 2.0)
    tree.save_model(dataclasses.replace(model, priors=priors), path)


def check_tracer_counts(name, golden) -> None:
    """Wrapper counts equal profiler counts of the original functions."""
    import spans

    wl = make(name, golden)
    tracer = spans.Tracer()
    tracer.install()
    names = {}
    for module, attr in spans.TRACED:
        mod = sys.modules[f"grit.{module}"]
        obj = mod
        for part in attr.split("."):
            obj = getattr(obj, part)
        names[obj.__wrapped__.__code__] = spans.span_name(module, attr)
    profiled = {n: 0 for n in names.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            profiled[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        wl.setup()
        wl.run_pass()
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    calls, _self_s, _rooted = tracer.summary()
    check(calls == profiled, f"{name}: tracer counts every call, aliases and methods included")
    check(calls["geometry.project"] > 0, f"{name}: tracer saw project calls")
    for module, attr in spans.TRACED:
        obj = sys.modules[f"grit.{module}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        if hasattr(obj, "__wrapped__"):
            raise CheckFailed(f"{module}.{attr} still wrapped after uninstall")
    check(True, f"{name}: uninstall restores every rebound alias")


def check_fresh(name, golden) -> None:
    """Each pass gets new world objects, and they give the same outputs."""
    wl = make(name, golden)
    wl.setup()
    before = wl.world
    wl.fresh()
    if before is not None:
        check(wl.world is not before and all(a is not b for a, b in zip(wl.world, before)),
              f"{name}: fresh() hands the pass new world objects")
    out = wl.run_pass()
    check(out.failed == 0, f"{name}: a pass on a fresh world matches its digests")


def count_metrics(result) -> dict:
    return {k: v for k, (v, u) in result["metrics"].items() if u in ("count", "bytes")}


def main() -> int:
    import_grit()
    from grit import cli, inference

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    goldens = {name: recorded_golden(name) for name in ("pipeline", "track", "verify")}
    try:
        for name, golden in goldens.items():
            check_metric_names(name, golden, spec)
        check_perturbation("track", goldens["track"], inference, "infer", nudge_posterior)
        check_perturbation(
            "verify", goldens["verify"], sys.modules["grit.verification"], "verify",
            lambda r: dataclasses.replace(r, boxes_checked=r.boxes_checked + 1),
        )
        original_save = cli.save_model
        cli.save_model = nudge_model
        try:
            out = run_untraced(make("pipeline", goldens["pipeline"]), 0.0)
        finally:
            cli.save_model = original_save
        check(out["failed"] == 1, "pipeline: a model nudged by one ulp fails the digest check")
        for name, golden in goldens.items():
            check_tracer_counts(name, golden)
            check_fresh(name, golden)
        for name in goldens:
            a = run_traced(make(name, goldens[name]), OUT_DIR / "selftest" / "a.npz")
            b = run_traced(make(name, goldens[name]), OUT_DIR / "selftest" / "b.npz")
            check(count_metrics(a) == count_metrics(b), f"{name}: layer counts repeat exactly")
    except CheckFailed as exc:
        print(f"FAILED: {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
