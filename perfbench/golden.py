#!/usr/bin/env python3
"""Record the golden digests of every benchmark input into golden.json.

    python3 perfbench/golden.py

Run it from the repository root on a commit whose outputs are the
reference. It runs the pipeline once per order of its training CSVs,
every frame of the held-out track episodes and the whole proposition pool,
so it takes a few minutes. A change that alters any output must not rewrite this file.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN_PATH, OUT_DIR, import_grit


def main() -> int:
    import_grit()
    from workloads import FULL, Pipeline, Track, Verify

    golden = {}
    recorded = {}
    rotations = Pipeline(0, FULL, OUT_DIR, None).rotations
    for seed in range(rotations):
        wl = Pipeline(seed, FULL, OUT_DIR / "work" / "golden", None)
        wl.setup()
        wl.run_pass()
        recorded.update(wl.recorded)
    golden["pipeline"] = recorded
    track = Track(0, FULL, OUT_DIR, None)
    track.setup()
    track.record_all()
    golden["track"] = track.recorded
    verify = Verify(0, FULL, OUT_DIR, None)
    verify.setup()
    verify.run_pass(list(range(len(verify.props))))
    golden["verify"] = verify.recorded
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    for name, table in golden.items():
        print(f"{name}: {len(table)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
