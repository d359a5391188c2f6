#!/usr/bin/env python3
"""Check that quoting every CSV field leaves `grit train`'s model unchanged.

Synthesizes the walkthrough's fixture (t_junction, 60 vehicles, seed 7 by
default) with `grit synth`, writes a copy of each episode CSV with every
field quoted, and trains on both sets with `grit train`. The loader parses
plain files column by column and sends any file holding a quote through
csv.reader, so the two runs take different parsing paths. Exits 1 unless
both model JSON files are byte-identical.

    PYTHONPATH=src python scripts/check_quoted_csvs.py --vehicles 60
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

from grit.cli import main as grit


def quote_all(src: Path, dst: Path) -> None:
    with src.open(newline="") as fin, dst.open("w", newline="") as fout:
        csv.writer(fout, quoting=csv.QUOTE_ALL).writerows(csv.reader(fin))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vehicles", type=int, default=60)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        plain, quoted = root / "plain", root / "quoted"
        code = grit(["synth", "--template", "t_junction", "--vehicles", str(args.vehicles),
                     "--seed", str(args.seed), "--out-dir", str(plain)])
        if code != 0:
            return code
        quoted.mkdir()
        for path in plain.glob("episode_*.csv"):
            quote_all(path, quoted / path.name)
        models = {}
        for folder in (plain, quoted):
            model = root / f"model_{folder.name}.json"
            csvs = sorted(map(str, folder.glob("episode_*.csv")))
            code = grit(["train", "--scenario", str(plain / "scenario.json"),
                         "--trajectories", *csvs, "--out", str(model)])
            if code != 0:
                return code
            models[folder.name] = model.read_bytes()
        if models["plain"] != models["quoted"]:
            print("quoted CSVs trained a different model", file=sys.stderr)
            return 1
        print(f"quoted and plain CSVs train byte-identical models "
              f"({len(models['plain'])} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
