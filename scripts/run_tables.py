#!/usr/bin/env python3
"""Reproduce the fringe-amplitude and tile-area tables at desk scale.

Writes table1.csv, table2.csv (and the convention-discrepancy report when
the tile areas sit outside 15% of the reference values) into --outdir, then
prints both tables.
"""

import argparse
import sys
from pathlib import Path

from morsecontrol.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out_tables")
    parser.add_argument("--nx", type=int, default=2048)
    args = parser.parse_args()

    common = ["--outdir", args.outdir, "--set", f"nx={args.nx}"]
    for command in ("table1", "table2"):
        code = cli_main([command] + common)
        if code != 0:
            return code

    for name in ("table1.csv", "table2.csv", "table2_convention_report.csv"):
        path = Path(args.outdir) / name
        if not path.exists():
            continue
        print(f"--- {name} ---")
        for line in path.read_text().splitlines():
            if not line.startswith("#"):
                print(line)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
