#!/usr/bin/env python3
"""Phase-space snapshot gallery: the cat, compass and eight-fold states.

Computes the Wigner distribution of the phase-locked packet at the six
states of ``morsecontrol.PAPER_STATES``, writes one .wgrd grid per state and
prints a summary line with the lobe counts and tile metrics. A file is
named after its state's label, spaces as underscores and other punctuation
dropped: ``compass T/8`` writes ``compass_T8.wgrd``. The grids are staged
as the CLI stages its files (``cli._Outputs``): each is written under a
temporary name, and all six move onto their names only once the last is
written, so a failed or interrupted run leaves the output directory as it
was.
"""

import argparse
import math
import re
import sys

from morsecontrol import (PAPER_STATES, RunConfig, build_model, characteristic_times,
                          lobe_count, tile_area, wigner_transform)
from morsecontrol.cli import _Outputs
from morsecontrol.config import momentum_grid, validate_config
from morsecontrol.errors import ConfigError
from morsecontrol.gridfile import GridFile, write_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out_gallery")
    parser.add_argument("--nx", type=int, default=2048)
    parser.add_argument("--np", type=int, default=512)
    args = parser.parse_args()
    out = _Outputs(args.outdir)
    try:
        cfg = validate_config(RunConfig(nx=args.nx, np=args.np))
        model = build_model(cfg)
        _, t_rev = characteristic_times(model.params)
        states = [model.phase_locked(theta, frac * t_rev) for _, theta, frac, _ in PAPER_STATES]
        grids = [momentum_grid(cfg, state) for state in states]
        names = [re.sub(r"\W", "", label.replace(" ", "_")) for label, *_ in PAPER_STATES]
        paths = [out.path(f"{name}.wgrd") for name in names]
    except ConfigError as exc:
        sys.exit(f"error: {exc}")

    print(f"{'snapshot':28s} {'theta':>8s} {'t/T_rev':>8s} {'lobes':>5s} "
          f"{'min W':>9s} {'tile area':>9s}")
    try:
        for (_, theta, frac, _), name, path, state, p in zip(PAPER_STATES, names, paths,
                                                             states, grids):
            w = wigner_transform(state, p)
            lobes = lobe_count(w)
            area = tile_area(state)
            write_grid(path, GridFile(
                axes=(w.x, w.p), payload=w.values,
                meta={
                    "theta": repr(theta), "t_frac": repr(frac),
                    "lobe_count": str(lobes), "tile_area": repr(area),
                    "wigner_prefactor": "1/pi",
                },
            ))
            print(f"{name:28s} {theta / math.pi:7.3f}p {frac:8.4f} {lobes:5d} "
                  f"{w.values.min():9.4f} {area:9.4f}")
        out.commit()
    finally:
        out.discard()
    return 0


if __name__ == "__main__":
    sys.exit(main())
