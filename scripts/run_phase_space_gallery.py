#!/usr/bin/env python3
"""Phase-space snapshot gallery: the cat, compass and eight-fold states.

Computes the Wigner distribution of the phase-locked packet at the six
(theta, time) points that span the structure zoo, writes one .wgrd grid per
snapshot and prints a summary line with the lobe counts and tile metrics.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from morsecontrol import (
    I2,
    WavePacketModel,
    characteristic_times,
    lobe_count,
    split_even_odd,
    su2_coefficients,
    tile_area,
    wigner_transform,
)
from morsecontrol.gridfile import GridFile, write_grid

SNAPSHOTS = [
    ("cat_t0", math.pi / 4, 0.0),
    ("compass_T8", math.pi / 2, 0.125),
    ("diagonal_compass_T16", 0.0, 0.0625),
    ("plain_compass_T16", math.pi, 0.0625),
    ("eightfold_T16_quarter", math.pi / 4, 0.0625),
    ("eightfold_T16_half", math.pi / 2, 0.0625),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out_gallery")
    parser.add_argument("--nx", type=int, default=2048)
    parser.add_argument("--np", type=int, default=512)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    model = WavePacketModel(I2, split_even_odd(su2_coefficients(2.0, 23)),
                            np.linspace(-0.25, 0.45, args.nx))
    _, t_rev = characteristic_times(I2)

    print(f"{'snapshot':28s} {'theta':>8s} {'t/T_rev':>8s} {'lobes':>5s} "
          f"{'min W':>9s} {'tile area':>9s}")
    for name, theta, frac in SNAPSHOTS:
        state = model.phase_locked(theta, frac * t_rev)
        w = wigner_transform(state)
        lobes = lobe_count(w)
        area = tile_area(state)
        write_grid(outdir / f"{name}.wgrd", GridFile(
            axes=(w.x, w.p), payload=w.values,
            meta={
                "theta": repr(theta), "t_frac": repr(frac),
                "lobe_count": str(lobes), "tile_area": repr(area),
                "wigner_prefactor": "1/pi",
            },
        ))
        print(f"{name:28s} {theta / math.pi:7.3f}p {frac:8.4f} {lobes:5d} "
              f"{w.values.min():9.4f} {area:9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
