"""Set-up probe: time ``import morsecontrol`` plus one WavePacketModel build.

Run in a fresh interpreter with ``src`` on PYTHONPATH:

    python3 perfbench/probe.py NX

Prints one JSON object, ``{"setup_s": ...}``. The benchmark starts several
of these per run and reports their median as ``setup_s``; with
``-X importtime`` the same probe yields the per-module import timings.
"""

import json
import sys
import time


def build_model(mc, nx: int):
    """The default-config model (iodine, alpha=2, 24 levels) on an nx-point grid."""
    import numpy as np

    cfg = mc.RunConfig(nx=nx)
    params = mc.MorseParams(beta=cfg.beta, mu=cfg.mu, r0=cfg.r0, D=cfg.D)
    coeffs = mc.split_even_odd(mc.su2_coefficients(cfg.alpha, cfg.n_levels - 1))
    return mc.WavePacketModel(params, coeffs, np.linspace(cfg.x_min, cfg.x_max, cfg.nx))


if __name__ == "__main__":
    start = time.perf_counter()
    import morsecontrol

    build_model(morsecontrol, int(sys.argv[1]))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
