"""The published numbers on a refinement ladder of grids.

Each rung takes the default x range with (nx, np) refined together, desk scale
(2048, 512) in the middle. The Table-2 reference tile areas and the lobe
counts of the cat and compass states must not depend on the rung.
"""

import pytest

from morsecontrol import (PAPER_STATES, RunConfig, build_model, characteristic_times,
                          lobe_count, tile_area, wigner_transform)
from morsecontrol.cli import TABLE2_REFERENCES
from morsecontrol.config import momentum_grid

LADDER = ((1024, 256), (2048, 512), (4096, 1024))
DESK_SCALE = (2048, 512)


@pytest.fixture(scope="module")
def ladder():
    """(nx, np) -> (Table-2 tile areas, label -> lobe count of each paper state)."""
    out = {}
    for nx, n_p in LADDER:
        cfg = RunConfig(nx=nx, np=n_p)
        model = build_model(cfg)
        t_rev = characteristic_times(model.params)[1]
        areas = [tile_area(model.phase_locked(theta, frac * t_rev))
                 for theta, frac, _, _ in TABLE2_REFERENCES]
        lobes = {}
        for label, theta, frac, _ in PAPER_STATES:
            state = model.phase_locked(theta, frac * t_rev)
            lobes[label] = lobe_count(wigner_transform(state, momentum_grid(cfg, state)))
        out[nx, n_p] = areas, lobes
    return out


def test_table2_tile_areas_hold_on_the_ladder(ladder):
    # measured: the rungs agree with desk scale to at most 9.2e-14 relative,
    # so the 1e-12 bound leaves a margin of about 10x
    desk = ladder[DESK_SCALE][0]
    for rung, (areas, _) in ladder.items():
        for (_, _, label, _), area, reference in zip(TABLE2_REFERENCES, areas, desk):
            assert abs(area - reference) <= 1e-12 * reference, (rung, label)


def test_cat_and_compass_lobe_counts_hold_on_the_ladder(ladder):
    # the eight-fold counts are printed as information and gate nothing:
    # they are not grid-converged, and acceptance criterion 4 records that
    # they do not reach 8
    expected = {label: copies for label, _, _, copies in PAPER_STATES if copies != 8}
    assert list(expected.values()) == [2, 4, 4, 4]
    for rung, (_, lobes) in ladder.items():
        eightfold = {label: n for label, n in lobes.items() if label not in expected}
        print(f"CONVERGENCE eight-fold lobe counts at (nx, np) = {rung}: {eightfold}")
        assert {label: lobes[label] for label in expected} == expected, rung
