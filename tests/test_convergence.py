"""The published numbers on a refinement ladder of grids.

Each rung takes the default x range with (nx, np) refined together, desk scale
(2048, 512) in the middle. The Table-2 reference tile areas and the lobe
counts of the cat and compass states must not depend on the rung. The
Table-1 A_m row, which reads the density only, climbs its own nx ladder up
from desk scale.
"""

import pytest

from morsecontrol import (PAPER_STATES, RunConfig, build_model, characteristic_times,
                          fringe_amplitude, lobe_count, tile_area, wigner_transform)
from morsecontrol.cli import TABLE2_REFERENCES, THETA_ROW
from morsecontrol.config import momentum_grid

LADDER = ((1024, 256), (2048, 512), (4096, 1024))
DESK_SCALE = (2048, 512)
#: nx of the A_m ladder, desk scale first; np plays no part in A_m.
A_M_LADDER = (2048, 4096, 8192)


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


@pytest.fixture(scope="module")
def a_m_ladder():
    """nx -> the Table-1 A_m row: fringe amplitudes at T_rev/8 over THETA_ROW."""
    rows = {}
    for nx in A_M_LADDER:
        model = build_model(RunConfig(nx=nx))
        t = characteristic_times(model.params)[1] / 8.0
        rows[nx] = [fringe_amplitude(model.density(theta, t), model.x, model.params.r0)
                    for theta in THETA_ROW]
    return rows


def test_table1_a_m_row_holds_on_the_nx_ladder(a_m_ladder):
    # measured against nx=8192: desk scale is within 1.24e-3 relative (at
    # theta = pi, 2.43418 against 2.43720) and nx=4096 within 3.6e-4 (at
    # pi/8). So acceptance criterion 7's 3.13x endpoint gap is not a grid
    # effect: refining the grid moves the endpoint by about a tenth of a percent
    desk, middle, finest = (a_m_ladder[nx] for nx in A_M_LADDER)
    for nx, row in a_m_ladder.items():
        assert row[0] == 0.0, nx
    for theta, a, b, c in zip(THETA_ROW[1:], desk[1:], middle[1:], finest[1:]):
        assert abs(a - c) <= 2.5e-3 * c, theta
        assert abs(b - c) <= 1e-3 * c, theta
