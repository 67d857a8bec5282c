"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear. Uses the desk-scale defaults: 2048-point position grid, 512-point
momentum grid.
"""

import math

import numpy as np
import pytest

from morsecontrol import (
    ATOMIC_TIME_SECONDS,
    I2,
    StateGrid,
    characteristic_times,
    energy,
    evaluate_eigenfunction,
    fringe_amplitude,
    lobe_count,
    marginals,
    momentum_density,
    morse_potential,
    purity,
    sensitivity_scan,
    spectral_moments,
    tile_area,
    uncertainties,
    wigner_overlap,
    wigner_transform,
)
from morsecontrol.cli import TABLE2_REFERENCES, THETA_ROW, main as cli_main
from morsecontrol.gridfile import GridFile, read_grid, write_grid


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def t_rev():
    return characteristic_times(I2)[1]


def test_criterion_1_eigenstructure(x_grid):
    failures = []
    depth = I2.depth
    if not abs(depth - 116.56) <= 0.01:
        failures.append(f"depth parameter {depth:.4f} outside 116.56 +- 0.01")
    t_cl, t_rev = characteristic_times(I2)
    t_cl_fs = t_cl * ATOMIC_TIME_SECONDS * 1e15
    t_rev_ps = t_rev * ATOMIC_TIME_SECONDS * 1e12
    if not abs(t_cl_fs - 156.0) <= 1.0:
        failures.append(f"classical period {t_cl_fs:.2f} fs outside 156 +- 1")
    if not abs(t_rev_ps - 36.2) <= 0.2:
        failures.append(f"revival time {t_rev_ps:.3f} ps outside 36.2 +- 0.2")

    table = np.stack([evaluate_eigenfunction(I2, m, x_grid) for m in range(24)])
    weights = np.gradient(x_grid)
    gram = (table * weights) @ table.T
    ortho_err = float(np.abs(gram - np.eye(24)).max())
    if ortho_err >= 1e-6:
        failures.append(f"orthonormality error {ortho_err:.2e} >= 1e-6")

    x4 = np.linspace(-0.25, 0.45, 4096)
    dx4 = x4[1] - x4[0]
    v = morse_potential(I2, x4)
    for m in (0, 5, 12, 23):
        psi = evaluate_eigenfunction(I2, m, x4)
        curv = np.zeros_like(psi)
        curv[1:-1] = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / dx4**2
        rayleigh = float(np.trapezoid(psi * (-curv / (2 * I2.effective_mass) + v * psi), x4))
        rel = abs((rayleigh - energy(I2, m)) / energy(I2, m))
        if rel >= 1e-3:
            failures.append(f"Rayleigh check m={m} rel err {rel:.2e} >= 1e-3")

    report(1, not failures,
           f"depth={depth:.4f}, T_cl={t_cl_fs:.2f} fs, T_rev={t_rev_ps:.2f} ps, "
           f"orthonormality {ortho_err:.1e}" + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_2_superposition_identities(model, t_rev):
    failures = []
    for t in (0.0, t_rev / 8):
        d_odd = np.abs(model.phase_locked(0.0, t).psi - model.subsidiary("odd", t).psi).max()
        d_even = np.abs(model.phase_locked(math.pi, t).psi - model.subsidiary("even", t).psi).max()
        if d_odd >= 1e-12:
            failures.append(f"phase 0 vs odd packet deviates {d_odd:.2e} at t={t:.3g}")
        if d_even >= 1e-12:
            failures.append(f"phase pi vs even packet deviates {d_even:.2e} at t={t:.3g}")

    worst_norm = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 5):
        for t in np.linspace(0.0, t_rev, 5):
            worst_norm = max(worst_norm, abs(model.phase_locked(theta, t).norm() - 1.0))
    if worst_norm >= 1e-6:
        failures.append(f"norm deviates {worst_norm:.2e} on the 5x5 lattice")

    worst_pair = 0.0
    for t in (0.0, t_rev / 8):
        parity_sum = (np.abs(model.subsidiary("even", t).psi) ** 2
                      + np.abs(model.subsidiary("odd", t).psi) ** 2)
        for theta in (0.0, math.pi / 4, math.pi / 2):
            gap = np.abs(model.density(theta, t) + model.density(theta + math.pi, t)
                         - parity_sum).max()
            worst_pair = max(worst_pair, gap)
    if worst_pair >= 1e-10:
        failures.append(f"pairwise density identity deviates {worst_pair:.2e}")

    report(2, not failures,
           f"endpoint identities exact, worst norm dev {worst_norm:.1e}, "
           f"pairwise identity {worst_pair:.1e}"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_3_wigner_correctness(model, t_rev, classification_states, classification_wigner,
                                        direct_wigner):
    failures = []
    worst_pos = worst_mom = worst_norm = worst_purity = 0.0
    for label, w in classification_wigner.items():
        state, _ = classification_states[label]
        pos, mom = marginals(w)
        worst_pos = max(worst_pos, float(np.abs(pos - state.density).max()))
        worst_mom = max(worst_mom, float(np.abs(mom - momentum_density(state, w.p)).max()))
        worst_norm = max(worst_norm, abs(w.norm_captured - 1.0))
        if not w.values.min() < 0.0:
            failures.append(f"{label}: no negative region (nonclassicality witness)")
    if worst_pos >= 1e-4:
        failures.append(f"position marginal error {worst_pos:.2e} >= 1e-4")
    if worst_mom >= 1e-4:
        failures.append(f"momentum marginal error {worst_mom:.2e} >= 1e-4")
    if worst_norm >= 1e-3:
        failures.append(f"normalization off by {worst_norm:.2e} >= 1e-3")

    for t in (0.0, t_rev / 16, t_rev / 8):
        w = wigner_transform(model.phase_locked(math.pi / 2, t))
        worst_purity = max(worst_purity, abs(purity(w) - 1.0))
    if worst_purity >= 5e-3:
        failures.append(f"purity deviates {worst_purity:.2e} >= 5e-3")

    pairs = [
        (model.phase_locked(0.0, t_rev / 8), model.phase_locked(math.pi, t_rev / 8)),
        (model.phase_locked(math.pi / 4, t_rev / 16), model.phase_locked(math.pi / 2, t_rev / 16)),
        (model.phase_locked(0.0, t_rev / 8), model.phase_locked(math.pi / 2, t_rev / 8)),
    ]
    p_top = max(
        abs(spectral_moments(s)[0]) + 5.0 * spectral_moments(s)[1]
        for pair in pairs for s in pair
    )
    p_common = np.linspace(-p_top, p_top, 512)
    worst_overlap = 0.0
    for a, b in pairs:
        direct = abs(np.trapezoid(np.conj(a.psi) * b.psi, a.x)) ** 2
        routed = wigner_overlap(
            wigner_transform(a, p_common),
            wigner_transform(b, p_common),
        )
        worst_overlap = max(worst_overlap, abs(routed - direct))
    if worst_overlap >= 5e-3:
        failures.append(f"Wigner-route overlap deviates {worst_overlap:.2e} >= 5e-3")
    orthogonal = wigner_overlap(
        wigner_transform(pairs[0][0], p_common),
        wigner_transform(pairs[0][1], p_common),
    )
    if abs(orthogonal) >= 1e-3:
        failures.append(f"opposite-phase overlap {orthogonal:.2e} >= 1e-3")

    x_smoke = np.linspace(-8.0, 8.0, 128)
    psi = (np.exp(-((x_smoke - 2.5) ** 2) / 2) + np.exp(-((x_smoke + 2.5) ** 2) / 2)).astype(complex)
    psi /= math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x_smoke)))
    smoke = StateGrid(x=x_smoke, psi=psi, theta=None, t=0.0)
    p_smoke = np.linspace(-5.0, 5.0, 128)
    fast = wigner_transform(smoke, p_smoke)
    gap = float(np.abs(fast.values - direct_wigner(smoke, p_smoke)).max())
    if gap >= 1e-8:
        failures.append(f"fast path deviates {gap:.2e} >= 1e-8 on the smoke grid")

    report(3, not failures,
           f"marginals {max(worst_pos, worst_mom):.1e}, purity dev {worst_purity:.1e}, "
           f"overlap route {worst_overlap:.1e}, fast path {gap:.1e}"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_4_structure_classification(classification_states, classification_wigner):
    failures = []
    summary = []
    for label, (state, expected) in classification_states.items():
        w = classification_wigner[label]
        counts = [lobe_count(w, f) for f in (0.2, 0.3, 0.4)]
        summary.append(f"{label}: {counts}")
        if counts != [expected] * 3:
            failures.append(f"{label}: counted {counts}, expected stable {expected}")
    report(4, not failures, "; ".join(summary))
    assert not failures, (
        "lobe classification deviates from the target counts: "
        + "; ".join(failures)
        + ". The four cat/compass cases are stable; the eight-fold cases count "
        "6 and 4 at every threshold. lobe_count counts the maxima of the "
        "Gaussian-smoothed W(x, p). The eight copies are evenly spaced in orbit "
        "angle but crowd together near the outer turning point, where the "
        "one-cell coarse grain merges them: at control phase pi/2 the maxima "
        "that smaller cells resolve at x = 0.10-0.16 (p = +175, -115, +50) merge "
        "into one at x = 0.157, p = +50. The threshold does not drop copies: it "
        "applies to the amplitude sqrt(smoothed W), so at control phase pi/4 "
        "the even-family copies (3.7% of the probability each, against 21.3% "
        "for the odd family) sit at about sqrt(3.7/21.3) = 0.42 of the "
        "odd-family amplitude, above every threshold in [0.2, 0.4]. No cell "
        "area in {0.5, 0.75, 1, 1.25, 1.5} (units of hbar/2) with any merge "
        "radius in {0.5, 1, 1.5} cells gives a stable 8 for either state while "
        "keeping the cat and compass counts."
    )


def test_criterion_5_table2_quantitative(model, t_rev, tmp_path):
    targets = [
        ("pi/2 T_rev/8", math.pi / 2, t_rev / 8, 0.083),
        ("0 T_rev/16", 0.0, t_rev / 16, 0.0766),
        ("pi T_rev/16", math.pi, t_rev / 16, 0.0837),
    ]
    values = {}
    out_of_tolerance = []
    for label, theta, t, reference in targets:
        value = tile_area(model.phase_locked(theta, t))
        values[label] = value
        if abs(value - reference) > 0.15 * reference:
            out_of_tolerance.append((label, value, reference))

    detail = ", ".join(f"{label}={values[label]:.4f} (ref {ref})"
                       for label, _, _, ref in targets)
    if not out_of_tolerance:
        report(5, True, detail + "; all within 15%")
        return

    # outside tolerance: the run must emit the convention-discrepancy report
    code = cli_main(["table2", "--outdir", str(tmp_path)])
    assert code == 0
    report_path = tmp_path / "table2_convention_report.csv"
    assert report_path.exists(), "outside 15% but no convention-discrepancy report emitted"
    body = [l for l in report_path.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "label,theta,t_frac,tile_area_x_conjugate,tile_area_r_scaled,reference"
    listed = {row.split(",")[0] for row in body[1:]}
    for label, value, reference in out_of_tolerance:
        assert label in listed, f"{label} missing from the convention report"
    for row in body[1:]:
        cells = row.split(",")
        assert float(cells[4]) == pytest.approx(float(cells[3]) * I2.r0, rel=1e-12)
    report(5, True, detail + f"; {len(out_of_tolerance)}/3 outside 15%, "
           "convention-discrepancy report emitted with both momentum scalings")


def test_criterion_6_table2_ordering(model, t_rev):
    # The paper claims smaller tiles at the shorter revival fraction and ranks
    # its compass states by the tile areas in TABLE2_REFERENCES; it makes no
    # claim about which point of the theta lattice is the exact minimum.
    areas = {}
    for frac, t in (("1/8", t_rev / 8), ("1/16", t_rev / 16)):
        for theta in THETA_ROW:
            areas[(frac, theta)] = tile_area(model.phase_locked(theta, t))
    failures = []
    for theta in THETA_ROW:
        if not areas[("1/16", theta)] < areas[("1/8", theta)]:
            failures.append(f"column ordering violated at theta={theta:.3f}")
    ordering_ok = not failures

    ranked = sorted(TABLE2_REFERENCES, key=lambda ref: ref[3])
    computed = [tile_area(model.phase_locked(theta, frac * t_rev))
                for theta, frac, _, _ in ranked]
    reference_order = ", ".join(f"{label} {value:.6f} (ref {reference})"
                                 for (_, _, label, reference), value in zip(ranked, computed))
    if not all(a < b for a, b in zip(computed, computed[1:])):
        failures.append(f"reference order violated: {reference_order}")

    candidate = areas[("1/16", 0.0)]
    column_min = min(areas[("1/8", theta)] for theta in THETA_ROW)
    if not candidate < column_min:
        failures.append(f"(theta=0, T_rev/16) {candidate:.6f} not below the "
                        f"T_rev/8 column minimum {column_min:.6f}")

    where = min(areas, key=areas.get)
    report(6, not failures,
           f"column ordering {'holds for all nine phases' if ordering_ok else 'violated'}; "
           f"ranked by reference: {reference_order}; "
           f"(0, T/16) = {candidate:.5f}, T/8 column min {column_min:.5f}; "
           f"lattice argmin {areas[where]:.6f} at t_frac={where[0]}, theta={where[1]:.4f}, "
           f"(0, T/16) {(candidate - areas[where]) / areas[where] * 100:.3f}% above it"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures, "; ".join(failures)


def test_criterion_7_table1_shape(model, t_rev):
    row = {}
    for theta in THETA_ROW:
        row[theta] = fringe_amplitude(model.density(theta, t_rev / 8), model.x, I2.r0)
    mirrored = {theta: fringe_amplitude(model.density(2 * math.pi - theta, t_rev / 8),
                                        model.x, I2.r0)
                for theta in THETA_ROW[1:-1]}
    failures = []
    endpoint = row[THETA_ROW[-1]]
    if not row[0.0] < 1e-3 * endpoint:
        failures.append(f"zero-phase amplitude {row[0.0]:.4f} not below 1e-3 of endpoint")
    values = [row[theta] for theta in THETA_ROW]
    if not all(values[i + 1] >= values[i] - 1e-12 for i in range(8)):
        failures.append(f"row not nondecreasing: {[f'{v:.3f}' for v in values]}")
    for theta in THETA_ROW[1:-1]:
        rel = abs(row[theta] - mirrored[theta]) / max(row[theta], 1e-30)
        if rel > 0.02:
            failures.append(f"mirror asymmetry {rel * 100:.1f}% > 2% at theta={theta / math.pi:.3f}pi")
    if not abs(endpoint - 7.63) <= 0.25 * 7.63:
        failures.append(f"endpoint {endpoint:.3f} outside 7.63 +- 25%")
    report(7, not failures,
           "A_m row " + ", ".join(f"{v:.3f}" for v in values)
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures, (
        "; ".join(failures)
        + ". The zero-phase and monotonicity clauses hold and the row shape "
        "follows (1-cos(theta))/2 to within 2.6%. Mirror clause: the cross term "
        "of density_decomposition, (sin(theta)/2)*i*(odd*conj(even) - "
        "even*conj(odd)), flips sign under theta -> 2pi - theta, so the model "
        "has no mirror symmetry. At theta = pi/8 the cross term reaches 3.9% "
        "of the peak density and 1.26x the even part; A_m of the density "
        "without it is 0.0925, between the mirror pair 0.0950 and 0.0913. "
        "Endpoint: 2.434 per atomic unit of r is the half peak-to-trough range "
        "of the strongest fringe, 3.13x below 7.63 (full range 4.87, raw "
        "ripple height 4.85). PAPER.md does not say how the paper normalizes "
        "A_m. Scanning the ladder parameter alpha from 0.5 to 3 keeps the "
        "endpoint between 1.68 and 3.92, while the tile areas meet their "
        "references near alpha = 1, so no single alpha explains both gaps."
    )


def test_criterion_8_sensitivity(model, t_rev):
    state = model.phase_locked(math.pi / 2, t_rev / 8)
    dx_spread, _ = uncertainties(state)
    scan = sensitivity_scan(state, "position", max_shift=dx_spread / 2, steps=64, cross_checks=3)
    failures = []
    if not abs(scan.overlaps[0] - 1.0) < 1e-6:
        failures.append(f"overlap at zero shift is {scan.overlaps[0]:.8f}")
    if scan.first_zero is None or scan.first_zero >= dx_spread / 3:
        failures.append(
            f"first zero {scan.first_zero} not below dx/3 = {dx_spread / 3:.4f}"
        )
    for idx, value in zip(scan.wigner_indices, scan.wigner_overlaps):
        if abs(value - scan.overlaps[idx]) >= 5e-3:
            failures.append(f"Wigner route deviates at shift index {idx}")
    report(8, not failures,
           f"first zero at {scan.first_zero:.4f} vs dx/3 = {dx_spread / 3:.4f}"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_criterion_9_determinism_and_io(tmp_path, monkeypatch):
    failures = []
    args = ["wigner", "--set", "theta=pi/2", "--set", "t_frac=1/8",
            "--set", "nx=512", "--set", "np=128"]
    monkeypatch.setenv("MORSECONTROL_WORKERS", "1")
    assert cli_main(args + ["--outdir", str(tmp_path / "w1")]) == 0
    monkeypatch.setenv("MORSECONTROL_WORKERS", "4")
    assert cli_main(args + ["--outdir", str(tmp_path / "w4")]) == 0
    monkeypatch.delenv("MORSECONTROL_WORKERS")
    for name in ("wigner_000.wgrd", "wigner_000.csv"):
        if (tmp_path / "w1" / name).read_bytes() != (tmp_path / "w4" / name).read_bytes():
            failures.append(f"{name} differs between 1 and 4 workers")

    rng = np.random.default_rng(77)
    for k in range(10):
        rank = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 10)) for _ in range(rank))
        grid = GridFile(
            axes=tuple(np.sort(rng.standard_normal(d)) for d in dims),
            payload=rng.standard_normal(dims),
            meta={f"k{i}": repr(rng.standard_normal()) for i in range(int(rng.integers(0, 3)))},
        )
        path = tmp_path / f"round_{k}.wgrd"
        write_grid(path, grid)
        back = read_grid(path)
        if back.payload.tobytes() != grid.payload.tobytes() or back.meta != grid.meta:
            failures.append(f"round trip {k} not bit-exact")
        if any(a.tobytes() != b.tobytes() for a, b in zip(grid.axes, back.axes)):
            failures.append(f"round trip {k} axes not bit-exact")

    report(9, not failures,
           "worker counts 1 and 4 byte-identical, 10 randomized grid round trips bit-exact"
           + ("; " + "; ".join(failures) if failures else ""))
    assert not failures
