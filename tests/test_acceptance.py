"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (failures surface as the usual pytest assertion
reports).
"""

import math
import time

import numpy as np
import pytest

from slitgrid.cli import EXIT_OK, EXIT_VERIFY, main
from slitgrid.complementarity import (
    complementarity_sweep,
    distinguishability_closed,
    distinguishability_from_amplitudes,
    visibility_closed,
    visibility_quadrature,
)
from slitgrid.grating import (
    AmplitudeTable,
    GratingSpec,
    grid_function,
    normalization_defect,
)
from slitgrid.scattering import (
    TwoSlitConfig,
    detector_signal,
    single_slit_detector_signal,
    single_slit_spectrum,
    two_slit_power_limit,
    two_slit_spectrum,
)

A_GRID_101 = np.arange(101) / 100.0


def report(number, text):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def brute_partial_sum(x_over_period, cover_ratio, terms):
    total = cover_ratio
    for n in range(1, terms + 1):
        c = 2.0 * (-1.0) ** n * math.sin(cover_ratio * math.pi * n) / (math.pi * n)
        total += c * math.cos(2.0 * math.pi * x_over_period * n)
    return total


def test_criterion_1_grid_profile_table(tmp_path):
    out = tmp_path / "coeffs.csv"
    start = time.perf_counter()
    assert main(["coeffs", "--a", "0.06", "--order", "50", "--out", str(out)]) == EXIT_OK
    elapsed = time.perf_counter() - start

    blocks = out.read_text().split("\n\n")
    pattern_lines = [line for line in blocks[1].splitlines() if line and not line.startswith("#")]
    assert pattern_lines[0] == "x_over_Lambda,G,I"
    table = {cells[0]: cells for cells in (line.split(",") for line in pattern_lines[1:])}

    # truncation tolerance derived from an independent brute-force partial sum
    strip_tol = abs(brute_partial_sum(0.5, 0.06, 50) - 1.0) + 1e-9
    assert strip_tol <= 0.15
    for u in ("0.5", "-0.5", "1.5", "-1.5"):  # strip centers: odd multiples of half a period
        assert abs(float(table[u][1]) - 1.0) <= strip_tol
    for u in ("0", "1", "-1", "2", "-2"):  # open-region centers
        assert abs(float(table[u][1])) <= 0.05

    assert table["0.5"][2] == "0"  # I at the strip center, exact
    assert table["0"][2] == "1"  # I on the axis, exact
    assert elapsed < 1.0
    report(1, f"profile within {strip_tol:.3f} of 1 on strips, fringe exact, {elapsed:.2f}s")


def test_criterion_2_order_spectra():
    start = time.perf_counter()
    spec = GratingSpec(cover_ratio=0.06, truncation=30)
    single = single_slit_spectrum(spec, "reflected")
    paired = two_slit_spectrum(TwoSlitConfig(spec), "reflected")
    elapsed = time.perf_counter() - start

    assert single.probability(0) == 0.06 * 0.06  # exactly a**2
    assert paired.probability(0.5) == pytest.approx(6.31e-8, rel=0.01)
    ratio = single.probability(1) / paired.probability(0.5)
    assert ratio > 5e4
    assert elapsed < 1.0
    report(2, f"P(1/2)={paired.probability(0.5):.4e}, suppression {ratio:.3g}, {elapsed:.2f}s")


def test_criterion_3_normalization():
    tail_bound = 4.0 / (math.pi**2 * 2000)
    worst_defect = 0.0
    worst_identity = 0.0
    for a in A_GRID_101:
        table = AmplitudeTable.build(a, 2000)
        worst_defect = max(worst_defect, abs(normalization_defect(table)))
        r0, t0 = table.r[0], table.t[0]
        worst_identity = max(worst_identity, abs(r0**2 + t0**2 + 2.0 * (a - a * a) - 1.0))
    assert worst_defect <= tail_bound
    assert worst_identity <= 1e-14
    report(3, f"defect <= {worst_defect:.3e} (bound {tail_bound:.3e}), identity {worst_identity:.1e}")


def test_criterion_4_visibility_oracle():
    worst = 0.0
    for a in A_GRID_101:
        closed = visibility_closed(a, "transmitted").visibility
        quad = visibility_quadrature(a, "transmitted", points=4096).visibility
        worst = max(worst, abs(closed - quad))
    assert worst <= 1e-9
    assert visibility_closed(0.5).visibility == pytest.approx(2.0 / math.pi, abs=1e-12)
    report(4, f"max |closed - quadrature| = {worst:.3e}, V(1/2) = 2/pi")


def test_criterion_5_distinguishability_dual_path():
    worst = 0.0
    for a in A_GRID_101:
        worst = max(
            worst,
            abs(
                distinguishability_from_amplitudes(AmplitudeTable.build(a, 1), "transmitted")
                - distinguishability_closed(a, "transmitted")
            ),
        )
    assert worst <= 1e-14
    assert distinguishability_closed(0.06) == pytest.approx(0.880043, abs=1e-6)
    report(5, f"max route difference = {worst:.1e}, D(0.06) on target")


def test_criterion_6_duality_sweep():
    start = time.perf_counter()
    columns = complementarity_sweep(np.arange(1001) / 1000.0, "transmitted")
    elapsed = time.perf_counter() - start
    dualities = columns.duality.tolist()
    assert max(dualities) <= 1.0 + 1e-12
    assert dualities[0] == 1.0 and dualities[-1] == 1.0
    lowest = min(dualities[1:-1])
    assert lowest < 0.5
    assert lowest == pytest.approx(0.30661368084774776, abs=1e-12)  # frozen regression
    assert elapsed < 1.0
    report(6, f"bound holds, interior min {lowest:.6f}, {elapsed:.2f}s")


def test_criterion_7_parseval_power_bookkeeping():
    worst = 0.0
    for a in (0.06, 0.25, 0.5, 0.75):
        config = TwoSlitConfig(GratingSpec(cover_ratio=a, truncation=2000))
        total_t = two_slit_spectrum(config, "transmitted").total()
        total_r = two_slit_spectrum(config, "reflected").total()
        worst = max(
            worst,
            abs(total_t - two_slit_power_limit(a, "transmitted")),
            abs(total_r - two_slit_power_limit(a, "reflected")),
            abs(total_t + total_r - 1.0),
        )
    assert worst <= 2.1e-4
    report(7, f"worst total deviation {worst:.3e} <= 2.1e-4")


def test_criterion_8_degenerate_endpoints():
    for a in (0.0, 1.0):
        spec = GratingSpec(cover_ratio=a, truncation=30)
        table = AmplitudeTable.build(a, 30)
        values = [
            -2.0 * table.r[2],
            table.r[1],
            table.t[1],
            grid_function(0.3, spec),
            normalization_defect(table),
        ]
        for channel in ("transmitted", "reflected"):
            values.append(single_slit_spectrum(spec, channel).total())
            paired = two_slit_spectrum(TwoSlitConfig(spec), channel)
            values.append(paired.total())
            signal = detector_signal(paired)
            values.extend([signal.p_d1, signal.p_d2, signal.p_loss])
            values.append(visibility_closed(a, channel).visibility)
            values.append(visibility_quadrature(a, channel).visibility)
            values.append(distinguishability_closed(a, channel))
            values.append(distinguishability_from_amplitudes(table, channel))
        single = single_slit_detector_signal(spec)
        values.extend([single.p_d1, single.p_d2, single.p_loss])
        assert all(math.isfinite(v) for v in values)
    assert visibility_closed(1.0, "transmitted").visibility == 1.0
    assert visibility_closed(0.0, "reflected").visibility == 1.0
    report(8, "a = 0 and a = 1 run every operation; limit visibilities exact")


def test_criterion_9_verify_command():
    assert main(["verify"]) == EXIT_OK
    assert main(["verify", "--perturb", "r0"]) == EXIT_VERIFY
    report(9, "verify exits 0 clean, 2 under fault injection")
