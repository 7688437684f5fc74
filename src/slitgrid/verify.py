"""Self-verification suite: invariants with documented tolerances.

Each check measures a worst-case deviation over a covering-ratio grid and
compares it against a fixed tolerance:

  normalization-identity   r0**2 + t0**2 + 2*(a - a**2) = 1      <= 1e-14
  normalization-defect     truncated power balance, N terms      <= 4/(pi**2*N)
  visibility-oracle        closed form vs Simpson quadrature     <= 1e-9
  visibility-spot          V_t(1/2) = 2/pi                       <= 1e-12
  distinguishability-dual  amplitude route vs closed form        <= 1e-14
  distinguishability-spot  D_t(0.06)                             <= 1e-6
  duality-bound            max(V**2 + D**2) over the sweep       <= 1 + 1e-12
  duality-endpoints        exactly 1 at both ends, interior min < 1/2
  parseval-two-slit        spectrum totals vs closed limits      <= 2.1e-4 (N=2000)
  endpoint-degenerate      every operation runs at a = 0 and 1

The amplitude-driven checks pass their tables to the library functions
they check (``normalization_defect``, ``distinguishability_from_amplitudes``
and ``two_slit_probabilities``).  For fault injection (``perturb``) those
tables come from one perturbable source, so biasing a single amplitude (for
example ``r0``) must trip the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import complementarity, scattering
from .grating import CHANNELS, AmplitudeTable, GratingSpec, grid_function, normalization_defect

__all__ = ["CheckResult", "PERTURBATIONS", "run_verification"]

PERTURBATIONS = ("r0", "r1", "t0", "t1")
_PERTURB_OFFSET = 1e-3

DEFAULT_TRUNCATION = 2000
DEFAULT_GRID = 101
DEFAULT_SWEEP = 1001
DEFAULT_QUADRATURE_POINTS = 4096
PARSEVAL_COVER_RATIOS = (0.06, 0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _table(cover_ratio, truncation, perturb):
    """Amplitude table 0..N, with one amplitude biased when ``perturb`` names it."""
    table = AmplitudeTable.build(cover_ratio, truncation)
    if perturb is None:
        return table
    r, t = table.r.copy(), table.t.copy()
    (r if perturb[0] == "r" else t)[int(perturb[1:])] += _PERTURB_OFFSET
    return AmplitudeTable(table.cover_ratio, r, t)


def _cover_grid(points: int) -> np.ndarray:
    return np.arange(points) / (points - 1)


def _check_normalization_identity(grid, perturb):
    worst = 0.0
    for a in _cover_grid(grid):
        table = _table(a, 1, perturb)
        worst = max(worst, abs(table.r[0] ** 2 + table.t[0] ** 2 + 2.0 * (a - a * a) - 1.0))
    tol = 1e-14
    return CheckResult(
        name="normalization-identity",
        passed=worst <= tol,
        value=worst,
        tolerance=tol,
        detail=f"max |r0^2 + t0^2 + 2(a - a^2) - 1| over {grid} covering ratios",
    )


def _check_normalization_defect(grid, truncation, perturb):
    worst = 0.0
    for a in _cover_grid(grid):
        worst = max(worst, abs(normalization_defect(_table(a, truncation, perturb))))
    tol = 4.0 / (math.pi**2 * truncation)
    return CheckResult(
        name="normalization-defect",
        passed=worst <= tol,
        value=worst,
        tolerance=tol,
        detail=f"max |defect| at {truncation} terms over {grid} covering ratios",
    )


def _check_visibility_oracle(grid, points):
    worst = 0.0
    for channel in CHANNELS:
        for a in _cover_grid(grid):
            closed = complementarity.visibility_closed(a, channel).visibility
            quad = complementarity.visibility_quadrature(a, channel, points=points).visibility
            worst = max(worst, abs(closed - quad))
    tol = 1e-9
    return CheckResult(
        name="visibility-oracle",
        passed=worst <= tol,
        value=worst,
        tolerance=tol,
        detail=f"max |closed - quadrature| over {grid} ratios x both channels, {points} points",
    )


def _check_visibility_spot():
    deviation = abs(
        complementarity.visibility_closed(0.5, "transmitted").visibility - 2.0 / math.pi
    )
    tol = 1e-12
    return CheckResult(
        name="visibility-spot",
        passed=deviation <= tol,
        value=deviation,
        tolerance=tol,
        detail="|V_t(1/2) - 2/pi|",
    )


def _check_distinguishability_dual(grid, perturb):
    worst = 0.0
    for a in _cover_grid(grid):
        table = _table(a, 1, perturb)
        for channel in CHANNELS:
            amp_route = complementarity.distinguishability_from_amplitudes(table, channel)
            closed = complementarity.distinguishability_closed(a, channel)
            worst = max(worst, abs(amp_route - closed))
    tol = 1e-14
    return CheckResult(
        name="distinguishability-dual",
        passed=worst <= tol,
        value=worst,
        tolerance=tol,
        detail=f"max |amplitude route - closed form| over {grid} ratios x both channels",
    )


def _check_distinguishability_spot():
    deviation = abs(complementarity.distinguishability_closed(0.06, "transmitted") - 0.880043)
    tol = 1e-6
    return CheckResult(
        name="distinguishability-spot",
        passed=deviation <= tol,
        value=deviation,
        tolerance=tol,
        detail="|D_t(0.06) - 0.880043|",
    )


def _check_duality(sweep):
    dualities = complementarity.complementarity_sweep(_cover_grid(sweep), "transmitted").duality
    worst = float(np.max(dualities))
    tol = 1.0 + 1e-12
    bound = CheckResult(
        name="duality-bound",
        passed=worst <= tol,
        value=worst,
        tolerance=tol,
        detail=f"max V^2 + D^2 over {sweep} covering ratios",
    )
    interior_min = float(np.min(dualities[1:-1]))
    endpoints_ok = dualities[0] == 1.0 and dualities[-1] == 1.0
    ends = CheckResult(
        name="duality-endpoints",
        passed=bool(endpoints_ok and interior_min < 0.5),
        value=interior_min,
        tolerance=0.5,
        detail="exactly 1 at a = 0 and a = 1, interior minimum strictly below 1/2",
    )
    return bound, ends


def _check_parseval(truncation, perturb):
    worst = 0.0
    for a in PARSEVAL_COVER_RATIOS:
        table = _table(a, truncation, perturb)
        totals = []
        for channel in CHANNELS:
            probs = scattering.two_slit_probabilities(table.amplitudes(channel), 0.0)
            totals.append(float(np.sum(probs)))
            closed = scattering.two_slit_power_limit(a, channel)
            worst = max(worst, abs(totals[-1] - closed))
        worst = max(worst, abs(sum(totals) - 1.0))
    tol = 0.42 / truncation  # 2.1e-4 at the default 2000 terms, scaling with the tail
    return CheckResult(
        name="parseval-two-slit",
        passed=worst <= tol,
        value=worst,
        tolerance=tol,
        detail=f"two-slit totals vs closed limits at {truncation} terms, "
        f"ratios {PARSEVAL_COVER_RATIOS}",
    )


def _check_endpoints(points):
    """Run every operation at the degenerate gratings a = 0 and a = 1."""
    failures = []
    for a in (0.0, 1.0):
        try:
            spec = GratingSpec(cover_ratio=a, truncation=30)
            table = AmplitudeTable.build(a, 30)
            values = [grid_function(0.25, spec), normalization_defect(table)]
            for channel in CHANNELS:
                values.append(scattering.single_slit_spectrum(spec, channel).total())
                two = scattering.two_slit_spectrum(scattering.TwoSlitConfig(spec), channel)
                values.append(two.total())
                signal = scattering.detector_signal(two)
                values.extend((signal.p_d1, signal.p_d2, signal.p_loss))
                values.append(complementarity.visibility_closed(a, channel).visibility)
                values.append(
                    complementarity.visibility_quadrature(a, channel, points=points).visibility
                )
                values.append(complementarity.distinguishability_closed(a, channel))
                values.append(complementarity.distinguishability_from_amplitudes(table, channel))
            single = scattering.single_slit_detector_signal(spec)
            values.extend((single.p_d1, single.p_d2, single.p_loss))
            if not all(math.isfinite(v) for v in values):
                failures.append(f"non-finite value at a={a}")
        except Exception as exc:  # noqa: BLE001 - the check is "does not fault"
            failures.append(f"a={a}: {exc!r}")
    if complementarity.visibility_closed(1.0, "transmitted").visibility != 1.0:
        failures.append("V_t(1) != 1")
    if complementarity.visibility_closed(0.0, "reflected").visibility != 1.0:
        failures.append("V_r(0) != 1")
    if complementarity.visibility_quadrature(1.0, "transmitted").visibility != 1.0:
        failures.append("quadrature V_t(1) != 1")
    if complementarity.visibility_quadrature(0.0, "reflected").visibility != 1.0:
        failures.append("quadrature V_r(0) != 1")
    return CheckResult(
        name="endpoint-degenerate",
        passed=not failures,
        value=float(len(failures)),
        tolerance=0.0,
        detail="; ".join(failures) if failures else "a = 0 and a = 1 run through every operation",
    )


def run_verification(
    perturb: str | None = None,
    truncation: int = DEFAULT_TRUNCATION,
    points: int = DEFAULT_QUADRATURE_POINTS,
) -> list[CheckResult]:
    """Run the full invariant suite; returns one result per check.

    ``perturb`` biases a single amplitude (one of ``PERTURBATIONS``) inside
    the amplitude-driven checks, which must then fail.  The covering-ratio
    grids are fixed: ``DEFAULT_GRID`` ratios for the per-ratio checks and
    ``DEFAULT_SWEEP`` for the duality sweep.
    """
    if perturb is not None and perturb not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation {perturb!r}; expected one of {PERTURBATIONS}")
    results = [
        _check_normalization_identity(DEFAULT_GRID, perturb),
        _check_normalization_defect(DEFAULT_GRID, truncation, perturb),
        _check_visibility_oracle(DEFAULT_GRID, points),
        _check_visibility_spot(),
        _check_distinguishability_dual(DEFAULT_GRID, perturb),
        _check_distinguishability_spot(),
    ]
    results.extend(_check_duality(DEFAULT_SWEEP))
    results.append(_check_parseval(truncation, perturb))
    results.append(_check_endpoints(points))
    return results
