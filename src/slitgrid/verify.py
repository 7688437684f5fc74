"""Self-verification suite: invariants with documented tolerances.

Each check measures a worst-case deviation over a covering-ratio grid and
compares it against a fixed tolerance.  The per-ratio checks share one grid,
on which each grid quantity is evaluated once per channel, with the bits of
the scalar calls, and read by every check: V by its closed form and the
quadrature oracle, D by its closed form and the amplitudes; the spot and
endpoint checks read its rows at a = 1/2, 0.06, 0 and 1.

  normalization-identity   r0**2 + t0**2 + 2*(a - a**2) = 1      <= 1e-14
  normalization-defect     truncated power balance, N terms      <= 4/(pi**2*N)
  visibility-oracle        closed form vs Gauss-Legendre rule    <= 1e-13
  visibility-spot          V_t(1/2) = 2/pi                       <= 1e-12
  distinguishability-dual  amplitude route vs closed form        <= 1e-14
  distinguishability-spot  D_t(0.06)                             <= 1e-6
  duality-bound            max(V**2 + D**2) over the sweep       <= 1 + 1e-12
  duality-endpoints        exactly 1 at both ends, interior min < 1/2
  parseval-two-slit        each channel's total vs its limit     <= 2(2N+1)/(pi**2*N**2) + gamma_2N
  endpoint-degenerate      every operation runs at a = 0 and 1

The four amplitude-driven checks read one N-term table per grid ratio, which
``run_verification`` builds once, in stacks of ``grating._block_rows(N + 1)``
ratios (the factored profile's 64 KiB per array: 4 at N = 2000, the whole grid
up to N = 80, one from N = 4096).  Each stack goes to the library functions
checked (``normalization_defect``, and ``two_slit_spectrum`` as one-ratio
rows) before the next is built, and its orders 0 and 1 are kept for
``distinguishability_from_amplitudes``.  Under ``perturb`` every table comes
from one biased source, so biasing ``r0``, say, must trip the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import complementarity, grating, scattering
from .grating import CHANNELS, AmplitudeTable, GratingSpec, grid_function, normalization_defect

__all__ = ["CheckResult", "PERTURBATIONS", "run_verification"]

PERTURBATIONS = ("r0", "r1", "t0", "t1")
_PERTURB_OFFSET = 1e-3

DEFAULT_TRUNCATION = 2000
DEFAULT_GRID = 101
DEFAULT_SWEEP = 1001
PARSEVAL_COVER_RATIOS = (0.06, 0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _bounded(name: str, value: float, tolerance: float, detail: str) -> CheckResult:
    """A check that passes when ``value <= tolerance``."""
    return CheckResult(name, value <= tolerance, value, tolerance, detail)


def _table(cover_ratios, truncation, perturb):
    """Stacked amplitude tables 0..N, with one amplitude of each row biased when ``perturb`` names it."""
    table = AmplitudeTable.build(cover_ratios, truncation)
    if perturb is None:
        return table
    r, t = table.r.copy(), table.t.copy()
    (r if perturb[0] == "r" else t)[:, int(perturb[1:])] += _PERTURB_OFFSET
    return AmplitudeTable(table.cover_ratio, r, t)


def _two_slit_totals(block, row):
    """Each channel's two-slit total of one row of ``block``, handed over as a one-ratio table."""
    table = AmplitudeTable(float(block.cover_ratio[row]), block.r[row], block.t[row])
    return [scattering.two_slit_spectrum(table, c).total() for c in CHANNELS]


def _worst(got, want) -> float:
    return float(np.abs(np.subtract(got, want)).max())


def _check_normalization_identity(grid, heads):
    """``r0**2 + t0**2 + 2(a - a**2)`` against 1, which it equals in real arithmetic.

    The tolerance 1e-14 bounds it at every a in [0, 1].  With u = 2**-53,
    to first order: ``r0 = -a`` is exact; ``r0**2`` and ``grid * grid`` are
    one ``s = a**2 (1 + d)``, net once in the sum (``+s - 2s``): ``u a**2``.
    ``t0 = fl(1 - a)`` is exact for a >= 1/2 (Sterbenz), within u/2 below,
    which moves ``t0**2`` by ``(1 - a) u <= u``; the square rounds by
    ``u (1 - a)**2``, and ``a - s >= 0`` by ``u a (1 - a)``, doubled exactly.
    That is ``u (a + 1 - a)**2 + u = 2u``; the two additions, of sums within
    1 + 3u, round by u each.  The sum is a double in [1/2, 2], so ``- 1`` is
    exact and a multiple of u: at most 4u = 4.4e-16, O(u**2) terms and a
    subnormal a's 2**-1074 included.  1e-14 leaves a factor of 22.
    """
    r0, t0 = heads.r[:, 0], heads.t[:, 0]
    return _bounded(
        "normalization-identity", _worst(r0**2 + t0**2 + 2.0 * (grid - grid * grid), 1.0), 1e-14,
        f"max |r0^2 + t0^2 + 2(a - a^2) - 1| over {len(grid)} covering ratios",
    )


def _check_normalization_defect(grid, truncation, defects):
    return _bounded(
        "normalization-defect", _worst(defects, 0.0), 4.0 / (math.pi**2 * truncation),
        f"max |defect| at {truncation} terms over {len(grid)} covering ratios",
    )


def _check_visibility_oracle(grid, visibility):
    """Closed-form V against the 16-node Gauss-Legendre oracle.

    The tolerance 1e-13 is a bound at every window width w in [0, 1].
    ``V = (I+ - I-)/(I+ + I-)`` of the window's integrals on the fringe
    maxima and minima, with ``I+ + I- = w``, so errors e in the integrals
    move V by at most ``2 (|e+| + |e-|)/w``.
    Quadrature: on ``x = (w/2) s`` each ``I/w`` is half the integral over
    [-1, 1] of ``cos**2`` or ``sin**2`` of ``pi w s/2``, entire and bounded
    by ``M = cosh(pi w (rho - 1/rho)/4)**2`` on the Bernstein ellipse E_rho.
    The 16-node error is at most ``64 M/(15 (rho**2 - 1) rho**32)``
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3):
    5.1e-26 at rho = 8 and w = 1, its largest, so each ``I/w`` is within
    2.6e-26 and V within 1.1e-25.  Rounding, with u = 2**-53: each node
    value carries about 7u (scaled node, times pi, cos or sin, square),
    nodes and weights a few u, and the sum with positive weights summing
    to 2, in any order, adds Higham's gamma_16 ~ 16u, so each ``I/w`` is
    within 30u.  The closed form ``s/(pi w)`` rounds by at most 7u: fl(pi)
    and the product u each in sin's argument and in ``pi w``, sin one ulp
    (2u), the quotient u.  Its ``s`` reads the exact ``a`` where the quadrature has the
    rounded ``w``: ``1 - a`` rounds only for w > 1/2, by u/2, which adds at
    most ``(u/2)/w <= u``.  With 3u for the quotient of the integrals, V is
    within 131u = 1.45e-14; 1e-13 leaves a factor of 6 for loose constants.
    """
    return _bounded(
        "visibility-oracle", _worst(*visibility), 1e-13,
        f"max |closed - quadrature| over {len(grid)} ratios x both channels, 16-node Gauss-Legendre",
    )


def _check_visibility_spot(v_t):
    return _bounded("visibility-spot", abs(v_t - 2.0 / math.pi), 1e-12, "|V_t(1/2) - 2/pi|")


def _check_distinguishability_dual(grid, distinguishability):
    return _bounded(
        "distinguishability-dual", _worst(distinguishability[1], distinguishability[0]), 1e-14,
        f"max |amplitude route - closed form| over {len(grid)} ratios x both channels",
    )


def _check_distinguishability_spot(d_t):
    return _bounded("distinguishability-spot", abs(d_t - 0.880043), 1e-6, "|D_t(0.06) - 0.880043|")


def _check_duality():
    sweep = complementarity._cover_grid(DEFAULT_SWEEP)
    dualities = complementarity.complementarity_sweep(sweep, "transmitted").duality
    worst = float(np.max(dualities))
    bound = _bounded(
        "duality-bound", worst, 1.0 + 1e-12, f"max V^2 + D^2 over {len(sweep)} covering ratios"
    )
    interior_min = float(np.min(dualities[1:-1]))
    endpoints_ok = dualities[0] == 1.0 and dualities[-1] == 1.0
    ends = CheckResult(
        name="duality-endpoints", passed=bool(endpoints_ok and interior_min < 0.5), value=interior_min, tolerance=0.5,
        detail="exactly 1 at a = 0 and a = 1, interior minimum strictly below 1/2",
    )
    return bound, ends


def _check_parseval(truncation, totals):
    """Each channel's N-term two-slit total against its closed limit.

    The tolerance ``2(2N + 1)/(pi**2 N**2) + gamma_2N`` is a bound at
    every N >= 1 and phase: 0.608 at N = 1, 2.027e-4 at N = 2000.  The
    spectrum keeps the bins ``m = n + 1/2`` for n in [-N, N-1], and
    ``two_slit_power_limit`` sums them all.  The amplitudes are even in n
    and a bin ``|u_n + e^{i phi} u_{n+1}|**2 / 2`` is symmetric in its two
    real amplitudes, so the dropped bins, n >= N and their mirrors, sum to
    ``sum_{n>=N} |u_n + e^{i phi} u_{n+1}|**2 <= 2 sum_{n>=N} (u_n**2 + u_{n+1}**2)``.
    Both channels have ``|u_n| = |sin(pi n a)|/(pi n) <= 1/(pi n)`` for
    n >= 1, and ``sum_{n>=N+1} 1/n**2 < 1/N`` (so ``sum_{n>=N} 1/n**2 <
    1/N**2 + 1/N``), which bounds the tail by ``2(1/N**2 + 2/N)/pi**2``.
    Rounding, with u = 2**-53: the 2N non-negative bins sum to at most 1,
    and any order of adding them is within Higham's gamma_{2N-1} of the sum
    of the computed bins (Accuracy and Stability of Numerical Algorithms,
    sec. 4.2), hence gamma_2N.  Each bin, its amplitudes and the limit round
    by a few tens of u in all, below the slack of the step ``< 1/N``:
    ``1/N - sum_{n>=N+1} 1/n**2 > 1/(3 N**2)``, so the bound keeps at least
    ``2/(3 pi**2 N**2)``, 6.7e-12 at the order cap of 1e5.
    The two limits add to one, so the channel sum is within twice the
    tolerance of 1 and needs no term of its own.
    """
    worst = 0.0
    for a, channel_totals in zip(PARSEVAL_COVER_RATIOS, totals, strict=True):
        for channel, total in zip(CHANNELS, channel_totals, strict=True):
            worst = max(worst, abs(total - scattering.two_slit_power_limit(a, channel)))
    rounding = 2 * truncation * 2.0**-53  # n u of gamma_n = n u/(1 - n u), n = 2N
    tol = 2.0 * (2 * truncation + 1) / (math.pi**2 * truncation**2) + rounding / (1.0 - rounding)
    return _bounded(
        "parseval-two-slit", worst, tol,
        f"two-slit totals vs closed limits at {truncation} terms, "
        f"ratios {PARSEVAL_COVER_RATIOS}",
    )


def _check_endpoints(visibility, distinguishability):
    """Run every operation at the degenerate gratings a = 0 and a = 1, the grid's first and last rows."""
    failures = []
    for a, row in ((0.0, 0), (1.0, -1)):
        try:
            table = AmplitudeTable.build(a, 30)
            values = [grid_function(0.25, GratingSpec(cover_ratio=a, truncation=30)), normalization_defect(table)]
            for channel in CHANNELS:
                values.append(scattering.single_slit_spectrum(table, channel).total())
                values.append(scattering.two_slit_spectrum(table, channel).total())
            if not np.isfinite([*values, *visibility[..., row].flat, *distinguishability[..., row].flat]).all():
                failures.append(f"non-finite value at a={a}")
        except Exception as exc:  # noqa: BLE001 - the check is "does not fault"
            failures.append(f"a={a}: {exc!r}")
    (v_t, v_r), (quad_t, quad_r) = visibility
    exact = {"V_t(1)": v_t[-1], "V_r(0)": v_r[0], "quadrature V_t(1)": quad_t[-1], "quadrature V_r(0)": quad_r[0]}
    failures += [f"{name} != 1" for name, value in exact.items() if value != 1.0]
    return _bounded(
        "endpoint-degenerate", float(len(failures)), 0.0,
        "; ".join(failures) if failures else "a = 0 and a = 1 run through every operation",
    )


def run_verification(
    perturb: str | None = None, truncation: int = DEFAULT_TRUNCATION
) -> list[CheckResult]:
    """Run the full invariant suite; returns one result per check.

    ``perturb`` biases a single amplitude (one of ``PERTURBATIONS``) inside
    the amplitude-driven checks, which must then fail.  The covering-ratio
    grids are fixed: ``DEFAULT_GRID`` ratios for the per-ratio checks and
    ``DEFAULT_SWEEP`` for the duality sweep.  Raises ``ValueError`` for an
    unknown ``perturb`` and for a ``truncation`` that is not an integer
    >= 1 (a bool included) before any check runs or any table is built.
    """
    if perturb is not None and perturb not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation {perturb!r}; expected one of {PERTURBATIONS}")
    # through its module: perfbench times every _check_* name of this module as a check
    grating._check_truncation(truncation)
    grid = complementarity._cover_grid(DEFAULT_GRID)
    at = grid.tolist().index  # a ratio's row; ValueError off the grid
    parseval_at = [at(a) for a in PARSEVAL_COVER_RATIOS]
    # the grid's N-term tables in stacks of `rows` ratios, each read by every
    # amplitude check before the next is built; heads holds copies of orders
    # 0 and 1, as views would keep every stack.  A stack is freed only once
    # the next is built: freed first, its pages at N = 1e5 went back to the
    # system and faulted in again (twice the minor faults, 1.3x the time).
    rows = grating._block_rows(truncation + 1)
    r, t, defects, totals = np.empty((grid.size, 2)), np.empty((grid.size, 2)), np.empty(grid.size), {}
    for first in range(0, grid.size, rows):
        part = slice(first, first + rows)
        block = _table(grid[part], truncation, perturb)
        r[part], t[part], defects[part] = block.r[:, :2], block.t[:, :2], normalization_defect(block)
        totals.update((i, _two_slit_totals(block, i - first)) for i in parseval_at if first <= i < first + rows)
    heads = AmplitudeTable(grid, r, t)
    # each channel's V and D on the grid, evaluated once for every check that
    # reads them: [route, channel, ratio], channels in CHANNELS order, the
    # closed form first, then the quadrature (V) or the amplitude route (D)
    visibility = np.array([[complementarity.visibility_closed(grid, c) for c in CHANNELS],
                           [complementarity.visibility_quadrature(grid, c) for c in CHANNELS]])
    distinguishability = np.array([[complementarity.distinguishability_closed(grid, c) for c in CHANNELS],
                                   [complementarity.distinguishability_from_amplitudes(heads, c) for c in CHANNELS]])
    return [
        _check_normalization_identity(grid, heads),
        _check_normalization_defect(grid, truncation, defects),
        _check_visibility_oracle(grid, visibility),
        _check_visibility_spot(float(visibility[0, 0, at(0.5)])),
        _check_distinguishability_dual(grid, distinguishability),
        _check_distinguishability_spot(float(distinguishability[0, 0, at(0.06)])),
        *_check_duality(),
        _check_parseval(truncation, [totals[i] for i in parseval_at]),
        _check_endpoints(visibility, distinguishability),
    ]
