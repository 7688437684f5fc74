"""Seeded workloads: the operations each one times and the check of each output.

An operation is one request a user of slitgrid makes: a CLI invocation
through ``slitgrid.cli.main(argv)`` in-process, or one call of a public
library function.  ``call`` is the timed part; ``check`` runs afterwards,
untimed, and returns ``None`` for a correct outcome or the reason it is not.
Functions are looked up through their module at call time, so the traced run
sees the wrapped versions.

Each workload is a fixed multiset of operation classes whose counts depend
only on the time budget of one pass (never on measured speed), so both sides
of a comparison run the same operations.  The seed draws the parameters inside
each class (covering ratio, phase, truncation within the class range, sweep
size, field points) and the order of the operations.

Some operations have a correct outcome that the current code does not
produce.  They carry a ``Defect``: the documented reason and a test for its
documented symptom.  A failed check that shows the symptom counts as that
defect; any other failure is a wrong output.  See README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from slitgrid import cli, geometry, grating, scattering

WORKLOADS = ("cli-tables", "duality-sweep", "verify-suite", "field-map")

# Operation counts below give about this many seconds of timed work per pass
# at the seed commit on a shared 2-core x86-64 VM; the budget of a pass
# scales them.
BASE_SECONDS = 13.0

VERIFY_CHECKS = 10

# SHA-256 of the CSV bytes of the reference configurations, taken at the
# seed commit.  The CLI promises byte-identical output for these.
REFERENCE_DIGESTS = {
    ("coeffs", "--a", "0.06", "--order", "50"):
        "c2d03983f5bf99aefbd67e1a1de6d6d07ece859e68884cbfd10607ab3d1f8907",
    ("orders", "--a", "0.06", "--order", "30", "--channel", "both"):
        "16a4f74f72daa3833b00bd66376cdf2c55ba5c7ecc1dcc7404706f6c4c257cdb",
    ("sweep", "--points", "1001", "--channel", "t"):
        "c76ee3ba8bb4c965efd0b955d24a4878ad5b2ea5e885719b25eea082d23a131d",
}

_CHANNELS = {"t": ("transmitted",), "r": ("reflected",), "both": ("transmitted", "reflected")}


@dataclass
class Defect:
    reason: str
    shows: Callable[[Any], bool]  # whether a failed outcome is this defect's documented symptom


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    items: Callable[[Any], int]
    defect: Defect | None = None


@dataclass
class Workload:
    item_unit: str
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Refused:
    error: str


@dataclass
class FieldResult:
    values: np.ndarray
    warnings: int


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _refusing(fn: Callable[[], Any]) -> Callable[[], Any]:
    def call():
        try:
            return fn()
        except ValueError as exc:
            return Refused(str(exc))

    return call


def build(name: str, seed: int, seconds: float, smoke: bool = False) -> Workload:
    """The operations of one pass sized for ``seconds``, in seeded order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    scale = 0.0 if smoke else seconds / BASE_SECONDS
    make = {
        "cli-tables": _cli_tables,
        "duality-sweep": _duality_sweep,
        "verify-suite": _verify_suite,
        "field-map": _field_map,
    }[name]
    workload = make(rng, lambda count: max(1, round(count * scale)), smoke)
    rng.shuffle(workload.ops)
    return workload


def _spread_sizes(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` sizes log-uniform over [lo, hi], one in each of ``count`` equal strata.

    Operation costs then cover a continuous range with the same shape for every
    seed.  A class of identical operations would put the median on a single
    cost, where it jumps whole steps when a shared machine switches speed.
    """
    return [lo * (hi / lo) ** ((i + rng.random()) / count) for i in range(count)]


# -- CSV parsing --------------------------------------------------------------


def _sections(text: str) -> list[tuple[str, str, list[str], np.ndarray]]:
    """(label, header, raw rows, values) per blank-line separated table."""
    out = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        rows = lines[2:]
        values = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), -1)
        out.append((lines[0], lines[1], rows, values))
    return out


def _csv_rows(result: CliResult) -> int:
    if result.code != 0:
        return 0
    lines = [line for line in result.out.split("\n") if line]
    return len(lines) - 2 * sum(line.startswith("#") for line in lines)


def _closed_amplitudes(a: float, n: int, channel: str) -> np.ndarray:
    """u_0..u_n from the closed forms, computed here with numpy."""
    orders = np.arange(1, n + 1)
    harmonics = np.where(orders % 2 == 1, 1.0, -1.0) * np.sin(np.pi * a * orders) / (np.pi * orders)
    zeroth = 1.0 - a if channel == "transmitted" else -a
    return np.concatenate(([zeroth], harmonics))


# -- checks shared by the CLI workloads ----------------------------------------


def _check_invalid(result: CliResult) -> str | None:
    if result.code != 1:
        return f"exit {result.code}, expected 1 for an invalid request"
    if result.out or not result.err.startswith("error:"):
        return "invalid request wrote output or no error message"
    return None


def _check_reference(argv: tuple[str, ...]):
    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}"
        if hashlib.sha256(result.out.encode()).hexdigest() != REFERENCE_DIGESTS[argv]:
            return "CSV bytes differ from the reference digest"
        return None

    return check


def _reference_op(argv: tuple[str, ...]) -> Op:
    return Op("reference", lambda: run_cli([*argv, "--out", "-"]), _check_reference(argv), _csv_rows)


def _invalid_op(argv: list[str]) -> Op:
    return Op("invalid", lambda: run_cli(argv), _check_invalid, _csv_rows)


# -- cli-tables ----------------------------------------------------------------


def _nan_fringe_column(result: CliResult) -> bool:
    """Exit 0 with a finite grid profile and an all-NaN fringe column."""
    if result.code != 0 or result.err:
        return False
    _, header, _, values = _sections(result.out)[-1]
    return header == "x_over_Lambda,G,I" and bool(
        np.all(np.isnan(values[:, 2])) and np.all(np.isfinite(values[:, 1]))
    )


PHASE_NAN_DEFECT = Defect("the phase is not validated on this path (NaN phase accepted)", _nan_fringe_column)


def _check_pattern(section, a: float, n: int, phase: float) -> str | None:
    label, header, _, values = section
    if not label.startswith("# pattern:") or header != "x_over_Lambda,G,I":
        return "pattern section label or header"
    if values.shape != (401, 3):
        return f"pattern table shape {values.shape}"
    x, g, intensity = values.T
    if not np.array_equal(x, (np.arange(401) - 200) / 100.0):
        return "pattern positions"
    if np.max(np.abs(intensity - np.cos(np.pi * x + phase) ** 2)) > 1e-11:
        return "fringe intensity differs from cos^2(pi x + phase)"
    if np.max(np.abs(g - g[::-1])) > 1e-9 or np.max(np.abs(g[:-100] - g[100:])) > 1e-9:
        return "grid profile not even and periodic"
    # sampled at 100 points per period, the mean keeps c0 plus every c_n with 100 | n
    orders = np.arange(100, n + 1, 100)
    aliased = np.sum(2.0 * np.sin(np.pi * a * orders) / (np.pi * orders) * np.where(orders % 2, -1, 1))
    if abs(np.mean(g[:100]) - (a + aliased)) > 1e-9:
        return "grid profile period mean differs from its Fourier coefficients"
    return None


def _check_coeffs(a: float, n: int, phase: float):
    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}"
        sections = _sections(result.out)
        if len(sections) != 2:
            return "expected coefficient and pattern sections"
        label, header, _, table = sections[0]
        if header != "n,c_n,r_n,t_n" or table.shape != (n + 1, 4):
            return "coefficient table header or shape"
        if not np.array_equal(table[:, 0], np.arange(n + 1)):
            return "coefficient orders"
        c, r, t = table[:, 1], table[:, 2], table[:, 3]
        expected_r = _closed_amplitudes(a, n, "reflected")
        if np.max(np.abs(r - expected_r)) > 1e-11 or abs(t[0] - (1.0 - a)) > 1e-12:
            return "amplitudes differ from the closed form"
        if not np.array_equal(t[1:], r[1:]):
            return "t_n != r_n for n >= 1"
        if abs(c[0] - a) > 1e-12 or np.max(np.abs(c[1:] + 2.0 * r[1:]), initial=0.0) > 1e-11:
            return "c_n != -2 r_n"
        return _check_pattern(sections[1], a, n, phase)

    return check


def _check_pattern_only(a: float, n: int, phase: float):
    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}"
        sections = _sections(result.out)
        if len(sections) != 1:
            return "expected one pattern section"
        return _check_pattern(sections[0], a, n, phase)

    return check


def _check_orders(a: float, n: int, phase: float, channels: tuple[str, ...]):
    rounding = 1e-10  # 12 printed digits on up to 4001 terms

    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}"
        sections = _sections(result.out)
        if len(sections) != 2 * len(channels):
            return "section count"
        cross = math.cos(phase) * math.sin(math.pi * a) / math.pi
        for index, channel in enumerate(channels):
            single, paired = sections[2 * index], sections[2 * index + 1]
            if not single[0].startswith(f"# single-slit {channel}:") or single[1] != "n,P":
                return "single-slit label or header"
            orders, probs = single[3].T
            if not np.array_equal(orders, np.arange(-n, n + 1)) or np.any(probs < 0):
                return "single-slit orders or negative probability"
            column = [row.split(",")[1] for row in single[2]]
            if column != column[::-1]:
                return "single-slit spectrum not even"
            limit = 1.0 - a if channel == "transmitted" else a
            defect = limit - float(np.sum(probs))
            if not -rounding <= defect <= 2.0 / (math.pi**2 * n) + rounding:
                return f"single-slit total off its limit by {defect:.3e}"
            if not paired[0].startswith(f"# two-slit {channel}:") or paired[1] != "m,P":
                return "two-slit label or header"
            orders, probs = paired[3].T
            if not np.array_equal(orders, np.arange(-n, n) + 0.5) or np.any(probs < 0):
                return "two-slit orders or negative probability"
            limit = 1.0 - a + cross if channel == "transmitted" else a - cross
            # the dropped terms sum to at most (4/pi^2)(1/N + 1/N^2)
            defect = limit - float(np.sum(probs))
            if abs(defect) > 4.0 * (n + 1) / (math.pi**2 * n * n) + rounding:
                return f"two-slit total off its limit by {defect:.3e}"
        return None

    return check


def _table_request(rng: random.Random, command: str, n: int, channel: str):
    a = round(rng.uniform(0.01, 0.99), 4)
    phase = round(rng.uniform(0.0, 2.0 * math.pi), 4)
    argv = [command, "--a", repr(a), "--order", str(n), "--phase", repr(phase), "--out", "-"]
    if command == "orders":
        argv += ["--channel", channel]
        check = _check_orders(a, n, phase, _CHANNELS[channel])
    elif command == "coeffs":
        check = _check_coeffs(a, n, phase)
    else:
        check = _check_pattern_only(a, n, phase)
    return Op(f"{command}-{n}", lambda: run_cli(argv), check, _csv_rows)


def _cli_tables(rng: random.Random, scaled, smoke: bool) -> Workload:
    ops: list[Op] = []
    for argv in list(REFERENCE_DIGESTS)[:2]:
        ops += [_reference_op(argv) for _ in range(scaled(20))]
    for command in ("coeffs", "pattern", "orders"):
        sizes = _spread_sizes(rng, scaled(270), 30, 60 if smoke else 2000)
        for i, n in enumerate(sizes):
            ops.append(_table_request(rng, command, round(n), ("t", "r", "both")[i % 3]))
    invalid = (
        ["coeffs", "--a", "1.5"],
        ["pattern", "--a", "-0.2"],
        ["orders", "--order", "0"],
        ["coeffs", "--order", "-3"],
        ["orders", "--channel", "x"],
        ["orders", "--phase", "nan"],
    )
    for argv in invalid:
        ops += [_invalid_op(list(argv)) for _ in range(scaled(10))]
    for command in ("pattern", "coeffs"):
        for _ in range(scaled(10)):
            op = _invalid_op([command, "--phase", "nan", "--out", "-"])
            op.defect = PHASE_NAN_DEFECT
            ops.append(op)
    warmup = [_reference_op(argv) for argv in list(REFERENCE_DIGESTS)[:2]]
    # the largest tables first, so that the allocator's heap and mmap threshold
    # are grown before timing and the peak RSS does not depend on the order
    fixed = random.Random(0)
    warmup += [_table_request(fixed, command, 60 if smoke else 2000, "both") for command in ("coeffs", "pattern", "orders")]
    return Workload("CSV rows", ops, warmup)


# -- duality-sweep ---------------------------------------------------------------


def _check_sweep(points: int, channels: tuple[str, ...]):
    a = np.arange(points) / (points - 1)

    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}"
        sections = _sections(result.out)
        if len(sections) != len(channels):
            return "section count"
        for channel, (label, header, rows, values) in zip(channels, sections):
            if label != f"# sweep {channel}: points={points}" or header != "a,V,D,duality":
                return "sweep label or header"
            if values.shape != (points, 4) or np.max(np.abs(values[:, 0] - a)) > 1e-12:
                return "sweep grid"
            _, v, d, duality = values.T
            width = 1.0 - a if channel == "transmitted" else a
            if np.max(np.abs(v - np.sinc(width))) > 1e-11:
                return "visibility differs from sinc(window width)"
            leak = np.sin(np.pi * a) / np.pi
            if np.max(np.abs(d - np.abs(width**2 - leak**2))) > 1e-11:
                return "distinguishability differs from the closed form"
            if np.max(np.abs(duality - (v * v + d * d))) > 1e-11:
                return "duality column is not V^2 + D^2"
            if rows[0].split(",")[3] != "1" or rows[-1].split(",")[3] != "1":
                return "duality is not exactly 1 at both endpoints"
            if np.max(duality) > 1.0 + 1e-12 or np.max(duality[1:-1]) >= 1.0:
                return "duality bound V^2 + D^2 <= 1 violated"
        return None

    return check


def _sweep_op(points: int, channel: str, extra: tuple[str, ...] = ()) -> Op:
    argv = ["sweep", "--points", str(points), "--channel", channel, *extra, "--out", "-"]
    return Op(
        f"sweep-{points}", lambda: run_cli(argv), _check_sweep(points, _CHANNELS[channel]), _csv_rows
    )


def _refuses_a(result: CliResult) -> bool:
    return result.code == 1 and not result.out and result.err.startswith("error: --a ")


IGNORED_FLAG_DEFECT = Defect("sweep validates --a, a flag it ignores", _refuses_a)


def _duality_sweep(rng: random.Random, scaled, smoke: bool) -> Workload:
    ref = list(REFERENCE_DIGESTS)[2]
    ops = [_reference_op(ref) for _ in range(scaled(10))]
    # No request at the ROADMAP size of 100001 points: it takes about 5 s, too
    # long to run in every pass, and its single timing set items_per_s.
    sizes = _spread_sizes(rng, scaled(99), 1001, 1101 if smoke else 4001)
    for i, points in enumerate(sizes):
        ops.append(_sweep_op(round(points), ("t", "r", "both")[i % 3]))
    for argv in (["sweep", "--points", "1"], ["sweep", "--points", "0"], ["sweep", "--channel", "x"]):
        ops.append(_invalid_op(list(argv)))
    for _ in range(scaled(2)):
        op = _sweep_op(1001 + 2 * rng.randrange(51), rng.choice("tr"), ("--a", "2"))
        op.defect = IGNORED_FLAG_DEFECT
        ops.append(op)
    return Workload("sweep points", ops, [_reference_op(ref)])


# -- verify-suite ---------------------------------------------------------------


def _failed_checks(result: CliResult) -> list[str]:
    return [line.split()[1] for line in result.out.split("\n") if line.startswith("FAIL")]


def _fails_only_parseval(result: CliResult) -> bool:
    return result.code == 2 and _failed_checks(result) == ["parseval-two-slit"]


PARSEVAL_N1_DEFECT = Defect("verify tolerance 0.42/N for parseval-two-slit fails at N=1", _fails_only_parseval)


def _check_verify(expect_pass: bool):
    def check(result: CliResult) -> str | None:
        lines = result.out.rstrip("\n").split("\n")
        checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        failed = len(_failed_checks(result))
        if len(checks) != VERIFY_CHECKS or lines[-1] != f"{VERIFY_CHECKS - failed}/{VERIFY_CHECKS} checks passed":
            return "verify report format"
        if expect_pass and (result.code != 0 or failed):
            return f"exit {result.code} with {failed} failed checks on a correct model"
        if not expect_pass and (result.code != 2 or not failed):
            return f"exit {result.code}: perturbed amplitudes not detected"
        return None

    return check


def _suites(result: CliResult) -> int:
    return int(result.code in (0, 2) and result.out.endswith("checks passed\n"))


def _verify_op(argv: list[str], expect_pass: bool, defect: Defect | None = None) -> Op:
    return Op("verify", lambda: run_cli(argv), _check_verify(expect_pass), _suites, defect)


def _verify_suite(rng: random.Random, scaled, smoke: bool) -> Workload:
    # suites at the default N = 2000, seeded N in 2..1999, perturbed, and N = 1
    flags = [[] for _ in range(scaled(80))]
    flags += [["--order", str(rng.randint(2, 1999))] for _ in range(scaled(14))]
    flags += [["--perturb", ("r0", "r1", "t0", "t1")[i % 4]] for i in range(scaled(14))]
    flags += [["--order", "1"] for _ in range(scaled(4))]
    ops = []
    for extra in flags:
        defect = PARSEVAL_N1_DEFECT if extra == ["--order", "1"] else None
        ops.append(_verify_op(["verify", *extra], "--perturb" not in extra, defect))
    for argv in (["verify", "--order", "0"], ["verify", "--perturb", "x9"]):
        ops.append(_invalid_op(list(argv)))
    return Workload("suites", ops, [_verify_op(["verify"], True)])


# -- field-map -------------------------------------------------------------------


def _check_field(xs, zs, a, n, phase, side, k, s, g, two_slit, paraxial):
    def check(result) -> str | None:
        if isinstance(result, Refused):
            return f"refused: {result.error}"
        values = result.values
        if values.shape != (len(zs), len(xs)) or not np.all(np.isfinite(values)):
            return "field shape or non-finite values"
        if (result.warnings > 0) == paraxial:
            return f"{result.warnings} paraxial warnings for s/g = {s / g:.3g}"
        u = _closed_amplitudes(a, n, side)
        full = np.concatenate((u[:0:-1], u))
        amps = (full[:-1] + np.exp(1j * phase) * full[1:]) / math.sqrt(2.0) if two_slit else full
        if np.max(np.abs(values)) > np.sum(np.abs(amps)) + 1e-12:
            return "field exceeds the sum of its plane-wave amplitudes"
        expected = _field_at_grating(np.asarray(xs), a, n, phase, side, k, s, g, two_slit, u)
        if np.max(np.abs(values[0] - expected)) > 1e-9:
            return "z = 0 field differs from the grid-function identity"
        return None

    return check


def _field_at_grating(x, a, n, phase, side, k, s, g, two_slit, u):
    """Field at z = 0 from the grid function: 1 - G (transmitted), -G (reflected).

    Evanescent orders are dropped, so the profile is truncated at the last
    propagating order.
    """
    k_perp = k * s / g
    period = math.pi * g / (k * s)

    def profile(m: int):  # sum of u_j exp(2i j k_perp x) over |j| <= m
        if m == 0:
            return np.full(x.shape, u[0], dtype=complex)
        spec = grating.GratingSpec(cover_ratio=a, period=period, truncation=m)
        values = grating.grid_function(x, spec)
        return (1.0 - values if side == "transmitted" else -values).astype(complex)

    if not two_slit:
        m = 0
        while m < n and 2.0 * (m + 1) * k_perp < k:
            m += 1
        return profile(m)
    if not k_perp < k:
        return np.zeros(x.shape, dtype=complex)
    m = 0
    while m + 1 < n and (2.0 * (m + 1) + 1.0) * k_perp < k:
        m += 1
    theta = k_perp * x
    edge = u[m + 1]
    base = profile(m)
    left = np.exp(1j * theta) * (base + edge * np.exp(-2j * (m + 1) * theta))
    right = np.exp(1j * (phase - theta)) * (base + edge * np.exp(2j * (m + 1) * theta))
    return (left + right) / math.sqrt(2.0)


def _field_op(rng: random.Random, two_slit: bool, side: str, n: int, paraxial: bool, rows: int) -> Op:
    k, g = round(rng.uniform(500.0, 2000.0), 3), 1.0
    s = round(rng.uniform(0.002, 0.01) if paraxial else rng.uniform(0.15, 0.3), 6)
    a = round(rng.uniform(0.02, 0.98), 4)
    phase = round(rng.uniform(0.0, 2.0 * math.pi), 4)
    period = math.pi * g / (k * s)
    xs = [rng.uniform(-period, period) for _ in range(16)]
    zs = [0.0] + [rng.uniform(0.0, 20.0 * period) for _ in range(rows - 1)]

    def call():
        spec = grating.GratingSpec(cover_ratio=a, truncation=n)
        config = scattering.TwoSlitConfig(spec=spec, delta_phi=phase) if two_slit else spec
        setup = geometry.SetupGeometry(k=k, s=s, g=g)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = [[scattering.synthesize_field(x, z, config, side, setup) for x in xs] for z in zs]
        count = sum(issubclass(w.category, geometry.ParaxialWarning) for w in caught)
        return FieldResult(np.array(values), count)

    check = _check_field(xs, zs, a, n, phase, side, k, s, g, two_slit, paraxial)
    return Op(f"field-{n}", _refusing(call), check, _points)


def _grid_op(rng: random.Random, size: int) -> Op:
    a = round(rng.uniform(0.02, 0.98), 4)
    x = np.array([rng.uniform(-3.0, 3.0) for _ in range(size)])
    n = 2000
    probe = np.array(sorted(rng.sample(range(size), min(size, 32))))
    orders = np.arange(1, n + 1)
    coeffs = 2.0 * np.where(orders % 2, -1.0, 1.0) * np.sin(np.pi * a * orders) / (np.pi * orders)

    def check(result) -> str | None:
        if isinstance(result, Refused) or np.shape(result) != (size,):
            return "grid function shape"
        expected = a + np.cos(2.0 * np.pi * np.multiply.outer(x[probe], orders)) @ coeffs
        if not np.all(np.isfinite(result)) or np.max(np.abs(result[probe] - expected)) > 1e-9:
            return "grid function differs from its cosine series"
        return None

    call = _refusing(lambda: grating.grid_function(x, grating.GratingSpec(cover_ratio=a, truncation=n)))
    return Op(f"grid-{size}", call, check, _points)


def _points(result) -> int:
    if isinstance(result, Refused):
        return 0
    return np.size(result.values if isinstance(result, FieldResult) else result)


def _invalid_field_op(make: Callable[[], Any]) -> Op:
    def check(result) -> str | None:
        return None if isinstance(result, Refused) else "invalid request accepted"

    return Op("invalid", _refusing(make), check, _points)


def _field_map(rng: random.Random, scaled, smoke: bool) -> Workload:
    ops: list[Op] = []
    for two_slit in (False, True):
        for side in ("transmitted", "reflected"):
            for n, paraxial, count in ((30, True, 60), (200, True, 17), (30, False, 9)):
                for rows in _spread_sizes(rng, scaled(count), 2, 32):
                    ops.append(_field_op(rng, two_slit, side, n, paraxial, round(rows)))
    # grids of at least 2500 x 2000 float64 temporaries (40 MB) stay above
    # glibc's largest mmap threshold (32 MiB), so they go back to the system
    # on free and the peak RSS does not depend on the order of the operations.
    # The sizes are fixed: op_tail_ms, the 11th-slowest operation, falls among
    # the identical 2500-position grids rather than on one seeded size.
    sizes = [20000] * scaled(3) + [2500] * scaled(48)
    ops += [_grid_op(rng, 500 if smoke else round(size)) for size in sizes]
    setup = geometry.SetupGeometry(k=1000.0, s=0.005, g=1.0)
    spec = grating.GratingSpec(cover_ratio=0.3, truncation=30)
    for make in (
        lambda: scattering.synthesize_field(0.0, 0.0, spec, "front", setup),
        lambda: grating.GratingSpec(cover_ratio=1.5),
        lambda: scattering.TwoSlitConfig(spec=spec, delta_phi=math.inf),
    ):
        ops.append(_invalid_field_op(make))
    warmup = [_field_op(rng, True, "transmitted", 30, True, 8), _grid_op(rng, 500)]
    return Workload("field points", ops, warmup)
