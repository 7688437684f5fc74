"""Regression gate: the shipped numbers do not drift.

The CLI digests, the verify report and the failing-check sets below were
recorded from the package before the amplitude harmonics and the channel
dispatch were each gathered into one function; any change in the
reference tables, in the verify values or in the checks a perturbation
trips fails here.  The CLI digests are read from ``reference_digests.txt``
next to this file, one ``<sha256> <args>`` per line, which the CI console
script step reads too; the first three equal ``REFERENCE_DIGESTS`` in
``perfbench/workloads.py``, which keeps its own copy.  The digest of the
100001-point sweep on both channels, the reference size of the sweep, was
recorded from the scalar sweep loop before the duality kernel took arrays.
The digest of a non-default ``orders`` request, at a non-zero phase, was
recorded before the commands handed ``format_number`` Python floats
instead of numpy scalars and before ``main`` shared one parser between
calls.  The digests of the non-default verify reports were recorded
before the verify suite evaluated the closed forms over its grid as
arrays.  The field digest was recorded before ``synthesize_field``
memoised its plane-wave decomposition, and ``seed_synthesize_field`` keeps
that formula as the bit-level reference, as ``seed_sin_pi`` keeps the
scalar ``math.sin`` reduction that ``sin_pi`` replaced and
``seed_duality`` the Python-float ``max`` and ``**`` of the closed forms.

Bit-level pins (the verify report, and the closed forms equal to those
scalar ``math``/``pow`` references) depend on the numpy build and the CPU; CI
prints both before running the tests.  An input that fits one block stays
bit for bit the dense reference.  A larger one takes the factored sum,
which calls no BLAS: a subprocess test checks that its bytes are the same
under one and two BLAS threads, and an mpmath test (``tests/oracle.py``)
bounds its distance from the exact series.  CI runs the whole suite under
one BLAS thread as well as under the runner's default.
"""

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
import slitgrid
from slitgrid import cli
from slitgrid.cli import main
from slitgrid.complementarity import (
    complementarity_sweep,
    distinguishability_closed,
    visibility_closed,
)
from slitgrid.geometry import ParaxialWarning, SetupGeometry
from slitgrid.grating import (
    _ROW_ALIGN,
    CHANNELS,
    AmplitudeTable,
    _block_rows,
    _factored,
    GratingSpec,
    grid_function,
    sampling_window,
    sin_pi,
    sinc_pi,
)
from slitgrid.scattering import (
    TwoSlitConfig,
    _mirrored,
    _plane_waves,
    interference_intensity,
    synthesize_field,
    two_slit_power_limit,
)
from slitgrid.verify import run_verification

def read_reference_digests():
    """``{argv: sha256}`` from ``reference_digests.txt``, one ``<sha256> <args>`` per line."""
    path = os.path.join(os.path.dirname(__file__), "reference_digests.txt")
    with open(path, encoding="utf-8") as handle:
        rows = [line.split(maxsplit=1) for line in handle]
    return {tuple(args.split()): digest for digest, args in rows}


REFERENCE_DIGESTS = read_reference_digests()

# both spectra loops of orders at a non-zero phase; orders has no fringe column
PHASE_ORDERS = ("orders", "--a", "0.3127", "--order", "245", "--phase", "1.2345", "--channel", "both")

REFERENCE_COEFFS = ("coeffs", "--a", "0.06", "--order", "50")

DEFAULT_VERIFY_REPORT = (
    "PASS  normalization-identity   value=2.220446e-16  tolerance=1.000000e-14  max |r0^2 + t0^2 + 2(a - a^2) - 1| over 101 covering ratios\n"
    "PASS  normalization-defect     value=1.013212e-04  tolerance=2.026424e-04  max |defect| at 2000 terms over 101 covering ratios\n"
    "PASS  visibility-oracle        value=7.771561e-16  tolerance=1.000000e-13  max |closed - quadrature| over 101 ratios x both channels, 16-node Gauss-Legendre\n"
    "PASS  visibility-spot          value=0.000000e+00  tolerance=1.000000e-12  |V_t(1/2) - 2/pi|\n"
    "PASS  distinguishability-dual  value=0.000000e+00  tolerance=1.000000e-14  max |amplitude route - closed form| over 101 ratios x both channels\n"
    "PASS  distinguishability-spot  value=5.647847e-07  tolerance=1.000000e-06  |D_t(0.06) - 0.880043|\n"
    "PASS  duality-bound            value=1.000000e+00  tolerance=1.000000e+00  max V^2 + D^2 over 1001 covering ratios\n"
    "PASS  duality-endpoints        value=3.066137e-01  tolerance=5.000000e-01  exactly 1 at a = 0 and a = 1, interior minimum strictly below 1/2\n"
    "PASS  parseval-two-slit        value=1.729660e-04  tolerance=2.100000e-04  two-slit totals vs closed limits at 2000 terms, ratios (0.06, 0.25, 0.5, 0.75)\n"
    "PASS  endpoint-degenerate      value=0.000000e+00  tolerance=0.000000e+00  a = 0 and a = 1 run through every operation\n"
    "10/10 checks passed\n"
)

AMPLITUDE_CHECKS = ("normalization-defect", "distinguishability-dual", "parseval-two-slit")
PERTURBED_FAILURES = {
    "r0": {"normalization-identity", *AMPLITUDE_CHECKS},
    "t0": {"normalization-identity", *AMPLITUDE_CHECKS},
    "r1": set(AMPLITUDE_CHECKS),
    "t1": set(AMPLITUDE_CHECKS),
}

# SHA-256 over the float.hex of synthesize_field on field_digest_cases(),
# recorded before the plane-wave decomposition was memoised
FIELD_DIGEST = "468ce6c89038dac08261bfbf4228deab912878f8fbb737870ba87239c7af7cd8"

MODULES = ("complementarity", "geometry", "grating", "scattering", "verify", "cli")


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def seed_sin_pi(u: float) -> float:
    """Scalar sin_pi as first written: the reduction to [0, 1/2], then ``math.sin``."""
    red = float(u) % 2.0
    sign = 1.0
    if red >= 1.0:
        sign, red = -1.0, red - 1.0
    if red > 0.5:
        red = 1.0 - red
    return sign * math.sin(math.pi * red)


def seed_sinc_pi(u: float) -> float:
    return 1.0 if u == 0.0 else seed_sin_pi(u) / (math.pi * u)


def seed_duality(a: float, channel: str) -> tuple[float, float, float, float]:
    """``(i_max, i_min, V, D)`` in Python floats as first written: ``max`` and libm ``pow``."""
    width = 1.0 - a if channel == "transmitted" else a
    s = seed_sin_pi(a)
    i_max = (math.pi * width + s) / (2.0 * math.pi)
    i_min = max(0.0, (math.pi * width - s) / (2.0 * math.pi))
    leak = s / math.pi
    return i_max, i_min, seed_sinc_pi(width), abs(width**2 - leak * leak)


def seed_grid_function(x, cover_ratio, truncation, period):
    """The dense profile series exactly as first written, as the reference."""
    n = np.arange(1, truncation + 1)
    signs = np.where(n % 2 == 1, -1.0, 1.0)
    c = 2.0 * signs * sin_pi(cover_ratio * n) / (math.pi * n)
    angles = (2.0 * math.pi / period) * np.multiply.outer(np.asarray(x, dtype=float), n)
    return float(cover_ratio) + np.cos(angles) @ c


def seed_synthesize_field(x, z, config, side, setup):
    """synthesize_field as it was before its decomposition was memoised, as the reference."""
    spec = config.spec if isinstance(config, TwoSlitConfig) else config
    _, z_sign = sampling_window(spec.cover_ratio, side)
    k_perp = setup.k * setup.s / setup.g
    table = AmplitudeTable.build(spec.cover_ratio, spec.truncation)
    full = _mirrored(table.amplitudes(side))
    if isinstance(config, TwoSlitConfig):
        n = np.arange(-spec.truncation, spec.truncation)
        k_x = (2.0 * n + 1.0) * k_perp
        phase_2 = np.exp(1j * config.delta_phi)
        amps = (full[:-1] + phase_2 * full[1:]) / math.sqrt(2.0)
    else:
        n = np.arange(-spec.truncation, spec.truncation + 1)
        k_x = 2.0 * n * k_perp
        amps = full.astype(complex)
    propagating = np.abs(k_x) < setup.k
    k_x = k_x[propagating]
    amps = amps[propagating]
    k_z = np.sqrt(setup.k * setup.k - k_x * k_x)
    phases = np.exp(1j * (z_sign * k_z * z + k_x * x))
    return complex(np.sum(amps * phases))


def field_bits(value: complex) -> tuple[str, str]:
    """The exact bits of both parts; equal bits imply ``==`` on each part."""
    return value.real.hex(), value.imag.hex()


def field_config(cover_ratio, truncation, delta_phi):
    spec = GratingSpec(cover_ratio, truncation=truncation)
    return spec if delta_phi is None else TwoSlitConfig(spec, delta_phi)


def digest_of(argv, capsys) -> str:
    assert main([*argv, "--out", "-"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def file_digest_of(argv, path) -> str:
    assert main([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(REFERENCE_DIGESTS), ids=" ".join)
def test_reference_csv_digest(argv, capsys, tmp_path):
    # the 100001-point sweep writes two tables, each past one chunk of the CSV writer
    assert digest_of(argv, capsys) == REFERENCE_DIGESTS[argv]
    assert file_digest_of(argv, tmp_path / "out.csv") == REFERENCE_DIGESTS[argv]


def test_a_request_leaves_no_settings_to_the_next(capsys):
    # main shares one parser between calls; every setting comes from the call
    digest_of(("coeffs", "--a", "0.5", "--order", "7", "--phase", "1"), capsys)
    assert digest_of(REFERENCE_COEFFS, capsys) == REFERENCE_DIGESTS[REFERENCE_COEFFS]


def test_a_bad_config_file_leaves_no_settings_to_the_next(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("a = tiny\norder = 50\n")
    assert main(["coeffs", "--config", str(bad), "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: argument --a: invalid float value: 'tiny'")
    good = tmp_path / "run.cfg"
    good.write_text("a = 0.06\norder = 50\n")
    assert digest_of(("coeffs", "--config", str(good)), capsys) == REFERENCE_DIGESTS[REFERENCE_COEFFS]


def test_two_threads_at_once_get_the_bytes_of_each_request_alone(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("a = 0.06\norder = 50\n")
    requests = [["coeffs", "--config", str(config)], list(PHASE_ORDERS)]
    alone = []
    for index, argv in enumerate(requests):
        path = tmp_path / f"alone-{index}.csv"
        assert main([*argv, "--out", str(path)]) == 0
        alone.append(path.read_bytes())
    assert hashlib.sha256(alone[0]).hexdigest() == REFERENCE_DIGESTS[REFERENCE_COEFFS]
    assert hashlib.sha256(alone[1]).hexdigest() == REFERENCE_DIGESTS[PHASE_ORDERS]

    def request(index, barrier, codes):
        barrier.wait()
        codes[index] = main([*requests[index], "--out", str(tmp_path / f"thread-{index}.csv")])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cli._build_parser.cache_clear()  # both threads may race to build it
            barrier, codes = threading.Barrier(2, timeout=60), [None, None]
            threads = [threading.Thread(target=request, args=(index, barrier, codes)) for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert codes == [0, 0]
            assert [(tmp_path / f"thread-{index}.csv").read_bytes() for index in range(2)] == alone
    finally:
        sys.setswitchinterval(interval)


def test_default_verify_report_is_unchanged(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == DEFAULT_VERIFY_REPORT


# SHA-256 of the stdout of non-default verify requests; each exits 2
# (at --order 1, parseval-two-slit is the known failure of its tolerance)
VERIFY_REPORT_DIGESTS = {
    ("--order", "1"): "30fc12f782fd43f6e849df0c665cef2e044089952cad9d4b7a711d04a94af4ec",
    ("--order", "7", "--perturb", "r1"): "7ee0e812ac658c880187ccec9125509b914ed1fe57368f12f1bb3c405f7f8e13",
    ("--order", "400", "--perturb", "t1"): "178c07abc60f2ad88132b214489ce316722da4bbcd8083f12bc52a1b0fbca16a",
}


@pytest.mark.parametrize("argv", list(VERIFY_REPORT_DIGESTS), ids=" ".join)
def test_non_default_verify_report_is_unchanged(argv, capsys):
    assert main(["verify", *argv]) == 2
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_REPORT_DIGESTS[argv]


@pytest.mark.parametrize("points", ["16", "64"])
def test_verify_ignores_the_points_flag(points, capsys):
    # verify reads no --points, so any count leaves the report as it is
    assert main(["verify", "--points", points]) == 0
    assert capsys.readouterr().out == DEFAULT_VERIFY_REPORT


@pytest.mark.parametrize("perturb", sorted(PERTURBED_FAILURES))
def test_each_perturbation_fails_its_checks(perturb):
    failed = {result.name for result in run_verification(perturb=perturb) if not result.passed}
    assert failed == PERTURBED_FAILURES[perturb]


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.1, max_value=10.0),
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=16),
)
@example(a=6.22901694889702e-309, truncation=48, period=1.0, xs=[-0.57])  # differs by 2 units
def test_grid_function_matches_the_dense_reference(a, truncation, period, xs):
    spec = GratingSpec(cover_ratio=a, period=period, truncation=truncation)
    got = grid_function(np.array(xs), spec)
    want = seed_grid_function(xs, a, truncation, period)
    if a == 0.0 or a >= 4.0 * sys.float_info.min:
        assert bits(got) == bits(want)
        assert bits(grid_function(xs[0], spec)) == bits(seed_grid_function(xs[0], a, truncation, period))
    else:
        # below the normal range the harmonics are subnormal: -2*r_n rounds
        # once at r_n and the reference once at 2*r_n, so each coefficient
        # may differ in its last subnormal unit
        assert np.max(np.abs(got - want)) <= 2 * truncation * math.ulp(0.0)


def factored_bound(coefficients, period):
    """How far the factored sum may lie from the exact series.

    In units u = 2**-53: each coefficient, phase, cosine, sine and product
    adds a few u of |c_n| (64 u in all is generous), and the sums over r
    and q add at most 2*sqrt(N) roundings of a value within 1 + sum |c_n|.
    The reduced position is within u of x/period mod 1, which moves the
    sum by at most 2*pi*sum(n*|c_n|) u; at period 1 it is exact.
    """
    terms = coefficients.size
    bound = (2.0 * math.sqrt(terms) + 64.0) * (1.0 + np.sum(np.abs(coefficients)))
    if period != 1.0:
        bound += 2.0 * math.pi * np.sum(np.arange(1, terms + 1) * np.abs(coefficients))
    return 2.0**-53 * bound


def check_factored_rows(x, a, terms, period):
    """Each row of the factored sum within its bound of the 30-digit series, and within 1e-14 of the dense error."""
    coefficients = -2.0 * AmplitudeTable.build(a, terms).r[1:]
    got = a + _factored(x, period, coefficients)
    dense = seed_grid_function(x, a, terms, period)
    bound = factored_bound(coefficients, period)
    for row, want in enumerate(oracle.grid_profile(x, a, terms, period)):
        assert abs(got[row] - want) <= bound, (a, period, x[row])
        assert abs(got[row] - want) <= abs(dense[row] - want) + 1e-14, (a, period, x[row])


@pytest.mark.parametrize("terms", [1, 30, 2000, 2521])
def test_factored_profile_is_within_its_bound_of_the_exact_sum(terms):
    # seeded rows of the factored sum, which grid_function takes for an
    # input larger than one block: three at random, one at a strip edge,
    # where the profile is steepest
    rng = np.random.default_rng(terms)
    for _ in range(4):
        a, period = rng.uniform(0.0, 1.0), rng.uniform(0.1, 10.0)
        edge = period * (round(4.0 / period) + (1.0 - a) / 2.0)
        check_factored_rows(np.append(rng.uniform(-5.0, 5.0, 3), edge), a, terms, period)


def test_factored_profile_is_within_its_bound_on_the_cli_grid():
    # pattern --order 20000 at its rows x = -1.47 and 1.53, where the
    # dense series is off by 2.3e-12 and 2.4e-12
    check_factored_rows(np.array([-1.47, 1.53]), 0.06, 20000, 1.0)


def test_multi_block_input_takes_the_factored_sum():
    spec = GratingSpec(cover_ratio=0.37, period=0.8, truncation=2000)
    x = np.random.default_rng(4).uniform(-5.0, 5.0, _block_rows(2000) + _ROW_ALIGN)
    coefficients = -2.0 * AmplitudeTable.build(0.37, 2000).r[1:]
    assert bits(grid_function(x, spec)) == bits(0.37 + _factored(x, 0.8, coefficients))


# SHA-256 of grid_function's bytes on field-map's two grid shapes (the
# larger at 30 terms, where it fits one block) and on coeffs' 401 CLI
# positions at the largest order the CLI accepts
THREAD_CHECK = """
import hashlib, json
import numpy as np
from slitgrid.grating import GratingSpec, grid_function

rng = np.random.default_rng(13)
digests = []
for x, terms in [
    (rng.uniform(-3.0, 3.0, 2500), 2000),
    (rng.uniform(-3.0, 3.0, 20000), 30),
    ((np.arange(401) - 200) / 100.0, 100000),
]:
    values = grid_function(x, GratingSpec(cover_ratio=rng.uniform(0.02, 0.98), truncation=terms))
    digests.append(hashlib.sha256(values.tobytes()).hexdigest())
print(json.dumps(digests))
"""


def test_profile_bits_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(slitgrid.__file__))
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", THREAD_CHECK], env=env, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(run.stdout))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("terms", [1, 30, 2000, 2521, 100000])
def test_input_fitting_one_block_equals_the_dense_reference(terms):
    # one block is one dense-shaped gemv, whatever the BLAS thread count
    rng = np.random.default_rng(terms)
    for size in sorted({1, 17, 401, _block_rows(terms) + _ROW_ALIGN - 1}):
        if size * terms > 5_000_000:
            continue
        assert size < _block_rows(terms) + _ROW_ALIGN
        a, period = rng.uniform(0.0, 1.0), rng.uniform(0.1, 10.0)
        x = rng.uniform(-5.0, 5.0, size)
        got = grid_function(x, GratingSpec(cover_ratio=a, period=period, truncation=terms))
        assert bits(got) == bits(seed_grid_function(x, a, terms, period)), size


SUBNORMAL = 2.2250738585072014e-308 / 3.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64),
    st.sampled_from(["transmitted", "reflected"]),
)
@example(ratios=[0.0, 1.0], channel="transmitted")
@example(ratios=[0.0, 1.0], channel="reflected")
@example(ratios=[5e-324, SUBNORMAL, 1.0 - 2.0**-53], channel="transmitted")
@example(ratios=[5e-324, SUBNORMAL, 1.0 - 2.0**-53], channel="reflected")
def test_duality_kernel_arrays_equal_the_scalar_calls_bit_for_bit(ratios, channel):
    # both equal the Python-float reference, whose pow and max the sweep
    # digests were recorded under
    seed = [seed_duality(x, channel) for x in ratios]
    i_max, i_min, v, d = (bits(column) for column in zip(*seed))
    a = np.array(ratios)
    result = visibility_closed(a, channel)
    scalar = [visibility_closed(x, channel) for x in ratios]
    assert bits(result.visibility) == bits([r.visibility for r in scalar]) == v
    assert bits(result.i_max) == bits([r.i_max for r in scalar]) == i_max
    assert bits(result.i_min) == bits([r.i_min for r in scalar]) == i_min
    d_scalar = [distinguishability_closed(x, channel) for x in ratios]
    assert bits(distinguishability_closed(a, channel)) == bits(d_scalar) == d
    assert bits(sin_pi(a)) == bits([sin_pi(x) for x in ratios])
    assert bits(sinc_pi(a)) == bits([sinc_pi(x) for x in ratios])
    columns = complementarity_sweep(a, channel)
    assert len(columns) == len(ratios)
    dualities = [v_x * v_x + d_x * d_x for _, _, v_x, d_x in seed]
    assert bits(columns.duality) == bits(dualities)


@pytest.mark.parametrize("channel", ["transmitted", "reflected"])
def test_duality_kernel_equals_the_scalar_calls_on_a_dense_draw(channel):
    # hypothesis favours short, simple floats; the squares where pow and
    # w*w round apart are about 0.1 % of uniform draws, so look at many
    ratios = np.random.default_rng(3).random(20000).tolist()
    columns = complementarity_sweep(ratios, channel)
    seed = [seed_duality(x, channel)[2:] for x in ratios]
    v, d = zip(*seed)
    assert bits(columns.visibility) == bits(v)
    assert bits(columns.distinguishability) == bits(d)
    assert bits(columns.duality) == bits([v_x * v_x + d_x * d_x for v_x, d_x in seed])
    scalar = [(visibility_closed(x, channel).visibility, distinguishability_closed(x, channel)) for x in ratios]
    assert bits(scalar) == bits(seed)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=16))
@example(us=[0.0, -0.0, 0.5, -0.5, 1.0, 1.5, 2.0, -3.0, 5e-324, -5e-324])
def test_sin_pi_and_sinc_pi_arrays_equal_the_scalar_calls_bit_for_bit(us):
    # numpy's sin on the reduced range rounds as the C library's, on arrays
    # and on scalars alike; the sweep digests were recorded under it
    u = np.array(us)
    for ours, seed in ((sin_pi, seed_sin_pi), (sinc_pi, seed_sinc_pi)):
        want = bits([seed(x) for x in us])
        assert bits(ours(u)) == want
        assert bits([ours(x) for x in us]) == want
        assert all(type(ours(x)) is float for x in us)


# every closed form on its one numpy path: a scalar gives a Python float
ONE_PATH = {
    "sin_pi": sin_pi,
    "sinc_pi": sinc_pi,
    "visibility_closed.i_max": lambda a: visibility_closed(a).i_max,
    "visibility_closed.i_min": lambda a: visibility_closed(a).i_min,
    "visibility_closed.visibility": lambda a: visibility_closed(a).visibility,
    "distinguishability_closed": distinguishability_closed,
    "interference_intensity": interference_intensity,
    "grid_function": lambda x: grid_function(x, GratingSpec(cover_ratio=0.3, truncation=20)),
}
SCALARS = {"float": 0.3, "float32": np.float32(0.3), "float64": np.float64(0.3), "0-d": np.array(0.3)}


@pytest.mark.parametrize("name", ONE_PATH)
@pytest.mark.parametrize("kind", [*SCALARS, "1-d"])
def test_a_scalar_gives_a_float_and_an_array_an_array(name, kind):
    f = ONE_PATH[name]
    if kind == "1-d":
        assert type(f(np.array([0.3, 0.7]))) is np.ndarray
        return
    value = f(SCALARS[kind])
    assert type(value) is float
    # the scalar is a one-element array on the same path
    assert bits(value) == bits(f(np.array([SCALARS[kind]])))


@pytest.mark.filterwarnings("ignore::slitgrid.geometry.ParaxialWarning")
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=200),
    st.one_of(st.none(), st.floats(min_value=-10.0, max_value=10.0)),
    st.sampled_from(CHANNELS),
    st.floats(min_value=0.5, max_value=2000.0),
    st.floats(min_value=1e-4, max_value=1.5),  # s/g, paraxial up to past k_perp = k
    st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)), min_size=1, max_size=4),
)
@example(a=0.3, truncation=3, delta_phi=0.9, side="reflected", k=1.0, ratio=0.2, points=[(0.7, 1.3)])
def test_synthesize_field_equals_the_unmemoised_formula_bit_for_bit(
    a, truncation, delta_phi, side, k, ratio, points
):
    # delta_phi None is one slit; the first call fills a cleared cache, the
    # rest (the same point again, then the other points) read it
    config = field_config(a, truncation, delta_phi)
    setup = SetupGeometry(k=k, s=ratio, g=1.0)
    _plane_waves.cache_clear()
    for x, z in [points[0], *points]:
        want = seed_synthesize_field(x, z, config, side, setup)
        assert field_bits(synthesize_field(x, z, config, side, setup)) == field_bits(want)


# values that compare equal but differ in type or in the sign of zero, in
# the order they are called; the phase exists only with both slits open.
# The configuration classes widen float32 values to float64, so a float32
# cover ratio or wavenumber no longer rounds 1 - a or k*k in float32.
EQUAL_KEYS = [
    ("cover_ratio", (0, 0.0, -0.0, 0), "cover 0, 0.0, -0.0"),
    ("cover_ratio", (-0.0, 0.0, 0), "cover -0.0, 0.0, 0"),
    ("cover_ratio", (0.3, np.float64(0.3), np.array(0.3)), "cover float, numpy"),
    ("cover_ratio", (np.float32(0.1), float(np.float32(0.1)), np.array(0.1, np.float32)), "cover float32"),
    ("cover_ratio", (1, 1.0), "cover 1, 1.0"),
    ("truncation", (7, np.int64(7)), "truncation int, int64"),
    ("delta_phi", (0, 2.0 * math.pi, 0.0), "phase 0, 2pi"),
    ("k", (np.float32(1234.567), float(np.float32(1234.567)), np.array(1234.567, np.float32)), "k float32"),
]


@pytest.mark.filterwarnings("ignore::slitgrid.geometry.ParaxialWarning")
@pytest.mark.parametrize(
    "field, values, two_slit",
    [
        pytest.param(field, values, two_slit, id=f"{name}, {'two' if two_slit else 'one'} slit")
        for field, values, name in EQUAL_KEYS
        for two_slit in ((True,) if field == "delta_phi" else (False, True))
    ],
)
@pytest.mark.parametrize("side", CHANNELS)
@pytest.mark.parametrize("ratio", [0.005, 0.6], ids=["paraxial", "zeroth order only"])
def test_equal_keys_of_another_type_or_zero_sign_keep_their_bits(field, values, two_slit, side, ratio):
    # back to back, so each value after the first may read the entry of an
    # equal one; at s/g = 0.6 a single slit passes only the zeroth order
    _plane_waves.cache_clear()
    for value in values:
        settings = {"cover_ratio": 0.3, "truncation": 7, "delta_phi": 0.9 if two_slit else None, "k": 1000.0}
        settings[field] = value
        setup = SetupGeometry(k=settings.pop("k"), s=ratio, g=1.0)
        config = field_config(**settings)
        for x, z in ((0.0, 0.0), (0.1, -0.2), (-1.7, 3.1)):
            want = seed_synthesize_field(x, z, config, side, setup)
            assert field_bits(synthesize_field(x, z, config, side, setup)) == field_bits(want)


def field_bound(amps, k_x, k_z, x, z):
    """How far ``synthesize_field`` may lie from the exact plane-wave sum of its cached arrays.

    In units u = 2**-53, for the M propagating orders and
    ``T_j = |k_z,j * z| + |k_x,j * x|``:
    - the argument ``fl(fl(k_z z) + fl(k_x x))`` is within gamma_2 ~ 2u of
      ``T_j`` of ``theta_j`` (the phase factors have a zero real part, so
      the cross terms of each complex product are exact zeros), and a
      phase error moves ``exp(i*theta)`` by at most itself.  This term
      grows with |theta_j| and dominates away from the origin;
    - the complex exp of ``+-0 + i*theta`` is the C library's cos and sin,
      each part within 2 ulps (glibc documents 1): 4u;
    - the product with ``a_j``: sqrt(2)*gamma_2 ~ 3u of ``|a_j|`` (Higham,
      Accuracy and Stability of Numerical Algorithms, Lemma 3.5);
    - ``np.add.reduce``: a sum in any order is within gamma_(M-1) of the
      absolute sum on each of the real and imaginary parts (ibid., eq. 4.4),
      so within sqrt(2)*gamma_(M-1) ~ 1.5 (M - 1) u of ``sum |p_j|``.
      numpy's pairwise order does far better, but the bound does not rely
      on it.
    Each ``|p_j|`` is at most ``(1 + 8u) |a_j|``, so the field is within
    ``u * sum_j |a_j| (2 T_j + 7 + 1.5 (M - 1))``.  The factor 1.01 covers
    the gamma denominators, the ``1 + 8u`` and the rounding of the bound.
    """
    terms = 2.0 * (np.abs(k_z * z) + np.abs(k_x * x)) + 7.0 + 1.5 * max(amps.size - 1, 0)
    return 1.01 * 2.0**-53 * float(np.sum(np.abs(amps) * terms))


@pytest.mark.filterwarnings("ignore::slitgrid.geometry.ParaxialWarning")
@pytest.mark.parametrize("truncation", [1, 30, 200])
@pytest.mark.parametrize("two_slit", [False, True], ids=["one slit", "two slits"])
@pytest.mark.parametrize("side", CHANNELS)
def test_field_is_within_its_bound_of_the_exact_plane_wave_sum(truncation, two_slit, side):
    # seeded configurations, paraxial (every order propagates) and not (a
    # few do); the origin first, where only the product and the sum round
    rng = np.random.default_rng([truncation, two_slit, CHANNELS.index(side)])
    for ratio in (rng.uniform(1e-4, 0.1), rng.uniform(0.1, 1.5)):
        a, k = rng.uniform(0.0, 1.0), rng.uniform(1.0, 2000.0)
        config = field_config(a, truncation, rng.uniform(0.0, 7.0) if two_slit else None)
        setup = SetupGeometry(k=k, s=ratio, g=1.0)
        delta_phi = config.delta_phi if two_slit else None
        k_perp = setup.k * setup.s / setup.g
        amps, ik_x, ik_z = _plane_waves(a, truncation, delta_phi, side, k_perp, k)
        assert not np.any(ik_x.real) and not np.any(ik_z.real)
        k_x, k_z = ik_x.imag, ik_z.imag
        for x, z in [(0.0, 0.0), *rng.uniform(-50.0, 50.0, (3, 2)).tolist()]:
            field = synthesize_field(x, z, config, side, setup)
            want = oracle.plane_wave_sum(amps, k_x, k_z, x, z)
            assert abs(field - want) <= field_bound(amps, k_x, k_z, x, z), (a, k, ratio, x, z)


def test_float32_inputs_are_widened_to_float64():
    # one float32 value of each configuration class: stored as the float
    # it equals, so nothing rounds in float32 afterwards
    a, k, phase = np.float32(0.1), np.float32(1234.567), np.float32(0.9)
    spec = GratingSpec(a, period=np.float32(0.7))
    setup = SetupGeometry(k=k, s=np.float32(0.005), g=np.float32(1.0))
    config = TwoSlitConfig(spec, phase)
    values = (spec.cover_ratio, spec.period, setup.k, setup.s, setup.g, config.delta_phi)
    assert [type(value) for value in values] == [float] * 6
    assert AmplitudeTable.build(a, 3).t[0] == 1.0 - float(a) == 0.8999999985098839
    # with k rounding k*k in float32 this was -0x1.3aa8f127bcbe3p-2, a
    # relative error of 7.5e-6; now the bits of k = float(k)
    spec = GratingSpec(0.3, truncation=7)
    field = synthesize_field(0.1, 0.2, spec, "transmitted", SetupGeometry(k=k, s=0.005, g=1.0))
    assert field.real.hex() == "-0x1.3aa855d6d5924p-2"
    wide = SetupGeometry(k=float(k), s=0.005, g=1.0)
    assert field_bits(field) == field_bits(seed_synthesize_field(0.1, 0.2, spec, "transmitted", wide))


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("a", [0.1, 0.3, 0.77])
def test_float32_cover_ratios_give_the_bits_of_their_float64_value(a, channel):
    # sampling_window widens a float32 ratio, scalar or array, before the
    # closed forms round 1 - a or pi*width; float64 inputs keep their bits
    def values(ratio):
        closed = visibility_closed(ratio, channel)
        d = distinguishability_closed(ratio, channel)
        limit = two_slit_power_limit(ratio, channel)
        return [bits(value) for value in (closed.i_max, closed.i_min, closed.visibility, d, limit)]

    wide = float(np.float32(a))
    want = values(wide)
    for ratio in (np.float32(a), np.array([a], np.float32), np.float64(wide), np.array([wide])):
        assert values(ratio) == want, repr(ratio)


def field_digest_cases():
    """Seeded (x, z, config, side, setup) points: one and two slits, both sides,
    truncations 1 to 200, paraxial and not, eight points per configuration."""
    rng = random.Random(2005)
    for two_slit in (False, True):
        for side in CHANNELS:
            for truncation in (1, 7, 30, 200):
                for ratio in (0.005, 0.3):
                    spec = GratingSpec(rng.uniform(0.0, 1.0), truncation=truncation)
                    config = TwoSlitConfig(spec, rng.uniform(0.0, 7.0)) if two_slit else spec
                    setup = SetupGeometry(k=rng.uniform(1.0, 2000.0), s=ratio, g=1.0)
                    for _ in range(8):
                        yield rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), config, side, setup


def test_field_digest_is_unchanged():
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParaxialWarning)
        for case in field_digest_cases():
            real, imag = field_bits(synthesize_field(*case))
            digest.update(f"{real} {imag}\n".encode())
    assert digest.hexdigest() == FIELD_DIGEST


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    target = slitgrid if module is None else importlib.import_module(f"slitgrid.{module}")
    assert [name for name in target.__all__ if not hasattr(target, name)] == []
