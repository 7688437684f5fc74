"""Regression gate: the shipped numbers do not drift.

The digests, the verify report and the failing-check sets below were
recorded from the package before the amplitude harmonics and the channel
dispatch were each gathered into one function; any change in the
reference tables, in the verify values or in the checks a perturbation
trips fails here.  The digests equal ``REFERENCE_DIGESTS`` in
``perfbench/workloads.py``, copied so that the tests do not import the
benchmark.  The digest of the 100001-point sweep on both channels, the
reference size of the sweep, was recorded from the scalar sweep loop
before the duality kernel took arrays.  The field digest was recorded
before ``synthesize_field`` memoised its plane-wave decomposition, and
``seed_synthesize_field`` keeps that formula as the bit-level reference.

Bit-level pins (the verify report, and the array kernels equal to the
scalar ``math``/``pow`` paths) depend on the numpy build and the CPU; CI
prints both before running the tests.  Large profiles also depend on the
BLAS thread count, so the blocked ``grid_function`` is compared with the
dense reference in a subprocess pinned to one BLAS thread, and CI runs the
whole suite under that setting too.
"""

import hashlib
import importlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import slitgrid
from slitgrid.cli import main
from slitgrid.complementarity import (
    complementarity_sweep,
    distinguishability_closed,
    visibility_closed,
)
from slitgrid.geometry import ParaxialWarning, SetupGeometry, derive_grating_geometry
from slitgrid.grating import (
    _ROW_ALIGN,
    CHANNELS,
    AmplitudeTable,
    _block_rows,
    GratingSpec,
    grid_function,
    sampling_window,
    sin_pi,
    sinc_pi,
)
from slitgrid.scattering import TwoSlitConfig, _mirrored, _plane_waves, synthesize_field
from slitgrid.verify import run_verification

REFERENCE_DIGESTS = {
    ("coeffs", "--a", "0.06", "--order", "50"):
        "c2d03983f5bf99aefbd67e1a1de6d6d07ece859e68884cbfd10607ab3d1f8907",
    ("orders", "--a", "0.06", "--order", "30", "--channel", "both"):
        "16a4f74f72daa3833b00bd66376cdf2c55ba5c7ecc1dcc7404706f6c4c257cdb",
    ("sweep", "--points", "1001", "--channel", "t"):
        "c76ee3ba8bb4c965efd0b955d24a4878ad5b2ea5e885719b25eea082d23a131d",
}

REFERENCE_SWEEP = ("sweep", "--points", "100001", "--channel", "both")
REFERENCE_SWEEP_DIGEST = "93a8d1c03e041cd5d02144320dbbf79420f7bea9f9d2719d4c0f79ce121ae152"

DEFAULT_VERIFY_REPORT = (
    "PASS  normalization-identity   value=2.220446e-16  tolerance=1.000000e-14  max |r0^2 + t0^2 + 2(a - a^2) - 1| over 101 covering ratios\n"
    "PASS  normalization-defect     value=1.013212e-04  tolerance=2.026424e-04  max |defect| at 2000 terms over 101 covering ratios\n"
    "PASS  visibility-oracle        value=3.136380e-15  tolerance=1.000000e-09  max |closed - quadrature| over 101 ratios x both channels, 4096 points\n"
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
    geom = derive_grating_geometry(setup)
    table = AmplitudeTable.build(spec.cover_ratio, spec.truncation)
    full = _mirrored(table.amplitudes(side))
    if isinstance(config, TwoSlitConfig):
        n = np.arange(-spec.truncation, spec.truncation)
        k_x = (2.0 * n + 1.0) * geom.k_perp
        phase_2 = np.exp(1j * config.delta_phi)
        amps = (full[:-1] + phase_2 * full[1:]) / math.sqrt(2.0)
    else:
        n = np.arange(-spec.truncation, spec.truncation + 1)
        k_x = 2.0 * n * geom.k_perp
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


@pytest.mark.parametrize("argv", list(REFERENCE_DIGESTS), ids=lambda argv: argv[0])
def test_reference_csv_digest(argv, capsys):
    assert main([*argv, "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_DIGESTS[argv]


def test_reference_size_sweep_digest(capsys):
    assert main([*REFERENCE_SWEEP, "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_SWEEP_DIGEST


def test_default_verify_report_is_unchanged(capsys):
    assert main(["verify"]) == 0
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


def block_edge_sizes(terms):
    """Input lengths on either side of one and two profile blocks."""
    rows = _block_rows(terms)
    return sorted({1, 15, 16, 17, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1})


# Every (terms, sizes) pair runs through grid_function and the dense
# reference.  20000 positions at 2000 terms (the benchmark's large grid)
# would take the reference 640 MB, so the many-block case there is
# 5 * rows + 7; 100000 terms stays on at most 64 positions.
BLOCK_CASES = [
    (1, [*block_edge_sizes(1), 20000]),
    (30, [*block_edge_sizes(30), 20000]),
    (2000, [*block_edge_sizes(2000), 5 * _block_rows(2000) + 7]),
    (2521, [*block_edge_sizes(2521), 5 * _block_rows(2521) + 7]),
    (100000, [*block_edge_sizes(100000), 64]),
]

BLOCK_CHECK = """
import json, math, sys
import numpy as np
from slitgrid.grating import GratingSpec, grid_function, sin_pi

{seed}

rng = np.random.default_rng(11)
mismatches = []
for terms, sizes in json.loads(sys.argv[1]):
    for size in sizes:
        a, period = rng.uniform(0.0, 1.0), rng.uniform(0.1, 10.0)
        x = rng.uniform(-5.0, 5.0, size)
        got = grid_function(x, GratingSpec(cover_ratio=a, period=period, truncation=terms))
        if got.tobytes() != seed_grid_function(x, a, terms, period).tobytes():
            mismatches.append([terms, size])
print(json.dumps(mismatches))
"""


def test_blocked_grid_function_equals_the_dense_reference_under_one_blas_thread():
    # one BLAS thread, as in the benchmark: a multi-threaded gemv splits
    # rows between threads by matrix shape, so blocking may move last bits
    source = BLOCK_CHECK.format(seed=inspect.getsource(seed_grid_function))
    src = os.path.dirname(os.path.dirname(slitgrid.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", source, json.dumps(BLOCK_CASES)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(run.stdout) == []


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
    a = np.array(ratios)
    result = visibility_closed(a, channel)
    scalar = [visibility_closed(x, channel) for x in ratios]
    assert bits(result.visibility) == bits([r.visibility for r in scalar])
    assert bits(result.i_max) == bits([r.i_max for r in scalar])
    assert bits(result.i_min) == bits([r.i_min for r in scalar])
    d = [distinguishability_closed(x, channel) for x in ratios]
    assert bits(distinguishability_closed(a, channel)) == bits(d)
    assert bits(sin_pi(a)) == bits([sin_pi(x) for x in ratios])
    assert bits(sinc_pi(a)) == bits([sinc_pi(x) for x in ratios])
    columns = complementarity_sweep(a, channel)
    assert len(columns) == len(ratios)
    dualities = [r.visibility * r.visibility + d_x * d_x for r, d_x in zip(scalar, d)]
    assert bits(columns.duality) == bits(dualities)


@pytest.mark.parametrize("channel", ["transmitted", "reflected"])
def test_duality_kernel_equals_the_scalar_calls_on_a_dense_draw(channel):
    # hypothesis favours short, simple floats; the squares where pow and
    # w*w round apart are about 0.1 % of uniform draws, so look at many
    ratios = np.random.default_rng(3).random(20000).tolist()
    columns = complementarity_sweep(ratios, channel)
    scalar = []
    for x in ratios:
        v = visibility_closed(x, channel).visibility
        d = distinguishability_closed(x, channel)
        scalar.append((v, d, v * v + d * d))
    v, d, duality = zip(*scalar)
    assert bits(columns.visibility) == bits(v)
    assert bits(columns.distinguishability) == bits(d)
    assert bits(columns.duality) == bits(duality)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=16))
@example(us=[0.0, -0.0, 0.5, -0.5, 1.0, 1.5, 2.0, -3.0, 5e-324, -5e-324])
def test_sin_pi_and_sinc_pi_arrays_equal_the_scalar_calls_bit_for_bit(us):
    u = np.array(us)
    assert bits(sin_pi(u)) == bits([sin_pi(x) for x in us])
    assert bits(sinc_pi(u)) == bits([sinc_pi(x) for x in us])


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
# A float32 cover ratio or wavenumber rounds 1 - a or k*k in float32.
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
