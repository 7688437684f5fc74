"""slitgrid benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cli-tables --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One single-threaded process runs the workload's operations in a
closed loop with one client.  With ``--trace 0`` the operations run in
passes for ``--seconds``, an operation's latency is the median of its runs
scaled to a reference host speed (``Yardstick``), and the result carries the
end-to-end metrics; with ``--trace 1`` one pass runs untraced and once
traced, and the result carries the per-layer metrics plus the tracing
overhead.  ``--smoke`` runs a few small operations of every class.  Every
output is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Every operation runs once per pass.  A pass is sized for 1/PLANNED_PASSES
# of --seconds; passes repeat while the next one fits in --seconds, at least
# MIN_PASSES of them.
PLANNED_PASSES = 5
MIN_PASSES = 3
MAX_PASSES = 20

VERIFY_CHECK_NAMES = (
    "normalization-identity",
    "normalization-defect",
    "visibility-oracle",
    "visibility-spot",
    "distinguishability-dual",
    "distinguishability-spot",
    "duality-bound",  # includes duality-endpoints, computed in the same pass
    "parseval-two-slit",
    "endpoint-degenerate",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few small operations per class")
    return parser.parse_args(argv)


class Yardstick:
    """The host's current speed, read as the duration of a fixed integer loop.

    The shared host runs the same code up to 2x slower for stretches of
    seconds to minutes.  Each timing is taken between two readings, right
    before and right after, and scaled by ``REFERENCE_S / speed``, where speed
    is the mean of the two readings:
    times are reported at the speed at which the loop takes ``REFERENCE_S``.
    The loop is the benchmark's own code and keeps nothing alive, so the
    package cannot change its speed.
    """

    LOOP = 4000
    REFERENCE_S = 0.0002  # about the loop's fastest time on the 2.1 GHz x86-64 VM this was sized on

    def __init__(self) -> None:
        self.samples: list[float] = []

    def read(self, rounds: int = 3) -> float:
        """Mean duration of ``rounds`` loops; an operation's time is an average over its interval too."""
        times = []
        for _ in range(rounds):
            start = perf_counter()
            total = 0
            for i in range(self.LOOP):
                total += i * i
            times.append(perf_counter() - start)
        self.samples += times
        return sum(times) / rounds


def import_time(src: Path) -> float:
    """Wall time of a fresh interpreter running ``import slitgrid.cli``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import slitgrid.cli"], env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class Outcome:
    """Latencies, items and failures of the passes over the operations."""

    def __init__(self, count: int) -> None:
        self.samples: list[list[tuple[float, float]]] = [[] for _ in range(count)]  # (seconds, speed)
        self.items = [0] * count  # items of each operation, 0 unless every execution was correct
        self.correct = [True] * count  # whether every execution of each operation was correct
        self.busy = 0.0  # time spent in operations, every pass
        self.passes = 0
        self.executions = 0
        self.unexpected: list[str] = []
        self.defects: dict[str, int] = {}
        self.fixed: set[str] = set()

    @property
    def failed(self) -> int:
        """Operations with at least one failed execution."""
        return self.correct.count(False)

    def latencies(self, reference: float | None = None) -> list[float]:
        """Median over its executions of each operation's time, scaled to ``reference`` speed."""
        return [
            statistics.median(t * (reference / speed if reference else 1.0) for t, speed in runs)
            for runs in self.samples
        ]


def execute(ops, seed: int = 0, seconds: float = 0.0, tracer=None, before_pass=None, yardstick=None) -> Outcome:
    """Run every operation once per pass, each pass after the first in its own seeded order.

    One pass runs when ``seconds`` is 0.  Otherwise at least ``MIN_PASSES``
    run, and another follows while it fits in ``seconds`` from the start,
    judged by the duration of the last one, up to ``MAX_PASSES``.  The
    yardstick is read between operations.
    """
    import workloads

    yardstick = yardstick or Yardstick()
    outcome = Outcome(len(ops))
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        if before_pass is not None:
            before_pass()
        order = list(range(len(ops)))
        if outcome.passes:
            random.Random(f"pass:{seed}:{outcome.passes}").shuffle(order)
        for index in order:
            op = ops[index]
            before = yardstick.read()
            if tracer is not None:
                tracer.request_id = index
                tracer.active = True
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, not a crashed run
                result = exc
            elapsed = perf_counter() - start
            outcome.samples[index].append((elapsed, (before + yardstick.read()) / 2))
            if tracer is not None:
                tracer.active = False
                if isinstance(result, workloads.CliResult):
                    tracer.count("cli.bytes_out", len(result.out.encode()))
                if isinstance(result, workloads.FieldResult):
                    tracer.count("geometry.paraxial_warnings", result.warnings)
            outcome.busy += elapsed
            outcome.executions += 1
            raised = isinstance(result, Exception)
            reason = f"raised {result!r}" if raised else op.check(result)
            if reason is None:
                outcome.items[index] = op.items(result) if outcome.correct[index] else 0
                if op.defect is not None:
                    outcome.fixed.add(op.defect.reason)
                continue
            outcome.correct[index] = False
            outcome.items[index] = 0
            if op.defect is not None and not raised and op.defect.shows(result):
                outcome.defects[op.defect.reason] = outcome.defects.get(op.defect.reason, 0) + 1
            else:
                outcome.unexpected.append(f"{op.kind}: {reason}")
        outcome.passes += 1
        now = perf_counter()
        if seconds <= 0 or outcome.passes >= MAX_PASSES:
            break
        if outcome.passes >= MIN_PASSES and now - started + (now - pass_started) > seconds:
            break
    return outcome


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10 samples beyond."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def end_to_end(outcome: Outcome, imports: list[tuple[float, float]], yardstick: Yardstick) -> tuple[dict, list[str]]:
    reference = yardstick.REFERENCE_S
    latencies = outcome.latencies(reference)
    value, percentile, beyond = tail(latencies)
    busy = sum(latencies)
    items = sum(outcome.items)
    raw = outcome.latencies()
    metrics = {
        "setup_s": (statistics.median(t * reference / speed for t, speed in imports), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "items_per_s": (items / busy, "items/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # rule-of-succession estimate of the error probability: never 0, so a
        # workload without failures still has a median to compare against
        "error_rate": ((outcome.failed + 1) / (len(latencies) + 2), "ratio"),
    }
    notes = [
        f"latency of an operation: the median of its {outcome.passes} runs, each scaled to the speed "
        f"at which the yardstick loop takes {reference * 1e3:.4g} ms; in this run it took "
        f"{min(yardstick.samples) * 1e3:.4g} ms at best, {statistics.median(yardstick.samples) * 1e3:.4g} ms median",
        f"unscaled: op_p50_ms {statistics.median(raw) * 1e3:.6g}, op_tail_ms {tail(raw)[0] * 1e3:.6g}, "
        f"setup_s {statistics.median(t for t, _ in imports):.6g}",
        f"op_tail_ms is p{percentile:.2f}: {beyond} of {len(latencies)} operations beyond it",
        f"failed {outcome.failed} of {len(latencies)} operations ({outcome.executions} executions)",
        f"items: {items} in {busy:.3f} s of scaled latencies ({outcome.busy:.3f} s in all passes)",
    ]
    return metrics, notes


def per_layer(tracer, overhead_s: float) -> dict:
    stats, counters = tracer.stats, tracer.counters

    def calls(*spans):
        return sum(stats.get(span, (0, 0.0, 0.0))[0] for span in spans)

    def self_ms(*spans):
        return sum(stats.get(span, (0, 0.0, 0.0))[2] for span in spans) * 1e3

    def counter(key):
        return counters.get(key, 0.0)

    grid = "grating.grid_function"
    spectra = ("scattering.single_slit_spectrum", "scattering.two_slit_spectrum")
    metrics = {
        "grating.sin_pi.calls": (calls("grating.sin_pi"), "count"),
        "grating.sin_pi.self_ms": (self_ms("grating.sin_pi"), "ms"),
        "grating.amplitude_table.builds": (calls("grating.amplitude_table"), "count"),
        "grating.amplitude_table.elements": (counter("grating.amplitude_table.elements"), "count"),
        "grating.amplitude_table.self_ms": (self_ms("grating.amplitude_table"), "ms"),
        "grating.fourier_coefficient.calls": (calls("grating.fourier_coefficient"), "count"),
        "grating.fourier_coefficient.self_ms": (self_ms("grating.fourier_coefficient"), "ms"),
        "grating.grid_function.calls": (calls(grid), "count"),
        "grating.grid_function.self_ms": (self_ms(grid), "ms"),
        "grating.grid_function.terms": (counter(f"{grid}.terms"), "count"),
        # computed, not measured: one dense len(x) x N float64 matrix of the largest call
        "grating.grid_function.computed_mb": (counter(f"{grid}.max_terms") * 8 / 2**20, "MB"),
        "grating.grid_function.peak_alloc_mb": (counter(f"{grid}.peak_alloc_mb"), "MB"),
        "scattering.spectrum.calls": (calls(*spectra), "count"),
        "scattering.spectrum.self_ms": (self_ms(*spectra), "ms"),
        "scattering.synthesize_field.calls": (calls("scattering.synthesize_field"), "count"),
        "scattering.synthesize_field.points": (counter("scattering.synthesize_field.points"), "count"),
        "scattering.synthesize_field.self_ms": (self_ms("scattering.synthesize_field"), "ms"),
        "geometry.derive_grating_geometry.calls": (calls("geometry.derive_grating_geometry"), "count"),
        "geometry.derive_grating_geometry.self_ms": (self_ms("geometry.derive_grating_geometry"), "ms"),
        "geometry.paraxial_warnings": (counter("geometry.paraxial_warnings"), "count"),
        "complementarity.sweep.calls": (calls("complementarity.complementarity_sweep"), "count"),
        "complementarity.sweep.points": (counter("complementarity.sweep.points"), "count"),
        "complementarity.sweep.self_ms": (self_ms("complementarity.complementarity_sweep"), "ms"),
    }
    for name in ("visibility_closed", "distinguishability_closed", "visibility_quadrature"):
        metrics[f"complementarity.{name}.calls"] = (calls(f"complementarity.{name}"), "count")
        metrics[f"complementarity.{name}.self_ms"] = (self_ms(f"complementarity.{name}"), "ms")
    for name in VERIFY_CHECK_NAMES:
        metrics[f"verify.check.{name}.ms"] = (counter(f"verify.check.{name}.ms"), "ms")
    metrics.update(
        {
            "verify.run.self_ms": (self_ms("verify.run_verification"), "ms"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_ms": (self_ms("cli.main"), "ms"),
            "cli.format_number.calls": (calls("cli.format_number"), "count"),
            "cli.bytes_out": (counter("cli.bytes_out"), "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
            "trace.spans": (len(tracer.spans) + tracer.dropped, "count"),
        }
    )
    return metrics


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": _blas_threads(),
        "llc": _last_level_cache(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return facts


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the environment's request."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _last_level_cache() -> str:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            caches.append((level, f"L{level} {size}"))
    return max(caches)[1] if caches else "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "slitgrid" / "__init__.py").is_file():
        print(f"error: no slitgrid package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import slitgrid

    if Path(slitgrid.__file__).resolve().parent != (src / "slitgrid").resolve():
        print(f"error: imported slitgrid from {slitgrid.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    try:
        workload = workloads.build(args.workload, args.seed, args.seconds / PLANNED_PASSES, args.smoke)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # setup_s: the median of three fresh-interpreter imports before each pass,
    # so that it samples the host's speed over the whole run
    yardstick = Yardstick()
    imports: list[tuple[float, float]] = []  # (seconds, speed)
    if not args.trace:
        import_time(src)  # fills the bytecode and file caches

    def time_imports():
        for _ in range(3):
            before = yardstick.read()
            seconds = import_time(src)
            imports.append((seconds, (before + yardstick.read()) / 2))

    execute(workload.warmup)
    # the traced run times one untraced and one traced pass
    if args.trace:
        untraced = execute(workload.ops, args.seed)
    else:
        seconds = 0.1 if args.smoke else args.seconds
        untraced = execute(workload.ops, args.seed, seconds, before_pass=time_imports, yardstick=yardstick)
    outcome = untraced
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(slitgrid)
        try:
            outcome = execute(workload.ops, args.seed, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead_s = outcome.busy - untraced.busy
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        metrics, notes = per_layer(tracer, overhead_s), [f"spans written to {spans_path}"]
    else:
        metrics, notes = end_to_end(outcome, imports, yardstick)

    print(f"workload {args.workload}, seed {args.seed}: {len(workload.ops)} operations, "
          f"{outcome.executions} executions, closed loop, 1 client; items are {workload.item_unit}")
    print("machine: " + json.dumps(machine_facts()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    for defect, count in sorted(outcome.defects.items()):
        print(f"known defect, {count} operations: {defect}")
    for defect in sorted(outcome.fixed - set(outcome.defects)):
        print(f"known defect no longer reproduces: {defect}")
    unexpected = untraced.unexpected + (outcome.unexpected if outcome is not untraced else [])
    for reason in unexpected[:20]:
        print(f"WRONG OUTPUT {reason}")
    result = {
        "correct": not unexpected,
        "attempted": len(outcome.samples),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one single-threaded process: pin BLAS/OpenMP pools before numpy loads
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.exit(main())
