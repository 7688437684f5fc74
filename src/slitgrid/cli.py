"""Command-line interface: reproduce the reference tables as CSV.

Commands
--------
  coeffs    coefficient/amplitude table for n = 0..N plus the sampled grid
            profile and fringe intensity (both sections in one file)
  pattern   just the sampled profile/intensity table
  orders    single-slit and two-slit order spectra per channel
  sweep     covering-ratio sweep of (V, D, V**2 + D**2)
  verify    run the invariant suite and report each check

Output is CSV with one header row per section, values printed with 12
significant digits (lowercase scientific below 1e-4), ``\\n`` line endings,
no timestamps: re-running a command with the same configuration rewrites
byte-identical output.  Flags override config-file values, which override
the built-in defaults.  Each command reads and validates only its own
settings (the keys of ``_DEFAULTS``) and ignores the rest.  ``--points``
and ``--order`` are capped (``MAX_POINTS``, ``MAX_ORDER``) so that every
accepted request finishes in bounded time and memory.  Exit codes: 0
success, 1 usage error (a request that runs out of memory included), 2
verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import complementarity, scattering, verify
from .grating import (
    DEFAULT_TRUNCATION, SPECTRUM_TRUNCATION, AmplitudeTable, GratingSpec, grid_function,
)

__all__ = ["main", "format_number"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

PATTERN_SAMPLES = 401  # over two periods each side of the axis

# Largest accepted requests.  At these caps the slowest request (verify with
# 1e6 quadrature points) takes about 13 s on a 2-core x86-64 VM, and coeffs
# at 1e5 terms, whose 401 x N profile is evaluated in blocks of rows, peaks
# at about 62 MB resident.
MAX_POINTS = 1_000_000
MAX_ORDER = 100_000

_CHANNEL_FLAGS = {"t": ("transmitted",), "r": ("reflected",), "both": ("transmitted", "reflected")}

# the settings each command reads, with their defaults
_DEFAULTS = {
    "coeffs": {"a": 0.06, "order": DEFAULT_TRUNCATION, "phase": 0.0, "out": None},
    "pattern": {"a": 0.06, "order": DEFAULT_TRUNCATION, "phase": 0.0, "out": None},
    "orders": {"a": 0.06, "order": SPECTRUM_TRUNCATION, "phase": 0.0, "channel": "both", "out": None},
    "sweep": {"channel": "t", "points": 1001, "out": None},
    "verify": {"order": verify.DEFAULT_TRUNCATION, "points": verify.DEFAULT_QUADRATURE_POINTS,
               "perturb": None},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for verification
        raise _UsageError(message)


def format_number(value: float) -> str:
    """Deterministic numeric formatting for CSV cells.

    12 significant digits; values with magnitude below 1e-4 switch to
    lowercase scientific notation, zero prints as ``0``.
    """
    if value == 0.0:
        return "0"
    if abs(value) < 1e-4:
        return f"{value:.11e}"
    return f"{value:.12g}"


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings; those the command does not read stay None."""

    command: str
    cover_ratio: float | None = None
    truncation: int | None = None
    delta_phi: float | None = None
    channels: tuple[str, ...] | None = None
    points: int | None = None
    out: str | None = None
    perturb: str | None = None


def _build_parser() -> _Parser:
    parser = _Parser(prog="slitgrid", description="Strip-grating two-slit diffraction tables")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, description in (
        ("coeffs", "coefficient table plus sampled grid profile"),
        ("pattern", "sampled grid profile and fringe intensity"),
        ("orders", "single-slit and two-slit order spectra"),
        ("sweep", "covering-ratio sweep of visibility/distinguishability"),
        ("verify", "run the invariant suite"),
    ):
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("--a", type=float, default=None, help="covering ratio in [0, 1]")
        cmd.add_argument("--order", type=int, default=None, help="series truncation order")
        cmd.add_argument("--phase", type=float, default=None, help="relative slit phase (radians)")
        cmd.add_argument("--channel", choices=sorted(_CHANNEL_FLAGS), default=None)
        cmd.add_argument(
            "--points", type=int, default=None, help="sweep grid size / quadrature points"
        )
        cmd.add_argument("--out", default=None, help="output path ('-' for stdout)")
        cmd.add_argument("--config", default=None, help="key=value config file")
        if name == "verify":
            cmd.add_argument(
                "--perturb",
                choices=verify.PERTURBATIONS,
                default=None,
                help="bias one amplitude to demonstrate a failing suite",
            )
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")  # OSError maps to the I/O exit code
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if not any(key in defaults for defaults in _DEFAULTS.values()):
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value: str):
    try:
        if key in ("a", "phase"):
            return float(value)
        if key in ("order", "points"):
            return int(value)
    except ValueError:
        raise _UsageError(f"config value for {key!r} is not numeric: {value!r}") from None
    if key == "channel" and value not in _CHANNEL_FLAGS:
        raise _UsageError(f"config channel must be one of {sorted(_CHANNEL_FLAGS)}, got {value!r}")
    if key == "perturb" and value not in verify.PERTURBATIONS:
        raise _UsageError(f"config perturb must be one of {verify.PERTURBATIONS}, got {value!r}")
    return value


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over per-command defaults.

    Only the settings the command reads are resolved and validated.
    """
    file_values = _load_config_file(args.config) if args.config else {}
    values = {}
    for key, default in _DEFAULTS[args.command].items():
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
        elif key in file_values:
            values[key] = _coerce(key, file_values[key])
        else:
            values[key] = default
    if "a" in values and not (0.0 <= values["a"] <= 1.0):
        raise _UsageError(f"--a must lie in [0, 1], got {values['a']}")
    if "order" in values and values["order"] < 1:
        raise _UsageError(f"--order must be >= 1, got {values['order']}")
    if "order" in values and values["order"] > MAX_ORDER:
        raise _UsageError(f"--order must be <= {MAX_ORDER}, got {values['order']}")
    if args.command == "sweep" and values["points"] < 2:
        raise _UsageError(f"--points must be >= 2 for sweep, got {values['points']}")
    if "points" in values and values["points"] > MAX_POINTS:
        raise _UsageError(f"--points must be <= {MAX_POINTS}, got {values['points']}")
    channel = values.get("channel")
    return RunConfig(
        command=args.command,
        cover_ratio=values.get("a"),
        truncation=values.get("order"),
        delta_phi=values.get("phase"),
        channels=_CHANNEL_FLAGS[channel] if channel else None,
        points=values.get("points"),
        out=values.get("out"),
        perturb=values.get("perturb"),
    )


def _cmd_pattern(config: RunConfig) -> list[str]:
    spec = GratingSpec(
        cover_ratio=config.cover_ratio, period=1.0, truncation=config.truncation
    )
    lines = [
        f"# pattern: a={format_number(config.cover_ratio)}"
        f" order={config.truncation} phase={format_number(config.delta_phi)}"
        f" samples={PATTERN_SAMPLES}",
        "x_over_Lambda,G,I",
    ]
    # 401 samples across [-2, 2] grating periods; exact decimals keep the
    # fringe zeros/maxima landing on representable positions
    positions = (np.arange(PATTERN_SAMPLES) - 200) / 100.0
    profile = grid_function(positions, spec)
    fringe = scattering.interference_intensity(positions, config.delta_phi)
    for u, g, i in zip(positions, profile, fringe):
        lines.append(f"{format_number(u)},{format_number(g)},{format_number(i)}")
    return lines


def _cmd_coeffs(config: RunConfig) -> list[str]:
    table = AmplitudeTable.build(config.cover_ratio, config.truncation)
    lines = [
        f"# coefficients: a={format_number(config.cover_ratio)} order={config.truncation}",
        "n,c_n,r_n,t_n",
    ]
    # c_0 = a and c_n = -2*r_n
    c = np.concatenate(([config.cover_ratio], -2.0 * table.r[1:]))
    for n, (c_n, r_n, t_n) in enumerate(zip(c, table.r, table.t)):
        lines.append(f"{n},{format_number(c_n)},{format_number(r_n)},{format_number(t_n)}")
    lines.append("")
    lines.extend(_cmd_pattern(config))
    return lines


def _cmd_orders(config: RunConfig) -> list[str]:
    spec = GratingSpec(cover_ratio=config.cover_ratio, truncation=config.truncation)
    two_slit = scattering.TwoSlitConfig(spec=spec, delta_phi=config.delta_phi)
    lines: list[str] = []
    for channel in config.channels:
        if lines:
            lines.append("")
        single = scattering.single_slit_spectrum(spec, channel)
        lines.append(
            f"# single-slit {channel}: a={format_number(config.cover_ratio)}"
            f" order={config.truncation}"
        )
        lines.append("n,P")
        for order, p in zip(single.orders, single.probabilities):
            lines.append(f"{int(order)},{format_number(p)}")
        lines.append("")
        paired = scattering.two_slit_spectrum(two_slit, channel)
        lines.append(
            f"# two-slit {channel}: a={format_number(config.cover_ratio)}"
            f" order={config.truncation} phase={format_number(config.delta_phi)}"
        )
        lines.append("m,P")
        for order, p in zip(paired.orders, paired.probabilities):
            lines.append(f"{format_number(order)},{format_number(p)}")
    return lines


def _cmd_sweep(config: RunConfig) -> list[str]:
    grid = np.arange(config.points) / (config.points - 1)
    lines: list[str] = []
    for channel in config.channels:
        if lines:
            lines.append("")
        lines.append(f"# sweep {channel}: points={config.points}")
        lines.append("a,V,D,duality")
        columns = complementarity.complementarity_sweep(grid, channel)
        for a, v, d, duality in zip(
            columns.cover_ratio.tolist(),
            columns.visibility.tolist(),
            columns.distinguishability.tolist(),
            columns.duality.tolist(),
        ):
            lines.append(
                f"{format_number(a)},{format_number(v)},{format_number(d)},{format_number(duality)}"
            )
    return lines


def _cmd_verify(config: RunConfig) -> int:
    results = verify.run_verification(
        perturb=config.perturb,
        truncation=config.truncation,
        points=config.points,
    )
    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status}  {result.name:<{width}}  value={result.value:.6e}  "
            f"tolerance={result.tolerance:.6e}  {result.detail}"
        )
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _write_output(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _resolve(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if config.command == "verify":
            return _cmd_verify(config)
        builders = {
            "coeffs": _cmd_coeffs,
            "pattern": _cmd_pattern,
            "orders": _cmd_orders,
            "sweep": _cmd_sweep,
        }
        _write_output(builders[config.command](config), config.out)
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; request fewer --points or a lower --order", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
