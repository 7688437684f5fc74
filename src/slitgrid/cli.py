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
the built-in defaults.  Config-file values are parsed and checked exactly
like the flags of the same name, and an error in one names the file.
``main`` builds its argument parser once per process, on its first call,
and keeps no per-request state: each call parses into a fresh namespace,
so calls may follow one another or run on several threads at once.
Each command reads and validates only its own settings (the keys of
``_DEFAULTS``) and ignores the rest.  ``--points``
and ``--order`` are capped (``MAX_POINTS``, ``MAX_ORDER``) so that every
accepted request finishes in bounded time and memory.  Exit codes: 0
success, 1 usage error (a request that runs out of memory included), 2
verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
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

# Largest accepted requests.  At these caps the slowest request (sweep of
# 1e6 points on both channels) takes 8.7-10 s and peaks at about 500 MB
# resident on a 2-core x86-64 VM, and coeffs at 1e5 terms, whose 401 x N
# profile is grid_function's factored sum on one thread, takes 0.64-0.71 s
# and peaks at about 63 MB resident.
MAX_POINTS = 1_000_000
MAX_ORDER = 100_000

_CHANNEL_FLAGS = {"t": ("transmitted",), "r": ("reflected",), "both": ("transmitted", "reflected")}

# the settings each command reads, with their defaults
_DEFAULTS = {
    "coeffs": {"a": 0.06, "order": DEFAULT_TRUNCATION, "phase": 0.0, "out": None},
    "pattern": {"a": 0.06, "order": DEFAULT_TRUNCATION, "phase": 0.0, "out": None},
    "orders": {"a": 0.06, "order": SPECTRUM_TRUNCATION, "phase": 0.0, "channel": "both", "out": None},
    "sweep": {"channel": "t", "points": 1001, "out": None},
    "verify": {"order": verify.DEFAULT_TRUNCATION, "perturb": None},
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


@functools.cache  # parse_args leaves the parser unchanged, so every call shares it
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
        cmd.add_argument("--points", type=int, default=None, help="sweep grid size")
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


def _resolve(parser: _Parser, args: argparse.Namespace) -> argparse.Namespace:
    """Merge flags over config-file values over per-command defaults.

    Only the settings the command reads are resolved and validated.  File
    values are parsed as ``--key=value`` flags by ``parser``, so they get
    the same type and choice checks; the result holds ``command`` and the
    command's settings under their flag names.
    """
    defaults = _DEFAULTS[args.command]
    from_file = argparse.Namespace()
    if args.config:
        tokens = [
            f"--{key}={value}"
            for key, value in _load_config_file(args.config).items()
            if key in defaults and getattr(args, key) is None
        ]
        if tokens:
            try:
                from_file = parser.parse_args([args.command, *tokens])
            except _UsageError as exc:
                raise _UsageError(f"{args.config}: {exc}") from None
    config = argparse.Namespace(command=args.command)
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = getattr(from_file, key, None)
        setattr(config, key, default if value is None else value)
    if "a" in defaults and not (0.0 <= config.a <= 1.0):
        raise _UsageError(f"--a must lie in [0, 1], got {config.a}")
    if "order" in defaults and config.order < 1:
        raise _UsageError(f"--order must be >= 1, got {config.order}")
    if "order" in defaults and config.order > MAX_ORDER:
        raise _UsageError(f"--order must be <= {MAX_ORDER}, got {config.order}")
    if "points" in defaults and config.points < 2:
        raise _UsageError(f"--points must be >= 2, got {config.points}")
    if "points" in defaults and config.points > MAX_POINTS:
        raise _UsageError(f"--points must be <= {MAX_POINTS}, got {config.points}")
    return config


def _cmd_pattern(config: argparse.Namespace) -> list[str]:
    spec = GratingSpec(cover_ratio=config.a, period=1.0, truncation=config.order)
    lines = [
        f"# pattern: a={format_number(config.a)}"
        f" order={config.order} phase={format_number(config.phase)}"
        f" samples={PATTERN_SAMPLES}",
        "x_over_Lambda,G,I",
    ]
    # 401 samples across [-2, 2] grating periods; exact decimals keep the
    # fringe zeros/maxima landing on representable positions
    positions = (np.arange(PATTERN_SAMPLES) - 200) / 100.0
    profile = grid_function(positions, spec)
    fringe = scattering.interference_intensity(positions, config.phase)
    # Python floats format faster than numpy scalars, to the same text
    for u, g, i in zip(positions.tolist(), profile.tolist(), fringe.tolist()):
        lines.append(f"{format_number(u)},{format_number(g)},{format_number(i)}")
    return lines


def _cmd_coeffs(config: argparse.Namespace) -> list[str]:
    table = AmplitudeTable.build(config.a, config.order)
    lines = [
        f"# coefficients: a={format_number(config.a)} order={config.order}",
        "n,c_n,r_n,t_n",
    ]
    # c_0 = a and c_n = -2*r_n
    c = np.concatenate(([config.a], -2.0 * table.r[1:]))
    for n, (c_n, r_n, t_n) in enumerate(zip(c.tolist(), table.r.tolist(), table.t.tolist())):
        lines.append(f"{n},{format_number(c_n)},{format_number(r_n)},{format_number(t_n)}")
    lines.append("")
    lines.extend(_cmd_pattern(config))
    return lines


def _cmd_orders(config: argparse.Namespace) -> list[str]:
    spec = GratingSpec(cover_ratio=config.a, truncation=config.order)
    two_slit = scattering.TwoSlitConfig(spec=spec, delta_phi=config.phase)
    lines: list[str] = []
    for channel in _CHANNEL_FLAGS[config.channel]:
        if lines:
            lines.append("")
        single = scattering.single_slit_spectrum(spec, channel)
        lines.append(f"# single-slit {channel}: a={format_number(config.a)} order={config.order}")
        lines.append("n,P")
        for order, p in zip(single.orders.tolist(), single.probabilities.tolist()):
            lines.append(f"{int(order)},{format_number(p)}")
        lines.append("")
        paired = scattering.two_slit_spectrum(two_slit, channel)
        lines.append(
            f"# two-slit {channel}: a={format_number(config.a)}"
            f" order={config.order} phase={format_number(config.phase)}"
        )
        lines.append("m,P")
        for order, p in zip(paired.orders.tolist(), paired.probabilities.tolist()):
            lines.append(f"{format_number(order)},{format_number(p)}")
    return lines


def _cmd_sweep(config: argparse.Namespace) -> list[str]:
    grid = np.arange(config.points) / (config.points - 1)
    lines: list[str] = []
    for channel in _CHANNEL_FLAGS[config.channel]:
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


def _cmd_verify(config: argparse.Namespace) -> int:
    results = verify.run_verification(perturb=config.perturb, truncation=config.order)
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
        config = _resolve(parser, args)
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
