"""Command-line interface: reproduce the reference tables as CSV.

Commands
--------
  coeffs    coefficient/amplitude table for n = 0..N plus the sampled grid
            profile and fringe intensity (both sections in one file)
  pattern   the second section of ``coeffs`` alone, the same bytes
  orders    single-slit and two-slit order spectra per channel
  sweep     covering-ratio sweep of (V, D, V**2 + D**2)
  verify    run the invariant suite and report each check

Each CSV command returns its tables, and ``_write_output`` (which
describes the format) writes them, formatting each chunk of rows with one
``%`` template: re-running a command with the same configuration rewrites
byte-identical output.  An even table, one whose label column is
ascending and antisymmetric and whose other columns read the same in
reverse, has only its upper half formatted, and its lower half is
written as the signed mirror of that text, a chunk at a time: every
``orders`` table is even, and so is the pattern section at zero phase,
while the sweep and the coefficient table never are.  The writer holds
the upper-half text of the last even table of each header in the
request; a later even table with that header, length, label column and
column dtypes reuses it for every row whose cells are equal and formats
only the others, so the reflected ``orders`` tables format only the rows
of order zero and ``m = 1/2``, where ``r_0 = -a`` and ``t_0 = 1 - a``
differ.  Flags override
config-file values, which override the built-in defaults.  Config-file
values are parsed exactly like the flags of the same name, and a value
that does not parse names the file.
``main`` builds its argument parser once per process, on its first call,
and keeps no per-request state: each call parses into a fresh namespace,
so calls may follow one another or run on several threads at once.  Each
command reads only its own settings (the keys of ``_DEFAULTS``) and
ignores the rest.  A value is range-checked once, by the library code
that reads it (``AmplitudeTable.build``, ``interference_intensity``,
``two_slit_spectrum``, ``run_verification``), before any output is written;
its ``ValueError`` text is the error message.  The CLI checks only what no
library function knows: ``--points >= 2`` and the caps on ``--points``
and ``--order`` (``MAX_POINTS``, ``MAX_ORDER``), so that every accepted
request finishes in bounded time and memory.  ``main`` maps every
failure to its exit code in one place: 0 success, 1 usage error (any
``ValueError``, and a request that runs out of memory), 2 verification
failure, 3 I/O error (``OSError``), 141 a reader that closed the pipe
early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import complementarity, scattering, verify
from .grating import CHANNELS, DEFAULT_TRUNCATION, SPECTRUM_TRUNCATION, AmplitudeTable, _coefficients, _profile

__all__ = ["main", "format_number"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer that a closed pipe ended

PATTERN_SAMPLES = 401  # over two periods each side of the axis

# Largest accepted requests.  At these caps the slowest request (sweep of
# 1e6 points on both channels) takes 3.2-4.0 s and peaks at about 116 MB
# resident on a 2-core x86-64 VM, and coeffs at 1e5 terms, whose 401 x N
# profile is the factored sum on one thread over its 107 distinct reduced
# positions, takes 0.13-0.18 s in-process (0.29-0.32 s as a whole process,
# import included) and peaks at about 36 MB resident.
MAX_POINTS = 1_000_000
MAX_ORDER = 100_000

# rows formatted and written at a time by _write_output; every table of
# the reference requests (at most 4001 rows) is one chunk
_CHUNK_ROWS = 1 << 12

_CHANNEL_FLAGS = {"t": CHANNELS[:1], "r": CHANNELS[1:], "both": CHANNELS}

# the settings each command reads, with their defaults
_DEFAULTS = {
    "coeffs": {"a": 0.06, "order": DEFAULT_TRUNCATION, "phase": 0.0, "out": None},
    "pattern": {"a": 0.06, "order": DEFAULT_TRUNCATION, "phase": 0.0, "out": None},
    "orders": {"a": 0.06, "order": SPECTRUM_TRUNCATION, "phase": 0.0, "channel": "both", "out": None},
    "sweep": {"channel": "t", "points": 1001, "out": None},
    "verify": {"order": verify.DEFAULT_TRUNCATION, "perturb": None, "out": None},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for verification
        raise ValueError(message)


# The one rule for a float cell: 12 significant digits, non-zero magnitudes
# below 1e-4 in lowercase scientific notation, and zero as ``0``.
_FIXED, _SCIENTIFIC = "%.12g", "%.11e"


def _float_cells(values):
    """``values`` ready for ``%``, and whether each takes ``_SCIENTIFIC``.

    Works elementwise on an array, or on one float as a 0-d array.  -0.0
    becomes +0.0, which ``_FIXED`` prints as ``0``.
    """
    return np.where(values == 0.0, 0.0, values), (values != 0.0) & (abs(values) < 1e-4)


def format_number(value: float) -> str:
    """Deterministic numeric formatting for one CSV cell (``_FIXED`` or ``_SCIENTIFIC``)."""
    value, scientific = _float_cells(value)
    return (_SCIENTIFIC if scientific else _FIXED) % float(value)


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
    except UnicodeDecodeError as exc:  # a ValueError, caught here to name the file
        raise ValueError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if not any(key in defaults for defaults in _DEFAULTS.values()):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve(parser: _Parser, args: argparse.Namespace) -> argparse.Namespace:
    """Merge flags over config-file values over per-command defaults.

    Only the settings the command reads are resolved.  File values are
    parsed as ``--key=value`` flags by ``parser``, so they get the same
    type and choice checks; the result holds ``command`` and the command's
    settings under their flag names.  Only what no library function knows
    is checked here: the caps and ``--points >= 2``.
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
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
    config = argparse.Namespace(command=args.command)
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = getattr(from_file, key, None)
        setattr(config, key, default if value is None else value)
    if "order" in defaults and config.order > MAX_ORDER:
        raise ValueError(f"--order must be <= {MAX_ORDER}, got {config.order}")
    if "points" in defaults and config.points < 2:
        raise ValueError(f"--points must be >= 2, got {config.points}")
    if "points" in defaults and config.points > MAX_POINTS:
        raise ValueError(f"--points must be <= {MAX_POINTS}, got {config.points}")
    return config


def _cmd_coeffs(config: argparse.Namespace) -> list[tuple]:
    table = AmplitudeTable.build(config.a, config.order)  # one table for both sections; checks --a, then --order
    # 401 samples across [-2, 2] grating periods; exact decimals keep the
    # fringe zeros/maxima landing on representable positions
    positions = (np.arange(PATTERN_SAMPLES) - 200) / 100.0
    fringe = scattering.interference_intensity(positions, config.phase)  # a bad phase fails before the profile
    profile = _profile(positions, table, 1.0)  # before the coefficient columns, off its peak
    c = np.hstack(_coefficients(table))
    a = format_number(config.a)
    pattern = f"pattern: a={a} order={config.order} phase={format_number(config.phase)} samples={PATTERN_SAMPLES}"
    return [
        (f"coefficients: a={a} order={config.order}", "n,c_n,r_n,t_n", [np.arange(c.size), c, table.r, table.t]),
        (pattern, "x_over_Lambda,G,I", [positions, profile, fringe]),
    ]


def _cmd_pattern(config: argparse.Namespace) -> list[tuple]:
    return _cmd_coeffs(config)[1:]  # the tables are formatted only when written


def _cmd_orders(config: argparse.Namespace) -> list[tuple]:
    table = AmplitudeTable.build(config.a, config.order)
    a, phase = format_number(config.a), format_number(config.phase)
    tables = []
    for channel in _CHANNEL_FLAGS[config.channel]:
        paired = scattering.two_slit_spectrum(table, channel, config.phase)  # a bad phase fails here
        single = scattering.single_slit_spectrum(table, channel)
        tables.append((
            f"single-slit {channel}: a={a} order={config.order}", "n,P",
            [single.orders.astype(int), single.probabilities],
        ))
        tables.append((
            f"two-slit {channel}: a={a} order={config.order} phase={phase}", "m,P",
            [paired.orders, paired.probabilities],
        ))
    return tables


def _cmd_sweep(config: argparse.Namespace) -> list[tuple]:
    grid = complementarity._cover_grid(config.points)
    tables = []
    for channel in _CHANNEL_FLAGS[config.channel]:
        columns = complementarity.complementarity_sweep(grid, channel)
        tables.append((
            f"sweep {channel}: points={config.points}", "a,V,D,duality",
            [columns.cover_ratio, columns.visibility, columns.distinguishability, columns.duality],
        ))
    return tables


def _cmd_verify(config: argparse.Namespace) -> int:
    """Run the suite, then write its report to ``config.out`` by the rule of :func:`_opened`."""
    results = verify.run_verification(perturb=config.perturb, truncation=config.order)
    width = max(len(result.name) for result in results)
    failed = sum(not result.passed for result in results)
    with _opened(config.out) as handle:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            handle.write(
                f"{status}  {result.name:<{width}}  value={result.value:.6e}  "
                f"tolerance={result.tolerance:.6e}  {result.detail}\n"
            )
        handle.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _opened(out: str | None):
    """The handle a command writes to: stdout for ``None`` or ``-``, else the file ``out``.

    Each caller opens it only after it has computed everything it writes,
    so a request that fails writes nothing.
    """
    if out in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def _write_output(tables: list[tuple], out: str | None) -> None:
    """Write ``tables`` as CSV to the file ``out``, or to stdout for ``None`` or ``-``.

    Each table is ``(label, header, columns)``: a ``# label`` line, the
    ``header`` row, then one row per entry of the equal-length numpy
    ``columns``, cells joined by ``,``.  A float cell is
    :func:`format_number` of its value and an integer cell its decimal
    digits.  Tables are separated by one blank line, every line ends in
    ``\\n``, and nothing else (no timestamp) is written, so the same
    tables always give the same bytes.  Rows are formatted and written
    ``_CHUNK_ROWS`` at a time, so memory does not grow with the output,
    except for the upper half of an even table (below).
    A chunk is formatted by one ``%``: its template joins one row
    template per row, picked by a row code with one bit per float column
    (set where :func:`_float_cells` asks for ``_SCIENTIFIC``), and its
    cells are the chunk's values interleaved row by row.  The file is
    opened by :func:`_opened` only here, after the command has computed
    every table, so a request that fails writes nothing.

    A table is even when it has two rows or more, its first column is
    strictly ascending and exactly antisymmetric and every other column
    equals its own reverse (so a NaN never matches), as the order spectra
    are.  Only its rows with label >= 0 make up its text, in chunks, by
    :func:`_upper_text`, which formats only the rows it cannot reuse from
    the last even table with the same header.  That text is held (at most ``MAX_ORDER + 1``
    rows, about 2.5 MB) until the next even table with the header
    replaces it, so at most one upper half per header is held.  The rows
    with label < 0 are written first, each as ``-`` and the text of its
    mirror row, in reverse order and without the zero row, one chunk's
    text split into rows at a time; then the upper half.
    ``%d``, ``_FIXED`` and ``_SCIENTIFIC`` print -v as ``-`` and the
    text of v, :func:`_float_cells` picks the format by ``|v|``, and
    cells that are ``==`` in columns of one dtype print alike (both zeros
    as ``0``), so these are the bytes of formatting every row.
    """
    held = {}  # header: (columns, upper-half text) of the last even table with that header
    with _opened(out) as handle:
        for index, (label, header, columns) in enumerate(tables):
            handle.write(("\n" if index else "") + f"# {label}\n{header}\n")
            half = _upper_half(columns)
            if half is None:
                for chunk in _chunks(columns, 0):
                    handle.write(_format_rows(chunk))
                continue
            upper = _upper_text(columns, half, held.get(header))
            held[header] = columns, upper
            # an odd table's zero row has no mirror: it is written once, in the upper half
            zero_row = upper[0].index("\n") + 1 if len(columns[0]) % 2 else 0
            for position in reversed(range(len(upper))):
                rows = upper[position][zero_row if position == 0 else 0:-1].split("\n")
                rows.reverse()
                handle.write("-" + "\n-".join(rows) + "\n")
            for text in upper:
                handle.write(text)


def _upper_half(columns: list[np.ndarray]) -> int | None:
    """The first row of the upper half if ``columns`` form an even table (see ``_write_output``), else None."""
    labels = columns[0]
    even = (
        len(labels) >= 2
        and np.all(labels[1:] > labels[:-1])
        # past the ascending test only the first label may be the int64
        # minimum, whose negation wraps to itself, and the last never matches it
        and np.array_equal(labels, -labels[::-1])
        and all(np.array_equal(column, column[::-1]) for column in columns[1:])
    )
    return len(labels) // 2 if even else None


def _upper_text(columns: list[np.ndarray], half: int, held: tuple | None) -> list[str]:
    """The text of the rows of an even table from ``half`` on, one string per chunk.

    ``held`` is ``(columns, text)`` of the last even table with the same
    header, or None.  If it has the same column dtypes, length and label
    column, its text is reused for every row whose cells equal these
    (``==``, which formats alike: ``_float_cells`` prints both zeros as
    ``0``), and only the other rows are formatted, one ``%`` per chunk
    that has any; otherwise every row is formatted.
    """
    same_dtypes = held is not None and [column.dtype for column in held[0]] == [column.dtype for column in columns]
    if not (same_dtypes and np.array_equal(held[0][0], columns[0])):  # equal labels, so equal lengths
        return [_format_rows(chunk) for chunk in _chunks(columns, half)]
    texts = []
    for chunk, previous, text in zip(_chunks(columns, half), _chunks(held[0], half), held[1]):
        differ = np.zeros(len(chunk[0]), dtype=bool)
        for new, old in zip(chunk[1:], previous[1:]):
            differ |= new != old
        differ = np.flatnonzero(differ)
        if differ.size:
            rows = text.split("\n")
            for row, line in zip(differ.tolist(), _format_rows([column[differ] for column in chunk]).split("\n")):
                rows[row] = line
            text = "\n".join(rows)
        texts.append(text)
    return texts


def _chunks(columns: list[np.ndarray], start: int):
    """The rows of ``columns`` from ``start`` on, ``_CHUNK_ROWS`` at a time."""
    for first in range(start, len(columns[0]), _CHUNK_ROWS):
        yield [column[first:first + _CHUNK_ROWS] for column in columns]


def _format_rows(columns: list[np.ndarray]) -> str:
    """The CSV rows of ``columns``, formatted by one ``%`` (see ``_write_output``).

    The ``%`` comes first in a short function: tracemalloc finds the line
    of every allocation by scanning its frame's line table from the start,
    and ``%`` allocates twice per cell, so traced runs stay fast here.
    """
    template, cells = _template_and_cells(columns)
    return template % cells


def _template_and_cells(columns: list[np.ndarray]) -> tuple[str, tuple]:
    """The ``%`` template of the rows of ``columns`` and their cells in row order."""
    floats = tuple(column.dtype.kind not in "iu" for column in columns)
    width = len(columns)
    codes = np.zeros(len(columns[0]), dtype=np.intp)
    cells = [None] * (codes.size * width)
    for j, (values, is_float) in enumerate(zip(columns, floats)):
        if is_float:
            values, scientific = _float_cells(values)
            codes = (codes << 1) | scientific
        # Python floats format faster than numpy scalars, to the same text
        cells[j::width] = values.tolist()
    return "".join(map(_row_templates(floats).__getitem__, codes.tolist())), tuple(cells)


@functools.cache
def _row_templates(floats: tuple[bool, ...]) -> tuple[str, ...]:
    """The row template of each row code, for columns that are float where ``floats`` is true.

    A row code has one bit per float column, the first column the highest
    bit, set where the cell takes ``_SCIENTIFIC``; integer cells are ``%d``.
    """
    formats = ((_FIXED, _SCIENTIFIC) if is_float else ("%d",) for is_float in floats)
    return tuple(",".join(row) + "\n" for row in itertools.product(*formats))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        config = _resolve(parser, parser.parse_args(argv))
        if config.command == "verify":
            code = _cmd_verify(config)
        else:
            builders = {"coeffs": _cmd_coeffs, "pattern": _cmd_pattern, "orders": _cmd_orders, "sweep": _cmd_sweep}
            _write_output(builders[config.command](config), config.out)
            code = EXIT_OK
        sys.stdout.flush()  # a reader that left fails the flush here, not at exit
        return code
    except BrokenPipeError:
        # a reader closed the pipe (``| head``); if it was stdout's, point
        # stdout at devnull so that the flush at exit cannot fail again, as
        # the Python docs' SIGPIPE note does, and end quietly
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
