import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import slitgrid
from slitgrid import cli, complementarity, grating, verify
from slitgrid.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VERIFY,
    MAX_ORDER,
    MAX_POINTS,
    format_number,
    main,
)
from slitgrid.grating import _BLOCK_BYTES
from slitgrid.verify import run_verification


def run_cli(*args):
    return main(list(args))


def read_sections(path):
    """Split a multi-section CSV into {label: (header, rows)}."""
    sections = {}
    for block in path.read_text().split("\n\n"):
        lines = [line for line in block.strip().splitlines() if line]
        label = lines[0].lstrip("# ").split(":")[0]
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        sections[label] = (header, rows)
    return sections


class TestFormatNumber:
    def test_plain_decimal(self):
        assert format_number(0.0036) == "0.0036"
        assert format_number(1.0) == "1"
        assert format_number(-0.06) == "-0.06"

    def test_small_values_go_scientific(self):
        assert format_number(6.28972066294633e-8) == "6.28972066295e-08"
        assert format_number(-3.2e-5) == "-3.20000000000e-05"

    def test_zero_is_bare(self):
        assert format_number(0.0) == "0"
        assert format_number(-0.0) == "0"

    def test_twelve_significant_digits(self):
        assert format_number(0.4996453878159577) == "0.499645387816"

    # the commands hand format_number Python floats; numpy scalars must
    # give the same text, at the zero test, at the 1e-4 switch to
    # scientific notation and where %g switches at 12 digits
    EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 2.225073858507201e-308,
        *(sign * value for sign in (1.0, -1.0)
          for value in (np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0))),
        1e12 - 1.0, 1e12, 1e16, np.nextafter(1e16, math.inf), 1e17, -1e16, 1e22, 1.7976931348623157e308,
    ]

    @pytest.mark.parametrize("value", EDGES, ids=lambda value: float(value).hex())
    def test_numpy_scalar_formats_like_a_python_float_at_the_edges(self, value):
        assert format_number(np.float64(value)) == format_number(float(value))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_numpy_scalar_formats_like_a_python_float(self, value):
        assert format_number(np.float64(value)) == format_number(value)

    @staticmethod
    def spelled_out(value):
        # the rule of the module docstring, written out apart from the CLI
        if value == 0.0:
            return "0"
        if abs(value) < 1e-4:
            return f"{value:.11e}"
        return f"{value:.12g}"

    @pytest.mark.parametrize("value", [*EDGES, math.nan, -math.nan, math.inf, -math.inf], ids=lambda value: float(value).hex())
    def test_follows_the_spelled_out_rule_at_the_edges(self, value):
        assert format_number(value) == self.spelled_out(float(value))

    @given(st.floats())
    def test_follows_the_spelled_out_rule(self, value):
        assert format_number(value) == self.spelled_out(value)


def reference_csv(tables):
    """The CSV of ``tables`` formatted one cell at a time with format_number."""
    blocks = []
    for label, header, columns in tables:
        lines = [f"# {label}", header]
        for row in zip(*(column.tolist() for column in columns)):
            lines.append(",".join(str(cell) if isinstance(cell, int) else format_number(cell) for cell in row))
        blocks.append("".join(line + "\n" for line in lines))
    return "\n".join(blocks)


def written_csv(tables, out, directory):
    """What _write_output writes for ``out``: None, "-" or a file in ``directory``."""
    if out == "file":
        path = directory / "out.csv"
        cli._write_output(tables, str(path))
        return path.read_bytes().decode("utf-8")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._write_output(tables, out)
    return buffer.getvalue()


class TestWriter:
    """_write_output writes the bytes of a writer that calls format_number per cell."""

    CHUNK = 4  # _CHUNK_ROWS in these tests, so that tables cross chunk edges

    FLOATS = st.one_of(st.floats(), st.sampled_from(TestFormatNumber.EDGES).map(float))
    INTEGERS = st.integers(-(2**63), 2**63 - 1)

    ROWS = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])

    @staticmethod
    @st.composite
    def tables(draw):
        tables = []
        for index in range(draw(st.integers(1, 3))):
            count = draw(TestWriter.ROWS)
            columns = []
            for _ in range(draw(st.integers(1, 4))):
                if draw(st.booleans()):
                    columns.append(np.array(draw(st.lists(TestWriter.INTEGERS, min_size=count, max_size=count)), dtype=np.int64))
                else:
                    columns.append(np.array(draw(st.lists(TestWriter.FLOATS, min_size=count, max_size=count)), dtype=float))
            tables.append((f"table {index}: rows={count}", ",".join(f"c{j}" for j in range(len(columns))), columns))
        return tables

    @given(tables=tables())
    def test_matches_the_per_cell_reference(self, tables, tmp_path_factory):
        directory = tmp_path_factory.mktemp("writer")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
            for out in (None, "-", "file"):
                assert written_csv(tables, out, directory) == reference_csv(tables)

    @pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("out", [None, "-", "file"])
    def test_chunk_edges(self, rows, out, monkeypatch, tmp_path):
        # one integer and three float columns, every row a different mix
        # of the two float formats, zeros of both signs, nan and infinities
        edges = np.array([*TestFormatNumber.EDGES, math.nan, math.inf, -math.inf], dtype=float)
        columns = [np.arange(rows) - 2, *(np.roll(edges, shift)[:rows] for shift in (0, 3, 7))]
        tables = [("first", "n,x,y,z", columns), ("second", "x", columns[1:2])]
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        assert written_csv(tables, out, tmp_path) == reference_csv(tables)

    # even tables: the writer formats the rows with label >= 0 and writes
    # the others as their signed mirror
    EVEN_FLOATS = st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e-300, -3.2e-5, 9.99e-5, 1e-4, 6.02e23, math.inf, -math.inf]),
    )
    HALF_ROWS = st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1])

    @staticmethod
    @st.composite
    def even_table(draw):
        """An even table: ascending antisymmetric labels, the other columns mirrored about the middle."""
        half, zero = draw(TestWriter.HALF_ROWS), int(draw(st.booleans()))  # zero: odd length, a zero row
        kind = draw(st.sampled_from(["integer", "half-integer", "float"]))
        if kind == "integer":
            edges = st.sampled_from([1, 2**62, 2**63 - 2, 2**63 - 1])
            positive = st.one_of(st.integers(1, 2**63 - 1), edges)
        elif kind == "half-integer":
            positive = st.integers(0, 2**40).map(lambda n: n + 0.5)
        else:  # either format, and inf
            positive = st.one_of(st.floats(min_value=5e-324), st.sampled_from([1e-5, 1e-4, 0.5, math.inf]))
        labels = np.array(sorted(draw(st.lists(positive, min_size=half, max_size=half, unique=True))))
        if kind == "integer":
            middle = np.zeros(zero, dtype=np.int64)
        else:
            middle = np.array([draw(st.sampled_from([0.0, -0.0]))] * zero)
        columns = [np.concatenate((-labels[::-1], middle, labels))]
        for _ in range(draw(st.integers(0, 3))):
            integers = draw(st.booleans())
            cells = st.integers(-(2**63), 2**63 - 1) if integers else TestWriter.EVEN_FLOATS
            upper = np.array(draw(st.lists(cells, min_size=half + zero, max_size=half + zero)), dtype=np.int64 if integers else float)
            lower = upper[zero:][::-1]
            if not integers:
                # a zero's mirror may carry the other sign: still the same cell
                flips = np.array(draw(st.lists(st.booleans(), min_size=half, max_size=half)), dtype=bool)
                lower = np.where(flips & (lower == 0.0), -lower, lower)
            columns.append(np.concatenate((lower, upper)))
        return columns

    @given(first=even_table(), second=even_table())
    def test_even_tables_match_the_per_cell_reference(self, first, second, tmp_path_factory):
        assert cli._upper_half(first) == len(first[0]) // 2
        tables = [("even", ",".join(f"c{j}" for j in range(len(first))), first), ("also even", "x", second[:1])]
        directory = tmp_path_factory.mktemp("writer")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
            for out in (None, "-", "file"):
                assert written_csv(tables, out, directory) == reference_csv(tables)

    @staticmethod
    def near_even(case):
        """An even table of 2 * CHUNK + 3 rows broken by ``case``, which the writer must format whole."""
        half = TestWriter.CHUNK + 1
        labels = np.arange(-half, half + 1).astype(float)
        values = np.array([*TestFormatNumber.EDGES[:half], 0.5], dtype=float)
        values = np.concatenate((values, values[:-1][::-1]))
        if case == "one ulp off":
            values[1] = np.nextafter(values[1], math.inf)
        elif case == "nan pair":
            values[2] = values[-3] = math.nan
        elif case == "label not negated":
            labels[1] = np.nextafter(labels[1], 0.0)
        elif case == "labels not ascending":
            labels[[1, 2]], labels[[-2, -3]] = labels[[2, 1]], labels[[-3, -2]]
        return [labels, values, np.arange(labels.size) % 3 - 1 if case == "integers not mirrored" else values]

    @pytest.mark.parametrize("case", ["one ulp off", "nan pair", "label not negated", "labels not ascending", "integers not mirrored"])
    def test_near_even_tables_are_formatted_whole(self, case, monkeypatch):
        columns = self.near_even(case)
        assert cli._upper_half(columns) is None
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        tables = [("near even", "x,y,z", columns)]
        assert written_csv(tables, None, None) == reference_csv(tables)

    INT64_CELLS = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1])
    FLOAT_CELLS = st.sampled_from([-math.inf, -1.5, -0.0, 0.0, 1.5, math.inf, math.nan])

    @staticmethod
    @st.composite
    def small_table(draw):
        """0 to 5 rows of int64 or float cells at the edges, half the draws mirrored about the middle.

        A mirrored table has its upper half drawn, its labels distinct and
        sorted, and its lower half mirrored by numpy, whose negation wraps
        the int64 minimum; it is even unless a cell breaks the definition.
        """
        rows, mirrored = draw(st.integers(0, 5)), draw(st.booleans())
        columns = []
        for j in range(draw(st.integers(1, 3))):
            dtype = np.int64 if draw(st.booleans()) else float
            cells = TestWriter.INT64_CELLS if dtype is np.int64 else TestWriter.FLOAT_CELLS
            size = rows - rows // 2 if mirrored else rows
            unique = mirrored and j == 0
            column = np.array(draw(st.lists(cells, min_size=size, max_size=size, unique=unique)), dtype=dtype)
            if mirrored:
                upper = np.sort(column) if j == 0 else column
                lower = upper[rows % 2:][::-1]
                column = np.concatenate((-lower if j == 0 else lower, upper))
            columns.append(column)
        return columns

    @staticmethod
    def brute_upper_half(columns):
        """``cli._upper_half`` by its definition, on Python numbers, whose negation does not wrap."""
        rows = len(columns[0])
        labels, *others = (column.tolist() for column in columns)
        even = (
            rows >= 2
            and all(x < y for x, y in zip(labels, labels[1:]))
            and all(labels[i] == -labels[rows - 1 - i] for i in range(rows))
            and all(cells[i] == cells[rows - 1 - i] for cells in others for i in range(rows))
        )
        return rows // 2 if even else None

    @given(columns=small_table())
    @example(columns=[np.array([], dtype=np.int64)])
    @example(columns=[np.array([0.0]), np.array([1.5])])
    @example(columns=[np.array([-(2**63) + 1, 2**63 - 1])])
    @example(columns=[np.array([-(2**63), 2**63 - 1])])
    @example(columns=[np.array([-math.inf, -0.0, math.inf]), np.array([0.0, -0.0, -0.0])])
    @example(columns=[np.array([-1.5, 0.0, 1.5]), np.array([1.5, math.nan, 1.5])])
    def test_upper_half_is_the_definition_of_an_even_table(self, columns):
        assert cli._upper_half(columns) == self.brute_upper_half(columns)

    @staticmethod
    @st.composite
    def even_pair(draw):
        """An even table and a second with its labels, changed in a drawn set of mirrored row pairs."""
        first = draw(TestWriter.even_table())
        size, half = len(first[0]), len(first[0]) // 2
        second = [first[0].copy()]
        for column in first[1:]:
            cells = st.integers(-(2**63), 2**63 - 1) if column.dtype.kind == "i" else TestWriter.EVEN_FLOATS
            changed = np.array(draw(st.lists(st.booleans(), min_size=size - half, max_size=size - half)), dtype=bool)
            fresh = np.array(draw(st.lists(cells, min_size=size - half, max_size=size - half)), dtype=column.dtype)
            upper = np.where(changed, fresh, column[half:])
            second.append(np.concatenate((upper[size % 2:][::-1], upper)))
        return first, second

    @given(pair=even_pair())
    def test_an_even_table_reuses_the_text_of_the_last_with_its_header(self, pair):
        # the table between has another header, so the third reuses the first's text
        first, second = pair
        header = ",".join(f"c{j}" for j in range(len(first)))
        tables = [("even", header, first), ("between", "x", first[:1]), ("again", header, second)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
            assert written_csv(tables, None, None) == reference_csv(tables)

    def test_text_is_reused_only_between_columns_of_one_dtype(self, monkeypatch):
        # 10**13 prints as an integer and as a float differently
        labels = np.array([-(10**13), 0, 10**13])
        values = np.array([0.25, -0.0, 0.25])
        tables = [("int", "n,P", [labels, values]), ("float", "n,P", [labels.astype(float), values])]
        formatted = []
        format_rows = cli._format_rows
        monkeypatch.setattr(cli, "_format_rows", lambda columns: formatted.append(len(columns[0])) or format_rows(columns))
        assert written_csv(tables, None, None) == reference_csv(tables)
        assert formatted == [2, 2]

    def test_orders_formats_only_the_upper_half(self, monkeypatch, capsys):
        # 61 single-slit and 60 two-slit rows per channel, of which 31 and 30
        # are formatted; the reflected tables reuse the transmitted text but
        # for the rows of n = 0 and m = 1/2, where r_0 = -a and t_0 = 1 - a
        formatted = []
        format_rows = cli._format_rows
        monkeypatch.setattr(cli, "_format_rows", lambda columns: formatted.append(len(columns[0])) or format_rows(columns))
        assert run_cli("orders", "--a", "0.06", "--order", "30", "--channel", "both") == EXIT_OK
        assert formatted == [31, 30, 1, 1]
        assert len(capsys.readouterr().out.splitlines()) == 4 * 2 + 3 + 2 * (61 + 60)

    @pytest.mark.parametrize("phase", ["0", repr(math.pi / 2.0), "1.2345"])
    @pytest.mark.parametrize("order", [1, 2, 4095, 4096, 4097])
    @pytest.mark.parametrize("a", ["0", "0.5", "1", "0.3127"])
    def test_orders_on_both_channels_writes_the_bytes_of_each_channel_alone(self, a, order, phase, capsys):
        # the reflected tables reuse the transmitted text, across the 4096-row chunks at the larger orders
        outputs = {}
        for channel in ("both", "t", "r"):
            assert run_cli("orders", "--a", a, "--order", str(order), "--phase", phase, "--channel", channel) == EXIT_OK
            outputs[channel] = capsys.readouterr().out
        assert outputs["both"] == outputs["t"] + "\n" + outputs["r"]


class TestSharedParser:
    def test_main_builds_its_parser_once(self, capsys):
        cli._build_parser.cache_clear()
        for argv in (["coeffs", "--order", "3"], ["orders", "--order", "3"], ["sweep", "--points", "3"]):
            assert run_cli(*argv, "--out", "-") == EXIT_OK
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_importing_the_cli_builds_no_parser(self):
        # the parser is built on the first call of main, not at import
        code = "import slitgrid.cli as cli; print(cli._build_parser.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout == "0\n"


class TestCoeffsCommand:
    def test_layout_and_values(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", "--a", "0.06", "--order", "50", "--out", str(out)) == EXIT_OK
        sections = read_sections(out)
        header, rows = sections["coefficients"]
        assert header == ["n", "c_n", "r_n", "t_n"]
        assert len(rows) == 51
        assert rows[0] == ["0", "0.06", "-0.06", "0.94"]
        assert float(rows[1][1]) == pytest.approx(-0.119290649837502, rel=1e-11)

        header, rows = sections["pattern"]
        assert header == ["x_over_Lambda", "G", "I"]
        assert len(rows) == 401
        table = {row[0]: row for row in rows}
        assert abs(float(table["0.5"][1]) - 1.0) <= 0.15
        assert abs(float(table["0"][1])) <= 0.05
        assert table["0"][2] == "1"    # fringe maximum, exact
        assert table["0.5"][2] == "0"  # strip center sits on the minimum, exact
        assert table["-2"][0] == "-2" and table["2"][0] == "2"

    def test_empty_grating_has_flat_coefficients(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", "--a", "0", "--order", "10", "--out", str(out)) == EXIT_OK
        _, rows = read_sections(out)["coefficients"]
        assert all(row[1] == "0" for row in rows[1:])

    def test_byte_deterministic(self, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        run_cli("coeffs", "--a", "0.06", "--out", str(first))
        run_cli("coeffs", "--a", "0.06", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()
        run_cli("coeffs", "--a", "0.06", "--out", str(first))  # idempotent overwrite
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    def test_builds_one_table_per_request(self, monkeypatch, capsys):
        # the coefficient columns and the profile read the one table
        builds = []
        build = grating.AmplitudeTable.build
        monkeypatch.setattr(grating.AmplitudeTable, "build", lambda *args: builds.append(args) or build(*args))
        assert run_cli("coeffs", "--a", "0.3", "--order", "40") == EXIT_OK
        assert builds == [(0.3, 40)]
        assert capsys.readouterr().out.count("\n# ") == 1


class TestPatternCommand:
    def test_single_section(self, tmp_path):
        out = tmp_path / "pattern.csv"
        assert run_cli("pattern", "--out", str(out)) == EXIT_OK
        sections = read_sections(out)
        assert set(sections) == {"pattern"}
        header, rows = sections["pattern"]
        assert header == ["x_over_Lambda", "G", "I"]
        assert len(rows) == 401

    def test_phase_shifts_the_fringe(self, tmp_path):
        out = tmp_path / "pattern.csv"
        run_cli("pattern", "--phase", str(math.pi / 2.0), "--out", str(out))
        _, rows = read_sections(out)["pattern"]
        table = {row[0]: row for row in rows}
        assert table["0"][2] == "0"  # quarter-turn moves the zero onto the axis

    @pytest.mark.parametrize("phase", ["0", "1.2345"])  # an even table and one that is not
    @pytest.mark.parametrize("order", ["1", "81", "82", "2000"])  # both profile routes
    @pytest.mark.parametrize("a", ["0.06", "0.3127"])
    def test_is_the_second_section_of_coeffs(self, a, order, phase, capsys):
        argv = ["--a", a, "--order", order, "--phase", phase, "--out", "-"]
        assert run_cli("coeffs", *argv) == EXIT_OK
        coeffs = capsys.readouterr().out
        assert run_cli("pattern", *argv) == EXIT_OK
        pattern = capsys.readouterr().out
        assert pattern.startswith("# pattern:")
        assert coeffs.endswith("\n\n" + pattern)

    @pytest.mark.parametrize("command", ["pattern", "coeffs"])
    @pytest.mark.parametrize("phase", ["1e308", "-1e308"])
    def test_a_huge_phase_gives_a_finite_fringe(self, command, phase, tmp_path):
        # the phase is reduced to [0, 2*pi) before 2*(pi*x + phase) is formed,
        # which would overflow to inf and give cos(inf) = nan
        out = tmp_path / "pattern.csv"
        assert run_cli(command, f"--phase={phase}", "--order", "5", "--out", str(out)) == EXIT_OK
        _, rows = read_sections(out)["pattern"]
        fringe = np.array([float(row[2]) for row in rows])
        assert np.all((fringe >= 0.0) & (fringe <= 1.0))


class TestOrdersCommand:
    def test_a_negative_phase_in_scientific_notation_takes_the_equals_form(self, capsys):
        # argparse takes "-1e-3" after a space for an option on Python 3.11;
        # after "=" it is always the flag's value
        assert run_cli("orders", "--order", "5", "--phase=-1e-3", "--out", "-") == EXIT_OK
        scientific = capsys.readouterr().out
        assert run_cli("orders", "--order", "5", "--phase", "-0.001", "--out", "-") == EXIT_OK
        assert scientific == capsys.readouterr().out
        assert "phase=-0.001\n" in scientific

    def test_both_channels_four_sections(self, tmp_path):
        out = tmp_path / "orders.csv"
        assert run_cli("orders", "--out", str(out)) == EXIT_OK
        sections = read_sections(out)
        assert set(sections) == {
            "single-slit transmitted",
            "two-slit transmitted",
            "single-slit reflected",
            "two-slit reflected",
        }

    def test_reference_rows(self, tmp_path):
        out = tmp_path / "orders.csv"
        run_cli("orders", "--a", "0.06", "--order", "30", "--channel", "both", "--out", str(out))
        sections = read_sections(out)

        _, rows = sections["single-slit reflected"]
        assert len(rows) == 61
        by_order = {row[0]: float(row[1]) for row in rows}
        assert by_order["0"] == 0.0036

        _, rows = sections["two-slit reflected"]
        assert len(rows) == 60
        by_order = {row[0]: float(row[1]) for row in rows}
        assert by_order["0.5"] == pytest.approx(6.28972066294633e-8, rel=1e-10)

        _, rows = sections["two-slit transmitted"]
        by_order = {row[0]: float(row[1]) for row in rows}
        assert by_order["0.5"] == pytest.approx(0.499645387815958, rel=1e-11)
        assert by_order["-0.5"] == by_order["0.5"]

    def test_single_channel_selection(self, tmp_path):
        out = tmp_path / "orders.csv"
        run_cli("orders", "--channel", "r", "--out", str(out))
        sections = read_sections(out)
        assert set(sections) == {"single-slit reflected", "two-slit reflected"}

    def test_builds_one_table_per_request(self, monkeypatch, capsys):
        # all four spectra of --channel both read the one table
        builds = []
        build = grating.AmplitudeTable.build
        monkeypatch.setattr(grating.AmplitudeTable, "build", lambda *args: builds.append(args) or build(*args))
        assert run_cli("orders", "--a", "0.3", "--order", "40", "--channel", "both") == EXIT_OK
        assert builds == [(0.3, 40)]
        assert capsys.readouterr().out.count("\n# ") == 3


class TestSweepCommand:
    def test_endpoints_and_reference_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--points", "1001", "--out", str(out)) == EXIT_OK
        header, rows = read_sections(out)["sweep transmitted"]
        assert header == ["a", "V", "D", "duality"]
        assert len(rows) == 1001
        assert rows[0][0] == "0" and rows[0][3] == "1"
        assert rows[-1][0] == "1" and rows[-1][3] == "1"
        by_ratio = {row[0]: row for row in rows}
        assert float(by_ratio["0.5"][3]) == pytest.approx(0.427390125002867, rel=1e-11)
        dualities = [float(row[3]) for row in rows]
        assert max(dualities) <= 1.0 + 1e-12
        assert min(dualities[1:-1]) < 0.5

    def test_both_channels(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--points", "11", "--channel", "both", "--out", str(out))
        sections = read_sections(out)
        assert set(sections) == {"sweep transmitted", "sweep reflected"}


class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("a = 0.5\norder = 5\n# comment line\n\nchannel = r\n")
        out = tmp_path / "orders.csv"
        assert run_cli("orders", "--config", str(config), "--out", str(out)) == EXIT_OK
        sections = read_sections(out)
        assert set(sections) == {"single-slit reflected", "two-slit reflected"}
        _, rows = sections["single-slit reflected"]
        assert len(rows) == 11  # order = 5 from the file
        assert {row[0]: row[1] for row in rows}["0"] == "0.25"  # a = 0.5 from the file

        override = tmp_path / "orders2.csv"
        run_cli("orders", "--config", str(config), "--a", "0", "--out", str(override))
        _, rows = read_sections(override)["single-slit reflected"]
        assert {row[0]: row[1] for row in rows}["0"] == "0"  # flag wins

    def test_out_path_from_config(self, tmp_path):
        target = tmp_path / "from_config.csv"
        config = tmp_path / "run.cfg"
        config.write_text(f"out = {target}\norder = 3\n")
        assert run_cli("pattern", "--config", str(config)) == EXIT_OK
        assert target.exists()

    def test_missing_config_is_an_io_error(self, tmp_path):
        assert run_cli("pattern", "--config", str(tmp_path / "nope.cfg")) == EXIT_IO

    def test_malformed_config_is_a_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n")
        assert run_cli("pattern", "--config", str(config)) == EXIT_USAGE

    def test_unknown_key_is_a_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("wavelength = 532\n")
        assert run_cli("pattern", "--config", str(config)) == EXIT_USAGE

    def test_non_numeric_value_is_a_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("a = tiny\n")
        assert run_cli("pattern", "--config", str(config)) == EXIT_USAGE

    def test_non_utf8_config_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"a=0.\xff\n")
        assert run_cli("coeffs", "--config", str(config)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {config}: ")

    # (command, setting, value, other flags): the value differs from the default
    FILE_AS_FLAG = [
        ("coeffs", "a", "0.3", ["--order", "5"]),
        ("coeffs", "order", "7", []),
        ("coeffs", "phase", "0.7", ["--order", "5"]),
        ("orders", "channel", "r", ["--order", "5"]),
        ("sweep", "points", "11", []),
        ("sweep", "channel", "both", ["--points", "11"]),
        ("verify", "order", "400", []),
        ("verify", "perturb", "t1", ["--order", "400"]),
    ]

    @pytest.mark.parametrize(
        "command, key, value, argv", FILE_AS_FLAG, ids=[f"{c}-{k}" for c, k, _, _ in FILE_AS_FLAG]
    )
    def test_file_value_acts_like_the_flag(self, tmp_path, capsys, command, key, value, argv):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        outputs = []
        for extra in ([], [f"--{key}", value], ["--config", str(config)]):
            code = run_cli(command, *argv, *extra, "--out", "-")  # stdout, verify's report too
            outputs.append((code, *capsys.readouterr()))
        plain, from_flag, from_file = outputs
        assert from_file == from_flag
        assert from_flag != plain
        assert from_flag[2] == ""

    def test_flag_overrides_a_bad_file_value(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("a = tiny\n")
        argv = ["pattern", "--config", str(config), "--a", "0.5", "--order", "3", "--out", "-"]
        assert run_cli(*argv) == EXIT_OK

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("pattern", "a", "tiny"),
            ("coeffs", "order", "2.5"),
            ("orders", "channel", "all"),
            ("sweep", "points", "1e3"),
            ("verify", "perturb", "q7"),
        ],
    )
    def test_bad_file_value_names_file_and_flag(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        assert run_cli(command, "--config", str(config)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {config}: argument --{key}")

    @pytest.mark.parametrize("command", sorted(cli._DEFAULTS))
    @pytest.mark.parametrize("with_file", [False, True], ids=["flags", "file"])
    def test_config_holds_only_the_command_settings(self, tmp_path, command, with_file):
        config = tmp_path / "run.cfg"
        config.write_text(
            "a = 0.5\norder = 5\nphase = 0.1\nchannel = t\npoints = 11\nout = -\nperturb = r0\n"
        )
        parser = cli._build_parser()
        argv = [command, "--config", str(config)] if with_file else [command]
        resolved = cli._resolve(parser, parser.parse_args(argv))
        assert set(vars(resolved)) == {"command", *cli._DEFAULTS[command]}
        assert resolved.command == command


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unwritable_output(self):
        assert run_cli("pattern", "--out", "/nonexistent-dir/x.csv") == EXIT_IO

    def test_verify_passes(self):
        assert run_cli("verify", "--order", "400") == EXIT_OK

    def test_verify_with_fault_injection_fails(self):
        assert run_cli("verify", "--order", "400", "--perturb", "r0") == EXIT_VERIFY

    def test_unknown_perturbation_is_a_usage_error(self):
        assert run_cli("verify", "--perturb", "q7") == EXIT_USAGE

    # (argv, stderr): each value is rejected by the library code that reads
    # it, before any output, and its ValueError text is the whole message;
    # CONFIG stands for a config file holding ``a = 2``
    CONFIG = "run.cfg"
    REJECTED = [
        *(
            ([command, "--phase", phase, "--out", "-"], f"delta_phi must be finite, got {phase}")
            for command in ("pattern", "coeffs", "orders")
            for phase in ("nan", "inf")
        ),
        (["coeffs", "--a", "1.5"], "cover ratio must lie in [0, 1], got 1.5"),
        (["pattern", "--a", "nan"], "cover ratio must lie in [0, 1], got nan"),
        (["orders", "--config", CONFIG], "cover ratio must lie in [0, 1], got 2.0"),
        (["coeffs", "--order", "0"], "truncation order must be an integer >= 1, got 0"),
        (["orders", "--order", "0"], "truncation order must be an integer >= 1, got 0"),
        (["coeffs", "--order", "-3"], "truncation order must be an integer >= 1, got -3"),
        (["verify", "--order", "0"], "truncation order must be an integer >= 1, got 0"),
        # building the table checks the ratio, then the order; the phase comes after
        (["coeffs", "--a", "1.5", "--phase", "nan"], "cover ratio must lie in [0, 1], got 1.5"),
        (["coeffs", "--order", "0", "--phase", "nan"], "truncation order must be an integer >= 1, got 0"),
    ]

    @pytest.mark.parametrize("argv, message", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED])
    def test_bad_value_is_rejected_with_the_library_message(self, argv, message, tmp_path, capsys):
        config = tmp_path / self.CONFIG
        config.write_text("a = 2\n")
        argv = [str(config) if arg == self.CONFIG else arg for arg in argv]
        assert run_cli(*argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["coeffs", "pattern"])
    def test_bad_phase_is_rejected_before_the_profile(self, command, monkeypatch, capsys):
        # the table, which checks --a and --order, is built first and the
        # profile never: pattern is the second section of coeffs
        calls = []
        monkeypatch.setattr(cli, "_profile", lambda *args: calls.append(("profile", *args)))
        monkeypatch.setattr(grating.AmplitudeTable, "build", lambda *args: calls.append(("table", *args)))
        assert run_cli(command, "--phase", "nan", "--order", str(MAX_ORDER)) == EXIT_USAGE
        assert calls == [("table", 0.06, MAX_ORDER)]
        assert capsys.readouterr().err == "error: delta_phi must be finite, got nan\n"

    def test_stdout_output(self, capsys):
        assert run_cli("pattern", "--order", "3") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "x_over_Lambda,G,I"
        assert len(lines) == 403

    def test_a_reader_that_closes_the_pipe_ends_the_request_quietly(self):
        # as `slitgrid coeffs --order 2000 | head -1`: 140 kB of CSV, more than
        # a pipe holds, so the writer meets the closed pipe
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "slitgrid.cli", "coeffs", "--order", "2000"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"# coefficients: a=0.06 order=2000\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (EXIT_PIPE, b"")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_a_closed_out_pipe_leaves_stdout_alone(self, tmp_path, capsys):
        # the --out file is a named pipe whose reader leaves after 10 bytes;
        # stdout did not break, so the handler must not touch its descriptor
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)

        def read_a_little():
            with open(fifo, "rb") as reader:
                reader.read(10)

        thread = threading.Thread(target=read_a_little, daemon=True)
        thread.start()
        assert run_cli("coeffs", "--order", "2000", "--out", str(fifo)) == EXIT_PIPE
        thread.join(timeout=10)
        assert capsys.readouterr() == ("", "")


class TestIgnoredSettings:
    """A command neither validates nor reads a setting it does not use."""

    @pytest.mark.parametrize(
        "argv, ignored",
        [
            (["sweep", "--points", "11"], ["--a", "2"]),
            (["sweep", "--points", "11"], ["--order", "0"]),
            (["verify"], ["--a", "2"]),
        ],
    )
    def test_flag_is_ignored(self, argv, ignored, capsys):
        plain_code = run_cli(*argv)
        plain = capsys.readouterr()
        assert plain_code == EXIT_OK
        assert run_cli(*argv, *ignored) == EXIT_OK
        assert capsys.readouterr() == plain

    def test_config_value_is_ignored(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("a = 2\norder = zero\nphase = nan\nperturb = q7\n")
        assert run_cli("sweep", "--points", "11") == EXIT_OK
        plain = capsys.readouterr()
        assert run_cli("sweep", "--points", "11", "--config", str(config)) == EXIT_OK
        assert capsys.readouterr() == plain

    def test_config_value_is_still_checked_where_read(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("a = 2\n")
        assert run_cli("orders", "--config", str(config)) == EXIT_USAGE


class TestBoundedRequests:
    """Requests above the caps are refused before anything is computed."""

    OVER_CAP = [
        (["sweep", "--points"], MAX_POINTS),
        *(([command, "--order"], MAX_ORDER) for command in ("coeffs", "pattern", "orders", "verify")),
    ]

    @pytest.mark.parametrize("argv, cap", OVER_CAP, ids=lambda value: "".join(value) if isinstance(value, list) else "")
    def test_request_above_the_cap_is_refused_without_allocating(self, argv, cap, capsys):
        tracemalloc.start()
        try:
            code = run_cli(*argv, str(cap + 1), "--out", "-")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[1]} must be <= {cap}, got {cap + 1}\n"
        # numpy reports its buffers to tracemalloc; the smallest refused
        # computation would allocate a table of MAX_ORDER + 2 floats
        assert peak < 8 * MAX_ORDER

    def test_config_value_above_the_cap_is_refused(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"points = {MAX_POINTS + 1}\n")
        assert run_cli("sweep", "--config", str(config)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --points must be <= ")

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["sweep", "--points", str(MAX_POINTS)], "points"),
            (["orders", "--order", str(MAX_ORDER)], "order"),
        ],
    )
    def test_the_cap_itself_is_accepted(self, argv, field):
        parser = cli._build_parser()
        config = cli._resolve(parser, parser.parse_args(argv))
        assert getattr(config, field) == int(argv[2])

    def test_largest_profile_stays_within_the_block_budget(self, capsys):
        # the profile is 401 x MAX_ORDER cosines, 320 MB evaluated at once;
        # the factored sum holds a few N-term arrays (the orders, the
        # harmonics and their temporaries, its coefficient table) and one
        # block of temporaries: traced peak 5.6 MiB
        tracemalloc.start()
        try:
            code = run_cli("pattern", "--order", str(MAX_ORDER), "--out", "-")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert peak < 8 * (8 * MAX_ORDER) + 2 * _BLOCK_BYTES + len(out)

    def test_caps_sit_far_above_the_reference_sizes(self):
        # the 100001-point reference sweep and verify's 2000 terms
        assert MAX_POINTS >= 2 * 100001
        assert MAX_ORDER >= 50 * 2000

    # the tables are held whole but their rows are written a chunk at a
    # time: traced peaks 17.0 and 9.1 MiB, where formatting the whole
    # output before writing it takes 83.5 and 50.2 MiB; verify holds one
    # stack of _block_rows(N + 1) amplitude tables at a time, one table at
    # this order (traced peak 7.2 MiB), where holding all 101 tables of the
    # grid would take about 155 MiB
    @pytest.mark.parametrize(
        "argv, bound_mib",
        [
            (["sweep", "--points", "200001", "--channel", "both"], 40),
            (["orders", "--order", "50000", "--channel", "both"], 25),
            (["verify", "--order", str(MAX_ORDER)], 12),
        ],
        ids=["sweep", "orders", "verify"],
    )
    def test_memory_does_not_grow_with_the_output(self, argv, bound_mib, tmp_path):
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = run_cli(*argv, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < bound_mib << 20

    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["sweep", "--points", "11", "--out", "-"], complementarity, "complementarity_sweep"),
            # coeffs builds its table once and hands it to the profile, and
            # pattern is its second section
            (["pattern", "--out", "-"], cli, "_profile"),
            (["pattern", "--out", "out.csv"], cli, "_profile"),
            (["coeffs", "--out", "-"], cli, "_profile"),
            (["coeffs", "--out", "out.csv"], cli, "_profile"),
        ],
    )
    def test_memory_error_is_a_usage_error(self, argv, owner, name, monkeypatch, capsys, tmp_path):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, name, exhausted)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")
        assert list(tmp_path.iterdir()) == []  # no --out file is created

    def test_memory_error_in_the_factored_profile_is_a_usage_error(self, monkeypatch, capsys):
        # at 20000 terms the 401 profile rows take the factored sum, which
        # runs out of memory at its giant steps, after the inner sums, and
        # stops there
        calls = itertools.count(1)
        turns = grating._turns

        def exhausted_on_the_second(*args):
            if next(calls) == 2:
                raise MemoryError
            return turns(*args)

        monkeypatch.setattr(grating, "_turns", exhausted_on_the_second)
        assert run_cli("pattern", "--order", "20000", "--out", "-") == EXIT_USAGE
        assert next(calls) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")


class TestVerifySuite:
    def test_all_checks_pass(self):
        results = run_verification(truncation=400)
        assert all(result.passed for result in results)
        names = [result.name for result in results]
        assert names == [
            "normalization-identity",
            "normalization-defect",
            "visibility-oracle",
            "visibility-spot",
            "distinguishability-dual",
            "distinguishability-spot",
            "duality-bound",
            "duality-endpoints",
            "parseval-two-slit",
            "endpoint-degenerate",
        ]
        assert all(result.value <= result.tolerance for result in results if result.tolerance)

    @pytest.mark.parametrize("perturb", ["r0", "r1", "t0", "t1"])
    def test_each_perturbation_trips_the_suite(self, perturb):
        results = run_verification(perturb=perturb, truncation=400)
        assert any(not result.passed for result in results)

    def test_report_fields_carry_the_measurement(self):
        results = run_verification(truncation=400)
        for result in results:
            assert result.name and result.detail
            assert math.isfinite(result.value)

    def test_rejects_unknown_perturbation(self):
        with pytest.raises(ValueError):
            run_verification(perturb="x9")

    @pytest.mark.parametrize("truncation", [0, -3, 2.5, True])
    def test_rejects_a_bad_truncation_before_building_a_table(self, truncation, monkeypatch):
        builds = []
        build = grating.AmplitudeTable.build
        monkeypatch.setattr(grating.AmplitudeTable, "build", lambda *args: builds.append(args) or build(*args))
        with pytest.raises(ValueError, match="truncation order must be an integer >= 1"):
            run_verification(truncation=truncation)
        assert builds == []

    @pytest.mark.parametrize("perturb", [None, "r1"])
    def test_builds_one_table_per_ratio(self, perturb, monkeypatch):
        # the grid's 101 tables at the suite's truncation, read by every
        # amplitude check, and the endpoint check's 4 small tables: one per
        # ratio for the spectra and one for each grid_function call; the
        # grid's ratios are built in stacks, so each ratio counts once
        built = []
        build = grating.AmplitudeTable.build
        monkeypatch.setattr(
            grating.AmplitudeTable, "build", lambda *args: built.extend([args[1]] * np.size(args[0])) or build(*args)
        )
        run_verification(perturb=perturb)
        assert sorted(built) == [30] * 4 + [2000] * 101

    @pytest.mark.parametrize("perturb", [None, "r1"])
    def test_evaluates_each_grid_quantity_once_per_channel(self, perturb, monkeypatch):
        # V by its closed form and quadrature, D by its closed form and the
        # amplitudes: one call per channel on the whole grid, whose entries
        # the spot and endpoint checks read instead of calling again
        names = ("visibility_closed", "visibility_quadrature", "distinguishability_closed",
                 "distinguishability_from_amplitudes")
        calls = []
        for name in names:
            route = getattr(complementarity, name)
            monkeypatch.setattr(
                complementarity, name,
                lambda ratios, channel, name=name, route=route: calls.append((name, channel)) or route(ratios, channel),
            )
        run_verification(perturb=perturb)
        assert sorted(calls) == sorted((name, channel) for name in names for channel in grating.CHANNELS)

    @pytest.mark.parametrize(
        "name, value_at, detail",
        [
            ("visibility_quadrature", (0.0, math.nan), "non-finite value at a=0.0; quadrature V_r(0) != 1"),
            ("visibility_closed", (1.0, 1.0 - 2.0**-52), "V_t(1) != 1"),
        ],
    )
    def test_endpoint_check_reads_the_grid_at_both_ends(self, name, value_at, detail, monkeypatch):
        # one closed form gone wrong at an endpoint, on the grid that every
        # check reads, fails endpoint-degenerate with its own detail
        route, (a, value) = getattr(complementarity, name), value_at
        monkeypatch.setattr(
            complementarity, name, lambda ratios, channel: np.where(ratios == a, value, route(ratios, channel))
        )
        results = {result.name: result for result in run_verification(truncation=30)}
        endpoints = results["endpoint-degenerate"]
        assert (endpoints.passed, endpoints.detail) == (False, detail)
        assert run_cli("verify", "--order", "30") == EXIT_VERIFY

    @given(st.floats(min_value=0.0, max_value=1.0))
    @example(5e-324)
    @example(2.0**-1022)
    @example(0.5 - 2.0**-54)
    @example(0.5 + 2.0**-53)
    @example(1.0 - 2.0**-53)
    def test_normalization_identity_is_within_its_proven_bound(self, a):
        # _check_normalization_identity's docstring bounds its value by 4u,
        # u = 2**-53, at every a in [0, 1]: on the grid and at a drawn ratio
        for ratios in (complementarity._cover_grid(verify.DEFAULT_GRID), np.array([a])):
            result = verify._check_normalization_identity(ratios, grating.AmplitudeTable.build(ratios, 1))
            assert result.passed and result.value <= 4 * 2.0**-53

    @pytest.mark.parametrize(
        "truncation, stacks",
        [(80, [101]), (81, [99, 2]), (2000, [4] * 25 + [1]), (4096, [1] * 101)],
    )
    def test_builds_the_grid_in_stacks_of_the_block_rule(self, truncation, stacks, monkeypatch):
        # _block_rows(N + 1) ratios a stack, so each array of a stack stays
        # within 64 KiB: the whole grid up to N = 80, one ratio from N = 4096
        sizes = []
        build = grating.AmplitudeTable.build
        monkeypatch.setattr(
            grating.AmplitudeTable, "build", lambda *args: sizes.append(np.shape(args[0])) or build(*args)
        )
        run_verification(truncation=truncation)
        assert [size for size in sizes if size] == [(rows,) for rows in stacks]

    def test_memory_stays_within_a_few_stacks_of_tables(self):
        # one ratio a stack at 20000 terms: a table is 2 x 20001 float64,
        # 313 KiB, and the build's temporaries, the previous stack and the
        # two-slit spectra a few more (traced peak 1.4 MiB); the whole grid
        # as one stack would hold 101 tables, 31 MiB, and 162 MB at the cap
        truncation = 20000
        table_bytes = min(grating._block_rows(truncation + 1), 101) * (truncation + 1) * 16
        tracemalloc.start()
        try:
            results = run_verification(truncation=truncation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(result.passed for result in results)
        assert peak < 6 * table_bytes

    def test_parseval_ratio_off_the_grid_is_an_error(self, monkeypatch):
        monkeypatch.setattr(verify, "PARSEVAL_COVER_RATIOS", (0.06, 0.333, 0.5))
        with pytest.raises(ValueError):
            run_verification(truncation=30)

    def test_verify_reports_one_line_per_check(self, capsys):
        assert run_cli("verify", "--order", "400") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 10
        assert "10/10 checks passed" in out


# every command, verify clean, failing and at the smallest order, and one
# rejected input: the requests whose calls bound the public surface
SURFACE_REQUESTS = [
    (["coeffs", "--order", "50"], EXIT_OK),
    (["pattern", "--order", "50", "--phase", "1.2345"], EXIT_OK),
    (["orders", "--order", "20", "--phase", "1.2345", "--channel", "both"], EXIT_OK),
    (["sweep", "--points", "101", "--channel", "both"], EXIT_OK),
    (["verify"], EXIT_OK),
    (["verify", "--perturb", "r0"], EXIT_VERIFY),
    (["verify", "--order", "1"], EXIT_OK),
    (["coeffs", "--a", "1.5"], EXIT_USAGE),
]

# exported for the field alone, which no command computes yet (ROADMAP item 13)
NOT_CALLED_BY_THE_CLI = {"SetupGeometry", "TwoSlitConfig", "synthesize_field"}


def code_objects(value):
    """The code objects of a function, or of every method a class defines, dataclass-generated ones included."""
    codes = set()
    for member in vars(value).values() if isinstance(value, type) else [value]:
        member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
        if hasattr(member, "__code__"):
            codes.add(member.__code__)
    return codes


def test_every_exported_name_is_called_by_a_cli_request():
    # a name in __all__ that no request calls is surface nothing reads; one
    # without code (a constant, a type alias, a bare warning class) is exempt
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = {name: code_objects(getattr(slitgrid, name)) for name in slitgrid.__all__}
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exits = [main(argv) for argv, _ in SURFACE_REQUESTS]
    finally:
        sys.setprofile(previous)
    assert exits == [code for _, code in SURFACE_REQUESTS]
    assert {name for name, own in codes.items() if not own} == {"CHANNELS", "Channel", "ParaxialWarning"}
    assert {name for name, own in codes.items() if own and not own & called} == NOT_CALLED_BY_THE_CLI
