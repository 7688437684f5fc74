import math
import tracemalloc

import pytest

from slitgrid import cli, complementarity
from slitgrid.cli import (
    EXIT_IO,
    EXIT_OK,
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


class TestOrdersCommand:
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


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_cover_ratio_out_of_range(self):
        assert run_cli("coeffs", "--a", "1.5") == EXIT_USAGE

    def test_bad_truncation(self):
        assert run_cli("coeffs", "--order", "0") == EXIT_USAGE

    def test_unwritable_output(self):
        assert run_cli("pattern", "--out", "/nonexistent-dir/x.csv") == EXIT_IO

    def test_verify_passes(self):
        assert run_cli("verify", "--order", "400") == EXIT_OK

    def test_verify_with_fault_injection_fails(self):
        assert run_cli("verify", "--order", "400", "--perturb", "r0") == EXIT_VERIFY

    def test_unknown_perturbation_is_a_usage_error(self):
        assert run_cli("verify", "--perturb", "q7") == EXIT_USAGE

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["pattern", "coeffs", "orders"])
    def test_non_finite_phase_is_a_usage_error(self, command, phase, capsys):
        assert run_cli(command, "--phase", phase, "--out", "-") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: delta_phi must be finite, got {phase}\n"

    def test_stdout_output(self, capsys):
        assert run_cli("pattern", "--order", "3") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "x_over_Lambda,G,I"
        assert len(lines) == 403


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
        config.write_text("a = 2\norder = 0\nphase = nan\n")
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
        (["verify", "--points"], MAX_POINTS),
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
            (["verify", "--points", str(MAX_POINTS)], "points"),
            (["orders", "--order", str(MAX_ORDER)], "truncation"),
        ],
    )
    def test_the_cap_itself_is_accepted(self, argv, field):
        config = cli._resolve(cli._build_parser().parse_args(argv))
        assert getattr(config, field) == int(argv[2])

    def test_largest_profile_stays_within_the_block_budget(self, capsys):
        # the profile is 401 x MAX_ORDER cosines: 320 MB evaluated at once
        tracemalloc.start()
        try:
            code = run_cli("pattern", "--order", str(MAX_ORDER), "--out", "-")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert peak < 3 * _BLOCK_BYTES + len(out)

    def test_caps_sit_far_above_the_reference_sizes(self):
        # the 100001-point reference sweep, verify's 4096 quadrature points
        # and its 2000 terms
        assert MAX_POINTS >= 2 * 100001 and MAX_POINTS >= 100 * 4096
        assert MAX_ORDER >= 50 * 2000

    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["sweep", "--points", "11"], complementarity, "complementarity_sweep"),
            (["coeffs"], cli, "grid_function"),
        ],
    )
    def test_memory_error_is_a_usage_error(self, argv, owner, name, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, name, exhausted)
        assert run_cli(*argv, "--out", "-") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")


class TestVerifySuite:
    def test_all_checks_pass(self):
        results = run_verification(truncation=400, points=512)
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
        results = run_verification(perturb=perturb, truncation=400, points=512)
        assert any(not result.passed for result in results)

    def test_report_fields_carry_the_measurement(self):
        results = run_verification(truncation=400, points=512)
        for result in results:
            assert result.name and result.detail
            assert math.isfinite(result.value)

    def test_rejects_unknown_perturbation(self):
        with pytest.raises(ValueError):
            run_verification(perturb="x9")

    def test_verify_reports_one_line_per_check(self, capsys):
        assert run_cli("verify", "--order", "400") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 10
        assert "10/10 checks passed" in out
