import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import isokit
from isokit import (
    all_special_containers,
    minimum_isosceles_container,
    sample_canonical_triangles,
    triangle_from_angles,
    triangle_from_sides,
    verify_triangle,
    verify_triangles,
)
from isokit import cli
from isokit.cli import build_parser, containers_report, main, min_report, verify_case_report


@pytest.fixture(autouse=True)
def _quiet_near_right_angle():
    # the 3-4-5 fixtures sit exactly on the right-angle boundary by design
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestContainers:
    def test_345_has_seven(self, capsys):
        code, out, _ = run(capsys, "containers", "--sides", "3,4,5")
        assert code == 0
        assert "special containers (7)" in out
        for label in ("AB'C", "ABC'", "ABC''", "AB1C", "ABC1", "ABC2", "ABCbar"):
            assert label in out

    def test_acute_has_nine(self, capsys):
        code, out, _ = run(capsys, "containers", "--angles", "50,60")
        assert code == 0
        assert "special containers (9)" in out

    def test_equilateral_short_circuit(self, capsys):
        code, out, _ = run(capsys, "containers", "--sides", "1,1,1")
        assert code == 0
        assert "self-container" in out

    def test_report_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "containers", "--sides", "3,4,5", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(doc))
        assert doc["schema_version"] == 2
        assert doc["units"] == "radians"
        assert doc["count"] == 7
        ratios = sorted(c["ratio"] for c in doc["containers"])
        assert ratios[0] == pytest.approx(1.25, rel=1e-12)


class TestMin:
    def test_345(self, capsys):
        code, out, _ = run(capsys, "min", "--sides", "3,4,5")
        assert code == 0
        assert "ABC'" in out
        assert "1.25" in out
        assert "count 1" in out

    def test_t_star_preset(self, capsys):
        code, out, _ = run(capsys, "min", "--preset", "t-star")
        assert code == 0
        assert "count 3" in out

    def test_isosceles_self(self, capsys):
        code, out, _ = run(capsys, "min", "--sides", f"1,1,{math.sqrt(2)}")
        assert code == 0
        assert "self" in out
        assert "min ratio = 1" in out

    def test_vertices_input(self, capsys):
        code, out, _ = run(capsys, "min", "--vertices", "0,0,4,0,4,3")
        assert code == 0
        assert "ABC'" in out

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"triangle": {"sides": [3, 4, 5]}}))
        code, out, _ = run(capsys, "min", "--json", str(path))
        assert code == 0
        assert "ABC'" in out
        path.write_text(json.dumps({"triangle": {"vertices": [[0, 0], [4, 0], [4, 3]]}}))
        code, out, _ = run(capsys, "min", "--json", str(path))
        assert code == 0
        assert "ABC'" in out

    @pytest.mark.parametrize(
        "triangle",
        [
            {"sides": None},
            {"sides": 5},
            {"sides": [3, 4, None]},
            {"vertices": [None, [1, 0], [0, 1]]},
            {"sides": "345"},
            {"sides": [3, 4]},
            {"vertices": ["00", "40", "03"]},
            {"vertices": [[0, 0], [True, 0], [0, True]]},
            {"vertices": [[0, 0], [4, 0]]},
        ],
        ids=[
            "sides-null",
            "sides-number",
            "sides-null-entry",
            "vertices-null-entry",
            "sides-string",
            "sides-two",
            "vertices-strings",
            "vertices-booleans",
            "vertices-two",
        ],
    )
    def test_json_non_numbers_exit_2(self, capsys, tmp_path, triangle):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"triangle": triangle}))
        code, out, err = run(capsys, "min", "--json", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: 'sides' must be 3 numbers and 'vertices' 3 [x, y] pairs\n"

    def test_json_both_forms_exit_2(self, capsys, tmp_path):
        # one representation, as on the command line: sides do not win over vertices
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"triangle": {"sides": [3, 4, 5], "vertices": [[0, 0], [1, 0], [0, 9]]}}))
        code, out, err = run(capsys, "min", "--json", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: triangle needs one of 'sides' and 'vertices', got both\n"

    def test_json_neither_form_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"triangle": {}}))
        code, out, err = run(capsys, "min", "--json", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: triangle needs 'sides' or 'vertices'\n"

    def test_json_int_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"triangle": {"sides": [10**400, 4, 5]}}))
        code, out, err = run(capsys, "min", "--json", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_report_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "min.json"
        code, _, _ = run(capsys, "min", "--sides", "3,4,5", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(doc))
        assert doc["minimizers"] == ["ABC'"]
        assert doc["min_ratio"] == pytest.approx(1.25, rel=1e-12)
        assert doc["count"] == 1


class TestNegativeValues:
    """A value after --sides, --vertices or --angles may start with '-'."""

    @pytest.mark.parametrize(
        "flag, value, code", [("--vertices", "-1,0,1,0,0,3", 0), ("--sides", "-3,4,5", 2), ("--angles", "-10,60", 2)]
    )
    def test_plain_form_matches_equals_form(self, capsys, flag, value, code):
        # argparse alone reads "-1,0,..." as an unknown option and exits 2
        # with "expected one argument"
        plain = run(capsys, "min", flag, value)
        assert plain[0] == code
        assert plain == run(capsys, "min", f"{flag}={value}")

    def test_negative_angles_get_the_angles_message(self, capsys):
        code, _, err = run(capsys, "min", "--angles", "-10,60")
        assert code == 2
        assert "--angles: need" in err

    def test_flag_is_not_taken_for_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["min", "--vertices", "--angles", "50,60"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestInvalidInput:
    def test_degenerate_sides(self, capsys):
        code, _, err = run(capsys, "containers", "--sides", "1,2,3")
        assert code == 2
        assert "triangle inequality" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "min")
        assert code == 2
        assert "exactly one" in err

    def test_two_inputs(self, capsys):
        code, _, err = run(capsys, "min", "--sides", "3,4,5", "--angles", "50,60")
        assert code == 2

    def test_bad_angle_sum(self, capsys):
        code, _, err = run(capsys, "min", "--angles", "120,70")
        assert code == 2
        assert "alpha + beta" in err

    @pytest.mark.parametrize(
        "alpha, beta",
        # the last pair's radians add up to pi in floating point, while
        # pi - alpha - beta is 2.2e-16
        [(120.0, 70.0), (50.0, 60.0), (141.97020320439236, 38.02979679560763)],
    )
    def test_angles_message_iff_the_library_rejects_the_angles(self, capsys, alpha, beta):
        try:
            triangle_from_angles(math.radians(alpha), math.radians(beta))
            rejected = False
        except ValueError as exc:
            rejected = "angles must be positive" in str(exc)
        code, _, err = run(capsys, "min", "--angles", f"{alpha!r},{beta!r}")
        assert ("--angles: need" in err) == rejected
        if rejected:
            assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["min", "--sides", "3,4,5", "--scale", "2"],
            ["containers", "--preset", "t-star", "--scale", "5"],
        ],
    )
    def test_scale_without_angles(self, capsys, argv):
        # --scale sizes an --angles triangle only; elsewhere it was ignored
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --scale applies only to --angles (got {argv[1]})\n"

    def test_bad_number(self, capsys):
        code, _, err = run(capsys, "min", "--sides", "3,4,x")
        assert code == 2

    def test_collinear_vertices(self, capsys):
        code, _, err = run(capsys, "min", "--vertices", "0,0,1,0,2,0")
        assert code == 2

    @pytest.mark.parametrize("vertices", ["0,0,1e200,0,0,1e200", "0,0,1e154,0,0,1e154"])
    def test_overflowing_vertices(self, capsys, vertices):
        # the area or the degeneracy threshold overflows a float: invalid
        # input, not a traceback with the exit code of a failed verification
        code, out, err = run(capsys, "min", "--vertices", vertices)
        assert (code, out) == (2, "")
        assert err.startswith("error: triangle area ") and err.endswith(" is not finite\n")

    def test_subnormal_area_sides(self, capsys):
        # the area is a subnormal float, which the library cannot hold at
        # full precision: invalid input, not a ratio off in the fifth digit
        code, out, err = run(capsys, "min", "--sides", "1e-160,1.2e-160,1.5e-160")
        assert (code, out) == (2, "")
        assert err.startswith("error: triangle area ") and err.endswith(" is below threshold\n")

    def test_verify_zero_samples(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "0")
        assert code == 2
        assert "--samples" in err

    def test_verify_negative_seed(self, capsys):
        # numpy's own message names no flag
        assert run(capsys, "verify", "--seed", "-1") == (2, "", "error: --seed must be >= 0, got -1\n")

    def test_near_right_warning_is_one_plain_line(self):
        # Python's own warning form prints containers.py's path and source line
        src = str(Path(isokit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "isokit.cli", "containers", "--sides", "3,4,5"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "warning: largest angle is within tolerance of 90 degrees; the containers "
            "replacing A or B are excluded but numerically unstable nearby\n"
        )
        assert ".py" not in proc.stderr


class TestVerify:
    def test_small_batch_passes(self, capsys, tmp_path):
        path = tmp_path / "cases.json"
        code, out, _ = run(
            capsys, "verify", "--samples", "5", "--seed", "42", "--out", str(path)
        )
        assert code == 0
        assert "PASS" in out
        doc = json.loads(path.read_text())
        assert doc["pass"] is True
        assert len(doc["cases"]) == 5
        assert doc == json.loads(json.dumps(doc))

    def test_schema_2_report_shape(self, capsys, tmp_path):
        # the envelope is written once, at the top; each case holds six keys
        path = tmp_path / "cases.json"
        code, _, _ = run(capsys, "verify", "--samples", "5", "--seed", "42", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert (doc["schema_version"], doc["units"]) == (2, "radians")
        keys = {"triangle", "closed_form_area", "oracle_area", "relative_gap", "min_ratio", "flags"}
        assert all(case.keys() == keys for case in doc["cases"])
        assert all(case["flags"].keys() == set(doc["invariant_pass_rates"]) for case in doc["cases"])

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, out1, _ = run(capsys, "verify", "--samples", "4", "--seed", "7", "--out", str(p1))
        code2, out2, _ = run(capsys, "verify", "--samples", "4", "--seed", "7", "--out", str(p2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert p1.read_bytes() == p2.read_bytes()

    def test_cases_match_single_triangle_path(self, capsys, tmp_path):
        # the run verifies its samples in one batch; each case must be what
        # verifying that triangle on its own reports
        path = tmp_path / "cases.json"
        code, _, _ = run(
            capsys, "verify", "--samples", "20", "--seed", "1716262142", "--out", str(path)
        )
        assert code == 0
        cases = json.loads(path.read_text())["cases"]
        expected = [
            verify_case_report(verify_triangle(ct))
            for ct in sample_canonical_triangles(seed=1716262142, count=20)
        ]
        assert cases == json.loads(json.dumps(expected))

    def test_worst_case_is_first_largest_abs_gap(self, capsys, tmp_path, monkeypatch):
        # gaps stubbed onto real reports: case 1 and case 2 tie on |gap|
        gaps = [1e-13, -4e-13, 4e-13, 2e-13]

        def with_gaps(cts):
            return [dataclasses.replace(r, relative_gap=g) for r, g in zip(verify_triangles(cts), gaps)]

        monkeypatch.setattr(cli, "verify_triangles", with_gaps)
        path = tmp_path / "cases.json"
        code, out, _ = run(capsys, "verify", "--samples", "4", "--seed", "3", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["worst"] == {
            "index": 1,
            "vertices": doc["cases"][1]["triangle"]["vertices"],
            "relative_gap": -4e-13,
        }
        assert out.splitlines()[-2].startswith("worst case: index 1, relative gap = -4e-13, vertices (0, 0) ")

    @pytest.mark.parametrize("gap", [1e-10, -1e-10])
    def test_gap_beyond_default_tolerance_exits_1(self, capsys, monkeypatch, gap):
        # the default bounds are 1e-11 each way, far above the measured
        # |gap| (below 1.3e-14) and far below a lost digit of the oracle
        def with_gaps(cts):
            return [dataclasses.replace(r, relative_gap=g) for r, g in zip(verify_triangles(cts), [1e-13, gap])]

        monkeypatch.setattr(cli, "verify_triangles", with_gaps)
        code, out, _ = run(capsys, "verify", "--samples", "2", "--seed", "3")
        assert code == 1
        assert out.endswith("FAIL\n")

    def test_violation_exits_1(self, capsys, tmp_path, monkeypatch):
        # one case of three just beyond the bound fails the run and its report
        def with_gaps(cts):
            return [dataclasses.replace(r, relative_gap=g) for r, g in zip(verify_triangles(cts), [0.0, -1e-13, 2e-11])]

        monkeypatch.setattr(cli, "verify_triangles", with_gaps)
        path = tmp_path / "cases.json"
        code, out, _ = run(capsys, "verify", "--samples", "3", "--seed", "1", "--out", str(path))
        assert code == 1
        assert out.endswith("FAIL\n")
        assert json.loads(path.read_text())["pass"] is False

    def test_infeasible_margins_exit_2(self):
        # no angle triple meets these margins, so a sampler that kept drawing
        # would never return: the timeout turns that into a failure
        src = str(Path(isokit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "isokit.cli", "verify", "--samples", "1", "--min-angle", "60"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "scalene_margin" in proc.stderr


class TestExtremal:
    def test_alpha_star(self, capsys):
        code, out, _ = run(capsys, "extremal", "alpha_star")
        assert code == 0
        assert "41.83161869" in out
        assert "residual" in out

    def test_sqrt2(self, capsys):
        code, out, _ = run(capsys, "extremal", "sqrt2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip().startswith("0.25")]
        assert lines, out
        ratio = float(lines[0].split()[2])
        assert 1.41 < ratio < math.sqrt(2)

    def test_golden(self, capsys):
        code, out, _ = run(capsys, "extremal", "golden")
        assert code == 0
        assert "1.6170339887" in out
        assert "never attained" in out

    def test_report(self, capsys, tmp_path):
        path = tmp_path / "ext.json"
        code, _, _ = run(capsys, "extremal", "sqrt2", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["mode"] == "sqrt2"
        assert all(row["ratio"] < math.sqrt(2) for row in doc["sweep"])


class TestReportRoundTrip:
    # parse(emit(x)) == x for every report type
    def test_all_report_types(self):
        ct = triangle_from_sides(4, 5, 6)
        docs = [
            containers_report(ct, all_special_containers(ct)),
            min_report(ct, minimum_isosceles_container(ct)),
            verify_case_report(verify_triangle(ct)),
        ]
        for doc in docs:
            assert json.loads(json.dumps(doc)) == doc


class TestSvg:
    def test_first_kind_labels(self, capsys, tmp_path):
        path = tmp_path / "f.svg"
        code, out, _ = run(capsys, "svg", "--sides", "3,4,5", "--which", "first", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.count("<polygon") == 4  # 3 containers + the input triangle
        for label in ("B′", "C′", "C″"):
            assert label in text
        assert "</svg>" in text

    def test_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "svg", "--sides", "3,4,5", "--which", "all", "--out", str(p1))
        run(capsys, "svg", "--sides", "3,4,5", "--which", "all", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_min_selector(self, capsys, tmp_path):
        path = tmp_path / "m.svg"
        code, _, _ = run(capsys, "svg", "--sides", "3,4,5", "--which", "min", "--out", str(path))
        assert code == 0
        assert path.read_text().count("<polygon") == 2

    def test_all_acute_labels(self, capsys, tmp_path):
        path = tmp_path / "a.svg"
        code, _, _ = run(
            capsys, "svg", "--angles", "50,63", "--which", "all", "--out", str(path)
        )
        assert code == 0
        text = path.read_text()
        assert text.count("<polygon") == 10  # 9 containers + input
        for label in (
            "B′", "C′", "C″",
            "B₁", "C₁", "C₂",
            "Ā", "B̄", "C̄",
        ):
            assert label in text

    def test_bad_path_is_io_error(self, capsys):
        code, _, err = run(
            capsys, "svg", "--sides", "3,4,5", "--out", "/nonexistent-dir/x.svg"
        )
        assert code == 3
        assert "i/o error" in err

    def test_isosceles_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "svg", "--sides", "1,1,1", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2


class TestOutPath:
    # --out writes over the old bytes and cuts a regular file to length
    @pytest.mark.parametrize(
        "first, second",
        [
            (["verify", "--samples", "50"], ["verify", "--samples", "5", "--seed", "42"]),
            (["svg", "--sides", "3,4,5", "--which", "all"], ["svg", "--sides", "3,4,5", "--which", "first"]),
        ],
        ids=["verify", "svg"],
    )
    def test_shorter_output_over_longer_file(self, capsys, tmp_path, first, second):
        over, fresh = tmp_path / "over", tmp_path / "fresh"
        run(capsys, *first, "--out", str(over))
        old_size = over.stat().st_size
        run(capsys, *second, "--out", str(over))
        run(capsys, *second, "--out", str(fresh))
        assert fresh.stat().st_size < old_size
        assert over.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "2"],
            ["min", "--sides", "3,4,5"],
            ["containers", "--sides", "3,4,5"],
            ["extremal", "alpha_star"],
            ["svg", "--sides", "3,4,5"],
        ],
        ids=["verify", "min", "containers", "extremal", "svg"],
    )
    def test_dev_null(self, capsys, argv):
        # a device is written and not cut: ftruncate on it fails
        code, _, err = run(capsys, *argv, "--out", os.devnull)
        assert (code, err) == (0, "")

    def test_new_file_mode_follows_umask(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        old = os.umask(0o027)
        try:
            run(capsys, "min", "--sides", "3,4,5", "--out", str(path))
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_overwrite_keeps_inode_and_mode(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("x" * 100_000)
        path.chmod(0o640)
        before = path.stat()
        code, _, _ = run(capsys, "verify", "--samples", "3", "--out", str(path))
        after = path.stat()
        assert code == 0
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert json.loads(path.read_bytes())["samples"] == 3

    @pytest.mark.parametrize("argv", [["verify", "--samples", "2"], ["svg", "--sides", "3,4,5"]], ids=["verify", "svg"])
    def test_directory_is_io_error(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("i/o error: ")


def test_option_list():
    # every option string of every subcommand: a new flag shows up here
    common = {"-h", "--help", "--out"}
    triangle = {"--sides", "--vertices", "--angles", "--scale", "--preset", "--json"}
    expected = {
        "containers": common | triangle,
        "min": common | triangle,
        "svg": common | triangle | {"--which"},
        "verify": common | {"--samples", "--seed", "--min-angle", "--scalene-margin"},
        "extremal": common,
    }
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    got = {name: {opt for a in p._actions for opt in a.option_strings} for name, p in commands.items()}
    assert got == expected


def test_parser_built_once():
    # main reuses one parser per process instead of rebuilding it per call
    assert build_parser() is build_parser()
