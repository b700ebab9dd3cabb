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
    triangle_from_sides,
    verify_triangle,
)
from isokit.cli import containers_report, main, min_report, verify_case_report


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
        assert doc["schema_version"] == 1
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

    def test_report_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "min.json"
        code, _, _ = run(capsys, "min", "--sides", "3,4,5", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(doc))
        assert doc["minimizers"] == ["ABC'"]
        assert doc["min_ratio"] == pytest.approx(1.25, rel=1e-12)
        assert doc["count"] == 1


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

    def test_bad_number(self, capsys):
        code, _, err = run(capsys, "min", "--sides", "3,4,x")
        assert code == 2

    def test_collinear_vertices(self, capsys):
        code, _, err = run(capsys, "min", "--vertices", "0,0,1,0,2,0")
        assert code == 2

    def test_verify_zero_samples(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "0")
        assert code == 2
        assert "--samples" in err


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

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOKIT_SEED", "5")
        _, out_env, _ = run(capsys, "verify", "--samples", "3")
        _, out_flag, _ = run(capsys, "verify", "--samples", "3", "--seed", "5")
        assert out_env == out_flag

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOKIT_SEED", "5")
        _, out, _ = run(capsys, "verify", "--samples", "3", "--seed", "9")
        assert "seed=9" in out

    def test_violation_exits_1(self, capsys):
        # an impossible gap tolerance forces the failure path
        code, out, _ = run(
            capsys, "verify", "--samples", "3", "--seed", "1", "--gap-tol", "1e-15"
        )
        assert code == 1
        assert "FAIL" in out

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

    def test_bad_root_tol_exits_2(self, capsys):
        # 1e-300 is below the float spacing of the bisection bracket
        for root_tol in ("1", "1e-300"):
            code, _, err = run(capsys, "extremal", "alpha_star", "--root-tol", root_tol)
            assert code == 2
            assert "tol" in err


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
