"""`import isokit` and the closed-form paths leave numpy unloaded; only the
oracle's search and the sampler load it, on first use.

The test process has numpy loaded already, so each check runs in a fresh
interpreter that imports isokit from the same source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isokit

SRC = str(Path(isokit.__file__).resolve().parents[1])

PRELUDE = """
import contextlib, io, sys

def check(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_import_leaves_numpy_unloaded():
    proc = run_fresh(
        """
import isokit
check("import isokit")
import isokit.cli
check("import isokit.cli")
"""
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_svg_unloaded():
    # only the svg command draws, so it imports the renderer itself
    proc = run_fresh(
        """
import isokit.cli
assert "isokit.svg" not in sys.modules
"""
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_form_calls_leave_numpy_unloaded():
    proc = run_fresh(
        """
from isokit import Point, Triangle, all_special_containers, can_cover, canonicalize, minimum_isosceles_container
ct = canonicalize(Triangle(Point(0, 0), Point(4, 0), Point(0, 3)))
check("canonicalize")
result = minimum_isosceles_container(ct)
check("minimum_isosceles_container")
all_special_containers(ct)
check("all_special_containers")
can_cover(result.minimizers[0].tri, ct.tri)
can_cover(ct.tri, result.minimizers[0].tri)
check("can_cover")
"""
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["min", "--sides", "3,4,5"],
        ["containers", "--sides", "3,4,5"],
        ["extremal", "alpha_star"],
        ["extremal", "sqrt2"],
        ["extremal", "golden"],
        ["svg", "--sides", "3,4,5", "--out", "OUT"],
    ],
    ids=["min", "containers", "extremal-alpha_star", "extremal-sqrt2", "extremal-golden", "svg"],
)
def test_cli_command_leaves_numpy_unloaded(argv, tmp_path):
    argv = [str(tmp_path / "out.svg") if a == "OUT" else a for a in argv]
    proc = run_fresh(
        f"""
from isokit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
assert code == 0, f"exit code {{code}}"
check({" ".join(argv[:2])!r})
"""
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_loads_numpy():
    proc = run_fresh(
        """
from isokit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--samples", "2"])
assert code == 0, f"exit code {code}"
assert "numpy" in sys.modules
"""
    )
    assert proc.returncode == 0, proc.stderr


def test_search_imported_first_yields_the_exported_result_class():
    proc = run_fresh(
        """
import isokit._search
import isokit
assert isokit._search.OracleResult is isokit.OracleResult
"""
    )
    assert proc.returncode == 0, proc.stderr


def test_empty_batches_leave_numpy_unloaded():
    proc = run_fresh(
        """
from isokit import brute_force_min_isosceles_batch, verify_triangles
assert brute_force_min_isosceles_batch([]) == []
check("brute_force_min_isosceles_batch([])")
assert verify_triangles([]) == []
check("verify_triangles([])")
"""
    )
    assert proc.returncode == 0, proc.stderr
