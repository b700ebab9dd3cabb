"""Byte-exact CLI output: stdout, stderr, exit code and the --out file of
each case in tests/data/cli_golden.json.

`verify` runs are left out: their gap digits come from numpy's `eigvals`,
which may differ in the last bits between builds.  Warnings are recorded as
"Category: message" lines, since their printed form carries source paths.

To re-capture after a deliberate output change:
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from isokit.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
INPUT_JSON = {"triangle": {"vertices": [[0, 0], [4, 0], [1, 3]]}}

_TRIANGLES = [
    ["--sides", "3,4,5"],
    ["--sides", "4,5,6"],
    ["--sides", "1,1,1"],
    ["--sides", "2,2,3"],
    ["--angles", "50,60", "--scale", "2"],
    ["--vertices", "0,0,4,0,1,3"],
    ["--preset", "t-star"],
    ["--sides", "4,5,6", "--tol", "1e-6"],
    ["--json", "in.json"],
]

CASES = (
    [["containers", *t, "--out", "out.json"] for t in _TRIANGLES]
    + [["min", *t, "--out", "out.json"] for t in _TRIANGLES]
    + [["svg", *t, "--out", "out.svg"] for t in _TRIANGLES]
    + [
        ["containers", "--sides", "3,4,5"],
        ["min", "--angles", "50,60"],
        ["svg", "--sides", "3,4,5", "--which", "min", "--out", "out.svg"],
        ["svg", "--angles", "50,60", "--which", "second", "--out", "out.svg"],
        ["svg", "--angles", "50,60", "--which", "third", "--out", "out.svg"],
        ["extremal", "alpha_star", "--out", "out.json"],
        ["extremal", "sqrt2", "--out", "out.json"],
        ["extremal", "golden", "--out", "out.json"],
        # exit 2: invalid input
        ["min", "--sides", "3,4,x"],
        ["min", "--sides", "3,4"],
        ["min", "--sides", "3,4,5", "--angles", "50,60"],
        ["min"],
        ["containers", "--sides", "1,2,3"],
        ["min", "--angles", "120,70"],
        ["min", "--vertices", "0,0,1,0,2,0"],
        ["min", "--sides", "3,4,5", "--tol", "2"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "1", "--min-angle", "60"],
        ["min", "--json", "bad.json"],
        ["min", "--json", "empty.json"],
        # exit 3: I/O error
        ["min", "--json", "missing.json"],
        ["min", "--sides", "3,4,5", "--out", "no-such-dir/out.json"],
    ]
)


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one CLI command in `workdir`; everything it printed or wrote."""
    (workdir / "in.json").write_text(json.dumps(INPUT_JSON))
    (workdir / "bad.json").write_text("{not json")
    (workdir / "empty.json").write_text("{}")
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {}
    for name in ("out.json", "out.svg"):
        path = workdir / name
        if path.exists():
            written[name] = path.read_text(encoding="utf-8")
            path.unlink()
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": written,
    }


def _expected() -> dict:
    return {" ".join(c["argv"]): c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_bytes_match_golden(argv, tmp_path):
    expected = _expected()[" ".join(argv)]
    assert run_case(argv, tmp_path) == expected


def test_golden_file_covers_every_case():
    assert sorted(_expected()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = [run_case(argv, Path(tmp)) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
