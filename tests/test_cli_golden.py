"""Byte-exact CLI output: stdout, stderr, exit code and the --out file of
each case in tests/data/cli_golden.json.

`verify` runs are left out: their gap digits come from numpy's elementwise
sin and cos, which give only the copy's side normals, and from its
hypot, which gives only each candidate's r = hypot(1, t) for the unit flush
axes; both may differ in the last bits between builds.
Warnings are recorded as "Category: message" lines, since their printed
form carries source paths.

To re-capture after a deliberate output change:
    PYTHONPATH=src python tests/test_cli_golden.py
It prints each case that changed, the fields that moved and, for each
written file, the largest relative change of any number in it, or "same
JSON value" for a .json file whose bytes changed but which parses to the
same value as before.
"""

import json
import math
import os
import re
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
        ["min", "--angles", "50,60", "--scale", "-2"],
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


_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def largest_relative_change(old: str, new: str) -> float:
    """The largest relative change between the numbers of two texts; inf
    when they differ anywhere else, or in how many numbers they hold."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return math.inf
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
        if x != y:
            worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    return worst


def report_changes(old: dict, results: list[dict]) -> None:
    for new in results:
        was = old.get(" ".join(new["argv"]))
        if was is None:
            print(f"new: {' '.join(new['argv'])}", file=sys.stderr)
            continue
        if was == new:
            continue
        moved = [k for k in new if k != "files" and new[k] != was[k]]
        for name in sorted(set(new["files"]) | set(was["files"])):
            a, b = was["files"].get(name), new["files"].get(name)
            if a == b:
                continue
            if a is None or b is None:
                change = "largest relative change inf"
            elif name.endswith(".json") and json.loads(a) == json.loads(b):
                change = "same JSON value"
            else:
                change = f"largest relative change {largest_relative_change(a, b):.2g}"
            moved.append(f"{name} ({change})")
        print(f"changed: {' '.join(new['argv'])}: {', '.join(moved)}", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = [run_case(argv, Path(tmp)) for argv in CASES]
    report_changes(_expected() if GOLDEN.exists() else {}, results)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
