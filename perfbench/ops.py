"""The timed op of each workload, and nothing else.

Kept apart from the input generators and checks in workloads.py, so that a
set-up launch (first_op.py) imports only isokit and this module before its
op.  The functions are named after their workloads.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from isokit import (
    ShapeClass,
    all_special_containers,
    can_cover,
    canonicalize,
    minimum_isosceles_container,
    verify_triangle,
)

# the two directions of the covering decision get their own names so that a
# traced run can wrap them as separate spans
cover_accept = can_cover
cover_reject = can_cover

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
VERIFY_REPORT = OUT_DIR / "verify-report.json"
VERIFY_SAMPLES = 20


def verify(op_seed: int) -> int:
    """`isokit verify --samples 20 --seed <op_seed>`, in-process, with its
    report written to VERIFY_REPORT; returns the exit code."""
    from isokit import cli  # argparse and svg come with it: only this op needs them

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(
            ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(op_seed), "--out", str(VERIFY_REPORT)]
        )


def oracle_posed(tri):
    return verify_triangle(canonicalize(tri))


def closed_form(tri):
    ct = canonicalize(tri)
    if ct.shape_class is ShapeClass.SCALENE:
        all_special_containers(ct)
    result = minimum_isosceles_container(ct)
    minimizer = ct.tri if result.is_self else result.minimizers[0].tri
    return result, cover_accept(minimizer, ct.tri), cover_reject(ct.tri, minimizer)
