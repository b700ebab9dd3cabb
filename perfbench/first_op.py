"""Child process for the set-up measurement: import isokit, then run one op.

Usage: python3 perfbench/first_op.py verify <op seed>
       python3 perfbench/first_op.py oracle_posed|closed_form x0 y0 x1 y1 x2 y2

The parent passes the op's input (see workloads.setup_args), so the launch
does nothing beyond interpreter start, ``import isokit``, the import of the
ops module and the op.  Prints one JSON line with the in-process import and
first-op times; the parent times the whole launch from outside.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

t0 = time.perf_counter()
import isokit  # noqa: E402

t1 = time.perf_counter()
import ops  # noqa: E402

workload, *args = sys.argv[1:]
if workload == "verify":
    item = int(args[0])
else:
    xy = [float(a) for a in args]
    item = isokit.Triangle(*(isokit.Point(xy[i], xy[i + 1]) for i in (0, 2, 4)))
op = getattr(ops, workload)
t2 = time.perf_counter()
op(item)
t3 = time.perf_counter()
print(json.dumps({"import_isokit_s": t1 - t0, "first_op_s": t3 - t2}))
