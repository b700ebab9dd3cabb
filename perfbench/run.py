"""isokit benchmark: one closed-loop client, one process, no threads.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify|oracle_posed|closed_form \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
package's public functions, reports the per-layer metrics and writes the
spans to ``.perfbench_out/spans-<workload>.jsonl``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 9  # fresh interpreters per set-up measurement; the median is reported
WARMUP_SECONDS = 0.5
ORACLE_TAIL_Q = 95.0  # percentile of oracle.brute_force_min_isosceles.tail_ms
CHILD_TIMEOUT_S = 120


def tail(values, q: float) -> tuple[float, int]:
    """(the q-th percentile by nearest rank, samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median0(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def _launch(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


class Setup:
    """Fresh interpreters, each importing isokit and finishing the workload's
    first op; with `parts`, also bare interpreter start and `import numpy`
    launches.  The launches are spread over the measured run, so their
    medians see the same machine as the ops do."""

    def __init__(self, workload: str, args: list[str], parts: bool) -> None:
        self.argv = [sys.executable, str(BENCH / "first_op.py"), workload, *args]
        self.parts = parts
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.first_ops: list[float] = []
        self.interp: list[float] = []
        self.numpy: list[float] = []

    def launch(self) -> None:
        wall, out = _launch(self.argv)
        child = json.loads(out.splitlines()[-1])
        self.walls.append(wall)
        self.imports.append(child["import_isokit_s"])
        self.first_ops.append(child["first_op_s"])
        if self.parts:
            self.interp.append(_launch([sys.executable, "-c", "pass"])[0])
            self.numpy.append(_launch([sys.executable, "-c", "import numpy"])[0])

    def result(self) -> dict:
        out = {
            "setup_s": statistics.median(self.walls),
            "import_isokit_s": statistics.median(self.imports),
            "first_op_s": statistics.median(self.first_ops),
        }
        if self.parts:
            out["interp_s"] = statistics.median(self.interp)
            out["import_numpy_s"] = statistics.median(self.numpy) - out["interp_s"]
        return out


def drive(seconds: float, step, setup: Setup | None = None) -> None:
    """Call step(0), step(1), ... until the steps have taken `seconds`,
    pausing for the SETUP_LAUNCHES set-up launches at even intervals."""
    spent = 0.0
    i = 0
    while spent < seconds:
        if setup is not None and len(setup.walls) * seconds / SETUP_LAUNCHES <= spent:
            setup.launch()
        t0 = time.perf_counter()
        step(i)
        spent += time.perf_counter() - t0
        i += 1
    while setup is not None and len(setup.walls) < SETUP_LAUNCHES:
        setup.launch()


PENDING = object()  # the outcome of a pool input not yet run


class Loop:
    """Ops run one at a time over a pool of inputs: per-op latency, the
    outcome of each input (a failure reason or None) and the checks' tally.

    The first run of an input decides its outcome and feeds the tally; a
    later run of the same input must reach the same outcome, or it counts
    as a mismatch.  So `failed` counts failed inputs of the pool, whatever
    the number of ops run."""

    def __init__(self, workload, pool, tally) -> None:
        self.workload = workload
        self.pool = pool
        self.outcomes: list = [PENDING] * len(pool)
        # a flat array, so that bookkeeping memory barely grows with the op
        # count and peak_rss_mb stays the program's
        self.latencies_ns = array.array("q")
        self.reasons: Counter = Counter()
        self.failed = 0
        self.failed_must_pass = 0  # failures where the library is known good
        self.mismatches = 0  # reruns whose outcome differs from the first run's
        self.raised = 0  # timed ops that raised
        self.crashed = 0  # ops that raised something other than a GeometryError
        self.tally = tally

    def run(self, i: int, tracer=None, timed: bool = True) -> None:
        """One op on pool input i.  Only the op is timed; its input is built
        before the clock starts and its check runs after the clock stops."""
        from isokit import GeometryError

        workload = self.workload
        item = self.pool[i]
        reason = None
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.run(item)
            else:
                with tracer.span("op"):
                    out = workload.run(item)
        except Exception as exc:  # a raising op is a failed op, by name
            reason = type(exc).__name__
            self.raised += timed
            self.crashed += not isinstance(exc, GeometryError)
        if timed:
            self.latencies_ns.append(time.perf_counter_ns() - t0)
        first = self.outcomes[i] is PENDING
        if reason is None:
            reason = workload.check(item, out, self.tally if first else type(self.tally)())
        if not first:
            self.mismatches += reason != self.outcomes[i]
            return
        self.outcomes[i] = reason
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1
            self.failed_must_pass += workload.must_pass(item)

    def complete(self) -> None:
        """Run, untimed, every pool input the op loop did not reach."""
        for i, outcome in enumerate(self.outcomes):
            if outcome is PENDING:
                self.run(i, timed=False)


def run_for(workload, pool, seconds: float, tally, setup: Setup | None = None, reverse: bool = False) -> Loop:
    """Run ops on `pool` in order (or from its end backwards), wrapping
    round, for `seconds`."""
    loop = Loop(workload, pool, tally)
    n = len(pool)
    drive(seconds, lambda i: loop.run(n - 1 - i % n if reverse else i % n), setup)
    return loop


def run_paired(workload, pool, seconds: float, tracer, new_tally, setup: Setup) -> tuple[Loop, Loop]:
    """Run each op twice, untraced and traced, alternating which goes first,
    so both copies see the same machine state; returns (traced, untraced)."""
    traced, plain = Loop(workload, pool, new_tally()), Loop(workload, pool, new_tally())

    def step(i: int) -> None:
        k = i % len(pool)
        for with_spans in (False, True) if i % 2 == 0 else (True, False):
            if with_spans:
                tracer.op = i
                tracer.install()
                try:
                    traced.run(k, tracer)
                finally:
                    tracer.restore()
            else:
                plain.run(k)

    drive(seconds, step, setup)
    return traced, plain


def wrap_layers(tracer) -> None:
    import ops
    from isokit import cli, minimize, oracle

    is_self = lambda result: result.is_self  # noqa: E731
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "sample_canonical_triangles", "sampling.sample_canonical_triangles")
    tracer.wrap(cli, "verify_triangle", "oracle.verify_triangle")
    tracer.wrap(oracle, "brute_force_min_isosceles", "oracle.brute_force_min_isosceles", rusage=True)
    tracer.wrap(oracle, "minimum_isosceles_container", "minimize.minimum_isosceles_container", tag=is_self)
    tracer.wrap(minimize, "first_kind", "containers.first_kind")
    tracer.wrap(minimize, "second_kind", "containers.second_kind")
    # the benchmark's own direct calls
    tracer.wrap(ops, "canonicalize", "geo.canonicalize")
    tracer.wrap(ops, "verify_triangle", "oracle.verify_triangle")
    tracer.wrap(ops, "all_special_containers", "containers.all_special_containers")
    tracer.wrap(ops, "minimum_isosceles_container", "minimize.minimum_isosceles_container", tag=is_self)
    tracer.wrap(ops, "cover_accept", "oracle.can_cover.accept")
    tracer.wrap(ops, "cover_reject", "oracle.can_cover.reject")


def layer_metrics(tracer, loop: Loop, untraced: Loop, setup: dict, near_right_warnings: int) -> dict:
    from tracing import END, EXTRA, NAME, START

    dur = defaultdict(list)
    self_ns = defaultdict(list)
    extra = defaultdict(list)
    for rec, s in zip(tracer.spans, tracer.self_times_ns()):
        dur[rec[NAME]].append(rec[END] - rec[START])
        self_ns[rec[NAME]].append(s)
        extra[rec[NAME]].append(rec[EXTRA])
    op_ns = sum(dur["op"])
    oracle = "oracle.brute_force_min_isosceles"
    oracle_ns = sum(dur[oracle])
    oracle_ru = extra[oracle]
    mini = "minimize.minimum_isosceles_container"
    closed_form_ns = sum(dur["geo.canonicalize"]) + sum(dur["containers.all_special_containers"]) + sum(dur[mini])
    tally = loop.tally
    return {
        "sampling.busy_share": (sum(dur["sampling.sample_canonical_triangles"]) / op_ns, "share"),
        "geo.canonicalize.calls": (len(dur["geo.canonicalize"]), "count"),
        "geo.canonicalize.p50_us": (median0(dur["geo.canonicalize"]) / 1e3, "us"),
        "containers.all_special_containers.p50_us": (median0(dur["containers.all_special_containers"]) / 1e3, "us"),
        "containers.near_right_warnings": (near_right_warnings, "count"),
        "minimize.minimum_isosceles_container.self_us": (median0(self_ns[mini]) / 1e3, "us"),
        "minimize.minimum_isosceles_container.calls": (len(dur[mini]), "count"),
        "minimize.self_container_share": (sum(extra[mini]) / len(extra[mini]) if extra[mini] else 0.0, "share"),
        "minimize_containers_geo.busy_share": (closed_form_ns / op_ns, "share"),
        f"{oracle}.calls": (len(dur[oracle]), "count"),
        f"{oracle}.p50_ms": (median0(dur[oracle]) / 1e6, "ms"),
        f"{oracle}.tail_ms": (tail(dur[oracle], ORACLE_TAIL_Q)[0] / 1e6 if dur[oracle] else 0.0, "ms"),
        f"{oracle}.busy_share": (oracle_ns / op_ns, "share"),
        f"{oracle}.minflt_per_call": (sum(r["minflt"] for r in oracle_ru) / len(oracle_ru) if oracle_ru else 0.0, "count"),
        f"{oracle}.sys_share": (sum(r["sys_s"] for r in oracle_ru) / (oracle_ns / 1e9) if oracle_ns else 0.0, "share"),
        "oracle.verify_triangle.self_ms": (median0(self_ns["oracle.verify_triangle"]) / 1e6, "ms"),
        "oracle.max_rel_gap": (max(tally.gaps) if tally.gaps else 0.0, "ratio"),
        "oracle.gap_failures": (tally.gap_failures, "count"),
        "oracle.can_cover.accept_p50_us": (median0(dur["oracle.can_cover.accept"]) / 1e3, "us"),
        "oracle.can_cover.reject_p50_us": (median0(dur["oracle.can_cover.reject"]) / 1e3, "us"),
        "oracle.can_cover.accept_failures": (tally.accept_failures, "count"),
        "oracle.can_cover.reject_true_count": (tally.reject_true, "count"),
        "cli.main.self_ms": (median0(self_ns["cli.main"]) / 1e6, "ms"),
        "cli.report_bytes": (median0(tally.report_bytes), "bytes"),
        "setup.interp_s": (setup["interp_s"], "s"),
        "setup.import_numpy_s": (setup["import_numpy_s"], "s"),
        "setup.import_isokit_s": (setup["import_isokit_s"], "s"),
        "setup.first_op_s": (setup["first_op_s"], "s"),
        "trace.overhead_share": (sum(loop.latencies_ns) / sum(untraced.latencies_ns) - 1.0, "share"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "isokit" / "__init__.py").is_file():
        print(f"error: no isokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import isokit
    import ops
    import workloads
    from tracing import Tracer

    if Path(isokit.__file__).resolve().parent != SRC / "isokit":
        print(f"error: imported isokit from {isokit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    prov = provenance()
    print(f"provenance: nproc={prov['nproc']} cpu={prov['cpu']!r} python={prov['python']} numpy={prov['numpy']}")
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    ops.OUT_DIR.mkdir(exist_ok=True)
    near_right = [0]

    tracer = Tracer()

    def count_warning(message, category, *rest):
        if tracer.installed and issubclass(category, isokit.NearRightAngleWarning):
            near_right[0] += 1

    warnings.simplefilter("always", isokit.NearRightAngleWarning)
    warnings.showwarning = count_warning

    setup = Setup(workload.name, workloads.setup_args(workload), parts=bool(args.trace))
    pool = workload.inputs(args.seed, workload.pool_size)
    run_for(workload, pool, WARMUP_SECONDS, workloads.Tally(), reverse=True)
    # keep the objects made so far (modules, warm-up leftovers) out of the
    # collector's full passes, which would otherwise land in op latencies
    gc.collect()
    gc.freeze()

    if args.trace:
        wrap_layers(tracer)
        loop, untraced = run_paired(workload, pool, args.seconds, tracer, workloads.Tally, setup)
        tracer.write(ops.OUT_DIR / f"spans-{workload.name}.jsonl")
        loop.complete()
        metrics = layer_metrics(tracer, loop, untraced, setup.result(), near_right[0])
    else:
        loop = run_for(workload, pool, args.seconds, workloads.Tally(), setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.complete()
        lat_ms = [ns / 1e6 for ns in loop.latencies_ns]
        completed = len(lat_ms) - loop.raised
        tail_ms, beyond = tail(lat_ms, workload.tail_q)
        print(f"latency_tail_ms is p{workload.tail_q:g} of {len(lat_ms)} ops, {beyond} beyond it")
        metrics = {
            "throughput_per_s": (completed * workload.triangles_per_op / (sum(lat_ms) / 1e3), "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "failed_share": (loop.failed / len(pool), "share"),
            "setup_s": (setup.result()["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    ops.VERIFY_REPORT.unlink(missing_ok=True)

    # attempted counts the pool's inputs, each checked once; the op loop's
    # length is printed beside it
    attempted = len(pool)
    limit = workload.failure_limit(attempted)
    print(
        f"attempted={attempted} failed={loop.failed} (limit {limit:.1f}; "
        f"{len(loop.latencies_ns)} timed ops; {loop.raised} raised; "
        f"{loop.crashed} not a GeometryError; {loop.failed_must_pass} where the library is known good; "
        f"{loop.mismatches} reruns with another outcome) reasons={dict(sorted(loop.reasons.items()))}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # printed only: failed_share is gated through `correct` (the failure
    # ceiling) and travels as attempted and failed, and latency_p50_ms is too
    # unsteady to bound on a shared machine (see README.md)
    for name in ("failed_share", "latency_p50_ms"):
        metrics.pop(name, None)
    result = {
        "correct": loop.crashed == 0
        and loop.failed_must_pass == 0
        and loop.mismatches == 0
        and loop.failed <= limit,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
