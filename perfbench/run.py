"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload train-ring --seed 1 --seconds 35 --trace 0

Closed loop, one client: ops run back to back in this process.  With
``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
ops and reports the per-layer metrics, the tracing overhead, and writes
the traced ops' spans to ``perfbench/out/``.  Every op's outputs are
checked; the last stdout line is one JSON object, and the exit code is
non-zero when any check failed.  ``--out FILE`` also writes the full
record (host fingerprint, inputs, samples) that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = "perfbench/1"
#: Fresh processes timed from start to first op ready; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "perfbench-ready"
#: Modeled outputs: deterministic for a seed, so they are checked for
#: exact repeats instead of being noise-banded (units as printed).
MODELED_UNITS = {
    "sim_time_s": "s_simulated",
    "link_payload_bytes": "bytes",
    "wire_ratio": "ratio",
    "final_loss": "loss",
}

import measure  # noqa: E402  (sibling module; the script directory is on sys.path)
import workloads  # noqa: E402


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's sources first on the path; fail if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, src)


def setup_probe(args: argparse.Namespace) -> int:
    """Child side of a setup measurement: import, build inputs, report ready."""
    import_program()
    workloads.WORKLOADS[args.workload](args.seed)
    print(READY, flush=True)
    return 0


def time_setup(args: argparse.Namespace) -> float:
    """Seconds from a fresh process's start until its first op is ready."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != READY or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Loop:
    """The timed closed loop: op samples, failures, and the outputs to check."""

    def __init__(self, prepared: workloads.Prepared, reference: Dict[str, Any]) -> None:
        self.prepared = prepared
        self.reference = reference
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: List[float] = []
        self.wall_s = 0.0

    def one(self) -> Optional[float]:
        """Run and check one op; its host seconds, or ``None`` if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.prepared.op()
        except Exception:  # an op that raises is a failed op, not a crash
            self.failures.append(traceback.format_exc(limit=3))
            return None
        elapsed = time.perf_counter() - start
        problems = workloads.check_op(self.reference, out)
        if problems:
            self.failures.append("; ".join(problems))
            return None
        self.samples.append(elapsed)
        return elapsed


def end_to_end(loop: Loop, setup_samples: List[float]) -> Dict[str, float]:
    """Every end-to-end figure this workload has, keyed by metric name."""
    ref = loop.reference
    out: Dict[str, float] = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_fail_ratio": len(loop.failures) / loop.attempted,
    }
    out.update({key: ref[key] for key in MODELED_UNITS if key in ref})
    if loop.samples:
        out["ops_per_s"] = len(loop.samples) / loop.wall_s
        out["op_p50_s"] = statistics.median(loop.samples)
        tail = measure.tail_percentile(loop.samples)
        out["op_tail_s"] = tail[0] if tail else max(loop.samples)
    return out


def run_untraced(args, prepared, reference) -> Loop:
    loop = Loop(prepared, reference)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        loop.one()
    loop.wall_s = time.perf_counter() - start
    return loop


def run_traced(args, prepared, reference):
    """Alternate untraced and traced ops; spans cover the traced ones."""
    import spans

    rec = spans.SpanRecorder()
    patches = spans.Patches(rec)
    op_span = rec.name_id("op")
    loop = Loop(prepared, reference)
    untraced: List[float] = []
    traced: List[float] = []
    traced_ops: List[int] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        if loop.attempted % 2 == 0:
            elapsed = loop.one()
            if elapsed is not None:
                untraced.append(elapsed)
            continue
        op_id = rec.begin_op()
        with patches:
            idx = rec.enter(op_span)
            try:
                elapsed = loop.one()
            finally:
                rec.exit(idx)
        if elapsed is not None:
            traced.append(elapsed)
            traced_ops.append(op_id)
    loop.wall_s = time.perf_counter() - start
    return loop, rec, untraced, traced, traced_ops


def per_layer(rec, untraced, traced, traced_ops, reference) -> Dict[str, float]:
    import spans

    out = spans.layer_metrics(rec, traced_ops, "op")
    out["network.tenants.messages"] = reference.get("background_messages", 0)
    out["network.tenants.bytes"] = reference.get("background_bytes", 0)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def emit(
    specs: List[Dict[str, Any]],
    figures: Dict[str, float],
    correct: bool,
    loop: Loop,
) -> None:
    """Print the result line: the declared metrics that this run measured."""
    metrics = {
        spec["name"]: {"value": figures[spec["name"]], "unit": spec["unit"]}
        for spec in specs
        if spec["name"] in figures
    }
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    benchmark = load_benchmark()
    import_program()
    prepared = workloads.WORKLOADS[args.workload](args.seed)
    setup_samples = [time_setup(args) for _ in range(SETUP_PROBES)]

    # The untimed first op warms caches and is the reference every later
    # op must reproduce exactly.
    reference = prepared.op()
    failures = workloads.check_op(reference, reference)
    failures += prepared.run_checks(reference)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for listed in benchmark["workloads"]:
        if listed["name"] == args.workload:
            print(f"  why: {listed['why']}")
    fingerprint = measure.host_fingerprint()
    print(f"  host: {json.dumps(fingerprint, sort_keys=True)}")
    if args.trace:
        loop, rec, untraced, traced, traced_ops = run_traced(args, prepared, reference)
    else:
        loop = run_untraced(args, prepared, reference)
    correct = not failures and not loop.failures and bool(loop.samples)
    for problem in failures + loop.failures:
        print(f"  CHECK FAILED: {problem}")

    figures = end_to_end(loop, setup_samples)
    figures.update(prepared.notes(reference))
    if args.trace and traced and untraced:
        figures.update(per_layer(rec, untraced, traced, traced_ops, reference))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        span_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.npz")
        rec.save(span_path)
        print(f"  spans: {len(rec.start)} written to {os.path.relpath(span_path, ROOT)}")
    elif args.trace:
        correct = False
        print("  CHECK FAILED: no traced and untraced op pair completed")

    units = dict(MODELED_UNITS, op_fail_ratio="ratio")
    for group in ("end_to_end", "per_layer"):
        units.update({s["name"]: s["unit"] for s in benchmark[group]})
    tail = measure.tail_percentile(loop.samples)
    tail_note = (
        f"p{tail[1]:.1f}, {measure.TAIL_BEYOND} of {len(loop.samples)} samples beyond"
        if tail
        else f"max of {len(loop.samples)} samples; fewer than {measure.TAIL_BEYOND + 1}"
    )
    for name in sorted(figures):
        note = tail_note if name == "op_tail_s" else ""
        print(f"  {name:34s} {figures[name]!r:>24} {units.get(name, '')} {note}".rstrip())

    group = "per_layer" if args.trace else "end_to_end"
    if args.out:
        record = {
            "schema": SCHEMA,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs": prepared.inputs,
            "fingerprint": fingerprint,
            "correct": correct,
            "attempted": loop.attempted,
            "failed": len(loop.failures),
            "figures": figures,
            "op_samples_s": loop.samples,
            "setup_samples_s": setup_samples,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    emit(benchmark[group], figures, correct, loop)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
