"""satlab's benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload {probe,certify,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; satlab is imported from its ``src/``.  The
run measures set-up in fresh interpreters, repeats whole rounds of the
workload's ops until S seconds have passed (and at least the workload's
minimum number of rounds), then checks every output against the benchmark's
own computations.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with --trace 0, the per-layer metrics from spans with --trace 1.  A result
file (and with --trace 1 the spans) is written under perfbench/out/.  Exit
code 1 means an output was wrong, 2 that satlab could not be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
# No round starts after this many seconds, so a run ends well inside 180 s.
ROUND_START_LIMIT_S = 100.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("probe", "certify", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args) -> tuple[list[float], set[str]]:
    """Seconds from spawning a fresh interpreter until it has imported satlab
    and built the workload's inputs, and the input digests it reported."""
    times, digests = [], set()
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError("a set-up interpreter failed")
        digests.add(line.decode().strip())
    return times, digests


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered)) - 1)]


def timed_loop(workload, seconds: float, tracer):
    """Whole rounds of the workload's ops, one after another."""
    op_times, op_family, round_times, outputs, failures = [], [], [], [], []
    bench_op = tracer.name_id("bench.op") if tracer else None
    start = time.perf_counter()
    rounds = 0
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > ROUND_START_LIMIT_S:
            break
        gc.collect()
        round_start = time.perf_counter()
        results = []
        for family, op in workload.ops:
            if tracer:
                tracer.current_op = len(op_times)
                idx = tracer.open(bench_op)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # an op that raises counts as failed; the run goes on
                out = None
                failures.append(traceback.format_exc())
            t1 = time.perf_counter()
            if tracer:
                tracer.close(idx)
            op_times.append(t1 - t0)
            op_family.append(family)
            results.append(out)
        round_times.append(time.perf_counter() - round_start)
        outputs.append(results)
        rounds += 1
    if tracer:
        tracer.current_op = -1
    return op_times, op_family, round_times, outputs, failures


def check_outputs(workload, outputs) -> list[str]:
    """Every round must give the first round's outputs; those must pass the checks."""
    recorded = [[None if o is None else workload.record(o) for o in results] for results in outputs]
    first = list(recorded[0])
    errors = []
    for results in recorded[1:]:
        for i, out in enumerate(results):
            if first[i] is None:
                first[i] = out
            elif out is not None and out != first[i]:
                errors.append(f"op {i} gave a different output in a later round")
    return errors + workload.check(first)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "satlab" / "__init__.py").is_file():
        print(f"perfbench: no satlab sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path[0:1] = [str(SRC), str(ROOT)]
    import satlab

    if Path(satlab.__file__).resolve().parent != SRC / "satlab":
        print(f"perfbench: imported satlab from {satlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import spans
    from perfbench.workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        if args.setup_only:
            print(WORKLOADS[args.workload](args.seed, workdir).digest(), flush=True)
            return 0
        setup_times, digests = measure_setup(args)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        errors = [] if digests == {workload.digest()} else ["set-up built different inputs for one seed"]
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.instrument(tracer, satlab)
            workload.tracer = tracer
        op_times, op_family, round_times, outputs, failures = timed_loop(workload, args.seconds, tracer)
        peak_rss_kb = workload.peak_rss_kb()
        extra = workload.trace_extras() if tracer else {}
        errors += check_outputs(workload, outputs)

    for message in failures[:3] + errors[:20]:
        print(message, file=sys.stderr)
    ops_per_round = len(workload.ops)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "op_p50_ms": (nearest_rank(op_times, 0.5) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(op_times, workload.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    if tracer:
        units = {"canonical.generators_sym": "count"}
        metrics = {
            name: {"value": value, "unit": units.get(name, name.rsplit("_", 1)[1])}
            for name, value in spans.per_layer_metrics(tracer, op_family, ops_per_round, extra).items()
        }
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    result = {"correct": not errors, "attempted": len(op_times), "failed": len(failures), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if tracer else "")
    detail = dict(
        result,
        end_to_end={name: value for name, (value, _) in e2e.items()},
        rounds=len(round_times),
        ops_per_round=ops_per_round,
        tail_pct=workload.tail_pct,
        round_times_s=round_times,
        op_times_ms=[[f, t * 1e3] for f, t in zip(op_family, op_times)],
        family_median_ms={
            f: statistics.median(t * 1e3 for t, g in zip(op_times, op_family) if g == f) for f in sorted(set(op_family))
        },
        setup_times_s=setup_times,
        errors=errors,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
