"""Run the skpval benchmark: one workload, or all four in turn.

    python3 bench/run.py --workload adic_values --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-threaded processes started from here:

* one process compiles and discards, then SETUP_RUNS processes each
  import skpval and build the workload's reused state; ``setup_s`` is the
  median of their set-up times;
* up to PASS_PROCESSES processes, one after another, run whole passes
  over the workload's fixed input set.  The number of passes is fixed by
  --seconds and the workload's nominal pass time on the reference host,
  so every run with the same --seconds times the same work.  ``ops_per_s`` is the
  median over all passes of operations per second of the pass;
  ``peak_rss_mb`` is the largest peak resident set of those processes.

Times are in reference-host seconds (see worker.py); the same figures in
plain wall time are printed on the workload's summary line.

With --trace 1 the passes alternate untraced and traced and the metrics
are the per-layer figures of the traced passes (see tracer.py), plus the
traced throughput and the tracing overhead; spans are written under
bench/results/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every workload ran to its end, whatever its checks found.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from tracer import metric_names
from workloads import BENCH, ROOT, WORKLOADS

# seconds per pass on the reference host (see README.md)
NOMINAL_PASS_S = {
    "adic_values": 4.0,
    "euclid_values": 8.0,
    "realize_verify": 0.9,
    "cli_corpus": 0.3,
}
MIN_PASSES = 4
SETUP_RUNS = 31
# processes with the same inputs differ in speed by a few percent, so the
# passes of an untraced run are split over up to this many
PASS_PROCESSES = 5
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def passes_for(workload, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(name, seed, passes, trace, deadline):
    """Run the passes, split over up to PASS_PROCESSES fresh processes
    unless traced, and merge the reports."""
    n = 1 if trace else min(PASS_PROCESSES, passes)
    reports = [
        worker(
            ["--workload", name, "--seed", str(seed),
             "--passes", str(passes // n + (k < passes % n)), "--trace", str(trace)],
            deadline,
        )
        for k in range(n)
    ]
    res = reports[0]
    for other in reports[1:]:
        for key in ("ops_per_s", "wall_ops_per_s", "unexpected"):
            res[key] = res[key] + other[key]
        for key in ("attempted", "failed"):
            res[key] += other[key]
        res["peak_rss_mb"] = max(res["peak_rss_mb"], other["peak_rss_mb"])
    return res


def run_workload(name, seed, seconds, trace, deadline):
    """(correct, attempted, failed, {metric: (value, unit)}) of one workload."""
    passes = passes_for(name, seconds)
    metrics = {}
    if not trace:
        worker(["--workload", name, "--setup-only"], deadline)
        setups = [
            worker(["--workload", name, "--setup-only"], deadline)
            for _ in range(SETUP_RUNS)
        ]
    res = run_passes(name, seed, passes, trace, deadline)
    untraced = statistics.median(res["ops_per_s"])
    if trace:
        traced = statistics.median(res["traced_ops_per_s"])
        units = dict(metric_names())
        for metric, value in res["per_layer"].items():
            metrics[metric] = (value, units[metric])
        metrics["trace.ops_per_s"] = (traced, "1/s")
        metrics["trace.overhead"] = (untraced / traced, "ratio")
    else:
        metrics["ops_per_s"] = (untraced, "1/s")
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    for line in res["unexpected"][:10]:
        print(f"{name}: FAILED {line}", file=sys.stderr)
    print(
        f"{name}: {passes} passes of {res['ops_per_pass']} operations, seed {seed}; "
        f"attempted {res['attempted']}, failed {res['failed']}; in wall time "
        f"{statistics.median(res['wall_ops_per_s']):.6g} ops/s"
        + (f", set-up {statistics.median(s['wall_setup_s'] for s in setups):.6g} s"
           if not trace else "")
    )
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<44} {value:>14.6g} {unit}")
    return not res["unexpected"], res["attempted"], res["failed"], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)

    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, n_att, n_fail, m = run_workload(
                name, args.seed, args.seconds, args.trace, deadline
            )
            correct = correct and ok
            attempted += n_att
            failed += n_fail
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
