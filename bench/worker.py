"""One workload in one fresh process; ``run.py`` starts it.

    python3 bench/worker.py --workload NAME --seed N --passes P --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

Prints one JSON object.  With --setup-only it holds the set-up time alone.
Otherwise the worker makes the seeded inputs, runs P timed passes over the
whole input set, checks every output after its pass, outside the timed
spans, and reports each pass's throughput, the operations attempted and
failed, and the peak resident set.  With --trace 1 the passes alternate
untraced and traced, and the report adds the per-layer figures of the
traced ones.

The host's speed drifts by more than 1.5x within minutes, so every time is
also given in reference-host seconds: the wall time times
(PROBE_REF_S / p) ** PROBE_EXPONENT, where p is the median time of
``probe()``, a fixed stdlib kernel that runs after every operation (and,
for set-up, right after it).  The probe calls no skpval code, so no change
to the program can move it, and the scale it gives a run does not depend
on the program.
"""

import argparse
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import BENCH, ROOT, WORKLOADS

# Near the probe's median time on the reference host; a fixed scale, so
# that reference-host figures read like wall-time ones there.
PROBE_REF_S = 0.0005
# When the host drifts, the probe's time moves by more than the workloads'
# times: across passes, log(pass time) follows log(probe time) with a slope
# of 0.58 to 0.74 on the four workloads (see README.md), so the correction
# is damped to match.
PROBE_EXPONENT = 0.7
SETUP_PROBES = 21


def probe():
    """Seconds of a fixed stdlib kernel of Fraction sums and tuple-keyed
    dict updates, the staple of the value computations (about 0.5 ms)."""
    t0 = perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return perf_counter() - t0


def host_factor(probe_s):
    """How many times slower than the reference host the host runs now,
    from the median probe time."""
    return (probe_s / PROBE_REF_S) ** PROBE_EXPONENT


def import_skpval():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import skpval

    if src not in Path(skpval.__file__).resolve().parents:
        raise SystemExit(f"skpval imported from {skpval.__file__}, not from {src}")


def run_pass(workload, ctx, ops, tracer=None):
    """(wall seconds of the operations, median probe seconds, outputs)."""
    outs = []
    busy = 0.0
    probes = [probe()]
    for op in ops:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = workload.run(ctx, op)
            else:
                out = tracer.op(workload.run, ctx, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        busy += perf_counter() - t0
        outs.append(out)
        probes.append(probe())
    return busy, statistics.median(probes), outs


def check_pass(workload, ctx, ops, outs, previous):
    """(failed count, unexpected failures) of one pass."""
    failed = 0
    unexpected = []
    for k, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Exception):
            problems = [f"{type(out).__name__}: {out}"]
        else:
            prev = previous[k] if previous is not None else None
            if isinstance(prev, Exception):
                prev = None
            try:
                problems = workload.check(ctx, op, out, prev)
            except Exception as exc:  # a malformed output fails its operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            if not op.known_fault:
                unexpected.append(f"{op.name}: {'; '.join(problems)}")
    return failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = perf_counter()
    import_skpval()
    ctx = workload.setup()
    setup_s = perf_counter() - t0
    if args.setup_only:
        host = statistics.median(probe() for _ in range(SETUP_PROBES))
        print(json.dumps({"setup_s": setup_s / host_factor(host), "wall_setup_s": setup_s}))
        return 0

    ops = workload.inputs(ctx, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rates = {False: [], True: []}
    wall_rates = []
    attempted = failed = 0
    unexpected = []
    previous = None
    for p in range(args.passes):
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
        try:
            busy, host, outs = run_pass(workload, ctx, ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rates[traced].append(len(ops) / busy * host_factor(host))
        if not traced:
            wall_rates.append(len(ops) / busy)
        n_failed, bad = check_pass(workload, ctx, ops, outs, previous)
        attempted += len(ops)
        failed += n_failed
        unexpected.extend(bad)
        previous = outs

    result = {
        "ops_per_s": rates[False],
        "wall_ops_per_s": wall_rates,
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["traced_ops_per_s"] = rates[True]
        result["per_layer"] = tracer.summary(len(rates[True]))
        tracer.write(BENCH / "results" / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
