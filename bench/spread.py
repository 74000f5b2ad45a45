"""Run-to-run spread of the end-to-end metrics, as README.md reports it.

    python3 bench/spread.py

Runs run.py on every workload with seeds 1 to 10, twice: the two sets
alternate, and the workloads interleave within each.  The run length is
BENCHMARK.json's run_seconds.  For each workload and set it prints, per
metric, the median, the quartiles from statistics.quantiles(values, n=4)
and the spread (q3 - q1) / median, and the share of failed operations.
Raw results go to bench/results/spread.jsonl.
"""

import json
import statistics
import subprocess
import sys

from workloads import BENCH, ROOT, WORKLOADS

SETS = 2
SEEDS = range(1, 11)


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {}
    out_path = BENCH / "results" / "spread.jsonl"
    out_path.parent.mkdir(exist_ok=True)
    with open(out_path, "a") as log:
        for seed in SEEDS:
            for s in range(SETS):
                for w in WORKLOADS:
                    proc = subprocess.run(
                        [sys.executable, str(BENCH / "run.py"), "--workload", w,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", "0"],
                        cwd=ROOT, capture_output=True, text=True, check=True,
                    )
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                    log.write(json.dumps({"set": s, "workload": w, "seed": seed, **res}) + "\n")
                    log.flush()
                    runs.setdefault((w, s), []).append(res)
                    print(f"set {s} {w} seed {seed}: "
                          + ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()),
                          flush=True)
    for (w, s), results in sorted(runs.items()):
        share = {r["failed"] / r["attempted"] for r in results}
        print(f"{w} set {s}: {len(results)} runs, failed share {sorted(share)}, "
              f"correct {all(r['correct'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}")


if __name__ == "__main__":
    main()
