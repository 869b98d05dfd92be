"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads tunnel-swap-m200 --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of that median, next to the metric's bound in BENCHMARK.json.  Runs are made
one after another, each in a fresh process; raw results go to
perfbench-out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = ROOT / "perfbench-out"
    out.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(bench["command"], workload, seed, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        (out / f"spread-{workload}.json").write_text(json.dumps(results, indent=1))
        print(f"{'metric':14} {'median':>12} {'iqr/median':>10} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (0, 0, 0)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            worst = max(worst, spread / bound)
            print(f"{name:14} {median:12.6g} {spread:10.4f} {bound:6.2f}")
    print(f"largest spread as a share of its bound (setup_s included): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
