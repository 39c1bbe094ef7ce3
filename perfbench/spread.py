#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's spread.

    python3 perfbench/spread.py --workload served_stream --seeds 1-10
    python3 perfbench/spread.py --workload crowded_steps --seeds 1,2,3 --trace 1

Runs the command in BENCHMARK.json from the repository root (add
``--bin PATH`` to run a prebuilt binary instead) and prints, per metric,
the median, the quartiles and the interquartile distance as a share of
the median, with Python's ``statistics.quantiles(values, n=4)``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = command + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", seconds, "--trace", args.trace]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed} failed ({run.returncode}):\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>8.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
