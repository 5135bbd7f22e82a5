"""Run every workload of BENCHMARK.json, repeatedly, and print each metric's spread.

    python3 perfbench/steady.py --runs 10 --seed 100

Every workload of ``BENCHMARK.json`` runs ``--runs`` times for its
``run_seconds``.  Run ``r`` (0-based) of every workload uses seed
``--seed + r``, and the workload order alternates between runs (forward,
then reversed).  Each run prints its end-to-end metrics with units and
its operations attempted and failed.  With two or more runs it then
prints, for each workload and metric, the median, the quartiles (``statistics.quantiles(values, n=4)``),
the quartile spread as a share of the median, and that spread against a
third of the metric's bound in ``BENCHMARK.json``.  The exit code is 1 if
any run fails a check or any metric's spread exceeds its bound;
``--runs 1`` is the one command that runs and checks every gated workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass  # a crash before the result line: counted as not correct
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        result["correct"] = False
    return result


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}

    results: dict[str, list[dict]] = {name: [] for name in names}
    ok = True
    for run in range(args.runs):
        for name in names if run % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            result = run_once(name, args.seed + run, config["run_seconds"])
            wall = time.perf_counter() - start
            results[name].append(result)
            share = result["failed"] / max(result["attempted"], 1)
            print(f"run {run} {name} seed {args.seed + run}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"(share {share:.6g}) wall={wall:.1f}s", flush=True)
            print("    " + ", ".join(f"{metric} {entry['value']:.6g} {entry['unit']}"
                                     for metric, entry in result["metrics"].items()))
            ok &= result["correct"]
    if args.runs < 2:
        return 0 if ok else 1

    print(f"\n{'workload':<20} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for name in names:
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results[name] if metric in r["metrics"]]
            if len(values) < 2:
                print(f"{name:<20} {metric:<18} missing")
                ok = False
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread <= bound / 3 else (" over bound/3" if spread <= bound else " OVER BOUND")
            if spread > bound:
                ok = False
            print(f"{name:<20} {metric:<18} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound / 3:8.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
