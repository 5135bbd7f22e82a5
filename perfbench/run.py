"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload asr_stream_wire --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the traced profile instead (see ``profile.py``) and
prints the per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when every check passed.  Run from the root of a
checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import time

#: The run's start: ``setup_s`` counts from here, imports included.
START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread per process: OpenBLAS otherwise starts one per CPU in
# the benchmark and in every server process, and they contend for the
# same two cores.  Set before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the benchmark and every process it starts (they inherit the
# mask).  On a small virtual machine whose CPUs the host also lends out,
# every hand-off between processes or threads on different CPUs waits for
# the other CPU to be scheduled again: unpinned, identical asr_stream_wire
# runs gave 276 to 579 frames/s; pinned, 582 to 592.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), str(ROOT)]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

import numpy as np  # noqa: E402

from perfbench import procfs  # noqa: E402
from perfbench.workloads import WORKLOADS, window_rates  # noqa: E402


def fingerprint(output) -> str:
    return hashlib.sha256(np.asarray(output).tobytes()).hexdigest()


def cold_setup(name: str, seed: int) -> dict:
    """Set ``name`` up once in this fresh process, time it, and stop."""
    workload = WORKLOADS[name](seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - START
    finally:
        workload.close()
    return {"problems": workload.problems, "ports": workload.ports,
            "pids": workload.server_processes, "setup_s": setup_s,
            "first": fingerprint(workload.first)}


def fresh_setup(name: str, seed: int, first: str, setups: list[float],
                problems: list[str]) -> None:
    """One more cold set-up, in a fresh process: its time goes to
    ``setups``; it must give the same first output as the run's own."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        problems.append(f"{name}: set-up process exited with {done.returncode}: "
                        f"{done.stderr.strip()[-500:]}")
        return
    probe = json.loads(done.stdout.splitlines()[-1])
    setups.append(probe["setup_s"])
    if probe["first"] != first:
        problems.append(f"{name}: a fresh set-up gave another first output")


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Set up, run the timed phase, check, stop.

    ``setup_s`` is the median of three cold set-ups: the run's own, timed
    from the first line of this file, and one in a fresh process on each
    side of the timed phase, so that the three span the run.  Every set-up
    is cold, so one-time costs (imports, plan caches, the executor's lazy
    set-up) count as a user sees them.
    """
    workload = WORKLOADS[name](seed)
    setups: list[float] = []
    problems: list[str] = []
    try:
        workload.setup()
        setups.append(time.perf_counter() - START)
        first = fingerprint(workload.first)
        workload.prepare()
        fresh_setup(name, seed, first, setups, problems)
        phase = workload.measure(seconds=seconds)
        workload.check()
    finally:
        workload.close()
    fresh_setup(name, seed, first, setups, problems)
    if len(phase.latencies) * (1 - workload.tail) < 10:
        print(f"warning: {len(phase.latencies)} samples leave fewer than 10 "
              f"beyond p{100 * workload.tail:g}", file=sys.stderr)
    latencies = phase.latencies or [float("nan")]
    # Rate and CPU per item are medians over the run's windows, so that a
    # few seconds of a busy host move them less than a whole-run mean.
    rates, cpu_per_item = window_rates(phase)
    if not rates:  # a run shorter than two windows
        rates = [phase.items / phase.elapsed]
        cpu_per_item = [sum(phase.cpu_s.values()) / max(phase.items, 1)]
    metrics = {
        "setup_s": (procfs.median(setups), "s"),
        "throughput_per_s": (procfs.median(rates), "1/s"),
        "latency_p50_ms": (procfs.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (procfs.percentile(latencies, workload.tail) * 1e3, "ms"),
        "peak_rss_mb": (phase.peak_rss_mib, "MiB"),
        "cpu_us_per_item": (procfs.median(cpu_per_item) * 1e6, "us"),
    }
    print(f"{name}: {phase.items} items, {len(phase.latencies)} operations timed, "
          f"{len(rates)} windows, tail = p{100 * workload.tail:g}", file=sys.stderr)
    print(f"set-ups: {', '.join(f'{value:.3f}' for value in setups)} s", file=sys.stderr)
    if phase.items == 0:
        problems.append(f"{name}: the timed phase completed no item")
    return {
        "problems": workload.problems + problems,
        "ports": workload.ports,
        "pids": workload.server_processes,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used by the run itself)")
    args = parser.parse_args(argv)

    shm_before = procfs.shm_segments()
    if args.setup_only:
        result = cold_setup(args.workload, args.seed)
        problems = result["problems"] + procfs.hygiene_problems(
            shm_before, result["ports"], result["pids"])
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"setup_s": result["setup_s"], "first": result["first"]}))
        return 1 if problems else 0
    if args.trace:
        from perfbench.profile import traced_profile

        result = traced_profile(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    problems = result["problems"] + procfs.hygiene_problems(
        shm_before, result["ports"], result["pids"])
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    failed = result["failed"]
    correct = not problems
    for metric, (value, unit) in sorted(result["metrics"].items()):
        print(f"{metric:>40} {value:14.6g} {unit}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {failed}, "
          f"correct {str(correct).lower()}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(failed),
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
