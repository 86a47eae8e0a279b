#!/usr/bin/env python3
"""The edgesleep benchmark: one seeded workload through the edgesleep CLI.

    python3 benchmark/run.py --workload train|score|stream --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; edgesleep is imported from its ``src``.
Set-up is repeated SETUPS times: generate the inputs to files, then start a
measuring process (benchmark/worker.py) that imports the package and warms
up.  The last one measures for --seconds seconds.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of a traced run.  The lines before it give the
environment, the metrics under the names of the individual commands, and
every failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("score", "stream", "train")
SETUPS = 5
WORKER_GRACE_S = 120  # beyond --seconds, for the last rep and the checks
UNITS = (
    ("setup_s", "s"), ("throughput", "1/s"), ("s_per_rec_hour", "s/h"), ("_ms", "ms"), (".ms", "ms"),
    ("peak_rss_mb", "MB"), (".calls", "count"), (".gmac_per_s", "GMAC/s-computed"),
    (".mb_per_s", "MB/s"), ("_ns_per_sample", "ns"), ("_ratio", "ratio"),
    ("samples_per_s", "1/s"), ("epochs_per_s", "1/s"), ("_loss", "nat"), ("_samples", "count"),
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit_of(metric: str) -> str:
    """Unit of an end-to-end or per-layer metric, read from its name."""
    for suffix, unit in UNITS:
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def worker_env() -> dict[str, str]:
    """Environment with one BLAS thread, whatever the caller's shell sets.
    Left unset, OpenBLAS starts one spinning thread per host core; the
    network's matrices are too small to gain from more than one."""
    return dict(os.environ, **{var: "1" for var in THREAD_VARS})


def environment(nproc: int, env: dict[str, str]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc,
        **{var: env[var] for var in THREAD_VARS},
    }


def start_worker(manifest_path: Path, args, env, result: Path) -> subprocess.Popen:
    spans = ROOT / ".bench_work" / f"spans-{args.workload}.csv"
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(result),
         "--spans", str(spans)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description="edgesleep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "edgesleep" / "cli.py").is_file():
        print(f"error: no edgesleep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import gen

    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    timeout = args.seconds + WORKER_GRACE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    result_path = work / "result.json"
    setup_s = []
    proc = None
    try:
        for i in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            started = time.perf_counter()
            gen.generate(args.workload, args.seed, work / "inputs")
            proc = start_worker(work / "inputs" / "manifest.json", args, env, result_path)
            ready = proc.stdout.readline().strip()
            setup_s.append(time.perf_counter() - started)
            if ready != "ready":
                print(f"error: worker failed during set-up (exit {proc.wait()})", file=sys.stderr)
                return 3
            if i < SETUPS - 1:
                proc.stdin.close()
                proc.wait(timeout)
        proc.stdin.write("go\n")
        proc.stdin.close()
        code = proc.wait(timeout)
        if code != 0 or not result_path.is_file():
            print(f"error: worker exited {code} without a result", file=sys.stderr)
            return 3
        result = json.loads(result_path.read_text())
    finally:
        if proc is not None:
            stop(proc)
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = float(np.median(setup_s))
        named = dict(result["named"], setup_s=metrics["setup_s"],
                     failed_ratio=result["failed"] / result["attempted"])
        for name, value in named.items():
            print(f"metric {name} = {value:.6g} {unit_of(name)}")
    print("environment: " + json.dumps(environment(nproc, env)))
    print(f"reps: {result['reps']}, set-up runs: {[round(s, 3) for s in setup_s]}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
