#!/usr/bin/env python3
"""Alternated parent/change runs of the benchmark, written as a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent REV_OR_DIR [--change REV_OR_DIR] \
        --workloads train score stream --seeds 401-410 --seconds 35 \
        --label NAME --what "what the change does" --out BENCH_NAME.json

Each side, a git revision of this repository or a directory, is copied into
the sibling directories `parent` and `change` of a fresh temporary
directory.  For each workload and seed, `benchmark/run.py --workload W
--seed S --seconds T` runs in both copies, one after the other; the parent
runs first at even positions of the seed list and second at odd ones.  Each
copy is renamed to the same path, `run`, for its runs: `stream`'s
`peak_rss_mb` reads about 87 or 100 MB by the checkout's path, even between
paths of equal length.  The last stdout line of each run is its
result.  The summary gives, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles and the count of pairs
(same workload and seed) in which the change is better in the metric's
direction; ties count for neither side.  The file is rewritten after every
pair, so a run that is stopped keeps what it measured.

Uses only the standard library and numpy, and no network.  The copies are
removed when the script ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")  # also the copies' directory names
IGNORED = (".git", "__pycache__", ".bench_work", ".pytest_cache", ".hypothesis", ".benchmarks")
RUN_GRACE_S = 600  # beyond --seconds: five set-ups, the last rep and the checks


def seed_list(text: str) -> list[int]:
    """"401-403" -> [401, 402, 403]; "7" -> [7]."""
    first, _, last = text.partition("-")
    low = int(first)
    high = int(last) if last else low
    if high < low:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(low, high + 1))


def side_order(position: int) -> tuple[str, str]:
    """The order in which the two sides run at a seed's position in the list."""
    return SIDES if position % 2 == 0 else SIDES[::-1]


def materialize(source: str, dest: Path) -> str:
    """Copy a directory, or the tree of a git revision of this repository, to
    dest; returns what was copied, for the record."""
    if Path(source).is_dir():
        shutil.copytree(source, dest, ignore=shutil.ignore_patterns(*IGNORED))
        described = subprocess.run(["git", "-C", source, "describe", "--always", "--dirty"],
                                   capture_output=True, text=True).stdout.strip()
        return f"directory {described or Path(source).resolve().name}"
    rev = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", "--short", f"{source}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return f"git {rev}"


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, environment line) of one benchmark run in a copy, which
    runs at the path `run` beside it."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    at = tree.rename(tree.with_name("run"))
    try:
        done = subprocess.run(command, cwd=at, capture_output=True, text=True,
                              timeout=seconds + RUN_GRACE_S)
    finally:
        at.rename(tree)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), {})
    return json.loads(lines[-1]), env


def host() -> dict:
    """The machine and the numeric stack of this process."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_configuration": blas.get("openblas configuration", "?"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "n": len(values)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: for each end-to-end metric (BENCHMARK.json's name,
    better and bound), each side's median and quartiles, the pairs in which
    the change is better, the ratio of the medians, and whether the change's
    median is within the metric's bound of the parent's; then whether every
    run was correct, and each side's share of failed operations."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        results = {side: {run["seed"]: run["result"] for run in runs
                          if run["workload"] == workload and run["side"] == side}
                   for side in SIDES}
        paired = sorted(results["parent"].keys() & results["change"].keys())
        entry = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            value = {side: {seed: result["metrics"][name]["value"]
                            for seed, result in results[side].items()} for side in SIDES}
            stats = {side: quartiles(list(value[side].values())) for side in SIDES}
            wins = sum(sign * (value["change"][seed] - value["parent"][seed]) > 0 for seed in paired)
            ratio = stats["change"]["median"] / stats["parent"]["median"]
            entry[name] = {
                **stats,
                "better": metric["better"],
                "change_better_in_pairs": f"{wins}/{len(paired)}",
                "change_over_parent": round(ratio, 4),
                "within_bound": bool(sign * (ratio - 1) >= -metric["bound"]),
            }
        everything = [result for side in SIDES for result in results[side].values()]
        entry["correct_all_runs"] = all(result["correct"] for result in everything)
        entry["failed_share"] = {
            side: sum(r["failed"] for r in results[side].values())
            / max(1, sum(r["attempted"] for r in results[side].values()))
            for side in SIDES
        }
        summary[workload] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision or directory")
    parser.add_argument("--change", default=str(REPO), help="git revision or directory")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=seed_list, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = [seed for group in args.seeds for seed in group]
    end_to_end = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: work / side for side in SIDES}
        sources = {side: materialize(getattr(args, side), trees[side]) for side in SIDES}
        record = {
            "label": args.label,
            "what": args.what,
            **{f"{side}_source": sources[side] for side in SIDES},
            "command": f"python3 benchmark/run.py --workload <workload> --seed <seed> --seconds {args.seconds:g}",
            "workloads": args.workloads,
            "seeds": seeds,
            "protocol": (
                "each side copied into the sibling directories parent and change, and renamed "
                "to one path for its runs; for each workload and seed the two sides run back to "
                "back, one at a time, the parent first at even positions of the seed list; "
                "quartiles by numpy.percentile over each side's runs; a pair is the two runs "
                "of one workload and seed, and a tie counts for neither side"
            ),
            "host": host(),
            "summary": {},
            "runs": [],
        }
        for workload in args.workloads:
            for position, seed in enumerate(seeds):
                for side in side_order(position):
                    result, env = run_benchmark(trees[side], workload, seed, args.seconds)
                    record["host"].setdefault("benchmark_environment", env)
                    record["runs"].append({"side": side, "workload": workload, "seed": seed,
                                           "result": result})
                    print(f"{workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr)
                record["summary"] = summarize(record["runs"], end_to_end)
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
