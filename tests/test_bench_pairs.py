"""scripts/bench_pairs.py's summary arithmetic, on canned benchmark result
lines; no benchmark runs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "bench_pairs.py"
END_TO_END = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(throughput, latency, rss=50.0, setup=1.0, correct=True, failed=0, attempted=10):
    """One result line as benchmark/run.py prints it with --trace 0."""
    values = {"throughput": (throughput, "1/s"), "latency_fast_ms": (latency, "ms"),
              "peak_rss_mb": (rss, "MB"), "setup_s": (setup, "s")}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def runs_of(workload, parent, change):
    """Alternated runs, as the script records them, of per-seed results."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        sides = [("parent", p), ("change", c)]
        for side, res in sides if seed % 2 else sides[::-1]:
            runs.append({"side": side, "workload": workload, "seed": seed, "result": res})
    return runs


def test_medians_quartiles_and_pairs_in_each_metrics_direction(pairs):
    parent = [result(100, 10), result(110, 12), result(90, 11), result(120, 9), result(100, 10)]
    change = [result(105, 9), result(100, 13), result(95, 10), result(130, 8), result(100, 10)]
    summary = pairs.summarize(runs_of("score", parent, change), END_TO_END)["score"]
    throughput = summary["throughput"]
    assert throughput["parent"] == {"median": 100.0, "q1": 100.0, "q3": 110.0, "n": 5}
    assert throughput["change"] == {"median": 100.0, "q1": 100.0, "q3": 105.0, "n": 5}
    # higher is better: seeds 1, 3, 4 win, seed 2 loses, seed 5 ties
    assert throughput["change_better_in_pairs"] == "3/5"
    assert throughput["better"] == "higher"
    latency = summary["latency_fast_ms"]
    # lower is better: seeds 1, 3, 4 win, seed 2 loses, seed 5 ties
    assert latency["change_better_in_pairs"] == "3/5"
    assert latency["change_over_parent"] == 1.0
    # equal values everywhere: every pair is a tie
    assert summary["peak_rss_mb"]["change_better_in_pairs"] == "0/5"
    assert summary["correct_all_runs"] is True
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.0}


def test_bound_is_relative_to_the_parent_median_in_the_metrics_direction(pairs):
    bounds = {m["name"]: m["bound"] for m in END_TO_END}
    worse_rss = 1 + bounds["peak_rss_mb"] * 1.5
    summary = pairs.summarize(
        runs_of("train", [result(100, 10)] * 3,
                [result(100 * (1 - bounds["throughput"] / 2), 10, rss=50.0 * worse_rss)] * 3),
        END_TO_END,
    )["train"]
    assert summary["throughput"]["within_bound"] is True
    assert summary["throughput"]["change_better_in_pairs"] == "0/3"
    assert summary["peak_rss_mb"]["within_bound"] is False
    assert summary["latency_fast_ms"]["within_bound"] is True


def test_workloads_are_summarized_apart_and_failures_counted(pairs):
    runs = runs_of("stream", [result(5, 1)] * 2, [result(5, 1, failed=2, attempted=8)] * 2)
    runs += runs_of("train", [result(7, 2, correct=False)], [result(7, 2)])
    summary = pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["stream", "train"]
    assert summary["stream"]["failed_share"] == {"parent": 0.0, "change": 0.25}
    assert summary["stream"]["correct_all_runs"] is True
    assert summary["train"]["correct_all_runs"] is False
    assert summary["train"]["throughput"]["parent"]["n"] == 1


def test_seed_ranges_and_side_order(pairs):
    assert pairs.seed_list("401-403") == [401, 402, 403]
    assert pairs.seed_list("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        pairs.seed_list("5-3")
    assert [pairs.side_order(i)[0] for i in range(4)] == ["parent", "change"] * 2
