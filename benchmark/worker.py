"""Measuring process of the edgesleep benchmark.

Started by run.py once the inputs exist on disk, so its resident high-water
mark holds none of the generator's arrays.  It imports edgesleep from the
checkout's ``src``, warms up on the small input set, prints ``ready`` and
waits for ``go`` on stdin.  It then drives ``edgesleep.cli.main`` in-process
in a closed loop with one caller for the given number of seconds, checks
every output outside the timed spans, and writes its result as JSON.

    python3 benchmark/worker.py --manifest M --seconds S --trace 0|1 --out R [--spans P]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from edgesleep import budget, cli, model, quant, streaming  # noqa: E402
from edgesleep.epochs import EPOCH_SAMPLES, STAGE_NAMES, SleepStage, standardize  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402

READ_BYTES = 400  # one second of float32 samples per stdin read
BATCH_SIZE = 64
LEARNING_RATE = 1e-3  # the default of `edgesleep train`
GRADIENT_PROBES = 4  # weights per tensor whose gradient sign is checked
FD_STEP = 1e-6
FD_TOLERANCE = 1e-7  # central differences smaller than this have no sign
PROB_ATOL = 1e-5  # streamed probabilities (6 decimals, float32) against the reference
FASTEST_OPS = 5  # operations below the percentile that the gated timings take


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds) of one in-process CLI command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
    return code, out.getvalue(), seconds


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def fastest(values: list[float], top: bool = False) -> float:
    """The percentile that marks off the fastest percent of the values, or
    their fastest FASTEST_OPS where a run has fewer than 100 * FASTEST_OPS
    values.  top=True counts from the top, for rates."""
    q = max(1.0, 100.0 * FASTEST_OPS / len(values))
    return percentile(values, 100 - q if top else q)


def shared_metrics(work: list[float], op_seconds: list[float], latency_ms: list[float]) -> dict:
    """The gated end-to-end timings of a workload, both from its fastest
    operations: throughput from the operations' rates (work over time),
    latency from the latencies.

    The machine this was tuned on is shared, and its speed for the same
    code drifts by up to 50% over seconds to minutes.  Between runs of the
    same code, medians moved by 14-43% and even the 10th percentile of the
    stream's short windows by 31%, because slow spells can cover most of a
    run.  The fastest operations of a run are the ones least touched by
    other tenants, and a slower program moves them just the same.  A
    handful of them, not the single fastest, keeps one lucky operation
    from setting the figure."""
    return {
        "throughput": fastest(np.divide(work, op_seconds), top=True),
        "latency_fast_ms": fastest(latency_ms),
    }


def spread_metrics(latency_ms: list[float]) -> dict:
    """Median and 99th percentile of the latency, printed but not gated."""
    return {
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_p99_ms": percentile(latency_ms, 99),
        "latency_samples": len(latency_ms),
    }


class Workload:
    """One workload: `rep` runs and times its commands once (its "seconds"
    is their total wall time), `check` returns the failed output checks of
    the collected reps, `metrics` reduces them."""

    def __init__(self, spec: dict, base: Path):
        self.spec = spec
        self.base = base

    def path(self, name: str) -> str:
        return str(self.base / name)


class Train(Workload):
    def argv(self, out_dir: str) -> list[str]:
        return [
            "train", "--store", self.path(self.spec["store"]), "--out-dir", out_dir,
            "--fold", "0", "--max-epochs", str(self.spec["max_epochs"]),
            "--batch-size", str(BATCH_SIZE), "--width-multiplier", "1.0", "--seed", "0",
        ]

    def rep(self, i: int) -> dict:
        out_dir = self.path(f"train-rep{i}")
        code, _, seconds = run_cli(self.argv(out_dir))
        return {"code": code, "seconds": seconds, "out_dir": out_dir}

    def operations(self, rep: dict) -> int:
        return 1

    def check(self, reps: list[dict]) -> list[str]:
        failures = []
        for i, rep in enumerate(reps):
            if rep["code"] != 0:
                failures.append(f"rep {i}: train exited {rep['code']}")
                continue
            rows = Path(rep["out_dir"], "history_fold0.csv").read_text().split()[1:]
            losses = [float(r.split(",")[1]) for r in rows]
            rep["final_loss"] = losses[-1] if losses else math.nan
            values = [float(v) for r in rows for v in r.split(",")[1:]]
            if len(rows) != self.spec["max_epochs"] or not all(map(math.isfinite, values)):
                failures.append(f"rep {i}: history has {len(rows)} rows, finite={all(map(math.isfinite, values))}")
            params, _ = model.load_model(Path(rep["out_dir"], "model_fold0.slpm"))
            if model.param_count(params) != 277_669:
                failures.append(f"rep {i}: saved model has {model.param_count(params)} parameters")
        if len({rep.get("final_loss") for rep in reps}) > 1:
            failures.append("final train loss differs between identical runs")
        return failures + self.gradient_failures()

    def gradient_failures(self) -> list[str]:
        """One Adam step checked against the reference.  `train` on the
        5-epoch step store holds one subject out and, with 4 epochs left,
        keeps none for validation, so it makes exactly one Adam step over
        those 4 from the initial weights.  A first Adam step moves every
        weight with a gradient by the learning rate against the gradient's
        sign.  For a few weights of each tensor, the move must match the
        sign of a central difference of the reference's cross-entropy."""
        out_dir = self.path("gradient-check")
        code, _, _ = run_cli([
            "train", "--store", self.path(self.spec["step_store"]), "--out-dir", out_dir, "--fold", "0",
            "--max-epochs", "1", "--batch-size", str(BATCH_SIZE), "--width-multiplier", "1.0", "--seed", "0",
        ])
        if code != 0:
            return [f"train on the step store exited {code}"]
        held_out = {int(s) for s in Path(out_dir, "folds.txt").read_text().split()[1].split(",")}
        step = reference.read_store(self.path(self.spec["step_store"]))
        step = step[~np.isin(step["subject"], list(held_out))]
        labels = step["stage"].astype(np.int64)
        before = model.init_params(model.ArchConfig(), 0).tensors
        after, _ = model.load_model(Path(out_dir, "model_fold0.slpm"))

        def loss(weights) -> float:
            return reference.cross_entropy(reference.probabilities(weights, step["samples"]), labels)

        rng = np.random.default_rng(0)
        failures = []
        for name, theta in before.items():
            moved = after.tensors[name] - theta
            for i in rng.choice(theta.size, min(GRADIENT_PROBES, theta.size), replace=False):
                probe = dict(before)
                ends = []
                for sign in (1, -1):
                    probe[name] = theta.copy()
                    probe[name].flat[i] += sign * FD_STEP
                    ends.append(loss(probe))
                slope = (ends[0] - ends[1]) / (2 * FD_STEP)
                # A zero slope (e.g. attn_bk, which softmax cancels) says nothing.
                if abs(slope) > FD_TOLERANCE and not -moved.flat[i] * np.sign(slope) > LEARNING_RATE / 2:
                    failures.append(f"{name}[{i}] moved by {moved.flat[i]:.3g}, the reference slope is {slope:.3g}")
        return failures[:3]

    def samples(self) -> int:
        return self.spec["train_samples"] * self.spec["max_epochs"]

    def metrics(self, reps: list[dict]) -> tuple[dict, dict]:
        walls = [r["seconds"] for r in reps]
        latency = [1e3 * w for w in walls]
        named = dict(
            spread_metrics(latency),
            train_samples_per_s=float(np.median([self.samples() / w for w in walls])),
            train_final_loss=reps[0].get("final_loss", math.nan),
        )
        return shared_metrics([self.samples()] * len(walls), walls, latency), named

    def expected_calls(self) -> dict[str, int]:
        steps = math.ceil(self.spec["train_samples"] / BATCH_SIZE) * self.spec["max_epochs"]
        return {"cli.train": 1, "training.adam_step": steps}


class Score(Workload):
    """Per rep: `convert --append` of every night into a fresh store, then
    one `eval --subjects <night>` per night, so that a rep gives as many
    eval timings as nights."""

    def rep(self, i: int) -> dict:
        store = Path(self.path("score.slpe"))
        store.unlink(missing_ok=True)
        converts = []
        for night in self.spec["nights"]:
            converts.append(run_cli([
                "convert", self.path(night["psg"]), "--hypnogram", self.path(night["hypnogram"]),
                "--subject", str(night["subject"]), "--night", "1", "--out", str(store), "--append",
            ]))
        evals = []
        for night in self.spec["nights"]:
            prefix = self.path(f"eval-{night['subject']}")
            code, _, seconds = run_cli(["eval", "--store", str(store), "--model", self.path(self.spec["model"]),
                                        "--subjects", str(night["subject"]), "--out-prefix", prefix])
            confusion = None
            if code == 0:
                rows = Path(prefix + "_counts.csv").read_text().split()[1:]
                confusion = np.array([[int(v) for v in row.split(",")[1:]] for row in rows])
            evals.append((code, seconds, confusion))
        seconds = sum(c[2] for c in converts) + sum(e[1] for e in evals)
        return {"converts": converts, "evals": evals, "seconds": seconds}

    def operations(self, rep: dict) -> int:
        return len(rep["converts"]) + len(rep["evals"]) + sum(self.spec["counts"])

    def check(self, reps: list[dict]) -> list[str]:
        """convert counts against the ground truth; the store the last rep
        wrote against the generator's samples and labels; every eval's
        confusion matrix against the reference forward on those samples."""
        failures = []
        nights = self.spec["nights"]
        weights = reference.load_weights(Path(self.path(self.spec["model"])).with_suffix(".npz"))
        store = reference.read_store(self.path("score.slpe"))
        truth = []
        for night in nights:
            samples = gen.read_fpz(self.path(night["psg"]))[night["kept"]].astype(np.float32)
            stages = np.array(night["stages"])
            truth.append((stages, reference.probabilities(weights, samples)))
            mine = store[store["subject"] == night["subject"]]
            if (mine["index"].tolist() != night["kept"] or mine["stage"].tolist() != night["stages"]
                    or not np.allclose(mine["samples"], samples, rtol=0, atol=1e-3)):
                failures.append(f"store epochs of subject {night['subject']} differ from {night['psg']}")
        for i, rep in enumerate(reps):
            for night, (code, out, _) in zip(nights, rep["converts"]):
                rows = [line.split() for line in out.splitlines()[1:]]
                counts = [int(row[1]) for row in rows if row and row[0] in STAGE_NAMES]
                if code != 0 or counts != night["store_counts"]:
                    failures.append(f"rep {i}: convert of {night['psg']} exited {code}, "
                                    f"counts {counts} != {night['store_counts']}")
            for night, (code, _, confusion), (stages, probs) in zip(nights, rep["evals"], truth):
                if code != 0 or not reference.confusion_fits(confusion, stages, probs):
                    failures.append(f"rep {i}: eval of subject {night['subject']} exited {code}, "
                                    f"its confusion matrix {confusion} disagrees with the reference")
        return failures

    def metrics(self, reps: list[dict]) -> tuple[dict, dict]:
        """An operation is one night: its `convert --append` plus its
        `eval --subjects`."""
        night_epochs = [sum(night["counts"]) for night in self.spec["nights"]] * len(reps)
        night_s = [c[2] + e[1] for r in reps for c, e in zip(r["converts"], r["evals"])]
        eval_s = [e[1] for r in reps for e in r["evals"]]
        convert_s = [sum(c[2] for c in r["converts"]) for r in reps]
        latency = [1e3 * t for t in night_s]
        named = dict(
            spread_metrics(latency),
            convert_s_per_rec_hour=float(np.median(convert_s)) / self.spec["rec_hours"],
            eval_epochs_per_s=float(np.median(np.divide(night_epochs, eval_s))),
        )
        return shared_metrics(night_epochs, night_s, latency), named

    def expected_calls(self) -> dict[str, int]:
        nights = len(self.spec["nights"])
        return {"cli.convert": nights, "cli.eval": nights, "edf.read_signal": nights,
                "epochs.write_store": nights}


class Feed:
    """Binary stdin that serves one-second reads from the feed file as soon
    as they are asked for, recording when each read returned."""

    def __init__(self, file):
        self.file = file
        self.times: list[float] = []

    def read(self, n: int = -1) -> bytes:
        chunk = self.file.read(READ_BYTES)
        self.times.append(time.perf_counter())
        return chunk


class LineSink(io.TextIOBase):
    """Text stdout that records when each line's newline was written."""

    def __init__(self):
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.times.append(time.perf_counter())
        return len(text)

    def lines(self) -> list[str]:
        return "".join(self.parts).splitlines()


class Stream(Workload):
    def rep(self, i: int) -> dict:
        sink = LineSink()
        saved = sys.stdin
        with open(self.path(self.spec["feed"]), "rb") as f:
            feed = Feed(f)
            sys.stdin = types.SimpleNamespace(buffer=feed)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()) as err:
                    started = time.perf_counter()
                    code = cli.main(["stream", "--model", self.path(self.spec["model"])])
                    seconds = time.perf_counter() - started
            finally:
                sys.stdin = saved
        reads_per_window = EPOCH_SAMPLES * 4 // READ_BYTES
        latency = [
            1e3 * (t - feed.times[(k + 1) * reads_per_window - 1]) for k, t in enumerate(sink.times)
        ]
        return {"code": code, "seconds": seconds, "lines": sink.lines(), "latency_ms": latency,
                "window_s": np.diff(sink.times).tolist(), "stderr": err.getvalue()}

    def operations(self, rep: dict) -> int:
        return 1 + self.spec["windows"]

    def expected_lines(self) -> list[str]:
        """decision_line of a batch forward over each window with the
        dequantized int8 model: the stream/batch bitwise contract."""
        _, qmodel, config = quant.load_any_model(self.path(self.spec["model"]))
        params = qmodel.dequantize()
        samples = np.fromfile(self.path(self.spec["feed"]), dtype="<f4").astype(np.float64)
        flat = set(self.spec["flat_windows"])
        lines = []
        for k in range(self.spec["windows"]):
            if k in flat:
                decision = streaming.StageDecision(k, None, None, 0.0)
            else:
                window = samples[k * EPOCH_SAMPLES : (k + 1) * EPOCH_SAMPLES]
                probs, _ = model.forward(params, standardize(window), config, mode="infer")
                decision = streaming.StageDecision(k, SleepStage(int(np.argmax(probs))), probs, 0.0)
            lines.append(streaming.decision_line(decision))
        return lines

    def reference_failures(self, lines: list[str]) -> list[str]:
        """Each scorable line's stage and probabilities against the reference
        forward of the generator's int8 weights on the same window."""
        weights = reference.load_weights(Path(self.path(self.spec["model"])).with_suffix(".npz"))
        feed = np.fromfile(self.path(self.spec["feed"]), dtype="<f4")
        windows = feed[: self.spec["windows"] * EPOCH_SAMPLES].reshape(-1, EPOCH_SAMPLES)
        flat = set(self.spec["flat_windows"])
        scorable = [k for k in range(len(windows)) if k not in flat]
        probs = reference.probabilities(weights, windows[scorable])
        failures = []
        for k, ref, ok in zip(scorable, probs, reference.acceptable(probs)):
            fields = lines[k].split("\t")
            streamed = np.array([float(v) for v in fields[2:]])
            if not ok[STAGE_NAMES.index(fields[1])] or not np.allclose(streamed, ref, rtol=0, atol=PROB_ATOL):
                failures.append(f"window {k} streamed {lines[k]!r}, the reference gives {np.round(ref, 6)}")
        return failures[:3]

    def check(self, reps: list[dict]) -> list[str]:
        failures = []
        expected = self.expected_lines()
        tail = f"{self.spec['windows']} decisions, {self.spec['partial_samples']} samples buffered"
        for i, rep in enumerate(reps):
            lines = rep["lines"]
            unscorable = [k for k, line in enumerate(lines) if line.split("\t")[1:2] == ["unscorable"]]
            if rep["code"] != 0 or len(lines) != self.spec["windows"] or tail not in rep["stderr"]:
                failures.append(f"rep {i}: stream exited {rep['code']} with {len(lines)} lines")
            elif unscorable != self.spec["flat_windows"]:
                failures.append(f"rep {i}: unscorable at {unscorable}, flat windows are "
                                f"{self.spec['flat_windows']}")
            else:
                failures += [f"rep {i}: window {k} streamed {a!r}, batch gives {b!r}"
                             for k, (a, b) in enumerate(zip(lines, expected)) if a != b][:3]
        if not failures:
            failures += self.reference_failures(reps[0]["lines"])
        return failures

    def metrics(self, reps: list[dict]) -> tuple[dict, dict]:
        """The gated timings take the scorable windows only: a flat window
        skips the forward, and its short times would otherwise make up the
        fastest percent."""
        samples = self.spec["windows"] * EPOCH_SAMPLES + self.spec["partial_samples"]
        flat = set(self.spec["flat_windows"])
        # window_s[k - 1] runs from decision line k - 1 to decision line k
        windows = [w for r in reps for k, w in enumerate(r["window_s"], start=1) if k not in flat]
        scored_ms = [v for r in reps for k, v in enumerate(r["latency_ms"]) if k not in flat]
        latency = [v for r in reps for v in r["latency_ms"]]
        spread = spread_metrics(latency)
        named = {
            "stream_samples_per_s": float(np.median([samples / r["seconds"] for r in reps])),
            "stream_latency_p50_ms": spread["latency_p50_ms"],
            "stream_latency_p99_ms": spread["latency_p99_ms"],
            "latency_samples": len(latency),
        }
        return shared_metrics([EPOCH_SAMPLES] * len(windows), windows, scored_ms), named

    def expected_calls(self) -> dict[str, int]:
        scorable = self.spec["windows"] - len(self.spec["flat_windows"])
        return {"cli.stream": 1, "model.forward.infer": scorable, "streaming.predict": scorable}


WORKLOADS = {"train": Train, "score": Score, "stream": Stream}


def timed_reps(run_rep, seconds: float, minimum: int = 1) -> list[dict]:
    """run_rep(i) for i = 0, 1, ... until `seconds` have passed."""
    reps = []
    started = time.perf_counter()
    while len(reps) < minimum or time.perf_counter() - started < seconds:
        reps.append(run_rep(len(reps)))
    return reps


def traced_run(workload: Workload, seconds: float, spans_path: Path) -> tuple[list[dict], dict, list[str]]:
    """Reps alternate untraced and traced, so that drift in machine speed
    affects both alike; the traced ones give the per-layer metrics."""
    config = model.ArchConfig(width_multiplier=1.0)
    tracer = tracing.Tracer(config)

    def run_rep(i: int) -> dict:
        if i % 2 == 0:
            return workload.rep(i)
        tracer.run_id = i
        tracer.install()
        try:
            return workload.rep(i)
        finally:
            tracer.uninstall()

    reps = timed_reps(run_rep, seconds, minimum=2)
    tracer.write(spans_path)
    macs = dict(budget.mac_table(config))
    per_run, failures = [], []
    for run_id in range(1, len(reps), 2):
        spans = tracer.spans(run_id)
        per_run.append(tracing.layer_metrics(spans, macs))
        failures += [f"trace run {run_id}: {f}" for f in tracing.structure_failures(spans)]
        for name, want in workload.expected_calls().items():
            if spans.calls[name] != want:
                failures.append(f"trace run {run_id}: {name} made {spans.calls[name]} calls, expected {want}")
    layer = tracing.median_metrics(per_run)
    layer["trace.overhead_ratio"] = float(
        np.median([r["seconds"] for r in reps[1::2]]) / np.median([r["seconds"] for r in reps[::2]])
    )
    return reps, layer, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())
    base = Path(manifest["dir"])
    kind = WORKLOADS[manifest["workload"]]

    # The warm-up rep is not checked: its checks would only add to set-up
    # time, and the measured reps run the same commands and are checked.
    kind(manifest["warm"], base / "warm").rep(0)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    workload = kind(manifest["main"], base)
    if args.trace:
        reps, metrics, failures = traced_run(workload, args.seconds, Path(args.spans))
        failures = workload.check(reps) + failures
        named = {}
    else:
        reps = timed_reps(workload.rep, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = workload.check(reps)
        metrics, named = workload.metrics(reps)
        metrics["peak_rss_mb"] = named["peak_rss_mb"] = peak_rss_mb
    attempted = sum(workload.operations(r) for r in reps)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "named": named,
        "failures": failures,
        "reps": len(reps),
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
