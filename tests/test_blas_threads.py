"""eval, stream and predict give the same bytes at any OpenBLAS thread count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so each
setting runs in a fresh interpreter.  Every batched forward keeps one BLAS
call per row (the row contract in kernels), which is what makes inference
thread-invariant; train is left out, because its folded weight-gradient
GEMMs still change bits with the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgesleep.epochs import write_store
from edgesleep.model import CHUNK_ROWS, ArchConfig, init_params, save_model

from conftest import make_synth_epochs

SRC = Path(__file__).resolve().parents[1] / "src"
THREADS = ("1", "2")

# Runs eval through the CLI, then writes predict's probabilities over the
# whole store in full bits: the report's rounded figures alone would hide a
# changed last bit.
EVAL_AND_PREDICT = """
import sys
import numpy as np
from edgesleep import cli, epochs, model
store, model_path, prefix = sys.argv[1:]
assert cli.main(["eval", "--store", store, "--model", model_path, "--out-prefix", prefix]) == 0
samples = epochs.read_store(store)["samples"]
params, config = model.load_model(model_path)
np.save(prefix + "_probs.npy", model.predict(params, config, samples, np.arange(len(samples))))
"""


def run(args, threads, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    done = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.fixture(scope="module")
def night(tmp_path_factory):
    out = tmp_path_factory.mktemp("threads")
    records = make_synth_epochs(21, seed=41)
    assert len(records) % CHUNK_ROWS != 0
    write_store(records, out / "night.slpe")
    feed = np.concatenate([records.samples.ravel(), records.samples[0, :1234]])
    return out, feed.astype("<f4").tobytes()


@pytest.mark.parametrize("width", [1.0, 0.25])
def test_eval_stream_and_predict_bytes_do_not_depend_on_the_thread_count(night, width):
    out, feed = night
    config = ArchConfig(width_multiplier=width)
    model_path = out / f"model{width}.slpm"
    save_model(init_params(config, 42), config, model_path)
    outputs = {}
    for threads in THREADS:
        prefix = out / f"w{width}_t{threads}"
        stdout = run(["-c", EVAL_AND_PREDICT, str(out / "night.slpe"), str(model_path), str(prefix)],
                     threads)
        files = {p.name[len(prefix.name):]: p.read_bytes() for p in out.glob(prefix.name + "*")}
        assert len(files) == 4  # the report, its CSV, the counts CSV and the probabilities
        streamed = run(["-m", "edgesleep.cli", "stream", "--model", str(model_path)], threads, feed)
        assert streamed.count(b"\n") == 21
        outputs[threads] = (stdout, files, streamed)
    first = outputs[THREADS[0]]
    for threads in THREADS[1:]:
        assert outputs[threads] == first, threads
