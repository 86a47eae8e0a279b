"""Acceptance gate: one test per shipping criterion, each printing a
PASS line (run with -s or -rA to see them).

Criterion 10 (full-scale dataset reproduction) needs the real recordings
and hours of compute; here we verify the documented reproduction script
ships, and exclude the run itself from the default suite.
"""

import time
from pathlib import Path

import numpy as np

from edgesleep import epochs as ep
from edgesleep.edf import RawAnnotation, parse_edf, parse_tal
from edgesleep.metrics import class_metrics
from edgesleep.model import ArchConfig, forward, init_params, param_count, save_model
from edgesleep.quant import quantize_model, save_quant_model
from edgesleep.streaming import make_predictor, stream_classify
from edgesleep.budget import check_fit, mac_table, peak_ram, activation_table
from edgesleep.training import TrainConfig, backprop, cross_entropy, fit

from conftest import OVERFIT_SEED
from edf_fixtures import SignalSpec, bookkeeping_tal, build_edf, tal
from oracles import (
    metrics_reference,
    random_annotation_sequence,
    reference_pipeline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


class TestCriterion1GradientCorrectness:
    def test_full_model_gradients_match_finite_differences(self):
        started = time.perf_counter()
        config = ArchConfig(width_multiplier=0.25)
        params = init_params(config, 101)
        rng = np.random.default_rng(102)
        x = ep.standardize(rng.normal(size=3000))
        label = 3
        _, cache = forward(params, x, config, mode="train")
        grads = backprop(params, config, cache, label)

        names = params.names()
        sizes = np.array([params[n].size for n in names], dtype=np.float64)
        weights = sizes / sizes.sum()
        h = 1e-4

        def loss_and_masks():
            probs, c = forward(params, x, config, mode="train")
            masks = [a > 0 for a in c.acts[1:]] + [c.ffn_hidden > 0]
            return cross_entropy(probs, label), masks

        checked = 0
        skipped_kinks = 0
        worst = 0.0
        while checked < 200:
            name = names[rng.choice(len(names), p=weights)]
            tensor = params[name]
            idx = np.unravel_index(rng.integers(tensor.size), tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + h
            loss_plus, masks_plus = loss_and_masks()
            tensor[idx] = orig - h
            loss_minus, masks_minus = loss_and_masks()
            tensor[idx] = orig
            if any(
                not np.array_equal(a, b) for a, b in zip(masks_plus, masks_minus)
            ):
                # the +-h interval straddles a ReLU kink: central differences
                # are not a derivative oracle there; resample
                skipped_kinks += 1
                assert skipped_kinks < 100
                continue
            numeric = (loss_plus - loss_minus) / (2 * h)
            analytic = float(grads[name][idx])
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}{idx}: fd={numeric} analytic={analytic} rel={rel}"
            checked += 1

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report(
            1,
            f"{checked} coordinates, worst rel err {worst:.2e}, "
            f"{skipped_kinks} kink resamples, {elapsed:.1f}s",
        )


class TestCriterion2ArchitectureFidelity:
    def test_shape_chain_and_parameter_count(self):
        config = ArchConfig()
        params = init_params(config, 103)
        x = ep.standardize(np.random.default_rng(104).normal(size=3000))
        probs, cache = forward(params, x, config, mode="train")
        chain = [a.shape for a in cache.acts]
        assert chain == [(3000, 1), (492, 32), (122, 64), (39, 128), (19, 128)]
        assert probs.shape == (5,)
        assert param_count(params) == 277_669
        report(2, "chain (3000,1)->(492,32)->(122,64)->(39,128)->(19,128)->(5,), 277669 params")


class TestCriterion3OverfitCapacity:
    def test_capacity_and_determinism(self, overfit_run):
        history = overfit_run["history"]
        accs = [h.val_acc for h in history]
        assert len(history) <= 50
        assert max(accs) >= 0.95
        first = next(i for i, a in enumerate(accs) if a >= 0.95)
        # loss monotonicity on the overfit task
        assert history[-1].train_loss < 0.2 * history[0].train_loss

        # determinism: fresh 2-epoch reruns agree with each other and with
        # the long run's prefix, bit for bit
        config, data = overfit_run["config"], overfit_run["data"]
        tc2 = TrainConfig(max_epochs=2, seed=OVERFIT_SEED)
        rows = np.arange(len(data))
        _, h_a = fit(init_params(config, OVERFIT_SEED), config, data, rows, rows, tc2)
        _, h_b = fit(init_params(config, OVERFIT_SEED), config, data, rows, rows, tc2)
        assert h_a == h_b == history[:2]
        assert overfit_run["seconds"] < 300.0
        report(
            3,
            f"train acc {max(accs):.3f} (>=0.95 at epoch {first}), "
            f"deterministic, {overfit_run['seconds']:.0f}s",
        )


class TestCriterion4MetricsOracle:
    def test_hundred_random_matrices(self):
        rng = np.random.default_rng(105)
        for _ in range(100):
            cm = rng.integers(0, 200, size=(5, 5)).astype(np.int64)
            if cm.sum() == 0:
                cm[0, 0] = 1
            got = class_metrics(cm)
            rows, accuracy = metrics_reference(cm)
            for c, (pr, re, f1) in enumerate(rows):
                assert got.precision[c] == pr
                assert got.recall[c] == re
                assert got.f1[c] == f1
                if pr + re > 0:
                    assert abs(f1 - 2 * pr * re / (pr + re)) <= 1e-12
            assert got.accuracy == accuracy
        report(4, "100 random confusion matrices match the brute-force recount")


class TestCriterion5PreprocessingOracle:
    def test_fifty_random_annotation_sequences(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            triples, total_seconds = random_annotation_sequence(rng)
            samples = np.random.default_rng(rng.integers(2**31)).normal(
                size=total_seconds * 100
            )
            annotations = [RawAnnotation(o, d, t) for o, d, t in triples]
            night = ep.segment_epochs(samples, annotations)
            if len(night.epochs):
                night = ep.trim_wake(night)
            got = [(e.epoch_index, int(e.stage)) for e in night.epochs]
            assert got == reference_pipeline(triples)
        report(5, "50 random annotation sequences match the brute-force filter")


class TestCriterion6ParserRoundTrip:
    def test_edf_round_trip_and_tal_decoding(self):
        rng = np.random.default_rng(107)
        for signals, records in (((1, 16), 2), ((2, 64), 3), ((3, 7), 5)):
            n_signals, spr = signals
            specs = []
            payload = {}
            for i in range(n_signals):
                data = rng.integers(-2048, 2048, size=records * spr, dtype=np.int16)
                payload[i] = data
                specs.append(
                    SignalSpec(label=f"chan {i}", samples_per_record=spr, data=data)
                )
            edf = parse_edf(build_edf(specs, n_records=records))
            for i in range(n_signals):
                assert np.array_equal(edf.read_digital(f"chan {i}"), payload[i])

        decoded = parse_tal(
            bookkeeping_tal(0)
            + tal(0, 30, "Sleep stage W")
            + tal(120, None, "Sleep stage 2")
            + tal(630, 90, "Sleep stage R")
        )
        assert [(a.onset, a.duration, a.text) for a in decoded] == [
            (0.0, 30.0, "Sleep stage W"),
            (120.0, 0.0, "Sleep stage 2"),
            (630.0, 90.0, "Sleep stage R"),
        ]
        report(6, "synthetic EDFs round-trip bit-exactly; TAL fixtures decode")


class TestCriterion7Quantization:
    def test_error_bound_size_and_agreement(self, overfit_run, tmp_path):
        params32 = overfit_run["params"].astype(np.float32)
        config = overfit_run["config"]
        qm = quantize_model(params32, config)
        for name, qt in qm.quantized.items():
            err = np.abs(
                qt.dequantize().astype(np.float64) - params32[name].astype(np.float64)
            )
            assert err.max() <= qt.scale / 2 + 1e-9, name

        default_config = ArchConfig()
        default_params = init_params(default_config, 108).astype(np.float32)
        float_path = tmp_path / "default.slpm"
        quant_path = tmp_path / "default_int8.slpm"
        save_model(default_params, default_config, float_path)
        save_quant_model(
            quantize_model(default_params, default_config),
            quant_path,
        )
        quant_size = quant_path.stat().st_size
        float_size = float_path.stat().st_size
        assert quant_size < 300_000
        assert float_size > 1_048_576  # ~1.11 MB at 32-bit

        agree = 0
        for e in overfit_run["data"]:
            x = ep.standardize(e.samples)
            fp, _ = forward(params32, x, config)
            agree += int(np.argmax(fp) == np.argmax(forward(qm.dequantize(), x, config)[0]))
        agreement = agree / len(overfit_run["data"])
        assert agreement >= 0.95
        report(
            7,
            f"error bound holds, int8 file {quant_size} B (<300 KB), "
            f"argmax agreement {agreement:.3f}",
        )


class TestCriterion8Budget:
    def test_fixture_tables_and_flash_narrative(self, tmp_path):
        config = ArchConfig()
        table = {l.name: l.live_bytes for l in activation_table(config)}
        assert table["conv2"] == 94_208
        assert peak_ram(config) == 94_208
        assert dict(mac_table(config))["conv1"] == 787_200

        params = init_params(config, 109).astype(np.float32)
        float_path = tmp_path / "f32.slpm"
        quant_path = tmp_path / "int8.slpm"
        save_model(params, config, float_path)
        save_quant_model(
            quantize_model(params, config), quant_path
        )
        float_report = check_fit(float_path, config)
        quant_report = check_fit(quant_path, config)
        assert not float_report.fits_flash and float_report.fits_ram
        assert quant_report.fits_flash and quant_report.fits_ram
        assert quant_report.latency_bound_s < 30.0
        report(
            8,
            f"peak RAM 94208 B, conv1 787200 MACs; 32-bit {float_report.flash_used} B "
            f"fails 1 MB flash, int8 {quant_report.flash_used} B fits",
        )


class TestCriterion9StreamingEquivalence:
    def test_replayed_store_matches_batch_bitwise(self, overfit_run, tmp_path):
        params32 = overfit_run["params"].astype(np.float32)
        config = overfit_run["config"]
        store_path = tmp_path / "replay.slpe"
        ep.write_store(overfit_run["data"][:40], store_path)
        stored = ep.read_store(store_path)

        batch = []
        for e in stored:
            probs, _ = forward(params32, ep.standardize(e.samples), config)
            batch.append(probs)

        decisions = []
        replay = np.concatenate([e.samples for e in stored])
        predict = make_predictor(params32, config)
        count, leftover = stream_classify([replay], predict, decisions.append)
        assert count == len(stored) and leftover == 0
        for d, expected in zip(decisions, batch):
            assert np.array_equal(d.probs, expected)
        report(9, f"{count} streamed decisions equal batch inference bit-for-bit")


class TestCriterion10FullScaleReproduction:
    def test_reproduction_script_ships(self):
        script = REPO_ROOT / "scripts" / "reproduce.py"
        readme = (REPO_ROOT / "README.md").read_text()
        assert script.exists()
        text = script.read_text()
        assert "148471" in text.replace(",", "").replace("_", "")
        assert "reproduce" in readme
        report(
            10,
            "full-scale reproduction script ships (real dataset + hours of "
            "training; excluded from this suite by design)",
        )
