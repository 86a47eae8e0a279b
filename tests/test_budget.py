import numpy as np
import pytest

from edgesleep.budget import (
    SRAM_BYTES,
    activation_table,
    check_fit,
    mac_count,
    mac_table,
    peak_ram,
    render_report_kv,
    render_report_text,
)
from edgesleep.model import ArchConfig, ModelFormatError, init_params, read_slpm, save_model
from edgesleep.quant import quantize_model, save_quant_model


# Hand-computed per-layer tables for the default configuration at 4-byte
# activations.  Liveness = input + output + saved residual (when the
# residual is not itself the layer input); feature map is 19*128*4 = 9728 B.
EXPECTED_LIVENESS = {
    "conv1": 3000 * 1 * 4 + 492 * 32 * 4,          # 12000 + 62976 = 74976
    "conv2": 492 * 32 * 4 + 122 * 64 * 4,          # 62976 + 31232 = 94208
    "conv3": 122 * 64 * 4 + 39 * 128 * 4,          # 31232 + 19968 = 51200
    "conv4": 39 * 128 * 4 + 19 * 128 * 4,          # 19968 + 9728 = 29696
    "ln1": 9728 + 9728,                            # 19456
    "attention": 9728 + 9728 + 9728,               # 29184
    "residual_add1": 2 * 9728 + 9728,              # 29184
    "ln2": 9728 + 9728,                            # 19456
    "ffn_dense1": 9728 + 19456 + 9728,             # 38912
    "ffn_dense2": 19456 + 9728 + 9728,             # 38912
    "residual_add2": 2 * 9728 + 9728,              # 29184
    "classifier": 9728 + 5 * 4,                    # 9748
}

EXPECTED_MACS = {
    "conv1": 492 * 50 * 1 * 32,        # 787200
    "conv2": 122 * 8 * 32 * 64,        # 1998848
    "conv3": 39 * 8 * 64 * 128,        # 2555904
    "conv4": 19 * 3 * 128 * 128,       # 933888
    "attention": 4 * 19 * 128 * 128 + 2 * 19 * 19 * 128,  # 1337600
    "ffn_dense1": 19 * 128 * 256,      # 622592
    "ffn_dense2": 19 * 256 * 128,      # 622592
    "classifier": 2432 * 5,            # 12160
}


class TestPeakRam:
    def test_table_matches_hand_computation(self):
        table = {l.name: l.live_bytes for l in activation_table(ArchConfig())}
        assert table == EXPECTED_LIVENESS

    def test_peak_is_conv2(self):
        assert peak_ram(ArchConfig()) == 94_208
        assert peak_ram(ArchConfig()) <= SRAM_BYTES

    def test_half_width_halves_peak(self):
        assert peak_ram(ArchConfig(width_multiplier=0.5)) == 94_208 // 2

    def test_liveness_definition_identity_layer(self):
        from edgesleep.budget import LayerLiveness

        layer = LayerLiveness("identity", 37 * 4, 37 * 4, 0)
        assert layer.live_bytes == 2 * 37 * 4


class TestMacs:
    def test_table_matches_hand_computation(self):
        table = dict(mac_table(ArchConfig()))
        assert table == EXPECTED_MACS

    def test_total(self):
        assert mac_count(ArchConfig()) == sum(EXPECTED_MACS.values()) == 8_870_784

    def test_monotone_in_width(self):
        values = [mac_count(ArchConfig(width_multiplier=m)) for m in (0.25, 0.5, 1.0)]
        assert values == sorted(values)
        peaks = [peak_ram(ArchConfig(width_multiplier=m)) for m in (0.25, 0.5, 1.0)]
        assert peaks == sorted(peaks)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("budget_models")
    config = ArchConfig()
    params = init_params(config, 60).astype(np.float32)
    float_path = tmp / "default_f32.slpm"
    quant_path = tmp / "default_int8.slpm"
    save_model(params, config, float_path)
    save_quant_model(
        quantize_model(params, config), quant_path
    )
    return config, float_path, quant_path


class TestCheckFit:
    def test_float_model_fails_flash_passes_ram(self, model_files):
        config, float_path, _ = model_files
        report = check_fit(float_path, config)
        assert report.flash_used == float_path.stat().st_size > 1_048_576
        assert not report.fits_flash
        assert report.fits_ram
        assert report.realtime_ok
        assert report.latency_bound_s == pytest.approx(8_870_784 / 64e6)

    def test_quant_model_fits_everything(self, model_files):
        config, _, quant_path = model_files
        report = check_fit(quant_path, config)
        assert report.fits_flash and report.fits_ram and report.realtime_ok
        assert report.latency_bound_s < 30.0
        assert report.flash_headroom > 0.5

    def test_flash_usage_monotone_in_width(self, tmp_path):
        sizes = []
        for m in (0.25, 0.5, 1.0):
            config = ArchConfig(width_multiplier=m)
            path = tmp_path / f"w{m}.slpm"
            save_model(init_params(config, 62).astype(np.float32), config, path)
            sizes.append(check_fit(path, read_slpm(path)[0]).flash_used)
        assert sizes == sorted(sizes)

    def test_invalid_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.slpm"
        path.write_bytes(b"garbage")
        with pytest.raises(ModelFormatError):
            read_slpm(path)

    def test_renderings(self, model_files):
        config, _, quant_path = model_files
        report = check_fit(quant_path, config)
        text = render_report_text(report)
        assert "fits" in text and "activations only" in text
        kv = dict(
            line.split("=", 1) for line in render_report_kv(report).strip().splitlines()
        )
        assert kv["fits_flash"] == "true"
        assert int(kv["macs"]) == 8_870_784
