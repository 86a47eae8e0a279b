"""Static flash/RAM/compute accounting against the target device, the
Arduino Nano 33 BLE (NANO33BLE).

The RAM model bounds activations only, under a sequential executor: one
layer runs at a time with its input and output live simultaneously and
nothing else retained.  Elementwise activations run in place (fused into
the producing layer); residual adds are explicit two-input layers, and the
saved residual counts as additionally live across the sublayers it spans
unless it is itself an input of the layer.  Code, stack, and runtime
overhead are out of scope and the report says so.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .epochs import EPOCH_SAMPLES
from .model import ArchConfig

EPOCH_DEADLINE_SECONDS = 30.0
ACTIVATION_BYTES = 4  # float32 activations


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    flash_bytes: int
    sram_bytes: int
    clock_hz: int


# Target board: 64 MHz 32-bit ARM MCU with 1 MB flash and 256 KB SRAM.
NANO33BLE = DeviceProfile(
    name="nano33ble", flash_bytes=1_048_576, sram_bytes=262_144, clock_hz=64_000_000
)


@dataclass(frozen=True)
class LayerLiveness:
    name: str
    input_bytes: int
    output_bytes: int
    extra_bytes: int  # saved residual live across this layer

    @property
    def live_bytes(self) -> int:
        return self.input_bytes + self.output_bytes + self.extra_bytes


@dataclass(frozen=True)
class BudgetReport:
    profile: DeviceProfile
    flash_used: int
    peak_ram: int
    macs: int
    latency_bound_s: float

    @property
    def fits_flash(self) -> bool:
        return self.flash_used <= self.profile.flash_bytes

    @property
    def fits_ram(self) -> bool:
        return self.peak_ram <= self.profile.sram_bytes

    @property
    def flash_headroom(self) -> float:
        return 1.0 - self.flash_used / self.profile.flash_bytes

    @property
    def ram_headroom(self) -> float:
        return 1.0 - self.peak_ram / self.profile.sram_bytes

    @property
    def realtime_ok(self) -> bool:
        return self.latency_bound_s < EPOCH_DEADLINE_SECONDS


def activation_table(config: ArchConfig) -> list[LayerLiveness]:
    """Per-layer liveness terms of one forward pass."""
    table: list[LayerLiveness] = []
    length, channels = EPOCH_SAMPLES, 1
    for i, ((k, stride, cout), out_len) in enumerate(
        zip(config.scaled_conv_table, config.conv_lengths()), start=1
    ):
        table.append(
            LayerLiveness(
                name=f"conv{i}",
                input_bytes=length * channels * ACTIVATION_BYTES,
                output_bytes=out_len * cout * ACTIVATION_BYTES,
                extra_bytes=0,
            )
        )
        length, channels = out_len, cout

    feat = config.feature_len * config.scaled_d_model * ACTIVATION_BYTES
    hidden = config.feature_len * config.scaled_ffn_dim * ACTIVATION_BYTES
    classes = config.n_classes * ACTIVATION_BYTES
    table.extend(
        [
            # norm input is the residual itself: no extra term
            LayerLiveness("ln1", feat, feat, 0),
            LayerLiveness("attention", feat, feat, feat),
            LayerLiveness("residual_add1", 2 * feat, feat, 0),
            LayerLiveness("ln2", feat, feat, 0),
            LayerLiveness("ffn_dense1", feat, hidden, feat),
            LayerLiveness("ffn_dense2", hidden, feat, feat),
            LayerLiveness("residual_add2", 2 * feat, feat, 0),
            LayerLiveness("classifier", feat, classes, 0),
        ]
    )
    return table


def peak_ram(config: ArchConfig) -> int:
    """Largest simultaneous activation footprint across the layer sequence."""
    return max(layer.live_bytes for layer in activation_table(config))


def mac_table(config: ArchConfig) -> list[tuple[str, int]]:
    """Multiply-accumulate counts per layer.

    conv: Lout*K*Cin*Cout; dense: N*M per position; attention:
    4*T*D^2 projections plus 2*T^2*D for scores and context.  Normalization
    and elementwise terms are not MACs and are excluded.
    """
    table: list[tuple[str, int]] = []
    channels = 1
    for i, ((k, _, cout), out_len) in enumerate(
        zip(config.scaled_conv_table, config.conv_lengths()), start=1
    ):
        table.append((f"conv{i}", out_len * k * channels * cout))
        channels = cout
    t, d, f = config.feature_len, config.scaled_d_model, config.scaled_ffn_dim
    table.append(("attention", 4 * t * d * d + 2 * t * t * d))
    table.append(("ffn_dense1", t * d * f))
    table.append(("ffn_dense2", t * f * d))
    table.append(("classifier", config.flat_dim * config.n_classes))
    return table


def mac_count(config: ArchConfig) -> int:
    return sum(macs for _, macs in mac_table(config))


def check_fit(model_file: str | Path, config: ArchConfig, profile: DeviceProfile) -> BudgetReport:
    """Combine flash, peak activation RAM, and a naive 1-MAC-per-cycle latency
    bound into one feasibility report against the profile.

    config is the model file's, as its caller read it with model.read_slpm,
    which checked the file; flash is the file's byte size, so the file is
    not read again."""
    macs = mac_count(config)
    return BudgetReport(
        profile=profile,
        flash_used=os.path.getsize(model_file),
        peak_ram=peak_ram(config),
        macs=macs,
        latency_bound_s=macs / profile.clock_hz,
    )


def render_report_text(report: BudgetReport) -> str:
    p = report.profile
    lines = [
        f"device profile     {p.name} (flash {p.flash_bytes} B, sram {p.sram_bytes} B, "
        f"clock {p.clock_hz} Hz)",
        f"model flash        {report.flash_used} B "
        f"-> {'fits' if report.fits_flash else 'DOES NOT FIT'} "
        f"(headroom {report.flash_headroom:+.1%})",
        f"peak activation    {report.peak_ram} B "
        f"-> {'fits' if report.fits_ram else 'DOES NOT FIT'} "
        f"(headroom {report.ram_headroom:+.1%})",
        f"compute            {report.macs} MACs; latency bound "
        f"{report.latency_bound_s:.4f} s at 1 MAC/cycle "
        f"-> {'meets' if report.realtime_ok else 'MISSES'} the 30 s epoch deadline",
        "note: RAM bound covers activations only (code/stack/runtime excluded)",
    ]
    return "\n".join(lines) + "\n"


def render_report_kv(report: BudgetReport) -> str:
    pairs = [
        ("profile", report.profile.name),
        ("flash_capacity_bytes", report.profile.flash_bytes),
        ("sram_capacity_bytes", report.profile.sram_bytes),
        ("clock_hz", report.profile.clock_hz),
        ("flash_used_bytes", report.flash_used),
        ("peak_activation_bytes", report.peak_ram),
        ("macs", report.macs),
        ("latency_bound_s", f"{report.latency_bound_s:.9f}"),
        ("fits_flash", str(report.fits_flash).lower()),
        ("fits_ram", str(report.fits_ram).lower()),
        ("realtime_ok", str(report.realtime_ok).lower()),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"
