"""Sleep-stage classification from single-channel EEG, sized for
microcontroller deployment: EDF ingestion, from-scratch CNN-Transformer
training, subject-specific adaptation, int8 quantization, and flash/SRAM
budget verification, plus a real-time streaming classifier."""

from .adapt import fine_tune, split_adapt
from .budget import DeviceProfile, NANO33BLE, check_fit, flash_usage, mac_count, peak_ram
from .edf import EdfError, EdfFile, EdfHeader, RawAnnotation, parse_edf, parse_tal, read_signal
from .epochs import (
    EPOCH_SAMPLES,
    SAMPLE_RATE,
    DISCARD,
    STORE_RECORD,
    SleepStage,
    SubjectNight,
    class_distribution,
    map_label,
    read_store,
    segment_epochs,
    standardize,
    trim_wake,
    write_store,
)
from .metrics import class_metrics, confusion, render_report
from .model import (
    ArchConfig,
    ModelParams,
    forward,
    init_params,
    load_model,
    param_count,
    predict,
    save_model,
)
from .quant import QuantModel, QuantTensor, quantize_model, quantize_tensor
from .streaming import StageDecision, stream_classify
from .training import (
    AdamState,
    FoldPlan,
    TrainConfig,
    adam_step,
    backprop,
    cross_entropy,
    make_folds,
    train_fold,
)

__version__ = "0.1.0"
