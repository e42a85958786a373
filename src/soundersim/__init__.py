"""Bit-exact software model of an ultrawideband SDR channel sounder.

The package mirrors the signal path of the instrument: a Zadoff-Chu
OFDM sounding symbol is repeated into a transmit frame, runs through a
tapped-delay-line channel, and is averaged on the receiver by a
bit-exact model of the FPGA select-and-average stage; snapshots land in
a self-describing capture format from which frequency responses,
impulse responses and power delay profiles are estimated.
"""

from .averager import (
    AveragerConfig,
    AveragerState,
    Phase,
    Snapshot,
    run_state_machine,
    select_and_average,
    step_state_machine,
)
from .campaign import (
    Capture,
    read_capture,
    report_reduction,
    run_campaign,
    storage_rate_bytes,
    write_capture,
)
from .channel import (
    ChannelModel,
    ChannelResult,
    Interferer,
    ValidationReport,
    apply_channel,
    channel_digest,
    load_channel,
    propagate_float,
    save_channel,
    validate_config,
)
from .config import SounderConfig, load_config, save_config
from .errors import (
    CaptureFormatError,
    ConfigurationError,
    DegenerateWaveformError,
    SchedulingError,
    SounderError,
    TruncatedStreamError,
    ValidationError,
)
from .estimator import (
    CalibrationProfile,
    FrequencyResponse,
    ImpulseResponse,
    PowerDelayProfile,
    apply_calibration,
    averaging_suppression,
    build_calibration,
    estimate_response,
    load_calibration,
    power_delay_profile,
    read_tap_gains,
    save_calibration,
    to_cir,
)
from .fixedpoint import (
    SAMPLE_DTYPE,
    from_components,
    quantize,
    quantize_clipped,
    shift_right,
    to_float,
)
from .sync import PpsSchedule, check_flank_independence, receiver_offset
from .waveform import (
    SoundingWaveform,
    ZcParams,
    build_sounding_symbol,
    build_tx_frame,
    generate_zc,
    occupied_bins,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
