"""Bit-exact software model of an ultrawideband SDR channel sounder.

The package mirrors the signal path of the instrument: a Zadoff-Chu
OFDM sounding symbol is repeated into a transmit frame, runs through a
tapped-delay-line channel, and is averaged on the receiver by a
bit-exact model of the FPGA select-and-average stage; snapshots land in
a self-describing capture format from which frequency responses,
impulse responses and power delay profiles are estimated.
"""

from .averager import AveragerConfig, Snapshot, select_and_average
from .campaign import run_campaign
from .channel import ChannelModel
from .config import SounderConfig
from .estimator import estimate_response, power_delay_profile, read_tap_gains, to_cir
from .fixedpoint import from_components
from .waveform import build_sounding_symbol

__version__ = "0.1.0"

__all__ = [
    "AveragerConfig", "ChannelModel", "Snapshot", "SounderConfig",
    "build_sounding_symbol", "estimate_response", "from_components",
    "power_delay_profile", "read_tap_gains", "run_campaign",
    "select_and_average", "to_cir",
]
