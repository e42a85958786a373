"""Sounder configuration.

One :class:`SounderConfig` captures every parameter of a sounding run:
waveform geometry, receiver averaging, trigger timing and the RF-side
bookkeeping values (carrier, TX power) that are recorded with captures
but do not affect the baseband math.  Defaults are the instrument's
standard ultrawideband operating point: 500 MS/s complex sampling, a
1024-sample symbol with 813 occupied subcarriers, 64-fold averaging and
a 5 ms trigger period.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, asdict

from .averager import AveragerConfig
from .errors import ConfigurationError
from .sync import _exact_ratio
from .waveform import ZcParams, train_repetitions


@dataclass(frozen=True)
class SounderConfig:
    """Complete parameter set of one sounding run.

    Attributes:
        signal_len: samples per sounding symbol (DFT length).
        discard_len: samples discarded after each trigger.
        avg_count: symbols averaged per snapshot.
        shift_bits: pre-sum right shift of the averager.
        rep_period_s: trigger (snapshot) period in seconds.
        sample_period_s: converter sample period in seconds.
        center_freq_hz: RF carrier; recorded, not simulated.
        tx_power_dbm: transmit power; recorded, not simulated.
        backoff: peak I/Q amplitude of the symbol, fraction of full scale.
        zc: Zadoff-Chu sequence parameters (length = occupied bins).
        num_snapshots: snapshots per campaign.
    """

    signal_len: int = 1024
    discard_len: int = 2048
    avg_count: int = 64
    shift_bits: int = 6
    rep_period_s: float = 5e-3
    sample_period_s: float = 2e-9
    center_freq_hz: float = 5.725e9
    tx_power_dbm: float = 14.0
    backoff: float = 0.5
    zc: ZcParams = field(default_factory=ZcParams)
    num_snapshots: int = 1

    def __post_init__(self) -> None:
        # Averager constraints (even lengths, avg_count <= 2**shift_bits).
        self.averager_config()
        if not 0.0 < self.backoff <= 1.0:
            raise ConfigurationError(f"backoff must be in (0, 1], got {self.backoff}")
        if self.zc.length > self.signal_len:
            raise ConfigurationError(
                f"zc.length {self.zc.length} exceeds signal_len {self.signal_len}"
            )
        if self.num_snapshots < 0:
            raise ConfigurationError(
                f"num_snapshots must be >= 0, got {self.num_snapshots}"
            )
        if self.rep_period_s <= 0 or self.sample_period_s <= 0:
            raise ConfigurationError("periods must be positive")
        if self.center_freq_hz <= 0:
            raise ConfigurationError(
                f"center_freq_hz must be positive, got {self.center_freq_hz}"
            )
        if _exact_ratio(self.rep_period_s, self.sample_period_s) is None:
            raise ConfigurationError(
                f"rep_period {self.rep_period_s} s is not a whole number of "
                f"{self.sample_period_s} s samples"
            )
        window = self.discard_len + self.avg_count * self.signal_len
        if self.frame_len < window:
            raise ConfigurationError(
                f"frame of {self.frame_len} samples cannot hold discard "
                f"{self.discard_len} + {self.avg_count} x {self.signal_len} averaging window"
            )

    @property
    def frame_len(self) -> int:
        """Samples per trigger period."""
        ratio = _exact_ratio(self.rep_period_s, self.sample_period_s)
        assert ratio is not None  # enforced at construction
        return ratio

    @property
    def skip_len(self) -> int:
        """Samples ignored between the averaging window and the next trigger."""
        return self.frame_len - self.discard_len - self.avg_count * self.signal_len

    @property
    def train_repetitions(self) -> int:
        """Symbol repetitions the transmitter sends per frame."""
        return train_repetitions(self)

    def averager_config(self) -> AveragerConfig:
        """The receiver-side subset of this configuration."""
        return AveragerConfig(
            signal_len=self.signal_len,
            discard_len=self.discard_len,
            avg_count=self.avg_count,
            shift_bits=self.shift_bits,
        )


def config_to_dict(cfg: SounderConfig) -> dict:
    """JSON-ready dict; round-trips exactly through config_from_dict."""
    return asdict(cfg)


def config_from_dict(data: dict) -> SounderConfig:
    """Inverse of :func:`config_to_dict`; integer fields must hold ints."""
    try:
        fields = dict(data)
        zc = fields.pop("zc", None)
        if zc is not None:
            fields["zc"] = ZcParams(length=zc["length"], root=zc["root"])
        cfg = SounderConfig(**fields)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed sounder config: {exc}") from exc
    for params in (cfg, cfg.zc):
        for f in dataclasses.fields(params):
            value = getattr(params, f.name)
            if f.type == "int" and type(value) is not int:
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
    return cfg


def save_config(path, cfg: SounderConfig) -> None:
    """Write a configuration as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path) -> SounderConfig:
    """Read a configuration written by :func:`save_config`."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data)
