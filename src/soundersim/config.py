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
import math
import numbers
from dataclasses import dataclass, field

from .averager import AveragerConfig
from .errors import ConfigurationError
from .waveform import ZcParams

#: Relative tolerance when deciding whether a float ratio is an integer.
_RATIO_TOL = 1e-9


def _is_integer(value) -> bool:
    """True for integers; floats would be truncated and bools are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def exact_ratio(numerator: float, denominator: float) -> int | None:
    """Return numerator/denominator as an int, or None if not integral."""
    ratio = numerator / denominator
    nearest = round(ratio)
    if nearest < 1 or abs(ratio - nearest) > _RATIO_TOL * max(ratio, 1.0):
        return None
    return nearest


def frame_length(rep_period_s: float, sample_period_s: float,
                 error=ConfigurationError) -> int:
    """Samples per repetition period; raises ``error`` unless both periods
    are positive and the repetition period is a whole number of samples."""
    if rep_period_s <= 0 or sample_period_s <= 0:
        raise error("periods must be positive")
    ratio = exact_ratio(rep_period_s, sample_period_s)
    if ratio is None:
        raise error(
            f"rep_period {rep_period_s} s is not a whole number of "
            f"{sample_period_s} s samples"
        )
    return ratio


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
        frame_len = frame_length(self.rep_period_s, self.sample_period_s)
        if self.center_freq_hz <= 0:
            raise ConfigurationError(
                f"center_freq_hz must be positive, got {self.center_freq_hz}"
            )
        reps = self.train_repetitions
        train = reps * self.signal_len
        if train > frame_len:
            raise ConfigurationError(
                f"repetition train of {reps} x {self.signal_len} samples "
                f"({train}) does not fit in a {frame_len}-sample frame"
            )

    @property
    def frame_len(self) -> int:
        """Samples per trigger period."""
        return frame_length(self.rep_period_s, self.sample_period_s)

    @property
    def skip_len(self) -> int:
        """Samples ignored between the averaging window and the next trigger."""
        return self.frame_len - self.discard_len - self.avg_count * self.signal_len

    @property
    def train_repetitions(self) -> int:
        """Symbol repetitions the transmitter sends per frame.

        The receiver discards ``discard_len`` samples and then averages
        ``avg_count`` symbols, so the train must cover both; the count is
        rounded up to whole symbols.
        """
        need = self.avg_count * self.signal_len + self.discard_len
        return -(-need // self.signal_len)

    def averager_config(self) -> AveragerConfig:
        """The receiver-side subset of this configuration."""
        return AveragerConfig(
            signal_len=self.signal_len,
            discard_len=self.discard_len,
            avg_count=self.avg_count,
            shift_bits=self.shift_bits,
        )


def to_dict(obj) -> dict:
    """A dataclass's fields by name and in order, a nested dataclass as its
    dict: ``dataclasses.asdict`` of a record of scalars, without deep copies."""
    data = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {k: to_dict(v) if hasattr(v, "__dataclass_fields__") else v for k, v in data.items()}


def config_to_dict(cfg: SounderConfig) -> dict:
    """JSON-ready dict; round-trips exactly through config_from_dict."""
    return to_dict(cfg)


def check_field_types(obj) -> None:
    """Reject ``int`` fields that are not ints (bools included), ``float``
    fields that are not finite ints or floats and ``str`` fields that are
    not strings, on a dataclass read from JSON."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and type(value) is not int:
            raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not (type(value) in (int, float)
                                      and -math.inf < value < math.inf):
            raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
        if f.type == "str" and type(value) is not str:
            raise ConfigurationError(f"{f.name} must be a string, got {value!r}")


#: What building a dataclass from a JSON value that does not fit it raises.
MALFORMED = (KeyError, TypeError, IndexError, ValueError, OverflowError,
             ConfigurationError)


def from_json(cls, data: dict, **parsed):
    """Dataclass ``cls`` from a JSON object keyed by its field names, with the
    nested fields in ``parsed`` already built; omitted keys take the defaults,
    unknown keys raise ``TypeError`` and field types are checked."""
    obj = cls(**{**data, **parsed})
    check_field_types(obj)
    return obj


def read_json(path, what: str):
    """The JSON value in ``path``; ``what`` names the file in errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
            raise ConfigurationError(f"{what} file is not valid JSON: {exc}") from exc


def write_json(path, value, indent: int | None = None) -> None:
    """Write ``value`` to ``path`` as JSON text, indented by ``indent``, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(value, indent=indent) + "\n")


def config_from_dict(data: dict) -> SounderConfig:
    """Inverse of :func:`config_to_dict`; field types are checked."""
    try:
        zc = {"zc": from_json(ZcParams, data["zc"])} if "zc" in data else {}
        return from_json(SounderConfig, data, **zc)
    except MALFORMED as exc:
        raise ConfigurationError(f"malformed sounder config: {exc}") from exc


def save_config(path, cfg: SounderConfig) -> None:
    """Write a configuration as JSON."""
    write_json(path, config_to_dict(cfg), indent=2)


def load_config(path) -> SounderConfig:
    """Read a configuration written by :func:`save_config`."""
    return config_from_dict(read_json(path, "config"))
