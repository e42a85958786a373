"""Pulse-per-second trigger scheduling.

Transmitter and receiver each arm on the positive flank of their local
PPS signal and then free-run: a new frame starts every repetition
period.  If one second is an integer multiple of the repetition period,
every PPS flank lands exactly on a frame boundary, so the two devices
may start on *different* flanks and still observe the same alignment --
no communication between them is needed.  A schedule enforces that
property at construction; :func:`receiver_offset` turns it into the one
number the simulator needs: how far into the transmit frame the
receiver's first sample falls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import exact_ratio
from .errors import SchedulingError


@dataclass(frozen=True)
class PpsSchedule:
    """Start flanks and residual timing error of one sounding run.

    Attributes:
        rep_period_s: frame repetition period (trigger spacing).
        sample_period_s: converter sample period.
        tx_start_flank: PPS flank index on which the transmitter arms.
        rx_start_flank: PPS flank index on which the receiver arms.
        timing_error: residual misalignment in whole samples; positive
            means the signal reaches the receiver late.
    """

    rep_period_s: float
    sample_period_s: float
    tx_start_flank: int = 0
    rx_start_flank: int = 0
    timing_error: int = 0

    def __post_init__(self) -> None:
        if self.rep_period_s <= 0 or self.sample_period_s <= 0:
            raise SchedulingError("periods must be positive")
        if self.tx_start_flank < 0 or self.rx_start_flank < 0:
            raise SchedulingError("flank indices must be >= 0")
        if exact_ratio(self.rep_period_s, self.sample_period_s) is None:
            raise SchedulingError(
                f"rep_period {self.rep_period_s} s is not a whole number of "
                f"{self.sample_period_s} s samples"
            )
        if exact_ratio(1.0, self.rep_period_s) is None:
            raise SchedulingError(
                f"rep_period {self.rep_period_s} s does not divide 1 s: "
                "capture would depend on the PPS flanks the devices start on"
            )

    @property
    def frame_len(self) -> int:
        """Samples per repetition period."""
        ratio = exact_ratio(self.rep_period_s, self.sample_period_s)
        assert ratio is not None  # enforced at construction
        return ratio


def receiver_offset(schedule: PpsSchedule) -> int:
    """Position in the transmit frame of the receiver's first sample.

    The receiver stream is ``frame[(n - offset) mod frame_len]``.  A
    schedule is flank-independent by construction, so the flank
    difference contributes a whole number of frames and only the timing
    error survives the modulo.
    """
    return schedule.timing_error % schedule.frame_len
