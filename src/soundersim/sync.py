"""Pulse-per-second trigger scheduling.

Transmitter and receiver each arm on the positive flank of their local
PPS signal and then free-run: a new frame starts every repetition
period.  If one second is an integer multiple of the repetition period,
every PPS flank lands exactly on a frame boundary, so the two devices
may start on *different* flanks and still observe the same alignment --
no communication between them is needed.  A schedule enforces that
property at construction; :func:`receiver_offset` turns the flanks, in
samples, and the timing error into the one number the simulator needs:
where in the transmit frame the receiver's first sample falls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import _is_integer, exact_ratio, frame_length
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
        frame_length(self.rep_period_s, self.sample_period_s, SchedulingError)
        fields = (self.tx_start_flank, self.rx_start_flank, self.timing_error)
        if not all(_is_integer(value) for value in fields):
            raise SchedulingError(
                f"flank indices and timing_error must be integers, got {fields}")
        if self.tx_start_flank < 0 or self.rx_start_flank < 0:
            raise SchedulingError("flank indices must be >= 0")
        if exact_ratio(1.0, self.rep_period_s) is None:
            raise SchedulingError(
                f"rep_period {self.rep_period_s} s does not divide 1 s: "
                "capture would depend on the PPS flanks the devices start on"
            )


def receiver_offset(schedule: PpsSchedule) -> int:
    """Position in the transmit frame of the receiver's first sample.

    The receiver stream is ``frame[(n - offset) mod frame_len]``.  The
    receiver arms ``rx - tx`` flanks after the transmitter, and flanks are
    ``R = 1 s / rep_period`` frames apart, so the offset is
    ``(timing_error - (rx - tx)·R·frame_len) mod frame_len``.
    """
    frame_len = frame_length(schedule.rep_period_s, schedule.sample_period_s, SchedulingError)
    flanks = int(schedule.rx_start_flank) - int(schedule.tx_start_flank)
    late = flanks * exact_ratio(1.0, schedule.rep_period_s) * frame_len
    return (int(schedule.timing_error) - late) % frame_len
