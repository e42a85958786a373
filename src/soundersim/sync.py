"""Pulse-per-second trigger scheduling.

Transmitter and receiver each arm on the positive flank of their local
PPS signal and then free-run: a new frame starts every repetition
period.  If one second is an integer multiple of the repetition period,
every PPS flank lands exactly on a frame boundary, so the two devices
may start on *different* flanks and still observe the same alignment --
no communication between them is needed.  This module checks that
property and converts a schedule into the one number the simulator
needs: how far into the transmit frame the receiver's first sample
falls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchedulingError

#: Relative tolerance when deciding whether a float ratio is an integer.
_RATIO_TOL = 1e-9


def _exact_ratio(numerator: float, denominator: float) -> int | None:
    """Return numerator/denominator as an int, or None if not integral."""
    ratio = numerator / denominator
    nearest = round(ratio)
    if nearest < 1 or abs(ratio - nearest) > _RATIO_TOL * max(ratio, 1.0):
        return None
    return nearest


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
        if _exact_ratio(self.rep_period_s, self.sample_period_s) is None:
            raise SchedulingError(
                f"rep_period {self.rep_period_s} s is not a whole number of "
                f"{self.sample_period_s} s samples"
            )

    @property
    def frame_len(self) -> int:
        """Samples per repetition period."""
        ratio = _exact_ratio(self.rep_period_s, self.sample_period_s)
        assert ratio is not None  # enforced at construction
        return ratio


def check_flank_independence(rep_period_s: float) -> tuple[bool, int | None]:
    """Check whether capture alignment is independent of start flanks.

    One second must be an integer multiple of the repetition period so
    that every PPS flank coincides with a frame boundary.

    Returns:
        ``(independent, snapshots_per_second)``; the rate is ``None``
        when the property does not hold.
    """
    per_second = _exact_ratio(1.0, rep_period_s)
    if per_second is None:
        return False, None
    return True, per_second


def receiver_offset(schedule: PpsSchedule) -> int:
    """Position in the transmit frame of the receiver's first sample.

    The receiver stream is ``frame[(n - offset) mod frame_len]``.  With
    flank-independent scheduling the flank difference contributes a
    whole number of frames, so only the timing error survives the
    modulo.

    Raises:
        SchedulingError: if one second is not an integer multiple of
            the repetition period -- the alignment would then depend on
            which flank each device happened to catch.
    """
    independent, _ = check_flank_independence(schedule.rep_period_s)
    if not independent:
        raise SchedulingError(
            f"rep_period {schedule.rep_period_s} s does not divide 1 s: "
            "capture would depend on the PPS flanks the devices start on"
        )
    return schedule.timing_error % schedule.frame_len
