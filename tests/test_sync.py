"""PPS trigger scheduling and flank independence."""

import numpy as np
import pytest

from soundersim.errors import SchedulingError
from soundersim.sync import PpsSchedule, receiver_offset


def test_flank_independence_examples():
    # 200, 1 and 100,000 frames per second: every PPS flank is a frame boundary.
    for rep in (5e-3, 1.0, 1e-5):
        sched = PpsSchedule(rep_period_s=rep, sample_period_s=rep / 100,
                            tx_start_flank=1, rx_start_flank=4)
        assert receiver_offset(sched) == 0


def test_frame_len_default_config():
    # The offset wraps at the default config's 2.5 M-sample frame.
    for error, offset in ((2_500_000, 0), (2_500_001, 1), (-1, 2_499_999)):
        sched = PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9, timing_error=error)
        assert receiver_offset(sched) == offset


def test_offset_vanishes_for_any_flank_pair():
    sched = PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9,
                        tx_start_flank=0, rx_start_flank=3)
    assert receiver_offset(sched) == 0


def test_offset_is_timing_error():
    sched = PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9,
                        tx_start_flank=2, rx_start_flank=2, timing_error=17)
    assert receiver_offset(sched) == 17


def test_negative_timing_error_wraps():
    sched = PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9,
                        timing_error=-4)
    assert receiver_offset(sched) == 2_500_000 - 4


@pytest.mark.parametrize("rep_period_s", [3e-3, 0.4, 7e-4])
def test_dependent_period_is_rejected(rep_period_s):
    with pytest.raises(SchedulingError, match="does not divide 1 s"):
        PpsSchedule(rep_period_s=rep_period_s, sample_period_s=rep_period_s / 100)


def test_schedule_validation():
    with pytest.raises(SchedulingError):
        PpsSchedule(rep_period_s=0.0, sample_period_s=2e-9)
    with pytest.raises(SchedulingError):
        PpsSchedule(rep_period_s=5e-3, sample_period_s=-1e-9)
    with pytest.raises(SchedulingError):
        PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9, tx_start_flank=-1)
    with pytest.raises(SchedulingError):
        # 5 ms is not a whole number of 0.7 ns samples.
        PpsSchedule(rep_period_s=5e-3, sample_period_s=0.7e-9)


@pytest.mark.parametrize("value", [1.5, 2.0, 0.5, True, False])
@pytest.mark.parametrize("field", ["tx_start_flank", "rx_start_flank", "timing_error"])
def test_non_integer_schedule_fields_are_rejected(field, value):
    # A float would be truncated or fail later inside the campaign, and a
    # bool is not a count.
    with pytest.raises(SchedulingError, match="must be integers"):
        PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9, **{field: value})


def test_numpy_integer_schedule_fields_are_accepted():
    sched = PpsSchedule(rep_period_s=5e-3, sample_period_s=2e-9,
                        tx_start_flank=np.int64(2), rx_start_flank=np.uint8(3),
                        timing_error=np.int32(-4))
    assert receiver_offset(sched) == 2_500_000 - 4


def test_offset_never_depends_on_flanks():
    # For any valid period, all flank pairs give the same offset.
    rng = np.random.default_rng(6)
    for _ in range(20):
        per_second = int(rng.integers(1, 5000))
        rep = 1.0 / per_second
        frame = int(rng.integers(2, 100)) * 2
        sample = rep / frame
        err = int(rng.integers(-frame, frame))
        offsets = set()
        for _ in range(5):
            sched = PpsSchedule(
                rep_period_s=rep, sample_period_s=sample,
                tx_start_flank=int(rng.integers(0, 60)),
                rx_start_flank=int(rng.integers(0, 60)),
                timing_error=err,
            )
            offsets.add(receiver_offset(sched))
        assert offsets == {err % frame}
