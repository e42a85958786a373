"""Bit-exact model of the on-FPGA select-and-average stage.

Per trigger the receive stream is cut into a discard region (transient
settling plus propagation delay), an averaging window of ``avg_count``
whole symbols, and a skip region until the next trigger.  Each sample
inside the averaging window is arithmetically right-shifted by
``shift_bits`` and the shifted symbols are summed element-wise into one
accumulated symbol.  Because ``avg_count <= 2**shift_bits``, the sum of
shifted int16 samples provably fits back into int16, so the accumulator
never widens and never wraps.  The division by the number of symbols is
*not* performed here -- the output is the raw shifted sum, exactly as
stored to disk by the instrument.

Two equivalent implementations are provided:

* :func:`step_state_machine` / :func:`run_state_machine` -- a
  cycle-by-cycle model of the hardware.  The datapath moves two complex
  samples per clock (one 64-bit memory word), walking a five-phase
  sequence per snapshot::

      DISCARD -> IN -> ADD_IN -> ADD_OUT -> SKIP

  IN writes the first shifted symbol into symbol memory, ADD_IN adds
  the next ``avg_count - 2`` shifted symbols into memory, and ADD_OUT
  streams the memory contents plus the final shifted symbol to the
  output.  With ``avg_count == 1`` the memory is bypassed (ADD_OUT
  emits the shifted symbol directly); with ``avg_count == 2`` ADD_IN is
  skipped.

* :func:`select_and_average` -- the vectorized golden model used by the
  simulator, bit-identical to the state machine.  It shifts the window
  where it lies, so the caller's samples are consumed.
  :func:`average_repeated` is its value over a window that repeats one
  symbol, from its value over that symbol alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TruncatedStreamError
from .fixedpoint import SAMPLE_DTYPE

#: One memory word: two complex samples, ((i0, q0), (i1, q1)).
Word = tuple[tuple[int, int], tuple[int, int]]

ZERO_WORD: Word = ((0, 0), (0, 0))


@dataclass(frozen=True)
class AveragerConfig:
    """Static configuration of the select-and-average stage.

    Attributes:
        signal_len: samples per symbol; even, since the datapath moves
            two samples per cycle.
        discard_len: samples dropped after the trigger before averaging
            starts; even and >= 0.
        avg_count: symbols summed per snapshot (>= 1).
        shift_bits: right shift applied to every sample before summing.
            ``avg_count <= 2**shift_bits`` keeps the int16 sum exact.
    """

    signal_len: int
    discard_len: int
    avg_count: int
    shift_bits: int

    def __post_init__(self) -> None:
        if self.signal_len < 2 or self.signal_len % 2:
            raise ConfigurationError(
                f"signal_len must be even and >= 2, got {self.signal_len}"
            )
        if self.discard_len < 0 or self.discard_len % 2:
            raise ConfigurationError(
                f"discard_len must be even and >= 0, got {self.discard_len}"
            )
        if self.avg_count < 1:
            raise ConfigurationError(f"avg_count must be >= 1, got {self.avg_count}")
        if not 0 <= self.shift_bits <= 15:
            raise ConfigurationError(
                f"shift_bits must be in [0, 15], got {self.shift_bits}"
            )
        if self.avg_count > 2**self.shift_bits:
            raise ConfigurationError(
                f"avg_count {self.avg_count} > 2**shift_bits "
                f"({2**self.shift_bits}): accumulator could overflow"
            )

    @property
    def window_len(self) -> int:
        """Samples consumed per snapshot before the skip region."""
        return self.discard_len + self.avg_count * self.signal_len


@dataclass
class Snapshot:
    """One accumulated symbol as produced by the averager.

    ``data`` holds the raw shifted sums (int16 I/Q); rescale by
    ``2**shift_bits / avg_count`` to recover signal amplitude.  The
    estimator also takes an ``(N, signal_len)`` block, one per row.
    ``np.asarray`` of a snapshot is its ``data``, of a list their block.
    """

    data: np.ndarray  # SAMPLE_DTYPE, shape (signal_len,) or (N, signal_len)
    snapshot_index: int
    config: AveragerConfig

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.data, dtype=dtype, copy=copy)


class Phase(enum.Enum):
    """Controller phase of the state machine."""

    DISCARD = "discard"
    IN = "in"
    ADD_IN = "add_in"
    ADD_OUT = "add_out"
    SKIP = "skip"


class AveragerState:
    """Mutable state of the cycle-accurate model.

    ``memory`` models the symbol accumulator: ``signal_len / 2`` words
    of two complex samples (64 bits) each, written and read one whole
    word per cycle.
    """

    __slots__ = ("config", "phase", "signal_index", "sample_index",
                 "discard_remaining", "memory")

    def __init__(self, config: AveragerConfig) -> None:
        self.config = config
        self.signal_index = 0
        self.sample_index = 0
        self.discard_remaining = config.discard_len
        self.memory: list[Word] = [ZERO_WORD] * (config.signal_len // 2)
        if config.discard_len > 0:
            self.phase = Phase.DISCARD
        else:
            self.phase = self._first_window_phase()

    def _first_window_phase(self) -> Phase:
        return Phase.IN if self.config.avg_count >= 2 else Phase.ADD_OUT


def _shift_word(word: Word, bits: int) -> Word:
    (i0, q0), (i1, q1) = word
    # Python's >> on ints is arithmetic (floor), same as the hardware.
    return ((i0 >> bits, q0 >> bits), (i1 >> bits, q1 >> bits))


def _add_words(a: Word, b: Word) -> Word:
    (ai0, aq0), (ai1, aq1) = a
    (bi0, bq0), (bi1, bq1) = b
    return ((ai0 + bi0, aq0 + bq0), (ai1 + bi1, aq1 + bq1))


def step_state_machine(
    state: AveragerState, word_in: Word
) -> tuple[AveragerState, Word | None]:
    """Advance the averager by one clock cycle (two samples).

    Mutates ``state`` in place and returns it together with the output
    word, which is ``None`` except during ADD_OUT.
    """
    cfg = state.config
    out: Word | None = None

    if state.phase is Phase.DISCARD:
        state.discard_remaining -= 2
        if state.discard_remaining == 0:
            state.phase = state._first_window_phase()
        return state, None
    if state.phase is Phase.SKIP:
        return state, None

    addr = state.sample_index // 2
    shifted = _shift_word(word_in, cfg.shift_bits)

    if state.phase is Phase.IN:
        state.memory[addr] = shifted
    elif state.phase is Phase.ADD_IN:
        state.memory[addr] = _add_words(state.memory[addr], shifted)
    else:  # ADD_OUT: memory is read, not written; avg_count == 1 bypasses it
        if cfg.avg_count == 1:
            out = shifted
        else:
            out = _add_words(state.memory[addr], shifted)

    state.sample_index += 2
    if state.sample_index == cfg.signal_len:
        state.sample_index = 0
        state.signal_index += 1
        if state.phase is Phase.IN:
            state.phase = (
                Phase.ADD_IN if cfg.avg_count > 2 else Phase.ADD_OUT
            )
        elif state.phase is Phase.ADD_IN:
            if state.signal_index == cfg.avg_count - 1:
                state.phase = Phase.ADD_OUT
        else:  # ADD_OUT finished: ignore everything until the next trigger
            state.phase = Phase.SKIP
    return state, out


def run_state_machine(
    stream: np.ndarray, config: AveragerConfig, snapshot_index: int = 0
) -> Snapshot:
    """Drive the state machine over one trigger window of samples.

    Feeds ``stream`` two samples per step until the output symbol is
    complete.  Raises :class:`TruncatedStreamError` if the stream ends
    first.
    """
    if len(stream) < config.window_len:
        raise TruncatedStreamError(
            f"snapshot {snapshot_index}: need {config.window_len} samples, "
            f"got {len(stream)}"
        )
    state = AveragerState(config)
    collected: list[tuple[int, int]] = []
    pairs = stream[: config.window_len].tolist()
    for n in range(0, len(pairs), 2):
        word: Word = (pairs[n], pairs[n + 1])
        state, out = step_state_machine(state, word)
        if out is not None:
            collected.extend(out)
        if state.phase is Phase.SKIP:
            break
    data = np.array(collected, dtype=SAMPLE_DTYPE)
    return Snapshot(data=data, snapshot_index=snapshot_index, config=config)


def select_and_average(
    stream: np.ndarray, config: AveragerConfig, snapshot_index: int = 0
) -> Snapshot:
    """Vectorized golden model, bit-identical to the state machine.

    ``stream`` must start at the trigger; the first ``discard_len``
    samples are dropped, the next ``avg_count * signal_len`` are
    shifted and summed.  The window is consumed: a contiguous window is
    shifted where it lies (so it must be writable) and no window-sized
    temporary is made.  Pass a copy to keep the samples.
    """
    if len(stream) < config.window_len:
        raise TruncatedStreamError(
            f"snapshot {snapshot_index}: need {config.window_len} samples, "
            f"got {len(stream)}"
        )
    window = stream[config.discard_len : config.window_len]
    words = np.ravel(window).view("<i2").reshape(config.avg_count, -1)
    # int16 >> stays int16 and every partial sum fits by the avg_count <=
    # 2**shift invariant, so accumulating in int16 is exact (never wraps).
    np.right_shift(words, config.shift_bits, out=words)
    data = words.sum(axis=0, dtype=np.int16).astype("<i2", copy=False).view(SAMPLE_DTYPE)
    return Snapshot(data=data, snapshot_index=snapshot_index, config=config)


def average_repeated(one: Snapshot, config: AveragerConfig) -> Snapshot:
    """:func:`select_and_average` under ``config`` over a window whose
    ``avg_count`` symbols all repeat one symbol, bit for bit, from ``one``:
    :func:`select_and_average` of that symbol alone (one symbol, no discard).

    That is the symbol shifted once, and equal shifted symbols sum to
    ``avg_count`` times it, which fits int16 by the same ``avg_count <=
    2**shift_bits`` invariant.  ``one`` is multiplied in place.
    """
    # avg_count (up to 2**15) fits uint16, whose product modulo 2**16 is
    # the int16 one; the exact product fits int16, so it is that product.
    words = one.data.view("<u2")
    np.multiply(words, config.avg_count, out=words)
    return Snapshot(data=one.data, snapshot_index=one.snapshot_index, config=config)
