"""The block-wise table writer against the per-row writer it replaced.

``cli._emit`` writes a table of snapshots × an axis: each snapshot has
one row per entry of the axis columns, and a row holds the snapshot's
number, its axis values and its value columns.  It spells the snapshot
numbers and the axis once per table and the value columns one block of
snapshots at a time, in up to one process per usable core; here a block
holds ``BLOCK_LEN // rows`` snapshots, as ``estimate`` makes them.  The
oracle below is the earlier writer, one ``csv.writer`` or ``json.dumps``
call per row, given every row's snapshot number and axis values; both
must write the same bytes for any int64 and float64 axis columns and
float64 value columns, including NaN, infinities, -0.0, subnormals and
the magnitudes that ``repr`` spells in exponent form, at any worker
count.  A failing worker process must be reported and every one reaped.
"""

import csv
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from soundersim import campaign, cli, floattext
from soundersim.channel import ChannelModel
from soundersim.config import SounderConfig
from soundersim.fixedpoint import quantize, quantize_clipped, to_float
from soundersim.waveform import ZcParams, build_sounding_symbol

BLOCK = 12

#: Worker counts the writer is checked at; 8 exceeds most tables' blocks.
WORKERS = [1, 2, 3, 8]

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308,
                  1e16, -1e16, 1.2345678901234567e22, 1.7976931348623157e308]

FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                   st.floats(min_value=1e16), st.floats(max_value=-1e16))

INTS = st.integers(-2**63, 2**63 - 1)


def _emit_per_row(columns, out_path, fmt):
    """Write equal-length columns as CSV with a header row, or JSON-lines."""
    names = list(columns)
    rows = zip(*(column.tolist() for column in columns.values()))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows(rows)
        else:  # json-lines
            for row in rows:
                fh.write(json.dumps(dict(zip(names, row))) + "\n")


def _rows(axis):
    """Rows per snapshot: the length of the axis columns."""
    return len(next(iter(axis.values())))


def _emit_table(axis, values, count, out_path, fmt):
    """``cli._emit`` of ``count`` snapshots × ``axis`` in blocks of
    ``cli.BLOCK_LEN // rows`` snapshots, at least one; ``values`` maps each
    value column's name to its whole column."""
    per = max(1, cli.BLOCK_LEN // max(_rows(axis), 1))
    size = per * _rows(axis)
    cli._emit(axis, list(values), lambda i: [v[i * size:(i + 1) * size] for v in values.values()],
              count, per, out_path, fmt)


def _emit_table_per_row(axis, values, count, out_path, fmt):
    """The per-row writer, given every row's snapshot number and axis values."""
    _emit_per_row({"snapshot": np.repeat(np.arange(count), _rows(axis)),
                   **{name: np.tile(a, count) for name, a in axis.items()}, **values},
                  out_path, fmt)


@st.composite
def tables(draw):
    """A table ``(axis, values, count)`` of snapshots × an axis.

    The axis is one to three int64 and float64 columns of up to 6 rows; the
    snapshot count sits around the block's snapshot count ``per``; the one
    to three float64 value columns hold one value per row of the table.
    """
    rows = draw(st.integers(0, 6))
    per = max(1, BLOCK // max(rows, 1))
    count = draw(st.sampled_from([0, 1, per - 1, per, per + 1, 3 * per, 5 * per + 2,
                                  9 * per + 1]))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    axis = {f"a{i}_{'f' if is_float else 'i'}":
            draw(arrays(np.float64, rows, elements=FLOATS) if is_float
                 else arrays(np.int64, rows, elements=INTS))
            for i, is_float in enumerate(kinds)}
    values = {f"v{i}": draw(arrays(np.float64, count * rows, elements=FLOATS))
              for i in range(draw(st.integers(1, 3)))}
    return axis, values, count


# Non-finite and signed-zero axis values, spelled once in the parent.
@example(table=({"delay": np.array([-0.0, 5e-324, math.nan, -math.inf])},
                {"y": np.linspace(-1.0, 1.0, 28)}, 7), fmt="json-lines", workers=1)
@example(table=({"bin": np.array([7, -2**63]), "hz": np.array([1e16, -0.0])},
                {"y": np.array([math.inf, 1e16, -0.0, 5e-324])}, 2),
         fmt="json-lines", workers=1)
# No rows: no snapshots, or an empty axis; and fewer blocks than workers.
@example(table=({"delay": np.array([0.5])}, {"y": np.array([])}, 0), fmt="csv", workers=8)
@example(table=({"bin": np.array([], np.int64)}, {"y": np.array([])}, 5),
         fmt="json-lines", workers=3)
@example(table=({"x": np.arange(2)}, {"y": np.ones(14)}, 7), fmt="csv", workers=8)
# Three blocks over two workers: the child's share is the last block, the
# only one whose value column holds a non-finite value.
@example(table=({"k": np.array([0.5, 2.0])}, {"y": np.array([1.5] * 35 + [-math.inf])}, 18),
         fmt="json-lines", workers=2)
@settings(max_examples=400)
@given(table=tables(), fmt=st.sampled_from(["csv", "json-lines"]),
       workers=st.sampled_from(WORKERS))
def test_block_writer_matches_per_row_writer(table, fmt, workers):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "BLOCK_LEN", BLOCK)
        mp.setattr(campaign, "_usable_cores", lambda: workers)
        expected, actual = Path(tmp, "expected"), Path(tmp, "actual")
        _emit_table_per_row(*table, expected, fmt)
        _emit_table(*table, actual, fmt)
        assert actual.read_bytes() == expected.read_bytes()


CREATED = "2026-03-01T12:00:00+00:00"


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """Three noiseless snapshots of 64 samples: 192 rows, in 3 blocks of one
    snapshot at ``BLOCK_LEN`` 16."""
    cfg = SounderConfig(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
        zc=ZcParams(51, 2), num_snapshots=3,
    )
    path = tmp_path_factory.mktemp("capture") / "run.capture"
    campaign.write_capture(path, campaign.run_campaign(
        cfg, ChannelModel(taps=((0, 1.0), (5, 0.3j))), created=CREATED))
    return path


@pytest.fixture
def forked(monkeypatch, tmp_path):
    """Three workers over blocks of ``BLOCK_LEN`` 16, temporary files in their own
    directory; yields the pids that ``os.fork`` returned to this process."""
    monkeypatch.setattr(cli, "BLOCK_LEN", 16)
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 3)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))
    monkeypatch.setattr(tempfile, "tempdir", None)
    pids, fork = [], os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every child has been reaped
        os.waitpid(-1, os.WNOHANG)
    assert list((tmp_path / "tmp").iterdir()) == []


def _failing_spell(exc, where, pids):
    """A ``floattext.spell`` that raises ``exc`` in every child, or in this
    process once it has forked (so after the axis columns are spelled)."""
    parent, spell = os.getpid(), floattext.spell

    def failing_spell(values, *special, out=None):
        in_parent = os.getpid() == parent
        if (in_parent and pids) if where == "parent" else not in_parent:
            raise exc
        return spell(values, *special, out=out)
    return failing_spell


def test_a_child_os_error_exits_4_with_its_message(monkeypatch, forked, capture,
                                                   tmp_path, capsys):
    failing = _failing_spell(OSError(28, "spool disk full"), "child", forked)
    monkeypatch.setattr(floattext, "spell", failing)
    assert cli.main(["estimate", str(capture), "--out", str(tmp_path / "pdp.csv")]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"category": "io", "message": "export child: [Errno 28] spool disk full"}
    assert len(forked) == 2


def test_a_child_failure_of_another_kind_raises_in_the_caller(monkeypatch, forked,
                                                               capture, tmp_path):
    failing = _failing_spell(ArithmeticError("no spelling"), "child", forked)
    monkeypatch.setattr(floattext, "spell", failing)
    with pytest.raises(RuntimeError, match=r"^export child: ArithmeticError\('no spelling'\)$"):
        cli.main(["estimate", str(capture), "--out", str(tmp_path / "pdp.csv")])
    assert len(forked) == 2


@pytest.mark.parametrize("exc", [ArithmeticError("parent share"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_a_failing_parent_share_reaps_the_children(monkeypatch, forked, capture,
                                                   tmp_path, exc):
    monkeypatch.setattr(floattext, "spell", _failing_spell(exc, "parent", forked))
    with pytest.raises(type(exc)):
        cli.main(["estimate", str(capture), "--kind", "cir",
                  "--out", str(tmp_path / "cir.csv")])
    assert len(forked) == 2


def test_workers_write_to_a_non_regular_output(forked, capture, capsys):
    assert cli.main(["estimate", str(capture), "--format", "json-lines",
                     "--out", os.devnull]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 192
    assert len(forked) == 2


@pytest.mark.parametrize("case", ["one core", "one block", "no fork"])
def test_serial_cases_fork_nothing(monkeypatch, forked, tmp_path, case):
    # 5 snapshots of 8 rows: 3 blocks of 2 snapshots, or 1 of 5.
    table = ({"x": np.arange(8)}, {"y": np.linspace(-1.0, 1.0, 40)}, 5)
    if case == "one core":
        monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)
    elif case == "one block":
        monkeypatch.setattr(cli, "BLOCK_LEN", 40)
    else:
        monkeypatch.delattr(os, "fork")
    _emit_table(*table, tmp_path / "actual", "csv")
    _emit_table_per_row(*table, tmp_path / "expected", "csv")
    assert (tmp_path / "actual").read_bytes() == (tmp_path / "expected").read_bytes()
    assert forked == []


@pytest.fixture(scope="module")
def default_captures(tmp_path_factory):
    """Noisy captures of 256 and 4096 snapshots at the default config; the
    longer one repeats the shorter one's snapshots."""
    cfg = SounderConfig(num_snapshots=256)
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    symbol = to_float(quantize(wf.time_signal))
    rng = np.random.default_rng(256)
    noise = 0.01 * (rng.standard_normal((256, cfg.signal_len))
                    + 1j * rng.standard_normal((256, cfg.signal_len)))
    data, clipped = quantize_clipped((symbol + 0.3 * np.roll(symbol, 7) + noise)
                                     * (cfg.avg_count / 2**cfg.shift_bits))
    paths = {}
    for count in (256, 4096):
        paths[count] = tmp_path_factory.mktemp("default") / "run.capture"
        campaign.write_capture(paths[count], campaign.Capture(
            config=SounderConfig(num_snapshots=count), channel_digest="0" * 64, prng="pcg64",
            seed=count, created=CREATED, clipped_components=clipped,
            snapshots=np.tile(data, (count // 256, 1))))
    return paths


#: Traced peak of each command on 256 default snapshots, ``estimate`` on one
#: worker, in MiB, measured with numpy 2.4.
PEAK_256_MIB = {"estimate-pdp": 2.38, "estimate-cir": 2.71, "estimate-response": 2.27,
                "calibrate": 0.45, "report": 0.05}

#: What each command prints for 4096 snapshots: a table's rows, or snapshots.
PRINTED_4096 = {"estimate-pdp": ("rows", 4096 * 1024), "estimate-cir": ("rows", 4096 * 1024),
                "estimate-response": ("rows", 4096 * SounderConfig().zc.length),
                "calibrate": ("snapshots", 4096), "report": ("snapshots", 4096)}


@pytest.mark.parametrize("command", sorted(PEAK_256_MIB))
def test_traced_peak_does_not_grow_with_the_capture(monkeypatch, capsys, tmp_path,
                                                     default_captures, command):
    # The capture is mapped, not read, and each block of 8 snapshots is
    # estimated, spelled and written (or added into calibrate's average)
    # before the next is made, so from 256 to 4096 snapshots the traced peak
    # grows only by the text of the snapshot numbers, under 64 KiB.
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)
    name, _, kind = command.partition("-")
    args = {"estimate": ["--kind", kind, "--out", os.devnull],
            "calibrate": ["--out", str(tmp_path / "calibration.json")], "report": []}[name]
    assert cli.main([name, str(default_captures[256]), *args]) == 0  # fills the caches
    peaks = []
    for count in (256, 4096):
        capsys.readouterr()  # leaves the 4096-snapshot run's output alone
        tracemalloc.start()
        try:
            assert cli.main([name, str(default_captures[count]), *args]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    key, value = PRINTED_4096[command]
    assert json.loads(capsys.readouterr().out)[key] == value
    assert peaks[1] - peaks[0] <= 64 * 1024
    assert peaks[0] <= 1.25 * PEAK_256_MIB[command] * 2**20
