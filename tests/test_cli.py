"""Command line workflow: generate, validate, simulate, calibrate, estimate."""

import csv
import json
import math
import os
import struct

import numpy as np
import pytest

from soundersim import cli
from soundersim.channel import ChannelModel, save_channel
from soundersim.cli import main
from soundersim.config import SounderConfig, save_config
from soundersim.waveform import ZcParams


def _write_inputs(tmp_path, taps=((0, 1.0),), noise_std=0.0, snapshots=2):
    cfg = SounderConfig(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
        zc=ZcParams(51, 2), num_snapshots=snapshots,
    )
    model = ChannelModel(taps=taps, noise_std=noise_std, seed=77)
    config_path = tmp_path / "config.json"
    channel_path = tmp_path / "channel.json"
    save_config(config_path, cfg)
    save_channel(channel_path, model)
    return cfg, str(config_path), str(channel_path)


def test_generate_writes_frame(tmp_path, capsys):
    cfg, config_path, _ = _write_inputs(tmp_path)
    out = tmp_path / "frame.iq"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["samples"] == cfg.frame_len
    assert info["train_repetitions"] == 6
    assert info["occupied_bins"] == 51
    assert out.stat().st_size == cfg.frame_len * 4


def test_validate_pass_and_fail(tmp_path, capsys):
    _, config_path, channel_path = _write_inputs(tmp_path)
    assert main(["validate", "--config", config_path,
                 "--channel", channel_path]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = tmp_path / "bad_channel.json"
    save_channel(bad, ChannelModel(taps=((0, 1.0), (64, 0.5))))
    assert main(["validate", "--config", config_path,
                 "--channel", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "delay spread" in out


def test_simulate_then_report(tmp_path, capsys):
    _, config_path, channel_path = _write_inputs(tmp_path, noise_std=0.01)
    capture_path = tmp_path / "run.capture"
    assert main(["simulate", "--config", config_path,
                 "--channel", channel_path, "--out", str(capture_path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["snapshots"] == 2
    assert info["payload_bytes"] == 2 * 64 * 4
    assert len(info["channel_digest"]) == 64

    assert main(["report", str(capture_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["snapshots"] == 2
    assert report["prng"] == "pcg64-window"
    assert report["seed"] == 77
    assert report["signal_len"] == 64
    assert report["reduction_factor"] == 512 / 64


def test_snapshot_and_seed_overrides(tmp_path, capsys):
    _, config_path, channel_path = _write_inputs(tmp_path, noise_std=0.05)
    a = tmp_path / "a.capture"
    b = tmp_path / "b.capture"
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(a), "--snapshots", "5", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["snapshots"] == 5
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(b), "--snapshots", "5", "--seed", "2"]) == 0
    capsys.readouterr()
    # Different noise seeds give different payloads (and digests).
    assert a.read_bytes() != b.read_bytes()


def test_flank_choice_leaves_capture_bytes_unchanged(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    _, config_path, channel_path = _write_inputs(tmp_path, noise_std=0.02)
    a = tmp_path / "a.capture"
    b = tmp_path / "b.capture"
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(a), "--tx-flank", "0", "--rx-flank", "0"]) == 0
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(b), "--tx-flank", "4", "--rx-flank", "9"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
def test_malformed_source_date_epoch_exits_3(tmp_path, capsys, monkeypatch,
                                              epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    _, config_path, channel_path = _write_inputs(tmp_path)
    out = tmp_path / "run.capture"
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["category"] == "validation"
    assert "SOURCE_DATE_EPOCH" in err["message"]
    assert not out.exists()


def test_estimate_pdp_csv(tmp_path, capsys):
    cfg, config_path, channel_path = _write_inputs(
        tmp_path, taps=((5, 1.0), (30, 0.5j)))
    capture_path = tmp_path / "run.capture"
    main(["simulate", "--config", config_path, "--channel", channel_path,
          "--out", str(capture_path)])
    out = tmp_path / "pdp.csv"
    assert main(["estimate", str(capture_path), "--kind", "pdp",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["normalization"] == "peak-relative"
    assert summary["rows"] == 2 * 64

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 64
    first = [r for r in rows if r["snapshot"] == "0"]
    powers = np.array([float(r["power_rel_peak_db"]) for r in first])
    delays = np.array([float(r["delay_s"]) for r in first])
    assert powers.max() == 0.0  # peak-relative
    peak_delay = delays[int(np.argmax(powers))]
    assert abs(peak_delay - 5 * cfg.sample_period_s) < 1e-12
    # The second path sits ~6 dB below the first.
    second = powers[30]
    assert abs(second - 20 * np.log10(0.5)) < 1.0


def test_estimate_cir_json_lines(tmp_path, capsys):
    _, config_path, channel_path = _write_inputs(tmp_path, taps=((3, 0.5),))
    capture_path = tmp_path / "run.capture"
    main(["simulate", "--config", config_path, "--channel", channel_path,
          "--out", str(capture_path)])
    out = tmp_path / "cir.jsonl"
    assert main(["estimate", str(capture_path), "--kind", "cir",
                 "--format", "json-lines", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2 * 64
    taps = np.array([complex(r["real"], r["imag"]) for r in rows
                     if r["snapshot"] == 0])
    assert int(np.argmax(np.abs(taps))) == 3


def test_the_capture_block_reaches_the_estimator_uncopied(tmp_path, monkeypatch):
    # Blocks of 128 rows hold two 64-sample snapshots: calibrate and
    # estimate each take the five snapshots as three blocks.
    _, config_path, channel_path = _write_inputs(tmp_path, noise_std=0.02, snapshots=5)
    capture_path = tmp_path / "run.capture"
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(capture_path)]) == 0
    capture = cli.read_capture(capture_path)
    estimate = cli.estimate_response
    monkeypatch.setattr(cli, "read_capture", lambda path: capture)
    monkeypatch.setattr(cli, "BLOCK_LEN", 128)
    monkeypatch.setattr(cli.campaign, "_usable_cores", lambda: 1)  # every block made here
    for command, blocks in (("calibrate", 3), ("estimate", 3)):
        given = []
        monkeypatch.setattr(cli, "estimate_response",
                            lambda snap, wf: given.append(snap) or estimate(snap, wf))
        assert main([command, str(capture_path), "--out", str(tmp_path / "out")]) == 0
        rows, stride = [], capture.snapshots.strides[0]
        for snap in given:
            assert np.shares_memory(snap.data, capture.snapshots)
            first = (snap.data.ctypes.data - capture.snapshots.ctypes.data) // stride
            rows.extend(range(first, first + len(snap.data)))
        assert sorted(rows) == list(range(5)) and len(given) == blocks, command


def test_calibrated_response_workflow(tmp_path, capsys, monkeypatch):
    # Calibrating against a capture and estimating the same capture with
    # that profile must give a flat unit response.
    _, config_path, channel_path = _write_inputs(tmp_path,
                                                 taps=((0, 0.7), (2, 0.2j)))
    capture_path = tmp_path / "b2b.capture"
    main(["simulate", "--config", config_path, "--channel", channel_path,
          "--out", str(capture_path)])
    # Each command estimates (and calibrates) the capture as one block.
    calls = []
    for name in ("estimate_response", "apply_calibration"):
        def counted(*args, _name=name, _real=getattr(cli, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(cli, name, counted)
    cal_path = tmp_path / "cal.json"
    assert main(["calibrate", str(capture_path), "--out", str(cal_path)]) == 0
    assert calls == ["estimate_response"]
    info = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert info["occupied_bins"] == 51
    assert info["threshold"] == 1e-3

    out = tmp_path / "resp.jsonl"
    assert main(["estimate", str(capture_path), "--kind", "response",
                 "--calibration", str(cal_path),
                 "--format", "json-lines", "--out", str(out)]) == 0
    assert calls == ["estimate_response", "estimate_response", "apply_calibration"]
    capsys.readouterr()
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2 * 51
    values = np.array([complex(r["real"], r["imag"]) for r in rows])
    assert np.allclose(values, 1.0, rtol=0, atol=1e-12)
    bins = {r["bin"] for r in rows}
    assert len(bins) == 51
    assert 0 in bins  # DC is occupied
    freqs = {r["bin"]: r["freq_offset_hz"] for r in rows}
    assert freqs[0] == 0.0
    assert freqs[1] > 0 and freqs[63] < 0


def test_corrupt_capture_exits_5_with_json_error(tmp_path, capsys):
    path = tmp_path / "junk.capture"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert main(["report", str(path)]) == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "format"
    assert "magic" in err["error"]["message"]


def _simulated_capture(tmp_path, capsys):
    _, config_path, channel_path = _write_inputs(tmp_path)
    path = tmp_path / "run.capture"
    main(["simulate", "--config", config_path, "--channel", channel_path,
          "--out", str(path)])
    capsys.readouterr()
    return path


def _run_on_edited_header(tmp_path, capsys, command, edit):
    """Rewrite a fresh capture's JSON header with ``edit``, run ``command``
    on it and return the JSON error it must exit 5 with."""
    path = _simulated_capture(tmp_path, capsys)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10:10 + header_len])
    edit(header)
    encoded = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sHI", b"CSND", 1, len(encoded)) + encoded
                     + raw[10 + header_len:])
    args = [command, str(path)]
    if command != "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["category"] == "format"
    return err


@pytest.mark.parametrize("fields", [
    pytest.param({"signal_len": 3}, id="3"),
    pytest.param({"signal_len": 64.0}, id="64.0"),
    pytest.param({"tx_power_dbm": "abc", "center_freq_hz": True}, id="str-and-bool"),
    pytest.param({"center_freq_hz": float("nan")}, id="nan"),
    pytest.param({"tx_power_dbm": float("inf")}, id="inf"),
    pytest.param({"backoff": True}, id="bool-backoff"),
    pytest.param({"num_snapshots": 99}, id="count-mismatch"),
])
@pytest.mark.parametrize("command", ["report", "estimate", "calibrate"])
def test_capture_header_with_bad_config_exits_5(tmp_path, capsys, command,
                                                fields):
    # An odd signal_len breaks a config constraint; a float one used to
    # pass and crash the estimator with a TypeError.  The float fields
    # used to take strings, bools and non-finite values, and a config
    # could claim more snapshots than the payload holds.
    err = _run_on_edited_header(tmp_path, capsys, command,
                                lambda header: header["config"].update(fields))
    assert any(name in err["message"] for name in fields)


@pytest.mark.parametrize("key, value", [
    ("snapshot_count", 2.0), ("snapshot_count", "2"), ("snapshot_count", True),
    ("seed", 5.7), ("seed", "5"), ("seed", True),
    ("clipped_components", 0.0), ("clipped_components", "0"),
    ("clipped_components", False),
])
@pytest.mark.parametrize("command", ["report", "estimate"])
def test_capture_header_with_non_integer_count_exits_5(tmp_path, capsys, command,
                                                       key, value):
    # These counts used to pass through int(): a seed of 5.7 read as 5.
    err = _run_on_edited_header(tmp_path, capsys, command,
                                lambda header: header.update({key: value}))
    assert key in err["message"]


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", 2**64), ("clipped_components", -3), ("snapshot_count", -1),
    ("snapshot_count", 3),
])
@pytest.mark.parametrize("command", ["report", "estimate"])
def test_capture_header_with_out_of_range_count_exits_5(tmp_path, capsys, command,
                                                        key, value):
    # A negative seed or saturation count used to be reported as read.  A
    # snapshot count above the config's 2, over the 2 snapshots the config
    # describes, used to be reported as a payload size mismatch.
    err = _run_on_edited_header(tmp_path, capsys, command,
                                lambda header: header.update({key: value}))
    assert key in err["message"]


@pytest.mark.parametrize("key, value", [
    ("prng", 5), ("created", None), ("channel_digest", []),
], ids=["int-prng", "null-created", "list-digest"])
@pytest.mark.parametrize("command", ["report", "estimate"])
def test_capture_header_with_non_string_text_exits_5(tmp_path, capsys, command,
                                                     key, value):
    err = _run_on_edited_header(tmp_path, capsys, command,
                                lambda header: header.update({key: value}))
    assert f"{key} must be a string" in err["message"]


def test_empty_capture_estimates_no_rows_and_cannot_calibrate(tmp_path, capsys):
    _, config_path, channel_path = _write_inputs(tmp_path, snapshots=0)
    path = tmp_path / "empty.capture"
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(path)]) == 0
    capsys.readouterr()
    for kind in ("pdp", "cir", "response"):
        out = tmp_path / f"{kind}.csv"
        assert main(["estimate", str(path), "--kind", kind, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 0
        assert len(out.read_text().splitlines()) == 1  # the header row only
    cal_path = tmp_path / "cal.json"
    assert main(["calibrate", str(path), "--out", str(cal_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["category"] == "validation"
    assert not cal_path.exists()


@pytest.mark.parametrize("snapshots", [0, 3])
@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("kind", ["pdp", "cir", "response"])
def test_estimate_summary_rows_count_the_data_lines(tmp_path, capsys, kind, fmt,
                                                    snapshots):
    _, config_path, channel_path = _write_inputs(tmp_path, snapshots=snapshots)
    path = tmp_path / "run.capture"
    assert main(["simulate", "--config", config_path, "--channel", channel_path,
                 "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "table"
    assert main(["estimate", str(path), "--kind", kind, "--format", fmt,
                 "--out", str(out)]) == 0
    data_lines = out.read_text(encoding="utf-8").splitlines()[fmt == "csv":]
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == len(data_lines) == snapshots * (51 if kind == "response" else 64)


@pytest.mark.parametrize("threshold", ["inf", "nan", "0"])
def test_calibrate_rejects_threshold_outside_positive_finite(tmp_path, capsys,
                                                            threshold):
    path = _simulated_capture(tmp_path, capsys)
    cal_path = tmp_path / "cal.json"
    assert main(["calibrate", str(path), "--out", str(cal_path),
                 f"--threshold={threshold}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not cal_path.exists()
    err = json.loads(captured.err)
    assert err["error"]["category"] == "validation"
    assert "threshold must be positive and finite" in err["error"]["message"]


def _estimate_with_edited_profile(tmp_path, capsys, edit,
                                  message="malformed calibration profile"):
    """Calibrate from a fresh capture, rewrite the profile's JSON with
    ``edit`` and check that ``estimate`` rejects it with exit code 3."""
    path = _simulated_capture(tmp_path, capsys)
    cal_path = tmp_path / "cal.json"
    assert main(["calibrate", str(path), "--out", str(cal_path)]) == 0
    capsys.readouterr()
    profile = json.loads(cal_path.read_text())
    edit(profile)
    cal_path.write_text(json.dumps(profile))
    out = tmp_path / "resp.csv"
    assert main(["estimate", str(path), "--kind", "response",
                 "--calibration", str(cal_path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)
    assert err["error"]["category"] == "validation"
    assert message in err["error"]["message"]


@pytest.mark.parametrize("field, value", [
    ("threshold", True), ("threshold", "0.001"),
    ("fft_size", 64.9), ("fft_size", True),
    ("occupied", 1.0), ("occupied", -1),
])
def test_malformed_calibration_file_exits_3(tmp_path, capsys, field, value):
    # A bool threshold used to read as 1.0 and a fractional fft_size was
    # truncated; a float or negative bin index used to be read as another bin.
    def edit(profile):
        if field == "occupied":
            profile["occupied"][1] = value  # one bin of the list
        else:
            profile[field] = value
    _estimate_with_edited_profile(tmp_path, capsys, edit)


def _repeat_first_bin(profile):
    for key in ("occupied", "real", "imag"):
        profile[key].append(profile[key][0])


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p.update(real=[True, *p["real"][1:]]), id="bool-real"),
    pytest.param(lambda p: p.update(real=[math.nan, *p["real"][1:]]), id="nan-real"),
    pytest.param(lambda p: p.update(imag=[*p["imag"][:-1], math.inf]),
                 id="infinity-imag"),
    pytest.param(lambda p: p.update(real=p["real"][:1], imag=p["imag"][:1]),
                 id="one-element-real-imag"),
    pytest.param(_repeat_first_bin, id="repeated-bin"),
    pytest.param(lambda p: p.update(extra=1), id="extra-key"),
])
def test_calibration_file_that_does_not_match_its_bins_exits_3(tmp_path, capsys,
                                                               edit):
    # Each of these used to load: a bool read as 1.0, NaN and Infinity
    # were written out as NaN rows, one value was broadcast over every bin,
    # a repeated bin kept its last value and an unknown key was ignored.
    _estimate_with_edited_profile(tmp_path, capsys, edit)


def test_calibrate_without_a_usable_bin_exits_3(tmp_path, capsys):
    # A threshold above every reference bin would leave every calibrated
    # bin at 0, and so a PDP that reads 0 dB at every delay.
    path = _simulated_capture(tmp_path, capsys)
    cal_path = tmp_path / "cal.json"
    assert main(["calibrate", str(path), "--out", str(cal_path), "--threshold", "1e9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not cal_path.exists()
    err = json.loads(captured.err.splitlines()[-1])
    assert err["error"]["category"] == "validation"
    assert "no occupied calibration reference bin" in err["error"]["message"]


def test_estimate_with_a_profile_without_a_usable_bin_exits_3(tmp_path, capsys):
    # Such a profile still loads, as files written before the check may hold one.
    _estimate_with_edited_profile(tmp_path, capsys, lambda p: p.update(threshold=1e9),
                                  "no occupied calibration reference bin")


@pytest.mark.parametrize("command", ["calibrate", "estimate"])
@pytest.mark.parametrize("link", ["path", "symlink", "hard-link"])
def test_out_that_is_the_capture_exits_3_and_leaves_it(tmp_path, capsys, monkeypatch,
                                                       command, link):
    # Opening --out would truncate the capture that the command maps.
    path = _simulated_capture(tmp_path, capsys)
    raw = path.read_bytes()
    out = {"path": path, "symlink": tmp_path / "link", "hard-link": tmp_path / "hard"}[link]
    if link == "symlink":
        out.symlink_to(path)
    elif link == "hard-link":
        os.link(path, out)
    read = []
    monkeypatch.setattr(cli, "read_capture", read.append)
    assert main([command, str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and read == []
    err = json.loads(captured.err)["error"]
    assert err == {"category": "validation", "message": f"--out {out} is the capture it reads"}
    assert path.read_bytes() == raw


@pytest.mark.parametrize("command", ["calibrate", "estimate"])
def test_out_beside_the_capture_is_written(tmp_path, capsys, command):
    path = _simulated_capture(tmp_path, capsys)
    raw = path.read_bytes()
    fresh = tmp_path / "fresh.out"
    for out in (os.devnull, fresh, fresh):  # a device, a new file, then an existing one
        assert main([command, str(path), "--out", str(out)]) == 0
    assert fresh.stat().st_size > 0 and path.read_bytes() == raw
    assert main([command, str(tmp_path / "nope.capture"), "--out", str(fresh)]) == 4


def test_missing_file_exits_4(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.capture")]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "io"


def test_invalid_config_exits_3(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"signal_len": 7}')
    out = tmp_path / "frame.iq"
    assert main(["generate", "--config", str(config_path),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "validation"


@pytest.mark.parametrize("config, message", [
    pytest.param({"rep_period_s": 3e-3}, "does not divide 1 s", id="period"),
    pytest.param({"signal_len": 64, "discard_len": 66, "avg_count": 1,
                  "shift_bits": 0, "rep_period_s": 160 * 2e-9,
                  "zc": {"length": 51, "root": 2}}, "does not fit", id="train"),
])
def test_every_command_applies_the_frame_and_period_rules(tmp_path, capsys,
                                                          config, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    channel_path = tmp_path / "cable.json"
    save_channel(channel_path, ChannelModel(taps=((0, 1.0),)))
    out = str(tmp_path / "out")
    for command in (["validate", "--channel", str(channel_path)],
                    ["generate", "--out", out],
                    ["simulate", "--channel", str(channel_path), "--out", out]):
        assert main([*command, "--config", str(config_path)]) == 3, command
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["category"] == "validation"
        assert message in err["error"]["message"]


@pytest.mark.parametrize("text", [
    pytest.param('{"taps": [{"delay": "x", "gain": [1, 0]}]}', id="str-delay"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "noise_std": "abc"}',
                 id="str-noise"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "seed": Infinity}',
                 id="inf-seed"),
    pytest.param('{"taps": [{"delay": 2.9, "gain": [1, 0]}]}', id="float-delay"),
    pytest.param('{"taps": [{"delay": true, "gain": [1, 0]}]}', id="bool-delay"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "seed": 7.8}',
                 id="float-seed"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "seed": true}',
                 id="bool-seed"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "noise_std": true}',
                 id="bool-noise"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "noise_std": "0.01"}',
                 id="numeric-str-noise"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], '
                 '"interferers": [{"freq": 0.1, "amplitude": "0.5"}]}',
                 id="str-amplitude"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], '
                 '"interferers": [{"freq": "0.1", "amplitude": 0.5}]}',
                 id="str-freq"),
    pytest.param('{"taps": [{"delay": 0, "gain": [true, 0]}]}', id="bool-gain"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], "noise_sdt": 0.01}',
                 id="misspelt-noise"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0], "phase": 1}]}',
                 id="extra-tap-key"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0]}], '
                 '"interferers": [{"freq": 0.1, "amplitude": 0.5, "phaze": 1}]}',
                 id="misspelt-phase"),
    pytest.param('{"taps": [{"delay": 0, "gain": [1, 0, 5]}]}', id="three-part-gain"),
])
def test_malformed_channel_file_exits_3(tmp_path, capsys, text):
    _, config_path, _ = _write_inputs(tmp_path)
    bad = tmp_path / "bad_channel.json"
    bad.write_text(text)
    for command in (["validate"], ["simulate", "--out", str(tmp_path / "x.capture")]):
        assert main([*command, "--config", config_path, "--channel", str(bad)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "validation"
        assert "malformed channel model" in err["error"]["message"]


def test_simulate_rejects_infeasible_pairing(tmp_path, capsys):
    _, config_path, _ = _write_inputs(tmp_path)
    bad = tmp_path / "bad_channel.json"
    save_channel(bad, ChannelModel(taps=((200, 1.0),)))
    assert main(["simulate", "--config", config_path, "--channel", str(bad),
                 "--out", str(tmp_path / "x.capture")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "validation"
