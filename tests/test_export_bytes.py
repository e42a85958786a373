"""Exact bytes of the calibrate and estimate exports.

The captures are synthesized rather than simulated, so these digests
change only when the read side (capture reader, estimator, export)
changes: each snapshot is the quantized sounding symbol through a fixed
multipath channel plus Gaussian noise at the averaged level, scaled and
quantized as the averager stores it.  The input captures are pinned as
well, so a failure names the side that moved.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from soundersim import campaign, cli
from soundersim.averager import Snapshot
from soundersim.campaign import Capture, write_capture
from soundersim.cli import main
from soundersim.config import SounderConfig
from soundersim.fixedpoint import quantize, quantize_clipped, to_float
from soundersim.waveform import ZcParams, build_sounding_symbol

CREATED = "2026-03-01T12:00:00+00:00"

CFG = SounderConfig(
    signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
    rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
    zc=ZcParams(51, 2), num_snapshots=3,
)

TAPS = ((2, 0.8 * np.exp(0.3j)), (9, 0.4j), (23, -0.15))

INPUT_SHA256 = {
    "run.capture":
        "0c35e26bab9dfd656e8dd1ec62463fa5c6488cfa5b1970f069282fa6eb17c5a1",
    "cal.capture":
        "bacaf8e07effcfe36493b0880cf3980c81ae5fe26f201be555ee149d9c535b23",
}

OUTPUT_SHA256 = {
    "calibration.json":
        "1a187a84ffa4b2629d96d19afbe5af06fea1fcfe7c757fa3ab9481f470d1576a",
    "pdp.csv":
        "ebde4152a54048b85049992e2b3d961a737911e733e70064c19f666fd21299bf",
    "pdp.jsonl":
        "2f9c8f95a0fba0fbbbe84dd9314243fb30ade29a3ec8a06e0311fff81f503a5c",
    "cir.csv":
        "289841d7270fbb12e2c55a53a4bc3edf48fa04b10219ce6651ee97266973a639",
    "cir.jsonl":
        "1c3f9451f311aa6f9a965368e7c72de3f9f4eeb955cb799eb843edcac7930c2f",
    "response.csv":
        "2e1aeb3a74195dfa9120f298620045beb90a7ce0a78869091e627354158b0c73",
    "response.jsonl":
        "83a53b4cb16818c0709e98769b2cf3fc592b2c17a8d5560f0ccf930e456ea654",
    "response_cal.csv":
        "bd460130b870e58cf0e1d333fffafbe2e58497caeb1417b63eb556f677051b00",
    "response_cal.jsonl":
        "2ea0ffa442e8dad69e9c16978ee97449b17f761b6da0a619c3ac7d1e37391003",
}

EXPORTS = [
    (f"{kind}{'_cal' if calibrated else ''}.{ext}", kind, fmt, calibrated)
    for kind in ("pdp", "cir", "response")
    for calibrated in ((False, True) if kind == "response" else (False,))
    for fmt, ext in (("csv", "csv"), ("json-lines", "jsonl"))
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_capture(path, taps, count, noise_std, seed):
    cfg = dataclasses.replace(CFG, num_snapshots=count)
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    symbol = to_float(quantize(wf.time_signal))
    received = sum(gain * np.roll(symbol, delay) for delay, gain in taps)
    rng = np.random.default_rng(seed)
    sigma = noise_std / np.sqrt(cfg.avg_count)
    noise = sigma * (rng.standard_normal((count, cfg.signal_len))
                     + 1j * rng.standard_normal((count, cfg.signal_len)))
    scale = cfg.avg_count / 2**cfg.shift_bits
    data, clipped = quantize_clipped((received + noise) * scale)
    acfg = cfg.averager_config()
    write_capture(path, Capture(
        config=cfg, channel_digest="0" * 64, prng="pcg64", seed=seed,
        created=CREATED, clipped_components=clipped,
        snapshots=[Snapshot(data=row, snapshot_index=k, config=acfg)
                   for k, row in enumerate(data)],
    ))


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Calibrate on a cable capture, then run every estimate export."""
    out = tmp_path_factory.mktemp("export")
    _write_capture(out / "run.capture", TAPS, count=3, noise_std=0.05, seed=5)
    _write_capture(out / "cal.capture", ((0, 1.0),), count=2, noise_std=0.01, seed=6)
    cal = out / "calibration.json"
    codes = {"calibration.json": main(["calibrate", str(out / "cal.capture"),
                                       "--out", str(cal)])}
    for name, kind, fmt, calibrated in EXPORTS:
        args = ["estimate", str(out / "run.capture"), "--kind", kind,
                "--format", fmt, "--out", str(out / name)]
        if calibrated:
            args += ["--calibration", str(cal)]
        codes[name] = main(args)
    return out, codes


@pytest.mark.parametrize("name", sorted(INPUT_SHA256))
def test_input_capture_bytes_are_pinned(exported, name):
    out, _ = exported
    assert _sha256(out / name) == INPUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_export_bytes_are_pinned(exported, name):
    out, codes = exported
    assert codes[name] == 0
    assert _sha256(out / name) == OUTPUT_SHA256[name]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_export_bytes_do_not_depend_on_the_worker_count(exported, tmp_path, monkeypatch,
                                                        workers):
    # A block holds BLOCK_LEN // 64 of the three 64-sample snapshots, at
    # least one: blocks of 16 and 64 rows make three blocks (16 is less than
    # a snapshot), and blocks of 8192 one.  Two and three workers fork one
    # and two children over three blocks, whatever the host's core count.
    out, _ = exported
    forks, fork = [], os.fork
    monkeypatch.setattr(campaign, "_usable_cores", lambda: workers)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for block_len, blocks in ((16, 3), (64, 3), (8192, 1)):
        monkeypatch.setattr(cli, "BLOCK_LEN", block_len)
        forks.clear()
        for name, kind, fmt, calibrated in EXPORTS:
            args = ["estimate", str(out / "run.capture"), "--kind", kind,
                    "--format", fmt, "--out", str(tmp_path / name)]
            if calibrated:
                args += ["--calibration", str(out / "calibration.json")]
            assert main(args) == 0
            assert _sha256(tmp_path / name) == OUTPUT_SHA256[name], (name, block_len)
        assert len(forks) == (min(workers, blocks) - 1) * len(EXPORTS), block_len


def test_empty_capture_exports_headers_only(tmp_path, capsys):
    capture = tmp_path / "empty.capture"
    _write_capture(capture, TAPS, count=0, noise_std=0.05, seed=7)
    headers = {
        "pdp": b"snapshot,delay_s,power_rel_peak_db\r\n",
        "cir": b"snapshot,delay_s,real,imag\r\n",
        "response": b"snapshot,bin,freq_offset_hz,real,imag\r\n",
    }
    for kind, header in headers.items():
        for fmt, expected in (("csv", header), ("json-lines", b"")):
            out = tmp_path / f"{kind}.{fmt}"
            assert main(["estimate", str(capture), "--kind", kind,
                         "--format", fmt, "--out", str(out)]) == 0
            assert json.loads(capsys.readouterr().out)["rows"] == 0
            assert out.read_bytes() == expected

    assert main(["calibrate", str(capture),
                 "--out", str(tmp_path / "cal.json")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "validation"
