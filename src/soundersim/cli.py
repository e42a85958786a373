"""Command line front end.

Subcommands mirror a measurement workflow: ``generate`` the transmit
frame, ``simulate`` a capture through a channel model, ``calibrate``
from a back-to-back capture, ``estimate`` responses/CIRs/PDPs from a
capture, ``validate`` a configuration against a channel, and ``report``
capture metadata.

Exit codes: 0 success, 3 validation/configuration errors, 4 I/O errors,
5 malformed capture files.  Errors are emitted as a single JSON line on
stderr so callers can parse failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .averager import Snapshot
from .campaign import (
    Capture,
    read_capture,
    report_reduction,
    run_campaign,
    storage_rate_bytes,
    write_capture,
)
from .channel import load_channel, validate_config
from .config import load_config
from .errors import SounderError
from .estimator import (
    apply_calibration,
    build_calibration,
    estimate_response,
    load_calibration,
    power_delay_profile,
    save_calibration,
    to_cir,
)
from .fixedpoint import SAMPLE_DTYPE
from .sync import PpsSchedule
from .waveform import build_sounding_symbol, build_tx_frame

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_FORMAT = 5


def _fail(category: str, message: str, code: int) -> int:
    print(json.dumps({"error": {"category": category, "message": message}}),
          file=sys.stderr)
    return code


def _emit(columns: dict[str, np.ndarray], out_path: str, fmt: str) -> None:
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


def _response_block(capture: Capture, calibration_path: str | None = None):
    """The capture's responses as one ``(N, signal_len)`` block, one per row."""
    cfg = capture.config
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    data = np.array([snap.data for snap in capture.snapshots],
                    dtype=SAMPLE_DTYPE).reshape(-1, cfg.signal_len)
    block = estimate_response(
        Snapshot(data=data, snapshot_index=0, config=cfg.averager_config()), wf)
    if calibration_path:
        block = apply_calibration(block, load_calibration(calibration_path))
    return block


def _load_config(path):
    """Load a config; a period that does not divide one second raises the
    :class:`SchedulingError` that ``simulate`` reports for it."""
    cfg = load_config(path)
    PpsSchedule(rep_period_s=cfg.rep_period_s, sample_period_s=cfg.sample_period_s)
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    with open(args.out, "wb") as fh:
        fh.write(frame.tobytes())
    print(json.dumps({
        "samples": len(frame),
        "bytes": len(frame) * frame.dtype.itemsize,
        "train_repetitions": cfg.train_repetitions,
        "occupied_bins": cfg.zc.length,
    }))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    model = load_channel(args.channel)
    if args.snapshots is not None:
        cfg = dataclasses.replace(cfg, num_snapshots=args.snapshots)
    if args.seed is not None:
        model = dataclasses.replace(model, seed=args.seed)
    schedule = PpsSchedule(
        rep_period_s=cfg.rep_period_s,
        sample_period_s=cfg.sample_period_s,
        tx_start_flank=args.tx_flank,
        rx_start_flank=args.rx_flank,
        timing_error=args.timing_error,
    )
    capture = run_campaign(cfg, model, schedule)
    write_capture(args.out, capture)
    print(json.dumps({
        "snapshots": len(capture.snapshots),
        "payload_bytes": capture.payload_bytes,
        "clipped_components": capture.clipped_components,
        "channel_digest": capture.channel_digest,
    }))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    block = _response_block(read_capture(args.capture))
    profile = build_calibration(block, threshold=args.threshold)
    save_calibration(args.out, profile)
    print(json.dumps({
        "snapshots": len(block.bins),
        "occupied_bins": int(np.count_nonzero(profile.reference.occupied_mask)),
        "threshold": args.threshold,
    }))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    capture = read_capture(args.capture)
    cfg = capture.config
    block = _response_block(capture, args.calibration)
    shape = block.bins.shape
    if args.kind == "response":
        snapshot, k = np.nonzero(np.broadcast_to(block.occupied_mask, shape))
        freqs = np.fft.fftfreq(cfg.signal_len, d=cfg.sample_period_s)
        values = block.bins[snapshot, k]
        columns = {"snapshot": snapshot, "bin": k, "freq_offset_hz": freqs[k],
                   "real": values.real, "imag": values.imag}
    else:
        cir = to_cir(block)
        snapshot, n = np.indices(shape).reshape(2, -1)
        delay_s = n * cfg.sample_period_s
        if args.kind == "cir":
            columns = {"snapshot": snapshot, "delay_s": delay_s,
                       "real": cir.real.ravel(), "imag": cir.imag.ravel()}
        else:  # pdp
            # Exported power is relative to each snapshot's strongest tap;
            # absolute reference levels are not calibrated.
            power_db = power_delay_profile(cir)
            power_db -= power_db.max(axis=-1, keepdims=True)
            columns = {"snapshot": snapshot, "delay_s": delay_s,
                       "power_rel_peak_db": power_db.ravel()}
    _emit(columns, args.out, args.format)
    summary = {"rows": len(snapshot), "out": args.out, "kind": args.kind}
    if args.kind == "pdp":
        summary["normalization"] = "peak-relative"
    print(json.dumps(summary))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    model = load_channel(args.channel)
    report = validate_config(cfg, model)
    print(report)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_report(args) -> int:
    capture = read_capture(args.capture)
    cfg = capture.config
    print(json.dumps({
        "created": capture.created,
        "channel_digest": capture.channel_digest,
        "prng": capture.prng,
        "seed": capture.seed,
        "snapshots": len(capture.snapshots),
        "payload_bytes": capture.payload_bytes,
        "clipped_components": capture.clipped_components,
        "reduction_factor": report_reduction(cfg),
        "storage_rate_bytes_per_s": storage_rate_bytes(cfg),
        "signal_len": cfg.signal_len,
        "avg_count": cfg.avg_count,
        "rep_period_s": cfg.rep_period_s,
        "center_freq_hz": cfg.center_freq_hz,
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soundersim",
        description="Channel sounder simulator: waveforms, captures, estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the quantized transmit frame")
    p.add_argument("--config", required=True, help="sounder config JSON")
    p.add_argument("--out", required=True, help="output raw int16 I/Q file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="run a campaign through a channel model")
    p.add_argument("--config", required=True, help="sounder config JSON")
    p.add_argument("--channel", required=True, help="channel model JSON")
    p.add_argument("--out", required=True, help="output capture file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the channel model's noise seed")
    p.add_argument("--snapshots", type=int, default=None,
                   help="override the config's snapshot count")
    p.add_argument("--tx-flank", type=int, default=0,
                   help="transmitter PPS start flank index")
    p.add_argument("--rx-flank", type=int, default=0,
                   help="receiver PPS start flank index")
    p.add_argument("--timing-error", type=int, default=0,
                   help="residual timing error in samples")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate",
                       help="build a calibration profile from a back-to-back capture")
    p.add_argument("capture", help="back-to-back capture file")
    p.add_argument("--out", required=True, help="output calibration JSON")
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="minimum reference bin magnitude")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("estimate", help="estimate responses/CIRs/PDPs from a capture")
    p.add_argument("capture", help="capture file")
    p.add_argument("--calibration", default=None, help="calibration profile JSON")
    p.add_argument("--out", required=True, help="output table file")
    p.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    p.add_argument("--kind", choices=["pdp", "cir", "response"], default="pdp")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("validate", help="check a config against a channel model")
    p.add_argument("--config", required=True, help="sounder config JSON")
    p.add_argument("--channel", required=True, help="channel model JSON")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="print capture metadata")
    p.add_argument("capture", help="capture file")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SounderError as exc:
        return _fail(exc.category, str(exc), exc.exit_code)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
