"""Command line front end.

Subcommands mirror a measurement workflow: ``generate`` the transmit
frame, ``simulate`` a capture through a channel model, ``calibrate``
from a back-to-back capture, ``estimate`` responses/CIRs/PDPs from a
capture, ``validate`` a configuration against a channel, and ``report``
capture metadata.  ``estimate`` writes a snapshots × axis table, one row
per snapshot and delay (``pdp``, ``cir``) or occupied bin
(``response``), whose snapshot numbers and axis values are spelled once
per table.  It estimates, spells and writes the value columns one block
of snapshots at a time, in up to one process per usable core, with the
same bytes and no setting; each forked child adds about 4.0-5.8 MiB of
private memory at the default config.  A regular capture file is mapped,
not read (:func:`campaign.read_capture`): its pages are file-backed, in RSS
once touched but unseen by ``tracemalloc``.  Changing it in place while a
command reads it is undefined (the kernel may raise SIGBUS), replacing it by
rename is safe.  An ``--out`` that is a file the command reads (the capture,
``--calibration``, ``--config`` or ``--channel``) exits 3 before anything is
opened.

Exit codes: 0 success, 3 validation/configuration errors, 4 I/O errors,
5 malformed capture files.  Errors are emitted as a single JSON line on
stderr so callers can parse failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from . import campaign, floattext
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
from .errors import ConfigurationError, SounderError
from .estimator import (
    CalibrationProfile,
    apply_calibration,
    build_calibration,
    estimate_response,
    load_calibration,
    power_delay_profile,
    save_calibration,
    to_cir,
)
from .fixedpoint import BLOCK_LEN
from .sync import PpsSchedule
from .waveform import build_sounding_symbol, build_tx_frame

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_IO = 4


def _fail(category: str, message: str, code: int) -> int:
    print(json.dumps({"error": {"category": category, "message": message}}),
          file=sys.stderr)
    return code


def _emit(axis: dict, values: list, block, count: int, per: int, out_path: str, fmt: str):
    """Write ``count`` snapshots × an axis as CSV with a header row, or JSON-lines.

    A row holds its ``snapshot`` number, its values of the ``axis`` columns
    (each name mapped to int64 or float64 values of one length, one per row
    of a snapshot), then the float64 columns named in ``values``, which
    ``block(i)`` makes for snapshots ``i·per`` up to ``(i + 1)·per``, one
    snapshot's rows after another.  The snapshot numbers and the axis are
    spelled once per table, and the axis is laid into each share's row
    matrix once, with the separators.  Values are spelled with the tokens
    that ``csv.writer`` and ``json.dumps`` write: ``repr`` of each finite
    value (:func:`floattext.spell` for floats), and ``nan``, ``inf``,
    ``-inf`` in CSV or ``NaN``, ``Infinity``, ``-Infinity`` in JSON-lines.
    A block's rows are one NUL-padded byte matrix, written without its
    NULs.  Block 0 is made before the output is opened, even for no
    snapshots.  Contiguous shares of the blocks are made and written here
    and in forked children, whose temporary files are copied on in order;
    a failed child's message is raised here.
    """
    names = ["snapshot", *axis, *values]
    if fmt == "csv":
        header, special = ",".join(names) + "\r\n", ("nan", "inf")
        seps = [""] + [","] * (len(names) - 1) + ["\r\n"]
    else:  # json-lines
        header, special = "", ("NaN", "Infinity")
        seps = [f"{', ' if i else '{'}{json.dumps(n)}: " for i, n in enumerate(names)] + ["}\n"]

    def spell(v):  # a column's rows of text, as wide as its longest
        if v.dtype.kind == "f":
            return floattext.spell(v, *special)
        size = max(len(str(v.min(initial=0))), len(str(v.max(initial=0))))
        return v.astype(f"S{size}").view(np.uint8).reshape(len(v), size)

    def write(share, dest):
        # One row layout per table: the separators and the axis are laid out once.
        text = np.zeros((min(per, count), len(texts[-1]), ends[-1]), np.uint8)
        for sep, end in zip(seps, ends):
            text[..., end - len(sep):end] = np.frombuffer(sep.encode(), np.uint8)
        for t, at in zip(texts[1:], ends[1:]):
            text[..., at:at + t.shape[1]] = t
        flat, rows = text.reshape(-1), text.reshape(-1, ends[-1])
        for i in share:
            k = min(per, count - i * per)  # the block's snapshots
            text[:k, :, ends[0]:ends[0] + sizes[0]] = texts[0][i * per:i * per + k, None]
            n = k * text.shape[1]
            for c, at in zip(block(i) if i else first, ends[len(texts):]):
                floattext.spell(c, *special, out=rows[:n, at:at + floattext.WIDTH])
            written = flat[:n * ends[-1]]
            dest.write(written[written != 0])
        dest.flush()

    first = block(0)
    texts = [spell(v) for v in (np.arange(count), *axis.values())]
    sizes = [t.shape[1] for t in texts] + [floattext.WIDTH] * len(values)
    # Where each field starts, then where the row ends.
    ends = np.cumsum([len(sep) + size for sep, size in zip(seps, [0] + sizes)])
    with open(out_path, "wb") as fh, contextlib.ExitStack() as spools:
        fh.write(header.encode())
        # Forked, not threaded: the formatter's numpy calls on BLOCK_LEN values hold the GIL.
        blocks = -(-count // per)
        workers = min(campaign._usable_cores(), blocks) if hasattr(os, "fork") else 1
        shares, parent, children = np.array_split(range(blocks), max(workers, 1)), os.getpid(), []
        try:
            for share in shares[1:]:
                spool = spools.enter_context(tempfile.TemporaryFile())
                children.append((spool, os.fork()))
                if not children[-1][1]:  # a child: leaves by os._exit, never returns
                    write(share, spool)
                    os._exit(0)
            write(shares[0], fh)
        finally:
            if os.getpid() != parent:  # a child that failed: its message replaces its rows
                exc = sys.exc_info()[1]
                with contextlib.suppress(BaseException):
                    spool.seek(0)
                    message = f"{exc}" if isinstance(exc, OSError) else f"{exc!r}"
                    spool.write(message.encode())
                    spool.truncate()
                os._exit(2 - isinstance(exc, OSError))
            codes = [os.waitstatus_to_exitcode(os.waitpid(p, 0)[1]) for _, p in children]
        for (spool, _), code in zip(children, codes):
            spool.seek(0)
            if code:
                message = spool.read().decode() if code in (1, 2) else f"status {code}"
                raise (OSError if code == 1 else RuntimeError)(f"export child: {message}")
            shutil.copyfileobj(spool, fh)


def _responder(capture: Capture, calibration_path: str | None = None):
    """A function from a slice of the capture's snapshots to their
    responses, one per row, calibrated if a profile is given."""
    cfg = capture.config
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    profile = load_calibration(calibration_path) if calibration_path else None

    def respond(rows):
        snapshot = Snapshot(capture.snapshots[rows], 0, cfg.averager_config())
        block = estimate_response(snapshot, wf)
        return apply_calibration(block, profile) if profile else block
    return respond


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
        fh.write(frame)
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
    capture = read_capture(args.capture)
    respond, count = _responder(capture), len(capture.snapshots)
    per = max(1, BLOCK_LEN // capture.config.signal_len)  # snapshots per block
    # One block at a time; an empty capture is one empty block, whose
    # waveform is still checked.
    blocks = (respond(slice(i, i + per)) for i in range(0, max(count, 1), per))
    profile = build_calibration(blocks, threshold=args.threshold)
    save_calibration(args.out, profile)
    print(json.dumps({
        "snapshots": count,
        "occupied_bins": int(np.count_nonzero(profile.reference.occupied_mask)),
        "threshold": args.threshold,
    }))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    capture = read_capture(args.capture)
    cfg = capture.config
    respond = _responder(capture, args.calibration)
    per = max(1, BLOCK_LEN // cfg.signal_len)  # snapshots per block
    # Block 0 first: an unusable waveform or profile exits before any output.
    first = respond(slice(0, per))
    count = len(capture.snapshots)
    # A snapshot's rows: one per occupied bin (response) or per delay (pdp, cir).
    index = (np.flatnonzero(first.occupied_mask) if args.kind == "response"
             else np.arange(cfg.signal_len))

    def block(i):
        response = respond(slice(i * per, (i + 1) * per)) if i else first
        if args.kind == "response":
            values = response.bins[:, index].ravel()
            return [values.real, values.imag]
        cir = to_cir(response)
        if args.kind == "cir":
            return [cir.real.ravel(), cir.imag.ravel()]
        # Exported power is relative to each snapshot's strongest tap;
        # absolute reference levels are not calibrated.
        power_db = power_delay_profile(cir)
        power_db -= power_db.max(axis=-1, keepdims=True)
        return [power_db.ravel()]

    if args.kind == "response":
        axis = {"bin": index,
                "freq_offset_hz": np.fft.fftfreq(cfg.signal_len, d=cfg.sample_period_s)[index]}
    else:
        axis = {"delay_s": index * cfg.sample_period_s}
    values = ["power_rel_peak_db"] if args.kind == "pdp" else ["real", "imag"]
    _emit(axis, values, block, count, per, args.out, args.format)
    summary = {"rows": count * len(index), "out": args.out, "kind": args.kind}
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
    p.add_argument("--threshold", type=float, default=CalibrationProfile.threshold,
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
    try:  # opening --out would truncate an input, the mapped capture among them
        for name in ("capture", "calibration", "config", "channel"):
            if "out" in args and campaign._same_file(getattr(args, name, None), args.out):
                raise ConfigurationError(f"--out {args.out} is the {name} it reads")
        return args.func(args)
    except SounderError as exc:
        return _fail(exc.category, str(exc), exc.exit_code)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
