"""The three benchmark workloads: inputs from a seed, timed body, gates.

Every workload runs the default instrument configuration (500 MS/s,
2.5 M-sample frame, 64 x 1024 averaging).  A workload is driven by
``run.py`` in four steps: :meth:`setup` (repeated, timed as set-up),
:meth:`iteration` (the timed body, repeated for the run length),
:meth:`after_iteration` (untimed bookkeeping between iterations) and
:meth:`gates` (correctness checks after timing).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np

from soundersim import averager, campaign, channel, cli, config, estimator, fixedpoint
from soundersim import sync, waveform
from tracing import count_lines

#: Fixed capture timestamp, so capture bytes depend only on the inputs.
CREATED = "2026-01-01T00:00:00+00:00"

#: Snapshots per simulated campaign: the unit of the sim workloads' run.
SIM_SNAPSHOTS = 4

#: estimate_export input sizes: measurement capture and calibration capture.
EXPORT_SNAPSHOTS = 256
CALIBRATION_SNAPSHOTS = 32

#: The smaller sizes of the pinned reference export and the second-seed gates.
GATE_SNAPSHOTS = 8
GATE_CALIBRATION_SNAPSHOTS = 4

#: Gaussian tail factor of the tap-gain tolerance (false alarm ~ exp(-Z**2)).
TOLERANCE_Z = 6.0

#: Flank indices are drawn from one day of PPS flanks.
FLANKS_PER_DAY = 86_400

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def second_seed(seed: int) -> int:
    """The seed on which every gate is run a second time."""
    return seed + 1_000_003


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def capture_parts(path) -> tuple[dict, bytes]:
    """Header dict and raw payload of a capture file (CSND layout)."""
    raw = Path(path).read_bytes()
    prologue = struct.Struct("<4sHI")
    _, _, header_len = prologue.unpack_from(raw)
    header_end = prologue.size + header_len
    return json.loads(raw[prologue.size:header_end]), raw[header_end:]


def multipath_taps(rng: np.random.Generator, cfg: config.SounderConfig):
    """Three taps spread over up to a couple of hundred samples.

    The first arrival fits the discard window and consecutive taps are
    at least ``step_min`` apart, so the band-limit kernel system that
    reads the gains back stays well conditioned.
    """
    first_max = min(32, cfg.discard_len - cfg.signal_len)
    step_max = min(100, cfg.signal_len // 8)
    step_min = max(2, step_max // 6)
    d0 = int(rng.integers(0, first_max + 1))
    d1 = d0 + int(rng.integers(step_min, step_max + 1))
    d2 = d1 + int(rng.integers(step_min, step_max + 1))
    magnitudes = (0.8, rng.uniform(0.3, 0.5), rng.uniform(0.1, 0.25))
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    gains = [m * np.exp(1j * p) for m, p in zip(magnitudes, phases)]
    return tuple(zip((d0, d1, d2), gains))


def flank_schedule(rng: np.random.Generator, cfg: config.SounderConfig):
    tx, rx = (int(f) for f in rng.integers(0, FLANKS_PER_DAY, 2))
    return sync.PpsSchedule(rep_period_s=cfg.rep_period_s,
                            sample_period_s=cfg.sample_period_s,
                            tx_start_flank=tx, rx_start_flank=rx)


def noisy_channel(seed: int, cfg: config.SounderConfig) -> channel.ChannelModel:
    """3-tap channel, AWGN and one asynchronous CW interferer."""
    rng = np.random.default_rng([seed, 1])
    taps = multipath_taps(rng, cfg)
    # Between 0.2 and 0.8 of a bin off the symbol grid, so averaging
    # suppresses the tone (by at least 30 dB at the default 64 x 1024).
    freq = (int(rng.integers(8, cfg.signal_len // 3)) + rng.uniform(0.2, 0.8)) / cfg.signal_len
    tone = channel.Interferer(freq=freq, amplitude=0.05,
                              phase=float(rng.uniform(0.0, 2.0 * np.pi)))
    return channel.ChannelModel(taps=taps, noise_std=0.02, interferers=(tone,),
                                seed=int(rng.integers(0, 2**63)))


def cable_channel(seed: int) -> channel.ChannelModel:
    """Back-to-back cable: one direct tap, no noise, no interferer."""
    return channel.ChannelModel(taps=((0, 1.0),), seed=seed)


def tap_tolerance(cfg, wf, model, delays) -> np.ndarray:
    """Largest error of each gain :func:`estimator.read_tap_gains` returns.

    The estimate is ``K^-1 h`` with ``K`` the band-limit kernel at the
    tap delays and ``h`` the impulse response read at those delays.
    Two error terms, in full-scale units:

    * noise: AWGN of ``noise_std`` per component, averaged over
      ``avg_count`` symbols, has per-bin variance ``2 s^2 L`` with
      ``s^2 = noise_std^2 / avg_count``; divided by the occupied bin
      magnitude ``A`` and transformed back it gives gain variance
      ``(2 s^2 / A^2) [K^-1]_ii``.  The bound is ``TOLERANCE_Z`` of
      its standard deviations.
    * deterministic: any per-sample error of magnitude at most ``e``
      moves ``h`` by at most ``sqrt(occupied) e / A`` (Cauchy-Schwarz),
      so a gain by at most ``sum_j |K^-1_ij|`` times that.  ``e`` sums
      each interferer's amplitude times its closed-form averaging
      suppression, the shift-truncation floor (at most ``2**shift_bits``
      LSB per component after rescaling), receive rounding (half an
      LSB) and transmit rounding (half an LSB through every tap).
    """
    delays = np.asarray(delays)
    mask = wf.occupied_mask
    occupied = int(np.count_nonzero(mask))
    amplitude = float(np.abs(wf.freq_bins[mask]).min())
    kernel = estimator.band_limit_kernel(mask)
    matrix = kernel[np.mod(delays[:, None] - delays[None, :], cfg.signal_len)]
    inverse = np.linalg.inv(matrix)

    s2 = model.noise_std**2 / cfg.avg_count
    noise = TOLERANCE_Z * np.sqrt(2.0 * s2 / amplitude**2 * np.diag(inverse).real)

    tones = sum(t.amplitude * estimator.averaging_suppression(
        t.freq, cfg.signal_len, cfg.avg_count) for t in model.interferers)
    gain_sum = sum(abs(g) for _, g in model.taps)
    rounding = np.sqrt(2.0) * fixedpoint.LSB * (2**cfg.shift_bits + 0.5 + 0.5 * gain_sum)
    per_sample = tones + rounding
    deterministic = np.abs(inverse).sum(axis=1) * np.sqrt(occupied) * per_sample / amplitude
    return noise + deterministic


def payload_snapshots(path, cfg) -> list[averager.Snapshot]:
    """The snapshots of a capture file, read from its payload bytes."""
    _, payload = capture_parts(path)
    data = np.frombuffer(payload, dtype=fixedpoint.SAMPLE_DTYPE).reshape(-1, cfg.signal_len)
    acfg = cfg.averager_config()
    return [averager.Snapshot(data=row.copy(), snapshot_index=k, config=acfg)
            for k, row in enumerate(data)]


def tap_gains_within_tolerance(path, cfg, model) -> bool:
    """Every snapshot's gains at the known delays are within tolerance."""
    wf = waveform.build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    delays = [d for d, _ in model.taps]
    truth = np.array([g for _, g in model.taps])
    tolerance = tap_tolerance(cfg, wf, model, delays)
    for snap in payload_snapshots(path, cfg):
        cir = estimator.to_cir(estimator.estimate_response(snap, wf))
        gains = estimator.read_tap_gains(cir, wf.occupied_mask, delays)
        if np.any(np.abs(gains - truth) > tolerance):
            return False
    return True


def oracle_snapshot(cfg, model, schedule) -> np.ndarray:
    """Snapshot 0 rebuilt through apply_channel and the cycle model.

    Only the samples the averager reads are propagated: for a noiseless,
    tone-free channel they are bit-identical to the full frame's.
    """
    wf = waveform.build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = np.roll(waveform.build_tx_frame(wf, cfg), sync.receiver_offset(schedule))
    tail = model.max_delay
    acfg = cfg.averager_config()
    segment = np.concatenate([frame[cfg.frame_len - tail:], frame[:acfg.window_len]])
    received = channel.apply_channel(segment, model, start_index=-tail)
    stream = received.samples[tail:tail + acfg.window_len]
    return averager.run_state_machine(stream, acfg).data


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class SimWorkload:
    """``run_campaign`` then ``write_capture``, in process.

    ``noisy`` selects the multipath channel with AWGN and an interferer
    (``sim_multipath_noisy``); otherwise the back-to-back cable
    (``sim_b2b_clean``).
    """

    def __init__(self, name: str, seed: int, noisy: bool,
                 cfg: config.SounderConfig | None = None) -> None:
        self.name = name
        self.seed = seed
        self.noisy = noisy
        self.base_cfg = cfg or config.SounderConfig(num_snapshots=SIM_SNAPSHOTS)
        self.digests: list[str] = []

    def inputs(self, seed: int):
        cfg = self.base_cfg
        model = noisy_channel(seed, cfg) if self.noisy else cable_channel(seed)
        schedule = flank_schedule(np.random.default_rng([seed, 2]), cfg)
        return cfg, model, schedule

    def setup(self, workdir: Path) -> None:
        """Write the config and channel files and load them back."""
        cfg, model, self.schedule = self.inputs(self.seed)
        config.save_config(workdir / "config.json", cfg)
        channel.save_channel(workdir / "channel.json", model)
        self.cfg = config.load_config(workdir / "config.json")
        self.model = channel.load_channel(workdir / "channel.json")
        self.capture_path = workdir / "run.capture"

    def iteration(self) -> int:
        capture = campaign.run_campaign(self.cfg, self.model, self.schedule, created=CREATED)
        campaign.write_capture(self.capture_path, capture)
        return self.cfg.num_snapshots

    def after_iteration(self) -> None:
        self.digests.append(sha256_file(self.capture_path))

    def _gates_for(self, label, path, cfg, model, schedule, pins) -> dict[str, bool]:
        if self.noisy:
            return {f"{label}tap_gains_within_tolerance":
                    tap_gains_within_tolerance(path, cfg, model)}
        header, payload = capture_parts(path)
        record = cfg.signal_len * fixedpoint.SAMPLE_DTYPE.itemsize
        oracle = oracle_snapshot(cfg, model, schedule)
        return {
            f"{label}payload_sha256_pinned":
                hashlib.sha256(payload).hexdigest() == pins["payload_sha256"],
            f"{label}snapshot0_matches_state_machine": payload[:record] == oracle.tobytes(),
            f"{label}zero_clipped_components": header["clipped_components"] == 0,
        }

    def gates(self, workdir: Path) -> dict[str, bool]:
        pins = None if self.noisy else load_pins()[self.name]
        result = {"capture_bytes_repeat": len(set(self.digests)) == 1}
        result.update(self._gates_for("", self.capture_path, self.cfg, self.model,
                                      self.schedule, pins))
        cfg, model, schedule = self.inputs(second_seed(self.seed))
        if self.noisy:  # one snapshot is enough to re-check the tolerance
            cfg = dataclasses.replace(cfg, num_snapshots=1)
        path = workdir / "second_seed.capture"
        campaign.write_capture(path, campaign.run_campaign(cfg, model, schedule,
                                                           created=CREATED))
        result.update(self._gates_for("second_seed.", path, cfg, model, schedule, pins))
        return result


def export_inputs(seed: int, cfg: config.SounderConfig, count: int, cal_count: int,
                  workdir: Path) -> tuple[channel.ChannelModel, Path, Path]:
    """Write a measurement capture and a calibration capture.

    The snapshots are synthesized, not simulated: each is the transmit
    symbol through the seed's circular 3-tap channel plus Gaussian noise
    at the averaged level (``noise_std / sqrt(avg_count)``), scaled and
    quantized as the averager stores it.  That is the averager's output
    in distribution, costs about 0.1 ms per snapshot, and keeps this
    workload's inputs independent of the simulation layers.
    """
    rng = np.random.default_rng([seed, 3])
    taps = multipath_taps(rng, cfg)
    model = channel.ChannelModel(taps=taps, noise_std=0.02,
                                 seed=int(rng.integers(0, 2**63)))
    wf = waveform.build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    symbol = fixedpoint.to_float(fixedpoint.quantize(wf.time_signal))
    scale = cfg.avg_count / 2**cfg.shift_bits
    sigma = model.noise_std / np.sqrt(cfg.avg_count)
    acfg = cfg.averager_config()

    def write(path, received, n, digest):
        noise = sigma * (rng.standard_normal((n, cfg.signal_len))
                         + 1j * rng.standard_normal((n, cfg.signal_len)))
        data, clipped = fixedpoint.quantize_clipped((received + noise) * scale)
        capture = campaign.Capture(
            config=dataclasses.replace(cfg, num_snapshots=n), channel_digest=digest,
            prng="pcg64", seed=model.seed, created=CREATED, clipped_components=clipped,
            snapshots=[averager.Snapshot(data=row, snapshot_index=k, config=acfg)
                       for k, row in enumerate(data)])
        campaign.write_capture(path, capture)

    received = sum(g * np.roll(symbol, d) for d, g in taps)
    write(workdir / "run.capture", received, count, channel.channel_digest(model))
    cable = cable_channel(model.seed)
    write(workdir / "cal.capture", symbol, cal_count, channel.channel_digest(cable))
    return model, workdir / "run.capture", workdir / "cal.capture"


#: The fixed command mix of one estimate_export iteration:
#: (output file, CLI arguments after the capture path).
EXPORT_MIX = (
    ("pdp.csv", ["--kind", "pdp", "--format", "csv"]),
    ("cir.jsonl", ["--kind", "cir", "--format", "json-lines"]),
    ("response.csv", ["--kind", "response", "--format", "csv", "--calibration"]),
)


def run_export(run_capture: Path, cal_capture: Path, outdir: Path) -> list[int]:
    """``calibrate`` then the three ``estimate`` commands; exit codes."""
    cal = str(outdir / "calibration.json")
    codes = [cli.main(["calibrate", str(cal_capture), "--out", cal])]
    for out, args in EXPORT_MIX:
        if args[-1] == "--calibration":
            args = args + [cal]
        codes.append(cli.main(["estimate", str(run_capture), *args,
                               "--out", str(outdir / out)]))
    return codes


def export_once(seed: int, cfg, count: int, cal_count: int, outdir: Path):
    """Make the inputs for ``seed`` in ``outdir`` and export them there.

    Returns the channel model and the four exit codes.
    """
    model, run_capture, cal_capture = export_inputs(seed, cfg, count, cal_count, outdir)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = run_export(run_capture, cal_capture, outdir)
    return model, codes


def export_files(outdir: Path) -> list[Path]:
    return [outdir / "calibration.json"] + [outdir / out for out, _ in EXPORT_MIX]


class ExportWorkload:
    """In-process ``cli.main``: calibrate, then estimate pdp, cir, response."""

    name = "estimate_export"

    def __init__(self, seed: int, cfg: config.SounderConfig | None = None,
                 count: int = EXPORT_SNAPSHOTS, cal_count: int = CALIBRATION_SNAPSHOTS) -> None:
        self.seed = seed
        self.cfg = cfg or config.SounderConfig()
        self.count = count
        self.cal_count = cal_count
        self.digests: list[tuple[str, ...]] = []
        self.codes: list[int] = []

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.model, self.run_capture, self.cal_capture = export_inputs(
            self.seed, self.cfg, self.count, self.cal_count, workdir)

    def iteration(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            self.codes += run_export(self.run_capture, self.cal_capture, self.workdir)
        return self.cal_count + len(EXPORT_MIX) * self.count

    def after_iteration(self) -> None:
        self.digests.append(tuple(sha256_file(p) for p in export_files(self.workdir)))

    def _content_gates(self, label, outdir, model, count) -> dict[str, bool]:
        """Row counts and the PDP peak at the strongest tap."""
        cfg = self.cfg
        occupied = cfg.zc.length
        lines = [count_lines(p) for p in export_files(outdir)[1:]]
        pdp = np.loadtxt(outdir / "pdp.csv", delimiter=",", skiprows=1)
        power = pdp[:, 2].reshape(count, cfg.signal_len)
        strongest = max(model.taps, key=lambda tap: abs(tap[1]))[0]
        return {
            f"{label}row_counts_exact":
                lines == [count * cfg.signal_len + 1, count * cfg.signal_len,
                          count * occupied + 1],
            f"{label}pdp_peak_at_strongest_tap":
                bool(np.all(np.argmax(power, axis=1) == strongest)),
        }

    def gates(self, workdir: Path) -> dict[str, bool]:
        result = {
            "cli_exit_codes_zero": all(code == 0 for code in self.codes),
            "export_bytes_repeat": len(set(self.digests)) == 1,
        }
        result.update(self._content_gates("", self.workdir, self.model, self.count))

        pins = load_pins()[self.name]
        golden = workdir / "golden"
        golden.mkdir()
        _, codes = export_once(pins["seed"], self.cfg, GATE_SNAPSHOTS,
                               GATE_CALIBRATION_SNAPSHOTS, golden)
        result["golden_export_sha256_pinned"] = codes == [0] * 4 and all(
            sha256_file(golden / name) == digest for name, digest in pins["sha256"].items())

        second = workdir / "second_seed"
        second.mkdir()
        model, codes = export_once(second_seed(self.seed), self.cfg, GATE_SNAPSHOTS,
                                   GATE_CALIBRATION_SNAPSHOTS, second)
        result["second_seed.cli_exit_codes_zero"] = codes == [0] * 4
        result.update(self._content_gates("second_seed.", second, model, GATE_SNAPSHOTS))
        return result


def make_workload(name: str, seed: int):
    if name == "sim_multipath_noisy":
        return SimWorkload(name, seed, noisy=True)
    if name == "sim_b2b_clean":
        return SimWorkload(name, seed, noisy=False)
    if name == "estimate_export":
        return ExportWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
