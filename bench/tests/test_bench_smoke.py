"""Smoke test of the benchmark at a tiny instrument size.

Run from the root of a checkout::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from soundersim import campaign, channel  # noqa: E402
from soundersim.config import SounderConfig  # noqa: E402
from soundersim.waveform import ZcParams  # noqa: E402
from tracing import Tracer  # noqa: E402

#: 64-sample symbols, 4-fold averaging, 1000-sample frames.
TINY = SounderConfig(signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
                     zc=ZcParams(length=51, root=7), sample_period_s=5e-6,
                     num_snapshots=2)
PINNED = ("payload_sha256_pinned", "golden_export_sha256_pinned")


def drive(workload, workdir: Path, iterations: int = 2) -> dict[str, bool]:
    workload.setup(workdir)
    for _ in range(iterations):
        assert workload.iteration() > 0
        workload.after_iteration()
    return workload.gates(workdir)


def unpinned(gates: dict[str, bool]) -> dict[str, bool]:
    return {name: ok for name, ok in gates.items() if not name.endswith(PINNED)}


@pytest.mark.parametrize("noisy", [True, False])
def test_sim_gates_pass_at_tiny_size(tmp_path, noisy):
    name = "sim_multipath_noisy" if noisy else "sim_b2b_clean"
    gates = drive(workloads.SimWorkload(name, 3, noisy=noisy, cfg=TINY), tmp_path)
    assert gates and all(unpinned(gates).values()), gates
    assert any(name.startswith("second_seed.") for name in gates)


def test_export_gates_pass_at_tiny_size(tmp_path):
    gates = drive(workloads.ExportWorkload(3, cfg=TINY, count=4, cal_count=2), tmp_path)
    assert all(unpinned(gates).values()), gates


def test_tap_gate_rejects_wrong_gains(tmp_path):
    workload = workloads.SimWorkload("sim_multipath_noisy", 3, noisy=True, cfg=TINY)
    drive(workload, tmp_path, iterations=1)
    taps = tuple((d, -g) for d, g in workload.model.taps)
    wrong = channel.ChannelModel(taps=taps, noise_std=workload.model.noise_std,
                                 interferers=workload.model.interferers)
    assert not workloads.tap_gains_within_tolerance(workload.capture_path, TINY, wrong)


def test_tracer_spans_counts_and_restore(tmp_path):
    workload = workloads.SimWorkload("sim_multipath_noisy", 3, noisy=True, cfg=TINY)
    workload.setup(tmp_path)
    original = campaign.apply_channel
    tracer = Tracer()
    tracer.install()
    try:
        assert campaign.apply_channel is not original
        workload.iteration()
    finally:
        tracer.uninstall()
    assert campaign.apply_channel is original is channel.apply_channel

    names = {span[0] for span in tracer.spans}
    assert {"campaign.run_campaign", "channel.apply_channel", "channel.propagate_float",
            "fixedpoint.quantize_clipped", "averager.select_and_average",
            "campaign.write_capture", "sync.receiver_offset"} <= names
    counts = tracer.counts["body"]
    # run_campaign propagates the frame plus its wrapped tail, and
    # propagate_float keeps the full convolution tail: two max_delays.
    per_snapshot = TINY.frame_len + 2 * workload.model.max_delay
    assert counts["channel.samples_propagated"] == TINY.num_snapshots * per_snapshot
    assert counts["averager.samples_averaged"] == TINY.num_snapshots * 4 * 64

    times = tracer.self_times("body")
    run_span = next(s for s in tracer.spans if s[0] == "campaign.run_campaign")
    assert sum(times["self"].values()) == pytest.approx(
        sum(end - start for name, start, end, parent, _ in tracer.spans if parent == -1))
    assert times["exclusive"]["campaign.run_campaign"] < run_span[2] - run_span[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_b2b_clean", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


def test_command_prints_result_line():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_b2b_clean", "--seed", "5",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(run.END_TO_END)
