#!/usr/bin/env python3
"""soundersim benchmark: one workload per process, timed from outside.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sim_multipath_noisy --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``; the timed body repeats
for ``--seconds``; the correctness gates run afterwards, on the seed
and again on a second seed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` (gates) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it holds
the details: iteration times, gate results, versions and core count.
See ``bench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sim_multipath_noisy", "sim_b2b_clean", "estimate_export")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "snapshots_per_s": "1/s",
    "peak_mem_mb": "MiB",
    "setup_s": "s",
}

_S = "s/snapshot"
_N = "count/snapshot"
_B = "B/snapshot"

#: Per-layer metrics of the traced run: name -> (unit, source, key), all
#: per snapshot of the timed body.  ``function`` is a function's time minus
#: the spans of other layers it called; ``layer`` the self time of all
#: spans of one layer; ``count`` a counter; ``calls`` a span count.
PER_LAYER = {
    "channel.propagate_float_s": (_S, "function", "channel.propagate_float"),
    "channel.samples_propagated": (_N, "count", "channel.samples_propagated"),
    "fixedpoint.quantize_clipped_s": (_S, "function", "fixedpoint.quantize_clipped"),
    "fixedpoint.to_float_s": (_S, "function", "fixedpoint.to_float"),
    "fixedpoint.components_clipped": (_N, "count", "fixedpoint.components_clipped"),
    "averager.select_and_average_s": (_S, "function", "averager.select_and_average"),
    "averager.samples_averaged": (_N, "count", "averager.samples_averaged"),
    "averager.run_state_machine_s": (_S, "oracle", "averager.run_state_machine"),
    "waveform.build_sounding_symbol_s": (_S, "function", "waveform.build_sounding_symbol"),
    "waveform.build_tx_frame_s": (_S, "function", "waveform.build_tx_frame"),
    "sync.receiver_offset_calls": (_N, "calls", "sync.receiver_offset"),
    "config.calls": (_N, "calls", "config."),
    "campaign.run_campaign_self_s": (_S, "function", "campaign.run_campaign"),
    "campaign.write_capture_s": (_S, "function", "campaign.write_capture"),
    "campaign.bytes_written": (_B, "count", "campaign.bytes_written"),
    "campaign.read_capture_s": (_S, "function", "campaign.read_capture"),
    "campaign.bytes_read": (_B, "count", "campaign.bytes_read"),
    "estimator.estimate_response_s": (_S, "function", "estimator.estimate_response"),
    "estimator.to_cir_s": (_S, "function", "estimator.to_cir"),
    "estimator.power_delay_profile_s": (_S, "function", "estimator.power_delay_profile"),
    "estimator.build_calibration_s": (_S, "function", "estimator.build_calibration"),
    "estimator.apply_calibration_s": (_S, "function", "estimator.apply_calibration"),
    "cli.estimate_self_s": (_S, "function", "cli.estimate"),
    "cli.rows_emitted": (_N, "count", "cli.rows_emitted"),
    "cli.bytes_emitted": (_B, "count", "cli.bytes_emitted"),
    **{f"{layer}.self_s": (_S, "layer", layer) for layer in (
        "waveform", "fixedpoint", "averager", "channel", "sync",
        "estimator", "campaign", "cli", "config")},
    "trace.wall_s": (_S, "wall", "traced"),
    "trace.overhead_s": (_S, "wall", "overhead"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_thread_pools() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; return it."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def timed_loop(workload, seconds: float) -> tuple[list[float], list[int]]:
    """Run iterations until ``seconds`` have passed (at least one)."""
    times, snapshots = [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        snapshots.append(workload.iteration())
        times.append(time.perf_counter() - start)
        workload.after_iteration()
    return times, snapshots


def layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    """Per-layer metrics per snapshot of the traced body."""
    snaps = sum(traced[1])
    times = tracer.self_times("body")
    counts = tracer.counts["body"]
    calls = tracer.calls("body")
    oracle_time = tracer.self_times("gates")["exclusive"]
    oracle_calls = tracer.calls("gates")
    traced_wall = sum(traced[0]) / snaps
    walls = {"traced": traced_wall,
             "overhead": traced_wall - sum(untraced[0]) / sum(untraced[1])}
    values = {}
    for name, (_, source, key) in PER_LAYER.items():
        if source == "function":
            values[name] = times["exclusive"].get(key, 0.0) / snaps
        elif source == "count":
            values[name] = counts.get(key, 0) / snaps
        elif source == "calls":
            values[name] = sum(n for span, n in calls.items() if span.startswith(key)) / snaps
        elif source == "layer":
            values[name] = sum(t for span, t in times["self"].items()
                               if span.split(".")[0] == key) / snaps
        elif source == "oracle":
            n = oracle_calls.get(key, 0)
            values[name] = oracle_time.get(key, 0.0) / n if n else 0.0
        else:
            values[name] = walls[key]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "soundersim" / "__init__.py").is_file():
        print(f"error: no soundersim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = cap_thread_pools()
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy
    import soundersim
    import workloads
    from tracing import Tracer

    if Path(soundersim.__file__).resolve().parent != ROOT / "src" / "soundersim":
        print(f"error: imported soundersim from {soundersim.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.make_workload(args.workload, args.seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(workdir)
            setup_times.append(time.perf_counter() - start)

        tracer = None
        if args.trace:
            untraced = timed_loop(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(workload, args.seconds / 2)
                tracer.phase = "gates"
                gates = workload.gates(workdir)
            finally:
                tracer.uninstall()
            times, snapshots = untraced[0] + traced[0], untraced[1] + traced[1]
        else:
            times, snapshots = timed_loop(workload, args.seconds)
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            gates = workload.gates(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for ok in gates.values() if not ok)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "second_seed": workloads.second_seed(args.seed),
        "trace": args.trace,
        "iterations": len(times),
        "snapshots": sum(snapshots),
        "iteration_s": times,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "gates": gates,
        "failed_fraction": failed / len(gates),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "cores": cores},
        "accuracy": "unvalidated: no hardware reference results in the repository",
    }
    if tracer is not None:
        out_dir = BENCH_DIR / ".out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        values = layer_metrics(tracer, traced, untraced)
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        values = {
            "snapshots_per_s": statistics.median(
                n / t for n, t in zip(snapshots, times)),
            "peak_mem_mb": peak_mib,
            "setup_s": import_s + statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(gates),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
