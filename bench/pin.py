#!/usr/bin/env python3
"""Print the digests the benchmark pins, as the JSON of ``pins.json``.

Run from the root of a checkout::

    python3 bench/pin.py > bench/pins.json

Re-pin only when a change alters capture or export bytes on purpose,
and say in the change which bytes moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from soundersim import campaign  # noqa: E402

#: Seed of the reference input whose exported bytes are pinned.
GOLDEN_SEED = 0


def main() -> int:
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        tmp = Path(tmp)
        b2b = workloads.SimWorkload("sim_b2b_clean", 0, noisy=False)
        cfg, model, schedule = b2b.inputs(0)
        path = tmp / "b2b.capture"
        campaign.write_capture(path, campaign.run_campaign(
            cfg, model, schedule, created=workloads.CREATED))
        _, payload = workloads.capture_parts(path)

        _, codes = workloads.export_once(GOLDEN_SEED, cfg, workloads.GATE_SNAPSHOTS,
                                         workloads.GATE_CALIBRATION_SNAPSHOTS, tmp)
        if codes != [0] * len(codes):
            print(f"error: export exit codes {codes}", file=sys.stderr)
            return 1
        export = {p.name: workloads.sha256_file(p) for p in workloads.export_files(tmp)}
    pins = {
        "sim_b2b_clean": {"payload_sha256": hashlib.sha256(payload).hexdigest()},
        "estimate_export": {"seed": GOLDEN_SEED, "sha256": export},
    }
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
