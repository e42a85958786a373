"""What a ``soundersim`` process loads, and how the suite reports a failure."""

import ast
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, soundersim, soundersim.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool_and_starts_no_thread(tmp_path):
    # run_campaign starts its worker threads with threading alone:
    # concurrent.futures would add its import time to every CLI start.
    code = ("import sys, threading, soundersim, soundersim.cli\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False 1"


def test_float_text_tables_stay_small():
    # The export's float formatter builds its tables when it is imported,
    # so every CLI start pays for them: together they stay within 64 KiB.
    from soundersim import floattext
    tables = [v for v in vars(floattext).values() if isinstance(v, np.ndarray)]
    assert tables and sum(t.nbytes for t in tables) <= 64 * 1024


def test_float_text_pass_stays_within_its_memory_budget():
    # One formatter pass over a block, written into the caller's rows, keeps
    # at most 2.3 MiB of temporaries traced, about one core's L2 on the
    # bench box, for its 192 KiB of text.
    from soundersim import floattext
    rng = np.random.default_rng(2901)
    values = rng.standard_normal(floattext.BLOCK_LEN) * 10.0 ** rng.integers(
        -20, 20, floattext.BLOCK_LEN)
    field = np.zeros((floattext.BLOCK_LEN, 31), np.uint8)[:, 5:5 + floattext.WIDTH]
    floattext.spell(values, out=field)
    tracemalloc.start()
    try:
        floattext.spell(values, out=field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * 2**20


def test_default_export_sends_no_lane_to_repr(monkeypatch, tmp_path):
    # floattext spells each rare lane with one repr call, about 6 x the
    # vectorized cost of a lane (25 x for a subnormal); an export's values
    # and axes, raw or calibrated by a noisy back-to-back capture, must not
    # reach them, or it silently slows down.
    from soundersim import campaign, cli, floattext
    from soundersim.channel import ChannelModel
    from soundersim.config import SounderConfig
    calls = []
    monkeypatch.setattr(floattext, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)  # no forked share
    paths = {}
    for name, taps in (("run", ((5, 0.8), (60, 0.4j), (170, -0.2 + 0.1j))), ("b2b", ((0, 1.0),))):
        capture = campaign.run_campaign(SounderConfig(num_snapshots=8),
                                        ChannelModel(taps=taps, noise_std=0.02, seed=3),
                                        created="2026-03-01T12:00:00+00:00")
        paths[name] = tmp_path / f"{name}.capture"
        campaign.write_capture(paths[name], capture)
    calibration = str(tmp_path / "calibration.json")
    assert cli.main(["calibrate", str(paths["b2b"]), "--out", calibration]) == 0
    for kind in ("pdp", "cir", "response"):
        for extra in ([], ["--calibration", calibration]):
            out = tmp_path / f"{kind}.csv"
            assert cli.main(["estimate", str(paths["run"]), "--kind", kind,
                             "--out", str(out), *extra]) == 0
            assert out.stat().st_size > 0
    assert calls == []


def test_campaign_binds_no_oracle():
    # Tests and bench/ check run_campaign against these oracles; the
    # comparison only means something while the campaign calls none of them.
    from soundersim import campaign
    oracles = {"apply_channel", "run_state_machine", "step_state_machine"}
    assert not oracles & set(vars(campaign))


def test_campaign_has_no_second_quantizer_or_averager():
    # A noisy worker quantizes through fixedpoint.quantize_in_place and
    # averages through averager.select_and_average, so the rounding and
    # saturation rule and the shift-and-sum each stay in one place.
    source = (ROOT / "src" / "soundersim" / "campaign.py").read_text()
    rules = {"rint", "round", "around", "clip", "right_shift"}
    calls = [node.func.attr for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) == "np" and node.func.attr in rules]
    assert calls == []


def test_floattext_calls_no_where():
    # The formatter selects between candidates with masked arithmetic: on a
    # block of 8192 values np.where costs several times an add or a xor.
    source = (ROOT / "src" / "soundersim" / "floattext.py").read_text()
    calls = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) == "np" and node.func.attr == "where"]
    assert calls == []


def test_campaign_binds_no_snapshot():
    # A capture holds one (N, signal_len) block: campaign never wraps a row
    # in a Snapshot, so it has no use for the name.
    from soundersim import campaign
    assert "Snapshot" not in vars(campaign)


def _caches(source: str) -> dict[int, bool]:
    """Line of each functools cache in ``source``: is it bounded?

    Bounded is an ``lru_cache`` called with an integer ``maxsize``;
    ``functools.cache`` never is."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.update({node.lineno: False for a in node.names if a.name == "cache"})
        of_functools = (isinstance(node, ast.Attribute)
                        and getattr(node.value, "id", "") == "functools")
        name = node.attr if of_functools else getattr(node, "id", None)  # an ast.Name's id
        if of_functools and name == "cache":
            found[node.lineno] = False
        elif name == "lru_cache":
            call = calls.get(id(node))
            keywords = {k.arg: k.value for k in call.keywords} if call else {}
            size = keywords.get("maxsize", call.args[0] if call and call.args else None)
            found[node.lineno] = type(getattr(size, "value", None)) is int
    return found


@pytest.mark.parametrize("source, expected", [
    ("@functools.lru_cache(maxsize=16, typed=True)\ndef f(): pass", {1: True}),
    ("from functools import lru_cache\nf = lru_cache(8)(g)", {2: True}),
    ("@functools.lru_cache\ndef f(): pass", {1: False}),
    ("@functools.lru_cache()\ndef f(): pass", {1: False}),
    ("@functools.lru_cache(maxsize=None)\ndef f(): pass", {1: False}),
    ("@lru_cache(None)\ndef f(): pass", {1: False}),
    ("@functools.cache\ndef f(): pass", {1: False}),
    ("from functools import cache, partial", {1: False}),
    ("cache = {}\nself.cache.clear()", {}),
], ids=["maxsize-keyword", "maxsize-positional", "bare", "no-maxsize", "maxsize-none",
        "positional-none", "cache", "import-cache", "other-caches"])
def test_cache_scan(source, expected):
    assert _caches(source) == expected


def test_every_cache_in_the_package_is_bounded():
    # A cache keyed by configuration lives as long as the process: an
    # unbounded one keeps every configuration a long session has seen.
    caches = {f"{path.name}:{line}": bounded
              for path in sorted((ROOT / "src").rglob("*.py"))
              for line, bounded in _caches(path.read_text(encoding="utf-8")).items()}
    assert len(caches) >= 2 and all(caches.values()), caches


def test_cli_and_a_forked_export_load_no_process_pool(tmp_path):
    # The export forks its workers with os.fork alone: multiprocessing or
    # concurrent.futures would add their import time to every CLI start.
    code = ("import sys\n"
            "from soundersim import campaign, cli\n"
            "from soundersim.channel import ChannelModel\n"
            "from soundersim.config import SounderConfig\n"
            "from soundersim.waveform import ZcParams\n"
            "pools = lambda: sorted(m for m in sys.modules\n"
            "    if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "print(pools())\n"
            "cfg = SounderConfig(signal_len=64, discard_len=128, avg_count=4,\n"
            "    shift_bits=2, rep_period_s=1e-3, sample_period_s=1.0 / 512_000,\n"
            "    zc=ZcParams(51, 2), num_snapshots=3)\n"
            "campaign.write_capture('run.capture', campaign.run_campaign(\n"
            "    cfg, ChannelModel(taps=((0, 1.0),)), created='2026-03-01T12:00:00+00:00'))\n"
            "campaign._usable_cores = lambda: 2\n"
            "cli.BLOCK_LEN = 16\n"
            "assert cli.main(['estimate', 'run.capture', '--out', 'pdp.csv']) == 0\n"
            "print(pools())\n")
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len((tmp_path / "pdp.csv").read_text().splitlines()) == 1 + 3 * 64


def test_python_m_soundersim_runs_the_cli(tmp_path, capsys):
    from soundersim import campaign, cli
    from soundersim.channel import ChannelModel
    from soundersim.config import SounderConfig
    from soundersim.waveform import ZcParams
    cfg = SounderConfig(signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
                        rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
                        zc=ZcParams(51, 2), num_snapshots=3)
    capture = tmp_path / "run.capture"
    campaign.write_capture(capture, campaign.run_campaign(
        cfg, ChannelModel(taps=((0, 1.0),)), created="2026-03-01T12:00:00+00:00"))
    proc = _run(["-m", "soundersim", "report", str(capture)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["report", str(capture)]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert json.loads(proc.stdout)["snapshots"] == 3


def test_failing_property_test_is_reported(tmp_path):
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    proc = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                 str(tmp_path / "test_two.py")], tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
