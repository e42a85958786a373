"""What a ``soundersim`` process loads, and how the suite reports a failure."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

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
