"""The README's Python API examples run and print what their comments say,
and its command-line walkthrough runs as written."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import soundersim
from soundersim.channel import load_channel
from soundersim.cli import main
from soundersim.config import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
JSON_FILES = dict(re.findall(r"^cat > (\w+\.json) <<'EOF'\n(.*?)^EOF$", README,
                             flags=re.M | re.S))
SHELL = "\n".join(re.findall(r"^```sh\n(.*?)^```", README, flags=re.M | re.S))
# Every "soundersim ..." line of the shell blocks, with "\" continuations joined.
COMMANDS = [shlex.split(line)[1:] for line in SHELL.replace("\\\n", " ").splitlines()
            if line.startswith("soundersim ")]


def test_python_blocks_print_their_commented_output():
    # Blocks share one namespace, as a reader running them in order would.
    namespace = {}
    printed, expected = [], []
    for block in BLOCKS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), namespace)
        printed += out.getvalue().splitlines()
        # "print(x)  # shown: remark" expects the line "shown".
        expected += [comment.split(": ")[0] for comment in
                     re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.M)]
    assert expected == ["[1.-0.j  0.+0.5j]", "(1024,) (10, 1024)", "(10, 2)"]
    assert printed == expected


def test_readme_imports_are_package_exports():
    imports = re.findall(r"^from soundersim\.(\w+) import (.+)$", README, flags=re.M)
    assert imports
    for module, names in imports:
        for name in (n.strip() for n in names.split(",")):
            assert hasattr(importlib.import_module(f"soundersim.{module}"), name)
            assert name in soundersim.__all__, name


def test_walkthrough_json_files_load(tmp_path):
    # A walkthrough file the strict readers reject would fail for every
    # reader who copies it.
    loaders = {"config.json": load_config, "channel.json": load_channel,
               "cable.json": load_channel}
    assert set(JSON_FILES) == set(loaders)
    for name, text in JSON_FILES.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        loaders[name](path)


def test_walkthrough_commands_exit_0_and_write_their_outputs(tmp_path, monkeypatch):
    # Run in order, in a directory holding the walkthrough's JSON files, as a
    # reader pasting the shell block would.
    assert [argv[0] for argv in COMMANDS] == ["validate", "generate", "simulate", "report",
                                              "estimate", "simulate", "calibrate", "estimate"]
    for name, text in JSON_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        outputs = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--out"]
        assert all((tmp_path / out).stat().st_size for out in outputs), argv
