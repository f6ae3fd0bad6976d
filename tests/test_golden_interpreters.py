"""The golden bits on every other CPython >= 3.10 found here: check_golden.py
run under each, one after another."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MINORS = range(10, 20)
_VERSION = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"


def _candidates():
    """Interpreters next to sys.executable in a pyenv-style versions/ tree,
    then the python3 names on PATH."""
    versions = Path(sys.executable).resolve().parent.parent.parent
    yield from sorted(map(str, versions.glob("*/bin/python3")))
    for name in ["python3"] + [f"python3.{m}" for m in MINORS]:
        if found := shutil.which(name):
            yield found


def _other_cpythons():
    """{(major, minor): path}, the first interpreter found for each CPython
    minor version from 3.10 on other than the running one. One that cannot
    print its version (a pyenv shim of a missing version) is absent."""
    found = {}
    for exe in _candidates():
        try:
            proc = subprocess.run([exe, "-c", _VERSION], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 4 or words[0] != "CPython":
            continue
        minor = (int(words[1]), int(words[2]))
        if minor >= (3, 10) and minor != sys.version_info[:2]:
            found.setdefault(minor, exe)
    return found


def test_check_golden_prints_only_ok_lines_under_every_other_interpreter():
    interpreters = _other_cpythons()
    if not interpreters:
        looked_for = ", ".join(f"3.{m}" for m in MINORS if (3, m) != sys.version_info[:2])
        pytest.skip(f"no other CPython found; looked for {looked_for}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for minor, exe in sorted(interpreters.items()):
        proc = subprocess.run(
            [exe, str(TESTS / "check_golden.py")], capture_output=True, text=True, env=env, timeout=120
        )
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, (exe, proc.stdout, proc.stderr)
        assert lines and all(line.endswith(": ok") for line in lines), (exe, proc.stdout)
