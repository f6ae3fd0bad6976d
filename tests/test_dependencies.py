"""The declared runtime dependencies are exactly the third-party modules the
package imports, so a dropped dependency cannot come back unnoticed."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spherecurv"


def _third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"spherecurv"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in project["dependencies"]}
    assert declared == _third_party_imports()


def test_cli_import_loads_no_scipy():
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spherecurv.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_sweeps_and_analyze_load_no_mpmath():
    """mpmath is imported only by the catalog checks and the root-finding
    fallback, which rational recover trials at height 1000 never reach;
    no identity's sweep imports it."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import contextlib, io, sys\n"
        "from spherecurv import IDENTITY_NAMES\n"
        "from spherecurv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for name in IDENTITY_NAMES:\n"
        "        main(['verify', '--identity', name, '--trials', '30'])\n"
        "    main(['analyze', '--surface', 'equator', '--samples', '20'])\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
