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


def _env() -> dict:
    """This environment with src/ first on PYTHONPATH, for a fresh interpreter."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in project["dependencies"]}
    assert declared == _third_party_imports()


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spherecurv.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_sweeps_and_analyze_load_no_mpmath():
    """mpmath is imported only by the catalog checks, by recover_curvatures
    for input that is not rational and to name a non-real root; no
    identity's sweep imports it."""
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
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_rational_recover_with_irrational_roots_loads_no_mpmath():
    """Rational input whose real roots are irrational, repeated ones
    included, is solved on ints without loading mpmath."""
    code = (
        "import sys\n"
        "from spherecurv import recover_curvatures\n"
        "for p in [(0, 12, 0, 1), (2, 6, 2, -2), (0, 10, 0, 6)]:\n"
        "    recover_curvatures(*p)\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _loaded(statement: str) -> set[str]:
    """The spherecurv submodules in sys.modules after `statement` ran in a
    fresh interpreter, its output discarded."""
    code = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {statement}\n"
        "print(' '.join(m.split('.', 1)[1] for m in sys.modules if m.startswith('spherecurv.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_env()
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_command_loads_only_the_modules_it_runs():
    """The catalog, run by the benchmark's start-up probe line, compiles
    neither the exact engine nor the analyze pipeline; verify skips the
    analyze pipeline, analyze the exact engine, and the bare package import
    loads no submodule."""
    run = "from spherecurv.cli import main; main({})"
    assert _loaded(run.format(["catalog"])) == {"cli", "catalog", "fields", "rng", "sphere", "report"}
    assert not _loaded(run.format(["verify", "--identity", "g2", "--trials", "1"])) & {"shape", "eigen"}
    assert not _loaded(run.format(["analyze", "--surface", "equator", "--samples", "1"])) & {
        "identities", "exact"}
    assert _loaded("import spherecurv") == set()
