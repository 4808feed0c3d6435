"""Packaging: what ``import repro`` needs is what ``pyproject.toml``
declares.

scipy backs two sampling helpers only (``doe.lhs_subset`` and the
scaling-law fit in ``perffactor``), so they import it when called and
``import repro`` (the CLI entry point included) stays light.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_repro_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli.main, repro.api.session;"
         " print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_scipy_is_a_declared_dependency():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    declared = text.split("dependencies = [", 1)[1].split("]", 1)[0]
    assert '"scipy>=1.7"' in declared
