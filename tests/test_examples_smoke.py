"""Smoke tests: every shipped example must run cleanly end to end.

The examples are the quickstart documentation; breaking one is breaking
the README.  Each runs as a real subprocess (fresh interpreter, no shared
state) and is checked for a zero exit code plus its headline output.
"""

import os
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)

#: example file -> substring its stdout must contain.
EXPECTED_OUTPUT = {
    "quickstart.py": "fastest option:",
    "lammps_scaling_study.py": "Advice (cf. paper Listing 4):",
    "openfoam_motorbike_advice.py": "Cluster recipe",
    "smart_sampling_demo.py": "Sampler decisions",
    "slurm_backend_demo.py": "sinfo",
    "multi_app_comparison.py": "best config",
    "predicted_advice_demo.py": "prediction error",
    "budget_payoff_demo.py": "break-even",
    "remote_advisor_demo.py": "cheapest option:",
    "spot_advisor_demo.py": "verdict at brutal rate",
}


def run_example(name: str, *args: str, cwd: str) -> subprocess.CompletedProcess:
    # The subprocess gets a fresh interpreter: propagate the src-layout
    # package dir so the examples import `repro` without installation.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=cwd,
        env=env,
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_OUTPUT))
def test_example_runs(name, tmp_path):
    extra = [str(tmp_path / "plots")] if name == "lammps_scaling_study.py" \
        else []
    result = run_example(name, *extra, cwd=str(tmp_path))
    assert result.returncode == 0, result.stderr[-2000:]
    assert EXPECTED_OUTPUT[name] in result.stdout
    if name == "remote_advisor_demo.py":
        # The server's temporary state directory goes when the demo ends.
        found = re.search(r"\(state in (\S+)\)", result.stdout)
        assert found, result.stdout[:500]
        assert not os.path.exists(found.group(1))


def test_lammps_study_writes_five_charts(tmp_path):
    out_dir = tmp_path / "plots"
    result = run_example("lammps_scaling_study.py", str(out_dir),
                         cwd=str(tmp_path))
    assert result.returncode == 0, result.stderr[-2000:]
    assert sorted(os.listdir(out_dir)) == [
        "plot_cost.svg", "plot_efficiency.svg", "plot_exectime.svg",
        "plot_pareto.svg", "plot_speedup.svg",
    ]


def test_quickstart_reports_a_pareto_tradeoff(tmp_path):
    result = run_example("quickstart.py", cwd=str(tmp_path))
    assert result.returncode == 0
    # Fastest and cheapest options must both be reported, and differ.
    lines = [ln for ln in result.stdout.splitlines()
             if ln.startswith(("fastest option:", "cheapest option:"))]
    assert len(lines) == 2
