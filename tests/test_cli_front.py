"""The CLI front: handler binding, the shared collect flags, and what
the command line no longer offers."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.api import AdvisorSession, CollectRequest
from repro.cli import commands
from repro.cli.main import build_parser, main
from repro.cloud.eviction import EvictionModel
from repro.core.cost import spot_savings_summary
from repro.core.query import Query
from repro.core.statefiles import StateStore
from tests.conftest import make_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One value per CollectRequest field (``engine`` excepted), none of
#: them the field's default.
COLLECT_FLAGS = [
    "-n", "d-000", "--backend", "slurm", "--smart-sampling",
    "--sampling-policy", "aggressive", "--delete-pools", "--noise", "0.05",
    "--seed", "3", "--budget", "12.5", "--retry-failed", "2",
    "--parallel-pools", "2", "--capacity", "spot",
    "--recovery", "checkpoint_restart", "--eviction-rate", "4.0",
    "--eviction-seed", "9", "--checkpoint-interval", "300",
    "--checkpoint-overhead", "30",
]


def test_every_subcommand_binds_its_handler():
    leaves = []

    def walk(parser, path):
        subparsers = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        if not subparsers:
            leaves.append((path, parser.get_default("handler")))
        for action in subparsers:
            for name, child in action.choices.items():
                walk(child, path + [name])

    walk(build_parser(), [])
    assert len(leaves) == 17
    for path, handler in leaves:
        assert handler is getattr(commands, "_".join(path)), path


def test_collect_and_submit_build_equal_requests():
    parser = build_parser()
    local = commands.collect_request(
        parser.parse_args(["collect", *COLLECT_FLAGS]))
    remote = commands.collect_request(parser.parse_args(
        ["submit", "--url", "http://127.0.0.1:9", *COLLECT_FLAGS]))
    assert local == remote
    default = CollectRequest()
    left_default = [f.name for f in dataclasses.fields(CollectRequest)
                    if getattr(local, f.name) == getattr(default, f.name)]
    assert left_default == ["engine"]


def test_collect_sampling_policy_reaches_the_sampler(tmp_path, capsys):
    state = str(tmp_path)
    info = AdvisorSession(store=StateStore(root=state)).deploy(
        make_config(nnodes=[1, 2, 4, 8],
                    skus=["Standard_HB120rs_v3", "Standard_HC44rs"]))
    assert main(["--state-dir", state, "collect", "-n", info.name,
                 "--sampling-policy", "aggressive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["sampler_decisions"]) == 8
    assert payload["skipped"] + payload["predicted"] > 0


@pytest.mark.parametrize("argv", [
    ["engines"],
    ["advice", "-n", "d-000", "--engine", "objects"],
    ["collect", "-n", "d-000", "--engine", "object"],
    ["submit", "--url", "http://127.0.0.1:9", "-n", "d-000",
     "--engine", "batched"],
])
def test_engine_selectors_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--state-dir", str(tmp_path), *argv])
    assert caught.value.code == 2
    assert "usage: hpcadvisor-sim" in capsys.readouterr().err


def test_advice_spot_block_matches_the_filtered_dataset(tmp_path, capsys):
    state = str(tmp_path)
    session = AdvisorSession(store=StateStore(root=state))
    info = session.deploy(make_config(
        skus=["Standard_HB120rs_v3", "Standard_HC44rs"],
        nnodes=[1, 2, 4], appinputs={"BOXFACTOR": ["4", "8"]}))
    session.collect(deployment=info.name)
    marker = "--- What-if: spot capacity (risk-adjusted) ---\n"
    prices = session.deployment(info.name).provider.prices
    blocks = []
    for factor in ("4", "8"):
        assert main(["--state-dir", state, "advice", "-n", info.name,
                     "--spot", "--filter", f"BOXFACTOR={factor}",
                     "--eviction-rate", "30", "--recovery", "restart"]) == 0
        blocks.append(capsys.readouterr().out.split(marker, 1)[1])
        assert blocks[-1] == spot_savings_summary(
            session.query_dataset(info.name,
                                  Query(appinputs={"BOXFACTOR": factor})),
            prices, region="southcentralus",
            eviction=EvictionModel.flat(30.0, region="southcentralus"),
            recovery="restart",
        )
    assert blocks[0] != blocks[1]


def test_module_entry_point_runs_without_runtime_warning():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.cli.main", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert "usage: hpcadvisor-sim" in probe.stdout
