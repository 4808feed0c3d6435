"""The repository benchmark's tracing hooks still fit the program.

``perfbench/tracer.py`` wraps public calls of each layer by name
(``Tracer.install_layers``), from the benchmark's own files.  A renamed
method makes a traced run raise ``AttributeError`` partway through, so
these names are part of the program's interface: installing the hooks
must succeed, wrap the store's write seams, and uninstalling them must
leave every wrapped attribute as it was.
"""

import importlib
import os
import sys
import urllib.request

import repro.core.columnar as columnar
import repro.core.cost as cost
import repro.store.snapshot as snapshot
from repro.api.results import AdviceResult, DataPointsResult
from repro.api.session import AdvisorSession
from repro.client.remote import RemoteSession
from repro.cloud.eviction import EvictionModel
from repro.service.router import Router
from repro.store.sqlite import SqliteStore

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

#: Every module and class the hooks patch.
OWNERS = (SqliteStore, snapshot, snapshot.ColumnarSnapshot, columnar, cost,
          EvictionModel, AdvisorSession, Router, AdviceResult,
          DataPointsResult, RemoteSession, urllib.request)


def _load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    # Import afresh; when the test ends, monkeypatch puts back whatever
    # ``sys.modules["tracer"]`` was before (usually nothing).
    monkeypatch.setitem(sys.modules, "tracer", None)
    monkeypatch.delitem(sys.modules, "tracer")
    return importlib.import_module("tracer")


def test_install_wraps_the_store_seams_and_uninstall_restores(monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = tracer_module.Tracer()
    try:
        tracer.install_layers()
        for name in ("append_point", "append_points", "sync_tasks"):
            assert vars(SqliteStore)[name] is not before[SqliteStore][name]
    finally:
        tracer.uninstall()
    for owner in OWNERS:
        after = vars(owner)
        assert after.keys() == before[owner].keys(), owner
        for attr, value in before[owner].items():
            assert after[attr] is value, (owner, attr)
