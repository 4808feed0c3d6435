"""repro.store: persistence for collected data.

The paper keeps collected sweep data "in a JSON file" (Sec. III-C).
Here one WAL-mode SQLite database per deployment
(:class:`SqliteStore`) is the live store: O(1) appends, indexed query
pushdown, and one transaction per batched commit.

The historical ``dataset-<name>.jsonl`` / ``tasks-<name>.json`` layout
is an import and export format only:

* **import** — opening a deployment whose state directory still holds
  the legacy files copies them into a new database once, under the
  deployment's advisory file locks (:func:`open_deployment_store`);
* **export** — :func:`export_legacy` writes a store back out in that
  layout, byte for byte what ``Dataset.save``/``TaskDB.save`` write.

See ``docs/STORAGE.md`` for the full model.
"""

from __future__ import annotations

import os
from typing import Tuple

from repro.core.dataset import Dataset
from repro.core.query import Query
from repro.core.taskdb import TaskDB
from repro.store.snapshot import (ColumnarSnapshot, SnapshotCache,
                                  snapshot_cache, snapshot_for_store,
                                  snapshot_status)
from repro.store.sqlite import SqliteStore


def open_deployment_store(dataset_path: str, taskdb_path: str,
                          db_path: str) -> SqliteStore:
    """Open one deployment's store.

    An existing database is the store.  Without one, legacy files at
    ``dataset_path``/``taskdb_path`` are imported first
    (:func:`_import_legacy`); with neither, a new database is created.
    """
    if not os.path.exists(db_path) and (
            os.path.exists(dataset_path) or os.path.exists(taskdb_path)):
        return _import_legacy(dataset_path, taskdb_path, db_path)
    return SqliteStore(db_path)


def _import_legacy(dataset_path: str, taskdb_path: str,
                   db_path: str) -> SqliteStore:
    """Copy the legacy files into a new database (one shot).

    Both files are read before any database exists, so a corrupt line
    fails the import with the file and line named and leaves nothing
    behind.  The database is built at a temporary path and renamed into
    place only when complete: a crash mid-import must never leave a
    schema-only database shadowing the intact legacy corpus
    (``db_path`` existing is what makes every later open skip the
    import).
    """
    from repro.core.statefiles import file_lock

    # Same locks, same order, as a running collect: an import must not
    # interleave with a sweep's appends.
    with file_lock(taskdb_path), file_lock(dataset_path):
        if os.path.exists(db_path):  # lost the race: already imported
            return SqliteStore(db_path)
        has_dataset = os.path.exists(dataset_path)
        points = Dataset.load(dataset_path).points() if has_dataset else []
        tasks = (TaskDB.load(taskdb_path).all()
                 if os.path.exists(taskdb_path) else [])
        tmp_path = db_path + ".migrating"
        if os.path.exists(tmp_path):  # debris of a crashed attempt
            os.unlink(tmp_path)
        building = SqliteStore(tmp_path)
        try:
            building.commit(points, tasks)
            if has_dataset:
                # The legacy dataset file existed, so the corpus
                # "exists" even if it held zero points.
                building.flush_points()
        finally:
            building.close()  # checkpoints the WAL into the main file
        os.replace(tmp_path, db_path)  # the commit point
        # From here the database is authoritative; freezing the legacy
        # files aside is cleanup (a crash in between leaves them live
        # but ignored, since an existing database always wins).
        for path in (dataset_path, taskdb_path):
            if os.path.exists(path):
                os.replace(path, path + ".migrated")
    return SqliteStore(db_path)


def export_legacy(store: SqliteStore, dataset_path: str,
                  taskdb_path: str) -> Tuple[str, ...]:
    """Write ``store`` in the legacy layout; returns the paths written.

    The task file is always written.  The dataset file is written when
    the corpus exists (:meth:`SqliteStore.exists`), as the legacy
    layout had no dataset file before a sweep saved one, so importing
    the export gives back the same store.
    """
    written = []
    if store.exists():
        written.append(Dataset(store.query_points()).save(dataset_path))
    written.append(TaskDB.from_records(store.load_tasks()).save(taskdb_path))
    return tuple(written)


__all__ = [
    "ColumnarSnapshot",
    "Query",
    "SnapshotCache",
    "SqliteStore",
    "export_legacy",
    "open_deployment_store",
    "snapshot_cache",
    "snapshot_for_store",
    "snapshot_status",
]
