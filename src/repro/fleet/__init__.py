"""repro.fleet: the advisor's multi-worker serving tier.

Where :mod:`repro.service` is the HTTP API of one process, this
subsystem runs its jobs and scales the same API horizontally:

* :class:`FleetJobStore` — the job queue as a SQLite table
  (``<state-dir>/fleet.sqlite``) with atomic claim-by-lease semantics:
  any worker in any process can claim a queued job, a running worker
  renews its lease while the sweep grinds, and a dead worker's expired
  lease makes the job claimable again — partial progress preserved —
  instead of going stale.
* :class:`FleetJobManager` — the service's job manager (submit / get /
  list / counts / cancel / wait / close), whose executor threads claim
  from the shared store, so N server processes over one state directory
  form one queue.
* :class:`ResponseCache` — generation-keyed response cache for hot
  ``GET /v1/advice`` / ``GET /v1/datapoints`` reads, surfaced on the
  wire as ``ETag`` / ``If-None-Match`` / ``304``.
* :func:`serve_fleet` — ``hpcadvisor-sim fleet serve --workers N``: a
  supervisor that pre-forks N HTTP server workers over one listening
  socket (``SO_REUSEPORT`` is set where available) and restarts the
  ones that crash.

See ``docs/SERVICE.md`` ("Running a fleet") for the operational model.
"""

from repro.fleet.cache import ResponseCache
from repro.fleet.jobstore import FleetJobStore
from repro.fleet.manager import FleetJobManager
from repro.fleet.supervisor import serve_fleet

__all__ = [
    "FleetJobManager",
    "FleetJobStore",
    "ResponseCache",
    "serve_fleet",
]
