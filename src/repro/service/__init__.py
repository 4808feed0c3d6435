"""repro.service — the advisor as a service.

Three pieces:

* :mod:`repro.service.jobs` — the job record and its lifecycle states;
  the jobs themselves run on the fleet queue
  (:class:`~repro.fleet.manager.FleetJobManager`), which keeps every
  record in the state dir's ``fleet.sqlite`` so listings survive
  restarts;
* :mod:`repro.service.router` — the HTTP-agnostic router over the
  :class:`~repro.api.AdvisorSession` facade, reusing the frozen request/
  result dataclasses for every JSON payload and serving the GUI's HTML
  pages;
* :mod:`repro.service.app` — the threaded stdlib HTTP server binding the
  router to a socket (the ``hpcadvisor-sim serve`` and ``gui``
  commands).

The matching typed client lives in :mod:`repro.client`.
"""

from repro.service.jobs import (
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    JobCancelled,
    JobRecord,
)
from repro.service.metrics import Metrics
from repro.service.router import Response, Router, ServiceState
from repro.service.app import build_state, make_server, serve

__all__ = [
    "JOB_KINDS", "JOB_STATES", "TERMINAL_STATES",
    "JobCancelled", "JobRecord",
    "Metrics", "Response", "Router", "ServiceState",
    "build_state", "make_server", "serve",
]
