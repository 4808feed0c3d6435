"""The fleet front: pre-forked HTTP server workers under a supervisor.

``serve_fleet`` is the ``fleet serve`` CLI command: the parent binds the
listening sockets, forks N worker processes that each run the full
advisor service — HTTP threads, response cache, and a
:class:`FleetJobManager` claiming from the shared ``fleet.sqlite`` queue
— and then babysits them, restarting any worker that exits.

Where the platform supports ``SO_REUSEPORT`` (Linux, modern BSDs), each
worker gets its **own** socket bound to the same address: the kernel
hashes incoming connections across the reuseport group, which spreads
load evenly per *socket* and avoids the accept contention of N
processes blocking on one listener.  Each socket is bound in the parent
(so ``port=0`` resolves once and restarts re-inherit the same kernel
socket) and accepted on by exactly one worker.  Platforms without
``SO_REUSEPORT`` — or that advertise and then refuse it — fall back to
the classic single shared socket inherited by every worker, with no
proxy in front either way.

Crash behaviour is the whole point: a worker that dies mid-job (crash,
OOM kill, ``kill -9``) takes nothing with it — its HTTP connections
fail fast and get retried by the client against a sibling, its leased
jobs expire and are re-claimed by survivors, and the supervisor forks a
replacement within a poll tick that accepts on the dead worker's own
socket (per-worker mode) or the shared one (fallback).

The parent prints one machine-parseable readiness line::

    FLEET READY url=http://127.0.0.1:8050/ port=8050 workers=2 \
        sockets=per-worker pid=1234

(workers may still be a few milliseconds from accepting; poll
``/healthz`` for actual readiness, as the smoke tests do).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import time

from repro.errors import ConfigError

#: How often the supervisor checks its children.
POLL_S = 0.2

#: Pause before restarting a crashed worker (a crash-looping worker
#: must not peg a core fork-bombing).
RESTART_DELAY_S = 0.5


def _bind_listener(host: str, port: int,
                   reuseport: bool = False) -> socket.socket:
    """One listening socket (inherited across fork).

    With ``reuseport`` the socket joins the port's ``SO_REUSEPORT``
    group; the ``setsockopt``/``bind`` may raise ``OSError`` on
    platforms that lack or refuse the option — callers fall back to a
    single shared listener.
    """
    # Loaded with this package (repro.fleet imports repro.service); a
    # module-level import would close an import cycle through the router.
    from repro.service.app import LISTEN_BACKLOG

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        listener.bind((host, port))
        listener.listen(LISTEN_BACKLOG)
    except BaseException:
        listener.close()
        raise
    return listener


def _bind_fleet_sockets(host: str, port: int,
                        workers: int) -> tuple:
    """``(sockets, per_worker)`` for the fleet's listening layout.

    Preferred: one ``SO_REUSEPORT`` socket per worker, all bound to the
    same address — the kernel then balances connections across workers
    per socket.  Every socket is bound here in the parent so a ``port=0``
    request resolves exactly once and a restarted worker re-inherits the
    same kernel socket (the parent's fd keeps it alive in between).
    Fallback: one shared listener, ``len(sockets) == 1``.
    """
    if workers > 1 and hasattr(socket, "SO_REUSEPORT"):
        try:
            first = _bind_listener(host, port, reuseport=True)
        except OSError:
            pass  # advertised but refused: shared listener below
        else:
            sockets = [first]
            actual_port = first.getsockname()[1]
            try:
                for _ in range(workers - 1):
                    sockets.append(
                        _bind_listener(host, actual_port, reuseport=True))
            except OSError:
                # Group membership went sour mid-bind; release the port
                # fully before the shared-listener rebind below.
                for sock in sockets:
                    sock.close()
            else:
                return sockets, True
    return [_bind_listener(host, port)], False


def _worker_main(listener: socket.socket, state_dir: str,
                 job_workers: int, label: str) -> None:
    """One fleet worker: the full advisor service over the shared socket."""
    from repro.service.app import make_server

    # A supervisor SIGTERM must end serve_forever cleanly so leases and
    # the worker registry entry are released without waiting to expire.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    server = make_server(state_dir, socket=listener, workers=job_workers,
                         worker_id=f"{label}-{os.getpid()}")
    try:
        server.serve_forever()
    finally:
        server.state.close(wait=False)


def serve_fleet(state_dir: str, host: str = "127.0.0.1", port: int = 8050,
                workers: int = 2, job_workers: int = 4) -> int:
    """Run ``workers`` server processes over one state dir until killed."""
    from repro.service.app import warn_if_exposed  # see _bind_listener

    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise ConfigError(
            "fleet serve needs a platform with fork(); "
            "use plain `serve` here"
        ) from exc
    sockets, per_worker = _bind_fleet_sockets(host, port, workers)
    actual_port = sockets[0].getsockname()[1]
    url = f"http://{host}:{actual_port}/"
    layout = "per-worker" if per_worker else "shared"
    print(f"FLEET READY url={url} port={actual_port} "
          f"workers={workers} sockets={layout} pid={os.getpid()}",
          flush=True)
    warn_if_exposed(host)

    def spawn(index: int) -> multiprocessing.Process:
        # Per-worker layout: worker i accepts on its own reuseport
        # socket; shared layout: everyone accepts on sockets[0].
        listener = sockets[index] if per_worker else sockets[0]
        process = ctx.Process(
            target=_worker_main,
            args=(listener, state_dir, job_workers, f"w{index}"),
            name=f"fleet-worker-{index}",
        )
        process.start()
        print(f"fleet: worker w{index} pid={process.pid} started",
              flush=True)
        return process

    children = {index: spawn(index) for index in range(workers)}
    stopping = False

    def on_term(*_args) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    try:
        while True:
            time.sleep(POLL_S)
            for index, process in list(children.items()):
                if process.is_alive():
                    continue
                print(f"fleet: worker w{index} pid={process.pid} exited "
                      f"code={process.exitcode}; restarting", flush=True)
                process.join()
                time.sleep(RESTART_DELAY_S)
                children[index] = spawn(index)
    except KeyboardInterrupt:
        stopping = True
    finally:
        if stopping:
            print("fleet: shutting down", flush=True)
        for process in children.values():
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + 5
        for process in children.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5)
        for sock in sockets:
            sock.close()
    return 0
