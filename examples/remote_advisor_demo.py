"""Remote advisor demo: the full paper workflow over the wire.

Starts the advisor service in-process on an ephemeral port, then drives
deploy -> collect -> advise purely through the typed HTTP client
(:class:`repro.client.RemoteSession`) — the same path a team sharing one
advisor server would use.  Two sweeps run as *concurrent* async jobs.

Run::

    python examples/remote_advisor_demo.py
"""

import shutil
import tempfile
import threading

from repro.client import RemoteSession
from repro.service.app import make_server


def make_config(prefix: str, boxfactor: str) -> dict:
    return {
        "subscription": "remote-demo",
        "skus": ["Standard_HC44rs", "Standard_HB120rs_v3"],
        "rgprefix": prefix,
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [1, 2, 4],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": [boxfactor]},
    }


def main() -> int:
    state_dir = tempfile.mkdtemp(prefix="hpcadvisor-remote-demo-")
    server = make_server(state_dir, port=0, workers=4)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"service listening on http://127.0.0.1:{port} "
          f"(state in {state_dir})")

    try:
        remote = RemoteSession(f"http://127.0.0.1:{port}", timeout=30)
        print("health:", remote.health()["status"])

        # Two teams deploy their sweeps through the same server.
        small = remote.deploy(make_config("demosmall", "4"))
        large = remote.deploy(make_config("demolarge", "8"))
        print(f"deployed {small.name} ({small.scenario_count} scenarios) "
              f"and {large.name} ({large.scenario_count} scenarios)")

        # Both sweeps run concurrently as async jobs.
        jobs = [remote.collect(deployment=info.name)
                for info in (small, large)]
        print("submitted jobs:", ", ".join(job.id for job in jobs))
        for info, job in zip((small, large), jobs):
            record = job.wait(timeout=300)
            result = job.result()
            print(f"{info.name}: {record.state}, "
                  f"{result.completed} scenarios collected, "
                  f"task cost ${result.task_cost_usd:.4f}")

        # Advice comes back over the wire as the same typed result the
        # in-process facade returns.
        for info in (small, large):
            advice = remote.advise(deployment=info.name, sort_by="cost")
            best = advice.cheapest
            print(f"\nadvice for {info.name} "
                  f"({advice.dataset_points} points):")
            print(advice.render_table(), end="")
            print(f"cheapest option: {best.sku} x{best.nnodes} "
                  f"(${best.cost_usd:.4f})")

        requests_served = sum(
            1 for line in remote.metrics_text().splitlines()
            if line.startswith("advisor_http_requests_total{")
        )
        print(f"\nservice metrics: {requests_served} "
              "route/status combinations observed")
        return 0
    finally:
        server.shutdown()
        server.server_close()
        server.state.close()
        thread.join(timeout=10)
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
