"""A2 ablation: pool resize-to-zero vs delete-per-switch (Algorithm 1 line 5).

Algorithm 1 offers two cleanup modes when the VM type changes: "resize pool
to zero or delete pool".  Deleting forces a full pool re-creation if the
same SKU returns (e.g. a second sweep on the same deployment); resizing to
zero keeps the pool object.  This bench quantifies the provisioning-time
and infrastructure-cost difference over a two-pass sweep.
"""

from benchmarks.conftest import make_backend, paper_config
from repro.api.registry import apps
from repro.core.collector import DataCollector
from repro.core.dataset import Dataset
from repro.core.deployer import Deployer
from repro.core.scenarios import generate_scenarios
from repro.core.taskdb import TaskDB


def two_pass_sweep(delete_pools: bool, rgprefix: str):
    """Two consecutive sweeps on one deployment (a common usage pattern)."""
    config = paper_config("lammps", {"BOXFACTOR": ["10"]}, [2, 4], rgprefix)
    deployment = Deployer().deploy(config)
    backend = make_backend(deployment)
    for sweep in range(2):
        collector = DataCollector(
            backend=backend,
            script=apps.create("lammps"),
            dataset=Dataset(),
            taskdb=TaskDB(),
            delete_pool_on_switch=delete_pools,
        )
        collector.collect(generate_scenarios(config))
    return backend, deployment


def count_setup_tasks(backend):
    return sum(
        1 for job in backend.service.jobs.values()
        for task in job.tasks.values() if task.kind.value == "setup"
    )


def test_ablation_pool_reuse(benchmark):
    reuse_backend, reuse_dep = two_pass_sweep(False, "poolreuse")

    def delete_mode():
        return two_pass_sweep(True, "pooldelete")

    delete_backend, delete_dep = benchmark.pedantic(delete_mode, rounds=2,
                                                    iterations=1)

    reuse_setups = count_setup_tasks(reuse_backend)
    delete_setups = count_setup_tasks(delete_backend)
    reuse_wall = reuse_dep.provider.clock.now
    delete_wall = delete_dep.provider.clock.now
    print("\n=== Ablation A2: pool reuse vs delete on VM-type switch ===")
    print(f"    setup tasks over two sweeps: reuse {reuse_setups}, "
          f"delete {delete_setups}")
    print(f"    total simulated time: reuse {reuse_wall:.0f}s, "
          f"delete {delete_wall:.0f}s "
          f"(delete pays +{delete_wall - reuse_wall:.0f}s)")
    print(f"    infra cost: reuse "
          f"${reuse_backend.total_infrastructure_cost_usd:.2f}, delete "
          f"${delete_backend.total_infrastructure_cost_usd:.2f}")

    # Deleting a pool discards its configuration: the application setup task
    # (Algorithm 1 line 6) must re-run when the VM type returns, so the
    # second sweep pays the setup again and total simulated time grows.
    assert delete_setups > reuse_setups
    assert delete_wall > reuse_wall
