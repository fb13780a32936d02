"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.apps.pbpi import PBPIApp
from repro.memory.directory import Directory
from repro.runtime.dataregion import DataRegion
from repro.runtime.directives import task
from repro.runtime.runtime import OmpSsRuntime, RuntimeConfig
from repro.sim.engine import SimEngine
from repro.sim.perfmodel import AffineBytesCostModel, FixedCostModel
from repro.sim.topology import minotauro_node

MB = 1024**2

#: Small app instances shared by the scheduler-compare and conformance
#: suites; each factory takes the variant ("smp" / "gpu" / "hyb").
SMALL_APPS = {
    "matmul": lambda variant: MatmulApp(n_tiles=3, variant=variant),
    "cholesky": lambda variant: CholeskyApp(n_blocks=4, variant=variant),
    "pbpi": lambda variant: PBPIApp(generations=3, n_blocks=4, variant=variant),
}

#: Expected completed-task count of each SMALL_APPS instance.
SMALL_APP_TASKS = {
    "matmul": 27,
    "cholesky": CholeskyApp(n_blocks=4, variant="gpu").task_count(),
    "pbpi": 3 * (2 * 4 + 1),
}


def run_app(app, machine, scheduler, *, scheduler_options=None, config=None):
    """Register cost models, run ``app`` on ``machine``, return RunResult."""
    app.register_cost_models(machine)
    rt = OmpSsRuntime(
        machine, scheduler, config=config, scheduler_options=scheduler_options
    )
    with rt:
        app.master(rt)
    rt.directory.check_invariants()
    return rt.result()


def chain_calls(work, n=8, nbytes=MB, tag="chain"):
    """``n`` tasks in a straight RAW chain: t_i reads r_i, writes r_{i+1}."""
    regions = [region((tag, i), nbytes) for i in range(n + 1)]
    return [(work, regions[i], regions[i + 1]) for i in range(n)]


def fork_join_calls(work, width=4, nbytes=MB, tag="fj"):
    """Fork-join over a 2-parameter task: ``width`` parallel branches
    read the source, then a WAW-serialised join drains every branch
    into the sink region (2*width tasks total)."""
    src = region((tag, "src"), nbytes)
    mids = [region((tag, i), nbytes) for i in range(width)]
    sink = region((tag, "sink"), nbytes)
    calls = [(work, src, m) for m in mids]
    calls += [(work, m, sink) for m in mids]
    return calls


def make_machine(n_smp=2, n_gpus=1, noise=0.0, seed=0):
    """A small deterministic MinoTauro-like node."""
    return minotauro_node(n_smp, n_gpus, noise_cv=noise, seed=seed)


def make_two_version_task(
    registry=None,
    *,
    name="work",
    smp_cost=0.010,
    gpu_cost=0.001,
    machine=None,
):
    """A task with an SMP main version and a CUDA alternative.

    Returns ``(task_function, register)`` where ``register(machine)``
    installs the fixed cost models.
    """
    registry = {} if registry is None else registry

    @task(inputs=["x"], outputs=["y"], device="smp", name=f"{name}_smp",
          registry=registry)
    def work(x, y):
        pass

    @task(inputs=["x"], outputs=["y"], device="cuda", implements=f"{name}_smp",
          name=f"{name}_gpu", registry=registry)
    def work_gpu(x, y):
        pass

    def register(machine):
        if machine.devices_of_kind("smp"):
            machine.register_kernel_for_kind("smp", f"{name}_smp",
                                             FixedCostModel(smp_cost))
        if machine.devices_of_kind("cuda"):
            machine.register_kernel_for_kind("cuda", f"{name}_gpu",
                                             FixedCostModel(gpu_cost))

    if machine is not None:
        register(machine)
    return work, register


def region(key, nbytes=MB, label=""):
    return DataRegion(key, nbytes, label=label or str(key))


def new_directory() -> Directory:
    """A coherence directory on an engine of its own."""
    return Directory(SimEngine())


def mark_valid(directory: Directory, region: DataRegion, space: str) -> None:
    """Land a copy of ``region`` in ``space`` now, the way the runtime
    does: in flight under a seq reserved from the directory's engine,
    settled once a bounded run passes it."""
    eng = directory._engine
    directory.note_in_flight(region, space, eng.now, eng.reserve_seq(eng.now))
    eng.run(until=eng.now)


def run_tasks(machine, scheduler, calls, config=None, scheduler_options=None):
    """Run a list of ``(task_fn, *args)`` calls and return the RunResult."""
    rt = OmpSsRuntime(
        machine, scheduler, config=config, scheduler_options=scheduler_options
    )
    with rt:
        for fn, *args in calls:
            fn(*args)
    return rt.result()


@pytest.fixture
def small_machine():
    return make_machine(2, 1)


@pytest.fixture
def registry():
    return {}
