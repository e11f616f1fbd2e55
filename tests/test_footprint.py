"""Footprint and retention fence: long-lived runtime objects stay small.

JETS keeps a pilot, a proxy and a socket pair busy on every node of the
allocation, so the simulator's bytes per queue, connection and rank set
the largest allocation it can hold.  Two kinds of check:

* per-object byte budgets, measured with ``tracemalloc``, for an idle
  ``Store``, a connected ``Socket`` pair and a ``Resource`` — their
  queues are lists (a deque allocates a 64-slot block up front);
* after a small staged MPI run, no wire-up watchdog keeps its finished
  ``AnyOf`` alive, and workers keep no finished child processes beyond
  the one each spawned last.

Budgets leave about 1.5x headroom over CPython 3.11 so that object
header differences across 3.10-3.12 do not trip them; the deque layout
costs 2-10x more.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

from repro.apps.synthetic import BarrierSleepBarrier
from repro.cluster.machine import surveyor
from repro.cluster.platform import Platform
from repro.core.dispatcher import JetsDispatcher
from repro.core.jets import service_config_for
from repro.core.staging import StagingManager
from repro.core.tasklist import JobSpec
from repro.core.worker import WorkerAgent
from repro.mpi.hydra import PROXY_IMAGE
from repro.netsim.fabric import ETHERNET, Fabric
from repro.netsim.sockets import Network
from repro.simkernel import (
    AnyOf, Environment, Event, Process, Resource, Store,
)

#: Bytes per object, measured at about 250 / 350 / 950 on CPython 3.11.
STORE_BUDGET = 400
RESOURCE_BUDGET = 560
SOCKET_PAIR_BUDGET = 1400


def _bytes_per(build, n: int) -> float:
    """Traced bytes ``build(n)`` keeps alive, per object."""
    build(1)  # warm-up: lazy imports, interned names, type caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build(n)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / n


def _stores(n):
    env = Environment()
    return [Store(env) for _ in range(n)]


def _resources(n):
    env = Environment()
    return [Resource(env, 2) for _ in range(n)]


def _socket_pairs(n):
    env = Environment()
    network = Network(env, Fabric(env, ETHERNET))
    listener = network.listen(0, "svc")
    pairs = []

    def client():
        for _ in range(n):
            sock = yield from network.connect(1, 0, "svc")
            pairs.append((sock, (yield listener.accept())))

    env.run(env.process(client()))
    return pairs


def test_idle_store_budget():
    assert _bytes_per(_stores, 400) < STORE_BUDGET


def test_resource_budget():
    assert _bytes_per(_resources, 400) < RESOURCE_BUDGET


def test_connected_socket_pair_budget():
    # Difference two sizes so the environment, network and listener
    # built per call cancel out.
    small, large = 200, 400
    fixed_and_small = _bytes_per(_socket_pairs, small) * small
    fixed_and_large = _bytes_per(_socket_pairs, large) * large
    per_pair = (fixed_and_large - fixed_and_small) / (large - small)
    assert per_pair < SOCKET_PAIR_BUDGET


def _staged_mpi_run():
    """16 Hydra jobs of 4-16 ranks on 32 staged BG/P nodes; returns the
    run's long-lived state (its environment still holds every wire-up
    watchdog whose 300 s deadline has not come)."""
    machine = surveyor(32)
    jobs = [
        JobSpec(program=BarrierSleepBarrier(2.0 + i % 3), nodes=width,
                ppn=1, mpi=True, command="mpi-bench", job_id=f"m{i:03d}")
        for i, width in enumerate([4, 8, 16, 4, 8, 4, 16, 8] * 2)
    ]
    platform = Platform(machine, seed=3)
    staging = StagingManager(
        platform.env, [PROXY_IMAGE, jobs[0].program.image]
    )
    service = service_config_for(machine)
    dispatcher = JetsDispatcher(
        platform, service, expected_workers=len(platform.nodes)
    )
    dispatcher.start()
    workers = [
        WorkerAgent(
            platform, node, dispatcher.endpoint, service=dispatcher.service,
            staging=staging, heartbeat_interval=service.heartbeat_interval,
        )
        for node in platform.nodes
    ]
    for worker in workers:
        worker.start()

    def feeder():
        dispatcher.submit_many(jobs)
        yield dispatcher.drained

    env = platform.env
    env.run(env.process(feeder()))
    assert dispatcher.jobs_finished == len(jobs)
    return platform, dispatcher, workers


def test_mpi_run_retains_no_watchdog_chains_or_finished_children():
    platform, _dispatcher, workers = _staged_mpi_run()
    gc.collect()
    live = Counter()
    for obj in gc.get_objects():
        if not isinstance(obj, Event) or obj.env is not platform.env:
            continue  # another test's leftovers
        if isinstance(obj, AnyOf):
            live["AnyOf"] += 1
        elif isinstance(obj, Process) and not obj.is_alive:
            live["finished Process"] += 1
    # Every job is done: no condition is still waited on.
    assert live["AnyOf"] <= 2, live
    # At most the last child of each worker, whichever job it ran.
    assert live["finished Process"] <= len(workers), live
