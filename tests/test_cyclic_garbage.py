"""Cyclic-garbage fence: runtime objects die by refcount.

A finished process, a granted request, a closed socket pair and a
triggered condition must not be kept alive by reference cycles: at
campaign scale the cyclic collector otherwise spends a fifth of the run
tracing them.  Each test runs a small simulation with the collector off
and ``gc.DEBUG_SAVEALL`` on, keeps the run's own long-lived state
(platform, dispatcher, the service loops still blocked at the end)
referenced, and asserts that nothing the run finished with is left as
cyclic garbage -- no ``Process``, ``Request``, ``Socket``, ``Store``,
``AnyOf``/``AllOf`` or per-call class, and no closure either.  The count
is deterministic: it does not depend on host speed or collector
thresholds.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.cluster.machine import generic_cluster, surveyor
from repro.cluster.platform import Platform
from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
from repro.core.jets import service_config_for
from repro.core.staging import StagingManager
from repro.core.tasklist import JobSpec
from repro.core.worker import WorkerAgent
from repro.mpi.hydra import PROXY_IMAGE
from repro.obs import session
from repro.oslayer.process import ExecutableImage
from repro.simkernel import Environment, Resource


def _run_jobs(platform, service, jobs, staging=None):
    """Run ``jobs`` to completion; returns the objects the run keeps."""
    env = platform.env
    dispatcher = JetsDispatcher(
        platform, service, expected_workers=len(platform.nodes)
    )
    dispatcher.start()
    for node in platform.nodes:
        WorkerAgent(
            platform, node, dispatcher.endpoint,
            service=dispatcher.service, staging=staging,
            heartbeat_interval=service.heartbeat_interval,
        ).start()

    def feeder():
        dispatcher.submit_many(jobs)
        yield dispatcher.drained
        yield from dispatcher.shutdown_workers()

    env.run(env.process(feeder()))
    assert dispatcher.jobs_finished == len(jobs)
    assert all(c.ok for c in dispatcher.completed)
    return platform, dispatcher


def _serial_run(tmp_path):
    jobs = [
        JobSpec(program=SleepProgram(0.1 + 0.01 * (i % 7)), nodes=1,
                mpi=False, command="sleep", job_id=f"s{i:03d}")
        for i in range(120)
    ]
    with session(stream=True, window=64, trace_out=str(tmp_path / "s.jsonl"),
                 chrome_out="") as obs:
        platform = Platform(generic_cluster(nodes=3, cores_per_node=2), seed=3)
        kept = _run_jobs(platform, JetsServiceConfig(), jobs)
    return kept, obs


def _mpi_run(_tmp_path):
    machine = surveyor(32)
    jobs = [
        JobSpec(program=BarrierSleepBarrier(2.0 + i % 3), nodes=width,
                ppn=1, mpi=True, command="mpi-bench", job_id=f"m{i:03d}")
        for i, width in enumerate([4, 8, 16, 4, 8, 4, 16, 8] * 2)
    ]
    images = {PROXY_IMAGE.name: PROXY_IMAGE}
    images.setdefault(jobs[0].program.image.name, jobs[0].program.image)
    platform = Platform(machine, seed=3)
    staging = StagingManager(platform.env, images.values())
    return _run_jobs(platform, service_config_for(machine), jobs, staging)


def _kernel_run(_tmp_path):
    """A granted request and a triggered AnyOf whose other event never
    fires, plus a staging list with nested libraries."""
    env = Environment()
    cores = Resource(env, 1)
    never = env.event()

    def body():
        with cores.request() as req:
            yield req
            yield env.any_of([env.timeout(1.0), never])

    for _ in range(3):
        env.process(body())
    env.run()
    libc = ExecutableImage("libc", 1, (ExecutableImage("ld", 1),))
    staged = StagingManager(env, [ExecutableImage("app", 1, (libc,))])
    assert [img.name for img in staged.flatten()] == ["app", "libc", "ld"]
    return env, cores


def _cyclic_garbage(run, tmp_path) -> Counter:
    """Objects, by type name, the second of two runs leaves as cyclic
    garbage."""
    run(tmp_path)  # warm-up: every module imported, every lazy class built
    # Collecting the warm-up run finalizes its suspended generators, which
    # can leave more garbage behind: repeat until nothing is found.
    while gc.collect():
        pass
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        kept = run(tmp_path)
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    del kept
    return found


def test_kernel_objects_leave_no_cyclic_garbage(tmp_path):
    assert _cyclic_garbage(_kernel_run, tmp_path) == Counter()


def test_serial_run_leaves_no_cyclic_garbage(tmp_path):
    assert _cyclic_garbage(_serial_run, tmp_path) == Counter()


def test_mpi_run_leaves_no_cyclic_garbage(tmp_path):
    assert _cyclic_garbage(_mpi_run, tmp_path) == Counter()
