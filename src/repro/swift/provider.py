"""Execution providers for the Swift engine.

Swift schedules tasks onto *providers* (Section 4.1): local execution,
batch schedulers, or the Coasters pilot-job service.  Three providers are
implemented:

* :class:`CoastersProvider` — tasks go to a
  :class:`~repro.swift.coasters.CoasterService` (the MPICH/Coasters form).
* :class:`LoginProvider` — runs single-process tasks on the login host;
  the paper executes the REM ``exchange()`` script there, "freeing the
  compute nodes for the next ready NAMD segment" (Section 6.2.2).
* :class:`BatchProvider` — each task is its own batch allocation, the
  painfully slow pre-JETS workflow style of Section 1 (used as a baseline).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..cluster.batch import BatchScheduler
from ..cluster.platform import Platform
from ..core.dispatcher import CompletedJob
from ..core.tasklist import JobSpec
from ..mpi.app import RankContext
from ..mpi.comm import SimComm
from ..simkernel import Event, Resource

__all__ = ["Provider", "LoginProvider", "CoastersProvider", "BatchProvider"]


class Provider:
    """Interface: ``submit(job) -> Event`` firing with a CompletedJob."""

    def submit(self, job: JobSpec) -> Event:
        raise NotImplementedError


class LoginProvider(Provider):
    """Runs single-process tasks directly on the login/submit host.

    The login host has limited cores; tasks queue on them.  Filesystem
    traffic from the task hits the shared FS like everyone else's.
    """

    def __init__(self, platform: Platform, cores: int = 8):
        self.platform = platform
        self.env = platform.env
        self._cpu = Resource(self.env, cores)

    def submit(self, job: JobSpec) -> Event:
        if job.mpi and job.world_size > 1:
            raise ValueError("LoginProvider runs single-process tasks only")
        done = self.env.event()
        self.env.process(self._run(job, done), name=f"login-{job.job_id}")
        return done

    def _run(self, job: JobSpec, done: Event) -> Generator:
        t0 = self.env.now
        req = self._cpu.request()
        yield req
        try:
            comm = SimComm(self.env, self.platform.fabric, [self.platform.login_endpoint])
            # The login host is not a Node; give the program a node-like
            # view exposing the shared filesystem.
            ctx = RankContext(
                env=self.env,
                comm=comm,
                rank=0,
                size=1,
                node=_LoginNodeView(self.platform),
                job_id=job.job_id,
            )
            value = yield from job.program.run(ctx)
            result = _LiteResult(rank0_value=value, t_app_start=t0, t_app_end=self.env.now)
            done.succeed(
                CompletedJob(
                    job=job, ok=True, result=result,
                    t_submitted=t0, t_dispatched=t0, t_done=self.env.now,
                )
            )
        finally:
            self._cpu.release(req)


@dataclass
class _LiteResult:
    """Minimal JobResult stand-in for non-mpiexec execution paths."""

    rank0_value: Any = None
    t_app_start: float = 0.0
    t_app_end: float = 0.0
    ok: bool = True
    error: str = ""

    @property
    def app_time(self) -> float:
        return self.t_app_end - self.t_app_start

    @property
    def wireup_time(self) -> float:
        return 0.0


class _LoginNodeView:
    """Node-like adapter for programs running on the login host."""

    #: The login host takes no straggler faults.
    slowdown = 1.0

    def __init__(self, platform: Platform):
        self.platform = platform
        self.node_id = platform.login_endpoint
        self.endpoint = platform.login_endpoint
        self.shared_fs = platform.shared_fs

    @property
    def env(self):
        return self.platform.env


class CoastersProvider(Provider):
    """Sends tasks to a CoasterService (the JETS MPICH/Coasters form).

    Adds the Swift→CoasterService RPC cost per task on top of the
    service's own dispatch path.
    """

    def __init__(self, coaster_service, rpc_cost: float = 0.002):
        self.service = coaster_service
        self.env = coaster_service.env
        self.rpc_cost = rpc_cost

    def submit(self, job: JobSpec) -> Event:
        done = self.env.event()

        def body() -> Generator:
            yield self.env.timeout(self.rpc_cost)
            inner = self.service.submit(job)
            completed = yield inner
            done.succeed(completed)

        self.env.process(body(), name=f"coasters-rpc-{job.job_id}")
        return done


class BatchProvider(Provider):
    """One batch allocation per task — the pre-pilot-job baseline.

    Every task pays queue wait plus the multi-minute allocation boot,
    which is exactly why Section 1 calls workflows built this way
    inefficient.
    """

    def __init__(self, platform: Platform, batch: BatchScheduler, walltime: float = 3600.0):
        self.platform = platform
        self.env = platform.env
        self.batch = batch
        self.walltime = walltime

    def submit(self, job: JobSpec) -> Event:
        done = self.env.event()
        self.env.process(self._run(job, done), name=f"batch-{job.job_id}")
        return done

    def _run(self, job: JobSpec, done: Event) -> Generator:
        t0 = self.env.now
        alloc = yield from self.batch.submit(job.nodes, self.walltime)
        t_start = self.env.now
        try:
            # Run the program's ranks directly on the allocation's nodes
            # (the native launcher path; no pilot, no Hydra reuse).
            endpoints = []
            for node in alloc.nodes:
                endpoints.extend([node.endpoint] * job.ppn)
            comm = SimComm(self.env, self.platform.fabric, endpoints)
            procs = []
            values: dict[int, Any] = {}

            def rank_body(rank: int, node):
                def body() -> Generator:
                    ctx = RankContext(
                        env=self.env, comm=comm, rank=rank,
                        size=job.world_size, node=node, job_id=job.job_id,
                    )
                    values[rank] = yield from job.program.run(ctx)

                return body

            rank = 0
            for node in alloc.nodes:
                for _ in range(job.ppn):
                    procs.append(
                        self.env.process(
                            node.exec_process(job.program.image, rank_body(rank, node))
                        )
                    )
                    rank += 1
            yield self.env.all_of(procs)
            result = _LiteResult(
                rank0_value=values.get(0),
                t_app_start=t_start,
                t_app_end=self.env.now,
            )
            done.succeed(
                CompletedJob(
                    job=job, ok=True, result=result,
                    t_submitted=t0, t_dispatched=t_start, t_done=self.env.now,
                )
            )
        finally:
            self.batch.release(alloc)
