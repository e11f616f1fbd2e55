"""The CoasterService: pilot-job provisioning for Swift (Section 4.1).

The CoasterService deploys blocks of pilot workers through the underlying
batch scheduler, then rapidly schedules user tasks onto them over sockets.
The MPICH/Coasters form (Section 5.2) adds the JETS mpiexec machinery: for
an MPI job it "waits for the appropriate number of available worker nodes
before launching the mpiexec control mechanism".

Internally the service reuses the JETS dispatcher — the paper's design
principle 3 (ready composition): the same aggregation/mpiexec pipeline
serves both the stand-alone tool and Coasters, with service costs set to
Coasters' heavier (JVM) per-operation price.

The optional **spectrum allocator** implements the Section 7 plan: request
workers "in a 'spectrum' of various node counts, to enable it to obtain
resources quickly in the face of unknown queue compositions" — compared in
ablation A4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from ..cluster.batch import Allocation, BatchScheduler
from ..cluster.platform import Platform
from ..core.dispatcher import JetsDispatcher, JetsServiceConfig
from ..core.jets import start_pilots
from ..core.staging import StagingManager
from ..core.tasklist import JobSpec
from ..core.worker import WorkerAgent
from ..mpi.hydra import PROXY_IMAGE
from ..simkernel import Event

__all__ = ["CoastersConfig", "CoasterService", "spectrum_blocks"]


def spectrum_blocks(total: int, smallest: int = 1) -> list[int]:
    """Split ``total`` workers into a geometric spectrum of block sizes.

    ``spectrum_blocks(64)`` → ``[32, 16, 8, 4, 2, 1, 1]``: the service can
    start work as soon as the small blocks boot instead of waiting for one
    monolithic allocation.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    blocks: list[int] = []
    remaining = total
    size = max(smallest, total // 2)
    while remaining > 0:
        size = min(size, remaining)
        blocks.append(size)
        remaining -= size
        size = max(smallest, size // 2)
    return blocks


@dataclass(frozen=True, slots=True)
class CoastersConfig:
    """CoasterService behaviour.

    Attributes:
        workers: total pilot workers to provision.
        walltime: block allocation walltime.
        spectrum: use the spectrum allocator instead of one block.
        service: dispatcher cost model; Coasters' JVM service is costlier
            per operation than the lean stand-alone JETS dispatcher.
        worker_slots: serial-task slots per worker (None = node cores).
        stage_binaries: stage proxy/app binaries at worker start-up
            (off by default: the Fig. 15/18 runs are the "first-time user"
            configuration that reads everything from GPFS, Section 6.2.2).
    """

    workers: int = 8
    walltime: float = 12 * 3600.0
    spectrum: bool = False
    service: JetsServiceConfig = field(
        default_factory=lambda: JetsServiceConfig(service_time=60e-6)
    )
    worker_slots: Optional[int] = None
    stage_binaries: bool = False


class CoasterService:
    """A running CoasterService: blocks of pilots + a dispatcher."""

    def __init__(
        self,
        platform: Platform,
        batch: BatchScheduler,
        config: Optional[CoastersConfig] = None,
    ):
        self.platform = platform
        self.env = platform.env
        self.batch = batch
        self.config = config or CoastersConfig()
        self.dispatcher = JetsDispatcher(
            platform,
            self.config.service,
            service="coasters",
            expected_workers=self.config.workers,
        )
        self.workers: list[WorkerAgent] = []
        self.allocations: list[Allocation] = []
        #: Fires when every provisioned worker has registered.
        self.ready: Event = self.env.event()
        self._started = False

    def start(self) -> None:
        """Bind the service and begin provisioning worker blocks."""
        if self._started:
            raise RuntimeError("CoasterService already started")
        self._started = True
        self.dispatcher.start()
        self.env.process(self._provision(), name="coasters-provision")

    def submit(self, job: JobSpec) -> Event:
        """Submit one task; returns the completion event."""
        return self.dispatcher.submit(job)

    def shutdown(self) -> Generator:
        """Stop workers and release all blocks."""
        yield from self.dispatcher.shutdown_workers()
        for alloc in self.allocations:
            self.batch.release(alloc)

    # -- internals --------------------------------------------------------------

    def _provision(self) -> Generator:
        cfg = self.config
        sizes = (
            spectrum_blocks(cfg.workers) if cfg.spectrum else [cfg.workers]
        )
        self.platform.trace.log(
            "run.allocation",
            {
                "machine": self.platform.spec.name,
                "nodes": cfg.workers,
                "blocks": sizes,
                "spectrum": cfg.spectrum,
            },
        )
        staging = None
        if cfg.stage_binaries:
            staging = StagingManager(self.env, [PROXY_IMAGE])
        block_procs = [
            self.env.process(self._start_block(size, staging), name="coasters-block")
            for size in sizes
        ]
        yield self.env.all_of(block_procs)
        self.ready.succeed(len(self.workers))

    def _start_block(self, size: int, staging) -> Generator:
        self.platform.trace.log("coasters.block_requested", {"size": size})
        alloc = yield from self.batch.submit(size, self.config.walltime)
        self.allocations.append(alloc)
        self.platform.trace.log("coasters.block_ready", {"size": size})
        self.platform.metrics.counter("coasters.blocks").incr()
        self.workers.extend(
            start_pilots(
                self.dispatcher,
                alloc.nodes,
                slots=self.config.worker_slots,
                staging=staging,
            )
        )
