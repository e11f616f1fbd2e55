"""Falkon-style dispatcher baseline (Section 2).

"The Falkon system enables MTC on Blue Gene/P resources, but only for
single-job executions, and does not support the MPTC paradigm."  We model
it as the same pilot-worker architecture as JETS with the MPI path removed:
serial tasks dispatch at comparable rates (Falkon was the state of the art
there), and any MPI job is rejected — which is precisely the gap JETS
fills.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..cluster.machine import MachineSpec
from ..core.jets import (
    JetsConfig,
    Simulation,
    StandaloneReport,
    service_config_for,
)
from ..core.tasklist import JobSpec, TaskList

__all__ = ["FalkonUnsupportedError", "FalkonSimulation"]


class FalkonUnsupportedError(RuntimeError):
    """Falkon cannot execute multi-process (MPI) tasks."""


class FalkonSimulation:
    """A Falkon-like many-task service: serial tasks only."""

    def __init__(
        self,
        machine: MachineSpec,
        config: Optional[JetsConfig] = None,
        seed: int = 0,
    ):
        self.machine = machine
        self._sim = Simulation(
            machine,
            config or JetsConfig(service=service_config_for(machine)),
            seed=seed,
        )

    def run_batch(
        self,
        jobs: Iterable[JobSpec],
        allocation_nodes: Optional[int] = None,
    ) -> StandaloneReport:
        """Run a batch of strictly serial tasks.

        Raises :class:`FalkonUnsupportedError` if any job needs more than
        one process.
        """
        job_list = list(jobs)
        for job in job_list:
            if job.mpi or job.world_size > 1:
                raise FalkonUnsupportedError(
                    f"{job.job_id}: Falkon supports only single-process "
                    f"tasks (got {job.nodes}×{job.ppn})"
                )
        return self._sim.run_standalone(
            TaskList(job_list),
            allocation_nodes=allocation_nodes,
        )
