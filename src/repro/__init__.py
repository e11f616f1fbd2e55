"""repro — reproduction of JETS (Wozniak, Wilde, Katz; ICPP 2011 / JoGC 2013).

JETS is middleware for **many-parallel-task computing (MPTC)**: executing
large batches of short, tightly coupled MPI jobs inside a single batch
allocation on an HPC system.  This package reimplements the full JETS stack
— the pilot-job dispatcher, the MPICH2/Hydra ``launcher=manual`` bootstrap,
the ZeptoOS/Blue Gene/P substrate, and the Swift/Coasters dataflow layer —
on a deterministic discrete-event simulation of the paper's machines, and
regenerates every figure of the paper's evaluation.

Quick start::

    from repro import Simulation, surveyor, TaskList

    sim = Simulation(machine=surveyor(nodes=64))
    tasks = TaskList.from_lines(["MPI: 4 sleep 1.0"] * 100)
    report = sim.run_standalone(tasks)
    print(report.utilization)

Package layout
--------------

============================  =================================================
``repro.simkernel``           discrete-event simulation kernel
``repro.cluster``             machines, nodes, batch scheduler, allocations
``repro.netsim``              network fabrics (native vs TCP), topologies
``repro.oslayer``             process launch costs, ZeptoOS, filesystems
``repro.mpi``                 Hydra mpiexec/proxy bootstrap, PMI, communicator
``repro.core``                the JETS middleware itself
``repro.swift``               Swift-like dataflow engine + Coasters service
``repro.apps``                synthetic tasks, mini-MD, NAMD model, REM
``repro.baselines``           shell-script loop, IPS-like, Falkon-like
``repro.metrics``             utilization (paper Eq. 1), timelines, stats
``repro.experiments``         one harness per paper figure
============================  =================================================
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".core.jets": ("JetsConfig", "Simulation", "StandaloneReport"),
    ".core.tasklist": ("JobSpec", "TaskList"),
    ".cluster.machine": (
        "breadboard", "eureka", "generic_cluster", "surveyor",
    ),
})
__all__.append("__version__")
