#!/usr/bin/env python3
"""Fault tolerance: JETS on a crumbling allocation.

Reproduces the Section 6.1.5 scenario interactively: pilot workers are
killed one by one while a long batch runs.  JETS detects dead workers
(socket close + heartbeat timeout), resubmits their jobs, and keeps the
surviving nodes busy.

Run:  python examples/fault_tolerance.py
"""

from repro import Simulation, TaskList
from repro.cluster.machine import generic_cluster
from repro.core.chaos import pilot_kill_plan
from repro.core.jets import JetsConfig
from repro.metrics.timeline import available_workers_series

WORKERS = 12
FAULT_INTERVAL = 5.0


def main() -> None:
    machine = generic_cluster(nodes=WORKERS, cores_per_node=1)
    sim = Simulation(machine, JetsConfig(worker_slots=1))
    # Oversized queue of short MPI jobs: work never runs out.
    tasks = TaskList.from_lines(["MPI: 2 mpi-bench 1.0"] * 800)
    report = sim.run_standalone(
        tasks,
        faults=pilot_kill_plan(FAULT_INTERVAL),
        until=FAULT_INTERVAL * (WORKERS + 4),
    )

    print(f"faults injected  : {report.faults_injected}")
    print(f"jobs completed   : {report.jobs_completed}")
    print(f"jobs retried     : "
          f"{len(report.platform.trace.select('job.retry'))}")
    print(f"permanent failures: {report.jobs_failed}")

    print("\nworker population over time:")
    for t, level in available_workers_series(report.platform.trace):
        bar = "#" * level
        print(f"  t={t:7.1f}s  {level:3d} {bar}")

    # The headline claim: jobs whose workers died were recovered, and the
    # batch kept making progress until no workers remained.
    assert report.faults_injected >= WORKERS - 1
    assert report.jobs_completed > 50


if __name__ == "__main__":
    main()
