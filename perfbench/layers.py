"""Metric definitions and the interaction map.

``BENCHMARK.json`` lists every metric with its unit and direction; this
table adds, for each per-layer metric, the module it measures, the
end-to-end metric it should move and the workloads it should move on,
so a performance change can name the prediction it tests.  The
benchmark's tests check that both agree.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "ZERO_ON"]

#: ``(name, unit, better)``.
END_TO_END = (
    ("jobs_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_ALL = ("serial_stream", "mpi_ensemble", "crash_resume")
_MPI = ("mpi_ensemble", "crash_resume")
_CR = ("crash_resume",)
_RATE = ("jobs_per_s",)

#: ``(name, unit, better, module, moves, workloads)``.
PER_LAYER = (
    ("simkernel.events_per_job", "count/job", "lower", "simkernel", _RATE, _ALL),
    ("simkernel.events_per_s", "1/s", "higher", "simkernel", _RATE, _ALL),
    ("simkernel.self_s", "s", "lower", "simkernel", _RATE, _ALL),
    ("monitor.records_per_job", "count/job", "lower", "simkernel.monitor",
     _RATE + ("peak_rss_mb",), ("serial_stream", "mpi_ensemble")),
    ("monitor.log_s", "s", "lower", "simkernel.monitor", _RATE,
     ("serial_stream",)),
    ("monitor.spill_bytes_per_job", "B/job", "lower", "simkernel.monitor",
     _RATE, ("serial_stream",)),
    ("netsim.sends_per_job", "count/job", "lower", "netsim", _RATE, _MPI),
    ("netsim.bytes_per_job", "B/job", "lower", "netsim", _RATE, _MPI),
    ("netsim.send_s", "s", "lower", "netsim", _RATE, ("mpi_ensemble",)),
    ("netsim.connects", "count", "lower", "netsim", _RATE, ("mpi_ensemble",)),
    ("netsim.connect_s", "s", "lower", "netsim", _RATE, ("mpi_ensemble",)),
    ("mpi.launches", "count", "lower", "mpi", _RATE, ("mpi_ensemble",)),
    ("mpi.launch_s", "s", "lower", "mpi", _RATE, ("mpi_ensemble",)),
    ("mpi.proxies", "count", "lower", "mpi", _RATE, ("mpi_ensemble",)),
    ("mpi.proxy_s", "s", "lower", "mpi", _RATE, ("mpi_ensemble",)),
    ("mpi.wireup_sim_p50_s", "s", "lower", "mpi", _RATE, ("mpi_ensemble",)),
    ("oslayer.loads", "count", "lower", "oslayer", _RATE, ("mpi_ensemble",)),
    ("oslayer.load_s", "s", "lower", "oslayer", _RATE, ("mpi_ensemble",)),
    ("aggregator.can_place", "count", "lower", "core.aggregator", _RATE,
     ("mpi_ensemble",)),
    ("aggregator.place", "count", "lower", "core.aggregator", _RATE,
     ("mpi_ensemble",)),
    ("aggregator.place_ratio", "ratio", "higher", "core.aggregator", _RATE,
     ("mpi_ensemble",)),
    ("aggregator.self_s", "s", "lower", "core.aggregator", _RATE,
     ("mpi_ensemble",)),
    ("dispatcher.submit_s", "s", "lower", "core.dispatcher", _RATE,
     ("serial_stream",)),
    ("dispatcher.queue_wait_sim_p50_s", "s", "lower", "core.dispatcher",
     _RATE, ("serial_stream",)),
    ("dispatcher.queue_wait_sim_tail_s", "s", "lower", "core.dispatcher",
     _RATE, ("serial_stream",)),
    ("dispatcher.queue_wait_sim_tail_pct", "%", "higher", "core.dispatcher",
     _RATE, ("serial_stream",)),
    ("dispatcher.queue_wait_samples", "count", "higher", "core.dispatcher",
     _RATE, ("serial_stream",)),
    ("dispatcher.retries", "count", "lower", "core.dispatcher",
     _RATE + ("failed_frac",), _CR),
    ("journal.records_per_job", "count/job", "lower", "core.journal", _RATE,
     _CR),
    ("journal.bytes_per_job", "B/job", "lower", "core.journal", _RATE, _CR),
    ("journal.append_s", "s", "lower", "core.journal", _RATE, _CR),
    ("journal.flushes", "count", "lower", "core.journal", _RATE, _CR),
    ("journal.flush_s", "s", "lower", "core.journal", _RATE, _CR),
    ("resume.read_s", "s", "lower", "core.resume", _RATE, _CR),
    ("resume.replay_s", "s", "lower", "core.resume", _RATE, _CR),
    ("resume.run_s", "s", "lower", "core.resume", _RATE, _CR),
    ("resume.resubmitted", "count", "lower", "core.resume",
     _RATE + ("failed_frac",), _CR),
    ("resume.skipped", "count", "higher", "core.resume",
     _RATE + ("failed_frac",), _CR),
    ("setup.import_s", "s", "lower", "cluster", ("setup_s",), _ALL),
    ("setup.platform_s", "s", "lower", "cluster", ("setup_s",),
     ("mpi_ensemble",)),
    ("other.self_s", "s", "lower", "-", _RATE, _ALL),
    ("trace.wall_s", "s", "lower", "-", (), _ALL),
    ("trace.overhead_frac", "ratio", "lower", "-", (), _ALL),
    ("trace.spans", "count", "lower", "-", (), _ALL),
    ("run.jobs", "count", "higher", "-", (), _ALL),
)

#: Layer-bypass checks: counts that must be exactly 0 on a workload
#: that never enters the layer, so "no change expected" holds there by
#: construction.
ZERO_ON = {
    "serial_stream": (
        "mpi.launches", "mpi.proxies", "journal.records_per_job",
        "resume.resubmitted",
    ),
    "mpi_ensemble": ("journal.records_per_job", "resume.resubmitted"),
    "crash_resume": ("monitor.spill_bytes_per_job",),
}
