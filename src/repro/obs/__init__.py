"""Observability: lifecycle spans, metrics registry, exporters, reports.

The measurement substrate for the whole reproduction (paper Section
6.1.5: every reported result derives from worker/task start/stop
instrumentation).  Four pieces:

* :mod:`repro.obs.spans` — typed job/worker/proxy lifecycle spans
  reconstructed from trace records.
* :mod:`repro.obs.metrics` — named counters, time-weighted gauges and
  quantile histograms components register into.
* :mod:`repro.obs.export` — JSONL trace dump/reload and Chrome
  ``trace_event`` output (Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.report` — plain-text run summaries (throughput,
  utilization, per-stage latency quantiles, fault counts).

:mod:`repro.obs.session` ties them to the CLIs: ``with
obs.session(trace_out="run.jsonl", report=True):`` captures every
platform built inside the block and exports on exit.
"""

from .._lazy import lazy_exports

# ``session`` is both a submodule and a function: bound eagerly so that
# ``from repro.obs import session`` always gives the function (see
# :mod:`repro._lazy`).  The module itself is light; it is on every run
# path through :class:`~repro.cluster.platform.Platform`.
from .session import ObsSession, active, session

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".export": ("read_jsonl", "to_chrome_trace", "to_jsonl"),
    ".metrics": ("Histogram", "Registry", "quantile"),
    ".report": ("RunReport", "render_report"),
    ".session": ("ObsSession", "active", "session"),
    ".spans": (
        "AttemptSpan", "JobSpan", "ProxySpan", "RunSpans", "Transition",
        "WorkerSpan", "build_spans",
    ),
})
