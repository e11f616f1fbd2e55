"""Metrics: Eq. (1) utilization, timelines, summary statistics."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".stats": (
        "Summary", "ascii_series", "ascii_table", "histogram", "summarize",
    ),
    ".timeline": (
        "available_workers_series", "gauge_to_arrays",
        "running_jobs_series", "sample_series", "step_series",
    ),
    ".utilization": ("UtilizationLedger", "equation1"),
})
