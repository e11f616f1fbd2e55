"""The JETS middleware: dispatcher, workers, aggregation, fault tolerance."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".aggregator": ("Aggregator", "WorkerView"),
    ".chaos": ("ChaosConfig", "ChaosEngine", "FaultClause", "FaultPlan"),
    ".dispatcher": ("CompletedJob", "JetsDispatcher", "JetsServiceConfig"),
    ".jets": ("JetsConfig", "Simulation", "StandaloneReport"),
    ".policies": (
        "BackfillPolicy", "FifoPolicy", "PriorityPolicy", "QueuePolicy",
        "make_policy",
    ),
    ".recovery": ("PilotKeeper", "RecoveryPolicy"),
    ".staging": ("StagingError", "StagingManager"),
    ".tasklist": ("JobSpec", "TaskList", "TaskListError"),
    ".worker": ("WORKER_IMAGE", "WorkerAgent"),
})
