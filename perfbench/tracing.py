"""Span tracing installed from outside the program, for the traced run.

:class:`Tracer` replaces a fixed set of the simulator's functions with
wrappers that record one span per call: name, start, end, parent span
and the job id when the call's arguments carry one.  A generator
function gets one span per resumption, so a span never covers simulated
time the generator spent suspended.  Spans stay in memory; the driver
writes them out as JSONL after the run.  :meth:`Tracer.restore` puts
every original back, so an untraced run in the same process sees the
unwrapped program.

Each wrapper is installed on the object callers look the name up on at
call time: the class for methods, the importing module for functions
imported by name (``repro.core.worker.run_proxy``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

__all__ = ["TARGETS", "LAYER_OF", "Tracer", "self_times"]

#: ``(module, owner, attribute, span name, is_generator)``.  ``owner`` is
#: a class name inside ``module`` or ``None`` for a module-level name.
TARGETS = (
    ("repro.simkernel.core", "Environment", "run", "simkernel.run", False),
    ("repro.simkernel.monitor", "Trace", "log", "monitor.log", False),
    ("repro.simkernel.monitor", "StreamingTrace", "log", "monitor.log", False),
    ("repro.netsim.sockets", "Socket", "send", "netsim.send", False),
    ("repro.netsim.sockets", "Network", "connect", "netsim.connect", True),
    ("repro.mpi.hydra", "MpiexecController", "launch", "mpi.launch", True),
    ("repro.core.worker", None, "run_proxy", "mpi.proxy", True),
    ("repro.cluster.node", None, "load_executable", "oslayer.load", True),
    *(
        ("repro.core.aggregator", "Aggregator", name, "aggregator." + name,
         False)
        for name in (
            "add_worker", "remove_worker", "get", "workers", "mark_ready",
            "can_place", "place", "release", "group_diameter",
        )
    ),
    ("repro.core.dispatcher", "JetsDispatcher", "submit_many",
     "dispatcher.submit_many", False),
    *(
        ("repro.core.journal", "RunJournal", name, "journal.append", False)
        for name in (
            "append", "run_begin", "run_end", "job_submitted",
            "job_launched", "job_retry", "job_done", "job_failed",
            "worker_registered", "worker_lost",
        )
    ),
    ("repro.core.journal", "RunJournal", "flush", "journal.flush", False),
    ("repro.core.resume", None, "read_journal", "resume.read", False),
    ("repro.core.resume", None, "replay", "resume.replay", False),
    ("repro.core.resume", None, "resume_run", "resume.run", False),
)

#: Span name -> the per-layer self-time metric it is charged to.  Spans
#: exist only at these boundaries, so ``simkernel.self_s`` also holds the
#: process bodies the kernel resumes (dispatcher, worker and Hydra loops)
#: wherever no wrapped call covers them.
LAYER_OF = {
    "simkernel.run": "simkernel.self_s",
    "monitor.log": "monitor.log_s",
    "netsim.send": "netsim.send_s",
    "netsim.connect": "netsim.connect_s",
    "mpi.launch": "mpi.launch_s",
    "mpi.proxy": "mpi.proxy_s",
    "oslayer.load": "oslayer.load_s",
    "dispatcher.submit_many": "dispatcher.submit_s",
    "journal.append": "journal.append_s",
    "journal.flush": "journal.flush_s",
    "resume.read": "resume.read_s",
    "resume.replay": "resume.replay_s",
    "resume.run": "resume.run_s",
    **{
        name: "aggregator.self_s"
        for _m, owner, _a, name, _g in TARGETS
        if owner == "Aggregator"
    },
}


def _job_of(args, kwargs):
    """The job id a call's arguments carry, or ``None``.

    Looks one level deep: an argument with a ``job_id`` attribute (a
    ``JobSpec``, ``ProxyCommand`` or ``MpiexecController``), a trace
    payload dict with a ``job`` key, or a message tuple holding either.
    """
    for arg in (*args, *kwargs.values()):
        job = getattr(arg, "job_id", None)
        if job is not None:
            return str(job)
        if type(arg) is dict:
            job = arg.get("job")
            if job is not None:
                return str(job)
        elif type(arg) is tuple:
            for item in arg:
                job = getattr(item, "job_id", None)
                if job is not None:
                    return str(job)
    return None


class Tracer:
    """Installs span wrappers, keeps the spans, restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        #: ``[name index, start, end, parent span index or -1, job]``.
        self.spans: list[list] = []
        #: Calls per name index (a generator's resumptions are one call).
        self.call_counts: list[int] = []
        #: Payload bytes handed to ``Socket.send``.
        self.send_bytes = 0
        #: Kernel events processed inside ``Environment.run`` calls.
        self.events = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raises if already installed."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, owner_name, attr, span, is_gen in targets:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
                index = len(self.names)
                self.names.append(span)
                self.call_counts.append(0)
                make = self._wrap_gen if is_gen else self._wrap_call
                wrapper = make(index, original)
                if span == "netsim.send":
                    wrapper = self._count_bytes(wrapper)
                elif span == "simkernel.run":
                    wrapper = self._count_events(wrapper)
                setattr(owner, attr, functools.wraps(original)(wrapper))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = self.call_counts

        def traced(*args, **kwargs):
            calls[index] += 1
            span = [index, 0.0, 0.0, stack[-1], _job_of(args, kwargs)]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _wrap_gen(self, index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = self.call_counts

        def drive(gen, job):
            value, error = None, None
            while True:
                span = [index, 0.0, 0.0, stack[-1], job]
                spans.append(span)
                stack.append(len(spans) - 1)
                span[1] = clock()
                try:
                    item = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    span[2] = clock()
                    stack.pop()
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # Interrupt etc.: forward it
                    value, error = None, exc

        def traced(*args, **kwargs):
            calls[index] += 1
            gen = fn(*args, **kwargs)
            wrapped = drive(gen, _job_of(args, kwargs))
            # Process names default to the generator's __name__.
            wrapped.__name__ = gen.__name__
            wrapped.__qualname__ = gen.__qualname__
            return wrapped

        return traced

    def _count_bytes(self, send):
        def counted(sock, payload, nbytes=64):
            self.send_bytes += nbytes
            return send(sock, payload, nbytes)

        return counted

    def _count_events(self, run):
        def counted(env, *args, **kwargs):
            before = env.events_processed
            try:
                return run(env, *args, **kwargs)
            finally:
                self.events += env.events_processed - before

        return counted

    # -- results -----------------------------------------------------------

    def calls(self) -> dict[str, int]:
        """Calls per span name, summed over names shared by several
        targets (both ``log`` methods, every journal append method)."""
        out = dict.fromkeys(self.names, 0)
        for name, n in zip(self.names, self.call_counts):
            out[name] += n
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i, (index, start, end, parent, job) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": names[index],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_times(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer self seconds plus ``other.self_s``.

    A span's self time is its duration minus its direct children's
    durations (children nest inside their parent, so this is the part of
    the parent's interval no child covers).  ``other.self_s`` is the
    part of ``wall_s`` no top-level span covers, so the values sum to
    ``wall_s``.  A span name outside :data:`LAYER_OF` is its own key.
    """
    spans, names = tracer.spans, tracer.names
    child = [0.0] * len(spans)
    top = 0.0
    for index, start, end, parent, _job in spans:
        if parent < 0:
            top += end - start
        else:
            child[parent] += end - start
    out = dict.fromkeys(sorted(set(LAYER_OF.values())), 0.0)
    for i, (index, start, end, _parent, _job) in enumerate(spans):
        layer = LAYER_OF.get(names[index], names[index])
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    out["other.self_s"] = wall_s - top
    return out
