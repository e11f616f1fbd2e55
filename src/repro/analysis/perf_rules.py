"""Hot-path performance rules (PF001-PF007).

The JETS scaling story lives or dies in the per-event inner loops: the
kernel event loop, the store dispatch fixpoints, and the dispatcher /
aggregator message handlers sustain ~10k tasks/s only while they stay
allocation-lean.  These rules make that discipline machine-checked
instead of tribal: each pattern is a *warning* anywhere, escalated to
an *error* when the enclosing function is in the **measured hot set**.

The hot set is not computed here.  ``jets bench --profile`` measures it
(see :mod:`repro.bench.harness`) and ``hot_set.json`` next to this
module commits it: every ``repro`` function that a ``--quick`` cProfile
of some macro workload calls at least once per 256 kernel events, or
charges with at least 1 % of the profiled self time.  Ids match
exactly, as ``module:qualname``.  ``jets lint --hot-profile FILE``
replaces the committed set for one run.

The rules are deliberately narrow — each trigger requires the hazard to
be demonstrably per-iteration or per-event cost (a loop-invariant copy,
a repeated attribute chain, formatting at a trace call site) so that a
clean ``src/`` stays achievable without blanketing the tree in noqa.
"""

from __future__ import annotations

import ast
import functools
import json
from pathlib import Path, PurePath
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .framework import Finding, Module, ProjectRule, register

__all__ = [
    "HOT_SET_PATH",
    "committed_hot_set",
    "def_qualnames",
    "hot_profile",
    "load_profile",
    "module_name_for",
    "set_hot_profile",
    "slotless_dataclasses",
]

#: The committed measured hot set: the output of ``jets bench --suite
#: macro --quick --no-mem --profile``, copied here.
HOT_SET_PATH = Path(__file__).with_name("hot_set.json")

#: Function ids from ``--hot-profile``; replaces the committed set for
#: the duration of one lint invocation.
_HOT_PROFILE: Optional[frozenset[str]] = None


def load_profile(path: str) -> dict[str, dict[str, int]]:
    """Read a ``jets bench --profile`` document: hot id -> call count
    per workload."""
    with open(path) as fh:
        doc = json.load(fh)
    hot = doc.get("hot") if isinstance(doc, dict) else None
    if not isinstance(hot, dict):
        raise ValueError(f"{path}: not a bench profile (missing 'hot')")
    return hot


@functools.cache
def committed_hot_set() -> frozenset[str]:
    """The ids in :data:`HOT_SET_PATH` (read once per process)."""
    return frozenset(load_profile(str(HOT_SET_PATH)))


def set_hot_profile(ids: Optional[Iterable[str]]) -> None:
    """Install (or clear, with None) a hot set replacing the committed one."""
    global _HOT_PROFILE
    _HOT_PROFILE = frozenset(ids) if ids is not None else None


def hot_profile() -> Optional[frozenset[str]]:
    return _HOT_PROFILE


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``.../src/repro/simkernel/core.py`` → ``repro.simkernel.core``;
    files outside a ``src``/``repro`` root fall back to their stem, so
    fixture files analyzed standalone still get stable ids.
    """
    p = PurePath(path)
    parts = list(p.parts[:-1])
    if p.stem != "__init__":
        parts.append(p.stem)
    last_index = {part: i for i, part in enumerate(parts)}
    for anchor in ("src", "repro"):
        i = last_index.get(anchor)
        if i is not None:
            tail = parts[i + 1:] if anchor == "src" else parts[i:]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else p.stem or "module"


_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def def_qualnames(tree: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Every function def in ``tree`` with its dotted qualname
    (``Class.method``, ``outer.inner``) — the part of a hot-set id
    after the ``module:``."""

    def visit(node: ast.AST, prefix: str) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_DEFS):
                yield child, prefix + child.name
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    return visit(tree, "")


def _hot_test(
    module: Module, hot: frozenset[str]
) -> Callable[[ast.AST], bool]:
    """``is_hot(node)`` for one module: whether the innermost def around
    ``node`` is in the hot set.  Lambdas count toward their enclosing
    def, as their frames do in the profile."""
    prefix = module_name_for(module.path) + ":"
    hot_defs = {
        id(d) for d, q in def_qualnames(module.tree) if prefix + q in hot
    }

    def is_hot(node: ast.AST) -> bool:
        if not hot_defs:
            return False
        enclosing = module.dataflow.enclosing_function
        cur = enclosing(node)
        while isinstance(cur, ast.Lambda):
            cur = enclosing(cur)
        return id(cur) in hot_defs

    return is_hot


class PerfRule(ProjectRule):
    """Base for PF rules: hot-set lookup + severity escalation."""

    severity = "warning"

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        hot = _HOT_PROFILE
        if hot is None:
            hot = committed_hot_set()
        for module in modules:
            yield from self.check_module(module, _hot_test(module, hot))

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def pf_finding(
        self, module: Module, node: ast.AST, message: str, hot: bool
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity="error" if hot else "warning",
            message=message + (" [hot path]" if hot else ""),
            hot=hot,
        )


def _enclosing_loop(module: Module, node: ast.AST) -> Optional[ast.AST]:
    """The innermost loop whose *body* re-executes ``node`` each
    iteration, within the same function.

    A ``for`` loop's ``iter``/``target`` expressions evaluate once, so
    a node reached through them is attributed to the next loop out (a
    ``while`` test, by contrast, does run per iteration).  The search
    stops at a function boundary.
    """
    df = module.dataflow
    prev: ast.AST = node
    cur = df.parent.get(node)
    while cur is not None:
        if isinstance(cur, (ast.For, ast.AsyncFor)):
            if prev is not cur.iter and prev is not cur.target:
                return cur
        elif isinstance(cur, ast.While):
            return cur
        elif isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return None
        prev = cur
        cur = df.parent.get(cur)
    return None


def _names_bound_in(node: ast.AST) -> set[str]:
    """Every name bound anywhere inside ``node`` (loop targets,
    assignments, with-items, comprehension targets, func params)."""
    bound: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            bound.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(sub.name)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
    return bound


_BUILTIN_COPIES = frozenset({"list", "dict", "set", "tuple", "frozenset"})
_LAZY_REDUCERS = frozenset({"sum", "min", "max", "any", "all"})


@register
class AllocationInEventLoop(PerfRule):
    """Per-iteration allocation that a hoist or a generator removes.

    Two shapes: (a) a builtin copy — ``list(x)`` / ``dict(x)`` /
    ``set(x)`` / ``tuple(x)`` — inside a loop whose argument is not
    rebound by the loop, so the identical copy is rebuilt every
    iteration; (b) ``sum``/``min``/``max``/``any``/``all`` over a list
    comprehension, which materializes a throwaway list where a
    generator expression streams.  On the kernel event path either
    shape turns into an allocation per *event*, which is exactly the
    churn PR 5's slots/inline-heappush work removed.  Copies that are
    semantically required (snapshots of mutating state) take a
    ``# repro: noqa[PF001]`` with the reason.
    """

    id = "PF001"
    description = (
        "allocation in a per-event loop (loop-invariant copy or "
        "reducer over a list comprehension); error on the hot path"
    )
    example_bad = (
        "while self.queue:\n"
        "    for view in list(self.workers):  # same copy every pass\n"
        "        view.poll()"
    )
    example_good = (
        "views = list(self.workers)\n"
        "while self.queue:\n"
        "    for view in views:\n"
        "        view.poll()"
    )

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        bound_cache: dict[int, set[str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Name):
                continue
            if (
                func.id in _LAZY_REDUCERS
                and node.args
                and isinstance(node.args[0], ast.ListComp)
            ):
                yield self.pf_finding(
                    module, node,
                    f"{func.id}() over a list comprehension "
                    "materializes a throwaway list; use a generator "
                    "expression",
                    is_hot(node),
                )
                continue
            if (
                func.id in _BUILTIN_COPIES
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Name)
            ):
                loop = _enclosing_loop(module, node)
                if loop is None:
                    continue
                bound = bound_cache.get(id(loop))
                if bound is None:
                    bound = bound_cache[id(loop)] = _names_bound_in(loop)
                arg = node.args[0].id
                if arg in bound or func.id in bound:
                    continue
                yield self.pf_finding(
                    module, node,
                    f"loop-invariant {func.id}({arg}) rebuilt every "
                    "iteration; hoist the copy out of the loop",
                    is_hot(node),
                )


def _attr_chain(node: ast.Attribute) -> Optional[tuple[str, ...]]:
    """``self.platform.trace.log`` → ("self","platform","trace","log");
    None if the chain is broken by a call/subscript or non-Name root."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return tuple(parts)


@register
class UnhoistedAttributeChain(PerfRule):
    """The same multi-step attribute chain resolved repeatedly in one
    loop.

    ``self.platform.trace.log(...)`` costs three dict lookups per call;
    executed twice (or more) per iteration of a per-event loop that is
    measurable interpreter overhead the compiler will not remove.  The
    fix is one line: bind the chain to a local before the loop
    (``log = self.platform.trace.log``).  Chains rooted at a name the
    loop rebinds are exempt (the lookup genuinely differs per
    iteration), as are chains interrupted by calls or subscripts.
    """

    id = "PF002"
    description = (
        "multi-step attribute chain resolved 2+ times per loop "
        "iteration; hoist to a local (error on the hot path)"
    )
    example_bad = (
        "while True:\n"
        "    msg = yield sock.recv()\n"
        "    self.platform.trace.log(...)\n"
        "    self.platform.trace.log(...)"
    )
    example_good = (
        "log = self.platform.trace.log\n"
        "while True:\n"
        "    msg = yield sock.recv()\n"
        "    log(...)\n"
        "    log(...)"
    )

    #: Minimum attribute links (a.b.c = 2 links) for a chain to count.
    min_links = 2

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        df = module.dataflow
        # innermost loop id -> chain -> [attribute nodes]
        per_loop: dict[int, dict[tuple[str, ...], list[ast.Attribute]]]
        per_loop = {}
        loops: dict[int, ast.AST] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            parent = df.parent.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue  # not the maximal chain
            chain = _attr_chain(node)
            if chain is None or len(chain) - 1 < self.min_links:
                continue
            loop = _enclosing_loop(module, node)
            if loop is None:
                continue
            loops[id(loop)] = loop
            per_loop.setdefault(id(loop), {}).setdefault(
                chain, []
            ).append(node)
        bound_cache: dict[int, set[str]] = {}
        for loop_key, chains in per_loop.items():
            loop = loops[loop_key]
            bound = bound_cache.get(loop_key)
            if bound is None:
                bound = bound_cache[loop_key] = _names_bound_in(loop)
            for chain, nodes in chains.items():
                if len(nodes) < 2 or chain[0] in bound:
                    continue
                first = min(
                    nodes, key=lambda n: (n.lineno, n.col_offset)
                )
                dotted = ".".join(chain)
                yield self.pf_finding(
                    module, first,
                    f"attribute chain '{dotted}' resolved "
                    f"{len(nodes)}x per loop iteration; bind it to a "
                    "local before the loop",
                    is_hot(first),
                )


def _is_trace_log_call(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "log"):
        return False
    recv = func.value
    if isinstance(recv, ast.Name):
        return recv.id == "trace"
    if isinstance(recv, ast.Attribute):
        return recv.attr == "trace"
    return False


def _formatted_exprs(expr: ast.expr) -> Iterator[ast.expr]:
    """Eager string-formatting sub-expressions of a call argument."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.JoinedStr):
            if any(
                isinstance(v, ast.FormattedValue) for v in sub.values
            ):
                yield sub
        elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod):
            left = sub.left
            if isinstance(left, ast.Constant) and isinstance(
                left.value, str
            ):
                yield sub
        elif isinstance(sub, ast.Call):
            f = sub.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "format"
                and isinstance(f.value, ast.Constant)
                and isinstance(f.value.value, str)
            ):
                yield sub


@register
class FormattingAtTraceCallSite(PerfRule):
    """String formatting evaluated eagerly inside a ``trace.log`` call.

    ``trace.log`` runs once per traced event; an f-string (or ``%`` /
    ``.format``) in its arguments is formatted *before* the call, so
    the cost is paid even when every sink drops the record.  Payload
    fields should carry the raw values — the exporter renders them
    lazily, and goldens stay byte-stable because rendering is
    centralized.  This is the trace-call-site audit for the obs layer:
    on the dispatcher/aggregator event path one f-string per message is
    a measurable slice of the 10k tasks/s budget.
    """

    id = "PF003"
    description = (
        "eager string formatting (f-string/%/.format) inside a "
        "trace.log call site; error on the hot path"
    )
    example_bad = (
        'trace.log(t, "worker", "killed",\n'
        '          {"cause": f"protocol error: {kind!r}"})'
    )
    example_good = (
        'trace.log(t, "worker", "killed",\n'
        '          {"cause": "protocol error", "kind": kind})'
    )

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_trace_log_call(node):
                continue
            args = list(node.args) + [
                kw.value for kw in node.keywords if kw.value is not None
            ]
            hot = is_hot(node)
            for arg in args:
                for bad in _formatted_exprs(arg):
                    yield self.pf_finding(
                        module, bad,
                        "string formatted eagerly at a trace.log call "
                        "site; pass raw fields and let the exporter "
                        "render",
                        hot,
                    )


def _base_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):  # Generic[T]-style bases
        return _base_name(expr.value)
    return None


def _class_is_slotted(node: ast.ClassDef) -> bool:
    """``__slots__`` in the body, or a ``slots=True`` decorator."""
    for stmt in node.body:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        )
        if any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in targets
        ):
            return True
    return any(
        kw.arg == "slots"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for deco in node.decorator_list if isinstance(deco, ast.Call)
        for kw in deco.keywords
    )


def _class_is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _base_name(deco.func if isinstance(deco, ast.Call) else deco)
        == "dataclass"
        for deco in node.decorator_list
    )


_EXC_SUFFIXES = ("Error", "Exception", "Warning", "Interrupt")
#: Bases that make instantiation a lookup or an already-compact layout.
_SLOT_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "NamedTuple",
    "tuple", "TypedDict", "Protocol",
})


def _looks_exceptional(name: str) -> bool:
    return name.endswith(_EXC_SUFFIXES) or name in (
        "BaseException", "KeyboardInterrupt", "StopIteration",
    )


def _flaggable(node: ast.ClassDef) -> bool:
    """A slot-less dataclass that is neither an exception nor built on
    an exempt base: the only class shape PF004 reports."""
    bases = {b for b in map(_base_name, node.bases) if b}
    return (
        _class_is_dataclass(node)
        and not _class_is_slotted(node)
        and not _looks_exceptional(node.name)
        and not any(_looks_exceptional(b) for b in bases)
        and not bases & _SLOT_EXEMPT_BASES
    )


def slotless_dataclasses(modules: Sequence[Module]) -> frozenset[str]:
    """Class names PF004 flags when instantiated in a loop.

    Calls are matched by name only, so a name qualifies when *every*
    project class of that name is :func:`_flaggable`.
    """
    verdict: dict[str, bool] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                verdict[node.name] = (
                    verdict.get(node.name, True) and _flaggable(node)
                )
    return frozenset(name for name, ok in verdict.items() if ok)


@register
class HotClassWithoutSlots(PerfRule):
    """Instantiating a slot-less dataclass on the hot path.

    Every instance of a class without ``__slots__`` carries a per-
    instance ``__dict__`` (~56+ bytes and a dict allocation); on the
    per-event path that multiplies by the event rate.  PR 5 already
    slotted the event hierarchy — this rule keeps new hot-path record
    classes honest.  Flagged when a project-defined, slot-less
    *dataclass* is instantiated *inside a loop*: error when the loop
    runs in a hot function (per-event allocation), warning elsewhere.
    Scoped to dataclasses deliberately: they advertise record
    semantics and take ``slots=True`` for free, while retrofitting
    ``__slots__`` onto service/facade classes is invasive and buys
    little (they are built once, not per event).  One-time setup
    instantiation is exempt even in hot functions; so are exception
    classes (raising is the slow path by definition).
    """

    id = "PF004"
    description = (
        "slot-less dataclass instantiated in a (hot-path) loop; "
        "declare it dataclass(slots=True)"
    )
    example_bad = (
        "class WorkerView:  # no __slots__\n"
        "    ...\n"
        "def _handle_worker(self, sock):\n"
        "    view = WorkerView(sock)  # hot: one __dict__ per message"
    )
    example_good = (
        "@dataclass(slots=True)\n"
        "class WorkerView:\n"
        "    ..."
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        self._slotless = slotless_dataclasses(modules)
        return super().check_project(modules)

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        slotless = self._slotless
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                cname = func.id
            elif isinstance(func, ast.Attribute):
                cname = func.attr
            else:
                continue
            if cname not in slotless:
                continue
            if _enclosing_loop(module, node) is None:
                continue
            yield self.pf_finding(
                module, node,
                f"class {cname} has no __slots__; each instance "
                "allocates a __dict__ — add __slots__ or "
                "dataclass(slots=True)",
                is_hot(node),
            )


@register
class TryInEventLoop(PerfRule):
    """``try``/``except`` setup inside a hot per-event loop.

    Entering a ``try`` block per iteration adds interpreter block-stack
    work on every event; hoisting the loop inside the ``try`` (or
    moving the guarded call out) pays it once.  Scoped to *hot*
    functions only: in cold driver/tooling code, per-item ``try`` is
    the normal error-recovery idiom and is deliberately not flagged.
    ``try`` blocks that contain a ``yield`` are exempt everywhere —
    catching :class:`Interrupt`/failure around a yield point is how
    simkernel process bodies are *supposed* to handle cancellation.
    """

    id = "PF005"
    description = (
        "try/except inside a per-event loop in a hot function "
        "(try-around-yield is exempt)"
    )
    example_bad = (
        "while self.queue:\n"
        "    try:\n"
        "        self._place(self.queue[0])\n"
        "    except KeyError:\n"
        "        break"
    )
    example_good = (
        "try:\n"
        "    while self.queue:\n"
        "        self._place(self.queue[0])\n"
        "except KeyError:\n"
        "    pass"
    )

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            if _enclosing_loop(module, node) is None:
                continue
            if any(
                isinstance(sub, (ast.Yield, ast.YieldFrom))
                for stmt in node.body
                for sub in ast.walk(stmt)
            ):
                continue
            if not is_hot(node):
                continue
            yield self.pf_finding(
                module, node,
                "try/except entered every iteration of a per-event "
                "loop; hoist the loop into the try or move the guarded "
                "call out",
                True,
            )


#: heapq's heap-maintenance functions (the query helpers — merge,
#: nlargest, nsmallest — are not heap *scheduling* and stay unflagged).
_HEAP_FNS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace"}
)

#: The one module allowed to own scheduling heaps: the kernel scheduler
#: (its calendar-queue overflow heap).
_SCHEDULER_MODULE = "repro.simkernel.core"


@register
class HeapOutsideScheduler(PerfRule):
    """Direct ``heapq`` traffic outside the kernel scheduler.

    The event-loop flattening work moved scheduling off the flat
    ``heapq`` of per-event tuples onto the calendar queue precisely
    because sift-up/sift-down plus a tuple allocation per push is
    measurable at per-event rates — a new ``heappush`` on a hot path
    (worse, one pushing a tuple entry, which re-creates the old
    time-ordered-tuple pattern wholesale) quietly reintroduces the cost
    the kernel just shed.  Time/priority ordering belongs in
    :class:`~repro.simkernel.core.Environment`; only the scheduler
    module itself (its sorted-overflow structure) owns a scheduling
    heap.  Genuine non-scheduling heaps (e.g.
    priority-ordered *items* in a store) take a
    ``# repro: noqa[PF007]`` with the reason.
    """

    id = "PF007"
    description = (
        "direct heapq use (or tuple heap entries) outside the kernel "
        "scheduler; error on the hot path"
    )
    example_bad = (
        "import heapq\n"
        "def _handle_worker(self, msg):\n"
        "    heapq.heappush(self.pending, (deadline, seq, msg))"
    )
    example_good = (
        "# schedule through the kernel instead of a private time heap\n"
        "self.env.timeout(deadline - self.env.now, value=msg)"
    )

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        if module_name_for(module.path) == _SCHEDULER_MODULE:
            return
        # Names bound by `from heapq import heappush [as push]` (plus
        # local aliases like `heappop = heapq.heappop`).
        local_heap_fns: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "heapq":
                for alias in node.names:
                    if alias.name in _HEAP_FNS:
                        local_heap_fns[alias.asname or alias.name] = (
                            alias.name
                        )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "heapq"
                and node.value.attr in _HEAP_FNS
            ):
                local_heap_fns[node.targets[0].id] = node.value.attr
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "heapq"
                and func.attr in _HEAP_FNS
            ):
                fname = func.attr
            elif isinstance(func, ast.Name) and func.id in local_heap_fns:
                fname = local_heap_fns[func.id]
            else:
                continue
            tuple_entry = (
                fname in ("heappush", "heappushpop", "heapreplace")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Tuple)
            )
            detail = (
                " with a tuple entry (the flat-heap pattern the "
                "calendar queue replaced)"
                if tuple_entry
                else ""
            )
            yield self.pf_finding(
                module, node,
                f"heapq.{fname}(){detail} outside the kernel scheduler; "
                "schedule through the Environment calendar queue or "
                "justify the private heap",
                is_hot(node),
            )


_LIST_MAKERS = frozenset({"list", "sorted"})


def _is_list_typed(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.ListComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in _LIST_MAKERS
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _is_list_typed(expr.left) or _is_list_typed(expr.right)
    return False


@register
class ListMembershipInHotFunction(PerfRule):
    """O(n) membership test against a list in a hot function.

    ``x in some_list`` scans linearly; on the per-event path that turns
    the event loop quadratic as the list grows.  Flagged when every
    reaching definition of the tested name is list-typed (literal,
    comprehension, ``list()``/``sorted()`` call) — a set or frozenset
    makes the same test O(1).  Outside hot functions only membership
    tests *inside loops* warn; a one-off scan in cold code is fine.
    """

    id = "PF006"
    description = (
        "O(n) list-membership test in a hot function (or in a loop); "
        "use a set/frozenset"
    )
    example_bad = (
        "active = []  # job ids\n"
        "while self.queue:\n"
        "    if job.id in active: ..."
    )
    example_good = (
        "active = set()\n"
        "while self.queue:\n"
        "    if job.id in active: ..."
    )

    def check_module(
        self, module: Module, is_hot: Callable[[ast.AST], bool]
    ) -> Iterator[Finding]:
        df = module.dataflow
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if len(node.ops) != 1 or not isinstance(
                node.ops[0], (ast.In, ast.NotIn)
            ):
                continue
            target = node.comparators[0]
            if not isinstance(target, ast.Name):
                continue
            defs = df.reaching_defs(node, target.id)
            if not defs or not all(_is_list_typed(d) for d in defs):
                continue
            hot = is_hot(node)
            if not hot and _enclosing_loop(module, node) is None:
                continue
            yield self.pf_finding(
                module, node,
                f"membership test scans list '{target.id}' (O(n)); "
                "use a set/frozenset",
                hot,
            )
