"""Layer tracing for the benchmark's traced run.

Everything here wraps the program's public callables from outside;
nothing is added to ``src/``.  :class:`Tracer` keeps, per layer name, a
call count, total time and self time (total minus the time covered by
child layers), and a list of coarse spans ``(name, start, end,
parent)`` that stays in memory until :meth:`Tracer.write_spans`.

Hot callables (one call per L1 reference, per L2 access, ...) are
aggregated only: a span record per L1 access would hold millions of
tuples.  They still nest, so the self time of ``sim.finish_miss`` is
its duration minus the L2, NoC, Miss-bus and DRAM calls it makes.

``Cluster3D.__init__`` pre-binds the per-core L1 ``cache.access``
functions and the miss-path callables, so :func:`install` must run
before any cluster is built; it patches classes, never instances.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

_now = time.perf_counter_ns


class _Frame:
    __slots__ = ("name", "child_ns", "span")

    def __init__(self, name: str, span: int) -> None:
        self.name = name
        self.child_ns = 0
        self.span = span


class Tracer:
    """Per-layer call counts, total and self times, and coarse spans, for
    callables that run on one thread (the benchmark's own)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: ``(name, start_ns, end_ns, parent_index)``; parent -1 = root.
        self.spans: List[Tuple[str, int, int, int]] = []
        self._stack: List[_Frame] = []

    # ------------------------------------------------------------------
    def _record(self, name: str, duration: int, child_ns: int) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        stack = self._stack
        if stack:
            stack[-1].child_ns += duration

    def wrap(self, name: str, fn: Callable, span: bool) -> Callable:
        """``fn`` timed as layer ``name``; ``span`` also keeps a span
        record.  A call made while the same layer is already the
        innermost frame (e.g. ``get_many`` calling ``get``) counts once."""
        stack = self._stack
        record = self._record
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1].span if stack else -1
            index = -1
            if span:
                index = len(spans)
                spans.append((name, 0, 0, parent))
            frame = _Frame(name, index if span else parent)
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if span:
                    spans[index] = (name, start, end, parent)
                record(name, end - start, frame.child_ns)

        return wrapper

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """Cheaper :meth:`wrap` for callables that call no other traced
        layer (L1 lookups, NoC, L2, Miss bus, DRAM: the engine's own
        loop)."""
        stack = self._stack
        calls = self.calls
        total = self.total_ns
        selfs = self.self_ns
        calls.setdefault(name, 0)
        total.setdefault(name, 0)
        selfs.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            duration = _now() - start
            calls[name] += 1
            total[name] += duration
            selfs[name] += duration
            if stack:
                stack[-1].child_ns += duration
            return result

        return wrapper

    def wrap_iterator(self, name: str, iterator):
        """Time every ``next()`` of a lazy trace generator as ``name``."""
        stack = self._stack
        total = self.total_ns
        selfs = self.self_ns

        def timed():
            while True:
                start = _now()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = _now() - start
                    total[name] = total.get(name, 0) + duration
                    selfs[name] = selfs.get(name, 0) + duration
                    if stack:
                        stack[-1].child_ns += duration
                yield item

        return timed()

    # ------------------------------------------------------------------
    def seconds(self, name: str, self_time: bool = False) -> float:
        table = self.self_ns if self_time else self.total_ns
        return table.get(name, 0) / 1e9

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def write_spans(self, path) -> None:
        """Write the coarse spans as JSON lines (times in ns)."""
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent,
                }) + "\n")


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
_Patch = Tuple[object, str, object]


def _rebind_function(module_name: str, attr: str, wrapped: Callable,
                     undo: List[_Patch]) -> None:
    """Replace a module-level function everywhere it was imported by
    name inside the ``repro`` package."""
    original = getattr(sys.modules[module_name], attr)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, attr, None) is original:
            undo.append((module, attr, original))
            setattr(module, attr, wrapped)


def _patch_attr(owner: object, attr: str, value: object,
                undo: List[_Patch]) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary at class/module level; returns an
    ``uninstall`` callable that restores the originals."""
    import repro.paper  # noqa: F401 - load every module patched below
    import repro.store  # noqa: F401
    from repro.analysis.energy import EnergyModel
    from repro.mem.dram import DRAMModel, MissBus
    from repro.mem.l1 import L1Cache
    from repro.mem.l2 import BankedL2
    from repro.noc.base import Interconnect
    from repro.scenario import Scenario
    from repro.sim.cluster import Cluster3D
    from repro.sim.session import ScenarioResult
    from repro.store.base import ResultStore
    from repro.workloads.base import SyntheticWorkload

    undo: List[_Patch] = []
    wrap, leaf = tracer.wrap, tracer.wrap_leaf

    # workloads: trace_blocks returns lazy per-core generators, so the
    # generation time is the time spent inside their next() calls.
    trace_blocks = SyntheticWorkload.trace_blocks

    def traced_trace_blocks(self, *args, **kwargs):
        lazy = trace_blocks(self, *args, **kwargs)
        return {core: tracer.wrap_iterator("workloads.trace_gen", it)
                for core, it in lazy.items()}

    _patch_attr(SyntheticWorkload, "trace_blocks",
                wrap("workloads.trace_gen", traced_trace_blocks, span=True),
                undo)

    # scenario
    _patch_attr(Scenario, "build_cluster",
                wrap("scenario.build_cluster", Scenario.build_cluster,
                     span=True), undo)
    _rebind_function("repro.scenario", "scenario_fingerprint",
                     wrap("scenario.fingerprint",
                          sys.modules["repro.scenario"].scenario_fingerprint,
                          span=False), undo)

    # sim: the engine, its L1s and the shared miss path.
    _patch_attr(Cluster3D, "run", wrap("sim.run", Cluster3D.run, span=True),
                undo)
    _patch_attr(Cluster3D, "finish_miss",
                wrap("sim.finish_miss", Cluster3D.finish_miss, span=False),
                undo)
    l1_init = L1Cache.__init__

    def traced_l1_init(self, *args, **kwargs):
        l1_init(self, *args, **kwargs)
        # An instance attribute shadows the class method, so the
        # Cluster3D pre-binding picks up the timed version.
        self.cache.access = leaf("sim.l1", self.cache.access)

    _patch_attr(L1Cache, "__init__", traced_l1_init, undo)

    # noc + mot: every concrete interconnect defines its own access.
    for cls in _subclasses(Interconnect):
        if "access" in cls.__dict__:
            _patch_attr(cls, "access", leaf("noc.access", cls.__dict__["access"]),
                        undo)

    # mem
    for attr in ("demand_read", "absorb_writeback"):
        _patch_attr(BankedL2, attr, leaf("mem.l2", BankedL2.__dict__[attr]),
                    undo)
    _patch_attr(MissBus, "request", leaf("mem.missbus", MissBus.request), undo)
    _patch_attr(DRAMModel, "access", leaf("mem.dram", DRAMModel.access), undo)

    # analysis
    _patch_attr(EnergyModel, "breakdown",
                wrap("analysis.energy", EnergyModel.breakdown, span=True),
                undo)

    # sim.session serialization
    _patch_attr(ScenarioResult, "to_dict",
                wrap("session.to_dict", ScenarioResult.to_dict, span=True),
                undo)
    from_dict = ScenarioResult.__dict__["from_dict"].__func__
    _patch_attr(ScenarioResult, "from_dict",
                classmethod(wrap("session.from_dict", from_dict, span=True)),
                undo)

    # store: every backend's own read/write entry points.
    for cls in [ResultStore] + _subclasses(ResultStore):
        for attr, layer in (("get", "store.get"), ("get_raw", "store.get"),
                            ("get_many", "store.get"), ("put", "store.put")):
            if attr in cls.__dict__:
                _patch_attr(cls, attr, wrap(layer, cls.__dict__[attr],
                                            span=True), undo)

    # paper
    _rebind_function("repro.paper.generate", "run_paper",
                     wrap("paper.run",
                          sys.modules["repro.paper.generate"].run_paper,
                          span=True), undo)
    _rebind_function("repro.paper.build", "build_paper",
                     wrap("paper.build",
                          sys.modules["repro.paper.build"].build_paper,
                          span=True), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall
