"""Layer spans for the traced run.

:func:`install` wraps the entry points of each layer -- at class level,
before any machine is built, so bound methods captured at construction
(the packet dispatch tables) and at scheduling time see the wrapper.  Every
call then records a span: its layer, start, end and the span it was called
from.  Spans are held in flat in-memory columns and reduced at the end:
a layer's self time is its spans' durations minus the time covered by their
child spans.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class SpanRecorder:
    """Flat span columns plus the stack of currently open spans."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        #: Indices of the open spans.
        self._stack: List[int] = []
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans (call between spans, not inside one)."""
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _open(self, lid: int) -> int:
        index = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        lid = self.layer_id(layer)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)
        return traced

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around the benchmark's own call."""
        index = self._open(self.layer_id(layer))
        try:
            yield
        finally:
            self._close(index)

    def split(self) -> Dict[str, Tuple[float, int]]:
        """``{layer: (self seconds, calls)}`` over the recorded spans."""
        n = len(self.layer)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            name = self.layers[self.layer[i]]
            self_time[name] += end[i] - start[i] - child[i]
            calls[name] += 1
        return {name: (self_time[name], calls[name]) for name in calls}


def _patch(recorder: SpanRecorder, owner, name: str, layer: str) -> None:
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(recorder.wrap(layer, raw.__func__)))
    else:
        setattr(owner, name, recorder.wrap(layer, raw))


#: Frontend module class -> layer.
_FRONTEND_LAYERS = (
    ("repro.frontend.gateway", "PipelineGateway", "frontend.gateway"),
    ("repro.frontend.trs", "TaskReservationStation", "frontend.trs"),
    ("repro.frontend.ort", "ObjectRenamingTable", "frontend.ort"),
    ("repro.frontend.ovt", "ObjectVersioningTable", "frontend.ovt"),
    ("repro.frontend.ready_queue", "ReadyQueue", "frontend.ready_queue"),
)

#: (module, owner, attribute, layer) for every other wrapped entry point;
#: owner None means a module-level function.
_ENTRY_POINTS = (
    ("repro.sim.engine", "Engine", "run", "sim.engine"),
    ("repro.sim.module", "PacketProcessor", "receive", "sim.module"),
    ("repro.sim.module", "PacketProcessor", "_finish", "sim.module"),
    ("repro.sim.module", "SimModule", "send", "sim.module"),
    ("repro.frontend.gateway", "PipelineGateway", "try_submit",
     "frontend.gateway"),
    ("repro.cores.generator", "TaskGeneratingThread", "_try_submit",
     "cores.generator"),
    ("repro.backend.scheduler", "TaskScheduler", "_dispatch_cluster",
     "backend.scheduler"),
    ("repro.backend.scheduler", "TaskScheduler", "_start_task",
     "backend.scheduler"),
    ("repro.backend.scheduler", "TaskScheduler", "_task_finished",
     "backend.scheduler"),
    ("repro.cores.core", "WorkerCore", "execute", "cores.core"),
    ("repro.cores.core", "WorkerCore", "_finish", "cores.core"),
    ("repro.topology", "TaskRouter", "try_submit", "topology"),
    ("repro.topology", "InterFrontendFabric", "forward", "topology"),
    ("repro.topology", "InterFrontendFabric", "_deliver", "topology"),
    ("repro.topology", "RemoteStub", "receive", "topology"),
    ("repro.experiments.common", None, "experiment_trace", "trace.gen"),
    ("repro.trace.store", None, "read_packed", "trace.load"),
    ("repro.trace.store", "TraceStore", "get", "sweep.trace_store"),
    ("repro.trace.store", "TraceStore", "put", "sweep.trace_store"),
    ("repro.trace.store", "TraceStore", "contains", "sweep.trace_store"),
    ("repro.trace.store", "TraceStore", "get_or_bake", "sweep.trace_store"),
    ("repro.sweep.cache", "ResultCache", "get", "sweep.cache"),
    ("repro.sweep.cache", "ResultCache", "put", "sweep.cache"),
    ("repro.sweep.cache", "ResultCache", "write_manifest", "sweep.cache"),
    ("repro.sweep.runner", None, "execute_point", "sweep.execute_point"),
    ("repro.sweep.runner", "SerialRunner", "run", "sweep.runner"),
    ("repro.cli", None, "main", "cli"),
)


def _dispatch_handlers() -> Dict[type, List[str]]:
    """``{frontend class: names of the methods it registers in _dispatch}``.

    Read from one throwaway machine; the classes are then patched before
    any measured machine exists.
    """
    from repro.backend.system import TaskSuperscalarSystem

    fe = TaskSuperscalarSystem().frontend
    names = defaultdict(set)
    for module in (fe.gateway, fe.ready_queue, *fe.trs_list, *fe.orts,
                   *fe.ovts):
        for _, handler in module._dispatch.values():
            names[type(module)].add(handler.__func__.__name__)
    return {cls: sorted(found) for cls, found in names.items()}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point for the rest of this process."""
    import importlib

    handlers = _dispatch_handlers()
    for module_name, cls_name, layer in _FRONTEND_LAYERS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for name in handlers[cls]:
            _patch(recorder, cls, name, layer)
    for module_name, owner_name, attr, layer in _ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        _patch(recorder, owner, attr, layer)
