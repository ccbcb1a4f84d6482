"""Task-trace layer.

The paper's evaluation uses TaskSim, a *trace-driven* simulator: applications
are first run with the StarSs runtime to record, for every dynamic task, its
kernel, operands (base address, size, directionality) and measured runtime.
The simulators then replay those traces.

This package defines the same notion of a trace for the reproduction:

* :class:`repro.trace.records.OperandRecord` and
  :class:`repro.trace.records.TaskRecord` -- one dynamic task with annotated
  operands and a runtime in cycles;
* :class:`repro.trace.records.TaskTrace` -- an ordered sequence of task
  records produced by a sequential task-generating thread;
* :mod:`repro.trace.io` -- a JSON-lines reader/writer (transparent ``.gz``)
  so traces can be stored and exchanged;
* :mod:`repro.trace.packed` -- a packed structure-of-arrays representation
  (:class:`~repro.trace.packed.PackedTaskTrace`) with O(1) lazy task views
  and a versioned binary on-disk format for near-instant loads;
* :mod:`repro.trace.store` -- a content-addressed store of packed traces
  (:class:`~repro.trace.store.TraceStore`) that lets a whole sweep fleet
  share one baked copy of each trace instead of regenerating it per process.

Traces are produced either by the workload generators
(:mod:`repro.workloads`) or by recording a program written against the
StarSs-like runtime (:mod:`repro.runtime`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.trace.records": ("Direction", "OperandRecord", "TaskRecord",
                            "TaskTrace"),
    "repro.trace.io": ("read_trace", "read_trace_tasks", "write_trace"),
    "repro.trace.packed": ("PACKED_FORMAT_VERSION", "PackedTaskTrace",
                           "PackedTaskView", "pack_trace", "read_packed",
                           "write_packed"),
    "repro.trace.store": ("TraceStore", "canonical_trace_params",
                          "trace_digest"),
})
