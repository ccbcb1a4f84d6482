"""StarSs-like task-based dataflow programming model.

The paper's workloads are written with StarSs: kernel functions are annotated
with the directionality of each operand (``input`` / ``output`` / ``inout``),
and a sequential *task-generating thread* simply calls the kernels; the
runtime (or, in the paper, the task-superscalar hardware) extracts parallelism
from those annotations.

This package provides the same programming model in Python:

* :func:`repro.runtime.annotations.task` -- decorator declaring operand
  directions for a kernel function.
* :class:`repro.runtime.memory.AddressSpace` /
  :class:`repro.runtime.memory.MemoryObject` -- named memory blocks with base
  addresses, the unit of dependency tracking.
* :class:`repro.runtime.recorder.TaskProgram` -- the task-generating thread:
  records every kernel invocation as a :class:`repro.trace.TaskRecord`,
  optionally executing the kernels for functional verification.
* :class:`repro.runtime.taskgraph.DependencyGraph` -- the *gold* dependency
  graph built by an in-order scan of the trace (RaW, WaR, WaW edges), used to
  validate the hardware pipeline and to compute dataflow limits.
* :mod:`repro.runtime.executor` -- sequential and dataflow functional
  executors used to check that out-of-order execution preserves sequential
  semantics.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.runtime.annotations": ("KernelSpec", "task"),
    "repro.runtime.executor": ("DataflowExecutor", "SequentialExecutor"),
    "repro.runtime.memory": ("AddressSpace", "MemoryObject"),
    "repro.runtime.recorder": ("RecordedTask", "TaskProgram"),
    "repro.runtime.taskgraph": ("DependencyGraph", "DependencyKind",
                                "build_dependency_graph"),
})
