"""Task Superscalar: an out-of-order task pipeline -- Python reproduction.

This library reproduces the system described in *"Task Superscalar: An
Out-of-Order Task Pipeline"* (Etsion et al., MICRO-43, 2010): a hardware
frontend that decodes inter-task data dependencies the way an out-of-order
processor decodes inter-instruction dependencies, renames memory objects to
break anti/output dependencies, sustains a task window of tens of thousands
of non-speculative tasks and drives the cores of a manycore CMP as functional
units.

Quick start::

    from repro import registry, run_trace, run_trace_software

    trace = registry.generate("Cholesky", scale=16)
    hw = run_trace(trace, num_cores=256)
    sw = run_trace_software(trace, num_cores=256)
    print(hw.speedup, sw.speedup)

Package map:

* :mod:`repro.frontend` -- the task-superscalar pipeline (gateway, TRS, ORT,
  OVT, ready queue): the paper's core contribution.
* :mod:`repro.backend`, :mod:`repro.cores` -- scheduler, worker cores and the
  task-generating thread.
* :mod:`repro.software` -- the StarSs software-runtime baseline.
* :mod:`repro.runtime` -- the StarSs-like programming model (annotations,
  gold dependency graph, functional executors).
* :mod:`repro.workloads` -- the nine Table I benchmark generators.
* :mod:`repro.memsys` -- cache / coherence / ring / DRAM substrate.
* :mod:`repro.experiments` -- drivers reproducing every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first use, so ``import repro`` loads no simulator code.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.backend.result": ("SimulationResult",),
    "repro.backend.system": ("TaskSuperscalarSystem", "run_trace"),
    "repro.common.config": ("SimulationConfig", "default_table2_config"),
    "repro.runtime": ("AddressSpace", "TaskProgram", "build_dependency_graph",
                      "task"),
    "repro.software.runtime_sim": ("SoftwareRuntimeSystem",
                                   "run_trace_software"),
    "repro.trace.records": ("Direction", "OperandRecord", "TaskRecord",
                            "TaskTrace"),
    "repro.workloads": ("registry",),
})
__all__.append("__version__")
