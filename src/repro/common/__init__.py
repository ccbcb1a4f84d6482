"""Shared primitives used across the task-superscalar reproduction.

The :mod:`repro.common` package groups the small, dependency-free building
blocks that every other subsystem relies on:

* :mod:`repro.common.units` -- time / size unit helpers (cycles, nanoseconds,
  kilobytes) and the clock-frequency conversions used throughout the paper.
* :mod:`repro.common.ids` -- the identifier tuples of the hardware protocol
  (task IDs ``<TRS, SLOT>`` and operand IDs ``<TRS, SLOT, INDEX>``).
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.config` -- configuration dataclasses mirroring Table II
  of the paper (cores, caches, interconnect, pipeline module latencies and
  capacities).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.common.config": (
        "BackendConfig", "CMPConfig", "FrontendConfig", "MemoryConfig",
        "SimulationConfig", "SoftwareRuntimeConfig", "default_table2_config"),
    "repro.common.errors": (
        "AllocationError", "CapacityError", "ConfigurationError",
        "ProtocolError", "ReproError", "TraceFormatError", "WorkloadError"),
    "repro.common.ids": ("OperandID", "TaskID"),
    "repro.common.units": (
        "CLOCK_GHZ", "KB", "MB", "Cycles", "cycles_to_ns", "cycles_to_us",
        "ns_to_cycles", "us_to_cycles"),
})
