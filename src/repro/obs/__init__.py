"""Opt-in, cycle-resolved observability for the simulator (``repro.obs``).

Attach an :class:`Observer` to a run to record structured task-lifecycle,
stall and occupancy events into a packed columnar ring buffer; consume the
resulting :class:`Recording` with :mod:`repro.obs.timeline` (stall
attribution, critical path), :mod:`repro.obs.export` (Perfetto /
chrome://tracing JSON) or persist it via :mod:`repro.obs.io`.  With no
observer attached every instrumentation hook is a pre-bound no-op and the
simulator behaves exactly as before; with one attached the simulation
results are still bit-identical, because observers only ever read state.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.events": (
        "EVENT_KINDS", "EV_DEP_FORWARD", "EV_MODULE_SERVICE",
        "EV_MODULE_STALL", "EV_OCCUPANCY", "EV_STALL_SOURCE",
        "EV_TASK_ADMITTED", "EV_TASK_ALLOCATED", "EV_TASK_CREATED",
        "EV_TASK_DECODED", "EV_TASK_DISPATCHED", "EV_TASK_FREED",
        "EV_TASK_READY", "EV_TASK_RETIRED", "EV_TASK_WINDOW_WAIT",
        "EventRing", "decode_task_id", "encode_task_id"),
    "repro.obs.observer": ("ObsConfig", "Observer", "Recording"),
})
