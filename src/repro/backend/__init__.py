"""The execution backend: scheduler, queuing system and CMP assembly.

* :class:`repro.backend.scheduler.TaskScheduler` -- the Carbon-like queuing
  system that dispatches ready tasks to idle worker cores and routes task
  completions back to the frontend.
* :class:`repro.backend.system.TaskSuperscalarSystem` -- the complete
  simulated machine (task-generating thread + frontend + scheduler + cores)
  and the :class:`repro.backend.system.SimulationResult` it produces.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.backend.scheduler": ("TaskScheduler",),
    "repro.backend.result": ("SimulationResult",),
    "repro.backend.system": ("TaskSuperscalarSystem", "run_trace"),
})
