"""What one simulated run measured: :class:`SimulationResult`.

A leaf module (it imports only the standard library and
:mod:`repro.common.units`), so code that only reads results -- the sweep
result cache, a fully cached ``repro sweep`` -- never loads the simulator.
:mod:`repro.backend.system` produces these results and re-exports the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.units import cycles_to_us


@dataclass
class SimulationResult:
    """Measurements from one simulated run."""

    trace_name: str
    num_tasks: int
    num_cores: int
    makespan_cycles: int
    sequential_cycles: int
    decode_rate_cycles: float
    decode_rate_ns: float
    tasks_decoded: int
    tasks_completed: int
    window_peak_tasks: int
    window_mean_tasks: float
    ready_queue_peak: int
    generator_stall_cycles: int
    core_utilization: float
    stats: Dict[str, float] = field(default_factory=dict)
    # Topology metrics (defaults keep results from single-frontend machines
    # and pre-topology cache entries loadable).
    num_frontends: int = 1
    per_frontend_tasks_decoded: List[int] = field(default_factory=list)
    per_frontend_decode_rate_cycles: List[float] = field(default_factory=list)
    tasks_stolen: int = 0
    steals_by_cluster: List[int] = field(default_factory=list)
    inter_frontend_forwards: int = 0

    @property
    def speedup(self) -> float:
        """Speedup over sequential execution of the same trace."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.sequential_cycles / self.makespan_cycles

    @property
    def makespan_us(self) -> float:
        """Makespan in microseconds at the default clock."""
        return cycles_to_us(self.makespan_cycles)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.trace_name}: {self.num_tasks} tasks on {self.num_cores} cores -> "
                f"speedup {self.speedup:.1f}x, decode {self.decode_rate_cycles:.0f} "
                f"cycles/task ({self.decode_rate_ns:.0f} ns), "
                f"window peak {self.window_peak_tasks} tasks")
