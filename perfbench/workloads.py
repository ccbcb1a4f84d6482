"""The benchmark's workloads.

Each workload is a closed loop: one operation at a time, from one process.
``kind`` says what one operation is:

* ``simulation`` -- one ``TaskSuperscalarSystem(config).run(trace)`` call,
  timed alone; the workload's point is also run through ``repro sweep``
  (cold, then warm) so the CLI path to a cached result is timed too.
* ``sweep`` -- one ``python -m repro sweep`` invocation on a fresh
  artifacts directory (cold), then the same command again (warm).

The seed is the benchmark's ``--seed`` argument; it seeds the workload
generator and nothing else.  See NOTES.md for why each workload exists and
which layers it loads or bypasses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The seed used when none is given.  Seed 1 is the second seed on which a
#: claimed gain must also hold (see NOTES.md).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulation" or "sweep"
    why: str
    #: Sweep-language parameters of the simulated point (simulation kind):
    #: the same dict ``repro.sweep.runner.build_point_config`` takes.
    params: Dict[str, object] = field(default_factory=dict)
    #: ``repro sweep`` arguments, without ``--seed`` and ``--artifacts``.
    sweep_args: Tuple[str, ...] = ()
    #: Stated input size, for the report.
    size: str = ""
    #: Sweep pool size; capped at the host's CPU count.
    jobs: int = 1
    #: An open defect that makes every run of this workload fail its
    #: checks.  Such a workload stays runnable, so the defect shows, but is
    #: left out of BENCHMARK.json, whose workloads must run without failures.
    known_defect: str = ""

    def point_params(self, seed: int) -> Dict[str, object]:
        merged = dict(self.params)
        merged["seed"] = seed
        return merged

    def sweep_argv(self, seed: int, artifacts: str,
                   jobs: Optional[int] = None) -> List[str]:
        jobs = max(1, min(jobs or self.jobs, os.cpu_count() or 1))
        return ["sweep", *self.sweep_args, "--seed", str(seed),
                "--jobs", str(jobs), "--artifacts", artifacts]


def _sim_sweep_args(params: Dict[str, object]) -> Tuple[str, ...]:
    """``repro sweep`` arguments naming exactly one simulation point."""
    args = ["--workload", str(params["workload"]),
            "--cores", str(params["num_cores"])]
    if "scale_factor" in params:
        args += ["--scale-factor", str(params["scale_factor"])]
    if "max_tasks" in params:
        args += ["--max-tasks", str(params["max_tasks"])]
    if params.get("fast_generator"):
        args.append("--fast-generator")
    for name, value in params.items():
        if name.startswith("workload."):
            args += ["--axis", f"{name}={value}"]
    return tuple(args)


_CHOLESKY = {"workload": "Cholesky", "num_cores": 128, "scale_factor": 1.0,
             "max_tasks": 2000}
_STORM = {"workload": "random_dag", "num_cores": 64, "fast_generator": True,
          "workload.width": 24, "workload.depth": 48,
          "workload.extra_inputs": 8}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cholesky",
        kind="simulation",
        why="Table 1 Cholesky on the Table II pipeline: the paper's headline "
            "point, few operands per task, engine/plumbing/TRS-bound N=1 path",
        params=_CHOLESKY,
        sweep_args=_sim_sweep_args(_CHOLESKY),
        size="2000 tasks, 128 cores, default generator, trivial topology",
    ),
    Workload(
        name="operand_storm",
        kind="simulation",
        why="random_dag with 8 extra inputs and the fast generator: "
            "ORT/OVT and gateway saturation, the decode-rate regime",
        params=_STORM,
        sweep_args=_sim_sweep_args(_STORM),
        size="1152 tasks (width 24 x depth 48), 64 cores, fast generator",
        known_defect="fast-generator decode order breaks the gold graph on "
                     "every run (NOTES.md, known defect 1)",
    ),
    Workload(
        name="topology_sweep",
        kind="sweep",
        why="repro sweep CLI over N=1 and N=4 stealing machines: the only "
            "grid, process pool, router, fabric and work stealing",
        sweep_args=("--workload", "Cholesky", "--scale-factor", "0.5",
                    "--max-tasks", "800", "--cores", "64",
                    "--axis", "topology.num_frontends=1,4",
                    "--axis", "topology.steal_policy=random,nearest"),
        size="4 points x 800 Cholesky tasks, 64 cores, 2 pool workers",
        jobs=2,
    ),
)}
