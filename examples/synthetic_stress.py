#!/usr/bin/env python3
"""Stress the pipeline with synthetic task graphs you design yourself.

The Table I benchmarks pin down nine realistic operating points; the
synthetic families (:mod:`repro.workloads.synthetic`) let you dial in *graph
shape* directly.  This example:

1. sweeps the ``random_dag`` dependency horizon as a grid axis
   (``workload.dep_distance``) crossed with machine width, through the cached
   parallel sweep runner -- re-run the script and every point answers from
   the artifact cache,
2. runs the two ``synthetic_stress`` campaigns and prints their report:
   decode rate degrading as per-task operand count approaches the 19-operand
   TRS layout limit, and task-window occupancy growing with the
   creation-stream distance between dependent tasks.

Run with::

    python examples/synthetic_stress.py [--jobs 2] [--artifacts DIR] [--quick]

The same campaigns are available from the CLI as ``python -m repro synth
stress``, and any synthetic spec works wherever a workload name does, e.g.::

    python -m repro simulate --workload "random_dag:width=16,dep_distance=64"
"""

import argparse

from repro.experiments import synthetic_stress
from repro.sweep import ResultCache, SweepRunner, SweepSpec


def horizon_spec() -> SweepSpec:
    """Cross the random-DAG dependency horizon with machine width."""
    return SweepSpec(
        name="random-dag-horizon",
        workloads=("random_dag",),
        axes={
            "workload.dep_distance": (2, 8, 32, 128),
            "num_cores": (16, 64),
        },
        base={"workload.width": 16, "workload.depth": 16,
              "workload.runtime_us": 5.0, "seed": 1},
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--artifacts", default=".repro-artifacts/sweeps",
                        help="cache directory (shared across campaigns)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller stress campaigns")
    args = parser.parse_args()

    cache = ResultCache(args.artifacts)
    runner = SweepRunner(jobs=args.jobs, cache=cache)

    spec = horizon_spec()
    print(spec.describe())
    run = runner.run(spec)
    print(f"{'dep_distance':>13s}{'cores':>7s}{'speedup':>9s}{'window peak':>13s}")
    for point, result in run:
        params = point.as_dict()
        print(f"{params['workload.dep_distance']:>13d}{params['num_cores']:>7d}"
              f"{result.speedup:>9.1f}{result.window_peak_tasks:>13d}")
    print(run.summary())

    print()
    series = synthetic_stress.run_all(runner, quick=args.quick)
    print(synthetic_stress.format_report(series))
    print(f"\nartifacts under {cache.root} ({len(cache)} cached points); "
          "re-run to see every point answered from the cache")


if __name__ == "__main__":
    main()
