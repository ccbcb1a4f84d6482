#!/usr/bin/env python3
"""Sharded-frontend topology scaling: speedup vs. frontend count.

This example shows the :mod:`repro.topology` subsystem end to end:

1. build the registered ``topology-scaling`` campaign
   (:mod:`repro.experiments.topology_scaling`): ``topology.num_frontends``
   crossed with the router's shard policy (and the backend steal policy on
   the full grid) over a regular workload and a deliberately imbalanced
   one,
2. run it through the ordinary cached campaign machinery -- topology
   parameters are first-class, content-addressed sweep axes, so re-running
   the script recomputes nothing,
3. pivot the report into the speedup-vs-frontends table the study is
   after: each row one (workload, shard policy, steal policy) series, each
   column one frontend count, with speedup relative to the single-frontend
   (paper) machine alongside the absolute numbers.

Run with::

    python examples/topology_scaling.py [--quick] [--seeds 2] [--jobs 2] \\
        [--artifacts .repro-artifacts/sweeps]
"""

import argparse

from repro.experiments.topology_scaling import (format_speedup_table,
                                                topology_scaling_campaign)
from repro.sweep import ResultCache, SweepRunner
from repro.sweep.campaign import format_report, run_campaign, write_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized grid (2 frontends, one workload)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="ensemble size: seeds range(N) (default 2)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--artifacts", default=".repro-artifacts/sweeps",
                        help="cache directory (shared across campaigns)")
    args = parser.parse_args()

    campaign = topology_scaling_campaign(seeds=range(args.seeds),
                                         quick=args.quick)
    print(campaign.describe())

    cache = ResultCache(args.artifacts)
    runner = SweepRunner(jobs=args.jobs, cache=cache)

    def progress(member, group, done, total):
        print(f"  [{member}] {done}/{total} {group.label()}")

    report = run_campaign(campaign, runner, progress=progress)
    print()
    print(format_report(report, metrics=("speedup", "tasks_stolen",
                                         "inter_frontend_forwards")))
    print()
    print(format_speedup_table(report))
    directory = write_report(report, cache)
    print(f"\nreport: {directory}")


if __name__ == "__main__":
    main()
