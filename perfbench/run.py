"""The repository benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload cholesky --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the root of a checkout; ``all`` runs every workload untraced and
then traced.  With ``--trace 0`` it measures the
end-to-end metrics (``tasks_per_sec``, ``setup_s``, ``peak_rss_mb``,
``sweep_cold_s``, ``sweep_warm_s``); with ``--trace 1`` it makes the
separate traced run and reports the per-layer metrics instead.  Every
operation's output is checked (gold dependency graph, drain, exact repeat,
sweep cache behaviour); failures are counted, never raised.  The report is
printed by name with units, and the last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, layers and known defects are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from checks import digest, layer_counts, parse_sweep_output
from procs import child_env, run
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Rounds of a simulation workload's run; each round is a measuring child
#: (a warm-up, then its share of ``--seconds`` of timed runs) and
#: SWEEPS_PER_ROUND cold ``repro sweep`` runs of the workload's point, each
#: with its warm re-runs.
ROUNDS = 4
SWEEPS_PER_ROUND = 2
#: Fresh-interpreter set-ups timed per round (the median is reported).
SETUP_PER_ROUND = 2
#: Warm re-runs after each cold sweep.
WARM_RUNS = 2
#: Minimum rounds of the sweep workload (it adds rounds until
#: ``--seconds`` have passed).
MIN_SWEEP_ROUNDS = 3
#: A run must end well inside 180 seconds, whatever its children do.
BUDGET_SECONDS = 170.0

END_TO_END = (("tasks_per_sec", "tasks/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("sweep_cold_s", "s"),
              ("sweep_warm_s", "s"))

#: Simulation layers whose self time and calls the traced run reports.
SIM_LAYERS = ("sim.engine", "sim.module", "frontend.gateway", "frontend.trs",
              "frontend.ort", "frontend.ovt", "frontend.ready_queue",
              "cores.generator", "backend.scheduler", "cores.core",
              "topology")
#: Sweep-side layers: (metric, span layer).
SWEEP_LAYERS = (("trace.gen_s", "trace.gen"), ("trace.load_s", "trace.load"),
                ("sweep.execute_point_s", "sweep.execute_point"),
                ("sweep.cache_s", "sweep.cache"),
                ("sweep.trace_store_s", "sweep.trace_store"),
                ("sweep.runner_s", "sweep.runner"), ("cli.self_s", "cli"))


class Outcome:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def add(self, attempted: int, failed: int, reasons) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons.update(reasons)

    def fail(self, count: int, reason: str) -> None:
        self.add(count, count, {reason: count})


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env(ROOT)
        self.deadline = time.monotonic() + BUDGET_SECONDS
        self.outcome = Outcome()
        self._sweeps = 0
        #: The last child report, for the printed counts digest.
        self.info: Dict = {}
        #: Result digests of the first cold sweep, for the exact-repeat check.
        self._sweep_fingerprint: Optional[str] = None

    # -- children ----------------------------------------------------------

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, mode: str, seconds: float = 0.0,
              *extra: str) -> Optional[Dict]:
        """Run child.py in a fresh interpreter; its JSON, or None on failure."""
        argv = [sys.executable, str(HERE / "child.py"), mode,
                "--workload", self.workload.name, "--seed", str(self.seed),
                "--seconds", str(seconds), *extra]
        done = run(argv, self.env, ROOT, self.remaining())
        lines = done.stdout.strip().splitlines()
        if done.code != 0 or not lines:
            tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
            self.outcome.fail(1, f"{mode} child exited with {done.code}: "
                                 f"{tail[:120]}")
            return None
        return json.loads(lines[-1])

    def sweep(self, name: str, sample_rss: bool = False):
        argv = [sys.executable, "-m", "repro",
                *self.workload.sweep_argv(self.seed, str(self.work / name))]
        return run(argv, self.env, ROOT, self.remaining(), sample_rss)

    # -- checks ------------------------------------------------------------

    def _stored_results(self, artifacts: Path) -> List[Dict]:
        """The results a finished sweep stored, in spec order (empty when
        they cannot be read, which the caller counts as a failure)."""
        manifests = sorted((artifacts / "manifests").glob("*.json"))
        if len(manifests) != 1:
            return []
        try:
            point_ids = json.loads(manifests[0].read_text())["point_ids"]
            return [json.loads((artifacts / "objects" / point_id[:2]
                                / f"{point_id}.json").read_text())["result"]
                    for point_id in point_ids]
        except (OSError, ValueError, KeyError):
            return []

    def sweep_pair(self, expected: Optional[Dict] = None,
                   sample_rss: bool = False, warm_runs: int = WARM_RUNS,
                   ) -> Optional[Dict]:
        """One cold sweep on a fresh artifacts directory, then warm re-runs.

        Every point of every run is one operation.  A point fails if its
        sweep errored, it did not complete every task, its result differs
        from the first cold sweep's (exact repeat) or, for a simulation
        workload, from the in-process runs of the same point (``expected``,
        the measuring child's report); a point equal to an in-process run
        that failed its checks carries that failure.  A warm run fails
        wholesale if it computed anything.
        """
        self._sweeps += 1
        name = f"sweep{self._sweeps}"
        cold = self.sweep(name, sample_rss)
        warms = [self.sweep(name) for _ in range(warm_runs)]
        cold_counts = parse_sweep_output(cold.stdout)
        warm_counts = [parse_sweep_output(warm.stdout) for warm in warms]
        points = max(cold_counts["points"], 1)
        runs = 1 + warm_runs
        codes = [cold.code] + [warm.code for warm in warms]
        if any(codes):
            shutil.rmtree(self.work / name, ignore_errors=True)
            self.outcome.fail(runs * points, f"sweep exited with {codes}")
            return None
        results = self._stored_results(self.work / name)
        shutil.rmtree(self.work / name, ignore_errors=True)
        fingerprint = digest(results)
        if self._sweep_fingerprint is None:
            self._sweep_fingerprint = fingerprint
        reasons = Counter()
        if len(results) != cold_counts["points"]:
            reasons["stored results missing"] += 1
        incomplete = sum(r["tasks_completed"] != r["num_tasks"]
                         for r in results)
        if incomplete:
            reasons["point left tasks incomplete"] += incomplete
        if fingerprint != self._sweep_fingerprint:
            reasons["sweep results differ from the first sweep"] += points
        if expected is not None:
            if len(results) != 1 or (digest(results[0])
                                     != expected["result_digest"]):
                reasons["sweep result differs from the in-process run"] += 1
            elif expected["first_problems"]:
                reasons["sweep point repeats the in-process run's failure"] += 1
        # A warm run serves the cold run's results, so it fails where they
        # do -- and wholesale if it computed anything.
        cold_failed = min(points, sum(reasons.values()))
        failed = cold_failed
        for counts in warm_counts:
            if counts["computed"] != 0 or counts["cached"] != points:
                reasons["warm sweep recomputed points"] += points
                failed += points
            else:
                failed += cold_failed
        self.outcome.add(runs * points, failed, reasons)
        return {"cold": cold, "warms": warms, "cold_counts": cold_counts,
                "warm_counts": warm_counts, "results": results}

    # -- modes -------------------------------------------------------------

    def setup_samples(self, count: int) -> List[float]:
        samples = []
        for _ in range(count):
            data = self.child("setup")
            if data is not None:
                samples.append(data["setup_s"])
        return samples

    def end_to_end(self) -> Dict[str, List[float]]:
        """Samples of every end-to-end metric.

        The run is made of rounds, each with its share of every kind of
        sample, so that every metric is sampled across the whole run rather
        than in one stretch of it.
        """
        samples = {name: [] for name, _ in END_TO_END}
        if self.workload.kind == "simulation":
            first = None
            for _ in range(ROUNDS):
                samples["setup_s"] += self.setup_samples(SETUP_PER_ROUND)
                data = self.child("measure", self.seconds / ROUNDS)
                if data is not None:
                    self.outcome.add(data["attempted"], data["failed"],
                                     data["failures"])
                    first = first or data
                    if (data["result_digest"], data["counts"]) != (
                            first["result_digest"], first["counts"]):
                        self.outcome.add(
                            0, data["attempted"] - data["failed"],
                            {"counts differ between processes": 1})
                    samples["tasks_per_sec"] += [data["tasks"] / wall
                                                 for wall in data["samples"]]
                    samples["peak_rss_mb"].append(data["peak_rss_mb"])
                for _ in range(SWEEPS_PER_ROUND):
                    pair = self.sweep_pair(first)
                    if pair is not None:
                        samples["sweep_cold_s"].append(pair["cold"].wall)
                        samples["sweep_warm_s"] += [w.wall
                                                    for w in pair["warms"]]
            self.info = first or {}
            return samples
        end = time.monotonic() + self.seconds
        rounds = 0
        while time.monotonic() < end or rounds < MIN_SWEEP_ROUNDS:
            rounds += 1
            samples["setup_s"] += self.setup_samples(SETUP_PER_ROUND)
            pair = self.sweep_pair(sample_rss=True)
            if pair is None:
                continue
            cold = pair["cold"]
            tasks = sum(r["num_tasks"] for r in pair["results"])
            samples["tasks_per_sec"].append(tasks / cold.wall)
            samples["sweep_cold_s"].append(cold.wall)
            samples["sweep_warm_s"] += [w.wall for w in pair["warms"]]
            samples["peak_rss_mb"].append(cold.peak_rss_mb)
            self.info = {"tasks": tasks,
                         "counts": layer_counts(pair["results"])}
        return samples

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric, from one traced run plus one sweep pair."""
        data = self.child("trace", self.seconds,
                          "--artifacts", str(self.work / "traced"))
        pair = self.sweep_pair(data if self.workload.kind == "simulation"
                               else None, warm_runs=1)
        if data is None:
            return {}
        self.outcome.add(data["attempted"], data["failed"], data["failures"])
        split, sweep_split = data["split"], data["sweep_split"]
        metrics = {"sim.engine.events": data["events"],
                   "sim.engine.events_per_task":
                       data["events"] / max(data["tasks"], 1)}
        for layer in SIM_LAYERS:
            metrics[f"{layer}.self_s"] = split.get(layer, [0.0, 0])[0]
        metrics["sim.module.calls"] = split.get("sim.module", [0.0, 0])[1]
        metrics["topology.calls"] = split.get("topology", [0.0, 0])[1]
        metrics.update(data["counts"])
        for metric, layer in SWEEP_LAYERS:
            metrics[metric] = sweep_split.get(layer, [0.0, 0])[0]
        metrics["cli.import_s"] = data["cli_import_s"]
        metrics["runtime.validate_s"] = data["validate_s"]
        metrics["sim.engine.events_per_sec"] = (data["events"]
                                                / data["untraced_wall"])
        untraced = data["tasks"] / data["untraced_wall"]
        traced = data["tasks"] / data["traced_wall"]
        metrics["tracing.tasks_per_sec"] = traced
        metrics["tracing.overhead_ratio"] = traced / untraced
        if pair is not None and self.workload.kind == "sweep" and (
                digest(pair["results"]) != data["results_digest"]):
            self.outcome.fail(1, "traced serial sweep differs from the CLI "
                                 "sweep")
        if pair is not None:
            cold, (warm,) = pair["cold_counts"], pair["warm_counts"]
            computed = cold["computed"] + warm["computed"]
            cached = cold["cached"] + warm["cached"]
            metrics.update({
                "sweep.points_computed": computed,
                "sweep.points_cached": cached,
                "sweep.traces_generated": (cold["traces_generated"]
                                           + warm["traces_generated"]),
                "sweep.traces_reused": (cold["traces_reused"]
                                        + warm["traces_reused"]),
                "sweep.cache_hit_ratio": cached / max(computed + cached, 1),
            })
        self.info = data
        return metrics


# -- report -----------------------------------------------------------------


def percentile_line(samples: List[float]) -> str:
    """Sample count, median, and the highest percentile that still has ten
    samples beyond it (when the count allows one)."""
    n = len(samples)
    text = f"n={n} median={statistics.median(samples):.6g}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            text += f" p{p}={cut:.6g}"
            break
    return text


def run_workload(workload, seed: int, seconds: float, trace: int):
    """Measure one workload, print its report; ``(correct, outcome,
    metrics)``."""
    work = ROOT / ".perfbench" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, seed, seconds, work)
    try:
        if trace:
            values = bench.per_layer()
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in PER_LAYER if name in values}
        else:
            samples = bench.end_to_end()
            metrics = {name: {"value": statistics.median(samples[name]),
                              "unit": unit}
                       for name, unit in END_TO_END if samples[name]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    outcome = bench.outcome
    print(f"perfbench {workload.name} seed={seed} trace={trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"  input: {workload.size}")
    print(f"  why: {workload.why}")
    if workload.known_defect:
        print(f"  not in BENCHMARK.json: {workload.known_defect}")
    if not trace:
        for name, unit in END_TO_END:
            if samples[name]:
                print(f"  {name:14s} {statistics.median(samples[name]):12.6g} "
                      f"{unit:8s} {percentile_line(samples[name])}")
    else:
        for name, metric in sorted(metrics.items()):
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    counts = bench.info.get("counts")
    if counts:
        print(f"  counts digest: {digest(counts)[:16]} "
              f"(equal for equal code and seed)")
    print(f"  failed_frac {outcome.failed / max(outcome.attempted, 1):.4g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for reason, count in sorted(outcome.reasons.items()):
        print(f"    {count:4d} x {reason}")
    expected = ({name for name, _ in END_TO_END} if not trace
                else {name for name, _, _ in PER_LAYER})
    correct = outcome.failed == 0 and set(metrics) == expected
    return correct, outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark on one workload, or on "
                    "all of them (untraced, then traced).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, trace in runs:
        ok, outcome, found = run_workload(WORKLOADS[name], args.seed,
                                          args.seconds, trace)
        correct &= ok
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = f"{name}." if len(runs) > 1 else ""
        metrics.update((prefix + key, value) for key, value in found.items())
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


#: (name, unit, better) of every per-layer metric; BENCHMARK.json lists
#: the same.
PER_LAYER = (
    ("sim.tasks", "tasks", "higher"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_task", "events/task", "lower"),
    ("sim.engine.events_per_sec", "events/s", "higher"),
    *((f"{layer}.self_s", "s", "lower") for layer in SIM_LAYERS),
    ("sim.module.calls", "count", "lower"),
    ("topology.calls", "count", "lower"),
    ("frontend.gateway.packets", "count", "lower"),
    ("frontend.gateway.alloc_retries", "count", "lower"),
    ("frontend.gateway.window_full_waits", "count", "lower"),
    ("frontend.trs.packets", "count", "lower"),
    ("frontend.trs.alloc_accept_ratio", "ratio", "higher"),
    ("frontend.ort.packets", "count", "lower"),
    ("frontend.ort.reader_hit_ratio", "ratio", "higher"),
    ("frontend.ort.gateway_stalls", "count", "lower"),
    ("frontend.ovt.packets", "count", "lower"),
    ("frontend.ovt.gateway_stalls", "count", "lower"),
    ("frontend.ready_queue.packets", "count", "lower"),
    ("cores.generator.stalls", "count", "lower"),
    ("backend.scheduler.dispatches", "count", "lower"),
    ("backend.scheduler.steals", "count", "higher"),
    ("topology.fabric_forwards", "count", "lower"),
    *((metric, "s", "lower") for metric, _ in SWEEP_LAYERS),
    ("cli.import_s", "s", "lower"),
    ("runtime.validate_s", "s", "lower"),
    ("sweep.points_computed", "count", "lower"),
    ("sweep.points_cached", "count", "higher"),
    ("sweep.traces_generated", "count", "lower"),
    ("sweep.traces_reused", "count", "higher"),
    ("sweep.cache_hit_ratio", "ratio", "higher"),
    ("sim.makespan_cycles", "cycles", "lower"),
    ("sim.decode_rate_ns", "ns", "lower"),
    ("sim.window_peak_tasks", "tasks", "higher"),
    ("sim.core_utilization", "ratio", "higher"),
    *((f"frontend.{kind}.utilization", "ratio", "lower")
      for kind in ("gateway", "trs", "ort", "ovt", "ready_queue")),
    ("tracing.tasks_per_sec", "tasks/s", "higher"),
    ("tracing.overhead_ratio", "ratio", "higher"),
)


if __name__ == "__main__":
    sys.exit(main())
