"""Correctness checks and deterministic per-layer counts.

Counts come from ``SimulationResult`` data -- the dataclass as a dict, or the
``result`` object of a sweep cache entry, which is the same dict written as
JSON -- so one function serves the in-process runs and the CLI sweeps.
Every count is summed per module type (``trs0`` .. ``trs7`` -> ``trs``,
pipeline prefixes ``fe<i>.`` dropped) and must repeat exactly between two
runs of the same code on the same input.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from typing import Dict, Iterable, List

_MODULE_KEY = re.compile(
    r"^(?:fe\d+\.)?(gateway|trs|ort|ovt|ready_queue)\d*\.(.+)$")

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_counts(results: Iterable[Dict]) -> Dict[str, float]:
    """Per-layer work counts and model outputs of one or more results.

    Several results (the points of a sweep) are combined: counts and
    makespans are summed, ratios are taken over the summed parts, peaks are
    maxima and rates and utilizations are means.
    """
    results = list(results)
    module = defaultdict(float)
    utilization = defaultdict(list)
    stats_total = defaultdict(float)
    for result in results:
        for key, value in result["stats"].items():
            stats_total[key] += value
            match = _MODULE_KEY.match(key)
            if match is None:
                continue
            kind, field = match.groups()
            if field == "utilization.mean":
                utilization[kind].append(value)
            elif not field.startswith("utilization."):
                module[(kind, field)] += value

    def total(kind: str, field: str) -> float:
        return module[(kind, field)]

    counts = {
        "sim.tasks": sum(r["num_tasks"] for r in results),
        "frontend.gateway.packets": total("gateway", "packets_processed"),
        "frontend.gateway.alloc_retries": total("gateway", "alloc_retries"),
        "frontend.gateway.window_full_waits":
            total("gateway", "window_full_waits"),
        "frontend.trs.packets": total("trs", "packets_processed"),
        "frontend.trs.alloc_accept_ratio": _ratio(
            total("trs", "tasks_allocated"),
            total("trs", "tasks_allocated") + total("trs", "alloc_rejected")),
        "frontend.ort.packets": total("ort", "packets_processed"),
        "frontend.ort.reader_hit_ratio": _ratio(
            total("ort", "reader_hits"),
            total("ort", "reader_hits") + total("ort", "reader_misses")),
        "frontend.ort.gateway_stalls": total("ort", "gateway_stalls"),
        "frontend.ovt.packets": total("ovt", "packets_processed"),
        "frontend.ovt.gateway_stalls": total("ovt", "gateway_stalls"),
        "frontend.ready_queue.packets": total("ready_queue",
                                              "packets_processed"),
        "cores.generator.stalls": stats_total["generator.stalls"],
        "backend.scheduler.dispatches": stats_total["scheduler.dispatches"],
        "backend.scheduler.steals": sum(r["tasks_stolen"] for r in results),
        "topology.fabric_forwards": sum(r["inter_frontend_forwards"]
                                        for r in results),
        "sim.makespan_cycles": sum(r["makespan_cycles"] for r in results),
        "sim.decode_rate_ns": _mean([r["decode_rate_ns"] for r in results]),
        "sim.window_peak_tasks": max(r["window_peak_tasks"] for r in results),
        "sim.core_utilization": _mean([r["core_utilization"]
                                       for r in results]),
    }
    for kind in ("gateway", "trs", "ort", "ovt", "ready_queue"):
        counts[f"frontend.{kind}.utilization"] = _mean(utilization[kind])
    return counts


_POINTS = re.compile(r"(\d+) points \((\d+) cached, (\d+) computed\)")
_TRACES = re.compile(r"traces: (\d+) regenerated, (\d+) reused")


def parse_sweep_output(text: str) -> Dict[str, int]:
    """The point and trace counts ``repro sweep`` prints (-1 if absent)."""
    points = _POINTS.search(text)
    traces = _TRACES.search(text)
    return {
        "points": int(points.group(1)) if points else -1,
        "cached": int(points.group(2)) if points else -1,
        "computed": int(points.group(3)) if points else -1,
        "traces_generated": int(traces.group(1)) if traces else -1,
        "traces_reused": int(traces.group(2)) if traces else -1,
    }


def digest(data) -> str:
    """Stable digest of JSON data (used to compare runs exactly)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_problems(system, trace, graph) -> List[str]:
    """Why a finished simulation run is wrong; empty when it is correct.

    Reads public state only: the schedule must satisfy the gold dependency
    graph, every task must be decoded and completed, and the machine must be
    drained (no task left in any window or ready queue).
    """
    from repro.common.errors import WorkloadError

    problems = []
    n = len(trace)
    completed = system.scheduler.tasks_completed
    decoded = sum(fe.tasks_decoded for fe in system.frontends)
    if not completed == decoded == n:
        problems.append(f"not drained: {completed} completed, {decoded} "
                        f"decoded of {n} tasks")
    window = sum(fe.window_occupancy() for fe in system.frontends)
    if window:
        problems.append(f"not drained: {window} tasks left in the window")
    ready = sum(len(fe.ready_queue) for fe in system.frontends)
    if ready:
        problems.append(f"not drained: {ready} tasks left in ready queues")
    table = system.scheduler.schedule_table()
    try:
        graph.validate_schedule({seq: s for seq, (s, _) in table.items()},
                                {seq: f for seq, (_, f) in table.items()},
                                renamed=True)
    except WorkloadError as error:
        problems.append(f"gold graph: {error}")
    return problems
