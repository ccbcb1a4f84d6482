"""One measurement in a fresh interpreter (started by run.py).

    child.py setup   --workload W --seed N
    child.py measure --workload W --seed N --seconds S
    child.py trace   --workload W --seed N --seconds S --artifacts DIR

``setup`` times set-up from a cold import; ``measure`` runs the untimed
warm-up and the timed loop of a simulation workload, checking every run;
``trace`` gives the per-layer split (see spans.py).  Each prints one JSON
object as the last line of its standard output.  ``src/`` must be on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from checks import digest, layer_counts, parse_sweep_output, run_problems
from workloads import WORKLOADS

#: Timed runs made even when ``--seconds`` has already elapsed.
MIN_RUNS = 3
#: Traced runs of a simulation workload (the split is their median).
TRACED_RUNS = 3


def emit(data) -> None:
    print(json.dumps(data, sort_keys=True))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_trace(params):
    from repro.experiments import common
    from repro.sweep.runner import workload_params

    max_tasks = params.get("max_tasks")
    return common.experiment_trace(
        str(params["workload"]),
        scale_factor=float(params.get("scale_factor", 1.0)),
        seed=int(params["seed"]), max_tasks=max_tasks, **workload_params(params))


def cmd_setup(workload, seed: int) -> None:
    if workload.kind == "sweep":
        start = perf_counter()
        import repro.cli  # noqa: F401
        emit({"setup_s": perf_counter() - start})
        return
    start = perf_counter()
    import repro  # noqa: F401
    from repro.backend.system import TaskSuperscalarSystem
    from repro.sweep.runner import build_point_config

    params = workload.point_params(seed)
    make_trace(params)
    TaskSuperscalarSystem(build_point_config(params))
    emit({"setup_s": perf_counter() - start})


class SimulationLoop:
    """Runs one simulation workload and checks every run.

    A run fails if it raises, leaves the machine undrained, breaks the gold
    dependency graph, or produces counts different from the first run's
    (the exact-repeat check).  Failures are counted, never raised.
    """

    def __init__(self, workload, seed: int):
        from repro.runtime.taskgraph import build_dependency_graph
        from repro.sweep.runner import build_point_config

        params = workload.point_params(seed)
        self.trace = make_trace(params)
        self.config = build_point_config(params)
        self.graph = build_dependency_graph(self.trace)
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.fingerprint = None
        #: What was wrong with the first run (whose result the sweep of the
        #: same point must reproduce).
        self.first_problems = None
        self.validate_s = []

    def run(self, check_span=None) -> float:
        """One checked run; returns its wall time inside ``run``."""
        from repro.backend.system import TaskSuperscalarSystem

        system = TaskSuperscalarSystem(self.config)
        self.attempted += 1
        start = perf_counter()
        try:
            result = system.run(self.trace)
        except Exception as error:  # counted as a failed operation
            wall = perf_counter() - start
            self._fail([f"raised {type(error).__name__}: {error}"])
            return wall
        wall = perf_counter() - start
        check_start = perf_counter()
        with check_span if check_span is not None else contextlib.nullcontext():
            problems = run_problems(system, self.trace, self.graph)
        self.validate_s.append(perf_counter() - check_start)
        data = asdict(result)
        fingerprint = {"counts": layer_counts([data]),
                       "events": system.engine.events_processed,
                       "result": digest(data)}
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            self.first_problems = list(problems)
        elif fingerprint != self.fingerprint:
            problems.append("counts differ from the first run")
        if problems:
            self._fail(problems)
        # Free this run's machine now, so memory and the next run's timing
        # do not depend on how many runs came before.
        del system, result, data
        gc.collect()
        return wall

    def _fail(self, problems) -> None:
        self.failed += 1
        for problem in problems:
            self.failures[problem[:160]] += 1

    def report(self):
        fp = self.fingerprint or {}
        return {"tasks": len(self.trace), "attempted": self.attempted,
                "failed": self.failed, "failures": dict(self.failures),
                "counts": fp.get("counts", {}), "events": fp.get("events", 0),
                "result_digest": fp.get("result"),
                "first_problems": self.first_problems or [],
                "validate_s": (statistics.median(self.validate_s)
                               if self.validate_s else 0.0)}


def timed_loop(loop: SimulationLoop, seconds: float):
    """Warm-up run, then timed runs until ``seconds`` have passed; the
    timed runs' wall times."""
    loop.run()
    walls = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < MIN_RUNS:
        walls.append(loop.run())
    return walls


def cmd_measure(workload, seed: int, seconds: float) -> None:
    loop = SimulationLoop(workload, seed)
    walls = timed_loop(loop, seconds)
    out = loop.report()
    out.update(samples=walls, peak_rss_mb=peak_rss_mb())
    emit(out)


def cli_inprocess(argv):
    """Run the ``repro`` CLI in this process; ``(exit code, wall, stdout)``."""
    import repro.cli

    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = repro.cli.main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    except Exception as error:  # counted as a failed sweep
        buffer.write(f"\nraised {type(error).__name__}: {error}\n")
        code = 1
    return code, perf_counter() - start, buffer.getvalue()


def checked_system_run(recorder, log):
    """Wrap ``TaskSuperscalarSystem.run`` so every sweep point is checked
    against the gold graph and for drain, inside a ``runtime.taskgraph``
    span, as the simulation workloads' runs are."""
    from repro.backend.system import TaskSuperscalarSystem
    from repro.runtime.taskgraph import build_dependency_graph

    original = TaskSuperscalarSystem.run

    def run(self, trace, validate=False, max_events=None):
        result = original(self, trace, validate, max_events)
        with recorder.span("runtime.taskgraph"):
            problems = run_problems(self, trace, build_dependency_graph(trace))
        log.append({"problems": problems, "result": asdict(result),
                    "events": self.engine.events_processed})
        return result

    TaskSuperscalarSystem.run = run


def median_split(splits):
    """Per-layer median of several ``{layer: (self_s, calls)}`` splits."""
    names = set().union(*splits)
    return {name: [statistics.median(s.get(name, (0.0, 0))[i] for s in splits)
                   for i in (0, 1)]
            for name in names}


def cmd_trace(workload, seed: int, seconds: float, artifacts: Path) -> None:
    start = perf_counter()
    import repro.cli  # noqa: F401
    cli_import_s = perf_counter() - start

    from repro.sweep.runner import trace_cache_clear
    from repro.trace import store as store_module
    from spans import SpanRecorder, install

    def sweep_argv(name):
        return workload.sweep_argv(seed, str(artifacts / name), jobs=1)

    out = {"cli_import_s": cli_import_s}
    failures = Counter()
    attempted = failed = 0
    # Untraced baseline first (for the tracing overhead): nothing is
    # wrapped yet.
    if workload.kind == "simulation":
        loop = SimulationLoop(workload, seed)
        walls = timed_loop(loop, seconds / 3)
        untraced_wall = statistics.median(walls)
    else:
        code, untraced_wall, _ = cli_inprocess(sweep_argv("untraced"))
        if code != 0:
            attempted, failed = attempted + 1, failed + 1
            failures[f"untraced sweep exited with {code}"] += 1
        trace_cache_clear()

    recorder = SpanRecorder()
    install(recorder)
    if workload.kind == "simulation":
        # The simulation layers: median split of TRACED_RUNS runs.
        splits, traced_walls = [], []
        for _ in range(TRACED_RUNS):
            recorder.clear()
            traced_walls.append(loop.run(recorder.span("runtime.taskgraph")))
            splits.append(recorder.split())
        report = loop.report()
        attempted += report["attempted"]
        failed += report["failed"]
        failures.update(report["failures"])
        out.update(tasks=report["tasks"], counts=report["counts"],
                   events=report["events"], validate_s=report["validate_s"],
                   result_digest=report["result_digest"],
                   first_problems=report["first_problems"],
                   split=median_split(splits),
                   traced_wall=statistics.median(traced_walls))

    # The sweep layers (every layer, for the sweep workload): one traced
    # in-process cold sweep, its warm re-run, and one packed load of each
    # trace the sweep stored, as a pool worker does.
    recorder.clear()
    log = []
    checked_system_run(recorder, log)
    sweeps = []
    for _ in ("cold", "warm"):
        code, wall, text = cli_inprocess(sweep_argv("traced"))
        sweeps.append(dict(parse_sweep_output(text), code=code, wall=wall))
    store = store_module.TraceStore(artifacts / "traced" / "traces")
    for entry in store.entries():
        store_module.read_packed(entry.path)
    sweep_split = recorder.split()
    for entry in log:
        attempted += 1
        if entry["problems"]:
            failed += 1
            failures.update(p[:160] for p in entry["problems"])
    cold, warm = sweeps
    if cold["code"] != 0 or warm["code"] != 0:
        attempted, failed = attempted + 1, failed + 1
        failures[f"traced sweep exited with {cold['code']}/{warm['code']}"] += 1
    elif warm["computed"] != 0 or cold["computed"] != len(log):
        attempted, failed = attempted + 1, failed + 1
        failures["traced sweep cache misbehaved"] += 1
    results = [entry["result"] for entry in log]
    if (workload.kind == "simulation"
            and [digest(r) for r in results] != [report["result_digest"]]):
        attempted, failed = attempted + 1, failed + 1
        failures["in-process sweep point differs from the direct run"] += 1

    if workload.kind == "sweep":
        out.update(results_digest=digest(results), tasks=sum(r["num_tasks"] for r in results),
                   counts=layer_counts(results) if results else {},
                   events=sum(entry["events"] for entry in log),
                   validate_s=sweep_split.get("runtime.taskgraph", (0.0,))[0],
                   split=sweep_split, traced_wall=sweeps[0]["wall"])
    out.update(attempted=attempted, failed=failed, failures=dict(failures),
               sweeps=sweeps, sweep_split=sweep_split,
               untraced_wall=untraced_wall)
    emit(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--artifacts", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        cmd_setup(workload, args.seed)
    elif args.mode == "measure":
        cmd_measure(workload, args.seed, args.seconds)
    else:
        cmd_trace(workload, args.seed, args.seconds, args.artifacts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
