"""Parallel experiment-sweep subsystem.

The paper's evaluation is a family of parameter sweeps over the simulated
task-superscalar machine; this package turns those sweeps into declarative,
cacheable, parallelisable campaigns:

* :class:`~repro.sweep.spec.SweepSpec` declares a parameter grid and expands
  it into deterministic :class:`~repro.sweep.spec.SweepPoint` s,
* :class:`~repro.sweep.cache.ResultCache` content-addresses results on disk
  so repeated or interrupted sweeps never recompute a finished point,
* :class:`~repro.sweep.runner.SweepRunner` executes the points, in-process
  (``jobs <= 1``) or over a ``multiprocessing`` pool, with bit-identical
  results; an explicit :class:`~repro.sweep.runner.ExecutionContext` carries
  the trace store and telemetry settings to every point,
* :mod:`repro.sweep.bench` pins a performance-tracking scenario suite on top
  (``repro bench run|compare``), reporting events/sec per ``BENCH_*.json``
  so hot-path regressions are caught by comparison with a tolerance,
* :mod:`repro.sweep.campaign` composes named specs into scenario campaigns
  (``repro campaign run|report``): a seed-ensemble axis with
  mean/std/min/max/95%-CI aggregation per design point, ablation grids
  diffed against a declared baseline, and JSON/CSV reports under
  ``<artifacts>/campaigns/<campaign_id>/`` -- all incremental thanks to the
  result cache and trace store,
* the runner pairs with a :class:`~repro.trace.store.TraceStore`
  (``<artifacts>/traces``, derived from the result cache by default): the
  pool path bakes each distinct task trace once as a packed binary before
  fanning out, and every worker loads it by content address instead of
  regenerating (``SweepRun.trace_summary()`` reports the amortization).

See ``examples/sweep_campaign.py`` for an end-to-end campaign.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sweep.cache": ("DEFAULT_CACHE_ROOT", "ResultCache"),
    "repro.sweep.campaign": ("Ablation", "Campaign", "CampaignReport",
                             "aggregate_run", "run_campaign"),
    "repro.sweep.faults": ("FaultPlan", "configure_faults", "parse_faults"),
    "repro.sweep.resilience": ("RetryPolicy", "RunJournal"),
    "repro.sweep.runner": ("ExecutionContext", "ObsSettings", "SweepRun",
                           "SweepRunner", "adaptive_chunksize",
                           "execute_point", "resolve_trace_store",
                           "trace_for_params", "workload_params"),
    "repro.sweep.spec": ("SweepPoint", "SweepSpec", "canonical_scalar",
                         "parse_axis_value"),
    "repro.trace.store": ("TraceStore",),
})
