"""Workload generators: the Table I benchmarks plus synthetic graph families.

The paper evaluates the pipeline with traces of nine scientific applications
parallelised with StarSs: Cholesky, MatMul, FFT, H264, KMeans, Knn, PBPI,
SPECFEM and STAP.  We do not have the original application traces, so this
package synthesises task traces whose *structure* (dependency patterns and
operand counts) follows the algorithms, and whose per-task runtimes and data
sizes follow the distributions reported in Table I.

Beyond the benchmarks, :mod:`repro.workloads.synthetic` provides nine
parameterized task-graph families (fork/join, layered wavefronts, 1-D, 2-D
and 3-D stencils, reduction trees, pipeline chains, random DAGs and
runtime-skewed lanes) for design-space stress studies, and
:mod:`repro.workloads.registry` is a pluggable registry that makes any
registered generator -- built-in or user-defined via
:func:`~repro.workloads.registry.register_workload` -- first-class in the
CLI, the experiment drivers and sweep grids.  The package re-exports its
names lazily, and the registry imports a generator only when it is used.

Public entry points:

* :data:`repro.workloads.registry.TABLE1` -- the catalogue of
  :class:`repro.workloads.base.WorkloadSpec` records (Table I's rows).
* :func:`repro.workloads.registry.generate` -- build a trace by name (or
  parameterized spec string such as ``"random_dag:width=16"``).
* :func:`repro.workloads.registry.register_workload` -- add a generator.
* Individual generator classes, e.g.
  :class:`repro.workloads.cholesky.CholeskyWorkload`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.base": ("KernelProfile", "Workload", "WorkloadSpec"),
    "repro.workloads.registry": (
        "TABLE1", "all_workload_names", "canonical_spec", "generate",
        "get_spec", "get_workload", "parse_workload_spec",
        "register_workload", "synthetic_names", "table1_names",
        "table1_rows", "unregister_workload"),
})
