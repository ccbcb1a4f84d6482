"""Pluggable workload registry.

The registry maps workload names to their generator classes.  The built-in
generators -- the nine Table I benchmarks (category ``table1``) and the
synthetic task-graph families of :mod:`repro.workloads.synthetic`
(``synthetic``) -- are rows of one table, ``_BUILTINS``, giving each name
with the module and class that implement it.  A built-in's module is
imported the first time something needs its class (:attr:`RegistryEntry.cls`),
so name-only queries -- listing, resolving and validating a bare ``--workload``
-- import no generator, and generating a trace imports only the generator it
uses.  Adding a built-in means adding a row to that table.

External code adds its own generators with :func:`register_workload` (usable
as a decorator); they become first-class everywhere a workload name is
accepted -- the CLI, the experiment drivers and the sweep subsystem.  A user
registration may replace a built-in (``replace=True``); the replacement
holds whether or not the built-in's module has been imported.

Lookups are case-insensitive, and every accessor also understands
*parameterized workload specs* of the form ``"name:key=value,key=value"``
(e.g. ``"random_dag:width=16,dep_distance=64"``), where the key/value pairs
are forwarded to the generator constructor.  :func:`parse_workload_spec`
and :func:`format_workload_spec` convert between the string and structured
forms; :func:`canonical_spec` normalizes a spec (canonical name casing,
sorted parameters) so equal specs hash equally in sweep caches.

``TABLE1`` maps each benchmark name to its published characteristics, and
``table1_rows`` renders that catalogue together with the statistics *measured
on the generated traces*, which is what the Table I reproduction bench prints
and checks.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.common.errors import WorkloadError

if TYPE_CHECKING:
    from repro.trace.records import TaskTrace
    from repro.workloads.base import Workload, WorkloadSpec

#: Registration categories of the built-in generators.
CATEGORY_TABLE1 = "table1"
CATEGORY_SYNTHETIC = "synthetic"
CATEGORY_CUSTOM = "custom"

#: Scalar types a workload-spec parameter may carry.
ParamScalar = Union[str, int, float, bool, None]


#: The built-in generators in registration order (Table I's row order, then
#: the synthetic families): ``(name, module, class name, category)``.
_BUILTINS: Tuple[Tuple[str, str, str, str], ...] = (
    ("Cholesky", "repro.workloads.cholesky", "CholeskyWorkload", CATEGORY_TABLE1),
    ("MatMul", "repro.workloads.matmul", "MatMulWorkload", CATEGORY_TABLE1),
    ("FFT", "repro.workloads.fft", "FFTWorkload", CATEGORY_TABLE1),
    ("H264", "repro.workloads.h264", "H264Workload", CATEGORY_TABLE1),
    ("KMeans", "repro.workloads.kmeans", "KMeansWorkload", CATEGORY_TABLE1),
    ("Knn", "repro.workloads.knn", "KnnWorkload", CATEGORY_TABLE1),
    ("PBPI", "repro.workloads.pbpi", "PBPIWorkload", CATEGORY_TABLE1),
    ("SPECFEM", "repro.workloads.specfem", "SPECFEMWorkload", CATEGORY_TABLE1),
    ("STAP", "repro.workloads.stap", "STAPWorkload", CATEGORY_TABLE1),
    ("fork_join", "repro.workloads.synthetic", "ForkJoinWorkload",
     CATEGORY_SYNTHETIC),
    ("layered", "repro.workloads.synthetic", "LayeredWorkload",
     CATEGORY_SYNTHETIC),
    ("stencil", "repro.workloads.synthetic", "StencilWorkload",
     CATEGORY_SYNTHETIC),
    ("reduction_tree", "repro.workloads.synthetic", "ReductionTreeWorkload",
     CATEGORY_SYNTHETIC),
    ("pipeline_chain", "repro.workloads.synthetic", "PipelineChainWorkload",
     CATEGORY_SYNTHETIC),
    ("random_dag", "repro.workloads.synthetic", "RandomDagWorkload",
     CATEGORY_SYNTHETIC),
    ("stencil2d", "repro.workloads.synthetic", "Stencil2DWorkload",
     CATEGORY_SYNTHETIC),
    ("stencil3d", "repro.workloads.synthetic", "Stencil3DWorkload",
     CATEGORY_SYNTHETIC),
    ("skewed_lanes", "repro.workloads.synthetic", "SkewedLanesWorkload",
     CATEGORY_SYNTHETIC),
)


class RegistryEntry:
    """One registered workload generator.

    A user registration carries its class; a built-in carries the module and
    class name to import it from, and imports it on the first read of
    :attr:`cls`.
    """

    __slots__ = ("name", "category", "_cls", "_origin")

    def __init__(self, name: str, category: str, cls: Optional[type] = None,
                 origin: Optional[Tuple[str, str]] = None):
        self.name = name
        self.category = category
        self._cls = cls
        self._origin = origin

    @property
    def cls(self) -> type:
        """The generator class (imported on first access for a built-in)."""
        if self._cls is None:
            module, attr = self._origin
            self._cls = getattr(importlib.import_module(module), attr)
        return self._cls


#: Registered workloads keyed by lower-cased name, in registration order.
_REGISTRY: Dict[str, RegistryEntry] = {
    name.lower(): RegistryEntry(name, category, origin=(module, attr))
    for name, module, attr, category in _BUILTINS
}


def register_workload(cls: Optional[type] = None, *, category: str = CATEGORY_CUSTOM,
                      replace: bool = False):
    """Register a :class:`~repro.workloads.base.Workload` subclass.

    The class is registered under ``cls.spec.name`` (lookups are
    case-insensitive).  Usable directly or as a decorator::

        @register_workload(category="custom")
        class MyWorkload(Workload):
            spec = WorkloadSpec(name="MyApp", ...)

    Args:
        cls: The workload class (omit to get a decorator).
        category: Catalogue grouping ("table1", "synthetic" or "custom").
        replace: Allow overwriting an existing registration of the same name.

    Returns:
        The registered class (so the decorator is transparent).
    """
    from repro.workloads.base import WorkloadSpec

    def _register(klass: type) -> type:
        spec = getattr(klass, "spec", None)
        if not isinstance(spec, WorkloadSpec) or not spec.name:
            raise WorkloadError(
                f"cannot register {klass!r}: it must define a class-level "
                "'spec' WorkloadSpec with a non-empty name")
        key = spec.name.lower()
        if key in _REGISTRY and not replace:
            raise WorkloadError(
                f"workload {spec.name!r} is already registered "
                f"(by {_REGISTRY[key].cls.__name__}); pass replace=True to override")
        _REGISTRY[key] = RegistryEntry(spec.name, category, cls=klass)
        return klass

    if cls is None:
        return _register
    return _register(cls)


def unregister_workload(name: str) -> bool:
    """Remove a registration (mainly for tests).  Returns True if it existed."""
    return _REGISTRY.pop(name.lower(), None) is not None


def is_registered(name: str) -> bool:
    """True if ``name`` (case-insensitive; bare name or spec string) is known.

    Malformed spec strings answer False rather than raising, so the predicate
    is safe for pre-screening arbitrary user input.
    """
    try:
        base, _ = parse_workload_spec(name)
    except WorkloadError:
        return False
    return base.lower() in _REGISTRY


def all_workload_names(category: Optional[str] = None) -> List[str]:
    """Registered workload names in registration order.

    Args:
        category: Restrict to one category ("table1", "synthetic", "custom");
            ``None`` returns every registered workload.
    """
    return [entry.name for entry in _REGISTRY.values()
            if category is None or entry.category == category]


def table1_names() -> List[str]:
    """Names of the nine Table I benchmarks, in the order the table lists them."""
    return all_workload_names(CATEGORY_TABLE1)


def synthetic_names() -> List[str]:
    """Names of the synthetic task-graph families."""
    return all_workload_names(CATEGORY_SYNTHETIC)


def get_entry(name: str) -> RegistryEntry:
    """Return the registration for ``name`` (case-insensitive, bare name)."""
    entry = _REGISTRY.get(name.lower())
    if entry is None:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {all_workload_names()}")
    return entry


def resolve_name(name: str) -> str:
    """Return the canonical (registered) spelling of ``name``."""
    return get_entry(name).name


# ---------------------------------------------------------------------------
# Parameterized workload specs
# ---------------------------------------------------------------------------

def _parse_scalar(text: str) -> ParamScalar:
    """Parse one parameter value: int, float, bool, none or bare string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip()


def parse_workload_spec(spec: str) -> Tuple[str, Dict[str, ParamScalar]]:
    """Split a workload spec string into ``(name, constructor_kwargs)``.

    ``"Cholesky"`` parses to ``("Cholesky", {})``;
    ``"random_dag:width=16,runtime_dist=lognormal"`` parses to
    ``("random_dag", {"width": 16, "runtime_dist": "lognormal"})``.
    """
    if ":" not in spec:
        return spec.strip(), {}
    name, _, tail = spec.partition(":")
    params: Dict[str, ParamScalar] = {}
    for item in tail.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise WorkloadError(
                f"malformed workload spec {spec!r}: expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        params[key.strip()] = _parse_scalar(value)
    return name.strip(), params


def _render_scalar(value: ParamScalar) -> str:
    """Canonical text for one parameter value.

    Integral floats render as ints (``16.0`` -> ``16``) and booleans in the
    lowercase the parser expects, so equivalent spellings produce identical
    spec strings (the generator constructors coerce numeric knobs anyway).
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def format_workload_spec(name: str, params: Dict[str, ParamScalar]) -> str:
    """Render ``(name, params)`` back into a spec string (sorted parameters)."""
    if not params:
        return name
    rendered = ",".join(f"{key}={_render_scalar(params[key])}"
                        for key in sorted(params))
    return f"{name}:{rendered}"


def canonical_spec(spec: str) -> str:
    """Normalize a workload spec string.

    Resolves the name's canonical casing, validates the parameters by
    instantiating the generator, and sorts the parameters and normalizes
    their scalar spelling (integral floats, booleans) so that two spellings
    of the same spec compare (and content-hash) equal.
    """
    name, params = parse_workload_spec(spec)
    canonical = resolve_name(name)
    if params:
        _instantiate(canonical, params)  # validate constructor arguments
    return format_workload_spec(canonical, params)


def _instantiate(name: str, params: Dict[str, ParamScalar]) -> Workload:
    cls = get_entry(name).cls
    try:
        return cls(**params)
    except TypeError as error:
        raise WorkloadError(
            f"invalid parameters for workload {name!r}: {error}") from error


# ---------------------------------------------------------------------------
# Lookup / generation
# ---------------------------------------------------------------------------

def get_spec(name: str) -> WorkloadSpec:
    """Return the catalogue row for ``name`` (case-insensitive, spec string ok)."""
    base, _ = parse_workload_spec(name)
    return get_entry(base).cls.spec


def get_workload(name: str, **kwargs) -> Workload:
    """Instantiate the generator for ``name`` (case-insensitive).

    ``name`` may be a parameterized spec string; explicit keyword arguments
    take precedence over parameters parsed from the string (e.g.
    ``get_workload("random_dag:width=8", width=16)`` builds with width 16).
    """
    base, params = parse_workload_spec(name)
    params.update(kwargs)
    return _instantiate(resolve_name(base), params)


def generate(name: str, scale: Optional[int] = None, seed: int = 0, **kwargs) -> TaskTrace:
    """Generate a trace for workload ``name``.

    Args:
        name: Workload name or parameterized spec string (case-insensitive).
        scale: Problem-size knob; ``None`` uses the workload's default.
        seed: Seed for runtime jitter and randomised structure.
        **kwargs: Extra generator-constructor arguments.
    """
    return get_workload(name, **kwargs).generate(scale=scale, seed=seed)


def table1_rows(scale_overrides: Optional[Dict[str, int]] = None,
                seed: int = 0) -> List[Dict[str, object]]:
    """Reproduce Table I: published values alongside measured trace statistics.

    Returns one dictionary per benchmark with the published ``spec`` values and
    the ``measured`` statistics of a generated trace (average data size in KB,
    min/median/average runtime in microseconds, and the 256-core decode-rate
    limit derived from the measured minimum runtime).
    """
    scale_overrides = scale_overrides or {}
    rows: List[Dict[str, object]] = []
    for name in table1_names():
        workload = get_workload(name)
        trace = workload.generate(scale=scale_overrides.get(name), seed=seed)
        minimum, median, mean = trace.runtime_stats_us()
        rows.append({
            "name": name,
            "class": workload.spec.domain,
            "description": workload.spec.description,
            "tasks": len(trace),
            "spec": workload.spec,
            "measured": {
                "avg_data_kb": trace.average_data_kb(),
                "min_runtime_us": minimum,
                "med_runtime_us": median,
                "avg_runtime_us": mean,
                "decode_limit_ns": minimum * 1000.0 / 256,
            },
        })
    return rows


# ---------------------------------------------------------------------------
# Table I catalogue
# ---------------------------------------------------------------------------

def __getattr__(name: str) -> object:
    """Build ``TABLE1`` (Table I: application name -> published
    characteristics) on first access; it needs the nine generator modules."""
    if name != "TABLE1":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    table: Dict[str, WorkloadSpec] = {
        row_name: getattr(importlib.import_module(module), attr).spec
        for row_name, module, attr, category in _BUILTINS
        if category == CATEGORY_TABLE1
    }
    globals()["TABLE1"] = table
    return table
