"""Start-up cost: each ``repro`` process imports only what its command uses.

The package ``__init__`` files re-export their names lazily, the workload
registry imports a generator the first time its class is needed, and the
sweep runner loads the machine and the process pool on first use, so
``import repro``, ``import repro.cli`` and a fully cached ``repro sweep``
never load the simulator or a workload generator.  The import checks run in
fresh interpreters, because this test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: The packages whose ``__init__`` re-exports names lazily.
LAZY_PACKAGES = ("repro", "repro.backend", "repro.common", "repro.runtime",
                 "repro.trace", "repro.obs", "repro.sweep", "repro.workloads")

#: The workload generators and the memory model they build on: resolving a
#: workload name (``--workload`` at parse time) must load none of them.
GENERATOR_MODULES = tuple(
    f"repro.workloads.{name}"
    for name in ("cholesky", "matmul", "fft", "h264", "kmeans", "knn", "pbpi",
                 "specfem", "stap", "synthetic", "base")
) + ("repro.runtime.memory",)

#: Modules a fully cached sweep must not load.
CACHED_SWEEP_SKIPS = ("repro.sim", "repro.frontend", "repro.cores",
                      "repro.backend.system", "repro.backend.scheduler",
                      "repro.topology", "repro.software", "repro.memsys",
                      "repro.experiments", "repro.sweep.campaign",
                      "repro.obs", "multiprocessing", "concurrent.futures",
                      "repro.trace.packed", "repro.trace.records",
                      *GENERATOR_MODULES)

_SWEEP_ARGS = ["sweep", "--workload", "Cholesky",
               "--axis", "topology.num_frontends=1,2",
               "--scale-factor", "0.2", "--max-tasks", "12", "--cores", "8"]


def _run_python(script: str):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(script: str) -> list:
    """Names in ``sys.modules`` after running ``script`` in a fresh process."""
    return _run_python(
        script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")


def _offenders(loaded: list, forbidden) -> list:
    return [name for name in loaded
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in forbidden)]


def test_import_repro_loads_no_subsystem():
    loaded = _loaded_after("import repro")
    forbidden = ("repro.sim", "repro.frontend", "repro.cores",
                 "repro.backend.system", "repro.backend.scheduler",
                 "repro.topology", "repro.software", "repro.workloads",
                 "repro.sweep")
    assert _offenders(loaded, forbidden) == []


def test_import_cli_loads_no_generator():
    forbidden = GENERATOR_MODULES + ("repro.trace.records",)
    assert _offenders(_loaded_after("import repro.cli"), forbidden) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_cached_sweep_loads_no_simulator(jobs, tmp_path, capsys):
    argv = _SWEEP_ARGS + ["--jobs", str(jobs), "--artifacts", str(tmp_path)]
    assert main(argv) == 0
    assert "(0 cached, 2 computed)" in capsys.readouterr().out
    script = ("import contextlib, io, repro.cli\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              f"    assert repro.cli.main({argv!r}) == 0\n"
              "assert '(2 cached, 0 computed)' in out.getvalue(), out.getvalue()")
    assert _offenders(_loaded_after(script), CACHED_SWEEP_SKIPS) == []


#: Imports every lazy package, then checks its exports; prints the names
#: that were bound before first use (eager re-exports).
_LAZY_SCRIPT = """
import importlib, json
packages = {packages!r}
modules = [importlib.import_module(name) for name in packages]
eager = {{name: sorted(set(module.__all__) & set(vars(module)) - {{"__version__"}})
         for name, module in zip(packages, modules)}}
for name, module in zip(packages, modules):
    listing = dir(module)
    for export in module.__all__:
        assert getattr(module, export) is not None, (name, export)
        assert export in listing, (name, export)
    namespace = {{}}
    exec("from " + name + " import *", namespace)
    assert set(module.__all__) <= set(namespace), name
    try:
        module.no_such_name
    except AttributeError as error:
        assert "no_such_name" in str(error)
    else:
        raise AssertionError(name + ".no_such_name resolved")
print(json.dumps(eager))
"""


def test_lazy_exports_resolve_on_first_use():
    eager = _run_python(_LAZY_SCRIPT.format(packages=LAZY_PACKAGES))
    assert eager == {name: [] for name in LAZY_PACKAGES}


def test_simulation_result_keeps_its_old_import_path():
    from repro import SimulationResult
    from repro.backend.result import SimulationResult as leaf
    from repro.backend.system import SimulationResult as legacy

    assert SimulationResult is leaf is legacy


#: Replaces ``random_dag`` before ``repro.workloads.synthetic`` is imported,
#: then resolves ``fork_join`` (which imports it).
_REPLACE_SCRIPT = """
import json, sys
from repro.workloads import registry
from repro.workloads.base import Workload, WorkloadSpec

class Replacement(Workload):
    spec = WorkloadSpec(name="random_dag", domain="Test", description="x",
                        avg_data_kb=1.0, min_runtime_us=1.0, med_runtime_us=1.0,
                        avg_runtime_us=1.0, decode_limit_ns=4.0)

before = "repro.workloads.synthetic" in sys.modules
registry.register_workload(Replacement, replace=True)
fork_join = registry.get_entry("fork_join").cls
entry = registry.get_entry("random_dag")
print(json.dumps({
    "synthetic_loaded_before": before,
    "synthetic_loaded_after": "repro.workloads.synthetic" in sys.modules,
    "fork_join": fork_join.__name__,
    "random_dag": [entry.cls.__name__, entry.category],
    "names": registry.synthetic_names(),
}))
"""


def test_replacing_a_builtin_before_its_module_loads():
    assert _run_python(_REPLACE_SCRIPT) == {
        "synthetic_loaded_before": False,
        "synthetic_loaded_after": True,
        "fork_join": "ForkJoinWorkload",
        "random_dag": ["Replacement", "custom"],
        "names": ["fork_join", "layered", "stencil", "reduction_tree",
                  "pipeline_chain", "stencil2d", "stencil3d", "skewed_lanes"],
    }
