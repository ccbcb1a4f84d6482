"""The built-in workload catalogue: names, order, classes and Table I rows.

The registry lists its built-ins as a table of names and import locations
and imports a generator on first use; these checks pin the catalogue that
table must reproduce -- the same names, order, categories, classes, specs
and canonical spellings (the import side is in ``test_startup.py``).
"""

from __future__ import annotations

import importlib

import pytest

from repro.workloads import registry
from repro.workloads.base import WorkloadSpec
from repro.workloads.synthetic import SYNTHETIC_FAMILIES

#: Every built-in in registration order: name, module, class, category.
BUILTINS = [
    ("Cholesky", "repro.workloads.cholesky", "CholeskyWorkload", "table1"),
    ("MatMul", "repro.workloads.matmul", "MatMulWorkload", "table1"),
    ("FFT", "repro.workloads.fft", "FFTWorkload", "table1"),
    ("H264", "repro.workloads.h264", "H264Workload", "table1"),
    ("KMeans", "repro.workloads.kmeans", "KMeansWorkload", "table1"),
    ("Knn", "repro.workloads.knn", "KnnWorkload", "table1"),
    ("PBPI", "repro.workloads.pbpi", "PBPIWorkload", "table1"),
    ("SPECFEM", "repro.workloads.specfem", "SPECFEMWorkload", "table1"),
    ("STAP", "repro.workloads.stap", "STAPWorkload", "table1"),
    ("fork_join", "repro.workloads.synthetic", "ForkJoinWorkload", "synthetic"),
    ("layered", "repro.workloads.synthetic", "LayeredWorkload", "synthetic"),
    ("stencil", "repro.workloads.synthetic", "StencilWorkload", "synthetic"),
    ("reduction_tree", "repro.workloads.synthetic", "ReductionTreeWorkload",
     "synthetic"),
    ("pipeline_chain", "repro.workloads.synthetic", "PipelineChainWorkload",
     "synthetic"),
    ("random_dag", "repro.workloads.synthetic", "RandomDagWorkload",
     "synthetic"),
    ("stencil2d", "repro.workloads.synthetic", "Stencil2DWorkload",
     "synthetic"),
    ("stencil3d", "repro.workloads.synthetic", "Stencil3DWorkload",
     "synthetic"),
    ("skewed_lanes", "repro.workloads.synthetic", "SkewedLanesWorkload",
     "synthetic"),
]

#: Table I as published: name -> (domain, description, avg data KB,
#: min / median / average runtime us, 256-core decode limit ns).
TABLE1 = {
    "Cholesky": ("Math. kernel", "Blocked Cholesky decomposition",
                 47, 16, 33, 31, 63),
    "MatMul": ("Math. kernel", "Blocked matrix multiplication",
               48, 23, 23, 23, 90),
    "FFT": ("Signal Processing", "2D Fast Fourier Transform",
            10, 13, 14, 26, 51),
    "H264": ("Multimedia", "Decoding a HD clip", 97, 2, 115, 130, 8),
    "KMeans": ("Machine Learning", "K-Means clustering", 38, 24, 59, 55, 94),
    "Knn": ("Pattern Recognition", "K-Nearest Neighbors",
            10, 17, 107, 109, 66),
    "PBPI": ("Bioinformatics", "Bayesian Phylogenetic Inference",
             32, 28, 29, 29, 108),
    "SPECFEM": ("Physics (Earth)", "Seismic wave propagation",
                770, 9, 14, 49, 35),
    "STAP": ("Physics (Radar)", "Space-Time Adaptive Processing",
             8, 1, 9, 28, 4),
}


def test_names_order_and_categories():
    assert [(name, registry.get_entry(name).category)
            for name in registry.all_workload_names()] == [
        (name, category) for name, _, _, category in BUILTINS]
    assert registry.table1_names() == list(TABLE1)
    assert registry.synthetic_names() == [
        name for name, _, _, category in BUILTINS if category == "synthetic"]


@pytest.mark.parametrize("name,module,cls_name,category", BUILTINS)
def test_entry_class_and_spec(name, module, cls_name, category):
    cls = getattr(importlib.import_module(module), cls_name)
    entry = registry.get_entry(name)
    assert entry.cls is cls
    assert entry.name == cls.spec.name == name
    assert registry.get_spec(name) == cls.spec


def test_table1_mapping():
    assert registry.TABLE1 == {
        name: WorkloadSpec(name, *row) for name, row in TABLE1.items()}


@pytest.mark.parametrize("name", [row[0] for row in BUILTINS])
def test_canonical_spec_of_every_name(name):
    assert registry.canonical_spec(name.lower()) == name
    assert registry.canonical_spec(name.upper()) == name


def test_canonical_spec_with_parameters():
    assert (registry.canonical_spec("random_dag:width=16.0,dep_distance=64")
            == "random_dag:dep_distance=64,width=16")


def test_synthetic_families_are_listed():
    for cls in SYNTHETIC_FAMILIES:
        entry = registry.get_entry(cls.spec.name)
        assert (entry.cls, entry.category) == (cls, "synthetic")

