"""The benchmark's layer tracer must still find every layer it wraps.

``bench/layertrace.py`` wraps fedmm functions by name and reports a layer
with no calls as missing. These tests load it by path, so a change that
deletes, renames or bypasses a traced function fails here and not only in
a traced benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import fedmm
from fedmm.data import DatasetSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "name", [f"{layer}.{fn}" for layer, fns in layertrace.TRACED.items() for fn in fns]
)
def test_traced_name_resolves_to_a_function(name):
    layer, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"fedmm.{layer}"), fn, None))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_calls_every_expected_layer(workload, tmp_path):
    # the workload's own config, shrunk to one round on a small dataset
    w = workloads.WORKLOADS[workload]
    cfg = workloads.make_config(fedmm, w, seed=0, rounds=1, output_dir=str(tmp_path))
    cfg = dataclasses.replace(
        cfg, dataset=DatasetSpec(n_sites=240, n_groups=4), k_clients=4
    )
    tracer = layertrace.Tracer()
    tracer.install(fedmm)
    try:
        getattr(fedmm.engine, w.entry)(cfg, parallel=w.parallel)
    finally:
        tracer.uninstall()
    calls = layertrace.call_counts(tracer)
    assert [name for name in w.expected if calls[name] == 0] == []
