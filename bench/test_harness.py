"""Tiny-size self-check of the benchmark harness.

    python3 -m pytest bench -q

Runs in a few seconds and is not part of the repository's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import fedmm  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, local_samples  # noqa: E402


def tiny_config(tmp_path, out_name="run"):
    return fedmm.ExperimentConfig(
        dataset=fedmm.DatasetSpec(n_sites=120),
        scenario=fedmm.ScenarioSpec(kind="group-skew"),
        k_clients=4,
        rounds=3,
        batch_size=16,
        inference_modes=("both", "only-0", "only-1"),
        seed=3,
        output_dir=str(tmp_path / out_name),
    )


def traced_run(cfg, entry="run_experiment", parallel=False):
    tracer = layertrace.Tracer()
    tracer.install(fedmm)
    try:
        getattr(fedmm.engine, entry)(cfg, parallel=parallel)
    finally:
        tracer.uninstall()
    return tracer


def test_tracing_is_transparent_and_restores_every_name(tmp_path):
    originals = {
        (module.__name__, name): getattr(module, name)
        for module in (fedmm, fedmm.engine, fedmm.losses, fedmm.models, fedmm.nncore, fedmm.metrics)
        for name in dir(module)
    }
    plain = tiny_config(tmp_path, "plain")
    fedmm.engine.run_experiment(plain)
    tracer = traced_run(tiny_config(tmp_path, "traced"))
    for (module_name, name), value in originals.items():
        assert getattr(sys.modules[module_name], name) is value, f"{module_name}.{name}"
    assert (tmp_path / "plain" / "log.csv").read_bytes() == (tmp_path / "traced" / "log.csv").read_bytes()
    counts = layertrace.call_counts(tracer)
    for name in WORKLOADS["groupskew-full"].expected:
        assert counts[name] > 0, name
    assert counts["engine.run_round"] == 3
    assert tracer.round == 3


def test_rounds_and_self_time_cover_the_run(tmp_path):
    tracer = traced_run(tiny_config(tmp_path))
    by_round = layertrace.self_time_by_round(tracer)
    (entry,) = [s for s in tracer.spans if s.name == "engine.run_experiment"]
    total = sum(sum(per_round.values()) for per_round in by_round.values())
    assert total == pytest.approx(entry.end - entry.start, rel=1e-9)
    assert all(v >= 0.0 for per_round in by_round.values() for v in per_round.values())
    assert set(by_round["engine.run_round"]) == {1, 2, 3}
    assert set(by_round["data.gen_synthetic"]) == {0}
    assert set(by_round["engine.run_experiment"]) <= {0, 1, 2, 3}


def test_baseline_rounds_follow_its_own_loop(tmp_path):
    tracer = traced_run(tiny_config(tmp_path), entry="baseline_fedavg_latefusion")
    counts = layertrace.call_counts(tracer)
    assert tracer.round == 3
    assert counts["engine.run_round"] == 0
    for name in WORKLOADS["baseline-latefusion"].expected:
        assert counts[name] > 0, name


def test_pool_threads_nest_under_the_round(tmp_path):
    tracer = traced_run(tiny_config(tmp_path), parallel=True)
    by_id = {s.sid: s for s in tracer.spans}
    updates = [s for s in tracer.spans if s.name == "engine.client_update"]
    assert len(updates) == 4 * 3
    assert all(by_id[s.parent].name == "engine._run_updates" for s in updates)
    assert all(s.round_open == by_id[s.parent].round_open for s in updates)
    waits = layertrace.client_wait_by_round(tracer)
    assert sorted(waits) == [1, 2, 3]
    assert all(w >= 0.0 for ws in waits.values() for w in ws)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = layertrace.Tracer()
    parent = layertrace.Span(1, "p", 0.0, 0, 1, 1)
    parent.end = 10.0
    a = layertrace.Span(2, "a", 1.0, 1, 1, 2)
    a.end = 5.0
    b = layertrace.Span(3, "b", 3.0, 1, 1, 3)
    b.end = 7.0
    tracer.spans = [a, b, parent]
    tracer.round_starts = [0.0]
    by_round = layertrace.self_time_by_round(tracer)
    assert by_round["p"][1] == pytest.approx(4.0)  # 10 - |[1, 7]|
    assert by_round["a"][1] == pytest.approx(4.0)


def test_cross_round_span_is_split_at_round_starts():
    tracer = layertrace.Tracer()
    entry = layertrace.Span(1, "e", 0.0, 0, 0, 1)
    entry.end = 10.0
    entry.round_close = 2
    child = layertrace.Span(2, "c", 4.0, 1, 1, 1)
    child.end = 6.0
    tracer.spans = [child, entry]
    tracer.round_starts = [3.0, 8.0]
    by_round = layertrace.self_time_by_round(tracer)
    assert by_round["e"] == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0})


def test_local_samples_matches_the_rows_trained_on(tmp_path, monkeypatch):
    # iid splits the 96 training rows per modality into shards of 48, so a
    # batch size of 47 leaves the 1-row trailing batch that is dropped
    cfg = dataclasses.replace(
        tiny_config(tmp_path), scenario=fedmm.ScenarioSpec(kind="iid"), batch_size=47
    )
    rows = []
    original = fedmm.engine.local_objective

    def counting(x, *args, **kwargs):
        rows.append(x.shape[0])
        return original(x, *args, **kwargs)

    monkeypatch.setattr(fedmm.engine, "local_objective", counting)
    fedmm.engine.run_experiment(cfg)
    assert rows.count(1) == 0 and len(rows) == 4 * 3
    assert sum(rows) == local_samples(fedmm, cfg) == 4 * 47 * 3


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in run.per_layer_spec()
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "baseline-latefusion", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_stacks_are_per_thread():
    tracer = layertrace.Tracer()
    outer = tracer._open("engine._run_updates")
    seen = []

    def worker():
        span = tracer._open("engine.client_update")
        seen.append(span.parent)
        tracer._close(span)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer._close(outer)
    assert seen == [outer.sid]

