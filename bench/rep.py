"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/rep.py --workload NAME --seed N --kind KIND --out DIR

KIND is ``timed`` (the measured repetition), ``traced`` (the same with the
layer trace installed), ``warmup`` (one round, numbers discarded) or
``serial`` (the workload's config run without the thread pool, for the
parallel-equals-serial check). The process imports fedmm from the
checkout's ``src/``, runs the public entry point once with ``rounds=0``
(set-up) and once with the workload's rounds, writing outputs under DIR,
and prints one JSON line. A traced repetition writes its spans to
``bench/results/<workload>-seed<n>-spans.csv.gz``. A failure raises and
exits non-zero.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
from workloads import INFERENCE_MODES, WORKLOADS, local_samples, make_config  # noqa: E402

LOG_COLUMNS = "round,mode,micro_f1,macro_f1,accuracy,mean_ce,mean_ntx,bytes_exchanged"


def blas_info() -> dict:
    """BLAS library numpy loaded and the thread count it will use."""
    info = {"library": None, "threads": None, "config": None}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info["library"] = os.path.basename(path)
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                info["threads"] = get_threads()
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
            if get_threads is not None:
                return info
    return info


def check_outputs(out: Path, workload, rounds: int) -> tuple[list[str], dict]:
    """Structural checks on what the run wrote; returns problems and log facts."""
    problems = []
    text = (out / "log.csv").read_text()
    lines = text.splitlines()
    if not lines or lines[0] != LOG_COLUMNS:
        return [f"log.csv header is {lines[:1]}"], {}
    rows = [line.split(",") for line in lines[1:]]
    expected = [(str(r), m) for r in range(rounds + 1) for m in INFERENCE_MODES]
    if [(row[0], row[1]) for row in rows] != expected:
        problems.append(f"log.csv has {len(rows)} rows, expected rounds 0..{rounds} x modes")
    for row in rows:
        values = [float(v) for v in row[2:7]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in log.csv row {row}")
        if not all(0.0 <= v <= 1.0 for v in values[:3]):
            problems.append(f"score outside [0, 1] in log.csv row {row}")
    timing_rows = (out / "timings.csv").read_text().splitlines()[1:]
    if len(timing_rows) != rounds:
        problems.append(f"timings.csv has {len(timing_rows)} rounds, expected {rounds}")
    if workload.entry == "run_experiment":
        written = ["model.ckpt", "config.json"]
    else:
        written = ["baseline_m0.ckpt", "baseline_m1.ckpt", "config.json"]
    for name in written:
        if not (out / name).is_file():
            problems.append(f"{name} was not written")
    last = rows[-len(INFERENCE_MODES)] if rows else None
    facts = {
        "log_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "final_micro_f1": float(last[2]) if last and last[1] == "both" else None,
        "bytes_exchanged": int(last[7]) if last else None,
    }
    if facts["final_micro_f1"] is None:
        problems.append("log.csv has no final 'both' row")
    return problems, facts


def layer_numbers(tracer, rounds: int) -> dict:
    """Per-layer numbers of one traced run (pooled by the orchestrator)."""
    by_round = layertrace.self_time_by_round(tracer)
    waits = layertrace.client_wait_by_round(tracer)
    updates_wall = layertrace.busy_seconds(tracer, "engine._run_updates")
    return {
        "calls": layertrace.call_counts(tracer),
        "round_self_s": {
            name: [per_round.get(r, 0.0) for r in range(1, rounds + 1)]
            for name, per_round in by_round.items()
        },
        "run_self_s": {name: sum(per_round.values()) for name, per_round in by_round.items()},
        "client_wait_s": [statistics.fmean(waits[r]) if r in waits else 0.0 for r in range(1, rounds + 1)],
        "client_concurrency": (
            layertrace.busy_seconds(tracer, "engine.client_update") / updates_wall
            if updates_wall > 0
            else 0.0
        ),
        "rounds_seen": tracer.round,
    }


def spans_path(workload: str, seed: int) -> Path:
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    return results / f"{workload}-seed{seed}-spans.csv.gz"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", required=True, choices=("timed", "traced", "warmup", "serial"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    rounds = 1 if args.kind == "warmup" else workload.rounds
    parallel = workload.parallel and args.kind != "serial"
    out = Path(args.out)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fedmm
    import numpy
    from fedmm import engine

    if Path(fedmm.__file__).resolve().parent != ROOT / "src" / "fedmm":
        raise SystemExit(f"imported fedmm from {fedmm.__file__}, not from the checkout")
    entry = getattr(engine, workload.entry)
    entry(make_config(fedmm, workload, args.seed, 0, str(out / "setup")), parallel=parallel)
    setup_s = time.perf_counter() - started

    cfg = make_config(fedmm, workload, args.seed, rounds, str(out / "run"))
    tracer = None
    if args.kind == "traced":
        tracer = layertrace.Tracer()
        tracer.install(fedmm)
    entry = getattr(engine, workload.entry)
    t0 = time.perf_counter()
    entry(cfg, parallel=parallel)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    problems, facts = check_outputs(out / "run", workload, rounds)
    result = {
        "kind": args.kind,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "samples": local_samples(fedmm, cfg),
        "problems": problems,
        **facts,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas_info()},
    }
    if tracer is not None:
        result["layers"] = layer_numbers(tracer, rounds)
        tracer.write_spans(spans_path(workload.name, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
