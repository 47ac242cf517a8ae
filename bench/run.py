"""Run one fedmm benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A single closed-loop caller runs one repetition at a time, each in a fresh
process (``bench/rep.py``), until ``--seconds`` have passed (at least
``MIN_REPS`` repetitions). Before them it runs one untimed process whose
numbers are discarded: one round of the workload, or, for a parallel
workload, the serial run of the same config, whose ``log.csv`` the parallel
repetitions must reproduce byte for byte.

With ``--trace 0`` the repetitions run untraced and the end-to-end metrics
are printed. With ``--trace 1`` traced and untraced repetitions alternate;
the traced ones give the per-layer metrics and the difference of the two
medians of ``run_s`` gives the tracing overhead.

A repetition fails if it raises, exits non-zero, writes malformed outputs,
or writes a ``log.csv`` whose SHA-256 differs from the other repetitions'.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(environment, every repetition, hashes) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layertrace import ENTRY_POINTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
MIN_REPS_TRACED = 2  # one traced and one untraced
DEADLINE_S = 165.0  # start no repetition that would end later than this

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
)

# per-round self time (median and p90 over rounds) of these spans
ROUND_TIMED = (
    "nncore.whitening_matrix",
    "models.cross_encode",
    "losses.ntxent",
    "losses.local_objective",
    "models.encode_train",
    "models.encode_backward",
    "nncore.adam_step",
    "models.flatten_params",
    "models.unflatten_params",
    "nncore.as_tensor",
    "nncore.dense_forward",
    "nncore.dense_backward",
    "engine.client_update",
    "engine.aggregate",
    "metrics.evaluate",
    "engine.evaluate_late_fusion",
    "engine.run_round",
)
# calls per run
COUNTED = (
    "nncore.whitening_matrix",
    "models.cross_encode",
    "losses.ntxent",
    "losses.local_objective",
    "models.flatten_params",
    "models.unflatten_params",
    "nncore.as_tensor",
    "engine.client_update",
    "engine.aggregate",
    "metrics.evaluate",
    "engine.evaluate_late_fusion",
)
# self time per run of the once-per-run set-up and output steps
PER_RUN = (
    "data.gen_synthetic",
    "data.build_scenario",
    "engine.init_model",
    "engine.make_client",
    "engine.write_outputs",
)


# metrics that sum several spans: the round loop is ``run_round`` plus the
# entry point's own time inside rounds (the baseline runs its own loop), and
# model construction is ``init_model`` or the baseline's per-modality models
COMPOSITE = {
    "engine.run_round": ("engine.run_round",) + ENTRY_POINTS,
    "engine.init_model": ("engine.init_model", "engine._baseline_submodel"),
}


def spans_of(name: str) -> tuple[str, ...]:
    return COMPOSITE.get(name, (name,))


def per_layer_spec() -> list[tuple[str, str, tuple[str, ...]]]:
    """(metric, unit, spans it needs) for every per-layer metric."""
    spec = []
    for name in ROUND_TIMED:
        spec.append((f"{name}.s", "s", spans_of(name)))
        spec.append((f"{name}.s_p90", "s", spans_of(name)))
    spec += [(f"{name}.calls", "count", (name,)) for name in COUNTED]
    spec += [(f"{name}.s", "s", spans_of(name)) for name in PER_RUN]
    spec += [
        (
            "nncore.whitening_matrix.calls_per_step",
            "1",
            ("nncore.whitening_matrix", "losses.local_objective"),
        ),
        ("engine.bytes_exchanged", "B", ()),
        ("metrics.final_micro_f1", "1", ()),
        ("engine.client_concurrency", "1", ("engine.client_update", "engine._run_updates")),
        ("engine.client_update.wait_s", "s", ("engine.client_update", "engine._run_updates")),
        ("trace.overhead_s", "s", ()),
    ]
    return spec


def run_rep(workload, seed: int, kind: str, work: Path, timeout: float) -> dict:
    """Run one repetition process and return its result, or an ``error``."""
    out = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=work))
    cmd = [
        sys.executable,
        str(BENCH_DIR / "rep.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--kind", kind,
        "--out", str(out),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "error": f"timed out after {timeout:.0f} s", "wall_s": time.monotonic() - started}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"kind": kind, "error": f"exit {proc.returncode}: {' | '.join(tail)}", "wall_s": wall}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    if result["problems"]:
        result["error"] = "; ".join(result["problems"])
    return result


def git_state() -> dict:
    """The checkout's commit and whether its tree differs from it (None outside git)."""
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT).stdout.strip()

    return {
        "git_commit": git("rev-parse", "HEAD") or None,
        "git_dirty": bool(git("status", "--porcelain")),
    }


def gate_hashes(reps: list[dict], extra: str | None) -> str | None:
    """Fail every repetition whose ``log.csv`` hash is not the majority's.

    ``extra`` is one more hash that votes (the serial log of a parallel
    workload). Returns the majority hash, or None without a strict majority.
    """
    hashes = Counter(r["log_sha256"] for r in reps if "error" not in r)
    if extra is not None:
        hashes[extra] += 1
    ranked = hashes.most_common(2)
    reference = ranked[0][0] if ranked and (len(ranked) == 1 or ranked[0][1] > ranked[1][1]) else None
    for r in reps:
        if "error" not in r and r["log_sha256"] != reference:
            r["error"] = f"log.csv sha256 {r['log_sha256'][:12]} differs from {str(reference)[:12]}"
    return reference


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Every repetition's value of each end-to-end metric."""
    return {
        "run_s": [r["run_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "samples_per_s": [r["samples"] / r["run_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(workload, traced: list[dict], timed: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Pool the traced repetitions into per-layer values; also missing layers and problems."""
    problems = []
    layers = [r["layers"] for r in traced]
    calls = layers[0]["calls"]
    if any(layer["calls"] != calls for layer in layers[1:]):
        problems.append("call counts differ between traced repetitions")
    for layer in layers:
        if layer["rounds_seen"] != workload.rounds:
            problems.append(f"trace saw {layer['rounds_seen']} rounds, expected {workload.rounds}")

    def round_samples(name):
        return [
            sum(layer["round_self_s"].get(span, [0.0] * workload.rounds)[r] for span in spans_of(name))
            for layer in layers
            for r in range(workload.rounds)
        ]

    def run_total(name):
        return statistics.median(
            sum(layer["run_self_s"].get(span, 0.0) for span in spans_of(name)) for layer in layers
        )

    values = {}
    for name in ROUND_TIMED:
        samples = round_samples(name)
        values[f"{name}.s"] = statistics.median(samples)
        values[f"{name}.s_p90"] = statistics.quantiles(samples, n=10, method="inclusive")[8]
    for name in COUNTED:
        values[f"{name}.calls"] = calls[name]
    for name in PER_RUN:
        values[f"{name}.s"] = run_total(name)
    steps = calls["losses.local_objective"]
    values["nncore.whitening_matrix.calls_per_step"] = (
        calls["nncore.whitening_matrix"] / steps if steps else 0.0
    )
    values["engine.bytes_exchanged"] = traced[0]["bytes_exchanged"]
    values["metrics.final_micro_f1"] = traced[0]["final_micro_f1"]
    values["engine.client_concurrency"] = statistics.median(l["client_concurrency"] for l in layers)
    values["engine.client_update.wait_s"] = statistics.median(
        v for layer in layers for v in layer["client_wait_s"]
    )
    values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
        r["run_s"] for r in timed
    )

    missing = sorted(
        {
            metric
            for metric, _, needs in per_layer_spec()
            if any(span in workload.expected and calls[span] == 0 for span in needs)
        }
    )
    return values, missing, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fedmm benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program_start = time.monotonic()
    if not (ROOT / "src" / "fedmm" / "__init__.py").is_file():
        print(f"error: no fedmm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **git_state(),
        "loadavg_before": os.getloadavg(),
    }

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - program_start)

    problems: list[str] = []
    try:
        pre_kind = "serial" if workload.parallel else "warmup"
        pre = run_rep(workload, args.seed, pre_kind, work, max(remaining(), 1.0))
        if "error" in pre:
            problems.append(f"{pre_kind} process failed: {pre['error']}")
        env.update(pre.get("env", {}))

        kinds = ["traced", "timed"] if args.trace else ["timed"]
        min_reps = MIN_REPS_TRACED if args.trace else MIN_REPS
        reps: list[dict] = []
        loop_start = time.monotonic()
        while True:
            elapsed = time.monotonic() - loop_start
            estimate = statistics.median(r["wall_s"] for r in reps) if reps else 0.0
            if len(reps) >= min_reps and elapsed + estimate > args.seconds:
                break
            if reps and estimate > remaining():
                break
            kind = kinds[len(reps) % len(kinds)]
            reps.append(run_rep(workload, args.seed, kind, work, max(remaining(), 1.0)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    # a repetition whose log differs from the workload's other repetitions fails
    reference = gate_hashes(reps, pre.get("log_sha256") if workload.parallel else None)
    if workload.parallel and pre.get("log_sha256") not in (None, reference):
        problems.append("parallel log.csv differs from the serial log of the same config")

    good = [r for r in reps if "error" not in r]
    attempted = len(reps)
    failed = attempted - len(good)
    problems += [f"{r['kind']} repetition failed: {r['error']}" for r in reps if "error" in r]
    good_timed = [r for r in good if r["kind"] == "timed"]
    good_traced = [r for r in good if r["kind"] == "traced"]
    if not good_timed or (args.trace and not good_traced):
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        print("error: no successful repetition to report", file=sys.stderr)
        return 1

    e2e = end_to_end(good_timed)
    missing: list[str] = []
    if args.trace:
        layer_values, missing, layer_problems = per_layer(workload, good_traced, good_timed)
        problems += layer_problems
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()
            if name not in missing
        }
    else:
        metrics = {
            name: {"value": statistics.median(e2e[name]), "unit": unit} for name, unit in END_TO_END
        }

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "log_sha256": reference,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "missing": missing,
        "metrics": metrics,
        "end_to_end_samples": e2e,
        "pre_process": {k: v for k, v in pre.items() if k not in ("layers", "env")},
        "repetitions": [{k: v for k, v in r.items() if k not in ("layers", "env")} for r in reps],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ({workload.why})")
    print(
        f"nproc {env['nproc']}  blas {env.get('blas', {}).get('library')} "
        f"threads {env.get('blas', {}).get('threads')}  python {env.get('python')}  "
        f"numpy {env.get('numpy')}  loadavg {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
    )
    print(f"log.csv sha256 {reference}  final micro-F1 (both) {good_timed[0]['final_micro_f1']!r}")
    print(f"repetitions {attempted}  failed {failed}  failed_frac {failed / attempted:.3f}")
    for name, unit in END_TO_END:
        vals = e2e[name]
        print(
            f"  {name:<16} median {statistics.median(vals):.6g} {unit}"
            f"  (n={len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})"
        )
    if args.trace:
        print(f"per-layer metrics from {len(good_traced)} traced repetition(s):")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for name in missing:
        print(f"  MISSING {name}: an expected layer recorded no calls")
    for p in problems:
        print(f"problem: {p}")
    print(f"record written to {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
