"""Certification benchmark for griess-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload against the package in ../src, checks every
output exactly, prints each metric by name with its unit, and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Exits 1 when an output check failed and 2
when the package or the benchmark definition is missing.

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
WARM_DIR = os.path.join(WORK_DIR, "warm-cache")
WORKER = os.path.join(BENCH_DIR, "worker.py")
RUN_BUDGET_S = 170.0

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    pass


def call_worker(args, deadline: float):
    """Run worker.py to completion; return (start reading, last-line JSON)."""
    remaining = deadline - now()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = now()
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited with {proc.returncode}")
    return t0, json.loads(lines[-1])


def ensure_warm_cache(deadline: float) -> None:
    """Fill the warm shell cache once per checkout, atomically."""
    if os.path.isdir(WARM_DIR):
        return
    tmp = f"{WARM_DIR}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        call_worker(["--prefill", tmp], deadline)
        os.rename(tmp, WARM_DIR)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def src_digest() -> str:
    """SHA-256 over the paths and bytes of every file under src/."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_digests(source: str, seed: int, digests: dict) -> list:
    """Compare this run's report digests with earlier runs of the same
    source tree and seed; a changed src/ starts a new entry."""
    path = os.path.join(WORK_DIR, "digests.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    known = ledger.setdefault(f"{source}:{seed}", {})
    bad = [s for s, (d, _) in digests.items() if known.setdefault(s, d) != d]
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return bad


def metadata(source: str) -> dict:
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += sum(1 for _ in fh)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        commit = got.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "git_commit": commit, "src_lines": lines,
            "src_sha256": source}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(opts) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "griess_lab", "__init__.py")):
        raise BenchError(f"no griess_lab package under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    workload = WORKLOADS[opts.workload]
    deadline = now() + RUN_BUDGET_S
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if opts.trace or workload.needs_warm_cache:
            ensure_warm_cache(deadline)
        common = ["--workload", opts.workload, "--seed", str(opts.seed),
                  "--warm-dir", WARM_DIR, "--work-dir", run_dir]
        t0, res = call_worker(common + ["--seconds", str(opts.seconds),
                                        "--trace", str(opts.trace)], deadline)
        setup = [res["ready_at"] - t0]
        if not opts.trace:
            for _ in range(workload.setup_samples - 1):
                t0, extra = call_worker(common + ["--setup-only"], deadline)
                setup.append(extra["ready_at"] - t0)
        if opts.trace:
            trace_dst = os.path.join(WORK_DIR, os.path.basename(res["trace_path"]))
            os.replace(res["trace_path"], trace_dst)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = res["samples"]
    timed = [s for s in samples if not s.get("rerun")]
    attempted = sum(s["items"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    notes = [n for s in samples for n in s["notes"]]
    source = src_digest()
    for suite in check_digests(source, opts.seed, res["digests"]):
        notes.append(f"{suite}: stdout bytes differ from an earlier run "
                     f"with seed {opts.seed}")
        failed += res["digests"][suite][1] * len(samples)
    # Each round of samples counts as one figure, so that every kind of
    # sample in the round weighs on wall_s (time per sample) and items_per_s.
    size = workload.round_size
    rounds = [timed[i:i + size] for i in range(0, len(timed) - size + 1, size)]
    round_s = [sum(s["seconds"] for s in r) for r in rounds]
    seconds = [t / size for t in round_s]
    values = dict(res.get("per_layer", {}))
    values.update({
        "wall_s": statistics.median(seconds),
        "items_per_s": statistics.median(
            sum(s["items"] - s["failed"] for s in r) / t
            for r, t in zip(rounds, round_s)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    })
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    meta = dict(metadata(source), **res["versions"])
    q1, q3 = quartiles(seconds)
    report = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "sample": [s["key"] for s in samples], "samples": samples,
        "wall_s": {"median": values["wall_s"], "q1": q1, "q3": q3,
                   "count": len(seconds)},
        "setup_s_samples": setup, "fail_ratio": failed / attempted,
        "metadata": meta, "metrics": metrics, "measured": values,
        "notes": notes,
    }
    result_path = os.path.join(
        WORK_DIR, f"result-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {opts.workload}  seed {opts.seed}  trace {opts.trace}  "
          f"({workload.sample_unit} per sample, {workload.item_unit} per item)")
    print("sample: " + " | ".join(report["sample"]))
    traced = " (traced)" if opts.trace else ""
    print(f"wall_s per sample{traced}: median {values['wall_s']:.4f} s, "
          f"q1 {q1:.4f} s, q3 {q3:.4f} s, n={len(seconds)}")
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for note in notes[:20]:
        print(f"FAILED: {note}")
    print("metadata: " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"result: {os.path.relpath(result_path, ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args(argv)
    try:
        return run(opts)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
