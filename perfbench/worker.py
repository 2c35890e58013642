"""One benchmark process, started by run.py in a fresh interpreter.

    worker.py --prefill DIR                       fill a warm cache and exit
    worker.py --workload W --setup-only ...       set up, report, exit
    worker.py --workload W --seed N --seconds S --trace 0|1 ...

The last line of stdout is one JSON object.  `ready_at` is the
CLOCK_MONOTONIC reading when set-up finished; run.py subtracts the reading
it took just before starting this process, so set-up time runs from
interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

from workloads import COLD_SUITES, WORKLOADS, load_package

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def prefill(gl, directory: str) -> None:
    """Everything the warm set-up and the micro-benchmarks read."""
    cache = gl.lattice.DiskCache(directory)
    e8 = gl.lattice.build_standard("E8")
    family = gl.fock.build_axis_family(gl.lattice.find_a(e8, cache), cache)
    gl.lattice.shell(family.K, 2, cache)


def timed_body(wl, seconds: float, run=None, after=None, count=None):
    """Run samples until `seconds` have passed at the end of a round, or
    until `count` samples are done when it is given; return the
    per-sample records.  `after` is called untimed after each sample."""
    run = run or (lambda index, key: wl.run(key))
    records = []
    start = now()
    for index, key in enumerate(wl.keys()):
        t0 = now()
        outcome = run(index, key)
        records.append({"index": index, "key": wl.describe(key),
                        "seconds": now() - t0, "items": outcome.items,
                        "failed": outcome.failed, "notes": outcome.notes[:5],
                        "_key": key})
        if after:
            after(records[-1])
        if count is not None:
            if len(records) == count:
                break
        elif len(records) % wl.round_size == 0 and now() - start >= seconds:
            break
    return records


def untimed_rerun(wl, rec):
    """Run a recorded sample again, without spans, as a re-run record."""
    t0 = now()
    again = wl.run(rec["_key"])
    return {"index": rec["index"], "key": rec["key"], "rerun": True,
            "seconds": now() - t0, "traced_seconds": rec["seconds"],
            "items": again.items, "failed": again.failed,
            "notes": again.notes[:5]}


def traced_body(gl, wl, args):
    import micro
    from tracing import Tracer, install, summarize

    tracer = Tracer(clock=now)

    def traced_run(index, key):
        tracer.item = index
        uninstall = install(tracer, gl)
        try:
            with tracer.span("sample"):
                return wl.run(key, span=tracer.span)
        finally:
            uninstall()
            tracer.item = None

    # Right after each traced sample, run it again untraced while the
    # re-runs fit in half the run time, so both halves of a pair see the
    # same machine state.  The first sample is paired only when it is the
    # only one, because it also fills the engine's memos.
    rerun = []

    def pair(rec):
        if rec["index"] >= 1 and sum(r["seconds"] for r in rerun) < args.seconds / 2:
            rerun.append(untimed_rerun(wl, rec))

    # A fixed number of traced samples, so that the per-sample figures
    # depend on the program and not on how many samples fit in the time.
    records = timed_body(wl, args.seconds, traced_run, pair,
                         count=wl.trace_samples)
    if not rerun:
        rerun.append(untimed_rerun(wl, records[0]))
    metrics = {"trace.overhead_ratio": (sum(r["traced_seconds"] for r in rerun)
                                        / sum(r["seconds"] for r in rerun))}
    # Suite-level layers report 0 on workloads that do not run the suites.
    for suite in COLD_SUITES:
        metrics[f"cli.verify.{suite}.s"] = 0.0
        metrics[f"scenarios.{suite}.warm_s"] = 0.0
        for check_id in gl.scenarios.SUITES[suite]:
            metrics[f"scenarios.{check_id}.ms"] = 0.0
    metrics.update(summarize(tracer, len(records)))
    metrics.update(micro.run_for(args.workload, gl, getattr(wl, "family", None),
                                 args.warm_dir, SRC_DIR, args.seed))
    trace_path = os.path.join(
        args.work_dir, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(trace_path)
    return records + rerun, metrics, trace_path


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--prefill")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--warm-dir")
    p.add_argument("--work-dir")
    args = p.parse_args(argv)

    gl = load_package(SRC_DIR)
    if args.prefill:
        prefill(gl, args.prefill)
        print(json.dumps({"prefilled": args.prefill}))
        return 0

    wl = WORKLOADS[args.workload](gl, args.seed, args.work_dir)
    wl.setup(args.warm_dir)
    result = {"ready_at": now()}
    if not args.setup_only:
        if args.trace:
            records, metrics, trace_path = traced_body(gl, wl, args)
            result["per_layer"] = metrics
            result["trace_path"] = trace_path
        else:
            records = timed_body(wl, args.seconds)
        for rec in records:
            rec.pop("_key", None)
        result["samples"] = records
        result["digests"] = {suite: [digest, wl.checks[suite]]
                             for suite, digest in getattr(wl, "digests", {}).items()}
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {"python": platform.python_version(),
                              "numpy": sys.modules["numpy"].__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
