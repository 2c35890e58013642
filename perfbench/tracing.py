"""Spans and counters recorded around griess_lab's public calls.

Everything here wraps the package from outside: `install` replaces public
functions and methods with recording wrappers and returns a callable that
puts the originals back.  Nothing under `src/` knows about tracing.

A span is (name, start, end, parent, item).  Spans live in memory until
`Tracer.dump` writes them out at the end of a run.  A span's self time is
its duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children never overlap.

The scalar layer (`Eisenstein`) is not wrapped: it is called millions of
times per sample and a wrapper would dominate the trace.  It is measured
by micro-benchmark only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from math import floor
from typing import Callable, Dict, List, Optional

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "item")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 item: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of the spans whose parent it is."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - child[i]
    return dict(out)


def call_counts(spans: List[Span]) -> Dict[str, int]:
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)


class Tracer:
    """In-memory span recorder with named counters, and named values
    recorded once per sample.

    `item` identifies the sample (one line, one root, one suite round) that
    the open spans belong to; spans of one sample share it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.item: Optional[int] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.item))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = self.clock()

    def in_span(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.item] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": rows}, fh)


# -- exponential-pair usefulness ---------------------------------------------------


def exp_pair_counts(betas, n: int, b) -> tuple:
    """(pairs, useful) for exponential modes e^beta_n applied to state b.

    betas are doubled exponent vectors; b is a homogeneous FockState.  A
    pair (beta, gamma), gamma an exponent of b, is useful when some term
    can land: d_max = -n-1-<beta,gamma> + (wt(b) - |gamma|^2/2) >= 0, the
    bracket being the largest oscillator weight on e^gamma.  In doubled
    coordinates <beta,gamma> = beta2.gamma2/4 and |gamma|^2 = gamma2.gamma2/4,
    so the test is 2*beta2.gamma2 + gamma2.gamma2 <= 8*(wt(b)-n-1).
    """
    gammas = b.exponents()
    betas = [g for g in betas if any(g)]
    if not betas or not gammas:
        return 0, 0
    bound = floor(8 * (Fraction(b.weight()) - n - 1))
    B = np.array(betas, dtype=np.int64)
    G = np.array(gammas, dtype=np.int64)
    lhs = 2 * (B @ G.T) + np.einsum("ij,ij->i", G, G)[None, :]
    return int(lhs.size), int((lhs <= bound).sum())


# -- installing the wrappers -------------------------------------------------------


# `exp_mode` is left out: `apply_mode` and `griess_product` call the
# per-term kernel directly, so no workload reaches it through the public
# method.  Its cost is measured by the `fock.exp_mode_us` micro-benchmark.
FOCK_METHODS = ("griess_product", "invariant_form", "apply_mode",
                "heisenberg_mode", "exp_state")


def _rebind(modules, original, replacement) -> List[tuple]:
    """Point every module attribute bound to `original` at `replacement`."""
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def install(tracer: Tracer, gl) -> Callable[[], None]:
    """Wrap the public calls of every layer; return the undo callable.

    `gl` is a namespace holding the imported griess_lab modules
    (lattice, fock, axial, scenarios, cli).
    """
    modules = [gl.lattice, gl.fock, gl.axial, gl.scenarios, gl.cli]
    undo: List[tuple] = []

    for name in ("shell", "coset_decomposition_A26"):
        original = getattr(gl.lattice, name)
        undo += _rebind(modules, original,
                        tracer.wrap(f"lattice.{name}", original))

    def patch_method(cls, attr, replacement):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    patch_method(gl.lattice.Lattice, "coords",
                 tracer.wrap("lattice.coords", gl.lattice.Lattice.coords))
    for attr in ("load_shell", "load_cosets"):
        original = gl.lattice.DiskCache.__dict__[attr]

        def counted(self, *args, _orig=original):
            got = _orig(self, *args)
            key = "lattice.cache_misses" if got is None else "lattice.cache_hits"
            tracer.counters[key] += 1
            return got
        patch_method(gl.lattice.DiskCache, attr, counted)

    for attr in FOCK_METHODS:
        original = gl.fock.FockSpace.__dict__[attr]
        traced = tracer.wrap(f"fock.{attr}", original)

        def counted(self, *args, _attr=attr, _traced=traced):
            outer = not tracer.in_span("fock.")
            result = _traced(self, *args)
            if hasattr(result, "terms"):
                tracer.counters["fock.terms_out"] += len(result)
            # Count pairs once, at the outermost engine call.
            if outer and _attr in ("griess_product", "apply_mode"):
                if _attr == "apply_mode":
                    a, n, b = args
                else:
                    a, b = args
                    n = 1
                betas = a.exponents()
                if b:
                    pairs, useful = exp_pair_counts(betas, n, b)
                    tracer.counters["fock.exp_pairs"] += pairs
                    tracer.counters["fock.exp_pairs_useful"] += useful
            return result
        patch_method(gl.fock.FockSpace, attr, counted)

    original = gl.axial.algebra_from_griess
    undo += _rebind(modules, original,
                    tracer.wrap("axial.algebra_from_griess", original))

    original_run_suite = gl.cli.run_suite

    def timed_run_suite(name, **kwargs):
        # Ask the library for per-check timings, then zero them again so
        # the report bytes the CLI prints stay exactly as in untraced runs.
        with tracer.span(f"scenarios.run_suite.{name}") as span:
            report = original_run_suite(name, **dict(kwargs, timing=True))
        checks_s = 0.0
        for r in report.results:
            tracer.values[f"scenarios.{r.id}.ms"].append(r.elapsed_ms)
            checks_s += r.elapsed_ms / 1000
        # check timings are whole milliseconds, so clamp the rounding at 0
        tracer.values[f"scenarios.{name}.warm_s"].append(
            max(0.0, span.end - span.start - checks_s))
        return replace(report, results=tuple(
            replace(r, elapsed_ms=0) for r in report.results))
    undo.append((gl.cli, "run_suite", original_run_suite))
    gl.cli.run_suite = timed_run_suite

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def summarize(tracer: Tracer, samples: int) -> Dict[str, float]:
    """Per-layer metrics per traced sample: span counts, self times and
    counters are totals divided by `samples`; values recorded once per
    sample (suite and check timings) are medianed."""
    selfs = {k: v / samples for k, v in self_times(tracer.spans).items()}
    calls = {k: v / samples for k, v in call_counts(tracer.spans).items()}
    counters = {k: v / samples for k, v in tracer.counters.items()}
    out: Dict[str, float] = {}
    for name in ("lattice.shell", "lattice.coords"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    out["lattice.coset_decomposition_A26.self_s"] = selfs.get(
        "lattice.coset_decomposition_A26", 0.0)
    out["lattice.cache_hits"] = counters.get("lattice.cache_hits", 0)
    out["lattice.cache_misses"] = counters.get("lattice.cache_misses", 0)
    for attr in FOCK_METHODS:
        out[f"fock.{attr}.calls"] = calls.get(f"fock.{attr}", 0)
        out[f"fock.{attr}.self_s"] = selfs.get(f"fock.{attr}", 0.0)
    for key in ("fock.terms_out", "fock.exp_pairs", "fock.exp_pairs_useful"):
        out[key] = counters.get(key, 0)
    pairs = out["fock.exp_pairs"]
    out["fock.exp_pair_useful_ratio"] = (
        out["fock.exp_pairs_useful"] / pairs if pairs else 0.0)
    out["axial.algebra_from_griess.self_s"] = selfs.get(
        "axial.algebra_from_griess", 0.0)
    verify: Dict[str, List[float]] = defaultdict(list)
    for s in tracer.spans:
        if s.name.startswith("cli.verify."):
            verify[f"{s.name}.s"].append(s.end - s.start)
    for name, values in list(verify.items()) + list(tracer.values.items()):
        out[name] = statistics.median(values)
    out["trace.spans"] = len(tracer.spans) / samples
    return out
