"""Self-tests for the benchmark.  Run: python3 -m pytest -q perfbench"""

import contextlib
import io
import itertools
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import micro  # noqa: E402
from tracing import (Span, Tracer, exp_pair_counts, install,  # noqa: E402
                     self_times, summarize)
from workloads import (COLD_SUITES, ag3_lines, line_sample,  # noqa: E402
                       load_package, root_sample)

SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


@pytest.fixture(scope="module")
def gl():
    return load_package(SRC_DIR)


# -- seeded inputs -------------------------------------------------------------------


def test_ag3_has_twelve_lines_with_four_through_each_point():
    lines = ag3_lines()
    assert len(lines) == 12
    for point in itertools.product(range(3), repeat=2):
        assert sum(point in line for line in lines) == 4
    for p, q, r in lines:
        assert all((p[k] + q[k] + r[k]) % 3 == 0 for k in range(2))


def test_line_sample_is_deterministic_per_seed():
    first = list(itertools.islice(line_sample(7), 12))
    assert first == list(itertools.islice(line_sample(7), 12))
    assert any(list(itertools.islice(line_sample(s), 12)) != first
               for s in (8, 9, 10))


def test_line_sample_rounds_keep_the_one_to_three_split():
    sample = list(itertools.islice(line_sample(3), 40))
    same = {line for line in ag3_lines() if len({j for _, j in line}) == 1}
    assert len(same) == 3
    assert [line in same for line in sample] == [True, False, False, False] * 10
    assert all(len(set(sample[k:k + 3])) == 3 for k in range(1, 40, 4))


def test_root_sample_is_a_deterministic_permutation():
    roots = [(i, -i) for i in range(72)]
    first = list(itertools.islice(root_sample(roots, 5), 72))
    assert sorted(first) == sorted(roots)
    assert first == list(itertools.islice(root_sample(roots, 5), 72))
    assert first != list(itertools.islice(root_sample(roots, 6), 72))


# -- spans ---------------------------------------------------------------------------


def _span(name, start, end, parent):
    s = Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("c", 6.0, 8.0, 2),
        _span("a", 9.0, 9.5, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 10 - 3 - 4 - 0.5, "a": 3.5,
                                 "b": 2.0, "c": 2.0})


def test_tracer_records_nesting_and_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    with tracer.span("outer"):
        assert inner(1) == 2
    outer, child = tracer.spans
    assert (outer.name, outer.parent, child.name, child.parent) == (
        "outer", None, "inner", 0)
    assert (outer.start, child.start, child.end, outer.end) == (0, 1, 2, 3)
    assert self_times(tracer.spans) == {"outer": 2, "inner": 1}


def test_summarize_reports_per_sample_figures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    shell = tracer.wrap("lattice.shell", lambda: None)
    for _ in range(2):
        with tracer.span("sample"):
            shell()
            shell()
    tracer.counters["lattice.cache_hits"] += 6
    got = summarize(tracer, 2)
    assert got["lattice.shell.calls"] == 2
    assert got["lattice.shell.self_s"] == 2
    assert got["lattice.cache_hits"] == 3
    assert got["trace.spans"] == 3


def test_traced_run_reports_every_per_layer_metric_once(gl):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    names = [n for groups in micro.PLAN.values() for _, ns in groups for n in ns]
    names += list(summarize(Tracer(), 1)) + ["trace.overhead_ratio"]
    for suite in COLD_SUITES:
        names += [f"cli.verify.{suite}.s", f"scenarios.{suite}.warm_s"]
        names += [f"scenarios.{c}.ms" for c in gl.scenarios.SUITES[suite]]
    assert len(names) == len(set(names))
    assert set(names) == wanted


# -- useful exponential pairs --------------------------------------------------------


def test_useful_pairs_on_parafermion_space(gl):
    space = gl.fock.parafermion_space(2)  # A5 in 6 coordinates
    beta = (1, -1, 0, 0, 0, 0)
    gammas = [(0, 1, -1, 0, 0, 0),   # <beta,gamma> = -1: d_max = 0, useful
              (0, 0, 1, -1, 0, 0),   # <beta,gamma> = 0:  d_max = -1
              (-1, 1, 0, 0, 0, 0),   # gamma = -beta:     d_max = 1, useful
              (0, 0, 0, 0, 1, -1)]   # orthogonal:        d_max = -1
    b = space.exp_state(gammas[0])
    for g in gammas[1:]:
        b = b + space.exp_state(g)
    beta2 = tuple(2 * x for x in beta)
    assert exp_pair_counts([beta2], 0, b) == (4, 2)
    # mode 1 lowers d_max by one: only gamma = -beta still lands
    assert exp_pair_counts([beta2], 1, b) == (4, 1)
    # oscillators raise d_max: beta(-1)e^gamma for the orthogonal gamma
    osc = space.oscillator_state([(beta, 1)], gamma=gammas[3])
    assert exp_pair_counts([beta2], 0, osc) == (1, 1)
    # the engine's output exponents are exactly beta + useful gamma
    out = space.exp_mode(beta, 0, b)
    landed = {tuple(x // 2 for x in g) for g in out.exponents()}
    assert landed == {(1, 0, -1, 0, 0, 0), (0, 0, 0, 0, 0, 0)}


# -- wrappers leave behaviour unchanged ----------------------------------------------


def _verify_cocycle(gl, cache_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gl.cli.main(["verify", "--suite", "cocycle", "--format", "json",
                            "--seed", "3", "--cache-dir", cache_dir])
    return code, buf.getvalue()


def test_install_keeps_report_bytes_and_restores_originals(gl, tmp_path):
    originals = (gl.cli.run_suite, gl.lattice.shell, gl.scenarios.shell,
                 gl.fock.FockSpace.__dict__["apply_mode"],
                 gl.lattice.Lattice.__dict__["coords"])
    plain = _verify_cocycle(gl, str(tmp_path / "plain"))
    tracer = Tracer()
    uninstall = install(tracer, gl)
    try:
        traced = _verify_cocycle(gl, str(tmp_path / "traced"))
    finally:
        uninstall()
    assert plain == traced and plain[0] == 0
    assert (gl.cli.run_suite, gl.lattice.shell, gl.scenarios.shell,
            gl.fock.FockSpace.__dict__["apply_mode"],
            gl.lattice.Lattice.__dict__["coords"]) == originals
    names = {s.name for s in tracer.spans}
    assert {"scenarios.run_suite.cocycle", "lattice.shell",
            "lattice.coords"} <= names
    assert tracer.counters["lattice.cache_misses"] > 0
    assert set(tracer.values) >= {"scenarios.cocycle.01.congruence-sample.ms",
                                   "scenarios.cocycle.warm_s"}
