"""Tests for the verification suite registry, runner, and report formats."""

import json
from fractions import Fraction as Q

import pytest

from griess_lab.scenarios import (
    CHECKS,
    CheckDef,
    CheckResult,
    SUITE_NAMES,
    SUITES,
    VerificationReport,
    emit_report,
    render,
    report_dict,
    run_suite,
)


class TestRegistry:
    def test_suite_names(self):
        assert SUITE_NAMES == (
            "griess-abstract", "lattice-combinatorics", "cocycle",
            "fock-axes", "commutant", "real-form", "central-charges", "all")

    def test_all_is_the_union_of_the_others(self):
        named = [i for name in SUITE_NAMES if name != "all"
                 for i in SUITES[name]]
        assert sorted(named) == sorted(SUITES["all"])
        assert len(set(named)) == len(named)

    def test_every_check_is_registered(self):
        for name in SUITE_NAMES:
            for check_id in SUITES[name]:
                assert check_id in CHECKS
                assert CHECKS[check_id].quote
                assert CHECKS[check_id].provenance in (
                    "frozen-constant", "cross-check", "definition")


class TestRender:
    def test_scalars(self):
        assert render(True) == "true"
        assert render(False) == "false"
        assert render(7) == "7"
        assert render(Q(21, 22)) == "21/22"
        assert render("A8") == "A8"

    def test_containers(self):
        assert render((1, Q(1, 2), True)) == "(1, 1/2, true)"
        assert render({Q(1, 16), Q(2)}) == "{1/16, 2}"
        assert render({Q(2): 1, Q(0): 4}) == "{0: 4, 2: 1}"
        assert render(()) == "()"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render(object())


class TestLightSuites:
    def test_cocycle_suite(self, cache):
        report = run_suite("cocycle", cache=cache)
        assert report.ok
        assert [r.id for r in report.results] == sorted(SUITES["cocycle"])
        assert all(r.computed == r.expected for r in report.results)

    def test_abstract_suite(self, cache):
        report = run_suite("griess-abstract", cache=cache)
        assert report.ok
        assert len(report.results) == 10

    def test_lattice_suite(self, cache):
        report = run_suite("lattice-combinatorics", cache=cache)
        assert report.ok
        by_id = {r.id: r for r in report.results}
        assert by_id["lattice.01.root-count"].computed == "240"
        assert by_id["lattice.04.root-partition"].computed == "(72, 84, 84)"

    def test_central_charges_suite(self, cache):
        report = run_suite("central-charges", cache=cache)
        assert report.ok
        by_id = {r.id: r for r in report.results}
        assert by_id["charges.01.affine-ledger"].computed == \
            "(20, 4, 4, 248/11, 16/11)"

    def test_unknown_suite(self, cache):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nosuch", cache=cache)
        with pytest.raises(ValueError, match="jobs"):
            run_suite("cocycle", cache=cache, jobs=0)


class TestDeterminism:
    def test_identical_bytes_across_runs(self, cache):
        a = emit_report(run_suite("cocycle", cache=cache), "json")
        b = emit_report(run_suite("cocycle", cache=cache), "json")
        assert a == b

    def test_parallel_matches_serial(self, cache):
        serial = run_suite("cocycle", cache=cache)
        parallel = run_suite("cocycle", cache=cache, jobs=3)
        assert emit_report(serial, "json") == emit_report(parallel, "json")

    def test_seed_is_embedded(self, cache):
        report = run_suite("cocycle", cache=cache, seed=12345)
        assert report.seed == 12345
        assert report.ok

    def test_timing_is_opt_in(self, cache):
        plain = run_suite("central-charges", cache=cache)
        timed = run_suite("central-charges", cache=cache, timing=True)
        assert all(r.elapsed_ms == 0 for r in plain.results)
        assert any(r.elapsed_ms > 0 for r in timed.results)


class TestReportFormats:
    def test_json_schema(self, cache):
        report = run_suite("central-charges", cache=cache)
        doc = json.loads(emit_report(report, "json"))
        assert set(doc) == {"suite", "version", "seed", "results"}
        for row in doc["results"]:
            assert set(row) == {"id", "status", "computed", "expected",
                                "provenance", "quote", "elapsed_ms"}
            assert row["status"] == "pass"

    def test_text_format(self, cache):
        report = run_suite("central-charges", cache=cache)
        text = emit_report(report, "text")
        assert text.startswith("suite: central-charges\n")
        assert "[PASS] charges.01.affine-ledger" in text
        assert text.rstrip().endswith("2 checks, 0 failed")

    def test_unknown_format(self, cache):
        report = run_suite("central-charges", cache=cache)
        with pytest.raises(ValueError, match="unknown format"):
            emit_report(report, "yaml")

    def test_report_dict_round_trips_results(self):
        result = CheckResult(id="demo.01", status="fail", computed="1",
                             expected="2", provenance="frozen-constant",
                             quote="demo", elapsed_ms=0)
        report = VerificationReport(suite="demo", version="0.0",
                                    seed=1, results=(result,))
        assert not report.ok
        assert report.failures == (result,)
        doc = report_dict(report)
        assert doc["results"][0]["status"] == "fail"
        text = emit_report(report, "text")
        assert "[FAIL] demo.01  computed 1  expected 2" in text


@pytest.fixture
def failing_suite(monkeypatch):
    def bad(ctx):
        return Q(1, 2), Q(1, 3)

    def good(ctx):
        return 1, 1

    monkeypatch.setitem(CHECKS, "zz.01.bad",
                        CheckDef("zz.01.bad", "always fails",
                                 "frozen-constant", bad))
    monkeypatch.setitem(CHECKS, "zz.02.good",
                        CheckDef("zz.02.good", "always passes",
                                 "frozen-constant", good))
    monkeypatch.setitem(SUITES, "zz-demo", ("zz.02.good", "zz.01.bad"))
    return "zz-demo"


class TestFailurePath:
    def test_failed_check_is_reported(self, cache, failing_suite):
        report = run_suite(failing_suite, cache=cache)
        assert not report.ok
        assert [r.id for r in report.failures] == ["zz.01.bad"]
        assert [r.id for r in report.results] == ["zz.01.bad", "zz.02.good"]
        bad = report.results[0]
        assert (bad.status, bad.computed, bad.expected) == ("fail", "1/2", "1/3")
        text = emit_report(report, "text")
        assert "[FAIL] zz.01.bad" in text
        assert "expected 1/3" in text

    def test_failures_carry_the_results(self, cache, failing_suite):
        # a failure message can show what each failing check computed
        report = run_suite(failing_suite, cache=cache)
        assert [(r.id, r.computed) for r in report.failures] == [("zz.01.bad", "1/2")]
        assert report.errors == ()


@pytest.fixture
def raising_suite(monkeypatch):
    def arithmetic(ctx):
        raise ArithmeticError("no inverse")

    def value(ctx):
        raise ValueError("exponent is not a lattice vector")

    def bad(ctx):
        return Q(1, 2), Q(1, 3)

    def good(ctx):
        return 1, 1

    defs = [("zz.01.arith", arithmetic), ("zz.02.value", value),
            ("zz.03.bad", bad), ("zz.04.good", good)]
    for check_id, fn in defs:
        monkeypatch.setitem(CHECKS, check_id,
                            CheckDef(check_id, "demo", "frozen-constant", fn))
    monkeypatch.setitem(SUITES, "zz-raising", tuple(i for i, _ in reversed(defs)))
    return "zz-raising"


class TestFaultIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_checks_keep_the_report(self, cache, raising_suite, jobs):
        report = run_suite(raising_suite, cache=cache, jobs=jobs)
        assert [(r.id, r.status, r.computed, r.expected) for r in report.results] == [
            ("zz.01.arith", "error", "ArithmeticError: no inverse", ""),
            ("zz.02.value", "error",
             "ValueError: exponent is not a lattice vector", ""),
            ("zz.03.bad", "fail", "1/2", "1/3"),
            ("zz.04.good", "pass", "1", "1"),
        ]
        assert [r.id for r in report.failures] == [
            "zz.01.arith", "zz.02.value", "zz.03.bad"]
        assert [r.id for r in report.errors] == ["zz.01.arith", "zz.02.value"]
        text = emit_report(report, "text")
        assert "[ERROR] zz.01.arith  computed ArithmeticError: no inverse\n" in text
        assert "[FAIL] zz.03.bad  computed 1/2  expected 1/3\n" in text
        assert text.endswith("4 checks, 3 failed (2 with errors)\n")
        doc = json.loads(emit_report(report, "json"))
        assert [row["status"] for row in doc["results"]] == [
            "error", "error", "fail", "pass"]

    def test_serial_and_parallel_bytes_agree(self, cache, raising_suite):
        serial = emit_report(run_suite(raising_suite, cache=cache), "json")
        parallel = emit_report(run_suite(raising_suite, cache=cache, jobs=2), "json")
        assert serial == parallel

    def test_text_timing_column_is_opt_in(self, cache):
        report = run_suite("central-charges", cache=cache, timing=True)
        plain = emit_report(report, "text")
        timed = emit_report(report, "text", timing=True)
        assert " ms)" not in plain
        line = next(ln for ln in timed.splitlines() if ln.startswith("[PASS]"))
        assert line.endswith(f"({report.results[0].elapsed_ms} ms)")
