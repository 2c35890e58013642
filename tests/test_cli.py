"""Tests for the command-line front end: parsing, flag defaults,
subcommand behavior, exit codes, and the README's examples."""

import hashlib
import json
import os
import pathlib
import re
import shlex
from fractions import Fraction as Q

import pytest

from griess_lab import cli, scenarios
from griess_lab.cli import (
    build_parser,
    main,
    resolve_lattice,
    resolve_state_expr,
)
from griess_lab.scenarios import CheckDef


@pytest.fixture
def cache_dir(cache):
    return cache.directory


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self, monkeypatch):
        # flags are the only settings: the environment is not consulted
        monkeypatch.setenv("GRIESS_LAB_CACHE", "/from/env")
        args = build_parser().parse_args(["verify"])
        assert (args.suite, args.format, args.seed, args.jobs) == (
            "all", "text", scenarios.DEFAULT_SEED, 1)
        assert args.cache_dir == os.path.join(
            os.path.expanduser("~"), ".cache", "griess-lab")

    def test_invalid_values(self, capsys):
        for flag, value in (("--seed", "soon"), ("--jobs", "0"),
                            ("--jobs", "many"), ("--format", "yaml")):
            with pytest.raises(SystemExit) as exc:
                main(["verify", flag, value])
            assert exc.value.code == 2
            assert f"argument {flag}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, cache_dir, capsys):
        code, out, err = run_main(
            ["verify", "--suite", "cocycle", "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert "3 checks, 0 failed" in out
        assert err == ""

    def test_json_output(self, cache_dir, capsys):
        code, out, _ = run_main(
            ["verify", "--suite", "central-charges", "--format", "json",
             "--cache-dir", cache_dir], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "central-charges"
        assert all(r["status"] == "pass" for r in doc["results"])

    def test_output_is_reproducible(self, cache_dir, capsys):
        argv = ["verify", "--suite", "cocycle", "--format", "json",
                "--seed", "3", "--cache-dir", cache_dir]
        _, first, _ = run_main(argv, capsys)
        _, second, _ = run_main(argv, capsys)
        assert first == second

    # SHA-256 of `verify --format json --seed 7` stdout, recorded before the
    # shell cache stored integer vectors; any refactor must keep these bytes.
    GOLDEN = {
        "lattice-combinatorics":
            "2c4a1978abfa632e38ffaeb5021771f4508f882f788025930810028950308f2a",
        "cocycle":
            "847e99feac0a44da83946f338b39ad41b200e10a2b7d9e04c30501521811811f",
        "griess-abstract":
            "ee93cf3a19b3c6c3ee3a238d0a86b0414bdaf3b16de62e709ba7a588c054385f",
        "central-charges":
            "0cd76b7ba50c3d443f872d05855ac7ff540b034ec1442cad9323df2ecc6209cc",
    }

    def test_golden_report_digests(self, tmp_path, capsys):
        fresh = str(tmp_path / "cachedir")
        for _cache_state in ("cold", "warm"):
            digests = {}
            for suite in self.GOLDEN:
                code, out, _ = run_main(
                    ["verify", "--suite", suite, "--format", "json", "--seed", "7",
                     "--cache-dir", fresh], capsys)
                assert code == 0
                digests[suite] = hashlib.sha256(out.encode()).hexdigest()
            assert digests == self.GOLDEN, _cache_state

    def test_unknown_suite_flag_is_usage_error(self, capsys):
        # `cache` is no subcommand: verify and inspect fill the cache
        for argv in (["verify", "--suite", "nosuch"], ["cache", "status"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_bad_config_exits_two(self, capsys):
        # there is no settings file: --config is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", "griess-lab.conf"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_failing_suite_exits_one(self, cache_dir, monkeypatch, capsys):
        def bad(ctx):
            return 0, 1

        monkeypatch.setitem(scenarios.CHECKS, "zz.01.bad",
                            CheckDef("zz.01.bad", "always fails",
                                     "frozen-constant", bad))
        monkeypatch.setitem(scenarios.SUITES, "zz-demo", ("zz.01.bad",))
        monkeypatch.setattr(cli, "SUITE_NAMES",
                            cli.SUITE_NAMES + ("zz-demo",))
        code, out, err = run_main(
            ["verify", "--suite", "zz-demo", "--cache-dir", cache_dir], capsys)
        assert code == 1
        assert "[FAIL] zz.01.bad" in out
        assert "failing checks: zz.01.bad" in err


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raising_check_exits_three(self, cache_dir, monkeypatch, capsys,
                                       jobs):
        def boom(ctx):
            raise ArithmeticError("no inverse")

        def good(ctx):
            return 1, 1

        monkeypatch.setitem(scenarios.CHECKS, "zz.01.boom",
                            CheckDef("zz.01.boom", "raises",
                                     "frozen-constant", boom))
        monkeypatch.setitem(scenarios.CHECKS, "zz.02.good",
                            CheckDef("zz.02.good", "passes",
                                     "frozen-constant", good))
        monkeypatch.setitem(scenarios.SUITES, "zz-demo",
                            ("zz.01.boom", "zz.02.good"))
        monkeypatch.setattr(cli, "SUITE_NAMES",
                            cli.SUITE_NAMES + ("zz-demo",))
        code, out, err = run_main(
            ["verify", "--suite", "zz-demo", "--format", "json", "--jobs", jobs,
             "--cache-dir", cache_dir], capsys)
        assert code == 3
        results = json.loads(out)["results"]
        assert [(r["id"], r["status"], r["computed"]) for r in results] == [
            ("zz.01.boom", "error", "ArithmeticError: no inverse"),
            ("zz.02.good", "pass", "1")]
        assert "checks that raised: zz.01.boom" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raising_warm_attribute_exits_three(self, cache_dir, monkeypatch,
                                                capsys, jobs):
        # the checks that read the attribute are errors, the rest still run
        def broken(ctx):
            raise ArithmeticError("no 3C algebra")

        monkeypatch.setattr(scenarios.SuiteContext, "u3", property(broken))
        code, out, err = run_main(
            ["verify", "--suite", "griess-abstract", "--format", "json",
             "--jobs", jobs, "--cache-dir", cache_dir], capsys)
        assert code == 3
        status = {r["id"][:11]: (r["status"], r["computed"])
                  for r in json.loads(out)["results"]}
        raised = ("error", "ArithmeticError: no 3C algebra")
        assert sorted(i for i, got in status.items() if got == raised) == [
            "abstract.01", "abstract.02", "abstract.08", "abstract.10"]
        assert [got[0] for got in status.values()].count("pass") == 6

    def test_timing_flag(self, cache_dir, capsys):
        argv = ["verify", "--suite", "central-charges", "--format", "json",
                "--seed", "7", "--cache-dir", cache_dir]
        _, plain, _ = run_main(argv, capsys)
        _, again, _ = run_main(argv, capsys)
        code, timed, _ = run_main(argv + ["--timing"], capsys)
        assert plain == again
        assert all(r["elapsed_ms"] == 0 for r in json.loads(plain)["results"])
        assert code == 0
        assert any(r["elapsed_ms"] > 0 for r in json.loads(timed)["results"])
        text_code, text, _ = run_main(
            ["verify", "--suite", "cocycle", "--timing",
             "--cache-dir", cache_dir], capsys)
        assert text_code == 0
        assert all(ln.endswith(" ms)") for ln in text.splitlines()
                   if ln.startswith("[PASS]"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_flag(self, cache_dir, capsys, jobs):
        argv = ["verify", "--suite", "cocycle", "--format", "json",
                "--seed", "7", "--jobs", jobs, "--cache-dir", cache_dir]
        _, plain, quiet = run_main(argv, capsys)
        code, out, err = run_main(argv + ["--progress"], capsys)
        assert code == 0
        assert out == plain
        assert quiet == ""
        ids = scenarios.SUITES["cocycle"]
        lines = err.splitlines()
        assert len(lines) == len(ids)
        for k, (line, check_id) in enumerate(zip(lines, ids), 1):
            assert re.fullmatch(
                rf"\[{k}/{len(ids)}\] {re.escape(check_id)} pass \(\d+ ms\)", line)


class TestInspectCommand:
    def test_lattice(self, cache_dir, capsys):
        code, out, _ = run_main(
            ["inspect", "lattice", "E8", "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert out == "lattice E8: rank 8, ambient 8, det 1\n"

    def test_shell_count(self, cache_dir, capsys):
        code, out, _ = run_main(
            ["inspect", "shell", "E8", "2", "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert out == "shell E8 norm 2: 240 vectors\n"

    def test_axis_dump(self, cache_dir, capsys):
        code, out, _ = run_main(
            ["inspect", "state-dump", "axis:1,0", "--cache-dir", cache_dir],
            capsys)
        assert code == 0
        header = out.splitlines()[0].split()
        assert header[:2] == ["griess-lab-state", "v1"]
        assert int(header[2]) == 264
        assert len(out.splitlines()) == 265

    def test_state_dump_expression(self, cache_dir, capsys):
        code, out, _ = run_main(
            ["inspect", "state-dump", "parafermion:2",
             "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert out.startswith("griess-lab-state v1 12\n")

    def test_family_lattice_names(self, cache_dir, capsys):
        code, out, _ = run_main(
            ["inspect", "lattice", "K", "--cache-dir", cache_dir], capsys)
        assert code == 0
        assert "rank 8" in out and "det 9" in out

    def test_unknown_object_exits_two(self, cache_dir, capsys):
        for words in (["nonsense"], ["axis", "0", "0"]):
            code, _, err = run_main(
                ["inspect", *words, "--cache-dir", cache_dir], capsys)
            assert code == 2
            assert "expected one of" in err

    @pytest.mark.parametrize("norm", ["1/0", "abc", "-2"])
    def test_bad_shell_norm_exits_two(self, cache_dir, capsys, norm):
        code, out, err = run_main(
            ["inspect", "shell", "E8", norm, "--cache-dir", cache_dir], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("griess-lab: ") and len(err.splitlines()) == 1

    def test_unknown_lattice_exits_two(self, cache_dir, capsys):
        code, _, err = run_main(
            ["inspect", "lattice", "Leech", "--cache-dir", cache_dir], capsys)
        assert code == 2
        assert "unknown lattice" in err

    def test_unknown_expression_exits_two(self, cache_dir, capsys):
        for expr in ("axis:9", "ising:M"):
            code, _, err = run_main(
                ["inspect", "state-dump", expr, "--cache-dir", cache_dir],
                capsys)
            assert code == 2
            assert "unknown state expression" in err

    def test_no_object_exits_two(self, cache_dir, capsys):
        code, _, err = run_main(["inspect", "--cache-dir", cache_dir], capsys)
        assert code == 2
        assert "inspect needs an object" in err


class TestResolvers:
    def test_standard_lattices(self, cache):
        assert resolve_lattice("A2", cache).rank == 2
        assert resolve_lattice("Z3", cache).det == 1
        with pytest.raises(ValueError):
            resolve_lattice("B2", cache)

    def test_state_expressions(self, cache):
        space, state = resolve_state_expr("axis:0,0", cache)
        assert space.invariant_form(state, state).rational_part() == Q(1, 4)
        assert resolve_state_expr("axis:3,3", cache)[1] == state

    def test_omega_expression(self, cache):
        space, omega = resolve_state_expr("omega:E8", cache)
        assert space.invariant_form(omega, omega).rational_part() == Q(4)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples(cache_dir, capsys):
    """Every `griess-lab ...` line of the README's sh blocks parses, and
    each `inspect` line runs and exits 0 (the `verify` lines are only
    parsed: they take minutes)."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("griess-lab ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    inspect = [argv for argv in commands if argv[0] == "inspect"]
    assert len(inspect) >= 5
    for argv in inspect:
        code, _, err = run_main(argv + ["--cache-dir", cache_dir], capsys)
        assert (code, err) == (0, ""), argv
