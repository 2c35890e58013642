"""Tests for the command-line front end: parsing, config resolution,
subcommand behavior, and exit codes."""

import hashlib
import json
import re
from fractions import Fraction as Q

import pytest

from griess_lab import cli, scenarios
from griess_lab.cli import (
    Config,
    ConfigError,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
    resolve_lattice,
    resolve_state_expr,
)
from griess_lab.lattice import DiskCache, build_standard, shell
from griess_lab.scenarios import CheckDef


@pytest.fixture
def cache_dir(cache):
    return cache.directory


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_file_parsing(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\n\nsuite = cocycle\nseed= 9\n"
                        "format =json\n")
        assert parse_config_file(str(path)) == {
            "suite": "cocycle", "seed": "9", "format": "json"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("tolerance = 1e-9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file("/nonexistent/config")

    def test_precedence_flag_over_file_over_env(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        path.write_text("cache-dir = /from/file\nseed = 5\n")
        monkeypatch.setenv("GRIESS_LAB_CACHE", "/from/env")
        parser = build_parser()

        args = parser.parse_args(["verify", "--config", str(path),
                                  "--cache-dir", "/from/flag"])
        assert resolve_config(args).cache_dir == "/from/flag"

        args = parser.parse_args(["verify", "--config", str(path)])
        cfg = resolve_config(args)
        assert cfg.cache_dir == "/from/file"
        assert cfg.seed == 5

        args = parser.parse_args(["verify"])
        assert resolve_config(args).cache_dir == "/from/env"

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("GRIESS_LAB_CACHE", raising=False)
        args = build_parser().parse_args(["verify"])
        cfg = resolve_config(args)
        assert cfg == Config(cache_dir=cfg.cache_dir, seed=scenarios.DEFAULT_SEED,
                             jobs=1, suite="all", format="text")
        assert cfg.cache_dir.endswith("griess-lab")

    def test_invalid_values(self, tmp_path):
        parser = build_parser()
        for content, message in (
                ("seed = soon\n", "integer"),
                ("jobs = 0\n", "jobs"),
                ("suite = nosuch\n", "unknown suite"),
                ("format = yaml\n", "unknown format"),
        ):
            path = tmp_path / "cfg"
            path.write_text(content)
            args = parser.parse_args(["verify", "--config", str(path)])
            with pytest.raises(ConfigError, match=message):
                resolve_config(args)


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

    def test_config_file_drives_verify(self, cache_dir, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text(f"suite = central-charges\nformat = json\n"
                        f"cache-dir = {cache_dir}\nseed = 11\n")
        code, out, _ = run_main(["verify", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 11

    def test_flag_overrides_config(self, cache_dir, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text(f"suite = central-charges\nformat = json\n"
                        f"cache-dir = {cache_dir}\nseed = 11\n")
        code, out, _ = run_main(
            ["verify", "--config", str(path), "--seed", "12"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 12

    def test_unknown_suite_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nosuch"])
        assert exc.value.code == 2

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("seed = soon\n")
        code, _, err = run_main(["verify", "--config", str(path)], capsys)
        assert code == 2
        assert "integer" in err

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
            ["inspect", "axis", "1", "0", "--cache-dir", cache_dir], capsys)
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
        code, _, err = run_main(
            ["inspect", "nonsense", "--cache-dir", cache_dir], capsys)
        assert code == 2
        assert "expected one of" in err

    def test_unknown_lattice_exits_two(self, cache_dir, capsys):
        code, _, err = run_main(
            ["inspect", "lattice", "Leech", "--cache-dir", cache_dir], capsys)
        assert code == 2
        assert "unknown lattice" in err

    def test_unknown_expression_exits_two(self, cache_dir, capsys):
        code, _, err = run_main(
            ["inspect", "state-dump", "axis:9", "--cache-dir", cache_dir],
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
        space, state = resolve_state_expr("ising:M", cache)
        assert space.invariant_form(state, state).rational_part() == Q(1, 4)
        space2, axis = resolve_state_expr("axis:0,0", cache)
        assert axis == state

    def test_omega_expression(self, cache):
        space, omega = resolve_state_expr("omega:E8", cache)
        assert space.invariant_form(omega, omega).rational_part() == Q(4)


class TestCacheCommand:
    def test_status_and_clear(self, tmp_path, capsys):
        fresh = str(tmp_path / "cachedir")
        code, out, _ = run_main(["cache", "status", "--cache-dir", fresh],
                                capsys)
        assert code == 0
        assert out == "cache empty\n"

        shell(build_standard("A", 2), 2, DiskCache(fresh))
        code, out, _ = run_main(["cache", "status", "--cache-dir", fresh],
                                capsys)
        assert code == 0
        assert "A2" in out

        code, out, _ = run_main(["cache", "clear", "--cache-dir", fresh],
                                capsys)
        assert code == 0
        assert "removed 1 cached files" in out

        code, out, _ = run_main(["cache", "status", "--cache-dir", fresh],
                                capsys)
        assert out == "cache empty\n"

    def test_status_names_damaged_files(self, tmp_path, capsys):
        fresh = tmp_path / "cachedir"
        shell(build_standard("A", 2), 2, DiskCache(str(fresh)))
        (fresh / "empty__2_1.v2.shell").write_text("")
        (fresh / "other.cosets").write_text("not a header\n1 2 3\n")
        code, out, _ = run_main(["cache", "status", "--cache-dir", str(fresh)],
                                capsys)
        assert code == 0
        assert out.splitlines() == ["A2:2 (6 vectors)",
                                    "empty__2_1.v2.shell: damaged",
                                    "other.cosets: damaged"]

    def test_build_warms_suite_shells(self, cache_dir, capsys):
        code, out, _ = run_main(["cache", "build", "--cache-dir", cache_dir],
                                capsys)
        assert code == 0
        listed = out.splitlines()
        for needle in ("E8", "K", "M", "N", "Ntilde", "E8^3"):
            assert any(line.startswith(needle + ":") for line in listed), needle
        assert any("cosets" in line for line in listed)

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "destroy"])
        assert exc.value.code == 2
