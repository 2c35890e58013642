"""Command-line front end: suite verification, inspection, cache management.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error, 3 at least one check raised an error (the report
still lists every check).  Verification output is a pure function of the
resolved configuration and the package version: timings are populated
only under `verify --timing`, and randomized samples derive from the seed.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .fock import (
    FockSpace,
    build_axis_family,
    parafermion_omega,
    parafermion_space,
    sugawara_omega,
)
from .lattice import (
    DiskCache,
    Lattice,
    build_standard,
    coset_decomposition_A26,
    default_cache_dir,
    direct_sum,
    root_system_type,
    shell,
)
from .scenarios import DEFAULT_SEED, SUITE_NAMES, emit_report, run_suite

CONFIG_KEYS = ("cache-dir", "seed", "jobs", "suite", "format")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Config:
    """Resolved settings: flags override file values, which override the
    GRIESS_LAB_CACHE environment fallback and the built-in defaults."""

    cache_dir: str
    seed: int
    jobs: int
    suite: str
    format: str


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are ignored."""
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; "
                f"known keys: {', '.join(CONFIG_KEYS)}")
        values[key] = val
    return values


def _parse_int(value: str, label: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{label} must be an integer, got {value!r}") from exc


def resolve_config(args: argparse.Namespace) -> Config:
    file_values: Dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = parse_config_file(config_path)

    def pick(flag_value, key: str, fallback: str) -> str:
        if flag_value is not None:
            return str(flag_value)
        if key in file_values:
            return file_values[key]
        return fallback

    cache_dir = pick(getattr(args, "cache_dir", None), "cache-dir",
                     default_cache_dir())
    seed = _parse_int(pick(getattr(args, "seed", None), "seed",
                           str(DEFAULT_SEED)), "seed")
    jobs = _parse_int(pick(getattr(args, "jobs", None), "jobs", "1"), "jobs")
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    suite = pick(getattr(args, "suite", None), "suite", "all")
    if suite not in SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    format_ = pick(getattr(args, "format", None), "format", "text")
    if format_ not in ("json", "text"):
        raise ConfigError(f"unknown format {format_!r}; expected json or text")
    return Config(cache_dir=cache_dir, seed=seed, jobs=jobs, suite=suite,
                  format=format_)


# -- object resolution --------------------------------------------------------------


_FAMILY_NAMES = ("K", "M", "N", "Ntilde", "E", "E8^3")


def resolve_lattice(name: str, cache: DiskCache) -> Lattice:
    if name == "E8":
        return build_standard("E8")
    m = re.fullmatch(r"([AZ])(\d+)", name)
    if m:
        return build_standard(m.group(1), int(m.group(2)))
    if name in _FAMILY_NAMES:
        family = build_axis_family(cache=cache)
        if name == "E8^3":
            return family.L
        return getattr(family, name)
    raise ValueError(
        f"unknown lattice {name!r}; expected E8, A<n>, Z<n>, "
        f"or one of {', '.join(_FAMILY_NAMES)}")


def resolve_state_expr(expr: str, cache: DiskCache):
    """Named weight-capped states: axis:<i>,<j>; omega:<lattice>;
    sugawara; ising:<M|N|Ntilde>; parafermion:<level>."""
    if expr == "sugawara":
        family = build_axis_family(cache=cache)
        return family.space, sugawara_omega(family, cache)
    m = re.fullmatch(r"axis:(\d+),(\d+)", expr)
    if m:
        family = build_axis_family(cache=cache)
        return family.space, family.axis(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"ising:(M|N|Ntilde)", expr)
    if m:
        family = build_axis_family(cache=cache)
        index = ("M", "N", "Ntilde").index(m.group(1))
        return family.space, family.axes[0][index]
    m = re.fullmatch(r"omega:(\S+)", expr)
    if m:
        target = resolve_lattice(m.group(1), cache)
        if target.ambient_dim == 24:
            space = build_axis_family(cache=cache).space
        else:
            space = FockSpace(target)
        return space, space.virasoro_of_subspace(target)
    m = re.fullmatch(r"parafermion:(\d+)", expr)
    if m:
        level = int(m.group(1))
        space = parafermion_space(level)
        return space, parafermion_omega((1, -1, 0), level, space)
    raise ValueError(
        f"unknown state expression {expr!r}; expected axis:<i>,<j>, "
        "omega:<lattice>, sugawara, ising:<M|N|Ntilde>, or "
        "parafermion:<level>")


# -- subcommands --------------------------------------------------------------------


EXIT_CHECK_ERROR = 3


def cmd_verify(cfg: Config, timing: bool = False, progress: bool = False) -> int:
    def report_progress(k: int, n: int, r) -> None:
        sys.stderr.write(f"[{k}/{n}] {r.id} {r.status} ({r.elapsed_ms} ms)\n")
        sys.stderr.flush()

    report = run_suite(cfg.suite, seed=cfg.seed, jobs=cfg.jobs,
                       cache=DiskCache(cfg.cache_dir), timing=timing,
                       progress=report_progress if progress else None)
    sys.stdout.write(emit_report(report, cfg.format, timing=timing))
    if not report.ok:
        sys.stderr.write("failing checks: " + ", ".join(report.failures) + "\n")
    if report.errors:
        sys.stderr.write("checks that raised: " + ", ".join(report.errors) + "\n")
        return EXIT_CHECK_ERROR
    return 0 if report.ok else 1


def cmd_inspect(cfg: Config, words: Sequence[str]) -> int:
    cache = DiskCache(cfg.cache_dir)
    kind = words[0]
    if kind == "lattice" and len(words) == 2:
        lat = resolve_lattice(words[1], cache)
        sys.stdout.write(f"lattice {lat.label}: rank {lat.rank}, "
                         f"ambient {lat.ambient_dim}, det {lat.det}\n")
        return 0
    if kind == "shell" and len(words) == 3:
        lat = resolve_lattice(words[1], cache)
        norm = Fraction(words[2])
        count = len(shell(lat, norm, cache))
        sys.stdout.write(f"shell {lat.label} norm {norm}: {count} vectors\n")
        return 0
    if kind == "axis" and len(words) == 3:
        family = build_axis_family(cache=cache)
        state = family.axis(int(words[1]), int(words[2]))
        sys.stdout.write(family.space.dump_state(state))
        return 0
    if kind == "state-dump" and len(words) == 2:
        space, state = resolve_state_expr(words[1], cache)
        sys.stdout.write(space.dump_state(state))
        return 0
    raise ValueError(
        "expected one of: lattice <name> | shell <name> <norm> | "
        "axis <i> <j> | state-dump <expr>")


def cmd_cache(cfg: Config, action: str) -> int:
    cache = DiskCache(cfg.cache_dir)
    if action == "status":
        lines = cache.status()
        if not lines:
            sys.stdout.write("cache empty\n")
        for line in lines:
            sys.stdout.write(line + "\n")
        return 0
    if action == "clear":
        removed = cache.clear()
        sys.stdout.write(f"removed {removed} cached files\n")
        return 0
    if action == "build":
        family = build_axis_family(cache=cache)
        shell(family.K, 2, cache)
        root_system_type(family.K, cache)
        e8 = build_standard("E8")
        shell(direct_sum([e8] * 3, "E8^3"), 2, cache)
        coset_decomposition_A26(cache)
        for line in cache.status():
            sys.stdout.write(line + "\n")
        return 0
    raise ValueError("expected one of: build, clear, status")


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="griess-lab",
        description="Exact verification suites for the 3C-pure Griess "
                    "algebras and their lattice realization.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", help="shell/coset cache directory "
                        "(fallback: GRIESS_LAB_CACHE, then ~/.cache/griess-lab)")
    common.add_argument("--config", help="flat key = value settings file")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite",
        epilog="exit codes: 0 all checks passed, 1 a check failed, 2 usage "
               "or configuration error, 3 a check raised an error (every "
               "other check is still reported)")
    p_verify.add_argument("--suite", choices=SUITE_NAMES)
    p_verify.add_argument("--format", choices=("json", "text"))
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--jobs", type=int)
    p_verify.add_argument("--timing", action="store_true",
                          help="fill each check's elapsed_ms (the report "
                               "bytes then vary from run to run)")
    p_verify.add_argument("--progress", action="store_true",
                          help="print `[k/N] <check-id> <status> (<ms> ms)` "
                               "to stderr as each check finishes")

    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="print lattices, shells, or state dumps")
    p_inspect.add_argument("object", nargs="*",
                           help="lattice <name> | shell <name> <norm> | "
                                "axis <i> <j> | state-dump <expr>")

    p_cache = sub.add_parser("cache", parents=[common],
                             help="precompute, list, or clear cached shells")
    p_cache.add_argument("action", choices=("build", "clear", "status"))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"griess-lab: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg, timing=args.timing, progress=args.progress)
        if args.command == "inspect":
            if not args.object:
                raise ValueError("inspect needs an object")
            return cmd_inspect(cfg, args.object)
        if args.command == "cache":
            return cmd_cache(cfg, args.action)
    except ValueError as exc:
        print(f"griess-lab: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
