"""Command-line front end: suite verification and inspection.

Every setting is a command-line flag with a built-in default; both
subcommands fill the shell/coset cache under --cache-dir as they go.  Exit
codes: 0 all checks pass, 1 at least one check failed, 2 usage error, 3 at
least one check raised an error (the report still lists every check).
Verification output is a pure function of the flags and the package
version: timings are populated only under `verify --timing`, and
randomized samples derive from the seed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

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
    shell,
)
from .scenarios import DEFAULT_SEED, SUITE_NAMES, emit_report, run_suite


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
    sugawara; parafermion:<level>.  The Ising vectors of M, N and
    Ntilde are axis:0,0, axis:0,1 and axis:0,2; indices run mod 3."""
    if expr == "sugawara":
        family = build_axis_family(cache=cache)
        return family.space, sugawara_omega(family, cache)
    m = re.fullmatch(r"axis:(\d+),(\d+)", expr)
    if m:
        family = build_axis_family(cache=cache)
        return family.space, family.axis(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"omega:(\S+)", expr)
    if m:
        target = resolve_lattice(m.group(1), cache)
        space = FockSpace(target)
        return space, space.virasoro_of_subspace(target)
    m = re.fullmatch(r"parafermion:(\d+)", expr)
    if m:
        level = int(m.group(1))
        space = parafermion_space(level)
        return space, parafermion_omega((1, -1, 0), level, space)
    raise ValueError(
        f"unknown state expression {expr!r}; expected axis:<i>,<j>, "
        "omega:<lattice>, sugawara, or parafermion:<level>")


# -- subcommands --------------------------------------------------------------------


EXIT_CHECK_ERROR = 3


def cmd_verify(args: argparse.Namespace) -> int:
    def report_progress(k: int, n: int, r) -> None:
        sys.stderr.write(f"[{k}/{n}] {r.id} {r.status} ({r.elapsed_ms} ms)\n")
        sys.stderr.flush()

    report = run_suite(args.suite, seed=args.seed, jobs=args.jobs,
                       cache=DiskCache(args.cache_dir), timing=args.timing,
                       progress=report_progress if args.progress else None)
    sys.stdout.write(emit_report(report, args.format, timing=args.timing))
    if not report.ok:
        sys.stderr.write("failing checks: "
                         + ", ".join(r.id for r in report.failures) + "\n")
    if report.errors:
        sys.stderr.write("checks that raised: "
                         + ", ".join(r.id for r in report.errors) + "\n")
        return EXIT_CHECK_ERROR
    return 0 if report.ok else 1


def cmd_inspect(args: argparse.Namespace) -> int:
    cache = DiskCache(args.cache_dir)
    words = args.object
    if not words:
        raise ValueError("inspect needs an object")
    kind = words[0]
    if kind == "lattice" and len(words) == 2:
        lat = resolve_lattice(words[1], cache)
        sys.stdout.write(f"lattice {lat.label}: rank {lat.rank}, "
                         f"ambient {lat.ambient_dim}, det {lat.det}\n")
        return 0
    if kind == "shell" and len(words) == 3:
        lat = resolve_lattice(words[1], cache)
        try:
            norm = Fraction(words[2])
        except ZeroDivisionError as exc:
            raise ValueError(f"shell norm {words[2]!r} has a zero denominator") from exc
        count = len(shell(lat, norm, cache))
        sys.stdout.write(f"shell {lat.label} norm {norm}: {count} vectors\n")
        return 0
    if kind == "state-dump" and len(words) == 2:
        space, state = resolve_state_expr(words[1], cache)
        sys.stdout.write(space.dump_state(state))
        return 0
    raise ValueError(
        "expected one of: lattice <name> | shell <name> <norm> | "
        "state-dump <expr>")


# -- argument parsing ---------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="griess-lab",
        description="Exact verification suites for the 3C-pure Griess "
                    "algebras and their lattice realization.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir", default=os.path.join(os.path.expanduser("~"), ".cache",
                                            "griess-lab"),
        help="shell/coset cache directory (default: %(default)s)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite",
        epilog="exit codes: 0 all checks passed, 1 a check failed, 2 usage "
               "error, 3 a check raised an error (every other check is "
               "still reported)")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p_verify.add_argument("--format", default="text", choices=("json", "text"))
    p_verify.add_argument("--seed", default=DEFAULT_SEED, type=int)
    p_verify.add_argument("--jobs", default=1, type=positive_int)
    p_verify.add_argument("--timing", action="store_true",
                          help="fill each check's elapsed_ms (the report "
                               "bytes then vary from run to run)")
    p_verify.add_argument("--progress", action="store_true",
                          help="print `[k/N] <check-id> <status> (<ms> ms)` "
                               "to stderr as each check finishes")

    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="print lattices, shells, or state dumps")
    p_inspect.set_defaults(run=cmd_inspect)
    p_inspect.add_argument("object", nargs="*",
                           help="lattice <name> | shell <name> <norm> | "
                                "state-dump <expr>")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"griess-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
