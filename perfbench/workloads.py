"""The benchmark's three workloads: seeded inputs, one sample's work, and
the exact check of its outputs.

Each workload is a closed loop with one caller: a sample is issued only
after the previous one returned.  A sample is the unit that `wall_s`
times (one round of four cold suites, one line algebra, one root), and it
is made of items, the unit that `items_per_s` and the failure count use
(checks, table entries, mode checks).  Samples come in rounds of
`round_size`, and a run ends only on a round boundary, so every run
carries the whole mix of a round.  A traced run traces exactly
`trace_samples` samples, so its per-sample figures do not depend on the
run time.  An exception inside a sample fails the items it covers and the
loop goes on.

All calls go through the public API of `griess_lab`, looked up as module
attributes at call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterator, List, Sequence, Tuple

COLD_SUITES = ("lattice-combinatorics", "cocycle", "griess-abstract",
               "central-charges")

Point = Tuple[int, int]
Line = Tuple[Point, Point, Point]


@dataclass
class Outcome:
    items: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


# -- seeded inputs -----------------------------------------------------------------


def ag3_lines() -> List[Line]:
    """The 12 lines of the affine plane AG(2,3) on the axis labels (i, j):
    through distinct points p and q the third point is -(p+q) mod 3."""
    points = [(i, j) for i in range(3) for j in range(3)]
    lines = set()
    for p, q in itertools.combinations(points, 2):
        r = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
        lines.add(tuple(sorted((p, q, r))))
    return sorted(lines)


def line_sample(seed: int) -> Iterator[Line]:
    """Rounds of four seeded lines: one of the 3 lines whose axes all lie
    on one difference lattice (same j), then three distinct lines of the
    other 9, the 1:3 split of AG(2,3) itself.  Products of axes on a
    common lattice cost about 40% more, so every round carries the same
    mix of work whatever the seed."""
    rng = random.Random(f"line-algebras:{seed}")
    lines = ag3_lines()
    same = [line for line in lines if len({j for _, j in line}) == 1]
    mixed = [line for line in lines if line not in same]
    while True:
        yield rng.choice(same)
        yield from rng.sample(mixed, 3)


def root_sample(roots: Sequence, seed: int) -> Iterator[tuple]:
    """Seeded permutations of the 72 roots of K, one after another."""
    rng = random.Random(f"commutant-roots:{seed}")
    roots = list(roots)
    while True:
        order = roots[:]
        rng.shuffle(order)
        yield from order


def _noop_span(name):
    return contextlib.nullcontext()


# -- suites-cold -------------------------------------------------------------------


class SuitesCold:
    """`griess-lab verify` on four suites, each with a fresh empty cache:
    every layer except the triple-E8 Fock engine, from cold shells."""

    name = "suites-cold"
    sample_unit = "one round of four cold suites"
    item_unit = "check"
    round_size = 1
    trace_samples = 1
    setup_samples = 5
    needs_warm_cache = False

    def __init__(self, gl, seed: int, work_dir: str) -> None:
        self.gl = gl
        self.seed = seed
        self.work_dir = work_dir
        self.digests: Dict[str, str] = {}
        self.checks: Dict[str, int] = {}

    def setup(self, warm_dir: str) -> None:
        pass

    def keys(self) -> Iterator[int]:
        return itertools.count()

    def describe(self, key) -> str:
        return f"round {key}"

    def run(self, key: int, span=_noop_span) -> Outcome:
        out = Outcome()
        for suite in COLD_SUITES:
            checks = self.checks[suite] = len(self.gl.scenarios.SUITES[suite])
            out.items += checks
            cache_dir = os.path.join(self.work_dir, f"cold-{key}-{suite}")
            shutil.rmtree(cache_dir, ignore_errors=True)
            os.makedirs(cache_dir)
            stdout, stderr = io.StringIO(), io.StringIO()
            argv = ["verify", "--suite", suite, "--format", "json",
                    "--seed", str(self.seed), "--cache-dir", cache_dir]
            try:
                with span(f"cli.verify.{suite}"), \
                        contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = self.gl.cli.main(argv)
            except Exception as exc:  # one failed suite must not stop the run
                out.fail(checks, f"{suite}: {type(exc).__name__}: {exc}")
                continue
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            out.failed += self._check(suite, code, stdout.getvalue(),
                                      stderr.getvalue(), checks, out)
        return out

    def _check(self, suite: str, code: int, text: str, err: str,
               checks: int, out: Outcome) -> int:
        if code != 0:
            out.notes.append(f"{suite}: exit code {code}: {err.strip()}")
            return checks
        try:
            report = json.loads(text)
        except ValueError as exc:
            out.notes.append(f"{suite}: stdout is not JSON: {exc}")
            return checks
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digests.setdefault(suite, digest) != digest:
            out.notes.append(f"{suite}: stdout bytes differ between rounds")
            return checks
        results = report.get("results", [])
        bad = [r.get("id") for r in results if r.get("status") != "pass"]
        missing = checks - len(results)
        if bad or missing:
            out.notes.append(f"{suite}: failing {bad}, missing {missing}")
        return len(bad) + max(missing, 0)


# -- the two Fock workloads --------------------------------------------------------


class _FockWorkload:
    """Shared warm set-up: imports, `find_a` and `build_axis_family` on the
    benchmark's pre-filled cache."""

    round_size = 1
    setup_samples = 3
    needs_warm_cache = True

    def __init__(self, gl, seed: int, work_dir: str) -> None:
        self.gl = gl
        self.seed = seed
        self.cache = None
        self.family = None

    def setup(self, warm_dir: str) -> None:
        gl = self.gl
        cache = gl.lattice.DiskCache(warm_dir)
        e8 = gl.lattice.build_standard("E8")
        a = gl.lattice.find_a(e8, cache)
        self.family = gl.fock.build_axis_family(a, cache)
        self.cache = cache


class LineAlgebras(_FockWorkload):
    """`algebra_from_griess` on the three axes of a line of AG(2,3): the
    product, form, solve and recombine path of the table cross-validation.
    Every line spans a copy of the three-axis algebra `build_3C()`."""

    name = "line-algebras"
    sample_unit = "one line algebra"
    item_unit = "table entry"
    round_size = 4
    trace_samples = 4
    entries = [(i, j) for i in range(3) for j in range(i + 1)]

    def setup(self, warm_dir: str) -> None:
        super().setup(warm_dir)
        self.expected = self.gl.axial.build_3C()

    def keys(self) -> Iterator[Line]:
        return line_sample(self.seed)

    def describe(self, key) -> str:
        return " ".join(f"{i}{j}" for i, j in key)

    def run(self, key: Line, span=_noop_span) -> Outcome:
        out = Outcome(items=len(self.entries))
        fam = self.family
        states = [fam.axis(i, j) for i, j in key]
        try:
            got = self.gl.axial.algebra_from_griess(
                fam.space, states, ["e0", "e1", "e2"])
        except Exception as exc:
            out.fail(out.items, f"line {self.describe(key)}: "
                                f"{type(exc).__name__}: {exc}")
            return out
        want = self.expected
        for i, j in self.entries:
            if (got.table[i][j] != want.table[i][j]
                    or got.gram.rows[i][j] != want.gram.rows[i][j]):
                out.fail(1, f"line {self.describe(key)}: entry ({i},{j}) "
                            "differs from build_3C")
        return out


class CommutantRoots(_FockWorkload):
    """Modes 0 and 1 of one A8 current and its Cartan partner on all nine
    axes: the generic per-term exponential-mode loop of the commutant
    check, where most exponent pairs cannot contribute."""

    name = "commutant-roots"
    sample_unit = "one root of K"
    item_unit = "mode check"
    trace_samples = 24

    def setup(self, warm_dir: str) -> None:
        super().setup(warm_dir)
        self.roots = self.gl.lattice.shell(self.family.K, 2, self.cache).vectors
        if len(self.roots) != 72:
            raise RuntimeError(f"K has {len(self.roots)} roots, expected 72")

    def keys(self) -> Iterator[tuple]:
        return root_sample(self.roots, self.seed)

    def describe(self, key) -> str:
        return "(" + ",".join(str(x) for x in key) + ")"

    def run(self, key, span=_noop_span) -> Outcome:
        fam = self.family
        space = fam.space
        axes = [((i, j), fam.axis(i, j)) for i in range(3) for j in range(3)]
        out = Outcome(items=4 * len(axes))
        root = self.describe(key)
        try:
            h = tuple(key) * 3
            current = space.exp_state(self.gl.lattice.block_embed(key, 0, 3))
            for slot in (1, 2):
                current = current + space.exp_state(
                    self.gl.lattice.block_embed(key, slot, 3))
        except Exception as exc:
            out.fail(out.items, f"root {root}: {type(exc).__name__}: {exc}")
            return out
        for label, axis in axes:
            for n in (0, 1):
                for kind, apply in (
                        ("H", lambda: space.heisenberg_mode(h, n, axis)),
                        ("E", lambda: space.apply_mode(current, n, axis))):
                    try:
                        zero = apply().is_zero()
                    except Exception as exc:
                        out.fail(1, f"{kind}{root}_{n} on axis {label}: "
                                    f"{type(exc).__name__}: {exc}")
                        continue
                    if not zero:
                        out.fail(1, f"{kind}{root}_{n} on axis {label} is not zero")
        return out


WORKLOADS = {w.name: w for w in (SuitesCold, LineAlgebras, CommutantRoots)}


def load_package(src_dir: str):
    """Import griess_lab from `src_dir` and check it is that copy."""
    sys.path.insert(0, src_dir)
    names = ("numerics", "lattice", "cocycle", "fock", "axial", "scenarios", "cli")
    mods = {n: importlib.import_module(f"griess_lab.{n}") for n in names}
    origin = os.path.dirname(os.path.realpath(mods["cli"].__file__))
    if origin != os.path.realpath(os.path.join(src_dir, "griess_lab")):
        raise ImportError(f"griess_lab was imported from {origin}, not {src_dir}")
    return SimpleNamespace(**mods)

