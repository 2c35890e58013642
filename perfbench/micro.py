"""Medianed micro-benchmarks of griess_lab's layers.

Each function times public calls on fixed or seeded inputs and returns
medians over a few repetitions.  They run only in traced runs, after the
workload's own samples, on the benchmark's warm cache.  They do not
depend on the workload, so each group runs in the traced run of the one
workload whose end-to-end figures it explains (`PLAN`), and the other
traced runs report its metrics as 0.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Dict

CLOCK = time.perf_counter


def median_time(fn: Callable[[], object], reps: int, inner: int = 1) -> float:
    """Median over `reps` repetitions of the mean time of `inner` calls."""
    times = []
    for _ in range(reps):
        t0 = CLOCK()
        for _ in range(inner):
            fn()
        times.append((CLOCK() - t0) / inner)
    return statistics.median(times)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def scalar(ctx) -> Dict[str, float]:
    rng = random.Random(f"micro:{ctx.seed}")
    Eis = ctx.gl.numerics.Eisenstein
    x, y, z = (Eis(_random_fraction(rng), _random_fraction(rng))
               for _ in range(3))
    return {"numerics.eis_muladd_us": 1e6 * median_time(lambda: x * y + z, 5, 2000)}


def matrices(ctx) -> Dict[str, float]:
    rng = random.Random(f"micro:{ctx.seed}")
    gram = ctx.gl.axial.build_G9().gram
    rhs = tuple(_random_fraction(rng) for _ in range(9))
    return {
        "numerics.matrix_solve9_ms": 1e3 * median_time(lambda: gram.solve(rhs), 5, 3),
        "numerics.matrix_inverse9_ms": 1e3 * median_time(gram.inverse, 5, 3),
    }


def lattice_and_cocycle(ctx) -> Dict[str, float]:
    gl, seed = ctx.gl, ctx.seed
    lat = gl.lattice
    cache = lat.DiskCache(ctx.warm_dir)
    e8 = lat.build_standard("E8")
    triple = lat.direct_sum([e8] * 3, "E8^3")
    roots = [lat.block_embed(r, slot, 3)
             for slot in range(3) for r in lat.shell(e8, 2, cache).vectors]
    if len(roots) != 720:
        raise RuntimeError(f"E8^3 has {len(roots)} roots, expected 720")

    def coords_pass():
        for r in roots:
            triple.coords(r)
    coords_pass()  # builds the lattice's coordinate solver once
    table = gl.cocycle.build_epsilon0(triple)
    rng = random.Random(f"micro:{seed}")
    pairs = [([rng.randrange(-3, 4) for _ in range(24)],
              [rng.randrange(-3, 4) for _ in range(24)]) for _ in range(200)]

    def eps_pass():
        for cx, cy in pairs:
            table.epsilon_coords(cx, cy)
    return {
        "lattice.shell_enumerate_e8_8_s": median_time(
            lambda: lat.shell(e8, 8, None), 3),
        "lattice.coords_us": 1e6 * median_time(coords_pass, 5) / len(roots),
        "cocycle.build_epsilon0_ms": 1e3 * median_time(
            lambda: gl.cocycle.build_epsilon0(triple), 5),
        "cocycle.epsilon_coords_us": 1e6 * median_time(eps_pass, 5) / len(pairs),
    }


def warm_setup(ctx) -> Dict[str, float]:
    """The steps of the Fock workloads' set-up, on the warm cache."""
    lat = ctx.gl.lattice
    cache = lat.DiskCache(ctx.warm_dir)
    e8 = lat.build_standard("E8")
    a = ctx.family.a
    return {
        "lattice.shell_load_e8_8_ms": 1e3 * median_time(
            lambda: cache.load_shell("E8", Fraction(8)), 5),
        "lattice.find_a_warm_s": median_time(lambda: lat.find_a(e8, cache), 3),
        "fock.build_axis_family_warm_s": median_time(
            lambda: ctx.gl.fock.build_axis_family(a, cache), 3),
    }


def products(ctx) -> Dict[str, float]:
    sp = ctx.family.space
    e00, e01 = ctx.family.axis(0, 0), ctx.family.axis(0, 1)
    return {
        "fock.axis_product_diag_s": median_time(
            lambda: sp.griess_product(e00, e00), 3),
        "fock.axis_product_offdiag_s": median_time(
            lambda: sp.griess_product(e00, e01), 3),
        "fock.invariant_form_ms": 1e3 * median_time(
            lambda: sp.invariant_form(e00, e01), 5),
    }


def modes(ctx) -> Dict[str, float]:
    gl, family = ctx.gl, ctx.family
    sp = family.space
    e00 = family.axis(0, 0)
    roots = gl.lattice.shell(family.K, 2, gl.lattice.DiskCache(ctx.warm_dir)).vectors
    alpha = random.Random(f"micro:{ctx.seed}").choice(roots)
    beta = gl.lattice.block_embed(alpha, 0, 3)
    h = tuple(alpha) * 3
    current = sp.exp_state(beta)
    for slot in (1, 2):
        current = current + sp.exp_state(gl.lattice.block_embed(alpha, slot, 3))
    return {
        "fock.exp_mode_us": 1e6 * median_time(
            lambda: sp.exp_mode(beta, 1, e00), 5) / len(e00),
        "fock.heisenberg_mode_ms": 1e3 * median_time(
            lambda: sp.heisenberg_mode(h, 1, e00), 5),
        "fock.apply_mode_current_ms": 1e3 * median_time(
            lambda: sp.apply_mode(current, 1, e00), 5),
    }


def axial(ctx) -> Dict[str, float]:
    ax = ctx.gl.axial
    g9 = ax.build_G9()
    e = ax.axis_vector(g9, 0, 0)
    taus = [ax.miyamoto_tau(g9, ax.axis_vector(g9, i, j))
            for i, j in ((0, 0), (0, 1), (1, 0))]
    grp = ax.group_closure(taus)
    return {
        "axial.miyamoto_tau_ms": 1e3 * median_time(
            lambda: ax.miyamoto_tau(g9, e), 5),
        "axial.group_closure_ms": 1e3 * median_time(
            lambda: ax.group_closure(taus), 3),
        "axial.shape_certificate_ms": 1e3 * median_time(
            grp.shape_certificate, 3),
    }


def cli_import(ctx) -> Dict[str, float]:
    """Interpreter start plus `import griess_lab.cli`, in fresh processes."""
    code = f"import sys; sys.path.insert(0, {ctx.src_dir!r}); import griess_lab.cli"
    return {"cli.import_s": median_time(
        lambda: subprocess.run([sys.executable, "-c", code], check=True), 3)}


# Which workload's traced run measures each group, with the group's
# metric names, following the layer map in README.md.
PLAN = {
    "suites-cold": (
        (matrices, ("numerics.matrix_solve9_ms", "numerics.matrix_inverse9_ms")),
        (lattice_and_cocycle, ("lattice.shell_enumerate_e8_8_s",
                               "lattice.coords_us", "cocycle.build_epsilon0_ms",
                               "cocycle.epsilon_coords_us")),
        (axial, ("axial.miyamoto_tau_ms", "axial.group_closure_ms",
                 "axial.shape_certificate_ms")),
        (cli_import, ("cli.import_s",)),
    ),
    "line-algebras": (
        (scalar, ("numerics.eis_muladd_us",)),
        (warm_setup, ("lattice.shell_load_e8_8_ms", "lattice.find_a_warm_s",
                      "fock.build_axis_family_warm_s")),
        (products, ("fock.axis_product_diag_s", "fock.axis_product_offdiag_s",
                    "fock.invariant_form_ms")),
    ),
    "commutant-roots": (
        (modes, ("fock.exp_mode_us", "fock.heisenberg_mode_ms",
                 "fock.apply_mode_current_ms")),
    ),
}


def run_for(workload: str, gl, family, warm_dir: str, src_dir: str,
            seed: int) -> Dict[str, float]:
    """Run the groups that `PLAN` gives `workload`; report the metrics of
    every other group as 0."""
    ctx = SimpleNamespace(gl=gl, family=family, warm_dir=warm_dir,
                          src_dir=src_dir, seed=seed)
    out: Dict[str, float] = {}
    for owner, groups in PLAN.items():
        for fn, names in groups:
            if owner != workload:
                out.update(dict.fromkeys(names, 0.0))
                continue
            got = fn(ctx)
            if set(got) != set(names):
                raise RuntimeError(f"{fn.__name__} measured {sorted(got)}, "
                                   f"expected {sorted(names)}")
            out.update(got)
    return out
