"""Named verification suites producing machine-readable pass/fail reports.

Every check computes an exact value (rationals or Eisenstein integers) and
compares it with a frozen expected value; a check passes only on literal
equality, there is no tolerance anywhere.  Reports are deterministic
functions of (package version, seed): check timings are zeroed unless
explicitly requested so repeated runs emit identical bytes.  A check that
raises is reported with status "error" and the exception's type and
message; the other checks still run and keep their results.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import random
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .axial import (
    AG3_LINES,
    adjoint_spectrum,
    affine_central_charge,
    axis_vector,
    build_3C,
    build_G9,
    certify_virasoro,
    check_a_products,
    griess_table_entries,
    group_closure,
    highest_weight_check,
    lie_algebra,
    line_sum_idempotent,
    miyamoto_sigma,
    miyamoto_tau,
    parafermion_central_charge,
    standard_frame,
)
from .cocycle import build_epsilon0, verify_triviality
from .fock import (
    build_axis_family,
    check_commutant_annihilation,
    parafermion_omega,
    parafermion_space,
    real_form_components,
    sugawara_expressions,
)
from .lattice import (
    DiskCache,
    Lattice,
    build_standard,
    coset_decomposition_A26,
    difference_lattice,
    direct_sum,
    find_a,
    index_in,
    root_system_type,
    shell,
    sublattice_K,
)
from .numerics import SQRT_MINUS_3, Matrix, Q, _common_scale, bareiss, dot

DEFAULT_SEED = 104729

PROV_FROZEN = "frozen-constant"
PROV_CROSS = "cross-check"
PROV_DEFINITION = "definition"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: exact computed and expected renderings."""

    id: str
    status: str
    computed: str
    expected: str
    provenance: str
    quote: str
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    version: str
    seed: int
    results: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def errors(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "error")


def render(value) -> str:
    """Canonical exact rendering used on both sides of every comparison."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(render(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(render(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: render(kv[0]))
        return "{" + ", ".join(f"{render(k)}: {render(v)}" for k, v in items) + "}"
    raise TypeError(f"no canonical rendering for {type(value).__name__}")


class SuiteContext:
    """Lazily built shared objects (lattices, Fock family, reports).

    Heavy attributes are cached properties, so one suite run builds each
    at most once; run_suite touches the attributes a check declares before
    forking workers, so parallel runs share them by inheritance.
    """

    def __init__(self, cache: DiskCache, seed: int) -> None:
        self.cache = cache
        self.seed = seed

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    @cached_property
    def e8(self) -> Lattice:
        return build_standard("E8")

    @cached_property
    def a_vec(self):
        return find_a(self.e8, self.cache)

    @cached_property
    def u3(self):
        return build_3C()

    @cached_property
    def g9(self):
        return build_G9()

    @cached_property
    def triple_lattice(self) -> Lattice:
        return direct_sum([self.e8] * 3, "E8^3")

    @cached_property
    def cocycle_table(self):
        return build_epsilon0(self.triple_lattice)

    @cached_property
    def family(self):
        return build_axis_family(self.a_vec, cache=self.cache)

    @cached_property
    def flat_axes(self) -> List:
        return [self.family.axis(i, j) for i in range(3) for j in range(3)]

    @cached_property
    def sugawara(self):
        return sugawara_expressions(self.family, self.cache)

    @cached_property
    def real_form(self):
        return real_form_components(self.family)

    @cached_property
    def axis_gram(self) -> Matrix:
        sp = self.family.space
        axes = self.flat_axes
        return Matrix([[sp.invariant_form(a, b).rational_part()
                        for b in axes] for a in axes])

    @cached_property
    def axis_table_mismatches(self) -> Tuple[List, List]:
        """Entry-by-entry comparison of the realized axis algebra with the
        structure-constant tables: (table mismatches, gram mismatches)."""
        sp = self.family.space
        axes = self.flat_axes
        g9 = self.g9
        gram = self.axis_gram
        gram_mm = [(i, j, render(gram.rows[i][j]), render(g9.gram.rows[i][j]))
                   for i in range(9) for j in range(9)
                   if gram.rows[i][j] != g9.gram.rows[i][j]]
        table_mm = []
        for i, j, coeffs in griess_table_entries(sp, axes):
            if coeffs is None:
                table_mm.append((i, j, "outside the axis span",
                                 render(g9.table[i][j])))
            elif coeffs != g9.table[i][j]:
                table_mm.append((i, j, render(coeffs), render(g9.table[i][j])))
        return table_mm, gram_mm


@dataclass(frozen=True)
class CheckDef:
    id: str
    quote: str
    provenance: str
    fn: Callable[[SuiteContext], Tuple[object, object]]
    warm: Tuple[str, ...] = ()


CHECKS: Dict[str, CheckDef] = {}


def _check(id: str, quote: str, provenance: str, warm: Tuple[str, ...] = ()):
    def deco(fn):
        CHECKS[id] = CheckDef(id, quote, provenance, fn, warm)
        return fn
    return deco


# -- abstract structure-constant checks -------------------------------------------


@_check("abstract.01.three-axes-omega",
        "the rescaled sum of the three axes is a Virasoro vector of "
        "central charge 16/11", PROV_FROZEN, warm=("u3",))
def _three_axes_omega(ctx):
    omega = tuple(Q(32, 33) for _ in range(3))
    return certify_virasoro(ctx.u3, omega), Q(16, 11)


@_check("abstract.02.three-axes-complement",
        "removing one axis from the conformal vector leaves an orthogonal "
        "Virasoro vector of charge 21/22 and norm 21/44", PROV_FROZEN, warm=("u3",))
def _three_axes_complement(ctx):
    u3 = ctx.u3
    omega = tuple(Q(32, 33) for _ in range(3))
    a = tuple(x - y for x, y in zip(omega, u3.unit(0)))
    charge = certify_virasoro(u3, a)
    orthogonal = not any(u3.multiply(u3.unit(0), a))
    return (charge, u3.form(a, a), orthogonal), (Q(21, 22), Q(21, 44), True)


@_check("abstract.03.nine-axes-gram",
        "the Gram matrix of the nine axes is nonsingular with the frozen "
        "determinant", PROV_FROZEN, warm=("g9",))
def _nine_axes_gram(ctx):
    g9 = ctx.g9
    return ((g9.gram.det(), g9.gram.rank()),
            (Q(9, 32) * Q(63, 256) ** 8, 9))


@_check("abstract.04.nine-axes-omega",
        "the rescaled sum of the nine axes has central charge 4 and its "
        "half acts as the identity", PROV_FROZEN, warm=("g9",))
def _nine_axes_omega(ctx):
    g9 = ctx.g9
    omega = tuple(Q(8, 9) for _ in range(9))
    half = tuple(x / 2 for x in omega)
    identity = all(g9.multiply(half, g9.unit(i)) == g9.unit(i)
                   for i in range(9))
    return (certify_virasoro(g9, omega), identity), (Q(4), True)


@_check("abstract.05.line-idempotents",
        "the four line idempotents have charge 21/22 and satisfy all six "
        "exchange relations", PROV_FROZEN, warm=("g9",))
def _line_idempotents(ctx):
    g9 = ctx.g9
    relations = sum(check_a_products(g9).values())
    charges = {certify_virasoro(g9, line_sum_idempotent(g9, line))
               for line in AG3_LINES}
    return (relations, charges), (6, {Q(21, 22)})


@_check("abstract.06.frame-decomposition",
        "axis, line complement and plane complement are orthogonal Virasoro "
        "vectors of charges 1/2, 21/22, 28/11 summing to the conformal "
        "vector", PROV_FROZEN, warm=("g9",))
def _frame_decomposition(ctx):
    g9 = ctx.g9
    frame = standard_frame(g9)
    charges = tuple(certify_virasoro(g9, v) for v in frame)
    orthogonal = all(not any(g9.multiply(x, y))
                     for x, y in ((frame[0], frame[1]), (frame[0], frame[2]),
                                  (frame[1], frame[2])))
    omega = tuple(Q(8, 9) for _ in range(9))
    total = tuple(sum(col) for col in zip(*frame))
    return ((charges, sum(charges), orthogonal, total == omega),
            ((Q(1, 2), Q(21, 22), Q(28, 11)), Q(4), True, True))


@_check("abstract.07.highest-weight-triples",
        "the four distinguished vectors carry the documented eigenvalue "
        "triples under the frame", PROV_FROZEN, warm=("g9",))
def _highest_weight_triples(ctx):
    g9 = ctx.g9
    frame = standard_frame(g9)
    a = [line_sum_idempotent(g9, line) for line in AG3_LINES]
    row = [[axis_vector(g9, i, j) for j in range(3)] for i in range(3)]

    def sub(x, y):
        return tuple(p - q for p, q in zip(x, y))

    def add(*xs):
        return tuple(sum(col) for col in zip(*xs))

    vectors = (
        sub(a[1], a[2]),
        sub(row[0][1], row[0][2]),
        sub(add(*row[1]), add(*row[2])),
        sub(sub(row[1][1], row[2][2]), sub(row[1][2], row[2][1])),
    )
    computed = tuple(highest_weight_check(g9, v, frame) for v in vectors)
    expected = (
        (Q(0), Q(1, 11), Q(21, 11)),
        (Q(1, 16), Q(31, 16), Q(0)),
        (Q(1, 16), Q(21, 176), Q(20, 11)),
        (Q(1, 16), Q(5, 176), Q(21, 11)),
    )
    return computed, expected


@_check("abstract.08.adjoint-spectra",
        "axis adjoints have eigenvalue multiplicities {2:1, 0:4, 1/16:4} on "
        "nine axes and {2:1, 0:1, 1/16:1} on three", PROV_FROZEN, warm=("g9", "u3"))
def _adjoint_spectra(ctx):
    return ((adjoint_spectrum(ctx.g9, ctx.g9.unit(0)),
             adjoint_spectrum(ctx.u3, ctx.u3.unit(0))),
            ({Q(2): 1, Q(0): 4, Q(1, 16): 4}, {Q(2): 1, Q(0): 1, Q(1, 16): 1}))


@_check("abstract.09.miyamoto-group",
        "the nine Miyamoto involutions close into an order-18 group with a "
        "normal order-9 part, nine conjugate involutions, and commuting "
        "order-3 generator products", PROV_FROZEN, warm=("g9",))
def _miyamoto_group(ctx):
    g9 = ctx.g9
    taus = {(i, j): miyamoto_tau(g9, axis_vector(g9, i, j))
            for i in range(3) for j in range(3)}
    grp = group_closure([taus[(0, 0)], taus[(0, 1)], taus[(1, 0)]])
    full = group_closure(list(taus.values()))
    g = taus[(0, 0)].compose(taus[(1, 0)])
    h = taus[(0, 0)].compose(taus[(0, 1)])
    computed = (grp.shape_certificate(),
                set(full.elements) == set(grp.elements),
                grp.element_order(g.matrix), grp.element_order(h.matrix),
                g.matrix.matmul(h.matrix) == h.matrix.matmul(g.matrix))
    expected = ({"order": 18, "o3_size": 9, "o3_normal": True,
                 "involutions": 9, "involutions_conjugate": True,
                 "quotient_order": 2},
                True, 3, 3, True)
    return computed, expected


@_check("abstract.10.sigma-trivial",
        "the adjoint of an axis has no 1/2-eigenvector, so every sigma "
        "involution is the identity", PROV_FROZEN, warm=("u3", "g9"))
def _sigma_trivial(ctx):
    s3 = miyamoto_sigma(ctx.u3, ctx.u3.unit(0))
    s9 = miyamoto_sigma(ctx.g9, ctx.g9.unit(0))
    return ((s3.matrix == Matrix.identity(3), s9.matrix == Matrix.identity(9)),
            (True, True))


# -- lattice combinatorics ---------------------------------------------------------


@_check("lattice.01.root-count",
        "the even unimodular rank-8 lattice has 240 roots",
        PROV_FROZEN, warm=("e8",))
def _root_count(ctx):
    return len(shell(ctx.e8, 2, ctx.cache)), 240


@_check("lattice.02.norm-four-count",
        "the even unimodular rank-8 lattice has 2160 norm-4 vectors",
        PROV_FROZEN, warm=("e8",))
def _norm_four_count(ctx):
    return len(shell(ctx.e8, 4, ctx.cache)), 2160


@_check("lattice.03.kernel-sublattice",
        "the mod-3 kernel of the norm-8 functional has index 3, determinant "
        "9, and 72 roots of Cartan type A8", PROV_FROZEN, warm=("a_vec",))
def _kernel_sublattice(ctx):
    a = ctx.a_vec
    K = sublattice_K(ctx.e8, a)
    computed = (dot(a, a), index_in(K, ctx.e8), K.det,
                len(shell(K, 2, ctx.cache)), root_system_type(K, ctx.cache))
    return computed, (Q(8), 3, Q(9), 72, "A8")


@_check("lattice.04.root-partition",
        "the 240 roots split 72/84/84 by their mod-3 pairing with the "
        "norm-8 functional", PROV_FROZEN, warm=("a_vec",))
def _root_partition(ctx):
    counts = [0, 0, 0]
    for r in shell(ctx.e8, 2, ctx.cache).vectors:
        counts[int(dot(r, ctx.a_vec)) % 3] += 1
    return tuple(counts), (72, 84, 84)


@_check("lattice.05.glue-cosets",
        "the rank-2 glue image plus three rank-8 blocks has index 81 in the "
        "ambient rank-26 root lattice, with 81 verified-distinct "
        "representatives", PROV_FROZEN)
def _glue_cosets(ctx):
    system = coset_decomposition_A26(ctx.cache)
    return ((system.index, len(system.representatives), system.verified),
            (81, 81, True))


# -- cocycle -----------------------------------------------------------------------


@_check("cocycle.01.congruence-sample",
        "on 1000 seeded random pairs the sign table satisfies the square "
        "and antisymmetry congruences", PROV_CROSS, warm=("cocycle_table",))
def _congruence_sample(ctx):
    table = ctx.cocycle_table
    L = ctx.triple_lattice
    gram = np.array([[int(v) for v in row] for row in L.gram.rows])
    rng = ctx.rng()
    # 1000 pairs, each drawn x first, then y
    xy = np.array([[rng.randrange(-3, 4) for _ in range(L.rank)] for _ in range(2000)])
    x, y = xy[0::2], xy[1::2]
    pair = (x @ gram * y).sum(axis=1)
    norm = (x @ gram * x).sum(axis=1)
    violations = (
        np.count_nonzero((table.epsilon_coords(x, y) + table.epsilon_coords(y, x)
                          - pair) % 2)
        + np.count_nonzero((table.epsilon_coords(x, x) - norm // 2) % 2))
    return (1000, int(violations)), (1000, 0)


@_check("cocycle.02.difference-triviality",
        "the sign table vanishes identically on each of the three "
        "difference sublattices", PROV_CROSS, warm=("cocycle_table",))
def _difference_triviality(ctx):
    table, e8 = ctx.cocycle_table, ctx.e8
    parts = (difference_lattice(e8, 0, 1, "M"), difference_lattice(e8, 1, 2, "N"),
             difference_lattice(e8, 0, 2, "Ntilde"))
    return tuple(verify_triviality(table, S) for S in parts), (True,) * 3


@_check("cocycle.03.root-inverse-sign",
        "every root pairs with its negative to sign -1, so opposite "
        "exponentials multiply to minus the vacuum exponential",
        PROV_FROZEN, warm=("cocycle_table",))
def _root_inverse_sign(ctx):
    table = ctx.cocycle_table
    L = ctx.triple_lattice
    roots = shell(L, 2, ctx.cache).vectors
    c = np.array([[int(x) for x in L.coords(r)] for r in roots])
    violations = np.count_nonzero(table.epsilon_coords(c, -c) != 1)
    return (len(roots), int(violations)), (720, 0)


# -- lattice axes ------------------------------------------------------------------


@_check("fock.01.axis-idempotents",
        "each of the nine lattice axes squares to twice itself",
        PROV_FROZEN, warm=("family",))
def _axis_idempotents(ctx):
    sp = ctx.family.space
    good = sum(1 for ax in ctx.flat_axes
               if sp.griess_product(ax, ax) == ax.scale(2))
    return (good, len(ctx.flat_axes)), (9, 9)


@_check("fock.02.axis-gram-values",
        "axis norms are all 1/4 and all 36 cross pairings are 1/256",
        PROV_FROZEN, warm=("family", "axis_gram"))
def _axis_gram_values(ctx):
    gram = ctx.axis_gram
    diag = {gram.rows[i][i] for i in range(9)}
    off = {gram.rows[i][j] for i in range(9) for j in range(i + 1, 9)}
    return (diag, off), ({Q(1, 4)}, {Q(1, 256)})


@_check("fock.03.first-row-fusion",
        "the product of the first two axes is 1/32 times (first plus second "
        "minus third)", PROV_FROZEN, warm=("family",))
def _first_row_fusion(ctx):
    fam = ctx.family
    sp = fam.space
    lhs = sp.griess_product(fam.axis(0, 0), fam.axis(0, 1))
    rhs = (fam.axis(0, 0) + fam.axis(0, 1) - fam.axis(0, 2)).scale(Q(1, 32))
    return lhs == rhs, True


@_check("fock.04.table-cross-validation",
        "the realized product table and Gram of the nine lattice axes match "
        "the structure-constant tables entry by entry",
        PROV_CROSS, warm=("family", "axis_gram"))
def _table_cross_validation(ctx):
    table_mm, gram_mm = ctx.axis_table_mismatches
    return (len(table_mm), len(gram_mm)), (0, 0)


# -- commutant ---------------------------------------------------------------------


@_check("commutant.01.sugawara-expressions",
        "the mode-sum, difference-vector and axis-sum expressions for the "
        "affine conformal vector agree literally",
        PROV_CROSS, warm=("family", "sugawara"))
def _sugawara_expressions_check(ctx):
    omega, alt1, alt2 = ctx.sugawara
    return (omega == alt1, omega == alt2), (True, True)


@_check("commutant.02.sugawara-virasoro",
        "the affine conformal vector is Virasoro of central charge 20",
        PROV_FROZEN, warm=("family", "sugawara"))
def _sugawara_virasoro(ctx):
    sp = ctx.family.space
    omega = ctx.sugawara[0]
    idempotent = sp.griess_product(omega, omega) == omega.scale(2)
    norm = sp.invariant_form(omega, omega).rational_part()
    return (idempotent, norm, 2 * norm), (True, Q(10), Q(20))


@_check("commutant.03.heisenberg-eigenvalue",
        "the affine conformal vector acts with eigenvalue 3/4 on every "
        "weight-one oscillator of the two difference sublattices",
        PROV_FROZEN, warm=("family", "sugawara"))
def _heisenberg_eigenvalue(ctx):
    fam = ctx.family
    sp = fam.space
    omega = ctx.sugawara[0]
    basis = list(fam.M.basis) + list(fam.N.basis)
    good = 0
    for h in basis:
        x = sp.oscillator_state([(h, 1)])
        if sp.apply_mode(omega, 1, x) == x.scale(Q(3, 4)):
            good += 1
    return (good, len(basis)), (16, 16)


@_check("commutant.04.annihilation",
        "modes zero and one of all 72 root currents and their Cartan "
        "partners kill each of the nine axes", PROV_FROZEN, warm=("family",))
def _annihilation(ctx):
    rep = check_commutant_annihilation(ctx.family, ctx.cache)
    return ((rep.roots, rep.axes, rep.checks, len(rep.failures)),
            (72, 9, 2592, 0))


# -- real form ---------------------------------------------------------------------


@_check("realform.01.component-sum",
        "the three conjugation components sum back to the first axis",
        PROV_DEFINITION, warm=("family", "real_form"))
def _component_sum(ctx):
    x0, x1, x2 = ctx.real_form
    return x0 + x1 + x2 == ctx.family.axis(0, 0), True


@_check("realform.02.coset-supports",
        "the two twisted components are supported on opposite 84-element "
        "norm-4 cosets with every coefficient 1/32",
        PROV_FROZEN, warm=("family", "real_form"))
def _coset_supports(ctx):
    _, x1, x2 = ctx.real_form
    return (len(x1), len(x2)), (84, 84)


@_check("realform.03.conjugation-action",
        "lattice conjugation fixes the rational component and swaps the two "
        "twisted components", PROV_FROZEN, warm=("family", "real_form"))
def _conjugation_action(ctx):
    sp = ctx.family.space
    x0, x1, x2 = ctx.real_form
    return ((sp.theta(x0) == x0, sp.theta(x1) == x2, sp.theta(x2) == x1),
            (True, True, True))


@_check("realform.04.twist-decomposition",
        "the twisted axis equals the rational component minus half the "
        "sum plus (1+2*zeta)/2 times the difference of the twisted "
        "components", PROV_CROSS, warm=("family", "real_form"))
def _twist_decomposition(ctx):
    fam = ctx.family
    x0, x1, x2 = ctx.real_form
    display = x0 + (x1 + x2).scale(Q(-1, 2)) \
        + (x1 - x2).scale(SQRT_MINUS_3 * Q(1, 2))
    return display == fam.axes[1][0], True


@_check("realform.05.gram-positivity",
        "all nine leading principal minors of the axis Gram matrix are "
        "positive", PROV_FROZEN, warm=("family", "axis_gram"))
def _gram_positivity(ctx):
    rows, scales = zip(*map(_common_scale, ctx.axis_gram.rows))
    minors = tuple(Q(step[k], math.prod(scales[:k + 1]))
                   for k, step in enumerate(bareiss(rows)[3]))
    expected = tuple(Q(63, 256) ** (k - 1) * Q(63 + k, 256)
                     for k in range(1, 10))
    return minors, expected


# -- central charges ---------------------------------------------------------------


@_check("charges.01.affine-ledger",
        "the affine charges and their rank-24 complements come out to 20, "
        "4, 4, 248/11 and 16/11", PROV_FROZEN)
def _affine_ledger(ctx):
    computed = (
        affine_central_charge(lie_algebra("A", 8), 3),
        24 - affine_central_charge(lie_algebra("A", 8), 3),
        parafermion_central_charge(lie_algebra("A", 2), 9),
        affine_central_charge(lie_algebra("E", 8), 3),
        24 - affine_central_charge(lie_algebra("E", 8), 3),
    )
    return computed, (Q(20), Q(4), Q(4), Q(248, 11), Q(16, 11))


@_check("charges.02.parafermion-coset",
        "the Heisenberg-coset Virasoro vectors at levels 2, 3 and 9 are "
        "certified with central charges 1/2, 4/5 and 16/11", PROV_FROZEN)
def _parafermion_coset(ctx):
    alpha = (1, -1, 0)
    computed = []
    for level in (2, 3, 9):
        space = parafermion_space(level)
        omega = parafermion_omega(alpha, level, space)
        c = 2 * space.invariant_form(omega, omega).rational_part()
        computed.append((level, c))
    expected = ((2, Q(1, 2)), (3, Q(4, 5)), (9, Q(16, 11)))
    return tuple(computed), expected


# -- suite registry and runner -----------------------------------------------------


SUITES: Dict[str, Tuple[str, ...]] = {
    "griess-abstract": tuple(i for i in CHECKS if i.startswith("abstract.")),
    "lattice-combinatorics": tuple(i for i in CHECKS if i.startswith("lattice.")),
    "cocycle": tuple(i for i in CHECKS if i.startswith("cocycle.")),
    "fock-axes": tuple(i for i in CHECKS if i.startswith("fock.")),
    "commutant": tuple(i for i in CHECKS if i.startswith("commutant.")),
    "real-form": tuple(i for i in CHECKS if i.startswith("realform.")),
    "central-charges": tuple(i for i in CHECKS if i.startswith("charges.")),
}
SUITES["all"] = (SUITES["lattice-combinatorics"] + SUITES["cocycle"]
                 + SUITES["griess-abstract"] + SUITES["fock-axes"]
                 + SUITES["commutant"] + SUITES["real-form"]
                 + SUITES["central-charges"])

SUITE_NAMES: Tuple[str, ...] = tuple(SUITES)


def _run_check(ctx: SuiteContext, check_id: str) -> CheckResult:
    defn = CHECKS[check_id]
    start = time.perf_counter()
    try:
        computed, expected = defn.fn(ctx)
        computed_s, expected_s = render(computed), render(expected)
        status = "pass" if computed_s == expected_s else "fail"
    except Exception as exc:  # one crashing check must not sink the report
        computed_s, expected_s = f"{type(exc).__name__}: {exc}", ""
        status = "error"
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return CheckResult(
        id=defn.id,
        status=status,
        computed=computed_s,
        expected=expected_s,
        provenance=defn.provenance,
        quote=defn.quote,
        elapsed_ms=elapsed,
    )


_POOL_CTX: Optional[SuiteContext] = None


def _pool_run(check_id: str) -> CheckResult:
    return _run_check(_POOL_CTX, check_id)


def _results(ctx: SuiteContext, ids: Sequence[str],
             jobs: int) -> Iterator[CheckResult]:
    """Each check's result in id order, run by `jobs` forked workers."""
    if jobs == 1 or len(ids) <= 1:
        for check_id in ids:
            yield _run_check(ctx, check_id)
        return
    global _POOL_CTX
    _POOL_CTX = ctx
    try:
        with multiprocessing.get_context("fork").Pool(
                min(jobs, len(ids))) as pool:
            yield from pool.imap(_pool_run, ids, chunksize=1)
    finally:
        _POOL_CTX = None


def run_suite(name: str, *, cache: DiskCache, seed: int = DEFAULT_SEED,
              jobs: int = 1, timing: bool = False,
              progress: Optional[Callable[[int, int, CheckResult], None]] = None
              ) -> VerificationReport:
    """Run the named suite and assemble a report ordered by check id.

    progress(k, n, result) is called as the k-th of n results arrives; its
    result always carries the measured elapsed_ms, the report's only
    under timing.
    """
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    ids = SUITES[name]
    ctx = SuiteContext(cache, seed)
    for check_id in ids:
        for attr in CHECKS[check_id].warm:
            try:
                getattr(ctx, attr)
            except Exception:  # the checks that read it raise again, as errors
                pass
    results = []
    for k, r in enumerate(_results(ctx, ids, jobs), 1):
        if progress is not None:
            progress(k, len(ids), r)
        results.append(r if timing else replace(r, elapsed_ms=0))
    ordered = tuple(sorted(results, key=lambda r: r.id))
    return VerificationReport(suite=name, version=__version__, seed=seed,
                              results=ordered)


def cross_validate(*, cache: DiskCache) -> VerificationReport:
    """Compare the realized axis algebra against the structure-constant
    tables, reporting every mismatching table or Gram entry separately."""
    ctx = SuiteContext(cache, DEFAULT_SEED)
    table_mm, gram_mm = ctx.axis_table_mismatches
    results = [replace(_run_check(ctx, "fock.04.table-cross-validation"),
                       elapsed_ms=0)]
    for i, j, got, want in table_mm:
        results.append(CheckResult(
            id=f"crossval.table.{i}{j}", status="fail",
            computed=got, expected=want, provenance=PROV_CROSS,
            quote=f"product of axes {i} and {j} in axis coordinates",
            elapsed_ms=0))
    for i, j, got, want in gram_mm:
        results.append(CheckResult(
            id=f"crossval.gram.{i}{j}", status="fail",
            computed=got, expected=want, provenance=PROV_CROSS,
            quote=f"pairing of axes {i} and {j}",
            elapsed_ms=0))
    ordered = tuple(sorted(results, key=lambda r: r.id))
    return VerificationReport(suite="cross-validate", version=__version__,
                              seed=DEFAULT_SEED, results=ordered)


def report_dict(report: VerificationReport) -> dict:
    return asdict(report)


def emit_report(report: VerificationReport, format: str = "text",
                timing: bool = False) -> str:
    """Render a report; timing adds each check's elapsed_ms to text lines
    (JSON always carries the field)."""
    if format == "json":
        return json.dumps(report_dict(report), indent=2) + "\n"
    if format == "text":
        lines = [f"suite: {report.suite}",
                 f"version: {report.version}",
                 f"seed: {report.seed}"]
        for r in report.results:
            mark = r.status.upper()
            line = f"[{mark}] {r.id}  computed {r.computed}"
            if r.status == "fail":
                line += f"  expected {r.expected}"
            if timing:
                line += f"  ({r.elapsed_ms} ms)"
            lines.append(line)
        summary = f"{len(report.results)} checks, {len(report.failures)} failed"
        if report.errors:
            summary += f" ({len(report.errors)} with errors)"
        lines.append(summary)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}; expected json or text")
