"""Finite-dimensional commutative axial algebras given by structure constants.

A StructureAlgebra packages a basis, the full product table and the Gram
matrix of the invariant form, all over the rationals, and validates the
commutativity and form-associativity laws on construction.  On top of that
live the two concrete algebras of interest (the 3-dimensional 3C algebra
and its 9-dimensional sibling spanned by nine pairwise 3C axes), Virasoro
certification, adjoint spectra, the Miyamoto involutions (each a
reflection I - 2P in an eigenprojection P of an axis adjoint, a polynomial
in the adjoint), finite matrix groups, and central-charge bookkeeping for
affine and parafermion cosets.
A finite matrix group is closed, and its orders and conjugacy checked, on
the permutations it induces on the orbit of the standard basis; each
element's matrix is built once, from its basis images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .numerics import Matrix, Q, bareiss, dot

Vector = Tuple[Fraction, ...]

HALF = Q(1, 2)
SIXTEENTH = Q(1, 16)
FUSION = (Q(2), Q(0), HALF, SIXTEENTH)  # the Ising adjoint spectrum


def _vec(x: Sequence) -> Vector:
    return tuple(Fraction(v) for v in x)


class StructureAlgebra:
    """Commutative algebra with invariant form, defined by tables."""

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[Sequence]],
                 gram: Sequence[Sequence]) -> None:
        self.labels = tuple(labels)
        d = len(self.labels)
        self.table: Tuple[Tuple[Vector, ...], ...] = tuple(
            tuple(_vec(table[i][j]) for j in range(d)) for i in range(d))
        self.gram = Matrix([[Fraction(gram[i][j]) for j in range(d)]
                            for i in range(d)])
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _validate(self) -> None:
        d = self.dim
        for i in range(d):
            for j in range(d):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError(f"product table not commutative at ({i},{j})")
                if self.gram.rows[i][j] != self.gram.rows[j][i]:
                    raise ValueError(f"gram not symmetric at ({i},{j})")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = sum(c * self.gram.rows[l][k]
                               for l, c in enumerate(self.table[i][j]) if c)
                    right = sum(c * self.gram.rows[i][l]
                                for l, c in enumerate(self.table[j][k]) if c)
                    if left != right:
                        raise ValueError(
                            f"form not associative on triple ({i},{j},{k})")

    def unit(self, i: int) -> Vector:
        return tuple(Q(1) if j == i else Q(0) for j in range(self.dim))

    def multiply(self, x: Sequence, y: Sequence) -> Vector:
        x, y = _vec(x), _vec(y)
        acc = [Q(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                w = xi * yj
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        acc[k] += w * c
        return tuple(acc)

    def form(self, x: Sequence, y: Sequence) -> Fraction:
        return dot(_vec(x), self.gram.matvec(_vec(y)))


@dataclass(frozen=True)
class LinearEndo:
    matrix: Matrix
    automorphism: bool = False

    def compose(self, other: "LinearEndo") -> "LinearEndo":
        return LinearEndo(self.matrix.matmul(other.matrix),
                          self.automorphism and other.automorphism)


def verify_automorphism(A: StructureAlgebra, m: Matrix) -> bool:
    d = A.dim
    if (m.nrows, m.ncols) != (d, d):
        raise ValueError("shape mismatch")
    images = m.transpose().rows  # images[i] = m e_i
    gram_images = [A.gram.matvec(t) for t in images]
    for i in range(d):
        for j in range(i, d):
            if A.multiply(images[i], images[j]) != m.matvec(A.table[i][j]):
                return False
            if dot(images[i], gram_images[j]) != A.gram.rows[i][j]:
                return False
    return True


def as_automorphism(A: StructureAlgebra, m: Matrix) -> LinearEndo:
    if not verify_automorphism(A, m):
        raise ValueError("map does not preserve the product and form")
    return LinearEndo(m, automorphism=True)


# -- the two concrete algebras -------------------------------------------------


def build_3C() -> StructureAlgebra:
    """Three Ising axes, any two generating a 3C dihedral pair."""
    d = 3
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                table[i][j] = [Q(2) if k == i else Q(0) for k in range(d)]
            else:
                table[i][j] = [
                    Q(1, 32) * (1 if k in (i, j) else -1) for k in range(d)]
    gram = [[Q(1, 4) if i == j else Q(1, 256) for j in range(d)]
            for i in range(d)]
    return StructureAlgebra([f"e{i}" for i in range(d)], table, gram)


def _g9_index(i: int, j: int) -> int:
    return 3 * (i % 3) + (j % 3)


def build_G9() -> StructureAlgebra:
    """Nine axes labeled by the affine plane of order 3: two distinct axes
    multiply into the third point of their line."""
    d = 9
    table = [[None] * d for _ in range(d)]
    for a in range(d):
        i1, j1 = divmod(a, 3)
        for b in range(d):
            i2, j2 = divmod(b, 3)
            row = [Q(0)] * d
            if a == b:
                row[a] = Q(2)
            else:
                c = _g9_index(-i1 - i2, -j1 - j2)
                row[a] += Q(1, 32)
                row[b] += Q(1, 32)
                row[c] -= Q(1, 32)
            table[a][b] = row
    gram = [[Q(1, 4) if a == b else Q(1, 256) for b in range(d)]
            for a in range(d)]
    labels = [f"e{i}{j}" for i in range(3) for j in range(3)]
    return StructureAlgebra(labels, table, gram)


def axis_vector(A: StructureAlgebra, i: int, j: int) -> Vector:
    return A.unit(_g9_index(i, j))


def line_sum_idempotent(A: StructureAlgebra, points: Sequence[Tuple[int, int]]) -> Vector:
    """(32/33)(sum of a line of axes) - axis e00."""
    acc = [Q(0)] * A.dim
    for i, j in points:
        acc[_g9_index(i, j)] += Q(32, 33)
    acc[_g9_index(0, 0)] -= 1
    return tuple(acc)


AG3_LINES: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((0, 0), (0, 1), (0, 2)),
    ((0, 0), (1, 0), (2, 0)),
    ((0, 0), (1, 1), (2, 2)),
    ((0, 0), (1, 2), (2, 1)),
)


def certify_virasoro(A: StructureAlgebra, v: Sequence) -> Fraction:
    v = _vec(v)
    if A.multiply(v, v) != tuple(2 * x for x in v):
        raise ValueError("not idempotent: v*v != 2v")
    return 2 * A.form(v, v)


def check_a_products(A: StructureAlgebra) -> Dict[Tuple[int, int], bool]:
    """The four line idempotents satisfy the exchange relation
    a^i a^j = (1/33)(2a^i + 2a^j - a^k - a^l)."""
    a = [line_sum_idempotent(A, line) for line in AG3_LINES]
    report: Dict[Tuple[int, int], bool] = {}
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = (x for x in range(4) if x not in (i, j))
            want = tuple(
                Q(1, 33) * (2 * a[i][t] + 2 * a[j][t] - a[k][t] - a[l][t])
                for t in range(A.dim))
            report[(i + 1, j + 1)] = A.multiply(a[i], a[j]) == want
    return report


def adjoint(A: StructureAlgebra, v: Sequence) -> Matrix:
    v = _vec(v)
    cols = [A.multiply(v, A.unit(j)) for j in range(A.dim)]
    return Matrix(list(zip(*cols)))


def _affine(m: Matrix, s: Fraction, c: Fraction) -> Matrix:
    """s m + c I"""
    return Matrix([[s * x + c if i == j else s * x for j, x in enumerate(r)]
                   for i, r in enumerate(m.rows)])


def adjoint_spectrum(A: StructureAlgebra, v: Sequence) -> Dict[Fraction, int]:
    """Dimension of each nonzero eigenspace of the adjoint of v, over the
    Ising fusion eigenvalues {2, 0, 1/2, 1/16}."""
    ad = adjoint(A, v)
    dims = {lam: A.dim - _affine(ad, 1, -lam).rank() for lam in FUSION}
    return {lam: n for lam, n in dims.items() if n}


def _eigenprojection(A: StructureAlgebra, e: Sequence, lam: Fraction) -> Matrix:
    """prod_{mu != lam} (ad_e - mu) / (lam - mu) over mu in FUSION, the
    projection onto the lam-eigenspace of the adjoint of a central charge
    1/2 axis e whose eigenspaces span the algebra, i.e. for which
    prod_mu (ad_e - mu) = 0."""
    if certify_virasoro(A, e) != HALF:
        raise ValueError("axis must be idempotent of central charge 1/2")
    ad = adjoint(A, e)
    others = [mu for mu in FUSION if mu != lam]
    p = reduce(Matrix.matmul, (_affine(ad, 1, -mu) for mu in others))
    if any(map(any, _affine(ad, 1, -lam).matmul(p).rows)):
        raise ValueError("adjoint eigenvalues outside {2, 0, 1/2, 1/16}")
    return _affine(p, 1 / math.prod(lam - mu for mu in others), 0)


def miyamoto_tau(A: StructureAlgebra, e: Sequence) -> LinearEndo:
    """Involution acting as -1 on the 1/16 part of the adjoint of an axis:
    I - 2 P_1/16."""
    return as_automorphism(A, _affine(_eigenprojection(A, e, SIXTEENTH), -2, 1))


def miyamoto_sigma(A: StructureAlgebra, e: Sequence) -> LinearEndo:
    """Involution of the tau-fixed subalgebra: -1 on the 1/2 part,
    extended by the identity elsewhere, I - 2 P_1/2."""
    m = _affine(_eigenprojection(A, e, HALF), -2, 1)
    # the columns of I - P_1/16 span the tau-fixed subalgebra
    keep = _affine(_eigenprojection(A, e, SIXTEENTH), -1, 1).transpose().rows
    fixed = list(dict.fromkeys(c for c in keep if any(c)))
    images = [m.matvec(x) for x in fixed]
    # no form check: ad_e is self-adjoint (associativity), so the involution m is an isometry
    for i, (x, tx) in enumerate(zip(fixed, images)):
        for y, ty in zip(fixed[i:], images[i:]):
            if A.multiply(tx, ty) != m.matvec(A.multiply(x, y)):
                raise ValueError("sigma fails to preserve the fixed subalgebra")
    return LinearEndo(m, automorphism=verify_automorphism(A, m))


# -- finite matrix groups --------------------------------------------------------

Perm = Tuple[int, ...]


@dataclass(frozen=True)
class MatrixGroup:
    """A finite matrix group computing on the permutations its elements
    induce on the orbit of the standard basis, a faithful action."""

    generators: Tuple[LinearEndo, ...]
    elements: Tuple[Matrix, ...]
    perm_of: Dict[Matrix, Perm] = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def _perm(self, m: Matrix) -> Perm:
        if m not in self.perm_of:
            raise ValueError("matrix is not an element of the group")
        return self.perm_of[m]

    def element_order(self, m: Matrix) -> int:
        p = q = self._perm(m)
        n = 1
        while q != tuple(range(len(p))):
            q, n = tuple(q[k] for k in p), n + 1
            if n > self.order:
                raise RuntimeError("order computation exceeded group size")
        return n

    def involutions(self) -> List[Matrix]:
        return [m for m in self.elements if self.element_order(m) == 2]

    def order_three_part(self) -> List[Matrix]:
        return [m for m in self.elements if self.element_order(m) in (1, 3)]

    def _conjugates(self, s: Perm) -> Set[Perm]:
        # g s g^-1 sends g[k] to g[s[k]]
        return {tuple(c for _, c in sorted(zip(g, (g[k] for k in s))))
                for g in self.perm_of.values()}

    def is_normal(self, subset: Sequence[Matrix]) -> bool:
        sub = {self._perm(m) for m in subset}
        return all(self._conjugates(s) <= sub for s in sub)

    def conjugacy_closed(self, seeds: Sequence[Matrix]) -> bool:
        """All seeds lie in a single conjugacy orbit."""
        return not seeds or ({self._perm(m) for m in seeds}
                             <= self._conjugates(self._perm(seeds[0])))

    def shape_certificate(self) -> Dict[str, object]:
        """Invariants recognizing the order-18 extension of a nine-element
        elementary abelian normal part by a reflection."""
        invs = self.involutions()
        o3 = self.order_three_part()
        return {
            "order": self.order,
            "o3_size": len(o3),
            "o3_normal": self.is_normal(o3),
            "involutions": len(invs),
            "involutions_conjugate": self.conjugacy_closed(invs),
            "quotient_order": self.order // len(o3) if o3 else 0,
        }


def _orbit(start: Sequence, maps: Sequence, act: Callable, cap: int,
           bound: int) -> Tuple[list, List[List[int]]]:
    """The closure of `start` under act(f, .) for f in maps, with each map
    as the list of its images' indices; RuntimeError past `cap` points."""
    points = list(start)
    index = {x: k for k, x in enumerate(points)}
    images: List[List[int]] = [[] for _ in maps]
    for x in points:  # the list grows while it is walked
        for f, img in zip(maps, images):
            y = act(f, x)
            if y not in index:
                if len(points) >= cap:
                    raise RuntimeError(f"closure exceeded bound {bound}")
                index[y] = len(points)
                points.append(y)
            img.append(index[y])
    return points, images


def group_closure(gens: Sequence[LinearEndo], bound: int = 10 ** 4) -> MatrixGroup:
    """The generated group, closed as permutations of the orbit X of the
    standard basis; each element's matrix is read off its basis images.
    At most `bound` elements and dim * bound points of X."""
    for g in gens:
        if not g.automorphism:
            raise ValueError("generators must be verified automorphisms")
    mats = [g.matrix for g in gens]
    if not mats:
        raise ValueError("no generators")
    dim = mats[0].nrows
    points, images = _orbit(Matrix.identity(dim).rows, mats, Matrix.matvec,
                            dim * bound, bound)
    perms, _ = _orbit([tuple(range(len(points)))], images,
                      lambda img, x: tuple(x[k] for k in img), bound, bound)
    perm_of = {Matrix(list(zip(*(points[p[c]] for c in range(dim))))): p
               for p in perms}
    return MatrixGroup(tuple(gens), tuple(sorted(perm_of, key=lambda m: m.rows)),
                       perm_of)


# -- eigenvalue frames -----------------------------------------------------------


def highest_weight_check(A: StructureAlgebra, v: Sequence,
                         frame: Sequence[Sequence]) -> Tuple[Fraction, ...]:
    v = _vec(v)
    if not any(v):
        raise ValueError("zero vector has no eigenvalue triple")
    out = []
    for f in frame:
        fv = A.multiply(f, v)
        lam = None
        for x, y in zip(fv, v):
            if y:
                lam = x / y
                break
        if lam is None:
            lam = Q(0)
        if fv != tuple(lam * y for y in v):
            raise ValueError("not a simultaneous eigenvector")
        out.append(lam)
    return tuple(out)


def standard_frame(A: StructureAlgebra) -> Tuple[Vector, Vector, Vector]:
    """(axis, line complement, plane complement): three orthogonal
    idempotent-halves summing to the full Virasoro vector."""
    e00 = A.unit(0)
    a1 = line_sum_idempotent(A, AG3_LINES[0])
    omega = tuple(Q(8, 9) for _ in range(A.dim))
    b1 = tuple(w - x - y for w, x, y in zip(omega, e00, a1))
    return e00, a1, b1


# -- central charge bookkeeping ---------------------------------------------------


@dataclass(frozen=True)
class LieData:
    label: str
    rank: int
    dim: int
    dual_coxeter: int


def lie_algebra(series: str, n: int) -> LieData:
    if series == "A":
        return LieData(f"A{n}", n, n * (n + 2), n + 1)
    if series == "E" and n == 8:
        return LieData("E8", 8, 248, 30)
    raise ValueError(f"unsupported algebra {series}{n}")


def affine_central_charge(g: LieData, k: int) -> Fraction:
    if k < 1:
        raise ValueError("level must be positive")
    return Q(k * g.dim, k + g.dual_coxeter)


def parafermion_central_charge(g: LieData, k: int) -> Fraction:
    return affine_central_charge(g, k) - g.rank


# -- bridge from the Fock engine ---------------------------------------------------


def griess_table_entries(space, states: Sequence
                         ) -> Iterator[Tuple[int, int, Optional[Vector]]]:
    """Yield (i, j, coefficients of states[i].states[j] in the states) for
    j <= i; the coefficients are None when the product leaves the rational
    span of the states, and linearly dependent states raise ValueError.

    Over the states' common denominator L, the re or zc part of each
    monomial is an integer row over the states.  The first len(states)
    rows that raise the rank form an invertible minor, so a product's
    numerators at those pivots fix its only candidate coefficients, which
    one integer recombination over every monomial confirms or rejects."""
    n = len(states)
    if not n:
        return
    L = math.lcm(*(s._den for s in states))
    # per monomial, (k, re, zc) over L for each state k that holds it
    support: Dict[object, List[Tuple[int, int, int]]] = {}
    for k, s in enumerate(states):
        f = L // s._den
        for mono, (r, z) in s._nums.items():
            support.setdefault(mono, []).append((k, r * f, z * f))
    pivots: List[Tuple[object, int]] = []
    minor: List[Tuple[int, ...]] = []
    tried: Set[Tuple[int, ...]] = set()  # a row that once failed fails again
    for mono, part, row in _part_rows(support, n):
        if len(minor) == n:
            break
        if row not in tried:
            tried.add(row)
            if len(bareiss(minor + [row])[1]) > len(minor):
                pivots.append((mono, part))
                minor.append(row)
    if len(minor) < n:
        raise ValueError("states are linearly dependent")
    # red = d [I | minor^-1], d being the last pivot (+-det of the minor)
    red = bareiss([row + tuple(int(k == c) for c in range(n))
                   for k, row in enumerate(minor)])[0]
    d, adj = red[0][0], [row[n:] for row in red]
    for i in range(n):
        for j in range(i + 1):
            prod = space.griess_product(states[i], states[j])
            at = [prod._nums.get(mono, (0, 0))[part] for mono, part in pivots]
            coeffs = tuple(Fraction(dot(row, at) * L, d * prod._den) for row in adj)
            yield i, j, coeffs if _recombines(support, coeffs, L, prod) else None


def _part_rows(support: Dict[object, List[Tuple[int, int, int]]], n: int
               ) -> Iterator[Tuple[object, int, Tuple[int, ...]]]:
    """(monomial, part, row of that part over the n states), part 0 for re
    and 1 for zc, in the order of support."""
    for mono, held in support.items():
        for part in (0, 1):
            row = [0] * n
            for entry in held:
                row[entry[0]] = entry[1 + part]
            yield mono, part, tuple(row)


def _recombines(support: Dict[object, List[Tuple[int, int, int]]],
                coeffs: Vector, L: int, prod) -> bool:
    """Whether sum coeffs[k] states[k] is prod, compared in integers over
    one denominator on every monomial of either side."""
    q = math.lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (q // c.denominator) for c in coeffs]
    ours, theirs, nums = q * L, prod._den, prod._nums
    for mono, held in support.items():
        r, z = nums.get(mono, (0, 0))
        if (sum(a[k] * x for k, x, _ in held) * theirs != r * ours
                or sum(a[k] * y for k, _, y in held) * theirs != z * ours):
            return False
    return all(mono in support for mono in nums)


def algebra_from_griess(space, states: Sequence, labels: Sequence[str]
                        ) -> StructureAlgebra:
    """Structure constants of a list of weight-2 states that close under
    the Griess product, with exact closure verification."""
    d = len(states)
    table: List[List[Vector]] = [[] for _ in range(d)]
    for i, _, coeffs in griess_table_entries(space, states):
        if coeffs is None:
            raise ValueError("product escapes the span of the given states")
        table[i].append(coeffs)
    gram_rows = [[space.invariant_form(states[i], states[j]).rational_part()
                  for j in range(d)] for i in range(d)]
    full = [[table[max(i, j)][min(i, j)] for j in range(d)] for i in range(d)]
    return StructureAlgebra(labels, full, gram_rows)
