"""Integral lattices in rational ambient coordinates.

A lattice is stored as a row basis over Q.  All norms and inner
products come from the ambient standard inner product; the interesting
lattices here are the even-coordinate model of E8, its triple direct
sum, root lattices A_n, and the index-3 sublattice of E8 isometric to
A8 together with its glue structure.  Every sublattice is given by an
explicit basis (an image of a basis, a direct sum, a difference
lattice), never by reducing a spanning set.

Shell enumeration (all vectors of a prescribed norm) is exact: the
steps of the fraction-free elimination of the integer Gram matrix (the
same pass gives the determinant and the coordinate solver) drive a
bounded depth-first search, and results can be persisted in a text
cache.  Coordinates, membership and shells are computed in integers over
common denominators; Fractions appear only in the values returned.  A
shell keeps its vectors as integer tuples lb * v, in memory and on disk.
Each irreducible component of the root system is typed by rank and size.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .numerics import Matrix, Q, _common_scale, bareiss, dot

QVec = Tuple[Fraction, ...]


def _qvec(v: Sequence) -> QVec:
    return tuple(Fraction(x) for x in v)


def scaled_ints(v: Sequence, scale: int) -> Tuple[int, ...]:
    """The integer vector scale * v; ValueError when it is not integral.

    With scale 2 this is the doubled-coordinate form that keeps the
    half-integer vectors of E8-type lattices integral.
    """
    out = []
    for x in v:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        q, r = divmod(x.numerator * scale, x.denominator)
        if r:
            raise ValueError(f"coordinate {x} times {scale} is not an integer")
        out.append(q)
    return tuple(out)


class Lattice:
    """An integral lattice given by linearly independent basis rows.

    The basis is kept as Fraction rows for the public API; the hot paths
    (coordinates, membership, shells) run on the integer basis lb * B,
    where lb is the least common denominator of the basis entries.
    """

    def __init__(self, label: str, basis: Sequence[Sequence]) -> None:
        if not label or any(ch.isspace() for ch in label):
            raise ValueError("lattice label must be nonempty without spaces")
        self.label = label
        self.basis: Tuple[QVec, ...] = tuple(_qvec(r) for r in basis)
        if not self.basis:
            raise ValueError("empty basis")
        self.ambient_dim = len(self.basis[0])
        if any(len(r) != self.ambient_dim for r in self.basis):
            raise ValueError("ragged basis")
        self.rank = len(self.basis)

    def __repr__(self) -> str:
        return f"Lattice({self.label!r}, rank={self.rank}, ambient={self.ambient_dim})"

    @cached_property
    def _int_basis(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """(lb, lb * basis) with lb the least common denominator of the basis."""
        lb = math.lcm(*(x.denominator for r in self.basis for x in r))
        return lb, tuple(scaled_ints(r, lb) for r in self.basis)

    @cached_property
    def _digest(self) -> str:
        """SHA-256 of the integer basis; ties a cached shell to this basis."""
        return hashlib.sha256(repr(self._int_basis).encode("ascii")).hexdigest()

    @cached_property
    def _int_gram(self) -> Tuple[Tuple[int, ...], ...]:
        """Gram matrix of lb * B, that is lb**2 times the true Gram matrix."""
        rows = self._int_basis[1]
        return tuple(tuple(sum(x * y for x, y in zip(r, s)) for s in rows) for r in rows)

    @cached_property
    def gram(self) -> Matrix:
        lb = self._int_basis[0]
        return Matrix([[Q(x, lb * lb) for x in r] for r in self._int_gram])

    @cached_property
    def _gram_elimination(self) -> Tuple[List[List[int]], int, List[List[int]]]:
        """(adj, det, steps) from bareiss of [G | I], G the integer Gram matrix.

        G is positive definite, so no row swaps occur: det = det G > 0,
        adj = det * G^{-1} is the right block of the reduced rows, and steps
        holds the left half of every pivot row.
        """
        n = self.rank
        red, _, det, steps = bareiss([list(r) + [int(i == j) for j in range(n)]
                                      for i, r in enumerate(self._int_gram)])
        if det == 0:
            raise ValueError(f"basis of {self.label} is not linearly independent")
        return [r[n:] for r in red], det, [r[:n] for r in steps]

    @cached_property
    def det(self) -> Fraction:
        return Fraction(self._gram_elimination[1], self._int_basis[0] ** (2 * self.rank))

    @cached_property
    def _coord_solver(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """(num, den) with B^T (B B^T)^{-1} == num / den, num in integers.

        With R = lb * B and G = R R^T this matrix is lb * R^T G^{-1}, so
        coords(v) = (v . num) / den.
        """
        lb, rows = self._int_basis
        n = self.rank
        adj, gden, _ = self._gram_elimination
        cols = [[lb * sum(rows[i][col] * adj[i][j] for i in range(n))
                 for j in range(n)] for col in range(self.ambient_dim)]
        g = math.gcd(gden, *(x for r in cols for x in r))
        return tuple(tuple(x // g for x in r) for r in cols), gden // g

    def _combine(self, coeffs: Iterable[int]) -> List[int]:
        """sum_j coeffs[j] * (lb * B)[j] in integers."""
        out = [0] * self.ambient_dim
        for c, row in zip(coeffs, self._int_basis[1]):
            if c:
                out = [a + c * b for a, b in zip(out, row)]
        return out

    def _solve(self, v: Sequence) -> Optional[Tuple[List[int], int]]:
        """(raw, d) with coords(v) == raw / d, or None when v is off the span."""
        vi, s = _common_scale(v)
        if len(vi) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        num, den = self._coord_solver
        raw = [0] * self.rank
        for x, row in zip(vi, num):
            if x:
                raw = [a + x * b for a, b in zip(raw, row)]
        # The solver returns the span projection; reject vectors off the span:
        # sum_j raw_j/(s den) B_j == vi/s  <=>  raw . (lb B) == den lb vi.
        scale = den * self._int_basis[0]
        if self._combine(raw) != [scale * x for x in vi]:
            return None
        return raw, s * den

    def coords(self, v: Sequence) -> Optional[QVec]:
        """Rational coordinates of v in this basis, or None when v is off the span."""
        got = self._solve(v)
        if got is None:
            return None
        raw, d = got
        return tuple(Fraction(x, d) for x in raw)

    def contains(self, v: Sequence) -> bool:
        got = self._solve(v)
        if got is None:
            return False
        raw, d = got
        return all(x % d == 0 for x in raw)


# ---------------------------------------------------------------------------
# standard constructions


def build_standard(kind: str, n: Optional[int] = None) -> Lattice:
    """A_n in n+1 ambient coordinates, E8 in the even-coordinate model, or Z^n."""
    if kind == "E8":
        return _build_e8()
    if kind == "A":
        if n is None or n < 1:
            raise ValueError("A_n needs n >= 1")
        basis = []
        for i in range(n):
            row = [0] * (n + 1)
            row[i] = 1
            row[i + 1] = -1
            basis.append(row)
        return Lattice(f"A{n}", basis)
    if kind == "Z":
        if n is None or n < 1:
            raise ValueError("Z^n needs n >= 1")
        return Lattice(f"Z{n}", [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    raise ValueError(f"unknown lattice kind {kind!r}")


def _build_e8() -> Lattice:
    h = Fraction(1, 2)
    basis = [
        [h, -h, -h, -h, -h, -h, -h, h],
        [1, 1, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
    ]
    return Lattice("E8", basis)


def direct_sum(parts: Sequence[Lattice], label: Optional[str] = None) -> Lattice:
    total = sum(p.ambient_dim for p in parts)
    basis = []
    offset = 0
    for p in parts:
        for r in p.basis:
            row = [Fraction(0)] * total
            row[offset:offset + p.ambient_dim] = list(r)
            basis.append(row)
        offset += p.ambient_dim
    return Lattice(label or "+".join(p.label for p in parts), basis)


def block_embed(v: Sequence, block: int, nblocks: int) -> QVec:
    """Place v into the given block of an nblocks-fold ambient space."""
    vq = _qvec(v)
    d = len(vq)
    out = [Fraction(0)] * (d * nblocks)
    out[block * d:(block + 1) * d] = list(vq)
    return tuple(out)


def map_lattice(fn: Callable[[QVec], QVec], L: Lattice, label: str) -> Lattice:
    return Lattice(label, [fn(r) for r in L.basis])


def difference_lattice(L: Lattice, pos: int, neg: int, label: str) -> Lattice:
    """{v in block pos minus v in block neg : v in L} inside L + L + L."""
    return map_lattice(lambda v: tuple(a - b for a, b in zip(
        block_embed(v, pos, 3), block_embed(v, neg, 3))), L, label)


def index_in(sub: Lattice, sup: Lattice) -> int:
    """The index [sup : sub] via the determinant ratio."""
    if not all(sup.contains(r) for r in sub.basis):
        raise ValueError(f"{sub.label} is not a sublattice of {sup.label}")
    if sub.rank != sup.rank:
        raise ValueError("rank mismatch: index undefined")
    ratio = sub.det / sup.det
    if ratio.denominator != 1:
        raise ValueError("determinant ratio is not an integer")
    root = math.isqrt(ratio.numerator)
    if root * root != ratio.numerator:
        raise ValueError("determinant ratio is not a perfect square")
    return root


# ---------------------------------------------------------------------------
# shells


@dataclass(frozen=True)
class Shell:
    """All lattice vectors of one squared norm, sorted lexicographically.

    ints holds scale * v for each vector v, in integers; vectors is the
    Fraction view, built on first use.
    """

    label: str
    norm: Fraction
    ints: Tuple[Tuple[int, ...], ...]
    scale: int

    def __len__(self) -> int:
        return len(self.ints)

    @cached_property
    def vectors(self) -> Tuple[QVec, ...]:
        memo = {x: Fraction(x, self.scale) for x in {x for r in self.ints for x in r}}
        return tuple(tuple(map(memo.__getitem__, r)) for r in self.ints)


def _enumerate_coords(L: Lattice, m: Fraction) -> List[Tuple[int, ...]]:
    """Integer basis-coordinate vectors of squared norm exactly m.

    Only one of each pair {x, -x} is produced (the highest-index nonzero
    coordinate is positive); the zero vector is excluded.

    The search runs in integers on the Gram elimination.  With
    y_i = steps[i] . x and p[i + 1] = steps[i][i] (p[0] = 1), the integer
    Gram form is lb**2 Q(x) = sum_i y_i**2 / (p[i] p[i + 1]); times a common
    multiple D of those denominators each term is k[i] * y_i**2, and
    budgets are integer multiples of 1/D.
    """
    n = L.rank
    steps = L._gram_elimination[2]
    p = [1] + [steps[i][i] for i in range(n)]
    target = m * L._int_basis[0] ** 2
    D = math.lcm(target.denominator, *(p[i] * p[i + 1] for i in range(n)))
    k = [D // (p[i] * p[i + 1]) for i in range(n)]
    out: List[Tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, budget: int, on_axis: bool) -> None:
        if i < 0:
            if budget == 0:
                out.append(tuple(x))
            return
        row, ei, ki = steps[i], p[i + 1], k[i]
        c = 0
        for j in range(i + 1, n):
            if x[j]:
                c += row[j] * x[j]
        # k y^2 <= budget  <=>  |y| <= isqrt(budget // k), y = ei x_i + c
        r = math.isqrt(budget // ki)
        lo = -((c + r) // ei)
        hi = (r - c) // ei
        if on_axis:
            lo = max(lo, 0)
        for xi in range(lo, hi + 1):
            y = ei * xi + c
            x[i] = xi
            descend(i - 1, budget - ki * y * y, on_axis and xi == 0)
        x[i] = 0

    descend(n - 1, int(target * D), True)
    return [v for v in out if any(v)]


def shell(L: Lattice, norm, cache: Optional["DiskCache"] = None) -> Shell:
    norm = Fraction(norm)
    if norm <= 0:
        raise ValueError("shell norm must be positive")
    if cache is not None:
        try:
            got = cache.load_shell(L.label, norm, L._digest, L.ambient_dim)
        except ValueError:
            got = None  # a damaged file is recomputed and rewritten
        if got is not None:
            return got
    # lb * v sorts like v because lb > 0
    half = [tuple(L._combine(c)) for c in _enumerate_coords(L, norm)]
    ints = sorted(half + [tuple(-x for x in v) for v in half])
    sh = Shell(L.label, norm, tuple(ints), L._int_basis[0])
    if cache is not None:
        cache.store_shell(sh, L._digest)
    return sh


# ---------------------------------------------------------------------------
# root systems


def root_system_type(L: Lattice, cache: Optional["DiskCache"] = None) -> str:
    """ADE type of the norm-2 vectors, e.g. 'A8', 'E8', 'A2+A2', 'no roots'.

    The components are the classes of the relation "not orthogonal", and
    each is labelled by its rank and number of roots.  'not simply-laced
    root lattice' means the roots span less than L; 'unknown' means some
    root pairing is not an integer, or no type has that rank and count.
    """
    import numpy as np

    roots = shell(L, 2, cache)
    if not roots:
        return "no roots"
    # the roots are held as scale * r, so pairings are scale**2 times the
    # true ones, at most 2 * scale**2 in size: exact in int64 below 2**31
    ints = np.array(roots.ints, dtype=np.int64 if roots.scale < 2 ** 31 else object)
    pair = ints @ ints.T
    left, comps = set(range(len(roots))), []
    while left:
        walk = [left.pop()]
        for v in walk:
            near = left.intersection(np.flatnonzero(pair[v]).tolist())
            left -= near
            walk += near
        comps.append([roots.ints[i] for i in walk])
    ranks = [len(bareiss(c)[1]) for c in comps]
    if sum(ranks) < L.rank:
        return "not simply-laced root lattice"
    if (pair % roots.scale ** 2).any():
        return "unknown"
    return "+".join(sorted(_component_type(n, len(c)) for n, c in zip(ranks, comps)))


def _component_type(n: int, count: int) -> str:
    """The irreducible simply-laced type of rank n with count roots: 72, 126,
    240 for E6, E7, E8, 2n(n - 1) for D_n (n >= 4; D3 is A3) and n(n + 1) for
    A_n (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-VII)."""
    if {6: 72, 7: 126, 8: 240}.get(n) == count:
        return f"E{n}"
    if n >= 4 and count == 2 * n * (n - 1):
        return f"D{n}"
    if count == n * (n + 1):
        return f"A{n}"
    return "unknown"


# ---------------------------------------------------------------------------
# the index-3 sublattice of E8 and its glue


def sublattice_K(e8: Lattice, a: Sequence) -> Lattice:
    """The vectors of E8 pairing to a multiple of 3 with a (index 1 or 3)."""
    pairings = [dot(b, a) for b in e8.basis]
    if any(p.denominator != 1 for p in pairings):
        raise ValueError("a must pair integrally with every basis vector")
    c = [int(p) % 3 for p in pairings]
    if not any(c):
        return Lattice("K", e8.basis)
    i0 = next(i for i, x in enumerate(c) if x)
    basis: List[QVec] = []
    for j, b in enumerate(e8.basis):
        if j == i0:
            basis.append(tuple(3 * x for x in b))
        else:
            # c[i0] is 1 or 2, its own inverse mod 3
            k = (c[j] * c[i0]) % 3
            basis.append(tuple(x - k * y for x, y in zip(b, e8.basis[i0])))
    return Lattice("K", basis)


def find_a(e8: Lattice, cache: Optional["DiskCache"] = None) -> QVec:
    """The first vector whose mod-3 pairing kernel in E8 is an A8 root
    lattice of index 3.

    The search runs over the norm-8 shell in lexicographic order.  No
    shorter vector qualifies (their kernels catch 126, 84 or 78 roots),
    and the first norm-8 vector already does, so the scan is short.
    """
    import numpy as np

    roots = shell(e8, 2, cache)
    sh = shell(e8, 8, cache)
    cand, r2 = (np.array(s.ints, dtype=np.int64) for s in (sh, roots))
    # ints are scale * v, so cand @ r2.T is both scales times the true
    # dot; entries are tiny, exact in int64
    hits = (np.mod(cand @ r2.T, 3 * sh.scale * roots.scale) == 0).sum(axis=1)
    for idx in np.nonzero(hits == 72)[0]:
        a = tuple(Fraction(x, sh.scale) for x in sh.ints[int(idx)])
        K = sublattice_K(e8, a)
        if index_in(K, e8) == 3 and root_system_type(K, cache) == "A8":
            return a
    raise RuntimeError("no suitable vector found in the norm-8 shell")


def glue_vector(ell: int, i: int) -> QVec:
    """The i-th glue vector of A_ell in ell+1 ambient coordinates."""
    if not 0 <= i <= ell:
        raise ValueError(f"glue index {i} out of range 0..{ell}")
    head = [Fraction(i, ell + 1)] * (ell + 1 - i)
    tail = [Fraction(-(ell + 1 - i), ell + 1)] * i
    return tuple(head + tail)


class EmbeddingMaps:
    """Coordinate embeddings of Z^{n+1} and Z^{k+1} into Z^{(n+1)(k+1)}.

    eta(i, .) copies a vector into the i-th of k+1 blocks; iota(i, .)
    spreads a vector across blocks at offset i; mu is the sum of all iota
    maps and scales norms by n+1.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        self.block = n + 1
        self.blocks = k + 1
        self.total = (n + 1) * (k + 1)

    def eta(self, i: int, v: Sequence) -> QVec:
        if not 0 <= i <= self.k:
            raise ValueError("eta index out of range")
        vq = _qvec(v)
        if len(vq) != self.block:
            raise ValueError("eta input dimension mismatch")
        return block_embed(vq, i, self.blocks)

    def iota(self, i: int, v: Sequence) -> QVec:
        if not 0 <= i <= self.n:
            raise ValueError("iota index out of range")
        vq = _qvec(v)
        if len(vq) != self.blocks:
            raise ValueError("iota input dimension mismatch")
        out = [Fraction(0)] * self.total
        for j, x in enumerate(vq):
            out[self.block * j + i] = x
        return tuple(out)

    def mu(self, v: Sequence) -> QVec:
        out = [Fraction(0)] * self.total
        for i in range(self.block):
            out = [a + b for a, b in zip(out, self.iota(i, v))]
        return tuple(out)


@dataclass
class CosetSystem:
    """Coset representatives of a finite-index sublattice."""

    superlattice: Lattice
    sublattice: Lattice
    representatives: Tuple[QVec, ...]
    index: int
    verified: bool = False

    def verify(self) -> "CosetSystem":
        if len(self.representatives) != self.index:
            raise ValueError(
                f"expected {self.index} representatives, got {len(self.representatives)}")
        for r in self.representatives:
            if not self.superlattice.contains(r):
                raise ValueError(f"representative {r} is not in {self.superlattice.label}")
        # coords is linear on the span, so two representatives are congruent
        # exactly when their sublattice coordinates agree mod 1
        seen: Dict[QVec, int] = {}
        for j, r in enumerate(self.representatives):
            c = self.sublattice.coords(r)
            if c is None:
                raise ValueError(
                    f"representative {j} is off the span of {self.sublattice.label}")
            i = seen.setdefault(tuple(x % 1 for x in c), j)
            if i != j:
                raise ValueError(f"representatives {i} and {j} are congruent")
        self.verified = True
        return self


def coset_decomposition_A26(cache: Optional["DiskCache"] = None) -> CosetSystem:
    """81 cosets of mu(A2) + (A8 + A8 + A8) inside A26."""
    a26 = build_standard("A", 26)
    a8 = build_standard("A", 8)
    a2 = build_standard("A", 2)
    maps = EmbeddingMaps(8, 2)
    y = map_lattice(maps.mu, a2, "mu.A2")
    blocks = [map_lattice(lambda v, i=i: maps.eta(i, v), a8, f"eta{i}.A8") for i in range(3)]
    sub_basis = list(y.basis) + [r for b in blocks for r in b.basis]
    sub = Lattice("mu.A2+A8^3", sub_basis)
    idx = index_in(sub, a26)

    alpha1 = (1, -1, 0)
    alpha2 = (0, 1, -1)
    mu1 = maps.mu(alpha1)
    mu2 = maps.mu(alpha2)

    def nu1(v: QVec) -> QVec:
        return tuple(a - b for a, b in zip(maps.eta(0, v), maps.eta(1, v)))

    def nu2(v: QVec) -> QVec:
        return tuple(a - b for a, b in zip(maps.eta(1, v), maps.eta(2, v)))

    reps = []
    for i in range(9):
        for j in range(9):
            base = tuple(-Fraction(1, 9) * (i * x + j * y_) for x, y_ in zip(mu1, mu2))
            g = tuple(a + b + c for a, b, c in zip(base, nu1(glue_vector(8, i)), nu2(glue_vector(8, j))))
            reps.append(g)
    # verified on every call: a cache file only records the result
    system = CosetSystem(a26, sub, tuple(reps), idx).verify()
    if cache is not None:
        try:
            cached = cache.load_cosets(a26.label, sub.label)
        except ValueError:
            cached = None  # a damaged file is rewritten
        # so is one whose representatives are not the constructed ones
        if cached != system.representatives:
            cache.store_cosets(a26.label, sub.label, system.representatives)
    return system


# ---------------------------------------------------------------------------
# disk cache

_SHELL_HEADER = "griess-lab-shell v2"
_COSET_HEADER = "griess-lab-cosets v1"


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.^+-]", "_", label)


def _write_rows(path: str, header: str, rows: Iterable[Sequence]) -> None:
    """Write the header and one line per row to a temporary file, then move
    it into place, so no reader ever sees a half-written file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(header + "\n")
            fh.writelines(" ".join(map(str, r)) + "\n" for r in rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class DiskCache:
    """Text-file persistence for shells and coset representatives.

    A shell file holds the integer tuples of its Shell under the header
    "griess-lab-shell v2 <label> <norm> <count> <scale> <basis digest>".
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _shell_path(self, label: str, norm: Fraction) -> str:
        return os.path.join(
            self.directory, f"{_safe_name(label)}__{norm.numerator}_{norm.denominator}.v2.shell")

    def load_shell(self, label: str, norm: Fraction, digest: Optional[str] = None,
                   dim: Optional[int] = None) -> Optional[Shell]:
        """The cached shell; None when there is no file or, given a basis
        digest, when the file was written for another basis.

        Raises ValueError on a damaged file: a bad header or line count,
        rows not all dim long (the first row's length by default), or
        vectors off the norm, out of order or not closed under negation.
        """
        path = self._shell_path(label, norm)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if header[:2] != _SHELL_HEADER.split() or len(header) != 7:
                raise ValueError(f"bad shell cache header in {path}")
            got_label, got_norm, count, scale, got_digest = header[2:]
            count, scale = int(count), int(scale)
            try:
                got_norm = Fraction(got_norm)
            except ZeroDivisionError as exc:
                raise ValueError(f"shell cache {path} is damaged: {exc}") from exc
            if got_label != label or got_norm != norm:
                raise ValueError(f"shell cache {path} is for {got_label}:{got_norm}")
            if digest is not None and got_digest != digest:
                return None
            ints = tuple(tuple(map(int, line.split())) for line in fh)
        if len(ints) != count:
            raise ValueError(f"shell cache {path} truncated")
        if scale < 1:
            raise ValueError(f"shell cache {path} has scale {scale}")
        norms = {sum(map(operator.mul, v, v)) for v in ints}
        width = (dim or len(ints[0])) if ints else 0
        # negation reverses lexicographic order, so ints[k] == -ints[n-1-k]
        if (norms - {norm * scale * scale} or any(len(v) != width for v in ints)
                or any(a >= b for a, b in zip(ints, ints[1:]))
                or any(v != tuple(map(operator.neg, w)) for v, w in zip(ints, reversed(ints)))):
            raise ValueError(f"shell cache {path} is damaged")
        return Shell(label, norm, ints, scale)

    def store_shell(self, sh: Shell, digest: str) -> None:
        _write_rows(self._shell_path(sh.label, sh.norm),
                    f"{_SHELL_HEADER} {sh.label} {sh.norm} {len(sh)} {sh.scale} {digest}",
                    sh.ints)

    def _coset_path(self, sup_label: str, sub_label: str) -> str:
        return os.path.join(
            self.directory, f"{_safe_name(sup_label)}__mod__{_safe_name(sub_label)}.cosets")

    def load_cosets(self, sup_label: str, sub_label: str) -> Optional[Tuple[QVec, ...]]:
        path = self._coset_path(sup_label, sub_label)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if header[:2] != _COSET_HEADER.split() or len(header) != 5:
                raise ValueError(f"bad coset cache header in {path}")
            count = int(header[4])
            try:
                reps = tuple(tuple(map(Fraction, line.split())) for line in fh if line.strip())
            except ZeroDivisionError as exc:
                raise ValueError(f"coset cache {path} is damaged: {exc}") from exc
        if len(reps) != count:
            raise ValueError(f"coset cache {path} truncated")
        return reps

    def store_cosets(self, sup_label: str, sub_label: str, reps: Tuple[QVec, ...]) -> None:
        _write_rows(self._coset_path(sup_label, sub_label),
                    f"{_COSET_HEADER} {sup_label} {sub_label} {len(reps)}", reps)
