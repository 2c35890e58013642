"""Exact scalar and matrix arithmetic.

Two scalar domains are used throughout the package:

* plain rationals, represented by :class:`fractions.Fraction`;
* the quadratic extension Q(zeta) with zeta a primitive cube root of
  unity, represented by :class:`Eisenstein` in the basis {1, zeta}
  subject to zeta**2 = -1 - zeta.

On top of these sits a small dense matrix toolkit over the rationals
(products, reduced row echelon form, rank, solving, inverse,
determinant).  All of it runs on one exact elimination, :func:`bareiss`,
a fraction-free integer pass that the callers feed with their rationals
scaled to integers by :func:`_common_scale`.  No floating point is ever
produced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

Q = Fraction

Scalar = Union[int, Fraction, "Eisenstein"]


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _common_scale(v: Sequence) -> Tuple[List[int], int]:
    """Integers n and the least s >= 1 with v == n / s."""
    vq = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    s = math.lcm(*(x.denominator for x in vq))
    return [x.numerator * (s // x.denominator) for x in vq], s


def bareiss(rows: Sequence[Sequence[int]]
            ) -> Tuple[List[List[int]], Tuple[int, ...], int, List[List[int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Returns (red, pivots, det, steps): red is d * RREF with d the last
    pivot (1 for a zero matrix) and pivots its pivot columns; det is the
    determinant of the leading nrows x nrows block (0 when that block is
    singular or missing); steps[k] is row k as it becomes the pivot row,
    recorded until the first row swap, so steps[k][k] is the (k+1)-th
    leading principal minor.  Every division by the previous pivot is
    exact, and columns with no pivot candidate are skipped.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    pivots: List[int] = []
    steps: List[List[int]] = []
    prev, sign = 1, 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == nr:
            break
        p = next((i for i in range(k, nr) if m[i][col]), None)
        if p is None:
            continue
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        elif len(steps) == k:
            steps.append(m[k])
        pk, rk = m[k][col], m[k]
        for i in range(nr):
            if i != k:
                f, ri = m[i][col], m[i]
                m[i] = [(pk * a - f * b) // prev for a, b in zip(ri, rk)]
        pivots.append(col)
        prev = pk
    det = sign * prev if pivots == list(range(nr)) else 0
    return m, tuple(pivots), det, steps


class Eisenstein:
    """An element a + b*zeta of Q(zeta) with zeta**2 = -1 - zeta.

    Instances are immutable and hashable.  Mixed arithmetic with int and
    Fraction is supported and returns Eisenstein values; an element with
    b == 0 behaves like (and compares equal to) its rational part.
    """

    __slots__ = ("_re", "_zc")

    def __init__(self, re: Union[int, Fraction] = 0, zc: Union[int, Fraction] = 0) -> None:
        self._re = _as_fraction(re)
        self._zc = _as_fraction(zc)

    @property
    def re(self) -> Fraction:
        """Coefficient of 1."""
        return self._re

    @property
    def zc(self) -> Fraction:
        """Coefficient of zeta."""
        return self._zc

    def rational_part(self) -> Fraction:
        """The value as a Fraction; raises if the zeta coefficient is nonzero."""
        if self._zc != 0:
            raise ValueError(f"{self!r} is not rational")
        return self._re

    def conj(self) -> "Eisenstein":
        """Complex conjugation, zeta -> zeta**2 = -1 - zeta."""
        return Eisenstein(self._re - self._zc, -self._zc)

    @property
    def norm(self) -> Fraction:
        """Multiplicative norm self * self.conj() = a**2 - a*b + b**2."""
        a, b = self._re, self._zc
        return a * a - a * b + b * b

    def __bool__(self) -> bool:
        return self._re != 0 or self._zc != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Eisenstein):
            return self._re == other._re and self._zc == other._zc
        if isinstance(other, (int, Fraction)):
            return self._zc == 0 and self._re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._zc == 0:
            return hash(self._re)
        return hash((self._re, self._zc))

    def __add__(self, other: Scalar) -> "Eisenstein":
        if isinstance(other, Eisenstein):
            return Eisenstein(self._re + other._re, self._zc + other._zc)
        if isinstance(other, (int, Fraction)):
            return Eisenstein(self._re + other, self._zc)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self._re, -self._zc)

    def __sub__(self, other: Scalar) -> "Eisenstein":
        if isinstance(other, Eisenstein):
            return Eisenstein(self._re - other._re, self._zc - other._zc)
        if isinstance(other, (int, Fraction)):
            return Eisenstein(self._re - other, self._zc)
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "Eisenstein":
        if isinstance(other, (int, Fraction)):
            return Eisenstein(other - self._re, -self._zc)
        return NotImplemented

    def __mul__(self, other: Scalar) -> "Eisenstein":
        # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2, z^2 = -1 - z.
        if isinstance(other, Eisenstein):
            a, b = self._re, self._zc
            c, d = other._re, other._zc
            return Eisenstein(a * c - b * d, a * d + b * c - b * d)
        if isinstance(other, (int, Fraction)):
            return Eisenstein(self._re * other, self._zc * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Eisenstein":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Eisenstein(self._re / other, self._zc / other)
        if isinstance(other, Eisenstein):
            n = other.norm
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return (self * other.conj()) / n
        return NotImplemented

    def __rtruediv__(self, other: Scalar) -> "Eisenstein":
        if isinstance(other, (int, Fraction)):
            return Eisenstein(other) / self
        return NotImplemented

    def __pow__(self, n: int) -> "Eisenstein":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"Eisenstein({self._re!r}, {self._zc!r})"

    def __str__(self) -> str:
        if self._zc == 0:
            return str(self._re)
        if self._re == 0:
            return f"{self._zc}*zeta"
        return f"{self._re} + {self._zc}*zeta"


ZERO = Eisenstein(0)
ONE = Eisenstein(1)
ZETA = Eisenstein(0, 1)
SQRT_MINUS_3 = Eisenstein(1, 2)  # (1 + 2*zeta)**2 == -3

Vector = Tuple[Scalar, ...]


class Matrix:
    """A dense matrix over the rationals.

    Entries are stored as Fractions (int entries are converted, anything
    else raises TypeError), and every elimination scales each row to
    integers and runs :func:`bareiss`.  Instances are treated as
    immutable once constructed.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Union[int, Fraction]]]) -> None:
        self.rows: Tuple[Tuple[Fraction, ...], ...] = tuple(
            tuple(map(_as_fraction, r)) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Matrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows))) if self.rows else Matrix([])

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return Matrix([[_dot(r, c) for c in cols] for r in self.rows])

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(_dot(r, v) for r in self.rows)

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Scaling a row does not change the form, so this is bareiss of the
        rows scaled to integers, divided by the last pivot.
        """
        red, pivots, _, _ = bareiss([_common_scale(r)[0] for r in self.rows])
        d = red[0][pivots[0]] if pivots else 1
        return Matrix([[Fraction(x, d) for x in r] for r in red]), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def solve(self, b: Sequence[Union[int, Fraction]]) -> Optional[Vector]:
        """One solution x of M x = b, or None when the system is inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("shape mismatch")
        aug = Matrix([list(r) + [bi] for r, bi in zip(self.rows, b)])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x: List[Scalar] = [Q(0)] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = red.rows[i][self.ncols]
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        red, pivots = Matrix([list(r) + [int(i == j) for j in range(n)]
                              for i, r in enumerate(self.rows)]).rref()
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([r[n:] for r in red.rows])

    def det(self) -> Fraction:
        """bareiss's det of the rows scaled to integers over the row scales."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        scaled = [_common_scale(r) for r in self.rows]
        return Fraction(bareiss([n for n, _ in scaled])[2],
                        math.prod(s for _, s in scaled))


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    total: Scalar = Q(0)
    for a, b in zip(u, v):
        if a:
            total = total + a * b
    return total


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Standard inner product of two coordinate vectors."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return _dot(u, v)
