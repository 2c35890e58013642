"""Exact scalar and matrix arithmetic.

Two scalar domains are used throughout the package:

* plain rationals, represented by :class:`fractions.Fraction`;
* the quadratic extension Q(zeta) with zeta a primitive cube root of
  unity, represented by :class:`Eisenstein` in the basis {1, zeta}
  subject to zeta**2 = -1 - zeta.

On top of these sits a small dense matrix toolkit (reduced row echelon
form, kernel, solving, inverse, determinant, eigenspaces for a supplied
eigenvalue).  Everything is exact; no floating point is ever produced.
"""

from __future__ import annotations

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
Rows = Sequence[Sequence[Scalar]]


class Matrix:
    """A dense matrix over Fraction or Eisenstein entries.

    The entry type only needs field arithmetic and comparison with 0;
    Fraction and Eisenstein both qualify, and int entries are stored as
    Fractions so that division stays exact.  Instances are treated as
    immutable once constructed.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Rows) -> None:
        self.rows: Tuple[Tuple[Scalar, ...], ...] = tuple(
            tuple(Fraction(x) if isinstance(x, int) else x for x in r) for r in rows)
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

        Exact Gauss-Jordan elimination with division by the pivot; with
        Fraction entries every intermediate value is automatically kept
        in lowest terms.
        """
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots: List[int] = []
        row = 0
        for col in range(nc):
            pivot_row = None
            for i in range(row, nr):
                if m[i][col] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[row], m[pivot_row] = m[pivot_row], m[row]
            pv = m[row][col]
            m[row] = [x / pv for x in m[row]]
            for i in range(nr):
                if i != row and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[row])]
            pivots.append(col)
            row += 1
            if row == nr:
                break
        return Matrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[Vector]:
        """A basis of the right kernel {x : M x = 0}, one vector per free column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis: List[Vector] = []
        for fc in free:
            v: List[Scalar] = [Q(0)] * self.ncols
            v[fc] = Q(1)
            for i, pc in enumerate(pivots):
                v[pc] = -red.rows[i][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Sequence[Scalar]) -> Optional[Vector]:
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
        aug = Matrix([list(r) + [Q(1) if i == j else Q(0) for j in range(n)]
                      for i, r in enumerate(self.rows)])
        red, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([r[n:] for r in red.rows])

    def det(self) -> Scalar:
        """Determinant by exact elimination, tracking row swaps."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        m = [list(r) for r in self.rows]
        n = self.nrows
        det: Scalar = Q(1)
        sign = 1
        for col in range(n):
            pivot_row = None
            for i in range(col, n):
                if m[i][col] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                return Q(0)
            if pivot_row != col:
                m[col], m[pivot_row] = m[pivot_row], m[col]
                sign = -sign
            pv = m[col][col]
            det = det * pv
            inv = 1 / pv
            for i in range(col + 1, n):
                if m[i][col] != 0:
                    f = m[i][col] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[col])]
        return det * sign

    def eigenspace(self, lam: Scalar) -> List[Vector]:
        """Basis of the eigenspace for the supplied eigenvalue lam (possibly empty)."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        shifted = Matrix([
            [e - lam if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(self.rows)
        ])
        return shifted.kernel_basis()


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    total: Scalar = Q(0)
    for a, b in zip(u, v):
        total = total + a * b
    return total


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Standard inner product of two coordinate vectors."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return _dot(u, v)
