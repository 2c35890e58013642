"""Bilinear 2-cocycle fixing the signs of a twisted group algebra.

For an even lattice with ordered basis b_1..b_r the table is the 0/1
matrix B with <b_i,b_j> mod 2 above the diagonal, <b_i,b_i>/2 mod 2 on
it and 0 below it, and eps(x,y) = (x mod 2) B (y mod 2) mod 2 on integer
coordinate vectors.  Any bilinear solution of the two congruences

    eps(x,x) = <x,x>/2       (mod 2)
    eps(x,y) - eps(y,x) = <x,y>  (mod 2)

induces an isomorphic twisted algebra, so the triangular convention is
a harmless normalization.  On an orthogonal direct sum with the basis
ordered block by block the table is block-diagonal, which makes the
cocycle of E8+E8+E8 literally the sum of three E8 cocycles.

This module owns B and that rule: the Fock engine memoizes each
exponent's `left_half`, and every evaluation here is one array product.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .lattice import Lattice


def _mod2(x):
    """x mod 2 as a 0/1 int64 array.  Anything but a numpy array is read
    as Python ints and reduced before it becomes int64, so coordinates of
    any size are exact."""
    import numpy as np

    a = x if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
    return (a % 2).astype(np.int64)


class CocycleTable:
    """The basis table B (an r x r 0/1 int64 array) and the rule eps."""

    def __init__(self, lattice: Lattice, bits) -> None:
        self.lattice = lattice
        self.bits = bits

    def left_half(self, x):
        """(x mod 2) B mod 2 for a coordinate vector, or for each row of an
        array of them."""
        return _mod2(x) @ self.bits % 2

    def epsilon_coords(self, x, y):
        """eps on two integer coordinate vectors (an int), or row by row on
        two equally long arrays of them (a 0/1 array); unchecked."""
        e = (self.left_half(x) * _mod2(y)).sum(axis=-1) % 2
        return e if e.ndim else int(e)

    def _int_coords(self, v: Sequence) -> Tuple[int, ...]:
        c = self.lattice.coords(v)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError(f"vector {tuple(v)} is not in {self.lattice.label}")
        return tuple(int(x) for x in c)

    def epsilon(self, gamma: Sequence, delta: Sequence) -> int:
        return self.epsilon_coords(self._int_coords(gamma), self._int_coords(delta))


def build_epsilon0(L: Lattice) -> CocycleTable:
    """Upper-triangular cocycle table of an even integral lattice, read off
    its integer Gram matrix (lb**2 times the true one)."""
    import numpy as np

    lb2 = L._int_basis[0] ** 2
    g = np.array(L._int_gram, dtype=object).reshape(L.rank, L.rank)
    if (g % lb2).any():
        raise ValueError(f"{L.label} is not integral")
    g //= lb2
    if (g.diagonal() % 2).any():
        raise ValueError(f"{L.label} is not even")
    bits = np.triu(g % 2, 1) + np.diag(g.diagonal() // 2 % 2)
    return CocycleTable(L, bits.astype(np.int64))


def verify_triviality(T: CocycleTable, S: Lattice) -> bool:
    """True when the cocycle vanishes on all ordered basis pairs of the
    sublattice, read off one product of the basis coordinate rows.

    Sufficient for triviality on S by bilinearity.
    """
    coords = [T._int_coords(b) for b in S.basis]
    return not (T.left_half(coords) @ _mod2(coords).T % 2).any()
