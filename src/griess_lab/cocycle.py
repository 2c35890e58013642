"""Bilinear 2-cocycle fixing the signs of a twisted group algebra.

For an even lattice with ordered basis b_1..b_r the table takes
eps(b_i,b_j) = <b_i,b_j> mod 2 below the diagonal turned off, on the
diagonal <b_i,b_i>/2 mod 2, above the diagonal the pairing mod 2, and
extends bilinearly.  Any bilinear solution of the two congruences

    eps(x,x) = <x,x>/2       (mod 2)
    eps(x,y) - eps(y,x) = <x,y>  (mod 2)

induces an isomorphic twisted algebra, so the triangular convention is
a harmless normalization.  On an orthogonal direct sum with the basis
ordered block by block the table is block-diagonal, which makes the
cocycle of E8+E8+E8 literally the sum of three E8 cocycles.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .lattice import Lattice


class CocycleTable:
    """Basis table of cocycle values together with bilinear evaluation."""

    def __init__(self, lattice: Lattice, bits: Tuple[Tuple[int, ...], ...]) -> None:
        self.lattice = lattice
        self.bits = bits

    def epsilon_coords(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Bilinear evaluation on integer coordinate vectors (unchecked)."""
        total = 0
        for i, xi in enumerate(x):
            if xi % 2 == 0:
                continue
            row = self.bits[i]
            for j, yj in enumerate(y):
                if yj % 2 and row[j]:
                    total ^= 1
        return total

    def _int_coords(self, v: Sequence) -> Tuple[int, ...]:
        c = self.lattice.coords(v)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError(f"vector {tuple(v)} is not in {self.lattice.label}")
        return tuple(int(x) for x in c)

    def epsilon(self, gamma: Sequence, delta: Sequence) -> int:
        return self.epsilon_coords(self._int_coords(gamma), self._int_coords(delta))


def build_epsilon0(L: Lattice) -> CocycleTable:
    """Upper-triangular cocycle table of an even integral lattice."""
    g = L.gram
    bits = []
    for i in range(L.rank):
        row = []
        for j in range(L.rank):
            v = g.rows[i][j]
            if v.denominator != 1:
                raise ValueError(f"{L.label} is not integral")
            if i < j:
                row.append(int(v) % 2)
            elif i == j:
                if int(v) % 2:
                    raise ValueError(f"{L.label} is not even")
                row.append((int(v) // 2) % 2)
            else:
                row.append(0)
        bits.append(tuple(row))
    return CocycleTable(L, tuple(bits))


def verify_triviality(T: CocycleTable, S: Lattice) -> bool:
    """True when the cocycle vanishes on all basis pairs of the sublattice.

    Sufficient for triviality on S by bilinearity.
    """
    coords = [T._int_coords(b) for b in S.basis]
    return all(
        T.epsilon_coords(x, y) == 0 and T.epsilon_coords(y, x) == 0
        for x in coords for y in coords)
