"""Weight-capped lattice vertex algebra engine over Q(zeta3).

States live in the weight <= 2 part of the Fock space of an even
lattice: sparse Eisenstein-linear combinations of monomials

    eps_{k1}(-n1) ... eps_{kr}(-nr) e^gamma,

with oscillator directions drawn from the standard ambient coordinate
frame and exponents stored as doubled integer vectors (so E8-style
half-integer coordinates stay integral).  The engine implements the
Heisenberg modes, the modes of exponential states via the closed
double-exponential expansion, the Griess product a.b = a_1 b, and the
weight-2 pairing <a,b>1 = a_3 b, all exactly.

Inside a mode application every coefficient is an Eisenstein integer
re + zc*zeta: each operand is scaled by the common denominator of its
coefficients on entry, the kernel adds plain ints over one denominator
fixed per call, and Fraction/Eisenstein coefficients are rebuilt once per
output term on exit.

The mode conventions are the usual ones: [h(m), h'(n)] = m<h,h'>
delta_{m+n,0}, h(0)e^gamma = <h,gamma> e^gamma, and

    Y(e^beta, z) = exp(sum beta(-n)/n z^n) exp(-sum beta(n)/n z^-n)
                   e_beta z^beta(0),

with e_beta e_gamma = (-1)^eps(beta,gamma) e_{beta+gamma} for the
bilinear 2-cocycle eps.  A mode application lands in weight
wt(a) + wt(b) - n - 1; anything that would exceed weight 2 raises.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cocycle import CocycleTable, build_epsilon0
from .lattice import (
    DiskCache,
    EmbeddingMaps,
    Lattice,
    annihilator,
    block_embed,
    build_standard,
    direct_sum,
    find_a,
    index_in,
    lattice_sum,
    scaled_ints,
    shell,
    sublattice_K,
)
from .numerics import Eisenstein, Matrix, ONE, Q, ZERO, ZETA, dot

Osc = Tuple[Tuple[int, int], ...]      # sorted ((mode >= 1, frame index), ...)
Gamma = Tuple[int, ...]                # doubled exponent coordinates
Monomial = Tuple[Osc, Gamma]
Num = Tuple[Monomial, int, int]        # (monomial, re, zc): numerator re + zc*zeta

_F0 = Fraction(0)


class WeightOverflowError(ValueError):
    """A mode application would leave the weight <= 2 sector."""


def _wt8(mono: Monomial) -> int:
    """Eight times the weight of a monomial (an integer, as 8|gamma|^2/2
    is the sum of squares of the doubled coordinates)."""
    osc, g2 = mono
    return 8 * sum(n for n, _ in osc) + sum(map(operator.mul, g2, g2))


def _as_eis(c) -> Eisenstein:
    return c if isinstance(c, Eisenstein) else Eisenstein(Fraction(c))


@functools.lru_cache(maxsize=None)
def _subsets(size: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(itertools.chain.from_iterable(
        itertools.combinations(range(size), r) for r in range(size + 1)))


class FockState:
    """Sparse exact linear combination of Fock monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Eisenstein]] = None) -> None:
        self.terms: Dict[Monomial, Eisenstein] = {}
        if terms:
            for mono, c in terms.items():
                c = _as_eis(c)
                if c:
                    self.terms[mono] = c

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, FockState) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "FockState") -> "FockState":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return FockState(out) if out else FockState()

    def __sub__(self, other: "FockState") -> "FockState":
        return self + other.scale(-1)

    def scale(self, c) -> "FockState":
        c = _as_eis(c)
        if not c:
            return FockState()
        return FockState({m: v * c for m, v in self.terms.items()})

    def weight(self) -> Fraction:
        ws = {_wt8(m) for m in self.terms}
        if not ws:
            raise ValueError("the zero state has no weight")
        if len(ws) > 1:
            raise ValueError(
                f"state is not homogeneous: weights {sorted(Q(w, 8) for w in ws)}")
        return Q(ws.pop(), 8)

    def exponents(self) -> List[Gamma]:
        return sorted({g2 for _, g2 in self.terms})

    def coefficient(self, mono: Monomial) -> Eisenstein:
        return self.terms.get(mono, ZERO)


def _numerators(s: FockState) -> Tuple[int, List[Num]]:
    """The terms of s as Eisenstein-integer numerators over the least
    common denominator of its coefficients."""
    den = math.lcm(*(x.denominator for c in s.terms.values() for x in (c.re, c.zc)))
    return den, [(mono, c.re.numerator * (den // c.re.denominator),
                  c.zc.numerator * (den // c.zc.denominator))
                 for mono, c in s.terms.items()]


class _Accumulator:
    """A sum of terms as Eisenstein-integer numerators re + zc*zeta over
    one denominator that the caller fixes."""

    __slots__ = ("re", "zc")

    def __init__(self) -> None:
        self.re: Dict[Monomial, int] = {}
        self.zc: Dict[Monomial, int] = {}

    def add(self, mono: Monomial, re: int, zc: int) -> None:
        if re:
            self.re[mono] = self.re.get(mono, 0) + re
        if zc:
            self.zc[mono] = self.zc.get(mono, 0) + zc

    def terms(self) -> List[Num]:
        """The nonzero terms."""
        re, zc = self.re, self.zc
        out = [(m, r, zc.get(m, 0)) for m, r in re.items() if r or zc.get(m, 0)]
        out.extend((m, 0, z) for m, z in zc.items() if z and m not in re)
        return out

    def state(self, den: int) -> FockState:
        """The sum with every numerator divided by den."""
        out = FockState()
        out.terms = {m: Eisenstein(Fraction(r, den) if r else _F0,
                                   Fraction(z, den) if z else _F0)
                     for m, r, z in self.terms()}
        return out


class FockSpace:
    """Weight <= 2 Fock sector of an even lattice with a fixed cocycle."""

    def __init__(self, lattice: Lattice, cocycle: Optional[CocycleTable] = None) -> None:
        self.lattice = lattice
        self.dim = lattice.ambient_dim
        self.cocycle = cocycle if cocycle is not None else build_epsilon0(lattice)
        if self.cocycle.lattice is not lattice:
            raise ValueError("cocycle table belongs to a different lattice")
        self._masks: Dict[Gamma, Tuple[int, int]] = {}
        self._zero = (0,) * self.dim

    # -- state constructors ------------------------------------------------

    def vacuum(self) -> FockState:
        return FockState({((), self._zero): ONE})

    def exp_state(self, gamma: Sequence, coeff=1) -> FockState:
        g2 = scaled_ints(gamma, 2)
        self._mask_pair(g2)  # membership check
        if _wt8(((), g2)) > 16:
            raise WeightOverflowError("exponent norm exceeds the weight cap")
        return FockState({((), g2): _as_eis(coeff)})

    def oscillator_state(self, factors: Sequence[Tuple[Sequence, int]], coeff=1,
                         gamma: Optional[Sequence] = None) -> FockState:
        """Product of creation operators h(-n), applied left to right to e^gamma."""
        s = self.exp_state(gamma, coeff) if gamma is not None else FockState(
            {((), self._zero): _as_eis(coeff)})
        for h, n in reversed(list(factors)):
            if n <= 0:
                raise ValueError("creation factors need n >= 1")
            s = self.heisenberg_mode(h, -n, s)
        return s

    # -- cocycle plumbing --------------------------------------------------

    def _mask_pair(self, g2: Gamma) -> Tuple[int, int]:
        got = self._masks.get(g2)
        if got is not None:
            return got
        if g2 == self._zero:
            pair = (0, 0)
            self._masks[g2] = pair
            return pair
        coords = self.lattice.coords(tuple(Q(x, 2) for x in g2))
        if coords is None or any(c.denominator != 1 for c in coords):
            raise ValueError("exponent is not a lattice vector")
        ints = [int(c) for c in coords]
        col = 0
        for i, c in enumerate(ints):
            if c % 2:
                col |= 1 << i
        bits = self.cocycle.bits
        row = 0
        for j in range(len(ints)):
            parity = 0
            for i, c in enumerate(ints):
                if c % 2 and bits[i][j]:
                    parity ^= 1
            if parity:
                row |= 1 << j
        pair = (col, row)
        self._masks[g2] = pair
        return pair

    def _eps_sign(self, beta2: Gamma, gamma2: Gamma) -> int:
        row = self._mask_pair(beta2)[1]
        col = self._mask_pair(gamma2)[0]
        return -1 if bin(row & col).count("1") % 2 else 1

    # -- the integer mode kernel ------------------------------------------------
    #
    # The private routines below take terms as numerators over a common
    # denominator and add (c * result) << shift to an _Accumulator.  Every
    # rational factor they meet is an integer over a power of two, so each
    # routine spends part of shift on its halvings; a routine asked for
    # more halvings than its shift allows raises ValueError ("negative
    # shift count") instead of rounding.

    def _heisenberg(self, out: _Accumulator, h: Dict[int, int], m: int,
                    terms: List[Num], cr: int, cz: int, shift: int) -> None:
        """h(m) on terms for h = sum_k h[k] eps_k, h a sparse direction of
        nonzero integers.

        Only h(0) halves: its eigenvalue on e^gamma is h . gamma2 / 2.
        """
        for mono, br, bz in terms:
            osc, g2 = mono
            if m == 0:
                v = sum(x * g2[k] for k, x in h.items())
                landed = [(mono, v << (shift - 1))] if v else []
            elif m > 0:
                landed = [((osc[:i] + osc[i + 1:], g2), (m * h[k]) << shift)
                          for i, (j, k) in enumerate(osc) if j == m and k in h]
            else:
                new_wt8 = _wt8(mono) - 8 * m
                if new_wt8 > 16:
                    raise WeightOverflowError(
                        f"h({m}) would create weight {Q(new_wt8, 8)}")
                landed = [((tuple(sorted(osc + ((-m, k),))), g2), x << shift)
                          for k, x in h.items()]
            if landed:
                r, z = cr * br - cz * bz, cr * bz + cz * br - cz * bz
                for new, f in landed:
                    out.add(new, r * f, z * f)

    def _exp_modes(self, out: _Accumulator, a_exp: List[Num], n: int,
                   b: List[Num], shift: int) -> None:
        """The n-th modes of the pure exponentials a_exp applied to b.

        A pair (e^beta, monomial of b) can land a term only when
        d_max = -n - 1 - <beta, gamma> + W >= 0, W being the monomial's
        oscillator weight.  All pairings come from one exact int64 product
        of the doubled exponents (4 <beta, gamma>), and only the pairs that
        pass the test are expanded.  A landing term carries -beta_k for
        each contracted oscillator and a creation layer of weight d, so it
        halves at most (oscillators of b) + 3 times.
        """
        if not a_exp or not b:
            return
        A = np.array([g2 for (_, g2), _, _ in a_exp], dtype=np.int64)
        B = np.array([g2 for (_, g2), _, _ in b], dtype=np.int64)
        S = A @ B.T
        if (S % 4).any():
            raise ValueError("non-integral pairing between exponents")
        W = np.array([sum(m for m, _ in osc) for (osc, _), _, _ in b], dtype=np.int64)
        rows, cols = np.nonzero(4 * (W - n - 1) - S >= 0)
        # 8 * (wt(monomial) + wt(e^beta) - n - 1), the weight every landing term has
        out_wt8 = (np.einsum("ij,ij->i", A, A)[rows]
                   + (8 * W + np.einsum("ij,ij->i", B, B))[cols] - 8 * (n + 1))
        for i, j, bg, wt8, joined in zip(rows.tolist(), cols.tolist(),
                                         (S[rows, cols] // 4).tolist(),
                                         out_wt8.tolist(),
                                         (A[rows] + B[cols]).tolist()):
            (_, beta2), ar, az = a_exp[i]
            (osc, g2), br, bz = b[j]
            sign = self._eps_sign(beta2, g2)
            r = sign * (ar * br - az * bz)
            z = sign * (ar * bz + az * br - az * bz)
            new_g2 = tuple(joined)
            for subset in _subsets(len(osc)):
                d = -n - 1 - bg
                for t in subset:
                    d += osc[t][0]
                if d < 0:
                    continue
                f = 1
                for t in subset:
                    f *= -beta2[osc[t][1]]
                if not f:
                    continue
                # a term really lands here, so the cap is enforced only now
                if wt8 > 16 or d > 2:
                    raise WeightOverflowError(
                        f"exp mode {n} would create weight {Q(wt8, 8)}")
                rest = tuple(o for t, o in enumerate(osc) if t not in subset)
                self._emit_creation_layer(out, rest, new_g2, d, beta2,
                                          r * f, z * f, shift - len(subset))

    def _emit_creation_layer(self, out: _Accumulator, osc: Osc, g2: Gamma,
                             d: int, beta2: Gamma, r: int, z: int,
                             shift: int) -> None:
        """The weight-d part of exp(sum_j beta(-j) z^j / j) on osc e^g2:
        1, beta(-1), or beta(-1)^2/2 + beta(-2)/2."""
        if d == 0:
            out.add((osc, g2), r << shift, z << shift)
            return
        support = [(k, x) for k, x in enumerate(beta2) if x]
        if d == 1:
            # beta_k = beta2[k] / 2
            shift -= 1
            layer = [(((1, k),), x) for k, x in support]
        else:
            # over 8: beta_k beta_l = 2 beta2[k] beta2[l], beta_k^2 / 2 =
            # beta2[k]^2 and beta_k / 2 = 2 beta2[k]
            shift -= 3
            layer = [(((1, k), (1, l)), x * y if k == l else 2 * x * y)
                     for i, (k, x) in enumerate(support) for l, y in support[i:]]
            layer += [(((2, k),), 2 * x) for k, x in support]
        for added, w in layer:
            f = w << shift
            out.add((tuple(sorted(osc + added)) if osc else added, g2), r * f, z * f)

    def _quad_mode(self, out: _Accumulator, k: int, l: int, n: int,
                   b: List[Num], cr: int, cz: int, shift: int) -> None:
        # (eps_k(-1)eps_l(-1)1)_n = sum_{m<=-1} k(m) l(n-1-m) + sum_{m>=0} l(n-1-m) k(m)
        ek, el = {k: 1}, {l: 1}
        for m in range(-2, 3):
            inner = _Accumulator()
            if m < 0:
                self._heisenberg(inner, el, n - 1 - m, b, 1, 0, 1)
                outer, m_outer = ek, m
            else:
                self._heisenberg(inner, ek, m, b, 1, 0, 1)
                outer, m_outer = el, n - 1 - m
            terms = inner.terms()
            if terms:
                self._heisenberg(out, outer, m_outer, terms, cr, cz, shift - 1)

    def _mixed_mode(self, out: _Accumulator, k: int, g2: Gamma, n: int,
                    b: List[Num], cr: int, cz: int, shift: int) -> None:
        # (eps_k(-1)e^gamma)_n by the same normal-ordered splitting
        ek, e_gamma = {k: 1}, [(((), g2), cr, cz)]
        for m in range(-2, 0):
            inner = _Accumulator()
            self._exp_modes(inner, e_gamma, n - 1 - m, b, shift - 1)
            terms = inner.terms()
            if terms:
                self._heisenberg(out, ek, m, terms, 1, 0, 1)
        for m in range(0, 3):
            inner = _Accumulator()
            self._heisenberg(inner, ek, m, b, 1, 0, 1)
            self._exp_modes(out, e_gamma, n - 1 - m, inner.terms(), shift - 1)

    # -- public modes ----------------------------------------------------------

    def heisenberg_mode(self, h: Sequence, m: int, s: FockState) -> FockState:
        hq = tuple(Fraction(x) for x in h)
        if len(hq) != self.dim:
            raise ValueError("direction has wrong ambient dimension")
        dh = math.lcm(*(x.denominator for x in hq))
        direction = {k: x.numerator * (dh // x.denominator)
                     for k, x in enumerate(hq) if x}
        den, terms = _numerators(s)
        out = _Accumulator()
        self._heisenberg(out, direction, m, terms, 1, 0, 1)
        return out.state(den * dh * 2)

    def exp_mode(self, beta: Sequence, n: int, s: FockState) -> FockState:
        beta2 = scaled_ints(beta, 2)
        self._mask_pair(beta2)
        den, terms = _numerators(s)
        shift = max((len(osc) for (osc, _), _, _ in terms), default=0) + 3
        out = _Accumulator()
        self._exp_modes(out, [(((), beta2), 1, 0)], n, terms, shift)
        return out.state(den << shift)

    def apply_mode(self, a: FockState, n: int, b: FockState) -> FockState:
        da, a_terms = _numerators(a)
        db, b_terms = _numerators(b)
        # exponential modes halve at most (oscillators of b) + 3 times, and
        # the eps_k(-1)e^gamma and quadratic states add one h(0) eigenvalue
        shift = max((len(osc) for (osc, _), _, _ in b_terms), default=0) + 4
        out = _Accumulator()
        a_exp: List[Num] = []
        for term in a_terms:
            (osc, g2), cr, cz = term
            is_exp = any(g2)
            if not osc and not is_exp:
                if n == -1:
                    for m2, br, bz in b_terms:
                        out.add(m2, (cr * br - cz * bz) << shift,
                                (cr * bz + cz * br - cz * bz) << shift)
                continue
            if not osc:
                a_exp.append(term)
            elif not is_exp and len(osc) == 1 and osc[0][0] == 1:
                self._heisenberg(out, {osc[0][1]: 1}, n, b_terms, cr, cz, shift)
            elif not is_exp and len(osc) == 1 and osc[0][0] == 2:
                if n != 0:
                    self._heisenberg(out, {osc[0][1]: 1}, n - 1, b_terms,
                                     -n * cr, -n * cz, shift)
            elif not is_exp and len(osc) == 2:
                (n1, k) = osc[0]
                (n2, l) = osc[1]
                if (n1, n2) != (1, 1):
                    raise NotImplementedError("only weight-2 left states are supported")
                self._quad_mode(out, k, l, n, b_terms, cr, cz, shift)
            elif is_exp and len(osc) == 1 and osc[0][0] == 1:
                self._mixed_mode(out, osc[0][1], g2, n, b_terms, cr, cz, shift)
            else:
                raise NotImplementedError("left state exceeds weight 2")
        self._exp_modes(out, a_exp, n, b_terms, shift)
        return out.state(da * db << shift)

    # -- Griess product and pairing -------------------------------------------

    def griess_product(self, a: FockState, b: FockState) -> FockState:
        if a.weight() != 2 or b.weight() != 2:
            raise ValueError("the Griess product is defined on weight-2 states")
        return self.apply_mode(a, 1, b)

    def invariant_form(self, a: FockState, b: FockState) -> Eisenstein:
        if a.weight() != 2 or b.weight() != 2:
            raise ValueError("the weight-2 pairing needs homogeneous weight-2 states")
        da, a_terms = _numerators(a)
        db, b_terms = _numerators(b)
        by_gamma: Dict[Gamma, List[Tuple[Osc, int, int]]] = {}
        for (osc, g2), br, bz in b_terms:
            by_gamma.setdefault(g2, []).append((osc, br, bz))
        re = zc = 0
        for (osc_a, g2), ar, az in a_terms:
            neg = tuple(map(operator.neg, g2))
            partners = by_gamma.get(neg)
            if not partners:
                continue
            sign = self._eps_sign(g2, neg)
            for osc_b, br, bz in partners:
                val = _pair_value4(osc_a, osc_b, g2) * sign
                if val:
                    re += (ar * br - az * bz) * val
                    zc += (ar * bz + az * br - az * bz) * val
        den = 4 * da * db
        return Eisenstein(Fraction(re, den), Fraction(zc, den))

    # -- standard states -------------------------------------------------------

    def virasoro_of_subspace(self, S) -> FockState:
        basis = S.basis if isinstance(S, Lattice) else [tuple(Fraction(x) for x in v) for v in S]
        g = Matrix([[dot(u, v) for v in basis] for u in basis])
        ginv = g.inverse()
        r, d = len(basis), self.dim
        proj = [[Q(0)] * d for _ in range(d)]
        for i in range(r):
            for j in range(r):
                w = ginv.rows[i][j]
                if not w:
                    continue
                bi, bj = basis[i], basis[j]
                for k in range(d):
                    if bi[k]:
                        for l in range(d):
                            if bj[l]:
                                proj[k][l] += w * bi[k] * bj[l]
        terms: Dict[Monomial, Eisenstein] = {}
        for k in range(d):
            for l in range(k, d):
                w = proj[k][l] if k != l else proj[k][k] / 2
                if w:
                    terms[(((1, k), (1, l)), self._zero)] = Eisenstein(w)
        return FockState(terms)

    def ising_of_sqrt2E8(self, S: Lattice, cache: Optional[DiskCache] = None) -> FockState:
        if shell(S, 2, cache).vectors:
            raise ValueError(f"{S.label} has roots; not a sqrt(2)E8 copy")
        quartic = shell(S, 4, cache)
        if len(quartic.vectors) != 240:
            raise ValueError(
                f"{S.label} has {len(quartic.vectors)} norm-4 vectors, expected 240")
        s = self.virasoro_of_subspace(S).scale(Q(1, 16))
        for v in quartic.vectors:
            s = s + self.exp_state(v, Q(1, 32))
        return s

    # -- automorphisms ---------------------------------------------------------

    def rho_twist(self, a: Sequence, k: int, s: FockState) -> FockState:
        if self.dim != 3 * len(tuple(a)):
            raise ValueError("twist vector must live in one block of a triple sum")
        a2 = scaled_ints(a, 2)
        tilde = tuple(a2) + tuple(-x for x in a2) + (0,) * len(a2)
        out: Dict[Monomial, Eisenstein] = {}
        for (osc, g2), c in s.terms.items():
            t = sum(x * y for x, y in zip(tilde, g2))
            if t % 4:
                raise ValueError("non-integral twist pairing")
            e = (k * (t // 4)) % 3
            out[(osc, g2)] = c * ZETA ** e if e else c
        return FockState(out)

    def theta(self, s: FockState) -> FockState:
        out: Dict[Monomial, Eisenstein] = {}
        for (osc, g2), c in s.terms.items():
            neg = tuple(-x for x in g2)
            out[(osc, neg)] = c if len(osc) % 2 == 0 else -c
        return FockState(out)

    def translate(self, s: FockState) -> FockState:
        """L(-1) on weight <= 1 states."""
        out: Dict[Monomial, Eisenstein] = {}

        def add(mono: Monomial, c: Eisenstein) -> None:
            out[mono] = out.get(mono, ZERO) + c

        for (osc, g2), c in s.terms.items():
            w8 = _wt8((osc, g2))
            if w8 == 0:
                continue
            if w8 > 8:
                raise WeightOverflowError("translation is only available below weight 2")
            if osc:
                (n, k) = osc[0]
                add((((n + 1, k),), g2), c * n)
                continue
            for k, x in enumerate(g2):
                if x:
                    add((((1, k),), g2), c * Q(x, 2))
        return FockState(out)

    # -- serialization -----------------------------------------------------------

    def dump_state(self, s: FockState) -> str:
        lines = [f"griess-lab-state v1 {len(s.terms)}"]
        for (osc, g2) in sorted(s.terms, key=lambda m: (len(m[0]), m[0], m[1])):
            c = s.terms[(osc, g2)]
            osc_part = " ".join(
                f"{n}:" + ",".join("1" if i == k else "0" for i in range(self.dim))
                for n, k in osc)
            gamma_part = " ".join(str(Q(x, 2)) for x in g2)
            lines.append(f"{c.re} {c.zc} | {osc_part} | {gamma_part}")
        return "\n".join(lines) + "\n"

    def load_state(self, text: str) -> FockState:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split()
        if header[:2] != ["griess-lab-state", "v1"]:
            raise ValueError("bad state header")
        count = int(header[2])
        body = lines[1:]
        if len(body) != count:
            raise ValueError(f"expected {count} monomial lines, found {len(body)}")
        total = FockState()
        for ln in body:
            coeff_part, osc_part, gamma_part = (p.strip() for p in ln.split("|"))
            re_s, zc_s = coeff_part.split()
            c = Eisenstein(Fraction(re_s), Fraction(zc_s))
            gamma = tuple(Fraction(t) for t in gamma_part.split()) if gamma_part \
                else (Q(0),) * self.dim
            factors = []
            for tok in osc_part.split():
                n_s, dir_s = tok.split(":")
                factors.append((tuple(Fraction(x) for x in dir_s.split(",")), int(n_s)))
            total = total + self.oscillator_state(factors, c, gamma)
        return total


# -- the nine-axis configuration in the triple E8 Fock space ------------------


@dataclass(frozen=True)
class AxisFamily:
    """Nine Ising vectors of the triple E8 lattice, with the geometry
    that produced them."""

    space: FockSpace
    e8: Lattice
    L: Lattice
    M: Lattice
    N: Lattice
    Ntilde: Lattice
    K: Lattice
    E: Lattice
    a: Tuple[Fraction, ...]
    b: Tuple[Fraction, ...]
    axes: Tuple[Tuple[FockState, ...], ...]

    def axis(self, i: int, j: int) -> FockState:
        return self.axes[i % 3][j % 3]


def _difference_lattice(e8: Lattice, pos: int, neg: int, label: str) -> Lattice:
    zero = (Q(0),) * e8.ambient_dim
    rows = []
    for v in e8.basis:
        blocks = [zero, zero, zero]
        blocks[pos] = v
        blocks[neg] = tuple(-x for x in v)
        rows.append(blocks[0] + blocks[1] + blocks[2])
    return Lattice(label, rows)


def build_axis_family(a: Optional[Sequence] = None,
                      cache: Optional[DiskCache] = None) -> AxisFamily:
    e8 = build_standard("E8")
    if a is None:
        a = find_a(e8, cache)
    a = tuple(Fraction(x) for x in a)
    L = direct_sum([e8, e8, e8], "E8^3")
    space = FockSpace(L)
    M = _difference_lattice(e8, 0, 1, "M")
    N = _difference_lattice(e8, 1, 2, "N")
    Ntilde = _difference_lattice(e8, 0, 2, "Ntilde")
    E = annihilator(L, lattice_sum(M, N, "M+N"), "E")
    K = sublattice_K(e8, a)
    if index_in(K, e8) != 3:
        raise ValueError("kernel sublattice does not have index 3")
    b = next(v for v in shell(e8, 2, cache).vectors
             if int(dot(v, a)) % 3 == 2)
    row0 = (
        space.ising_of_sqrt2E8(M, cache),
        space.ising_of_sqrt2E8(N, cache),
        space.ising_of_sqrt2E8(Ntilde, cache),
    )
    axes = tuple(
        tuple(space.rho_twist(a, i, s) for s in row0) for i in range(3))
    return AxisFamily(space=space, e8=e8, L=L, M=M, N=N, Ntilde=Ntilde,
                      K=K, E=E, a=a, b=b, axes=axes)


def _embed_triple(v: Sequence, slot: int) -> Tuple[Fraction, ...]:
    return block_embed(v, slot, 3)


def _root_current(space: FockSpace, alpha: Sequence) -> FockState:
    s = FockState()
    for slot in range(3):
        s = s + space.exp_state(_embed_triple(alpha, slot))
    return s


def sugawara_omega(family: AxisFamily, cache: Optional[DiskCache] = None) -> FockState:
    """Conformal vector of the level-3 A8 current subalgebra."""
    space = family.space
    acc = space.virasoro_of_subspace(family.E).scale(6)
    for alpha in shell(family.K, 2, cache).vectors:
        e_plus = _root_current(space, alpha)
        e_minus = _root_current(space, tuple(-x for x in alpha)).scale(-1)
        acc = acc + space.apply_mode(e_plus, -1, e_minus)
    return acc.scale(Q(1, 24))


def sugawara_expressions(family: AxisFamily,
                         cache: Optional[DiskCache] = None
                         ) -> Tuple[FockState, FockState, FockState]:
    """The current-algebra conformal vector, computed three ways."""
    space = family.space
    omega = sugawara_omega(family, cache)

    mplusn = lattice_sum(family.M, family.N, "M+N")
    alt1 = space.virasoro_of_subspace(family.E) \
        + space.virasoro_of_subspace(mplusn).scale(Q(3, 4))
    for alpha in shell(family.K, 2, cache).vectors:
        for i, j in ((0, 1), (1, 2), (0, 2)):
            delta = tuple(x - y for x, y in zip(
                _embed_triple(alpha, i), _embed_triple(alpha, j)))
            alt1 = alt1 + space.exp_state(delta, Q(-1, 12))

    alt2 = space.virasoro_of_subspace(family.L)
    for row in family.axes:
        for axis in row:
            alt2 = alt2 - axis.scale(Q(8, 9))
    return omega, alt1, alt2


@dataclass(frozen=True)
class CommutantReport:
    roots: int
    axes: int
    checks: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_commutant_annihilation(family: AxisFamily,
                                 cache: Optional[DiskCache] = None) -> CommutantReport:
    """Certify that the zero and one modes of every A8 current kill all
    nine axes."""
    space = family.space
    roots = shell(family.K, 2, cache).vectors
    failures: List[str] = []
    checks = 0
    axis_list = [(i, j, family.axes[i][j]) for i in range(3) for j in range(3)]
    for alpha in roots:
        h = tuple(alpha) * 3
        current = _root_current(space, alpha)
        for i, j, axis in axis_list:
            for n in (0, 1):
                checks += 1
                if not space.heisenberg_mode(h, n, axis).is_zero():
                    failures.append(f"H({alpha})_{n} on axis ({i},{j})")
                checks += 1
                if not space.apply_mode(current, n, axis).is_zero():
                    failures.append(f"E({alpha})_{n} on axis ({i},{j})")
    return CommutantReport(roots=len(roots), axes=len(axis_list),
                           checks=checks, failures=tuple(failures))


# -- parafermion conformal vectors ---------------------------------------------


def parafermion_space(level: int) -> FockSpace:
    """Fock sector of the A_{3k-1} lattice hosting k joined sl2 triples."""
    if level < 2:
        raise ValueError("level must be at least 2")
    return FockSpace(build_standard("A", 3 * level - 1))


def parafermion_omega(alpha: Sequence, level: int,
                      space: Optional[FockSpace] = None) -> FockState:
    """Conformal vector of the parafermion coset of one level-k sl2 triple.

    alpha is a root of the defect A2 (an integer 3-vector of coordinate
    sum zero and norm 2); the triple is spread across k copies of A2
    inside A_{3k-1}.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != 3 or sum(alpha) != 0 or dot(alpha, alpha) != 2:
        raise ValueError("alpha must be an A2 root as an integer 3-vector")
    k = level
    if space is None:
        space = parafermion_space(k)
    if space.dim != 3 * k:
        raise ValueError("space does not match the requested level")
    maps = EmbeddingMaps(k - 1, 2)
    h = maps.mu(alpha)
    x_plus = FockState()
    x_minus = FockState()
    for j in range(k):
        x_plus = x_plus + space.exp_state(maps.iota(j, alpha))
        x_minus = x_minus - space.exp_state(maps.iota(j, tuple(-x for x in alpha)))
    # x+(-1)x- = x-(-1)x+ + h(-2)1 for this triple, so the symmetric
    # Sugawara combination leaves -k h(-2) alongside 2k x+(-1)x-.
    omega = (
        space.heisenberg_mode(h, -2, space.vacuum()).scale(-k)
        - space.oscillator_state([(h, 1), (h, 1)])
        + space.apply_mode(x_plus, -1, x_minus).scale(2 * k)
    ).scale(Q(1, 2 * k * (k + 2)))
    if space.griess_product(omega, omega) != omega.scale(2):
        raise ArithmeticError("failed idempotency: the coset vector is not Virasoro")
    return omega


# -- real form decomposition ---------------------------------------------------


def real_form_components(family: AxisFamily
                         ) -> Tuple[FockState, FockState, FockState]:
    """Split the first axis into its three twist eigencomponents.

    X0 carries the twist-invariant part (the Virasoro summand and the
    kernel-coset exponentials); X1 and X2 are single-coset sums of 84
    exponentials each, swapped by the conjugation that inverts the
    lattice, and e_M = X0 + X1 + X2.
    """
    e_m = family.axes[0][0]
    r1 = family.axes[1][0]
    r2 = family.axes[2][0]
    third = Q(1, 3)
    x0 = (e_m + r1 + r2).scale(third)
    x1 = (e_m + r1.scale(ZETA * ZETA) + r2.scale(ZETA)).scale(third)
    x2 = (e_m + r1.scale(ZETA) + r2.scale(ZETA * ZETA)).scale(third)

    K = family.K
    b = family.b
    for component, base in ((x1, b), (x2, tuple(-x for x in b))):
        for (osc, g2), c in component.terms.items():
            if osc:
                raise ArithmeticError("coset mismatch: oscillators outside X0")
            gamma1 = tuple(Q(x, 2) for x in g2[:8])
            if not K.contains(tuple(p - q for p, q in zip(gamma1, base))):
                raise ArithmeticError("coset mismatch: exponent off its coset")
            if c != Eisenstein(Q(1, 32)):
                raise ArithmeticError("coset mismatch: unexpected coefficient")
        if len(component.terms) != 84:
            raise ArithmeticError("coset mismatch: wrong support size")
    return x0, x1, x2


def _pair_value4(osc_a: Osc, osc_b: Osc, g2: Gamma) -> int:
    """Four times the closed form of the vacuum coefficient of a_3 b on a
    monomial pair with opposite exponents, before the cocycle sign."""
    la, lb = len(osc_a), len(osc_b)
    if la != lb:
        return 0
    if la == 0:
        return 4
    if la == 1:
        (na, k), (nb, l) = osc_a[0], osc_b[0]
        if na != nb:
            return 0
        if na == 2:
            return -24 if k == l else 0
        return g2[k] * g2[l] + (4 if k == l else 0)
    (k, l) = osc_a[0][1], osc_a[1][1]
    (p, q) = osc_b[0][1], osc_b[1][1]
    if any(n != 1 for n, _ in osc_a + osc_b):
        return 0
    return 4 * ((1 if (k, l) == (p, q) else 0) + (1 if (k, l) == (q, p) else 0))
