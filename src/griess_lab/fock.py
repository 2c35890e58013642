"""Weight-capped lattice vertex algebra engine over Q(zeta3).

States live in the weight <= 2 part of the Fock space of an even
lattice: sparse Eisenstein-linear combinations of monomials

    eps_{k1}(-n1) ... eps_{kr}(-nr) e^gamma,

with oscillator directions drawn from the standard ambient coordinate
frame and exponents stored as doubled integer vectors (so E8-style
half-integer coordinates stay integral).  The engine implements the
Heisenberg modes, the modes of exponential states via the closed
double-exponential expansion, the Griess product a.b = a_1 b, and the
weight-2 pairing <a,b>1 = a_3 b, all exactly.  A mode of a left state
sorts its terms by kind: 1 is the identity at n = -1, the exponentials
act in one batch, the eps_k(-1)1 terms as one direction, the eps_k(-2)1
terms as another, and the eps_k(-1) eps_l(-1) 1 terms as one integer
matrix in one pass over the right state; only eps_k(-1)e^gamma terms go
one by one.  One routine applies every Heisenberg mode along a direction.
The arrays that a mode reads from its right state (exponent memo rows,
coordinates, weights, contraction table, numerator bound) form a view
that is built once per (state, space) and kept on the state; Heisenberg
modes h(m >= 0) read it to pass on only the monomials they do not kill.

A state stores its coefficients once, as Eisenstein-integer numerators
re + zc*zeta over one reduced positive denominator.  Sums, scalings,
twists and modes work on those integers, and the mode kernel hands its
sums to the result as they are; Fraction/Eisenstein values appear only in
the terms view of a state and in the value of the invariant form.

The mode conventions are the usual ones: [h(m), h'(n)] = m<h,h'>
delta_{m+n,0}, h(0)e^gamma = <h,gamma> e^gamma, and

    Y(e^beta, z) = exp(sum beta(-n)/n z^n) exp(-sum beta(n)/n z^-n)
                   e_beta z^beta(0),

with e_beta e_gamma = (-1)^eps(beta,gamma) e_{beta+gamma} for the
bilinear 2-cocycle eps.  A mode application lands in weight
wt(a) + wt(b) - n - 1; anything that would exceed weight 2 raises.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cocycle import build_epsilon0
from .lattice import (
    DiskCache,
    EmbeddingMaps,
    Lattice,
    block_embed,
    build_standard,
    difference_lattice,
    direct_sum,
    find_a,
    index_in,
    map_lattice,
    scaled_ints,
    shell,
    sublattice_K,
)
from .numerics import Eisenstein, Q, ZETA, _common_scale, dot

Osc = Tuple[Tuple[int, int], ...]      # sorted ((mode >= 1, frame index), ...)
Gamma = Tuple[int, ...]                # doubled exponent coordinates
Monomial = Tuple[Osc, Gamma]
Pair = Tuple[int, int]                 # (re, zc): the numerator re + zc*zeta
Num = Tuple[Monomial, Pair]


class WeightOverflowError(ValueError):
    """A mode application would leave the weight <= 2 sector."""


def _wt8(mono: Monomial) -> int:
    """Eight times the weight of a monomial (an integer, as 8|gamma|^2/2
    is the sum of squares of the doubled coordinates)."""
    osc, g2 = mono
    return 8 * sum(n for n, _ in osc) + sum(map(operator.mul, g2, g2))


def _int_parts(c) -> Tuple[List[int], int]:
    """A scalar c (int, Fraction or Eisenstein) as ([re, zc], den) with
    c = (re + zc*zeta) / den and den >= 1 least."""
    c = c if isinstance(c, Eisenstein) else Eisenstein(Fraction(c))
    return _common_scale((c.re, c.zc))


@functools.lru_cache(maxsize=256)
def _contraction_table(oscs: Tuple[Osc, ...]) -> tuple:
    """Every contraction subset of every oscillator part in oscs, as
    read-only arrays: each part's oscillator weight and first row (plus an
    end row), and per row the total mode of the subset, its directions
    padded with -1, their number, and the index into rests of the
    oscillators it leaves."""
    rests: Dict[Osc, int] = {}
    start, mode, dirs, rest = [0], [], [], []
    for osc in oscs:
        for size in range(len(osc) + 1):
            for subset in itertools.combinations(range(len(osc)), size):
                mode.append(sum(osc[t][0] for t in subset))
                dirs.append([osc[t][1] for t in subset])
                left = tuple(o for t, o in enumerate(osc) if t not in subset)
                rest.append(rests.setdefault(left, len(rests)))
        start.append(len(mode))
    dirs_arr = np.full((len(dirs), max(map(len, dirs), default=0)), -1, dtype=np.int64)
    for t, ds in enumerate(dirs):
        dirs_arr[t, :len(ds)] = ds
    arrays = (np.array([sum(m for m, _ in osc) for osc in oscs], dtype=np.int64),
              np.array(start), np.array(mode, dtype=np.int64), dirs_arr,
              np.array([len(ds) for ds in dirs]), np.array(rest))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays + (tuple(rests),)


def _group(keys: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by equal entries in every key column: the first row of
    each group and each row's group index."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    inv = np.empty(order.size, dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def _int_dtype(bound: int):
    """int64 for integers known to stay below bound in size, else exact
    Python integers (dtype=object)."""
    return np.int64 if bound < 1 << 63 else object


def _along(terms: List[Num], h: Dict[int, Pair], shift: int) -> List[tuple]:
    """The FockSpace._heisenberg items that act on every term along h."""
    return [(osc, g2, pair, h, shift) for (osc, g2), pair in terms]


class FockState:
    """Sparse exact linear combination of Fock monomials: numerators
    re + zc*zeta over one positive denominator, the gcd of the denominator
    and all numerators being 1.

    A state is never changed after it is made, so _view, the (space,
    _View) pair of the last space that applied a mode to it, stays
    valid for that space."""

    __slots__ = ("_den", "_nums", "_terms", "_weight", "_view")

    def __init__(self, terms: Optional[Mapping[Monomial, object]] = None) -> None:
        parts = [(mono, *_int_parts(c)) for mono, c in terms.items()] if terms else []
        # the least common denominator leaves the numerators reduced
        den = math.lcm(*(d for _, _, d in parts))
        self._den, self._terms, self._weight, self._view = den, None, None, None
        self._nums: Dict[Monomial, Pair] = {
            mono: (r * (den // d), z * (den // d)) for mono, (r, z), d in parts if r or z}

    @classmethod
    def _of(cls, den: int, nums: Dict[Monomial, Pair]) -> "FockState":
        """The state sum nums[mono] / den, reduced; nums holds no zero pair."""
        g = math.gcd(den, *itertools.chain.from_iterable(nums.values())) if den > 1 else 1
        if g > 1:
            den //= g
            nums = {mono: (r // g, z // g) for mono, (r, z) in nums.items()}
        out = cls.__new__(cls)
        out._den, out._nums, out._terms, out._weight, out._view = den, nums, None, None, None
        return out

    def __reduce__(self):
        # the view holds its whole space, so a state travels without it
        return FockState._of, (self._den, self._nums)

    @property
    def terms(self) -> Mapping[Monomial, Eisenstein]:
        """The coefficients as a read-only {monomial: Eisenstein} mapping."""
        if self._terms is None:
            den = self._den
            self._terms = {mono: Eisenstein(Fraction(r, den), Fraction(z, den))
                           for mono, (r, z) in self._nums.items()}
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other) -> bool:
        return (isinstance(other, FockState) and self._den == other._den
                and self._nums == other._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __add__(self, other: "FockState") -> "FockState":
        den = math.lcm(self._den, other._den)
        out = _Accumulator()
        for s in (self, other):
            f = den // s._den
            for mono, (r, z) in s._nums.items():
                out.add(mono, r * f, z * f)
        return out.state(den)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + other.scale(-1)

    def scale(self, c) -> "FockState":
        (cr, cz), cd = _int_parts(c)
        if not (cr or cz):
            return FockState()
        return FockState._of(self._den * cd, {
            mono: (r * cr - z * cz, r * cz + z * cr - z * cz)
            for mono, (r, z) in self._nums.items()})

    def weight(self) -> Fraction:
        """The weight of a homogeneous nonzero state, computed once."""
        if self._weight is None:
            ws = {_wt8(m) for m in self._nums}
            if not ws:
                raise ValueError("the zero state has no weight")
            if len(ws) > 1:
                raise ValueError(
                    f"state is not homogeneous: weights {sorted(Q(w, 8) for w in ws)}")
            self._weight = Q(ws.pop(), 8)
        return self._weight

    def exponents(self) -> List[Gamma]:
        return sorted({g2 for _, g2 in self._nums})


class _View(NamedTuple):
    """The arrays a mode reads from its right-hand terms in one space:
    the terms, the memo rows ib of their exponents, the doubled
    coordinates B of those, each monomial's oscillator weight W and eight
    times its weight wt8, the index of its oscillator part in table, the
    contraction table of those parts, and cb >= |re| + |zc| for every
    numerator pair."""

    terms: List[Num]
    ib: np.ndarray
    B: np.ndarray
    W: np.ndarray
    wt8: np.ndarray
    part: np.ndarray
    table: tuple
    cb: int


class _Accumulator:
    """A sum of terms as Eisenstein-integer numerators re + zc*zeta over
    one denominator that the caller fixes."""

    __slots__ = ("sums",)

    def __init__(self) -> None:
        self.sums: Dict[Monomial, Pair] = {}

    def add(self, mono: Monomial, re: int, zc: int) -> None:
        got = self.sums.get(mono)
        self.sums[mono] = (got[0] + re, got[1] + zc) if got else (re, zc)

    def terms(self) -> List[Num]:
        """The nonzero terms."""
        return [t for t in self.sums.items() if t[1] != (0, 0)]

    def state(self, den: int) -> FockState:
        """The sum with every numerator divided by den."""
        return FockState._of(den, dict(self.terms()))


class FockSpace:
    """Weight <= 2 Fock sector of an even lattice with a fixed cocycle."""

    def __init__(self, lattice: Lattice) -> None:
        self.lattice = lattice
        self.dim = lattice.ambient_dim
        self.cocycle = build_epsilon0(lattice)
        # exponent memo: _masks maps an exponent to its row k; row k of
        # _exp_coords holds its doubled coordinates, and row k of _exp_masks
        # its 0/1 column mask (lattice coordinates mod 2) followed by its 0/1
        # row mask (the table's left_half of those), so that
        # eps(beta, gamma) is the parity of row(beta) . column(gamma);
        # _exp_max is the largest |doubled coordinate| in the memo
        self._masks: Dict[Gamma, int] = {}
        self._exp_max = 0
        self._exp_coords = np.zeros((0, self.dim), dtype=np.int64)
        self._exp_masks = np.zeros((0, 2 * lattice.rank), dtype=np.int8)
        self._zero = (0,) * self.dim

    # -- state constructors ------------------------------------------------

    def vacuum(self) -> FockState:
        return FockState._of(1, {((), self._zero): (1, 0)})

    def exp_state(self, gamma: Sequence, coeff=1) -> FockState:
        return self._exp_sum([gamma], coeff)

    def _exp_sum(self, gammas: Sequence[Sequence], coeff) -> FockState:
        """The sum of coeff e^gamma over gammas; a repeated exponent adds."""
        g2s = [scaled_ints(g, 2) for g in gammas]
        self._exp_rows(g2s)  # membership check
        if any(_wt8(((), g2)) > 16 for g2 in g2s):
            raise WeightOverflowError("exponent norm exceeds the weight cap")
        counts = collections.Counter(g2s)
        return FockState._of(1, {((), g2): (k, 0) for g2, k in counts.items()}).scale(coeff)

    def oscillator_state(self, factors: Sequence[Tuple[Sequence, int]], coeff=1,
                         gamma: Optional[Sequence] = None) -> FockState:
        """Product of creation operators h(-n), applied left to right to e^gamma."""
        s = self.exp_state(gamma, coeff) if gamma is not None else FockState(
            {((), self._zero): coeff})
        for h, n in reversed(list(factors)):
            if n <= 0:
                raise ValueError("creation factors need n >= 1")
            s = self.heisenberg_mode(h, -n, s)
        return s

    # -- cocycle plumbing --------------------------------------------------

    def _exp_rows(self, exps: Sequence[Gamma]) -> np.ndarray:
        """The memo rows of the exponents exps, adding the new ones;
        ValueError for an exponent outside the lattice."""
        memo = self._masks
        rows = np.fromiter(map(memo.get, exps, itertools.repeat(-1)), dtype=np.int64,
                           count=len(exps))
        if rows.min(initial=0) < 0:
            new = list(dict.fromkeys(exps[k] for k in np.flatnonzero(rows < 0).tolist()))
            rank = self.lattice.rank
            cols = []
            for g2 in new:
                # the coordinates of gamma = g2 / 2 are raw / 2d
                got = self.lattice._solve(g2)
                if got is None or any(x % (2 * got[1]) for x in got[0]):
                    raise ValueError("exponent is not a lattice vector")
                cols.append([x // (2 * got[1]) % 2 for x in got[0]])
            col = np.array(cols, dtype=np.int64).reshape(len(new), rank)
            size, end = len(memo), len(memo) + len(new)
            if end > len(self._exp_coords):
                grown = max(64, 2 * end)
                table = np.zeros((grown, self.dim), dtype=np.int64)
                masks = np.zeros((grown, 2 * rank), dtype=np.int8)
                table[:size], masks[:size] = self._exp_coords[:size], self._exp_masks[:size]
                self._exp_coords, self._exp_masks = table, masks
            self._exp_coords[size:end] = new
            self._exp_max = max(self._exp_max, int(np.abs(self._exp_coords[size:end]).max()))
            self._exp_masks[size:end] = np.hstack([col, self.cocycle.left_half(col)])
            memo.update(zip(new, range(size, end)))
            rows = np.fromiter(map(memo.__getitem__, exps), dtype=np.int64, count=len(exps))
        return rows

    def _signs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(-1)^eps(beta, gamma) for the exponent pairs in memo rows i and j."""
        rank = self.lattice.rank
        m = self._exp_masks
        return 1 - 2 * (np.einsum("ij,ij->i", m[i, rank:], m[j, :rank], dtype=np.int64) & 1)

    def _view(self, terms: List[Num]) -> _View:
        """The arrays a mode reads from the right-hand terms; ValueError for
        an exponent outside the lattice."""
        oscs = [osc for (osc, _), _ in terms]
        ib = self._exp_rows([g2 for (_, g2), _ in terms])
        B = self._exp_coords[ib]
        index = {osc: i for i, osc in enumerate(dict.fromkeys(oscs))}
        part = np.fromiter(map(index.__getitem__, oscs), dtype=np.int64, count=len(oscs))
        table = _contraction_table(tuple(index))
        W = table[0][part]
        cb = max((abs(r) + abs(z) for _, (r, z) in terms), default=0)
        return _View(terms, ib, B, W, 8 * W + np.einsum("ij,ij->i", B, B), part, table, cb)

    def _state_view(self, s: FockState) -> _View:
        """The view of s's terms in this space, kept on s until another
        space asks (memo rows differ between spaces, even on one lattice)."""
        kept = s._view
        if kept is None or kept[0] is not self:
            kept = s._view = (self, self._view(list(s._nums.items())))
        return kept[1]

    # -- the integer mode kernel ------------------------------------------------
    #
    # The private routines below take terms as numerators over a common
    # denominator and add (c * result) << shift to an _Accumulator.  Every
    # rational factor they meet is an integer over a power of two, so each
    # routine spends part of shift on its halvings; a routine asked for
    # more halvings than its shift allows raises ValueError ("negative
    # shift count") instead of rounding.

    def _heisenberg(self, out: _Accumulator, m: int, items: List[tuple]) -> None:
        """h(m) on each item (osc, g2, (br, bz), h, shift): the monomial
        osc e^g2 with numerator br + bz*zeta, acted on along its own sparse
        direction h = sum_k (h[k][0] + h[k][1]*zeta) eps_k.

        Only h(0) halves: its eigenvalue on e^gamma is h . gamma2 / 2.  A
        creation mode past weight 2 raises, even along an empty direction.
        """
        for osc, g2, (br, bz), h, shift in items:
            if m == 0:
                landed = [(osc, sum(x * g2[k] for k, (x, _) in h.items()),
                           sum(y * g2[k] for k, (_, y) in h.items()))]
                shift -= 1
            elif m > 0:
                landed = [(osc[:i] + osc[i + 1:], m * h[k][0], m * h[k][1])
                          for i, (j, k) in enumerate(osc) if j == m and k in h]
            else:
                new_wt8 = _wt8((osc, g2)) - 8 * m
                if new_wt8 > 16:
                    raise WeightOverflowError(
                        f"h({m}) would create weight {Q(new_wt8, 8)}")
                landed = [(tuple(sorted(osc + ((-m, k),))), x, y) for k, (x, y) in h.items()]
            for new, x, y in landed:
                if x or y:
                    out.add((new, g2), (x * br - y * bz) << shift,
                            (x * bz + y * br - y * bz) << shift)

    def _exp_modes(self, out: _Accumulator, a_exp: List[Num], n: int,
                   b: _View, shift: int) -> None:
        """The n-th modes of the pure exponentials a_exp applied to the
        terms of the view b, whose arrays are read as they are: a state's
        view is built once per space.

        A pair (e^beta, monomial of b) can land a term only when
        d_max = -n - 1 - <beta, gamma> + W >= 0, W being the monomial's
        oscillator weight.  All pairings come from one exact product of
        the doubled exponents (4 <beta, gamma>), all cocycle signs from one
        product of their masks, and the pairs that pass the test are
        expanded together: each meets every contraction subset
        of its monomial, and a landing carries -beta_k for each contracted
        oscillator and a creation layer of weight d.  Landings that share
        (remaining oscillators, beta + gamma, d) are summed first, so each
        such group emits one creation layer.  A landing halves at most
        (oscillators of b) + 3 times.
        """
        if not a_exp or not b.terms:
            return
        ia = self._exp_rows([g2 for (_, g2), _ in a_exp])
        A, B, W, part = self._exp_coords[ia], b.B, b.W, b.part
        # float64 BLAS is exact while every partial sum stays below 2**53
        if self._exp_max ** 2 * self.dim < 1 << 53:
            S = (A.astype(np.float64) @ B.T.astype(np.float64)).astype(np.int64)
        else:
            S = A @ B.T
        if (S & 3).any():
            raise ValueError("non-integral pairing between exponents")
        _, start, mode, dirs, halvings, rest, rests = b.table
        rows, cols = np.nonzero(4 * (W - n - 1) - S >= 0)
        if not rows.size:
            return

        # one landing candidate per (pair, contraction subset), in pair order
        first = start[part[cols]]
        cnt = start[part[cols] + 1] - first
        pair = np.repeat(np.arange(rows.size), cnt)
        sub = np.arange(pair.size) + np.repeat(first - np.cumsum(cnt) + cnt, cnt)
        d = (-n - 1 - S[rows, cols] // 4)[pair] + mode[sub]
        # -beta and a last column of ones, the factor of the padding index -1
        neg_beta = np.hstack([-A, np.ones((len(a_exp), 1), dtype=np.int64)])
        f = neg_beta[rows[pair, None], dirs[sub]].prod(axis=1)
        keep = np.flatnonzero((d >= 0) & (f != 0))
        if not keep.size:
            return
        pair, sub, d, f = pair[keep], sub[keep], d[keep], f[keep]
        ri, ci = rows[pair], cols[pair]
        # a term really lands for each kept candidate, so the cap is enforced
        # only now; 8 * (wt(monomial) + wt(e^beta) - n - 1) is its weight
        out_wt8 = np.einsum("ij,ij->i", A, A)[ri] + b.wt8[ci] - 8 * (n + 1)
        over = (out_wt8 > 16) | (d > 2)
        if over.any():
            raise WeightOverflowError(
                f"exp mode {n} would create weight {Q(int(out_wt8[over.argmax()]), 8)}")
        # one halving per contracted oscillator, then 0, 1 or 3 for the layer
        room = shift - halvings[sub] - np.array([0, 1, 3])[d]
        if (room < 0).any():
            raise ValueError("negative shift count")

        # only the monomials of b that some pair reaches are read from here on
        used, cu = np.unique(cols, return_inverse=True)
        b_pairs = [b.terms[j][1] for j in used.tolist()]
        # the cocycle parities of those pairs in one float64 product (exact:
        # each is a count <= rank), read at the pairs that pass
        rank = self.lattice.rank
        masks = self._exp_masks
        parity = (masks[ia, rank:].astype(np.float64)
                  @ masks[b.ib[used], :rank].T.astype(np.float64))
        sign = 1 - 2 * (parity[rows, cu].astype(np.int64) & 1)

        # int64 unless a bound on every product and sum below could overflow it
        ca = max(abs(r) + abs(z) for _, (r, z) in a_exp)
        bmax = max(int(np.abs(A).max()), 1)
        dtype = _int_dtype(ca * b.cb * bmax ** (dirs.shape[1] + 2) * (2 << shift) * pair.size)
        ar, az = np.array([p for _, p in a_exp], dtype=dtype)[rows].T
        br, bz = np.array(b_pairs, dtype=dtype)[cu].T
        scale = np.left_shift(f.astype(dtype), room.astype(dtype))
        w_re = (sign * (ar * br - az * bz))[pair] * scale
        w_zc = (sign * (ar * bz + az * br - az * bz))[pair] * scale

        # group by (remaining oscillators, beta + gamma, d); a landed exponent
        # has norm <= 4, so its doubled coordinates lie in [-4, 4] and pack
        # exactly into 4-bit digits, 15 to an int64; the packing is linear,
        # so each landing's key is a sum of one key of A and one of B
        digits = np.left_shift(1, 4 * np.arange(15, dtype=np.int64))
        keys = [((A[:, c:c + 15] + 4) @ dg)[ri] + (B[:, c:c + 15] @ dg)[ci]
                for c in range(0, self.dim, 15) for dg in [digits[:min(15, self.dim - c)]]]
        first, inv = _group(keys + [rest[sub] * 3 + d])
        s_re = np.zeros(first.size, dtype=dtype)
        s_zc = np.zeros(first.size, dtype=dtype)
        np.add.at(s_re, inv, w_re)
        np.add.at(s_zc, inv, w_zc)
        v_re = np.zeros((first.size, self.dim), dtype=dtype)
        v_zc = np.zeros((first.size, self.dim), dtype=dtype)
        # the landings with a layer (d > 0), and those of each d = 2 group
        layered = np.flatnonzero(d > 0)
        beta = A[ri[layered]].astype(dtype)
        l_re, l_zc, l_inv = w_re[layered], w_zc[layered], inv[layered]
        np.add.at(v_re, l_inv, l_re[:, None] * beta)
        np.add.at(v_zc, l_inv, l_zc[:, None] * beta)
        quad = np.flatnonzero(d[layered] == 2)
        quad = quad[np.argsort(l_inv[quad], kind="stable")]
        members = {int(l_inv[m[0]]): m
                   for m in np.split(quad, np.flatnonzero(np.diff(l_inv[quad])) + 1) if m.size}

        # emit every group whose sums did not cancel
        lead = d[first]
        live = np.flatnonzero(np.where(
            lead == 0, (s_re != 0) | (s_zc != 0),
            (lead == 2) | (v_re != 0).any(axis=1) | (v_zc != 0).any(axis=1)))
        lead_at = first[live]
        joined = A[ri[lead_at]] + B[ci[lead_at]]
        for g, osc_id, dg, g2 in zip(live.tolist(), rest[sub[lead_at]].tolist(),
                                     lead[live].tolist(), joined.tolist()):
            if dg == 0:
                sums = (s_re[g], s_zc[g])
            elif dg == 1:
                sums = (v_re[g], v_zc[g])
            else:
                m = members[g]
                bm = beta[m]
                sums = (v_re[g], v_zc[g],
                        (bm * l_re[m, None]).T @ bm, (bm * l_zc[m, None]).T @ bm)
            self._emit_creation_layer(out, rests[osc_id], tuple(g2), dg, sums)

    @staticmethod
    def _emit_creation_layer(out: _Accumulator, osc: Osc, g2: Gamma, d: int,
                             sums: tuple) -> None:
        """The weight-d part of exp(sum_j beta(-j) z^j / j) on osc e^g2,
        summed over a group of landings with weights w (halvings included):
        1, beta(-1), or beta(-1)^2/2 + beta(-2)/2.

        sums holds the (re, zc) parts of sum w for d = 0, of sum w beta2
        for d = 1, and of sum w beta2 and sum w beta2 beta2^T for d = 2.
        """
        if d == 0:
            layer = [((), sums[0], sums[1])]
        else:
            v_re, v_zc = sums[0], sums[1]
            ks = np.flatnonzero((v_re != 0) | (v_zc != 0)).tolist()
            if d == 1:
                layer = [(((1, k),), v_re[k], v_zc[k]) for k in ks]
            else:
                # over 8: beta_k beta_l = 2 beta2[k] beta2[l], beta_k^2 / 2 =
                # beta2[k]^2 and beta_k / 2 = 2 beta2[k]
                m_re, m_zc = sums[2], sums[3]
                kk, ll = np.nonzero(np.triu((m_re != 0) | (m_zc != 0)))
                layer = [(((1, k), (1, l)), m_re[k, l] * (1 if k == l else 2),
                          m_zc[k, l] * (1 if k == l else 2))
                         for k, l in zip(kk.tolist(), ll.tolist())]
                layer += [(((2, k),), 2 * v_re[k], 2 * v_zc[k]) for k in ks]
        for added, r, z in layer:
            out.add((tuple(sorted(osc + added)) if osc else added, g2), int(r), int(z))

    def _quad_modes(self, out: _Accumulator, D: Dict[int, Dict[int, Pair]], n: int,
                    b: List[Num], shift: int) -> None:
        """The n-th mode of sum_{k <= l} D[k][l] eps_k(-1) eps_l(-1) 1 applied
        to b, D[k][l] being the numerator pair of that term.

        Normal ordered, the mode is the sum over the m that can land in
        weight <= 2, m = -2 .. 2 with p = n - 1 - m, of sum D_kl eps_k(m)
        eps_l(p) for m < 0 and of sum D_kl eps_l(p) eps_k(m) for m >= 0.
        The right-hand factor acts once on each monomial of b, and each
        landing gives a vector u over the directions: the doubled gamma for
        h(0), which halves once; j e_d for an annihilated eps_d(-j); e_d for
        each created eps_d(p) (n <= -1 only).  D contracts u into one
        direction v (v_k = sum_l D_kl u_l for m < 0, v_l = sum_k D_kl u_k
        for m >= 0), along which _heisenberg applies the left-hand factor to
        all landings of one m at once; one that creates past weight 2 raises
        even where v cancels, as each term of D would raise on its own.
        """
        if not D:
            return
        cols: Dict[int, Dict[int, Pair]] = {}
        for k, row in D.items():
            for l, x in row.items():
                cols.setdefault(l, {})[k] = x
        for m in range(-2, 3):
            p = n - 1 - m
            # the right-hand factor eps(q) on the index that D contracts, the
            # left-hand factor eps(r) on the other
            q, r, by = (p, m, cols) if m < 0 else (m, p, D)
            items = []
            for (osc, g2), pair in b:
                if q == 0:
                    u = [(d, g2[d]) for d in by if g2[d]]
                    landed = [(osc, u, 1)] if u else []
                elif q > 0:
                    landed = [(osc[:i] + osc[i + 1:], [(d, q)], 0)
                              for i, (j, d) in enumerate(osc) if j == q and d in by]
                else:
                    landed = [(tuple(sorted(osc + ((-q, d),))), [(d, 1)], 0) for d in by]
                for rest, u, halved in landed:
                    v: Dict[int, Pair] = {}
                    for d, x in u:
                        for e, (dr, dz) in by[d].items():
                            vr, vz = v.get(e, (0, 0))
                            v[e] = (vr + x * dr, vz + x * dz)
                    items.append((rest, g2, pair, v, shift - halved))
            self._heisenberg(out, r, items)

    def _mixed_mode(self, out: _Accumulator, k: int, g2: Gamma, pair: Pair, n: int,
                    view: _View, shift: int) -> None:
        """The n-th mode of eps_k(-1)e^gamma applied to b, normal ordered
        over the m that can land in weight <= 2:
        sum_{m=-2..-1} eps_k(m) e^gamma_{n-1-m} + sum_{m=0..2} e^gamma_{n-1-m} eps_k(m).
        Each summand spends one halving of shift on an h(0) eigenvalue.
        """
        ek = {k: (1, 0)}
        e_gamma = [(((), g2), pair)]
        for m in range(-2, 3):
            inner = _Accumulator()
            if m < 0:
                self._exp_modes(inner, e_gamma, n - 1 - m, view, shift - 1)
                self._heisenberg(out, m, _along(inner.terms(), ek, 1))
            else:
                self._heisenberg(inner, m, _along(view.terms, ek, 1))
                self._exp_modes(out, e_gamma, n - 1 - m, self._view(inner.terms()),
                                shift - 1)

    # -- public modes ----------------------------------------------------------

    def heisenberg_mode(self, h: Sequence, m: int, s: FockState) -> FockState:
        hn, dh = _common_scale(h)
        if len(hn) != self.dim:
            raise ValueError("direction has wrong ambient dimension")
        direction = {k: (x, 0) for k, x in enumerate(hn) if x}
        terms = s._nums.items()
        if m >= 0:
            # only the monomials that h(m) does not kill: <h, gamma> != 0 for
            # h(0), in one exact integer product, and an oscillator for h(m > 0)
            view = self._state_view(s)
            if m == 0:
                dtype = _int_dtype(self._exp_max * max(map(abs, hn)) * self.dim)
                hit = view.B.astype(dtype, copy=False) @ np.array(hn, dtype=dtype) != 0
            else:
                hit = view.W > 0
            terms = [view.terms[i] for i in np.flatnonzero(hit).tolist()]
        out = _Accumulator()
        self._heisenberg(out, m, _along(terms, direction, 1))
        return out.state(s._den * dh * 2)

    def exp_mode(self, beta: Sequence, n: int, s: FockState) -> FockState:
        return self.apply_mode(self.exp_state(beta), n, s)

    def apply_mode(self, a: FockState, n: int, b: FockState) -> FockState:
        view = self._state_view(b)
        # exponential modes halve at most (oscillators of b) + 3 times, a
        # monomial of weight <= 2 has at most two oscillators, and the
        # eps_k(-1) of eps_k(-1)e^gamma adds an h(0) eigenvalue; the
        # quadratic terms halve at most twice, once per h(0)
        shift = 2 + 4
        out = _Accumulator()
        a_exp: List[Num] = []
        quad: Dict[int, Dict[int, Pair]] = {}
        # the eps_k(-1)1 terms form one direction acting at n, and the
        # eps_k(-2)1 terms one acting at n - 1 with factor -n
        eps1: Dict[int, Pair] = {}
        eps2: Dict[int, Pair] = {}
        for term in a._nums.items():
            (osc, g2), (r, z) = term
            if not osc and any(g2):
                a_exp.append(term)
            elif _wt8(term[0]) > 16:
                raise NotImplementedError("left state exceeds weight 2")
            elif not osc:
                # the vacuum is the identity at n = -1
                if n == -1:
                    for mono, (br, bz) in view.terms:
                        out.add(mono, (r * br - z * bz) << shift,
                                (r * bz + z * br - z * bz) << shift)
            elif len(osc) == 2:
                # weight 2 with two oscillators: eps_k(-1) eps_l(-1) 1, k <= l
                quad.setdefault(osc[0][1], {})[osc[1][1]] = (r, z)
            elif any(g2):
                self._mixed_mode(out, osc[0][1], g2, (r, z), n, view, shift)
            elif osc[0][0] == 1:
                eps1[osc[0][1]] = (r, z)
            else:
                eps2[osc[0][1]] = (-n * r, -n * z)
        if eps1:
            self._heisenberg(out, n, _along(view.terms, eps1, shift))
        if eps2 and n != 0:
            self._heisenberg(out, n - 1, _along(view.terms, eps2, shift))
        self._quad_modes(out, quad, n, view.terms, shift)
        self._exp_modes(out, a_exp, n, view, shift)
        return out.state(a._den * b._den << shift)

    # -- Griess product and pairing -------------------------------------------

    def griess_product(self, a: FockState, b: FockState) -> FockState:
        if a.weight() != 2 or b.weight() != 2:
            raise ValueError("the Griess product is defined on weight-2 states")
        return self.apply_mode(a, 1, b)

    def invariant_form(self, a: FockState, b: FockState) -> Eisenstein:
        if a.weight() != 2 or b.weight() != 2:
            raise ValueError("the weight-2 pairing needs homogeneous weight-2 states")
        by_gamma: Dict[Gamma, List[Tuple[Osc, int, int]]] = {}
        for (osc, g2), (br, bz) in b._nums.items():
            by_gamma.setdefault(g2, []).append((osc, br, bz))
        paired = [(osc_a, g2, neg, ar, az) for (osc_a, g2), (ar, az) in a._nums.items()
                  for neg in [tuple(map(operator.neg, g2))] if neg in by_gamma]
        signs = self._signs(self._exp_rows([t[1] for t in paired]),
                            self._exp_rows([t[2] for t in paired])).tolist()
        re = zc = 0
        for (osc_a, g2, neg, ar, az), sign in zip(paired, signs):
            for osc_b, br, bz in by_gamma[neg]:
                val = _pair_value4(osc_a, osc_b, g2) * sign
                if val:
                    re += (ar * br - az * bz) * val
                    zc += (ar * bz + az * br - az * bz) * val
        den = 4 * a._den * b._den
        return Eisenstein(Fraction(re, den), Fraction(zc, den))

    # -- standard states -------------------------------------------------------

    def virasoro_of_subspace(self, S: Lattice) -> FockState:
        """(1/2) sum_kl P[k][l] eps_k(-1) eps_l(-1) 1 for the projector
        P = B^T G^{-1} B onto the span of S, read off S's coordinate solver:
        P = num / den times (lb * B) / lb."""
        num, den = S._coord_solver
        lb, rows = S._int_basis
        cols = list(zip(*rows))
        # over 2 den lb, the coefficient of k < l counts P[k][l] and P[l][k]
        nums: Dict[Monomial, Pair] = {}
        for k in range(self.dim):
            for l in range(k, self.dim):
                p = sum(map(operator.mul, num[k], cols[l]))
                if p:
                    nums[(((1, k), (1, l)), self._zero)] = (p if k == l else 2 * p, 0)
        return FockState._of(2 * den * lb, nums)

    def ising_of_sqrt2E8(self, S: Lattice, cache: Optional[DiskCache] = None) -> FockState:
        if shell(S, 2, cache).vectors:
            raise ValueError(f"{S.label} has roots; not a sqrt(2)E8 copy")
        quartic = shell(S, 4, cache)
        if len(quartic.vectors) != 240:
            raise ValueError(
                f"{S.label} has {len(quartic.vectors)} norm-4 vectors, expected 240")
        return (self.virasoro_of_subspace(S).scale(Q(1, 16))
                + self._exp_sum(quartic.vectors, Q(1, 32)))

    # -- automorphisms ---------------------------------------------------------

    def rho_twist(self, a: Sequence, k: int, s: FockState) -> FockState:
        if self.dim != 3 * len(tuple(a)):
            raise ValueError("twist vector must live in one block of a triple sum")
        a2 = scaled_ints(a, 2)
        tilde = tuple(a2) + tuple(-x for x in a2) + (0,) * len(a2)
        out: Dict[Monomial, Pair] = {}
        for mono, (r, z) in s._nums.items():
            t = sum(map(operator.mul, tilde, mono[1]))
            if t % 4:
                raise ValueError("non-integral twist pairing")
            # zeta (r + z zeta) = -z + (r - z) zeta, and zeta^2 (r + z zeta) =
            # (z - r) - r zeta
            e = (k * (t // 4)) % 3
            out[mono] = (r, z) if e == 0 else (-z, r - z) if e == 1 else (z - r, -r)
        return FockState._of(s._den, out)

    def theta(self, s: FockState) -> FockState:
        out: Dict[Monomial, Pair] = {}
        for (osc, g2), (r, z) in s._nums.items():
            neg = tuple(-x for x in g2)
            out[(osc, neg)] = (r, z) if len(osc) % 2 == 0 else (-r, -z)
        return FockState._of(s._den, out)

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


def build_axis_family(a: Optional[Sequence] = None,
                      cache: Optional[DiskCache] = None) -> AxisFamily:
    e8 = build_standard("E8")
    if a is None:
        a = find_a(e8, cache)
    a = tuple(Fraction(x) for x in a)
    L = direct_sum([e8, e8, e8], "E8^3")
    space = FockSpace(L)
    M = difference_lattice(e8, 0, 1, "M")
    N = difference_lattice(e8, 1, 2, "N")
    Ntilde = difference_lattice(e8, 0, 2, "Ntilde")
    # E = (M+N)^perp: (a, b, c) orthogonal to all (v, -v, 0) and (0, v, -v) has a = b = c
    E = map_lattice(lambda v: tuple(v) * 3, e8, "E")
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


def _root_current(space: FockSpace, alpha: Sequence) -> FockState:
    return space._exp_sum([block_embed(alpha, slot, 3) for slot in range(3)], 1)


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

    mplusn = Lattice("M+N", family.M.basis + family.N.basis)
    deltas = [tuple(x - y for x, y in zip(block_embed(alpha, i, 3), block_embed(alpha, j, 3)))
              for alpha in shell(family.K, 2, cache).vectors
              for i, j in ((0, 1), (1, 2), (0, 2))]
    alt1 = (space.virasoro_of_subspace(family.E)
            + space.virasoro_of_subspace(mplusn).scale(Q(3, 4))
            + space._exp_sum(deltas, Q(-1, 12)))

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
    x_plus = space._exp_sum([maps.iota(j, alpha) for j in range(k)], 1)
    x_minus = space._exp_sum([maps.iota(j, tuple(-x for x in alpha)) for j in range(k)], -1)
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
