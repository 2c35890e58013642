import collections
import cProfile
import dataclasses
import itertools
import math
import pickle
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from griess_lab.fock import (
    FockSpace,
    FockState,
    WeightOverflowError,
    _Accumulator,
    _root_current,
    _wt8,
    check_commutant_annihilation,
    parafermion_omega,
    parafermion_space,
    real_form_components,
    sugawara_expressions,
    sugawara_omega,
)
from griess_lab.lattice import (
    EmbeddingMaps, Lattice, block_embed, build_standard, shell)
from griess_lab.numerics import Eisenstein, Matrix, ONE, Q, ZERO, ZETA, _common_scale, dot


def osc(space, h, n=1, coeff=1):
    return space.oscillator_state([(h, n)], coeff)


def translate(s):
    """L(-1) on weight <= 1 states."""
    # over twice the denominator, as gamma_k = g2[k] / 2
    out = _Accumulator()
    for (osc, g2), (r, z) in s._nums.items():
        w8 = _wt8((osc, g2))
        if w8 == 0:
            continue
        if w8 > 8:
            raise WeightOverflowError("translation is only available below weight 2")
        if osc:
            (n, k) = osc[0]
            out.add((((n + 1, k),), g2), 2 * n * r, 2 * n * z)
            continue
        for k, x in enumerate(g2):
            if x:
                out.add((((1, k),), g2), x * r, x * z)
    return out.state(2 * s._den)


def unit(dim, k):
    return tuple(Q(1) if i == k else Q(0) for i in range(dim))


# a few monomials of a rank-2 frame, so that random states overlap and cancel
_MONOS = [((), (0, 0)), ((), (2, -2)), ((), (-2, 2)), (((1, 0),), (0, 0)),
          (((1, 0), (1, 1)), (0, 0)), (((2, 1),), (0, 0)), (((1, 1),), (2, 0))]
_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
_EISENSTEINS = st.builds(Eisenstein, _RATIONALS, _RATIONALS)
_SCALARS = st.one_of(st.integers(-6, 6), _RATIONALS, _EISENSTEINS)
_TERMS = st.dictionaries(st.sampled_from(_MONOS), _SCALARS, max_size=len(_MONOS))


def _eis(c):
    return c if isinstance(c, Eisenstein) else Eisenstein(Fraction(c))


def _model(terms):
    """The {monomial: Eisenstein} model of a state: nonzero coefficients only."""
    return {m: _eis(c) for m, c in terms.items() if c}


def _model_add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, ZERO) + c * sign
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _checked_view(s):
    """The terms of s, after checking that its stored denominator is the
    least common one of its coefficients (the state is reduced)."""
    assert s._den == math.lcm(*(x.denominator for c in s.terms.values() for x in (c.re, c.zc)))
    return dict(s.terms)


class TestFockState:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(_TERMS, _TERMS, _SCALARS, _EISENSTEINS, _EISENSTEINS)
    def test_integer_arithmetic_matches_eisenstein_model(self, ta, tb, c, y, z):
        a, b = FockState(ta), FockState(tb)
        ma, mb = _model(ta), _model(tb)
        assert _checked_view(a) == ma and _checked_view(b) == mb
        assert _checked_view(a + b) == _model_add(ma, mb)
        assert _checked_view(a - b) == _model_add(ma, mb, -1)
        for k in (c, _eis(c), ZETA, -2):
            assert _checked_view(a.scale(k)) == {m: v * k for m, v in ma.items() if v * k}
        assert (a == b) == (ma == mb)
        assert (a - a).is_zero() and (a + a.scale(-1)).is_zero() and a.scale(0).is_zero()
        assert FockState(ma) == a and FockState(_model_add(ma, mb)) == a + b
        # equal states built along different paths hold the same integers
        for other in ((a + b) - b, (b + a) - b, a.scale(3) - a - a, a.scale(ZETA).scale(ZETA ** 2)):
            assert other == a and (other._den, other._nums) == (a._den, a._nums)
        if c:
            assert a.scale(c).scale(ONE / _eis(c)) == a
        # field axioms of the scalars on the same inputs
        x = _eis(c)
        assert (x + y) + z == x + (y + z) and x + y == y + x
        assert (x * y) * z == x * (y * z) and x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x - x == ZERO and x * ONE == x and x + ZERO == x
        if y:
            assert (x / y) * y == x and y * (ONE / y) == ONE

    def test_zero_coefficients_dropped(self, family):
        v = family.space.vacuum()
        assert (v - v).is_zero()
        assert v.scale(0).is_zero()
        assert len(v + v) == 1

    def test_addition_and_scaling(self, family):
        e_m, e_n = family.axes[0][0], family.axes[0][1]
        s = e_m.scale(Q(2, 3)) + e_n.scale(ZETA)
        assert s - e_n.scale(ZETA) == e_m.scale(Q(2, 3))
        assert s.scale(3) == e_m.scale(2) + e_n.scale(ZETA * 3)

    def test_weight_of_homogeneous_state(self, family):
        axis = family.axes[1][2]
        assert axis.weight() == 2 and axis.weight() is axis.weight()
        assert family.space.vacuum().weight() == 0

    def test_mixed_weight_rejected(self, family):
        # the weight is kept only once found: every call on a mixed state raises
        sp = family.space
        mixed = sp.vacuum() + family.axes[0][0]
        for _ in range(2):
            with pytest.raises(ValueError, match="not homogeneous"):
                mixed.weight()
        with pytest.raises(ValueError):
            sp.griess_product(mixed, family.axes[0][0])


class TestHeisenbergMode:
    def test_annihilates_vacuum(self, family):
        sp = family.space
        h = unit(24, 5)
        assert sp.heisenberg_mode(h, 1, sp.vacuum()).is_zero()

    def test_zero_mode_reads_exponent(self, family):
        sp = family.space
        gamma = family.M.basis[0]
        s = sp.exp_state(gamma)
        h = family.M.basis[1]
        from griess_lab.numerics import dot
        assert sp.heisenberg_mode(h, 0, s) == s.scale(dot(h, gamma))

    def test_contraction_pairs_modes(self, family):
        sp = family.space
        h, hp = unit(24, 3), unit(24, 3)
        s = osc(sp, hp)
        assert sp.heisenberg_mode(h, 1, s) == sp.vacuum()
        assert sp.heisenberg_mode(h, 2, s).is_zero()

    def test_creation_overflow(self, family):
        sp = family.space
        with pytest.raises(WeightOverflowError):
            sp.heisenberg_mode(unit(24, 0), -1, family.axes[0][0])

    def test_zero_direction_still_checks_the_weight(self, family):
        # h = 0 creates nothing, yet h(-1) on weight 2 leaves the sector
        sp = family.space
        zero = (0,) * 24
        with pytest.raises(WeightOverflowError, match="weight 3"):
            sp.heisenberg_mode(zero, -1, family.axes[0][0])
        assert sp.heisenberg_mode(zero, -1, sp.vacuum()).is_zero()

    def test_commutator_scale(self, family):
        sp = family.space
        s = sp.heisenberg_mode(unit(24, 7), -2, sp.vacuum())
        assert sp.heisenberg_mode(unit(24, 7), 2, s) == sp.vacuum().scale(2)


class TestExpMode:
    def test_opposite_exponents_expand_to_oscillators(self, family):
        sp = family.space
        beta = family.M.basis[0]
        minus = tuple(-x for x in beta)
        got = sp.exp_mode(beta, 1, sp.exp_state(minus))
        want = sp.oscillator_state([(beta, 1), (beta, 1)], Q(1, 2))
        want = want + sp.oscillator_state([(beta, 2)], Q(1, 2))
        sign = _ref_sign(sp, tuple(2 * Q(x) for x in beta),
                         tuple(-2 * Q(x) for x in beta))
        assert got == want.scale(sign)

    def test_leading_term_joins_exponents(self, family, cache):
        sp = family.space
        quartic = shell(family.M, 4, cache).vectors
        beta = quartic[0]
        gamma = next(v for v in quartic
                     if sum(x * y for x, y in zip(beta, v)) == -2)
        got = sp.exp_mode(beta, 1, sp.exp_state(gamma))
        joined = tuple(x + y for x, y in zip(beta, gamma))
        assert len(got) == 1
        coeff = got.terms[((), tuple(int(2 * x) for x in joined))]
        assert coeff in (ONE, -ONE)

    def test_nonnegative_pairing_annihilates(self, family, cache):
        sp = family.space
        quartic = shell(family.M, 4, cache).vectors
        beta = quartic[0]
        gamma = next(v for v in quartic
                     if sum(x * y for x, y in zip(beta, v)) >= 0)
        assert sp.exp_mode(beta, 0, sp.exp_state(gamma)).is_zero()

    def test_rejects_outside_vectors(self, family):
        sp = family.space
        with pytest.raises(ValueError):
            sp.exp_mode((Q(1, 3),) * 24, 1, sp.vacuum())

    def test_weight_overflow(self, family, cache):
        sp = family.space
        quartic = shell(family.M, 4, cache).vectors
        beta = quartic[0]
        gamma = next(v for v in quartic
                     if sum(x * y for x, y in zip(beta, v)) == -2)
        with pytest.raises(WeightOverflowError):
            sp.exp_mode(beta, -1, sp.exp_state(gamma))


    def test_mode_below_minus_one_matches_apply_mode(self):
        # beta(-1)e^beta: the public method goes through the same kernel
        sp = FockSpace(build_standard("A", 2))
        beta = (1, -1, 0)
        got = sp.exp_mode(beta, -2, sp.vacuum())
        assert got == sp.apply_mode(sp.exp_state(beta), -2, sp.vacuum())
        assert len(got) == 2

    def test_zero_exponent_is_the_identity_mode(self):
        # e^0 is the vacuum, whose modes are 1_n = delta(n, -1): below -1
        # they vanish instead of overflowing
        sp = FockSpace(build_standard("A", 2))
        s = sp.oscillator_state([((1, -1, 0), 1), ((1, -1, 0), 1)])
        for n in range(-3, 4):
            got = sp.exp_mode((0, 0, 0), n, s)
            assert (got == s) if n == -1 else got.is_zero()

    @pytest.mark.parametrize("m", [2 ** 20, 2 ** 26, 2 ** 28 + 2])
    def test_pairing_is_exact_past_the_float_range(self, m):
        # e^b_n e^-b for b = (m, 0) is the vacuum at n = |b|^2 - 1 only if
        # the pairing of the doubled exponents is exact: m = 2^20 takes the
        # float64 product, m = 2^26 the int64 one, and m = 2^28 + 2, whose
        # pairing -(2^29 + 4)^2 float64 would round, the int64 one too
        sp = FockSpace(Lattice("big", [[m, 0], [0, 2]]))
        got = sp.apply_mode(FockState({((), (2 * m, 0)): 1}), m * m - 1,
                            FockState({((), (-2 * m, 0)): 1}))
        assert got == sp.vacuum()

    def test_exponent_above_weight_two_is_rejected(self):
        sp = FockSpace(build_standard("A", 2))
        with pytest.raises(WeightOverflowError,
                           match="exponent norm exceeds the weight cap"):
            sp.exp_mode((2, -1, -1), 2, sp.exp_state((-1, 0, 1)))


class TestGriessProduct:
    def test_full_virasoro_acts_as_two(self, family):
        sp = family.space
        w = sp.virasoro_of_subspace(family.L)
        assert sp.griess_product(w, w) == w.scale(2)
        assert sp.griess_product(w, family.axes[2][1]) == family.axes[2][1].scale(2)

    def test_axis_idempotent(self, family):
        sp = family.space
        e_m = family.axes[0][0]
        assert sp.griess_product(e_m, e_m) == e_m.scale(2)

    def test_two_axis_product(self, family):
        sp = family.space
        e_m, e_n, e_nt = family.axes[0]
        got = sp.griess_product(e_m, e_n)
        assert got == (e_m + e_n - e_nt).scale(Q(1, 32))

    def test_twisted_fusion(self, family):
        sp = family.space
        lhs = sp.griess_product(family.axis(1, 0), family.axis(1, 1))
        rhs = (family.axis(1, 0) + family.axis(1, 1) - family.axis(1, 2))
        assert lhs == rhs.scale(Q(1, 32))

    def test_matches_per_pair_reference(self, family):
        sp = family.space
        e_m, e_n = family.axes[0][0], family.axes[0][1]
        exp_part = FockState({m: c for m, c in e_m.terms.items() if not m[0]})
        osc_part = e_m - exp_part
        want = _reference_apply_mode(sp, exp_part, 1, e_n)
        want = want + sp.apply_mode(osc_part, 1, e_n)
        assert sp.griess_product(e_m, e_n) == want

    def test_commutative_on_axes(self, family):
        sp = family.space
        pairs = [((0, 0), (1, 2)), ((2, 1), (0, 2)), ((1, 1), (2, 2))]
        for (i, j), (p, q) in pairs:
            a, b = family.axis(i, j), family.axis(p, q)
            assert sp.griess_product(a, b) == sp.griess_product(b, a)

    def test_weight_mismatch(self, family):
        sp = family.space
        with pytest.raises(ValueError):
            sp.griess_product(sp.vacuum(), family.axes[0][0])


def _random_weight2_state(space, family, rng, nterms=6):
    quartic = shell(family.M, 4).vectors + shell(family.N, 4).vectors
    roots = [block_embed(r, rng.randrange(3), 3)
             for r in shell(family.e8, 2).vectors[:40]]
    return _random_weight2(space, roots, quartic, rng, nterms)


def _random_weight2(space, roots, quartic, rng, nterms):
    """A random weight-2 state of space: eps eps, eps(-2), e^gamma for
    gamma in quartic (norm 4) and eps(-1)e^gamma for gamma in roots."""
    dim = space.dim
    s = FockState()
    for _ in range(nterms):
        c = Eisenstein(Q(rng.randint(-3, 3), rng.randint(1, 4)),
                       Q(rng.randint(-2, 2), rng.randint(1, 3)))
        kind = rng.randrange(4)
        if kind == 0:
            k, l = rng.randrange(dim), rng.randrange(dim)
            s = s + space.oscillator_state(
                [(unit(dim, k), 1), (unit(dim, l), 1)], c)
        elif kind == 1:
            s = s + space.oscillator_state([(unit(dim, rng.randrange(dim)), 2)], c)
        elif kind == 2:
            s = s + space.exp_state(quartic[rng.randrange(len(quartic))], c)
        else:
            gamma = roots[rng.randrange(len(roots))]
            s = s + space.heisenberg_mode(
                unit(dim, rng.randrange(dim)), -1, space.exp_state(gamma, c))
    return s


# -- test-only reference engine ---------------------------------------------------
#
# A Fraction/Eisenstein mode engine kept apart from the integer kernel in
# griess_lab.fock: the same normal-ordered splittings, but every rational
# factor is a Fraction, Heisenberg modes dot dense unit vectors, and every
# (exponent, monomial) pair goes through the per-term kernel with no
# prefilter.  The cocycle sign is the bilinear form of the space's cocycle
# table on the lattice coordinates of the two exponents.

_REF_PARITIES = {}


def _ref_parities(space, g2):
    """The lattice coordinates x of an exponent mod 2, and sum_i x_i bits[i]
    mod 2 over the rows of the cocycle table."""
    key = (space.lattice, g2)
    if key not in _REF_PARITIES:
        x = [int(c) % 2 for c in space.lattice.coords(tuple(Q(v, 2) for v in g2))]
        bits = space.cocycle.bits
        xb = [sum(x[i] * bits[i][j] for i in range(len(x))) % 2 for j in range(len(x))]
        _REF_PARITIES[key] = (x, xb)
    return _REF_PARITIES[key]


def _ref_sign(space, beta2, gamma2):
    """(-1)^eps(beta, gamma) = (-1)^(sum_ij x_i y_j bits[i][j]) for the
    lattice coordinates x of beta and y of gamma."""
    xb = _ref_parities(space, beta2)[1]
    y = _ref_parities(space, gamma2)[0]
    return -1 if sum(p * q for p, q in zip(xb, y)) % 2 else 1


class _RefAccumulator:
    def __init__(self):
        self.terms = {}

    def add(self, mono, c):
        s = self.terms.get(mono)
        s = c if s is None else s + c
        if s:
            self.terms[mono] = s
        else:
            self.terms.pop(mono, None)

    def merge(self, terms, c):
        for mono, v in terms.items():
            self.add(mono, v * c)


def _ref_weight(mono):
    osc, g2 = mono
    return sum(n for n, _ in osc) + Q(sum(x * x for x in g2), 8)


def _ref_heisenberg(h, m, terms):
    hq = tuple(Q(x) for x in h)
    out = _RefAccumulator()
    for (osc, g2), c in terms.items():
        if m == 0:
            val = sum((x * y for x, y in zip(hq, g2) if y), Q(0)) / 2
            if val:
                out.add((osc, g2), c * val)
        elif m > 0:
            for i, (n, k) in enumerate(osc):
                if n == m and hq[k]:
                    out.add((osc[:i] + osc[i + 1:], g2), c * (m * hq[k]))
        else:
            if _ref_weight((osc, g2)) - m > 2:
                raise WeightOverflowError(f"h({m}) overflows")
            for k, x in enumerate(hq):
                if x:
                    out.add((tuple(sorted(osc + ((-m, k),))), g2), c * x)
    return out.terms


def _ref_emit_creation_layer(out, osc, g2, d, beta2, coeff):
    if d == 0:
        out.add((osc, g2), coeff)
        return
    support = [(k, Q(x, 2)) for k, x in enumerate(beta2) if x]
    if d == 1:
        for k, bk in support:
            out.add((tuple(sorted(osc + ((1, k),))), g2), coeff * bk)
        return
    # d == 2: (1/2) beta(-1)^2 + (1/2) beta(-2)
    for i, (k, bk) in enumerate(support):
        for l, bl in support[i:]:
            w = bk * bl if k != l else bk * bl / 2
            out.add((tuple(sorted(osc + ((1, k), (1, l)))), g2), coeff * w)
    for k, bk in support:
        out.add((tuple(sorted(osc + ((2, k),))), g2), coeff * (bk / 2))


def _ref_exp_mode_term(space, out, beta2, n, mono, coeff):
    osc, g2 = mono
    out_wt = _ref_weight(mono) + Q(sum(x * x for x in beta2), 8) - n - 1
    bg = Q(sum(x * y for x, y in zip(beta2, g2)), 4)
    if bg.denominator != 1:
        raise ValueError("non-integral pairing between exponents")
    base = coeff * _ref_sign(space, beta2, g2)
    new_g2 = tuple(a + b for a, b in zip(beta2, g2))
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(len(osc)), r) for r in range(len(osc) + 1)):
        d = -n - 1 - int(bg) + sum(osc[i][0] for i in subset)
        if d < 0:
            continue
        factor = base
        for i in subset:
            factor = factor * (-Q(beta2[osc[i][1]], 2))
        if not factor:
            continue
        if out_wt > 2 or d > 2:
            raise WeightOverflowError(f"exp mode {n} overflows")
        rest = tuple(osc[i] for i in range(len(osc)) if i not in subset)
        _ref_emit_creation_layer(out, rest, new_g2, d, beta2, factor)


def _ref_exp_modes(space, out, a_exp, n, b_terms):
    for beta2, c in a_exp.items():
        for mono, c2 in b_terms.items():
            _ref_exp_mode_term(space, out, beta2, n, mono, c * c2)


def _reference_apply_mode(space, a, n, b):
    """apply_mode(a, n, b) computed by the reference engine."""
    unit = [tuple(1 if i == k else 0 for i in range(space.dim))
            for k in range(space.dim)]
    out = _RefAccumulator()
    a_exp = {}
    for (osc, g2), c in a.terms.items():
        is_exp = any(g2)
        if not osc and not is_exp:
            if n == -1:
                out.merge(b.terms, c)
        elif not osc:
            a_exp[g2] = c
        elif not is_exp and osc == ((1, osc[0][1]),):
            out.merge(_ref_heisenberg(unit[osc[0][1]], n, b.terms), c)
        elif not is_exp and osc == ((2, osc[0][1]),):
            if n != 0:
                out.merge(_ref_heisenberg(unit[osc[0][1]], n - 1, b.terms), c * (-n))
        elif not is_exp and len(osc) == 2:
            ek, el = unit[osc[0][1]], unit[osc[1][1]]
            for m in range(-2, 0):
                inner = _ref_heisenberg(el, n - 1 - m, b.terms)
                if inner:
                    out.merge(_ref_heisenberg(ek, m, inner), c)
            for m in range(0, 3):
                inner = _ref_heisenberg(ek, m, b.terms)
                if inner:
                    out.merge(_ref_heisenberg(el, n - 1 - m, inner), c)
        else:
            assert is_exp and len(osc) == 1 and osc[0][0] == 1
            ek = unit[osc[0][1]]
            for m in range(-2, 0):
                inner = _RefAccumulator()
                _ref_exp_modes(space, inner, {g2: c}, n - 1 - m, b.terms)
                if inner.terms:
                    out.merge(_ref_heisenberg(ek, m, inner.terms), ONE)
            for m in range(0, 3):
                inner = _ref_heisenberg(ek, m, b.terms)
                _ref_exp_modes(space, out, {g2: c}, n - 1 - m, inner)
    _ref_exp_modes(space, out, a_exp, n, b.terms)
    return FockState(out.terms)


def _outcome(fn):
    try:
        return fn()
    except WeightOverflowError:
        return WeightOverflowError


def _fock_calls(fn, *args):
    """fn(*args) and the number of calls of each function in fock.py."""
    profile = cProfile.Profile()
    got = profile.runcall(fn, *args)
    calls = collections.Counter()
    for (path, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        if path.endswith("fock.py"):
            calls[name] += ncalls
    return got, calls


class TestExpModesPrefilter:
    def test_apply_mode_matches_per_pair_reference(self, family, cache):
        sp = family.space
        rng = random.Random(20261018)
        roots = shell(family.e8, 2, cache).vectors
        quartic = shell(family.M, 4, cache).vectors
        quartic = quartic + shell(family.N, 4, cache).vectors
        lefts = [_root_current(sp, roots[rng.randrange(len(roots))]) for _ in range(3)]
        lefts += [sp.exp_state(quartic[rng.randrange(len(quartic))]) for _ in range(3)]
        rights = [family.axis(0, 0), family.axis(1, 2)]
        rights += [_random_weight2_state(sp, family, rng, 10) for _ in range(4)]
        landed = 0
        for a in lefts:
            for b in rights:
                for n in range(4):
                    got = _outcome(lambda: sp.apply_mode(a, n, b))
                    assert got == _outcome(lambda: _reference_apply_mode(sp, a, n, b))
                    landed += isinstance(got, FockState) and not got.is_zero()
        assert landed >= 10


class TestIntegerKernel:
    def test_mode_path_does_no_fraction_work(self, family, cache):
        # the kernel reads the stored numerators: one mode of a root current
        # on a warm axis calls nothing in the fractions module
        sp = family.space
        current = _root_current(sp, shell(family.K, 2, cache).vectors[0])
        axis = family.axis(1, 2)
        sp.apply_mode(current, 0, axis)
        profile = cProfile.Profile()
        profile.runcall(sp.apply_mode, current, 0, axis)
        assert not sorted(name for path, _, name in pstats.Stats(profile).stats
                          if path.endswith("fractions.py"))

    def test_apply_mode_matches_reference_engine(self, family, cache):
        # every left-state kind, coefficients over 3 and 4, n = -1 .. 3
        sp = family.space
        rng = random.Random(20261019)
        roots = [block_embed(r, rng.randrange(3), 3)
                 for r in shell(family.e8, 2, cache).vectors[:60]]
        quartic = shell(family.M, 4, cache).vectors + shell(family.N, 4, cache).vectors
        third_quarter = Q(1, 3) + ZETA * Q(1, 4)

        def coeff():
            return third_quarter * Q(rng.choice([1, -2, 5]), rng.choice([1, 3, 4]))

        def e(k, n=1):
            return (unit(24, k), n)

        def k_():
            return rng.randrange(24)

        def mixed(c):
            gamma = roots[rng.randrange(len(roots))]
            k = rng.choice([i for i, x in enumerate(gamma) if x])
            return sp.heisenberg_mode(unit(24, k), -1, sp.exp_state(gamma, c))

        lefts = {
            "vacuum": lambda c: sp.vacuum().scale(c),
            "eps(-1)": lambda c: sp.oscillator_state([e(k_())], c),
            "eps(-2)": lambda c: sp.oscillator_state([e(k_(), 2)], c),
            "eps eps": lambda c: sp.oscillator_state([e(k_()), e(k_())], c),
            "eps(-1)e^gamma": mixed,
            "e^beta": lambda c: sp.exp_state(
                rng.choice([roots[rng.randrange(len(roots))],
                            quartic[rng.randrange(len(quartic))]]), c),
            # every kind in one state, the linear terms on several k each
            "every kind": lambda c: (
                sp.vacuum().scale(c)
                + sum((sp.oscillator_state([e(k)], coeff()) for k in rng.sample(range(24), 3)),
                      FockState())
                + sum((sp.oscillator_state([e(k, 2)], coeff())
                       for k in rng.sample(range(24), 3)), FockState())
                + sp.oscillator_state([e(k_()), e(k_())], coeff())
                + sp.exp_state(roots[rng.randrange(len(roots))], coeff()) + mixed(coeff())),
        }
        rights = [
            sp.vacuum().scale(coeff()),
            sp.oscillator_state([e(k_())], coeff()) + sp.exp_state(
                roots[rng.randrange(len(roots))], coeff()),
            sp.exp_state(quartic[rng.randrange(len(quartic))], coeff()) + mixed(coeff()),
            family.axis(1, 2),
            _random_weight2_state(sp, family, rng, 8),
            _random_weight2_state(sp, family, rng, 8).scale(third_quarter),
            # every eps_k(-1)1 and e^-root, and every eps_k(-2)1: the m = -2
            # and m = 2 terms of a normal-ordered left state land on these
            sum((sp.oscillator_state([e(k)]) for k in range(24)), FockState())
            + sum((sp.exp_state(tuple(-x for x in r)) for r in roots),
                  FockState()).scale(third_quarter),
            sum((sp.oscillator_state([e(k, 2)]) for k in range(24)), FockState()),
        ]
        landed = {kind: 0 for kind in lefts}
        for kind, make in lefts.items():
            for _ in range(2):
                a = make(coeff())
                for b in rights:
                    for n in range(-1, 4):
                        got = _outcome(lambda: sp.apply_mode(a, n, b))
                        want = _outcome(lambda: _reference_apply_mode(sp, a, n, b))
                        assert got == want, (kind, n)
                        landed[kind] += isinstance(got, FockState) and not got.is_zero()
        assert all(landed.values()), landed

    def test_axis_product_is_one_quadratic_pass(self, family):
        # the 24 quadratic terms of omega_M/16 go through one batched pass,
        # which hands its landings to the Heisenberg action once per m, and
        # an axis has no eps_k(-1)e^gamma term
        sp = family.space
        axis = family.axis(0, 0)
        sp.griess_product(axis, axis)
        calls = _fock_calls(sp.griess_product, axis, axis)[1]
        assert calls["_quad_modes"] == 1
        assert calls["_heisenberg"] == 5 and calls["_mixed_mode"] == 0

    def test_linear_left_terms_act_in_two_calls(self, family):
        # all 24 eps_k(-1)1 terms act along one direction and all 24
        # eps_k(-2)1 terms along another
        sp = family.space
        axis = family.axis(0, 0)
        a = sum((sp.oscillator_state([(unit(24, k), j)], Q(k + 1, j) + ZETA * (j - k))
                 for k in range(24) for j in (1, 2)), FockState())
        got, calls = _fock_calls(sp.apply_mode, a, 1, axis)
        assert calls["_heisenberg"] == 2 and calls["_mixed_mode"] == 0
        assert not got.is_zero() and got == _reference_apply_mode(sp, a, 1, axis)

    @pytest.mark.parametrize("osc", [((1, 0), (1, 1), (1, 2)), ((1, 0), (2, 1)), ((2, 0),)],
                             ids=["e0e1e2", "e0e1(-2)", "e0(-2)e^gamma"])
    def test_left_state_above_weight_two_raises(self, family, osc):
        # the normal-ordering recursion keeps only m = -2 .. 2, which is
        # exact only for a left state of weight <= 2
        sp = family.space
        g2 = (2, -2) + (0,) * 22 if osc == ((2, 0),) else sp._zero
        a = FockState({(osc, g2): Q(1, 3)})
        for n in range(-1, 4):
            with pytest.raises(NotImplementedError, match="left state exceeds weight 2"):
                sp.apply_mode(a, n, family.axis(1, 2))


def _quadratic_part(s):
    """The eps_k(-1) eps_l(-1) 1 terms of s."""
    return FockState({m: c for m, c in s.terms.items() if len(m[0]) == 2})


def _random_quadratic(space, rng, coeff, directions, nterms):
    """A sum of nterms terms c eps_k(-1) eps_l(-1) 1 over a few directions,
    so that terms share directions; the first has k = l."""
    s = FockState()
    for t in range(nterms):
        k = rng.choice(directions)
        l = k if t == 0 else rng.choice(directions)
        s = s + space.oscillator_state(
            [(unit(space.dim, k), 1), (unit(space.dim, l), 1)], coeff())
    return s


class TestBatchedKernel:
    def test_self_product_slice_matches_reference(self, family, cache):
        # 40 negation-closed exponentials of e_M against all of e_M: the
        # beta = -gamma pairs land one d = 2 creation layer on the vacuum
        # sector, and many d = 0 landings share each beta + gamma
        sp = family.space
        e_m = family.axes[0][0]
        quartic = shell(family.M, 4, cache).vectors
        half = random.Random(20261020).sample(range(len(quartic) // 2), 20)
        picked = [quartic[k] for k in half] + [quartic[-1 - k] for k in half]
        assert len(set(picked)) == 40
        a = FockState()
        for v in picked:
            a = a + sp.exp_state(v, Q(1, 32))
        outcomes = {}
        for n in range(-1, 4):
            got = _outcome(lambda: sp.apply_mode(a, n, e_m))
            assert got == _outcome(lambda: _reference_apply_mode(sp, a, n, e_m)), n
            outcomes[n] = got
        assert outcomes[-1] is WeightOverflowError and outcomes[0] is WeightOverflowError
        # the beta(-2) halves of that layer cancel over the negation-closed
        # set, so only its beta(-1)^2 half is left
        vacuum_sector = [osc for osc, g2 in outcomes[1].terms if osc and not any(g2)]
        assert vacuum_sector and all(len(osc) == 2 for osc in vacuum_sector)

    def test_mixed_weight_states_match_reference(self, family, cache):
        # with b not homogeneous, landings on one exponent and one oscillator
        # part can carry different layer weights d and must not be summed
        sp = family.space
        rng = random.Random(20261022)
        roots = shell(family.e8, 2, cache).vectors
        b = FockState()
        for _ in range(6):
            gamma = block_embed(roots[rng.randrange(len(roots))], rng.randrange(3), 3)
            k = rng.choice([t for t, x in enumerate(gamma) if x])
            c = Eisenstein(Q(rng.randint(1, 5), 3), Q(rng.randint(-2, 2), 2))
            b = b + sp.exp_state(gamma, c) + sp.heisenberg_mode(
                unit(24, k), -1, sp.exp_state(gamma, c * 2))
        b = b + sp.oscillator_state([(unit(24, rng.randrange(24)), 1)], Q(1, 5))
        landed = 0
        for _ in range(4):
            beta = block_embed(roots[rng.randrange(len(roots))], rng.randrange(3), 3)
            a = sp.exp_state(beta) + sp.exp_state(tuple(-x for x in beta), ZETA)
            for n in range(-2, 3):
                got = _outcome(lambda: sp.apply_mode(a, n, b))
                assert got == _outcome(lambda: _reference_apply_mode(sp, a, n, b)), n
                landed += isinstance(got, FockState) and not got.is_zero()
        assert landed

    def test_quadratic_left_states_match_reference(self, family, cache):
        # every eps_k(-1) eps_l(-1) 1 term of a left state goes through one
        # pass over b, so these lefts hold many terms that share directions
        # and whose contributions must be summed right
        sp = family.space
        rng = random.Random(20261023)
        third_quarter = Q(1, 3) + ZETA * Q(1, 4)

        def coeff():
            return third_quarter * Q(rng.choice([1, -2, 5]), rng.choice([1, 3, 4]))

        def eps2_sum(space):
            return sum((space.oscillator_state([(unit(space.dim, k), 2)])
                        for k in range(space.dim)), FockState())

        cases = [(sp, {
            "omega_M/16": _quadratic_part(family.axis(0, 0)),
            "omega_E": sp.virasoro_of_subspace(family.E),
            "omega_L": sp.virasoro_of_subspace(family.L),
            "random": _random_quadratic(sp, rng, coeff, [0, 1, 8, 9], 8),
        }, [family.axis(1, 2), _random_weight2_state(sp, family, rng, 8), sp.vacuum(),
            eps2_sum(sp)])]
        for level in (2, 3):
            space = parafermion_space(level)
            omega = parafermion_omega((1, -1, 0), level, space)
            roots = shell(space.lattice, 2, cache).vectors
            quartic = shell(space.lattice, 4, cache).vectors
            cases.append((space, {f"parafermion {level}": _quadratic_part(omega)},
                          [omega, _random_weight2(space, roots, quartic, rng, 8),
                           space.vacuum(), eps2_sum(space)]))
        for space, lefts, rights in cases:
            for kind, a in lefts.items():
                assert len(a) > 1 and all(len(osc) == 2 for osc, _ in a.terms), kind
                landed = 0
                for b in rights:
                    for n in range(-1, 4):
                        got = _outcome(lambda: space.apply_mode(a, n, b))
                        want = _outcome(lambda: _reference_apply_mode(space, a, n, b))
                        assert got == want, (kind, n)
                        landed += isinstance(got, FockState) and not got.is_zero()
                assert landed, kind

    def test_cancelling_quadratic_left_still_raises(self):
        # at n = 0 both terms land an h(-1) on e^gamma in weight 3, while
        # the direction they add up to, e_0 (gamma_1 - gamma_2), is zero
        sp = FockSpace(build_standard("E8"))
        e = [(unit(8, k), 1) for k in range(3)]
        a = sp.oscillator_state([e[0], e[1]]) - sp.oscillator_state([e[0], e[2]])
        b = sp.exp_state((0, 1, 1, 1, 1, 0, 0, 0))
        with pytest.raises(WeightOverflowError, match="weight 3"):
            sp.apply_mode(a, 0, b)
        assert _outcome(lambda: _reference_apply_mode(sp, a, 0, b)) is WeightOverflowError

    def test_large_numerators_use_exact_integers(self, family, cache, monkeypatch):
        # numerators beyond 2^31 on both sides: int64 could overflow, so the
        # kernel must switch to Python integers and still agree exactly
        from griess_lab import fock
        chosen = []
        original = fock._int_dtype

        def spy(bound):
            chosen.append(original(bound))
            return chosen[-1]

        monkeypatch.setattr(fock, "_int_dtype", spy)
        sp = family.space
        rng = random.Random(20261021)
        big = Eisenstein(Q(2 ** 40 + 1, 3), Q(-(2 ** 37) + 5, 7))
        roots = shell(family.e8, 2, cache).vectors
        quartic = shell(family.M, 4, cache).vectors + shell(family.N, 4, cache).vectors
        a = _root_current(sp, roots[rng.randrange(len(roots))]).scale(big)
        for _ in range(3):
            a = a + sp.exp_state(quartic[rng.randrange(len(quartic))], big * Q(3, 5))
        b = (_random_weight2_state(sp, family, rng, 8).scale(Q(2 ** 35 + 3, 11))
             + family.axis(0, 0).scale(big))
        landed = 0
        for n in range(-1, 4):
            got = _outcome(lambda: sp.apply_mode(a, n, b))
            assert got == _outcome(lambda: _reference_apply_mode(sp, a, n, b)), n
            landed += isinstance(got, FockState) and not got.is_zero()
        assert landed
        assert object in chosen


# -- the per-(state, space) view of a right-hand state -------------------------


def _viewless(s):
    """A copy of s with no view, so that a mode builds one afresh."""
    return FockState._of(s._den, dict(s._nums))


def _unfiltered_heisenberg(space, h, m, s):
    """heisenberg_mode(h, m, s) with _heisenberg run over every term of s."""
    hn, dh = _common_scale(h)
    out = _Accumulator()
    direction = {k: (x, 0) for k, x in enumerate(hn) if x}
    space._heisenberg(out, m, [(osc, g2, pair, direction, 1)
                               for (osc, g2), pair in s._nums.items()])
    return out.state(s._den * dh * 2)


class TestStateView:
    def test_pickle_leaves_the_view_behind(self, family, cache):
        sp = family.space
        axis = family.axis(1, 2)
        before = pickle.dumps(_viewless(axis))
        alpha = shell(family.K, 2, cache).vectors[0]
        assert sp.apply_mode(_root_current(sp, alpha), 1, axis).is_zero()
        assert axis._view is not None and axis._view[0] is sp
        after = pickle.dumps(axis)
        assert len(after) == len(before) and after == before
        back = pickle.loads(after)
        assert back == axis and back._view is None

    def test_one_state_in_two_spaces(self):
        # two spaces on one lattice whose exponent memos hold the same
        # exponents in different rows: a view built in one is wrong in the other
        lat = build_standard("A", 2)
        roots = shell(lat, 2).vectors
        first, second = FockSpace(lat), FockSpace(lat)
        for sp, order in ((first, roots), (second, roots[::-1])):
            for r in order:
                sp.exp_state(r)
        assert first._masks != second._masks
        assert set(first._masks) == set(second._masks)
        e = [unit(3, k) for k in range(3)]
        sp = first
        b = (sp.exp_state(roots[0], 2) + sp.exp_state(roots[3], ZETA)
             + sp.exp_state(roots[4], Q(-1, 3))
             + sp.heisenberg_mode(e[0], -1, sp.exp_state(roots[1], Q(3, 2)))
             + sp.heisenberg_mode(e[2], -1, sp.exp_state(roots[5]))
             + sp.oscillator_state([(e[1], 1), (e[2], 1)], ZETA * 2))
        a = (sp.exp_state(roots[2]) + sp.exp_state(roots[4], ZETA)
             + sp.heisenberg_mode(e[1], -1, sp.exp_state(roots[0], Q(1, 2)))
             + sp.oscillator_state([(e[0], 1)], 3))
        landed = 0
        for sp in (first, second, first):
            for n in range(-1, 3):
                got = _outcome(lambda: sp.apply_mode(a, n, b))
                assert got == _outcome(lambda: sp.apply_mode(a, n, _viewless(b))), n
                landed += isinstance(got, FockState) and not got.is_zero()
                assert b._view[0] is sp
            for m in range(-1, 3):
                for h in (e[0], roots[1], (Q(1, 2), 3, -1)):
                    got = _outcome(lambda: sp.heisenberg_mode(h, m, b))
                    assert got == _outcome(lambda: sp.heisenberg_mode(h, m, _viewless(b)))
        assert landed >= 6

    def test_a_late_large_numerator_bounds_the_sums(self, family, cache):
        # one monomial near 2^60, last in b: a bound read off b's first
        # monomials would keep the sums in int64, where they overflow
        sp = family.space
        quartic = shell(family.M, 4, cache).vectors
        gamma = quartic[7]
        b = FockState()
        for k in range(8, 14):
            b = b + sp.exp_state(quartic[k], k)
        b = b + sp.exp_state(gamma, Eisenstein(Q(2 ** 60 + 1), Q(2 ** 59 - 3)))
        assert list(b._nums)[-1][1] == tuple(2 * x for x in gamma)
        a = sp.exp_state(tuple(-x for x in gamma), 5) + sp.exp_state(quartic[9], ZETA)
        landed = 0
        for n in range(-1, 4):
            got = _outcome(lambda: sp.apply_mode(a, n, b))
            assert got == _outcome(lambda: _reference_apply_mode(sp, a, n, b)), n
            landed += isinstance(got, FockState) and any(
                max(map(abs, pair)) > 2 ** 62 for pair in got._nums.values())
        assert landed


class TestHeisenbergPrefilter:
    def test_matches_the_unfiltered_kernel(self, family, cache):
        sp = family.space
        rng = random.Random(20261023)
        states = [family.axis(i, j) for i in range(3) for j in range(3)]
        states.append(sugawara_omega(family, cache))
        states += [_random_weight2_state(sp, family, rng, 8) for _ in range(3)]
        alpha = shell(family.K, 2, cache).vectors[5]
        big = 2 ** 62
        small = [tuple(alpha) * 3, unit(24, 3), tuple(Q(rng.randint(-3, 3), 2) for _ in range(24))]
        # entries near 2^62 pass the int64 range: 2^62 (e_0 + e_1) pairs to
        # 2^62 * 4 = 2^64 with a doubled root (2, 2, 0, ..., 0)
        large = [tuple(big if k < 2 else 0 for k in range(24)),
                 tuple(big - 1 if k % 8 == 0 else 0 for k in range(24)),
                 tuple(rng.choice([big, -big, big - 3, 0, 1]) for _ in range(24))]
        nonzero = 0
        for s in states:
            for h in small + large:
                for m in range(-2, 3):
                    got = _outcome(lambda: sp.heisenberg_mode(h, m, s))
                    assert got == _outcome(lambda: _unfiltered_heisenberg(sp, h, m, s)), m
                    nonzero += m >= 0 and not got.is_zero()
        assert nonzero >= 40


def _quasi_primary_pool(family):
    """Building blocks that interact: for E8 roots r1, r2 with <r1, r2> = -1
    and r3 = -(r1 + r2), the norm-4 vectors +-(r, -r, 0) of M, the roots
    +-r in the first two slots, and the coordinates those touch."""
    roots = shell(family.e8, 2).vectors
    r1 = roots[0]
    r2 = next(r for r in roots if sum(x * y for x, y in zip(r1, r)) == -1)
    base = [r1, r2, tuple(-x - y for x, y in zip(r1, r2))]
    base += [tuple(-x for x in r) for r in base]
    quartic = [tuple(r) + tuple(-x for x in r) + (Q(0),) * 8 for r in base]
    pool_roots = [block_embed(r, slot, 3) for r in base for slot in (0, 1)]
    coords = sorted({k for v in pool_roots for k, x in enumerate(v) if x})
    return quartic, pool_roots, coords


def _quasi_primary_state(space, family, draws):
    """A combination of quasi-primary weight-2 monomials from the pool:
    eps_k(-1)eps_l(-1)1, e^beta with |beta|^2 = 4, and eps_k(-1)e^gamma with
    gamma a root and gamma_k = 0."""
    quartic, roots, coords = _quasi_primary_pool(family)
    s = FockState()
    for kind, i, j, re, zc in draws:
        c = Eisenstein(Q(re, 4), Q(zc, 3))
        if kind == 0:
            k, l = coords[i % len(coords)], coords[j % len(coords)]
            s = s + space.oscillator_state([(unit(24, k), 1), (unit(24, l), 1)], c)
        elif kind == 1:
            s = s + space.exp_state(quartic[i % len(quartic)], c)
        else:
            gamma = roots[i % len(roots)]
            free = [t for t in coords if not gamma[t]]
            k = free[j % len(free)]
            s = s + space.heisenberg_mode(unit(24, k), -1, space.exp_state(gamma, c))
    return s


_IDENTITIES = settings(derandomize=True, max_examples=25, deadline=None, database=None)
_DRAWS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 11), st.integers(0, 7),
                            st.integers(-3, 3), st.integers(-2, 2)),
                  min_size=2, max_size=6)


class TestEngineIdentities:
    @_IDENTITIES
    @given(_DRAWS, _DRAWS, _DRAWS)
    def test_form_associativity_on_quasi_primaries(self, family, da, db, dc):
        sp = family.space
        a, b, c = (_quasi_primary_state(sp, family, d) for d in (da, db, dc))
        assume(a and b and c)
        ab, ac = sp.griess_product(a, b), sp.griess_product(a, c)
        if ab and ac:
            assert sp.invariant_form(c, ab) == sp.invariant_form(b, ac)
        else:
            assert not ab or sp.invariant_form(c, ab) == 0
            assert not ac or sp.invariant_form(b, ac) == 0

    @_IDENTITIES
    @given(st.integers(0, 2 ** 32), st.integers(1, 2))
    def test_twist_and_conjugation_preserve_products(self, family, seed, k):
        sp = family.space
        rng = random.Random(seed)
        a = _random_weight2_state(sp, family, rng)
        b = _random_weight2_state(sp, family, rng)
        assume(a and b)
        ab = sp.griess_product(a, b)
        rho = lambda s: sp.rho_twist(family.a, k, s)  # noqa: E731
        assert rho(ab) == sp.griess_product(rho(a), rho(b))
        assert sp.theta(ab) == sp.griess_product(sp.theta(a), sp.theta(b))


class TestInvariantForm:
    def test_axis_norms_and_pairings(self, family):
        sp = family.space
        e_m, e_n, e_nt = family.axes[0]
        assert sp.invariant_form(e_m, e_m) == Q(1, 4)
        assert sp.invariant_form(e_m, e_n) == Q(1, 256)
        assert sp.invariant_form(e_n, e_nt) == Q(1, 256)

    def test_full_virasoro_norm(self, family):
        sp = family.space
        w = sp.virasoro_of_subspace(family.L)
        assert sp.invariant_form(w, w) == 12

    def test_matches_mode_engine_on_random_states(self, family):
        sp = family.space
        rng = random.Random(20260814)
        vacuum_key = ((), (0,) * 24)
        for _ in range(12):
            a = _random_weight2_state(sp, family, rng)
            b = _random_weight2_state(sp, family, rng)
            if a.is_zero() or b.is_zero():
                continue
            assert sp.invariant_form(a, b) == sp.apply_mode(a, 3, b).terms.get(vacuum_key, ZERO)

    def test_symmetric(self, family):
        sp = family.space
        rng = random.Random(7)
        for _ in range(8):
            a = _random_weight2_state(sp, family, rng)
            b = _random_weight2_state(sp, family, rng)
            if a.is_zero() or b.is_zero():
                continue
            assert sp.invariant_form(a, b) == sp.invariant_form(b, a)

    def test_weight_checked(self, family):
        sp = family.space
        with pytest.raises(ValueError):
            sp.invariant_form(sp.vacuum(), family.axes[0][0])


class TestVirasoroOfSubspace:
    def test_norms_track_dimension(self, family):
        sp = family.space
        w_m = sp.virasoro_of_subspace(family.M)
        assert sp.invariant_form(w_m, w_m) == 4
        assert sp.griess_product(w_m, w_m) == w_m.scale(2)

    def test_triple_difference_sum(self, family):
        sp = family.space
        w = sp.virasoro_of_subspace(Lattice("M+N", family.M.basis + family.N.basis))
        parts = (sp.virasoro_of_subspace(family.M)
                 + sp.virasoro_of_subspace(family.N)
                 + sp.virasoro_of_subspace(family.Ntilde))
        assert w == parts.scale(Q(2, 3))

    def test_degenerate_subspace_rejected(self, family):
        sp = family.space
        v = family.M.basis[0]
        with pytest.raises(ValueError):
            sp.virasoro_of_subspace(Lattice("MM", [v, v]))

    def test_matches_fraction_projector(self, family):
        a2, e8 = build_standard("A", 2), build_standard("E8")
        for sp, S in ((FockSpace(a2), a2), (FockSpace(e8), e8),
                      (family.space, family.M), (family.space, family.E)):
            # (1/2) sum_kl P[k][l] eps_k(-1) eps_l(-1) with P = B^T G^-1 B
            B = Matrix(S.basis)
            P = B.transpose().matmul(S.gram.inverse()).matmul(B).rows
            want = FockState({(((1, k), (1, l)), (0,) * sp.dim): P[k][l] / (2 if k == l else 1)
                              for k in range(sp.dim) for l in range(k, sp.dim)})
            assert sp.virasoro_of_subspace(S) == want


class TestIsingConstructor:
    def test_certified_on_all_three_copies(self, family):
        sp = family.space
        for S, axis in ((family.M, family.axes[0][0]),
                        (family.N, family.axes[0][1]),
                        (family.Ntilde, family.axes[0][2])):
            e = sp.ising_of_sqrt2E8(S)
            assert e == axis
            assert sp.griess_product(e, e) == e.scale(2)
            assert sp.invariant_form(e, e) == Q(1, 4)

    def test_rejects_lattices_with_roots(self, family):
        with pytest.raises(ValueError):
            family.space.ising_of_sqrt2E8(family.L)

    def test_matches_term_by_term_sum(self, family, cache):
        sp = family.space
        want = sp.virasoro_of_subspace(family.M).scale(Q(1, 16))
        for v in shell(family.M, 4, cache).vectors:
            want = want + sp.exp_state(v, Q(1, 32))
        assert sp.ising_of_sqrt2E8(family.M, cache) == want


class TestExpSum:
    def test_repeated_exponent_adds(self):
        sp = FockSpace(build_standard("A", 2))
        root, other = (1, -1, 0), (0, 1, -1)
        got = sp._exp_sum([root, other, root], Q(1, 3))
        assert got == sp.exp_state(root, Q(2, 3)) + sp.exp_state(other, Q(1, 3))

    def test_rejects_off_lattice_and_heavy_exponents(self):
        sp = FockSpace(build_standard("A", 2))
        with pytest.raises(ValueError, match="not a lattice vector"):
            sp._exp_sum([(1, -1, 0), (Q(1, 2), Q(-1, 2), 0)], 1)
        with pytest.raises(ValueError, match="not a lattice vector"):
            sp._exp_sum([(1, 0, 0)], 1)
        with pytest.raises(WeightOverflowError):
            sp._exp_sum([(1, -1, 0), (1, 1, -2)], 1)


class TestRhoAndTheta:
    def test_zero_twist_is_identity(self, family):
        sp = family.space
        assert sp.rho_twist(family.a, 0, family.axes[0][1]) == family.axes[0][1]

    def test_order_three(self, family):
        sp = family.space
        s = family.axes[0][0] + family.axes[0][2].scale(ZETA)
        t = s
        for _ in range(3):
            t = sp.rho_twist(family.a, 1, t)
        assert t == s

    def test_twist_average_collapses_to_kernel_coset(self, family, cache):
        sp = family.space
        total = family.axes[0][0] + family.axes[1][0] + family.axes[2][0]
        want = sp.virasoro_of_subspace(family.M).scale(Q(3, 16))
        for alpha in shell(family.K, 2, cache).vectors:
            gamma = tuple(alpha) + tuple(-x for x in alpha) + (Q(0),) * 8
            want = want + sp.exp_state(gamma, Q(3, 32))
        assert total == want

    def test_twist_is_algebra_automorphism(self, family):
        sp = family.space
        a, b = family.axes[0][1], family.axes[0][2]
        ra = sp.rho_twist(family.a, 1, a)
        rb = sp.rho_twist(family.a, 1, b)
        assert sp.rho_twist(family.a, 1, sp.griess_product(a, b)) == \
            sp.griess_product(ra, rb)
        assert sp.invariant_form(ra, rb) == sp.invariant_form(a, b)

    def test_conjugation_fixes_oscillator_states(self, family):
        sp = family.space
        w = sp.virasoro_of_subspace(family.L)
        assert sp.theta(w) == w

    def test_conjugation_fixes_first_axis(self, family):
        sp = family.space
        assert sp.theta(family.axes[0][0]) == family.axes[0][0]

    def test_conjugation_is_involutive_automorphism(self, family):
        sp = family.space
        a, b = family.axes[1][0], family.axes[2][0]
        assert sp.theta(sp.theta(a)) == a
        assert sp.theta(sp.griess_product(a, b)) == \
            sp.griess_product(sp.theta(a), sp.theta(b))


class TestSkewRule:
    def test_product_skew_on_difference_shells(self, family, cache):
        sp = family.space
        vectors = []
        for S in (family.M, family.N, family.Ntilde):
            vectors.extend(shell(S, 4, cache).vectors)
        rng = random.Random(99)
        for _ in range(200):
            beta = vectors[rng.randrange(len(vectors))]
            gamma = vectors[rng.randrange(len(vectors))]
            a, b = sp.exp_state(beta), sp.exp_state(gamma)
            lhs = sp.apply_mode(a, 1, b)
            rhs = sp.apply_mode(b, 1, a) - translate(sp.apply_mode(b, 2, a))
            assert lhs == rhs

    def test_skew_rule_with_mixed_left_state(self, family):
        # eps_k(-1)e^gamma on eps_k(-2)1 needs the exponential mode -2
        sp = family.space
        root = block_embed(shell(family.e8, 2).vectors[0], 0, 3)
        k = next(i for i, x in enumerate(root) if x)
        a = sp.heisenberg_mode(unit(24, k), -1, sp.exp_state(root))
        b = sp.oscillator_state([(unit(24, k), 2)])
        lhs = sp.griess_product(a, b)
        assert not lhs.is_zero()
        assert lhs == sp.griess_product(b, a) - translate(sp.apply_mode(b, 2, a))

    def test_translation_on_low_weight(self, family):
        sp = family.space
        h = unit(24, 4)
        assert translate(osc(sp, h)) == sp.oscillator_state([(h, 2)])
        gamma = block_embed(family.e8.basis[1], 0, 3)
        s = sp.exp_state(gamma)
        want = FockState()
        for k, x in enumerate(gamma):
            if x:
                want = want + FockState(
                    {(((1, k),), tuple(int(2 * y) for y in gamma)): Eisenstein(Q(x))})
        assert translate(s) == want
        assert translate(sp.vacuum()).is_zero()
        with pytest.raises(WeightOverflowError):
            translate(family.axes[0][0])


class TestSugawara:
    def test_three_expressions_agree(self, family, cache):
        omega, alt1, alt2 = sugawara_expressions(family, cache)
        assert omega == alt1
        assert omega == alt2

    def test_virasoro_certificate(self, family, cache):
        sp = family.space
        omega = sugawara_omega(family, cache)
        assert sp.griess_product(omega, omega) == omega.scale(2)
        assert sp.invariant_form(omega, omega) == 10

    def test_fixes_difference_directions_with_eigenvalue(self, family, cache):
        sp = family.space
        omega = sugawara_omega(family, cache)
        h1, h2 = family.M.basis[0], family.N.basis[3]
        s = osc(sp, h1) + osc(sp, h2, coeff=ZETA)
        assert sp.apply_mode(omega, 1, s) == s.scale(Q(3, 4))


class TestCommutant:
    def test_sampled_roots_annihilate_axes(self, family, cache):
        sp = family.space
        roots = shell(family.K, 2, cache).vectors[:6]
        for alpha in roots:
            h = tuple(alpha) * 3
            current = _root_current(sp, alpha)
            for i in range(3):
                for j in range(3):
                    axis = family.axes[i][j]
                    for n in (0, 1):
                        assert sp.heisenberg_mode(h, n, axis).is_zero()
                        assert sp.apply_mode(current, n, axis).is_zero()

    def test_planted_exponential_fails_where_the_pairings_say(self, family, cache):
        # axis (0,0) plus e^gamma, gamma = (r0, r1, 0) of norm 4 and outside
        # M; h(0) is diagonal, h(1) kills e^gamma, and e^beta_n e^gamma has
        # leading layer weight -n - 1 - <beta, gamma>
        sp = family.space
        roots = shell(family.K, 2, cache).vectors
        r0 = tuple(-x for x in roots[0])
        r1 = next(r for r in shell(family.e8, 2, cache).vectors if dot(r, r0) == 1)
        gamma = tuple(x + y for x, y in zip(block_embed(r0, 0, 3), block_embed(r1, 1, 3)))
        axes = family.axes
        planted = dataclasses.replace(family, axes=(
            (axes[0][0] + sp.exp_state(gamma),) + axes[0][1:],) + axes[1:])
        want, kinds = [], set()
        for alpha in roots:
            betas = [block_embed(alpha, slot, 3) for slot in range(3)]
            for n in (0, 1):
                for kind, fails in (
                        ("H", n == 0 and dot(tuple(alpha) * 3, gamma) != 0),
                        ("E", any(-n - 1 - dot(beta, gamma) >= 0 for beta in betas))):
                    if fails:
                        want.append(f"{kind}({alpha})_{n} on axis (0,0)")
                        kinds.add(f"{kind}_{n}")
        report = check_commutant_annihilation(planted, cache)
        assert (report.roots, report.axes, report.checks) == (72, 9, 2592)
        assert report.failures == tuple(want)
        assert kinds == {"H_0", "E_0", "E_1"}


class TestParafermion:
    @pytest.mark.parametrize("level,charge", [(2, Q(1, 2)), (3, Q(4, 5)), (9, Q(16, 11))])
    def test_coset_central_charges(self, level, charge):
        sp = parafermion_space(level)
        omega = parafermion_omega((1, -1, 0), level, sp)
        assert sp.invariant_form(omega, omega) == charge / 2
        assert sp.griess_product(omega, omega) == omega.scale(2)

    def test_commutes_with_cartan(self):
        sp = parafermion_space(9)
        omega = parafermion_omega((0, 1, -1), 9, sp)
        h = EmbeddingMaps(8, 2).mu((0, 1, -1))
        assert sp.heisenberg_mode(h, 1, omega).is_zero()
        assert sp.heisenberg_mode(h, 0, omega).is_zero()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parafermion_omega((1, 1, -2), 9)
        with pytest.raises(ValueError):
            parafermion_omega((1, -1, 0), 1)
        with pytest.raises(ValueError):
            parafermion_omega((1, -1, 0), 4, parafermion_space(5))


class TestRealForm:
    def test_components_sum_to_axis(self, family):
        x0, x1, x2 = real_form_components(family)
        assert x0 + x1 + x2 == family.axes[0][0]

    def test_component_supports(self, family):
        x0, x1, x2 = real_form_components(family)
        assert len(x1) == 84 and len(x2) == 84
        for s in (x1, x2):
            assert all(c == Eisenstein(Q(1, 32)) for c in s.terms.values())
        assert all(c.zc == 0 for c in x0.terms.values())

    def test_conjugation_swaps_single_cosets(self, family):
        sp = family.space
        x0, x1, x2 = real_form_components(family)
        assert sp.theta(x0) == x0
        assert sp.theta(x1) == x2
        assert sp.theta(x1 + x2) == x1 + x2
        assert sp.theta(x1 - x2) == (x1 - x2).scale(-1)

    def test_twisted_axis_display(self, family):
        x0, x1, x2 = real_form_components(family)
        root_minus_3 = ONE + ZETA + ZETA
        display = x0 + (x1 + x2).scale(Q(-1, 2)) \
            + (x1 - x2).scale(root_minus_3 * Q(1, 2))
        assert display == family.axes[1][0]
