import itertools
import random

import pytest

from griess_lab.fock import (
    FockSpace,
    FockState,
    WeightOverflowError,
    _root_current,
    check_commutant_annihilation,
    parafermion_omega,
    parafermion_space,
    real_form_components,
    sugawara_expressions,
    sugawara_omega,
)
from griess_lab.lattice import (
    EmbeddingMaps, block_embed, build_standard, lattice_sum, shell)
from griess_lab.numerics import Eisenstein, ONE, Q, ZETA


def osc(space, h, n=1, coeff=1):
    return space.oscillator_state([(h, n)], coeff)


def unit(dim, k):
    return tuple(Q(1) if i == k else Q(0) for i in range(dim))


class TestFockState:
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
        assert family.axes[1][2].weight() == 2
        assert family.space.vacuum().weight() == 0

    def test_mixed_weight_rejected(self, family):
        sp = family.space
        mixed = sp.vacuum() + family.axes[0][0]
        with pytest.raises(ValueError):
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
        sign = sp._eps_sign(tuple(2 * Q(x) for x in beta),
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
        coeff = got.coefficient(((), tuple(int(2 * x) for x in joined)))
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
    s = FockState()
    for _ in range(nterms):
        c = Eisenstein(Q(rng.randint(-3, 3), rng.randint(1, 4)),
                       Q(rng.randint(-2, 2), rng.randint(1, 3)))
        kind = rng.randrange(4)
        if kind == 0:
            k, l = rng.randrange(24), rng.randrange(24)
            s = s + space.oscillator_state(
                [(unit(24, k), 1), (unit(24, l), 1)], c)
        elif kind == 1:
            s = s + space.oscillator_state([(unit(24, rng.randrange(24)), 2)], c)
        elif kind == 2:
            s = s + space.exp_state(quartic[rng.randrange(len(quartic))], c)
        else:
            gamma = roots[rng.randrange(len(roots))]
            s = s + space.heisenberg_mode(
                unit(24, rng.randrange(24)), -1, space.exp_state(gamma, c))
    return s


# -- test-only reference engine ---------------------------------------------------
#
# A Fraction/Eisenstein mode engine kept apart from the integer kernel in
# griess_lab.fock: the same normal-ordered splittings, but every rational
# factor is a Fraction, Heisenberg modes dot dense unit vectors, and every
# (exponent, monomial) pair goes through the per-term kernel with no
# prefilter.  Only the cocycle sign comes from the space.


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
    base = coeff * space._eps_sign(beta2, g2)
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
        }
        rights = [
            sp.vacuum().scale(coeff()),
            sp.oscillator_state([e(k_())], coeff()) + sp.exp_state(
                roots[rng.randrange(len(roots))], coeff()),
            sp.exp_state(quartic[rng.randrange(len(quartic))], coeff()) + mixed(coeff()),
            family.axis(1, 2),
            _random_weight2_state(sp, family, rng, 8),
            _random_weight2_state(sp, family, rng, 8).scale(third_quarter),
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
            assert sp.invariant_form(a, b) == sp.apply_mode(a, 3, b).coefficient(vacuum_key)

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
        w = sp.virasoro_of_subspace(lattice_sum(family.M, family.N, "M+N"))
        parts = (sp.virasoro_of_subspace(family.M)
                 + sp.virasoro_of_subspace(family.N)
                 + sp.virasoro_of_subspace(family.Ntilde))
        assert w == parts.scale(Q(2, 3))

    def test_degenerate_subspace_rejected(self, family):
        sp = family.space
        v = family.M.basis[0]
        with pytest.raises(Exception):
            sp.virasoro_of_subspace([v, v])


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
            rhs = sp.apply_mode(b, 1, a) - sp.translate(sp.apply_mode(b, 2, a))
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
        assert lhs == sp.griess_product(b, a) - sp.translate(sp.apply_mode(b, 2, a))

    def test_translation_on_low_weight(self, family):
        sp = family.space
        h = unit(24, 4)
        assert sp.translate(osc(sp, h)) == sp.oscillator_state([(h, 2)])
        gamma = block_embed(family.e8.basis[1], 0, 3)
        s = sp.exp_state(gamma)
        want = FockState()
        for k, x in enumerate(gamma):
            if x:
                want = want + FockState(
                    {(((1, k),), tuple(int(2 * y) for y in gamma)): Eisenstein(Q(x))})
        assert sp.translate(s) == want
        assert sp.translate(sp.vacuum()).is_zero()
        with pytest.raises(WeightOverflowError):
            sp.translate(family.axes[0][0])


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

    def test_report_shape(self, family, cache):
        rep = check_commutant_annihilation(family, cache)
        assert rep.ok
        assert rep.roots == 72 and rep.axes == 9
        assert rep.checks == 72 * 9 * 4
        assert rep.failures == ()


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


class TestSerialization:
    def test_round_trip(self, family):
        sp = family.space
        states = [
            family.axes[0][0],
            sugawara_omega(family),
            family.axes[1][1].scale(ZETA) + sp.virasoro_of_subspace(family.M),
        ]
        for s in states:
            assert sp.load_state(sp.dump_state(s)) == s

    def test_header_and_count_validation(self, family):
        sp = family.space
        with pytest.raises(ValueError):
            sp.load_state("wrong v1 0\n")
        text = sp.dump_state(family.axes[0][0])
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(ValueError):
            sp.load_state(truncated)
