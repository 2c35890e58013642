import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from griess_lab.lattice import build_standard
from griess_lab.numerics import (ONE, SQRT_MINUS_3, ZERO, ZETA, Eisenstein, Matrix, Q,
                                 bareiss, dot)

# Derandomized, bounded property runs keep the suite deterministic.
ORACLE = settings(derandomize=True, max_examples=15, deadline=None, database=None)


def rand_eis(rng: random.Random) -> Eisenstein:
    def q() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    return Eisenstein(q(), q())


class TestEisenstein:
    def test_zeta_is_primitive_cube_root(self):
        assert ZETA ** 3 == ONE
        assert ZETA ** 2 + ZETA + ONE == ZERO
        assert ZETA != ONE

    def test_sqrt_minus_3(self):
        assert SQRT_MINUS_3 == ONE + 2 * ZETA
        assert SQRT_MINUS_3 ** 2 == -3

    def test_field_axioms_on_random_samples(self):
        rng = random.Random(20260814)
        for _ in range(200):
            x, y, z = (rand_eis(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x
            assert x * y == y * x
            assert x - x == ZERO
            if y != ZERO:
                assert (x / y) * y == x

    def test_conjugation_and_norm(self):
        rng = random.Random(7)
        for _ in range(100):
            x = rand_eis(rng)
            n = x * x.conj()
            assert n.rational_part() == x.norm
            assert x.norm >= 0

    def test_rational_interop(self):
        x = Eisenstein(Q(3, 4))
        assert x == Q(3, 4)
        assert x + Q(1, 4) == 1
        assert 2 * x == Q(3, 2)
        assert x.rational_part() == Q(3, 4)
        with pytest.raises(ValueError):
            ZETA.rational_part()

    def test_division(self):
        assert ONE / ZETA == ZETA ** 2
        x = Eisenstein(Q(2), Q(-5))
        assert x / x == ONE

    def test_power(self):
        x = Eisenstein(Q(1, 2), Q(1, 3))
        acc = ONE
        for k in range(6):
            assert x ** k == acc
            acc = acc * x

    def test_hash_matches_rational_values(self):
        assert hash(Eisenstein(Q(5, 2))) == hash(Q(5, 2))
        d = {Eisenstein(2): "a"}
        assert d[Eisenstein(2)] == "a"


class TestMatrix:
    def test_rref_idempotent(self):
        rng = random.Random(99)
        for _ in range(25):
            m = Matrix([[Q(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)])
            r1, _ = m.rref()
            r2, _ = r1.rref()
            assert r1.rows == r2.rows

    def test_solve_and_inverse(self):
        m = Matrix([[Q(2), Q(1)], [Q(1), Q(1)]])
        x = m.solve((Q(3), Q(2)))
        assert x == (Q(1), Q(1))
        inv = m.inverse()
        assert m.matmul(inv).rows == Matrix.identity(2).rows
        assert m.det() == 1

    def test_int_entries_stay_exact(self):
        m = Matrix([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
        assert all(type(x) is Fraction for r in m.rows for x in r)
        d = m.det()
        assert d == 20 and type(d) is Fraction
        x = Matrix([[7, 3], [3, 5]]).solve((1, 2))
        assert x == (Q(-1, 26), Q(11, 26)) and all(type(c) is Fraction for c in x)
        assert Matrix([[2, 1], [1, 1]]).inverse().rows == ((1, -1), (-1, 2))
        with pytest.raises(TypeError):
            Matrix([[ZETA, 1]])

    def test_solve_inconsistent(self):
        m = Matrix([[Q(1), Q(1)], [Q(2), Q(2)]])
        assert m.solve((Q(0), Q(1))) is None

    def test_det_triangular_and_swap(self):
        m = Matrix([[Q(0), Q(1)], [Q(1), Q(0)]])
        assert m.det() == -1
        m = Matrix([[Q(2), Q(5)], [Q(0), Q(3)]])
        assert m.det() == 6

    def test_det_multiplicative(self):
        rng = random.Random(11)
        for _ in range(20):
            a = Matrix([[Q(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
            b = Matrix([[Q(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
            assert a.matmul(b).det() == a.det() * b.det()

    def test_eisenstein_entries(self):
        with pytest.raises(TypeError):
            Matrix([[ZETA, ZERO], [ZERO, ZETA ** 2]])

    def test_dot(self):
        assert dot((Q(1), Q(2)), (Q(3), Q(4))) == 11
        with pytest.raises(ValueError):
            dot((Q(1),), (Q(1), Q(2)))


# -- the Fraction reference for bareiss and the Matrix methods built on it ----------


def reference_rref(rows):
    """(RREF, pivot columns) by textbook Fraction Gauss-Jordan elimination
    with division by the pivot."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    for col in range(nc):
        k = len(pivots)
        p = next((i for i in range(k, nr) if m[i][col]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][col] for x in m[k]]
        for i in range(nr):
            if i != k and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        pivots.append(col)
        if len(pivots) == nr:
            break
    return m, tuple(pivots)


def reference_det(rows):
    """Leibniz expansion: no elimination at all."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(Fraction(rows[i][perm[i]]) for i in range(n))
    return total


def reference_inverse(rows):
    n = len(rows)
    red, pivots = reference_rref([list(r) + [int(i == j) for j in range(n)]
                                  for i, r in enumerate(rows)])
    assert pivots == tuple(range(n))
    return [r[n:] for r in red]


def random_rationals(rng, nr, nc, kind):
    """A seeded nr x nc rational matrix of the given kind."""
    def entry():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
    m = [[entry() for _ in range(nc)] for _ in range(nr)]
    if kind == "rank-deficient":
        a, b = entry(), entry()
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    elif kind == "zero-leading-minor":
        m[0][0] = Fraction(0)
    elif kind == "singular-leading-2x2":
        m[1][:2] = [Fraction(-3, 2) * x for x in m[0][:2]]
    elif kind == "negative-pivots":
        for i in range(min(nr, nc)):
            m[i][i] = -abs(m[i][i]) - 7
    return m


KINDS = ("square", "rank-deficient", "zero-leading-minor", "singular-leading-2x2",
         "negative-pivots")
SHAPES = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 4), (3, 5), (4, 2), (5, 3))


def random_cases(seed, count=8):
    rng = random.Random(seed)
    for kind in KINDS:
        for nr, nc in SHAPES:
            if kind != "square" and min(nr, nc) < 2:
                continue
            for _ in range(count):
                yield kind, random_rationals(rng, nr, nc, kind)


def assert_adjugate_inverts(rows):
    """bareiss of [M | I] gives adj and det in integers with
    adj M == det I and adj / det == M^{-1}."""
    n = len(rows)
    red, pivots, det, _ = bareiss([list(r) + [int(i == j) for j in range(n)]
                                   for i, r in enumerate(rows)])
    assert pivots == tuple(range(n)) and det == reference_det(rows)
    d = red[0][0]
    assert all(red[i][j] == d * (i == j) for i in range(n) for j in range(n))
    adj = [[x * det // d for x in r[n:]] for r in red]
    assert all(isinstance(x, int) for r in adj for x in r)
    assert [[sum(adj[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[det * (i == j) for j in range(n)] for i in range(n)]
    assert [[Fraction(x, det) for x in r] for r in adj] == reference_inverse(rows)


class TestBareiss:
    def test_matches_reference_on_random_integer_matrices(self):
        for kind, rows in random_cases(1968):
            ints = [[x.numerator * 30 // x.denominator for x in r] for r in rows]
            red, pivots, det, _ = bareiss(ints)
            want, want_pivots = reference_rref(ints)
            assert pivots == want_pivots, kind
            d = red[0][pivots[0]] if pivots else 1
            assert [[Fraction(x, d) for x in r] for r in red] == want, kind
            nr = len(ints)
            lead = reference_det([r[:nr] for r in ints]) if nr <= len(ints[0]) else 0
            assert det == lead, kind

    @ORACLE
    @given(st.data())
    def test_matches_fraction_inverse_on_gram_matrices(self, data):
        n = data.draw(st.integers(1, 6))
        dim = data.draw(st.integers(n, 7))
        basis = data.draw(st.lists(
            st.lists(st.integers(-5, 5), min_size=dim, max_size=dim),
            min_size=n, max_size=n))
        gram = [[sum(x * y for x, y in zip(r, s)) for s in basis] for r in basis]
        assume(reference_det(gram) != 0)
        assert_adjugate_inverts(gram)

    def test_pivots_past_a_zero_leading_minor(self):
        assert_adjugate_inverts([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert_adjugate_inverts([[-2, 1, 0], [4, -2, 1], [1, 5, -3]])

    def test_a26_gram(self):
        gram = build_standard("A", 26)._int_gram
        red, pivots, det, steps = bareiss(
            [list(r) + [int(i == j) for j in range(26)] for i, r in enumerate(gram)])
        assert det == 27 and pivots == tuple(range(26))
        assert [s[k] for k, s in enumerate(steps)] == list(range(2, 28))
        inverse = reference_inverse(gram)
        assert [[Fraction(x, det) for x in r[26:]] for r in red] == inverse

    def test_singular_is_rejected(self):
        red, pivots, det, _ = bareiss([[1, 2, 1, 0], [2, 4, 0, 1]])
        assert det == 0 and pivots == (0, 2)
        with pytest.raises(ValueError, match="singular"):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_steps_stop_at_the_first_swap(self):
        _, pivots, det, steps = bareiss([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert steps == [[1, 1, 0]]
        assert pivots == (0, 1, 2) and det == -1

    @ORACLE
    @given(st.data())
    def test_steps_are_the_leading_principal_minors(self, data):
        n = data.draw(st.integers(1, 5))
        basis = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1),
            min_size=n, max_size=n))
        gram = [[sum(x * y for x, y in zip(r, s)) for s in basis] for r in basis]
        assume(reference_det(gram) != 0)  # so gram is positive definite
        steps = bareiss(gram)[3]
        assert [s[k] for k, s in enumerate(steps)] == [
            reference_det([r[:k] for r in gram[:k]]) for k in range(1, n + 1)]


class TestMatrixAgainstReference:
    def test_rref_and_pivots(self):
        for kind, rows in random_cases(3):
            red, pivots = Matrix(rows).rref()
            want, want_pivots = reference_rref(rows)
            assert pivots == want_pivots, kind
            assert [list(r) for r in red.rows] == want, kind
            assert all(type(x) is Fraction for r in red.rows for x in r)

    def test_det(self):
        for kind, rows in random_cases(5):
            if len(rows) == len(rows[0]):
                d = Matrix(rows).det()
                assert d == reference_det(rows) and type(d) is Fraction, kind

    def test_inverse_and_solve(self):
        rng = random.Random(8)
        for kind, rows in random_cases(13):
            m, n = Matrix(rows), len(rows)
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            red, pivots = reference_rref([list(r) + [x] for r, x in zip(rows, b)])
            x = m.solve(b)
            if len(rows[0]) in pivots:
                assert x is None, kind
            else:
                assert m.matvec(x) == tuple(b), kind
                want = [Fraction(0)] * len(rows[0])
                for i, pc in enumerate(pivots):
                    want[pc] = red[i][-1]
                assert list(x) == want, kind
            if n != len(rows[0]):
                continue
            if reference_det(rows) == 0:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            else:
                assert [list(r) for r in m.inverse().rows] == reference_inverse(rows), kind
