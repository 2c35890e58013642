import random
from fractions import Fraction

import pytest

from griess_lab.numerics import ONE, SQRT_MINUS_3, ZERO, ZETA, Eisenstein, Matrix, Q, dot


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

    def test_rank_plus_nullity(self):
        rng = random.Random(4)
        for _ in range(25):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix([[Q(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)])
            assert m.rank() + len(m.kernel_basis()) == nc

    def test_kernel_vectors_annihilate(self):
        m = Matrix([[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)], [Q(0), Q(1), Q(1)]])
        for v in m.kernel_basis():
            assert m.matvec(v) == tuple([Q(0)] * 3)

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
        assert Matrix([[ZETA, 1]]).rows[0][0] is ZETA

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

    def test_eigenspace(self):
        m = Matrix([[Q(2), Q(0)], [Q(0), Q(3)]])
        e2 = m.eigenspace(Q(2))
        assert len(e2) == 1 and e2[0][1] == 0
        assert m.eigenspace(Q(5)) == []

    def test_eisenstein_entries(self):
        m = Matrix([[ZETA, ZERO], [ZERO, ZETA ** 2]])
        assert m.det() == ONE
        inv = m.inverse()
        assert inv.rows[0][0] == ZETA ** 2

    def test_dot(self):
        assert dot((Q(1), Q(2)), (Q(3), Q(4))) == 11
        with pytest.raises(ValueError):
            dot((Q(1),), (Q(1), Q(2)))
