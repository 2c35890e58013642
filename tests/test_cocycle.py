import random

import numpy as np
import pytest

from griess_lab.cocycle import build_epsilon0, verify_triviality
from griess_lab.lattice import (
    Lattice,
    block_embed,
    build_standard,
    difference_lattice,
    direct_sum,
    map_lattice,
    shell,
)
from griess_lab.numerics import dot


@pytest.fixture(scope="module")
def table(e8):
    return build_epsilon0(e8)


@pytest.fixture(scope="module")
def triple_table(e8):
    return build_epsilon0(direct_sum([e8, e8, e8], label="E8.E8.E8"))


def random_vector(L, rng):
    coords = [rng.randint(-3, 3) for _ in range(L.rank)]
    return tuple(sum(c * b[k] for c, b in zip(coords, L.basis)) for k in range(L.ambient_dim))


def test_rejects_odd_lattice():
    with pytest.raises(ValueError):
        build_epsilon0(build_standard("Z", 3))


def test_diagonal_case(table, e8):
    for i, b in enumerate(e8.basis):
        assert table.bits[i][i] == (int(dot(b, b)) // 2) % 2
        assert table.epsilon(b, b) == table.bits[i][i]


def test_antisymmetry_congruence_on_random_pairs(table, e8):
    rng = random.Random(1201)
    for _ in range(1000):
        x = random_vector(e8, rng)
        y = random_vector(e8, rng)
        assert (table.epsilon(x, y) + table.epsilon(y, x)) % 2 == int(dot(x, y)) % 2


def test_square_congruence_on_random_vectors(table, e8):
    rng = random.Random(88)
    for _ in range(300):
        x = random_vector(e8, rng)
        assert table.epsilon(x, x) == (int(dot(x, x)) // 2) % 2


def test_bilinearity(table, e8):
    rng = random.Random(5150)
    for _ in range(200):
        x, y, z = (random_vector(e8, rng) for _ in range(3))
        s = tuple(a + b for a, b in zip(x, y))
        assert table.epsilon(s, z) == (table.epsilon(x, z) + table.epsilon(y, z)) % 2
        assert table.epsilon(z, s) == (table.epsilon(z, x) + table.epsilon(z, y)) % 2


def test_zero_argument(table, e8):
    assert table.epsilon(e8.basis[0], (0,) * 8) == 0


def test_roots_square_to_minus_one(table, e8, cache):
    # the sign of e^a e^{-a} for every norm-2 vector
    for alpha in shell(e8, 2, cache).vectors:
        assert table.epsilon(alpha, tuple(-x for x in alpha)) == 1


def test_componentwise_extension(table, triple_table, e8):
    rng = random.Random(77)
    for _ in range(100):
        a, b, c, d, e, f = (random_vector(e8, rng) for _ in range(6))
        left = triple_table.epsilon(a + b + c, d + e + f)
        right = (table.epsilon(a, d) + table.epsilon(b, e) + table.epsilon(c, f)) % 2
        assert left == right


def test_trivial_on_difference_sublattices(triple_table, e8):
    for i, j in ((0, 1), (1, 2), (0, 2)):
        S = map_lattice(
            lambda v, i=i, j=j: tuple(
                x - y for x, y in zip(block_embed(v, i, 3), block_embed(v, j, 3))),
            e8, f"diff{i}{j}")
        assert verify_triviality(triple_table, S)


def test_nontrivial_on_a_single_factor(triple_table, e8):
    S = map_lattice(lambda v: block_embed(v, 0, 3), e8, "factor0")
    assert not verify_triviality(triple_table, S)


def test_rejects_vectors_outside_lattice(table):
    with pytest.raises(ValueError):
        table.epsilon((1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8)


# -- the one rule against the bit-by-bit reference ------------------------------


def ref_epsilon(bits, x, y):
    """eps(x, y) as the parity of the bits[i][j] with x_i and y_j odd."""
    total = 0
    for i, xi in enumerate(x):
        if xi % 2 == 0:
            continue
        for j, yj in enumerate(y):
            if yj % 2 and bits[i][j]:
                total ^= 1
    return total


def ref_trivial(T, S):
    """The cocycle is zero on every ordered pair of basis vectors of S."""
    coords = [[int(c) for c in T.lattice.coords(b)] for b in S.basis]
    return all(ref_epsilon(T.bits, x, y) == 0 for x in coords for y in coords)


@pytest.mark.parametrize("which", ["e8", "triple"])
def test_epsilon_coords_matches_reference(table, triple_table, which):
    T = table if which == "e8" else triple_table
    r = T.lattice.rank
    rng = random.Random(4242)
    draws = (lambda: rng.randint(-3, 3),
             lambda: rng.randint(-2 ** 70, 2 ** 70),
             # past int64 but inside uint64, next to negatives: numpy alone
             # would read such a list as float64 and lose the parity
             lambda: rng.choice((rng.randint(2 ** 63, 2 ** 64 - 1), rng.randint(-3, -1))))
    for draw in draws:
        xs = [[draw() for _ in range(r)] for _ in range(200)]
        ys = [[draw() for _ in range(r)] for _ in range(200)]
        want = [ref_epsilon(T.bits, x, y) for x, y in zip(xs, ys)]
        got = [T.epsilon_coords(x, y) for x, y in zip(xs, ys)]
        assert got == want and all(type(e) is int for e in got)
        assert T.epsilon_coords(xs, ys).tolist() == want
    small = np.array([[rng.randint(-3, 3) for _ in range(r)] for _ in range(400)])
    want = [ref_epsilon(T.bits, x, y) for x, y in zip(small[:200], small[200:])]
    assert T.epsilon_coords(small[:200], small[200:]).tolist() == want


def test_epsilon_returns_int(table, e8):
    assert type(table.epsilon(e8.basis[0], e8.basis[1])) is int


def test_verify_triviality_matches_pairwise_reference(triple_table, e8):
    for i, j in ((0, 1), (1, 2), (0, 2)):
        S = difference_lattice(e8, i, j, f"diff{i}{j}")
        assert verify_triviality(triple_table, S) is ref_trivial(triple_table, S) is True
    S = map_lattice(lambda v: block_embed(v, 0, 3), e8, "factor0")
    assert verify_triviality(triple_table, S) is ref_trivial(triple_table, S) is False


def test_verify_triviality_reads_both_orders(table, e8):
    # x, y with eps zero on (x, x), (y, y) and (x, y) but not on (y, x):
    # with either basis order, one half of the pairs alone looks trivial
    rng = random.Random(31)
    while True:
        x, y = random_vector(e8, rng), random_vector(e8, rng)
        if ([table.epsilon(u, v) for u, v in ((x, x), (y, y), (x, y), (y, x))]
                == [0, 0, 0, 1]):
            break
    for basis in ((x, y), (y, x)):
        S = Lattice("xy", basis)
        assert ref_trivial(table, S) is verify_triviality(table, S) is False
