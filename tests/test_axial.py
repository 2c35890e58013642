"""Tests for the structure-constant algebras, Miyamoto involutions and
group closure, and the bridge from the Fock engine."""

import operator
from fractions import Fraction as Q
from functools import reduce

import pytest

from griess_lab.axial import (
    AG3_LINES,
    LinearEndo,
    StructureAlgebra,
    adjoint,
    adjoint_spectrum,
    affine_central_charge,
    algebra_from_griess,
    as_automorphism,
    axis_vector,
    build_3C,
    build_G9,
    certify_virasoro,
    check_a_products,
    griess_table_entries,
    group_closure,
    highest_weight_check,
    lie_algebra,
    line_sum_idempotent,
    miyamoto_sigma,
    miyamoto_tau,
    parafermion_central_charge,
    standard_frame,
    verify_automorphism,
)
from griess_lab.fock import FockSpace
from griess_lab.numerics import ZETA, Matrix


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vadd(*xs):
    return tuple(sum(col) for col in zip(*xs))


@pytest.fixture(scope="module")
def u3():
    return build_3C()


@pytest.fixture(scope="module")
def g9():
    return build_G9()


@pytest.fixture(scope="module")
def taus(g9):
    return {(i, j): miyamoto_tau(g9, axis_vector(g9, i, j))
            for i in range(3) for j in range(3)}


@pytest.fixture(scope="module")
def tau_group(taus):
    return group_closure([taus[(0, 0)], taus[(0, 1)], taus[(1, 0)]])


class TestStructureAlgebra:
    def test_rejects_noncommutative_table(self):
        table = [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]
        gram = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="not commutative"):
            StructureAlgebra(["x", "y"], table, gram)

    def test_rejects_asymmetric_gram(self):
        zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(ValueError, match="not symmetric"):
            StructureAlgebra(["x", "y"], zero, [[1, 2], [0, 1]])

    def test_rejects_nonassociative_form(self):
        table = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
        gram = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="form not associative"):
            StructureAlgebra(["x", "y"], table, gram)

    def test_multiply_and_form(self, u3):
        e0, e1 = u3.unit(0), u3.unit(1)
        assert u3.multiply(e0, e0) == (Q(2), Q(0), Q(0))
        assert u3.multiply(e0, e1) == (Q(1, 32), Q(1, 32), Q(-1, 32))
        assert u3.form(e0, e0) == Q(1, 4)
        assert u3.form(e0, e1) == Q(1, 256)


class TestThreeAxes:
    def test_omega_central_charge(self, u3):
        omega = tuple(Q(32, 33) for _ in range(3))
        assert certify_virasoro(u3, omega) == Q(16, 11)

    def test_complement_of_one_axis(self, u3):
        omega = tuple(Q(32, 33) for _ in range(3))
        a = vsub(omega, u3.unit(0))
        assert certify_virasoro(u3, a) == Q(21, 22)
        assert u3.form(a, a) == Q(21, 44)
        assert not any(u3.multiply(u3.unit(0), a))

    def test_adjoint_spectrum(self, u3):
        assert adjoint_spectrum(u3, u3.unit(0)) == {Q(2): 1, Q(0): 1, Q(1, 16): 1}

    def test_difference_is_sixteenth_eigenvector(self, u3):
        v = vsub(u3.unit(1), u3.unit(2))
        ad = adjoint(u3, u3.unit(0))
        assert ad.matvec(v) == tuple(Q(1, 16) * x for x in v)

    def test_tau_swaps_other_axes(self, u3):
        tau = miyamoto_tau(u3, u3.unit(0))
        assert tau.automorphism
        assert tau.matrix.matvec(u3.unit(0)) == u3.unit(0)
        assert tau.matrix.matvec(u3.unit(1)) == u3.unit(2)
        assert tau.matrix.matvec(u3.unit(2)) == u3.unit(1)

    def test_sigma_is_identity(self, u3):
        sig = miyamoto_sigma(u3, u3.unit(0))
        assert sig.matrix == Matrix.identity(3)
        assert sig.automorphism

    def test_non_idempotent_rejected(self, u3):
        v = vadd(u3.unit(0), u3.unit(1))
        with pytest.raises(ValueError, match="not idempotent"):
            certify_virasoro(u3, v)


class TestNineAxes:
    def test_gram_determinant(self, g9):
        assert g9.gram.det() == Q(9, 32) * Q(63, 256) ** 8
        assert g9.gram.rank() == 9

    def test_omega_central_charge_and_identity(self, g9):
        omega = tuple(Q(8, 9) for _ in range(9))
        assert certify_virasoro(g9, omega) == Q(4)
        half = tuple(x / 2 for x in omega)
        for i in range(9):
            assert g9.multiply(half, g9.unit(i)) == g9.unit(i)

    def test_axis_vector_wraps_mod_three(self, g9):
        assert axis_vector(g9, 3, 4) == axis_vector(g9, 0, 1)
        assert axis_vector(g9, -1, -2) == axis_vector(g9, 2, 1)

    def test_line_idempotents(self, g9):
        for line in AG3_LINES:
            a = line_sum_idempotent(g9, line)
            assert certify_virasoro(g9, a) == Q(21, 22)
            assert g9.form(a, a) == Q(21, 44)

    def test_line_exchange_products(self, g9):
        report = check_a_products(g9)
        assert len(report) == 6
        assert all(report.values())

    def test_adjoint_spectrum_has_no_half(self, g9):
        assert adjoint_spectrum(g9, g9.unit(0)) == {Q(2): 1, Q(0): 4, Q(1, 16): 4}

    def test_standard_frame(self, g9):
        e00, a1, b1 = standard_frame(g9)
        assert certify_virasoro(g9, e00) == Q(1, 2)
        assert certify_virasoro(g9, a1) == Q(21, 22)
        assert certify_virasoro(g9, b1) == Q(28, 11)
        assert Q(1, 2) + Q(21, 22) + Q(28, 11) == Q(4)
        for x, y in ((e00, a1), (e00, b1), (a1, b1)):
            assert not any(g9.multiply(x, y))
        omega = tuple(Q(8, 9) for _ in range(9))
        assert vadd(e00, a1, b1) == omega


class TestHighestWeightVectors:
    def test_documented_triples(self, g9):
        frame = standard_frame(g9)
        a = [line_sum_idempotent(g9, line) for line in AG3_LINES]
        row = [[axis_vector(g9, i, j) for j in range(3)] for i in range(3)]
        cases = [
            (vsub(a[1], a[2]), (Q(0), Q(1, 11), Q(21, 11))),
            (vsub(row[0][1], row[0][2]), (Q(1, 16), Q(31, 16), Q(0))),
            (vsub(vadd(*row[1]), vadd(*row[2])),
             (Q(1, 16), Q(21, 176), Q(20, 11))),
            (vsub(vsub(row[1][1], row[2][2]), vsub(row[1][2], row[2][1])),
             (Q(1, 16), Q(5, 176), Q(21, 11))),
        ]
        for v, want in cases:
            assert highest_weight_check(g9, v, frame) == want

    def test_scaling_invariance(self, g9):
        frame = standard_frame(g9)
        v = vsub(axis_vector(g9, 0, 1), axis_vector(g9, 0, 2))
        w = tuple(Q(-7, 3) * x for x in v)
        assert highest_weight_check(g9, w, frame) == (Q(1, 16), Q(31, 16), Q(0))

    def test_rejects_non_eigenvector(self, g9):
        frame = standard_frame(g9)
        v = vadd(axis_vector(g9, 0, 1), axis_vector(g9, 0, 2))
        with pytest.raises(ValueError, match="simultaneous eigenvector"):
            highest_weight_check(g9, v, frame)

    def test_rejects_zero_vector(self, g9):
        frame = standard_frame(g9)
        with pytest.raises(ValueError, match="zero vector"):
            highest_weight_check(g9, tuple(Q(0) for _ in range(9)), frame)


class TestMiyamoto:
    def test_tau_fixes_its_axis_and_permutes_the_rest(self, g9):
        tau = miyamoto_tau(g9, g9.unit(0))
        assert tau.automorphism
        assert tau.matrix.matvec(g9.unit(0)) == g9.unit(0)
        assert tau.matrix.matvec(axis_vector(g9, 1, 1)) == axis_vector(g9, 2, 2)
        assert tau.matrix.matvec(axis_vector(g9, 1, 2)) == axis_vector(g9, 2, 1)
        assert tau.matrix.matvec(axis_vector(g9, 0, 1)) == axis_vector(g9, 0, 2)
        units = {g9.unit(i) for i in range(9)}
        assert {tau.matrix.matvec(u) for u in units} == units

    def test_tau_is_an_involution(self, g9):
        tau = miyamoto_tau(g9, axis_vector(g9, 1, 2))
        assert tau.matrix != Matrix.identity(9)
        assert tau.matrix.matmul(tau.matrix) == Matrix.identity(9)

    def test_sigma_is_identity(self, g9):
        sig = miyamoto_sigma(g9, g9.unit(0))
        assert sig.matrix == Matrix.identity(9)
        assert sig.automorphism

    def test_sigma_negates_the_half_eigenspace(self):
        # e x = x/2 and x x = 2e: an axis with a 1/2-eigenvector, where
        # sigma is not the identity and tau is
        table = [[[2, 0], [0, Q(1, 2)]], [[0, Q(1, 2)], [2, 0]]]
        half = StructureAlgebra(["e", "x"], table, [[Q(1, 4), 0], [0, 1]])
        e = half.unit(0)
        assert adjoint_spectrum(half, e) == {Q(2): 1, Q(1, 2): 1}
        sig = miyamoto_sigma(half, e)
        assert sig.matrix == Matrix([[1, 0], [0, -1]])
        assert sig.automorphism
        assert miyamoto_tau(half, e).matrix == Matrix.identity(2)

    def test_sigma_rejects_a_half_part_outside_the_fusion_rules(self):
        # x x = x + 2s e with s = 1/8: the 1/2-eigenvector squares into the
        # 1/2 part, so x -> -x breaks the product on the fixed subalgebra
        s = Q(1, 8)
        table = [[[2, 0], [0, Q(1, 2)]], [[0, Q(1, 2)], [2 * s, 1]]]
        bad = StructureAlgebra(["e", "x"], table, [[Q(1, 4), 0], [0, s]])
        e = bad.unit(0)
        assert adjoint_spectrum(bad, e) == {Q(2): 1, Q(1, 2): 1}
        with pytest.raises(ValueError, match="fails to preserve the fixed subalgebra"):
            miyamoto_sigma(bad, e)

    def test_rejects_wrong_central_charge(self, g9):
        omega = tuple(Q(8, 9) for _ in range(9))
        with pytest.raises(ValueError, match="central charge 1/2"):
            miyamoto_tau(g9, omega)
        with pytest.raises(ValueError, match="central charge 1/2"):
            miyamoto_sigma(g9, omega)

    def test_rejects_spectrum_outside_fusion_set(self):
        table = [[[2, 0], [0, Q(1, 3)]], [[0, Q(1, 3)], [1, 0]]]
        gram = [[Q(1, 4), 0], [0, Q(3, 4)]]
        odd = StructureAlgebra(["e", "x"], table, gram)
        assert certify_virasoro(odd, odd.unit(0)) == Q(1, 2)
        with pytest.raises(ValueError, match="eigenvalues outside"):
            miyamoto_tau(odd, odd.unit(0))

    def test_rejects_a_non_diagonalizable_adjoint(self):
        # e y = x and e x = 0: a Jordan block at 0, every eigenvalue in
        # the fusion set, but the eigenspaces do not span
        zero, e, x = [0, 0, 0], [1, 0, 0], [0, 1, 0]
        table = [[[2, 0, 0], zero, x], [zero, zero, zero], [x, zero, [4, 0, 0]]]
        gram = [[Q(1, 4), 0, 0], [0, 0, 1], [0, 1, 0]]
        jordan = StructureAlgebra(["e", "x", "y"], table, gram)
        assert certify_virasoro(jordan, e) == Q(1, 2)
        assert adjoint_spectrum(jordan, e) == {Q(2): 1, Q(0): 1}
        with pytest.raises(ValueError, match="eigenvalues outside"):
            miyamoto_tau(jordan, e)
        with pytest.raises(ValueError, match="eigenvalues outside"):
            miyamoto_sigma(jordan, e)

    @pytest.mark.parametrize("build", [build_3C, build_G9])
    def test_tau_is_the_reflection_in_the_sixteenth_projection(self, build):
        # P = (I - tau)/2 is pinned without the projection formula: a
        # projection, onto 1/16-eigenvectors, whose kernel ad kills with
        # the other three fusion eigenvalues
        A = build()
        ident = Matrix.identity(A.dim)

        def lin(*terms):
            return Matrix([[sum(c * m.rows[i][j] for c, m in terms)
                            for j in range(A.dim)] for i in range(A.dim)])

        for i in range(A.dim):
            ad = adjoint(A, A.unit(i))
            p = lin((Q(1, 2), ident), (Q(-1, 2), miyamoto_tau(A, A.unit(i)).matrix))
            assert p.matmul(p) == p
            assert ad.matmul(p) == p.matmul(ad) == lin((Q(1, 16), p))
            rest = reduce(Matrix.matmul, [ad, lin((1, ad), (-2, ident)),
                                          lin((1, ad), (Q(-1, 2), ident)),
                                          lin((1, ident), (-1, p))])
            assert rest == lin()


class TestGroupClosure:
    def test_order_eighteen(self, tau_group):
        assert tau_group.order == 18

    def test_shape_certificate(self, tau_group):
        assert tau_group.shape_certificate() == {
            "order": 18,
            "o3_size": 9,
            "o3_normal": True,
            "involutions": 9,
            "involutions_conjugate": True,
            "quotient_order": 2,
        }

    def test_all_nine_generate_the_same_group(self, taus, tau_group):
        full = group_closure(list(taus.values()))
        assert set(full.elements) == set(tau_group.elements)

    def test_commuting_order_three_products(self, taus, tau_group):
        g = taus[(0, 0)].compose(taus[(1, 0)])
        h = taus[(0, 0)].compose(taus[(0, 1)])
        assert tau_group.element_order(g.matrix) == 3
        assert tau_group.element_order(h.matrix) == 3
        assert g.matrix.matmul(h.matrix) == h.matrix.matmul(g.matrix)
        assert tau_group.element_order(Matrix.identity(9)) == 1

    def test_requires_verified_automorphisms(self, g9):
        raw = LinearEndo(Matrix.identity(9))
        with pytest.raises(ValueError, match="verified automorphisms"):
            group_closure([raw])

    def test_bound_is_enforced(self, taus):
        with pytest.raises(RuntimeError, match="exceeded bound"):
            group_closure([taus[(0, 0)], taus[(0, 1)], taus[(1, 0)]], bound=5)


def reference_closure(mats, bound=10 ** 4):
    """The former matrix-product engine: close under right products, then
    orders by repeated products and conjugates with explicit inverses."""
    ident = Matrix.identity(mats[0].nrows)
    seen, frontier = {ident}, [ident]
    while frontier:
        x = frontier.pop()
        for m in mats:
            y = x.matmul(m)
            if y not in seen:
                assert len(seen) < bound
                seen.add(y)
                frontier.append(y)
    elements = tuple(sorted(seen, key=lambda m: m.rows))
    inverses = {g: g.inverse() for g in elements}

    def order(m):
        p, n = m, 1
        while p != ident:
            p, n = p.matmul(m), n + 1
        return n

    orders = [order(m) for m in elements]
    invs = [m for m, o in zip(elements, orders) if o == 2]
    o3 = [m for m, o in zip(elements, orders) if o in (1, 3)]
    normal = all(g.matmul(s).matmul(gi) in set(o3)
                 for g, gi in inverses.items() for s in o3)
    conj = {g.matmul(invs[0]).matmul(gi) for g, gi in inverses.items()} if invs else set()
    certificate = {
        "order": len(elements),
        "o3_size": len(o3),
        "o3_normal": normal,
        "involutions": len(invs),
        "involutions_conjugate": set(invs) <= conj,
        "quotient_order": len(elements) // len(o3) if o3 else 0,
    }
    return elements, orders, certificate


def integer_matrix(rows):
    return Matrix([[Q(x) for x in r] for r in rows])


def trusted(rows):
    """A generator marked verified without an algebra to verify it on."""
    return LinearEndo(integer_matrix(rows), automorphism=True)


def s3_generators():
    return [trusted([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            trusted([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]


def dihedral12_generators():
    # rotation of order 6 and a reflection of the hexagonal lattice Z^2;
    # the orbit of the standard basis is the six A2 roots
    return [trusted([[1, -1], [1, 0]]), trusted([[0, 1], [1, 0]])]


class TestPermutationEngineOracle:
    @pytest.mark.parametrize("case", ["three-taus", "nine-taus", "dihedral12", "s3"])
    def test_matches_matrix_product_closure(self, case, taus):
        gens = {
            "three-taus": [taus[(0, 0)], taus[(0, 1)], taus[(1, 0)]],
            "nine-taus": list(taus.values()),
            "dihedral12": dihedral12_generators(),
            "s3": s3_generators(),
        }[case]
        group = group_closure(gens)
        elements, orders, certificate = reference_closure([g.matrix for g in gens])
        assert group.elements == elements
        assert [group.element_order(m) for m in group.elements] == orders
        assert group.shape_certificate() == certificate

    def test_dihedral_orbit_is_larger_than_the_dimension(self):
        group = group_closure(dihedral12_generators())
        assert group.order == 12
        orbit_sizes = {len(p) for p in group.perm_of.values()}
        assert orbit_sizes == {6}
        assert sorted(group.element_order(m) for m in group.elements) == [
            1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]

    def test_infinite_group_hits_the_bound(self):
        with pytest.raises(RuntimeError, match="exceeded bound"):
            group_closure([trusted([[1, 1], [0, 1]])], bound=50)

    def test_element_order_rejects_non_members(self, tau_group):
        swap = [[Q(0)] * 9 for _ in range(9)]
        for j, i in enumerate([1, 0] + list(range(2, 9))):
            swap[i][j] = Q(1)
        doubling = [[Q(2 if i == j == 0 else int(i == j)) for j in range(9)]
                    for i in range(9)]
        for rows in (swap, doubling):
            with pytest.raises(ValueError, match="not an element"):
                tau_group.element_order(Matrix(rows))


class TestAutomorphismChecks:
    def test_translation_is_an_automorphism(self, g9):
        rows = [[Q(0)] * 9 for _ in range(9)]
        for i in range(3):
            for j in range(3):
                rows[3 * i + (j + 1) % 3][3 * i + j] = Q(1)
        m = Matrix(rows)
        assert verify_automorphism(g9, m)
        endo = as_automorphism(g9, m)
        assert endo.automorphism

    def test_transposition_is_not(self, g9):
        rows = [[Q(0)] * 9 for _ in range(9)]
        perm = [1, 0] + list(range(2, 9))
        for j, i in enumerate(perm):
            rows[i][j] = Q(1)
        m = Matrix(rows)
        assert not verify_automorphism(g9, m)
        with pytest.raises(ValueError, match="does not preserve"):
            as_automorphism(g9, m)

    def test_form_preserving_map_that_breaks_the_product(self, g9):
        # the 3-cycle e00 -> e01 -> e11 -> e00 permutes the axes, so it keeps
        # the Gram matrix, but it sends the line {e00, e11, e22} off a line
        rows = [[Q(0)] * 9 for _ in range(9)]
        perm = list(range(9))
        perm[0], perm[1], perm[4] = 1, 4, 0
        for j, i in enumerate(perm):
            rows[i][j] = Q(1)
        m = Matrix(rows)
        assert m.transpose().matmul(g9.gram).matmul(m) == g9.gram
        assert not verify_automorphism(g9, m)


class TestCentralCharges:
    def test_lie_data(self):
        a8 = lie_algebra("A", 8)
        assert (a8.rank, a8.dim, a8.dual_coxeter) == (8, 80, 9)
        e8 = lie_algebra("E", 8)
        assert (e8.rank, e8.dim, e8.dual_coxeter) == (8, 248, 30)
        with pytest.raises(ValueError, match="unsupported"):
            lie_algebra("D", 4)

    def test_affine_values(self):
        assert affine_central_charge(lie_algebra("A", 8), 3) == Q(20)
        assert affine_central_charge(lie_algebra("A", 2), 9) == Q(6)
        assert affine_central_charge(lie_algebra("E", 8), 3) == Q(248, 11)
        with pytest.raises(ValueError, match="level"):
            affine_central_charge(lie_algebra("A", 1), 0)

    def test_commutant_budget(self):
        """The three decompositions of the rank-24 charge agree."""
        assert 24 - affine_central_charge(lie_algebra("A", 8), 3) == Q(4)
        assert parafermion_central_charge(lie_algebra("A", 2), 9) == Q(4)
        assert 24 - affine_central_charge(lie_algebra("E", 8), 3) == Q(16, 11)

    def test_parafermion_series(self):
        assert parafermion_central_charge(lie_algebra("A", 1), 2) == Q(1, 2)
        assert parafermion_central_charge(lie_algebra("A", 1), 3) == Q(4, 5)
        assert parafermion_central_charge(lie_algebra("A", 1), 9) == Q(16, 11)


# the 12 lines of AG(2,3) on the axis labels (i, j)
AG3_ALL_LINES = (
    ((0, 0), (0, 1), (0, 2)), ((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 1), (2, 2)),
    ((0, 0), (1, 2), (2, 1)), ((0, 1), (1, 0), (2, 2)), ((0, 1), (1, 1), (2, 1)),
    ((0, 1), (1, 2), (2, 0)), ((0, 2), (1, 0), (2, 1)), ((0, 2), (1, 1), (2, 0)),
    ((0, 2), (1, 2), (2, 2)), ((1, 0), (1, 1), (1, 2)), ((2, 0), (2, 1), (2, 2)),
)


def reference_table_entries(space, states):
    """The form -> solve -> recombine loop: rational c with sum_k c_k
    <s_k, t> = <prod, t> for every state t, each pairing split into its
    rational and zeta parts, kept only when the states recombine to the
    product."""
    forms = [[space.invariant_form(s, t) for s in states] for t in states]
    gram = Matrix([[f.re for f in row] for row in forms]
                  + [[f.zc for f in row] for row in forms])
    for i in range(len(states)):
        for j in range(i + 1):
            prod = space.griess_product(states[i], states[j])
            rhs = [space.invariant_form(prod, t) for t in states]
            coeffs = gram.solve([f.re for f in rhs] + [f.zc for f in rhs])
            if coeffs is not None:
                recombined = reduce(operator.add,
                                    (s.scale(c) for s, c in zip(states, coeffs)))
                if recombined != prod:
                    coeffs = None
            yield i, j, coeffs


class TestBridgeFromFock:
    def test_nine_axis_entries_match_the_form_reference(self, family):
        axes = [family.axis(i, j) for i in range(3) for j in range(3)]
        got = list(griess_table_entries(family.space, axes))
        assert len(got) == 45
        assert got == list(reference_table_entries(family.space, axes))
        g9 = build_G9()
        assert all(coeffs == g9.table[i][j] for i, j, coeffs in got)

    @pytest.mark.parametrize("line", AG3_ALL_LINES)
    def test_line_entries_match_the_form_reference(self, family, line):
        states = [family.axis(i, j) for i, j in line]
        got = list(griess_table_entries(family.space, states))
        assert got == list(reference_table_entries(family.space, states))
        assert None not in [coeffs for _, _, coeffs in got]

    def test_zeta_scaled_axis_leaves_the_rational_span(self, family):
        # e01 zeta . e00 = (zeta/32)(e00 + e01 - e02): in the span over
        # Q(zeta), but not over Q
        states = [family.axis(0, 0), family.axis(0, 1).scale(ZETA), family.axis(0, 2)]
        for entries in (griess_table_entries, reference_table_entries):
            got = {(i, j): coeffs for i, j, coeffs in entries(family.space, states)}
            assert got[(0, 0)] == (2, 0, 0)
            assert got[(1, 0)] is None
        with pytest.raises(ValueError, match="escapes the span"):
            algebra_from_griess(family.space, states, ["p", "q", "r"])

    def test_entries_make_no_form_or_solve_call(self, family, monkeypatch):
        def forbidden(*args):
            raise AssertionError("called on the table path")

        monkeypatch.setattr(FockSpace, "invariant_form", forbidden)
        monkeypatch.setattr(Matrix, "solve", forbidden)
        states = [family.axis(i, j) for i, j in AG3_ALL_LINES[4]]
        got = list(griess_table_entries(family.space, states))
        assert [coeffs for _, _, coeffs in got] == [
            (2, 0, 0), (Q(1, 32), Q(1, 32), Q(-1, 32)), (0, 2, 0),
            (Q(1, 32), Q(-1, 32), Q(1, 32)), (Q(-1, 32), Q(1, 32), Q(1, 32)), (0, 0, 2)]

    def test_dependent_states_raise(self, family):
        e00 = family.axis(0, 0)
        with pytest.raises(ValueError, match="states are linearly dependent"):
            list(griess_table_entries(family.space, [e00, e00]))

    def test_first_row_realizes_the_three_axis_algebra(self, family, u3):
        states = [family.axis(0, j) for j in range(3)]
        realized = algebra_from_griess(family.space, states, ["e0", "e1", "e2"])
        assert realized.table == u3.table and realized.gram == u3.gram

    def test_detects_products_leaving_the_span(self, family):
        states = [family.axis(0, 0), family.axis(1, 1)]
        with pytest.raises(ValueError, match="escapes the span"):
            algebra_from_griess(family.space, states, ["p", "q"])
