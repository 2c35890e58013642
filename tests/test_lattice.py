import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from griess_lab.fock import build_axis_family
from griess_lab.numerics import Matrix, Q, dot
from griess_lab.scenarios import run_suite
from griess_lab.lattice import (
    CosetSystem,
    DiskCache,
    EmbeddingMaps,
    Lattice,
    Shell,
    block_embed,
    build_standard,
    coset_decomposition_A26,
    difference_lattice,
    direct_sum,
    find_a,
    glue_vector,
    index_in,
    map_lattice,
    root_system_type,
    shell,
    sublattice_K,
)


def from_coords(L, coords):
    """The vector with the given coordinates in L's basis."""
    return tuple(sum(c * b[k] for c, b in zip(coords, L.basis)) for k in range(L.ambient_dim))


def tensor_product(A, B, label=None):
    """Tensor product with basis a_i (x) b_j in i-major order."""
    basis = [[x * y for x in a for y in b] for a in A.basis for b in B.basis]
    return Lattice(label or f"{A.label}x{B.label}", basis)


def shell_brute_force(L, norm):
    """Independent box-search oracle for shell(); exponential in the rank."""
    norm = Fraction(norm)
    lb = L._int_basis[0]
    ginv = L.gram.inverse()
    bounds = [math.isqrt(math.ceil(norm * ginv.rows[i][i])) + 1
              for i in range(L.rank)]
    vectors = []

    def rec(i, coords):
        if i == L.rank:
            v = tuple(L._combine(coords))
            if dot(v, v) == norm * lb * lb and any(coords):
                vectors.append(v)
            return
        for c in range(-bounds[i], bounds[i] + 1):
            coords.append(c)
            rec(i + 1, coords)
            coords.pop()

    rec(0, [])
    return Shell(L.label, norm, tuple(sorted(vectors)), lb)


def scaled_gram(L, factor):
    return tuple(tuple(factor * x for x in row) for row in L.gram.rows)


# Derandomized, bounded property runs keep the suite deterministic.
ORACLE = settings(derandomize=True, max_examples=15, deadline=None, database=None)
DENOMINATORS = (1, 2, 3, 9)


def reference_coords(L, v):
    """Coordinates by Fraction elimination on B^T and an explicit
    Fraction reconstruction; the reference for Lattice.coords."""
    vq = tuple(Fraction(x) for x in v)
    sol = Matrix(list(zip(*L.basis))).solve(vq)
    if sol is None:
        return None
    recon = [Fraction(0)] * L.ambient_dim
    for c, row in zip(sol, L.basis):
        recon = [r + c * x for r, x in zip(recon, row)]
    if tuple(recon) != vq:
        return None
    return tuple(Fraction(x) for x in sol)


def _glue_sublattice():
    maps = EmbeddingMaps(8, 2)
    a8 = build_standard("A", 8)
    rows = list(map_lattice(maps.mu, build_standard("A", 2), "mu.A2").basis)
    for i in range(3):
        rows += [maps.eta(i, b) for b in a8.basis]
    return Lattice("mu.A2+A8^3", rows)


_E8 = build_standard("E8")
ORACLE_LATTICES = {
    "E8": _E8,
    "E8^3": direct_sum([_E8] * 3, "E8^3"),
    "mu.A2+A8^3": _glue_sublattice(),
}


def draw_vector(data, L, den):
    """A small combination of basis rows over den, optionally pushed off
    the span, or a free rational vector over den."""
    kind = data.draw(st.sampled_from(("span", "off-span", "free")))
    if kind == "free":
        nums = data.draw(st.lists(st.integers(-9, 9), min_size=L.ambient_dim,
                                  max_size=L.ambient_dim))
        return tuple(Fraction(x, den) for x in nums)
    cs = data.draw(st.lists(st.integers(-4, 4), min_size=L.rank, max_size=L.rank))
    v = [Fraction(0)] * L.ambient_dim
    for c, row in zip(cs, L.basis):
        v = [a + Fraction(c, den) * x for a, x in zip(v, row)]
    if kind == "off-span":
        k = data.draw(st.integers(0, L.ambient_dim - 1))
        v[k] += Fraction(data.draw(st.sampled_from((-1, 1))), den)
    return tuple(v)


class TestConstructions:
    def test_a_series(self):
        a2 = build_standard("A", 2)
        assert a2.rank == 2 and a2.ambient_dim == 3
        assert a2.gram.rows == ((Q(2), Q(-1)), (Q(-1), Q(2)))
        assert a2.det == 3
        assert build_standard("A", 8).det == 9

    def test_e8_unimodular_even(self, e8):
        assert e8.rank == 8 and e8.det == 1
        assert all(dot(b, b) % 2 == 0 for b in e8.basis)
        assert all(dot(u, v).denominator == 1 for u in e8.basis for v in e8.basis)

    def test_zn(self):
        z3 = build_standard("Z", 3)
        assert z3.det == 1 and z3.gram.rows == Matrix.identity(3).rows

    def test_direct_sum_and_tensor_dets(self):
        rng = random.Random(5)
        for _ in range(10):
            a = build_standard("A", rng.randint(1, 3))
            b = build_standard("A", rng.randint(1, 3))
            t = tensor_product(a, b)
            assert t.rank == a.rank * b.rank
            assert t.det == a.det ** b.rank * b.det ** a.rank
            s = direct_sum([a, b])
            assert s.det == a.det * b.det

    def test_coords_membership(self, e8):
        for i, b in enumerate(e8.basis):
            c = e8.coords(b)
            assert c == tuple(Q(1) if j == i else Q(0) for j in range(8))
        assert not e8.contains((1, 0, 0, 0, 0, 0, 0, 0))
        assert e8.contains((1, 1, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            e8.coords((1, 0, 0))
        a2 = build_standard("A", 2)
        assert a2.coords((Q(1), 0, 0)) is None

    def test_coords_on_non_half_integral_basis(self):
        # a basis with thirds once broke the coordinate solver
        T = Lattice("T", [[Q(1, 3), Q(-1, 3)], [1, 1]])
        assert T.coords((1, 1)) == (Q(0), Q(1))
        assert T.contains((1, 1))
        assert T.coords((1, 0)) == (Q(3, 2), Q(1, 2))
        assert not T.contains((1, 0))
        assert from_coords(T, (Q(3, 2), Q(1, 2))) == (Q(1), Q(0))

    @pytest.mark.parametrize("den", DENOMINATORS)
    @pytest.mark.parametrize("name", sorted(ORACLE_LATTICES))
    @ORACLE
    @given(data=st.data())
    def test_coords_match_elimination_oracle(self, name, den, data):
        L = ORACLE_LATTICES[name]
        v = draw_vector(data, L, den)
        got = L.coords(v)
        assert got == reference_coords(L, v)
        assert L.contains(v) == (got is not None and all(x.denominator == 1 for x in got))
        if got is not None:
            assert from_coords(L, got) == v

    def test_coords_off_span_rejected(self):
        L = ORACLE_LATTICES["mu.A2+A8^3"]
        v = (Q(1),) + (Q(0),) * 26
        assert L.coords(v) is None and reference_coords(L, v) is None

    @pytest.mark.parametrize("use", ("det", "coords", "shell"))
    def test_dependent_basis_is_rejected(self, use):
        v = (Q(1), Q(1), Q(0))
        L = Lattice("MM", [v, v])
        calls = {"det": lambda: L.det, "coords": lambda: L.coords(v),
                 "shell": lambda: shell(L, 2)}
        with pytest.raises(ValueError, match="basis of MM is not linearly independent"):
            calls[use]()


class TestShells:
    def test_e8_root_count(self, e8, cache):
        s = shell(e8, 2, cache)
        assert len(s) == 240
        ints = sum(1 for v in s.vectors if all(x.denominator == 1 for x in v))
        assert ints == 112 and len(s) - ints == 128

    def test_e8_norm4_count(self, e8, cache):
        assert len(shell(e8, 4, cache)) == 2160

    def test_matches_brute_force_oracle(self):
        rng = random.Random(31)
        for _ in range(8):
            n = rng.randint(1, 3)
            basis = None
            while basis is None:
                cand = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                if Matrix([[Q(x) for x in r] for r in cand]).rank() == n:
                    basis = cand
            L = Lattice("probe", basis)
            for m in (1, 2, 3, 4):
                fast = shell(L, m)
                slow = shell_brute_force(L, m)
                assert fast.vectors == slow.vectors

    @ORACLE
    @given(st.data())
    def test_matches_brute_force_on_rational_bases(self, data):
        n = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(n, 3))
        den = data.draw(st.sampled_from((3, 9, 6)))
        rows = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=dim, max_size=dim),
            min_size=n, max_size=n))
        basis = [[Fraction(x, den) for x in r] for r in rows]
        assume(Matrix(basis).rank() == n)
        L = Lattice("rational", basis)
        norms = {dot(r, r) for r in L.basis}
        for a in L.basis:
            for b in L.basis:
                s = tuple(x + y for x, y in zip(a, b))
                norms.add(dot(s, s))
        for m in sorted(x for x in norms if x > 0)[:3]:
            assert shell(L, m).vectors == shell_brute_force(L, m).vectors

    def test_negation_closure(self, e8, cache):
        s = shell(e8, 2, cache)
        assert len(s) % 2 == 0
        vs = set(s.vectors)
        assert all(tuple(-x for x in v) in vs for v in vs)

    def test_a2_tensor_e8_norm4_count(self, e8, cache):
        t = tensor_product(build_standard("A", 2), e8, "A2xE8")
        # frozen after a run of the independent box oracle on this rank-16 form
        assert len(shell(t, 4, cache)) == 720

    def test_sqrt2_e8_has_no_roots(self, e8):
        s = difference_lattice(e8, 0, 1, "M")
        assert len(shell(s, 2)) == 0
        assert len(shell(s, 4)) == 240


class TestRootSystemType:
    def test_small_types(self):
        assert root_system_type(build_standard("A", 2)) == "A2"
        assert root_system_type(build_standard("A", 8)) == "A8"
        assert root_system_type(direct_sum([build_standard("A", 1), build_standard("A", 1)])) == "A1+A1"
        assert root_system_type(build_standard("Z", 2)) == "A1+A1"
        # Z2 turned by a rational rotation with denominator 2**32 + 1: the
        # scaled pairings overflow int64
        a, b, c = 2 ** 32 - 1, 2 ** 17, 2 ** 32 + 1
        turned = Lattice("turnedZ2", [[Q(a, c), Q(b, c)], [Q(-b, c), Q(a, c)]])
        assert root_system_type(turned) == "A1+A1"
        # D3 is A3: both have 12 roots, and Z3 holds them as D3
        assert root_system_type(build_standard("A", 3)) == "A3"
        assert root_system_type(build_standard("Z", 3)) == "A3"
        # 240 roots like E8; only the rank tells them apart
        assert root_system_type(build_standard("A", 15)) == "A15"

    def test_d4(self):
        d4 = Lattice("D4", [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]])
        assert root_system_type(d4) == "D4"
        assert root_system_type(build_standard("Z", 5)) == "D5"

    def test_e_series_from_simple_roots(self, e8):
        # E8's basis rows are its simple roots in Bourbaki order, so the
        # first seven and the first six span E7 and E6
        assert root_system_type(Lattice("E7", e8.basis[:7])) == "E7"
        assert root_system_type(Lattice("E6", e8.basis[:6])) == "E6"

    def test_e8(self, e8, cache):
        assert root_system_type(e8, cache) == "E8"

    def test_no_roots_signal(self, e8):
        assert root_system_type(difference_lattice(e8, 0, 1, "M")) == "no roots"

    def test_nonspanning_roots_signal(self):
        # Z + A1-at-norm-2 mixture: roots span only one of two dimensions
        L = Lattice("mix", [[1, 1, 0], [0, 0, 3]])
        assert root_system_type(L) == "not simply-laced root lattice"
        # roots pairing to 1/2: not an integral root system
        h = Fraction(1, 2)
        half = Lattice("half", [[1, 1, 0, 0, 0, 0], [h, 0, 1, h, h, h]])
        assert root_system_type(half) == "unknown"
        # six roots of rank 2, A2's count, pairing to 1/4 and 3/2
        quarter = Lattice("quarter", [[h, h, 0, 0, 0], [h, 0, h, h, h]])
        assert root_system_type(quarter) == "unknown"


class TestKSublattice:
    def test_zero_vector_gives_index_one(self, e8):
        K = sublattice_K(e8, (0,) * 8)
        assert index_in(K, e8) == 1

    def test_rejects_a_non_integral_pairing(self, e8):
        # (1/2, 1/2, 0, ...) pairs to -1/2 with (0, -1, 1, 0, ...): the
        # vectors pairing into 3Z then have index 6, not 3
        a = (Q(1, 2), Q(1, 2)) + (Q(0),) * 6
        with pytest.raises(ValueError, match="integrally"):
            sublattice_K(e8, a)
        with pytest.raises(ValueError, match="integrally"):
            build_axis_family(a)

    def test_found_vector(self, e8, cache, a_vector):
        assert dot(a_vector, a_vector) == 8
        K = sublattice_K(e8, a_vector)
        assert index_in(K, e8) == 3
        assert K.det == 9
        assert len(shell(K, 2, cache)) == 72
        assert root_system_type(K, cache) == "A8"

    def test_root_partition_by_pairing(self, e8, cache, a_vector):
        roots = shell(e8, 2, cache).vectors
        counts = [0, 0, 0]
        for r in roots:
            counts[int(dot(r, a_vector)) % 3] += 1
        assert counts == [72, 84, 84]

    def test_search_is_deterministic(self, e8, cache):
        assert find_a(e8, cache) == find_a(e8, cache)

    def test_shorter_vectors_never_catch_72_roots(self, e8, cache):
        # find_a's docstring: no vector of norm 2, 4 or 6 qualifies, since
        # each pairs to 0 mod 3 with 126, 84 or 78 roots, never 72
        roots = shell(e8, 2, cache)
        r = np.array(roots.ints, dtype=np.int64).T
        for norm, caught in ((2, 126), (4, 84), (6, 78)):
            sh = shell(e8, norm, cache)
            dots = np.array(sh.ints, dtype=np.int64) @ r
            hits = (dots % (3 * sh.scale * roots.scale) == 0).sum(axis=1)
            assert set(hits.tolist()) == {caught}


@pytest.fixture(scope="module")
def triple(e8):
    L = direct_sum([e8, e8, e8], label="E8.E8.E8")
    M = map_lattice(
        lambda b: tuple(x - y for x, y in zip(block_embed(b, 0, 3), block_embed(b, 1, 3))),
        e8, "M")
    N = map_lattice(
        lambda b: tuple(x - y for x, y in zip(block_embed(b, 1, 3), block_embed(b, 2, 3))),
        e8, "N")
    return L, M, N


class TestTripleSumGeometry:

    def test_m_is_sqrt2_e8(self, e8, triple):
        _, M, _ = triple
        assert M.gram.rows == scaled_gram(e8, 2)

    def test_sum_is_zero_coordinate_sum_sublattice(self, e8, cache, triple):
        L, M, N = triple
        MN = Lattice("M+N", M.basis + N.basis)
        assert MN.rank == 16
        for v in MN.basis:
            assert tuple(x + y + z for x, y, z in zip(v[:8], v[8:16], v[16:])) == (Q(0),) * 8
        t = tensor_product(build_standard("A", 2), e8)
        assert MN.det == t.det == 3 ** 8
        assert MN.gram.rows == t.gram.rows
        # (u, v, -u-v) = (u, -u, 0) + (0, u+v, -u-v): every zero-sum vector of L
        roots = shell(e8, 2, cache).vectors
        for u, v in zip(roots[::37], roots[5::41]):
            assert MN.contains(u + v + tuple(-x - y for x, y in zip(u, v)))
        assert not MN.contains(block_embed(roots[0], 0, 3))

    def test_annihilator_is_diagonal(self, e8, family):
        E = family.E
        assert E.rank == 8
        assert [r[:8] for r in E.basis] == list(e8.basis)
        assert all(r[:8] == r[8:16] == r[16:] for r in E.basis)
        assert E.gram.rows == scaled_gram(e8, 3)
        for S in (family.M, family.N, family.Ntilde):
            assert all(dot(u, v) == 0 for u in E.basis for v in S.basis)

    def test_diagonal_complements_the_differences(self, family):
        # virasoro_of_subspace reads the orthogonal projector onto the span,
        # so the two conformal vectors add up to L's exactly when
        # span E = (M+N)^perp
        sp = family.space
        MN = Lattice("M+N", family.M.basis + family.N.basis)
        assert (sp.virasoro_of_subspace(family.E) + sp.virasoro_of_subspace(MN)
                == sp.virasoro_of_subspace(family.L))


class TestGlueAndEmbeddings:
    def test_glue_zero(self):
        assert glue_vector(8, 0) == (Q(0),) * 9

    def test_glue_three(self):
        g = glue_vector(8, 3)
        assert g == tuple([Q(1, 3)] * 6 + [Q(-2, 3)] * 3)
        assert dot(g, g) == 2

    def test_glue_pairs_integrally_with_roots(self):
        a8 = build_standard("A", 8)
        for i in range(9):
            g = glue_vector(8, i)
            assert all(dot(g, b).denominator == 1 for b in a8.basis)

    def test_glue_range_check(self):
        with pytest.raises(ValueError):
            glue_vector(8, 9)

    def test_eta_blocks_orthogonal(self):
        maps = EmbeddingMaps(8, 2)
        a8 = build_standard("A", 8)
        for u in a8.basis:
            for v in a8.basis:
                assert dot(maps.eta(0, u), maps.eta(1, v)) == 0

    def test_repeat_map_scales_gram_by_block_size(self):
        maps = EmbeddingMaps(8, 2)
        a2 = build_standard("A", 2)
        g = Matrix([[dot(maps.mu(u), maps.mu(v)) for v in a2.basis] for u in a2.basis])
        assert g.rows == scaled_gram(a2, 9)

    def test_annihilator_of_repeated_a2_is_triple_a8(self):
        maps = EmbeddingMaps(8, 2)
        a8, a26 = build_standard("A", 8), build_standard("A", 26)
        y = map_lattice(maps.mu, build_standard("A", 2), "mu.A2")
        blocks = Lattice("eta.A8^3", [maps.eta(i, r) for i in range(3) for r in a8.basis])
        assert all(a26.contains(r) for r in blocks.basis)
        # rank 24 + 2 = 26 = rank A26: the blocks span mu(A2)^perp
        assert blocks.rank + y.rank == a26.rank
        assert all(dot(u, v) == 0 for u in blocks.basis for v in y.basis)
        assert blocks.det == 9 ** 3
        assert root_system_type(blocks) == "A8+A8+A8"


@pytest.fixture(scope="module")
def system(cache):
    return coset_decomposition_A26(cache)


class TestCosets:
    def test_counts(self, system):
        assert isinstance(system, CosetSystem)
        assert system.index == 81
        assert len(system.representatives) == 81
        assert system.verified

    def test_zero_coset_first(self, system):
        assert system.representatives[0] == (Q(0),) * 27

    def test_representatives_live_in_superlattice(self, system):
        for r in system.representatives:
            assert all(x.denominator == 1 for x in r)
            assert sum(r) == 0

    def test_index_matches_determinants(self, system):
        ratio = system.sublattice.det / system.superlattice.det
        assert ratio == 81 ** 2

    def test_pairwise_incongruence_detects_duplicates(self, system):
        bad = CosetSystem(
            system.superlattice,
            system.sublattice,
            system.representatives[:80] + (system.representatives[0],),
            81)
        with pytest.raises(ValueError):
            bad.verify()

    def test_congruent_non_duplicate_rejected(self, system):
        reps = list(system.representatives)
        reps[5] = tuple(a + b for a, b in zip(reps[3], system.sublattice.basis[7]))
        bad = CosetSystem(system.superlattice, system.sublattice, tuple(reps), 81)
        with pytest.raises(ValueError, match="representatives 3 and 5 are congruent"):
            bad.verify()

    def test_off_span_representative_rejected(self):
        z2 = build_standard("Z", 2)
        line = Lattice("2Z", [[2, 0]])
        good = CosetSystem(z2, line, ((Q(0), Q(0)), (Q(1), Q(0))), 2)
        assert good.verify().verified
        bad = CosetSystem(z2, line, ((Q(0), Q(0)), (Q(0), Q(1))), 2)
        with pytest.raises(ValueError, match="representative 1 is off the span"):
            bad.verify()

    def test_cached_roundtrip(self, system, cache):
        again = coset_decomposition_A26(cache)
        assert again.representatives == system.representatives
        assert again.verified

    def test_a_warm_cache_still_verifies(self, tmp_path, monkeypatch):
        calls = []
        verify = CosetSystem.verify
        monkeypatch.setattr(CosetSystem, "verify",
                            lambda self: calls.append(1) or verify(self))
        cache = DiskCache(str(tmp_path))
        coset_decomposition_A26(cache)
        (path,) = tmp_path.glob("*.cosets")
        written = path.stat().st_ino
        assert coset_decomposition_A26(cache).verified
        assert len(calls) == 2
        assert path.stat().st_ino == written  # a matching file is kept

    @pytest.mark.parametrize("damage", ["truncated", "unparsable", "reordered",
                                        "zero-denominator"])
    def test_damaged_cache_file_is_rewritten(self, system, tmp_path, damage):
        cache = DiskCache(str(tmp_path))
        coset_decomposition_A26(cache)
        (path,) = tmp_path.glob("*.cosets")
        good = path.read_text()
        lines = good.splitlines()
        if damage == "truncated":
            lines = lines[:40]
        elif damage == "unparsable":
            lines[7] = "not a coset representative"
        elif damage == "zero-denominator":
            lines[1] = "1/0 " + lines[1].split(" ", 1)[1]
        else:
            # well formed, but not the representatives the construction makes
            lines[3], lines[4] = lines[4], lines[3]
        path.write_text("\n".join(lines) + "\n")
        again = coset_decomposition_A26(cache)
        assert again.verified
        assert again.representatives == system.representatives
        assert path.read_text() == good

    def test_truncated_cache_file_leaves_the_suite_passing(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        coset_decomposition_A26(cache)
        (path,) = tmp_path.glob("*.cosets")
        good = path.read_text()
        path.write_text("\n".join(good.splitlines()[:40]) + "\n")
        report = run_suite("lattice-combinatorics", cache=cache)
        assert [r.status for r in report.results] == ["pass"] * len(report.results)
        assert path.read_text() == good


class TestDiskCache:
    def test_shell_roundtrip(self, tmp_path, e8):
        cache = DiskCache(str(tmp_path))
        s = shell(e8, 2, cache)
        loaded = cache.load_shell("E8", Fraction(2))
        assert loaded is not None and loaded.vectors == s.vectors
        with open(cache._shell_path("E8", Fraction(2))) as fh:
            assert fh.readline() == f"griess-lab-shell v2 E8 2 240 2 {e8._digest}\n"

    def test_rejects_corrupt_header(self, tmp_path, e8):
        cache = DiskCache(str(tmp_path))
        shell(e8, 2, cache)
        path = cache._shell_path("E8", Fraction(2))
        body = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(["nonsense header line"] + body[1:]))
        with pytest.raises(ValueError):
            cache.load_shell("E8", Fraction(2))

    def test_rejects_truncation(self, tmp_path, e8):
        cache = DiskCache(str(tmp_path))
        shell(e8, 2, cache)
        path = cache._shell_path("E8", Fraction(2))
        body = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(body[:100]))
        with pytest.raises(ValueError):
            cache.load_shell("E8", Fraction(2))

    def test_same_label_other_lattice_misses(self, tmp_path, e8, a_vector):
        # sublattice_K labels every kernel "K"; the basis digest tells them apart
        cache = DiskCache(str(tmp_path))
        K = sublattice_K(e8, a_vector)
        assert len(shell(K, 2, cache)) == 72
        other = sublattice_K(e8, shell(e8, 2).vectors[0])
        got = shell(other, 2, cache)
        assert len(got) == 126 and got == shell(other, 2)
        assert shell(K, 2, cache) == shell(K, 2)

    @pytest.mark.parametrize("damage", ["norm", "order", "dropped",
                                        "zero-denominator", "short-rows"])
    def test_damaged_file_is_recomputed(self, tmp_path, e8, damage):
        cache = DiskCache(str(tmp_path))
        good = shell(e8, 2, cache)
        path = cache._shell_path("E8", Fraction(2))
        header, *body = open(path).read().splitlines()
        if damage == "norm":
            first = body[0].split()
            first[0] = str(2 * int(first[0]))
            body[0] = " ".join(first)
        elif damage == "order":
            body[3], body[4] = body[4], body[3]
        elif damage == "zero-denominator":
            header = header.replace(" E8 2 ", " E8 1/0 ")
        elif damage == "short-rows":
            # still of norm 2, sorted and closed under negation
            body[0], body[-1] = "-2 -2", "2 2"
        else:
            del body[7]
            header = header.replace(" 240 ", " 239 ")
        with open(path, "w") as fh:
            fh.write("\n".join([header] + body) + "\n")
        with pytest.raises(ValueError, match="damaged"):
            cache.load_shell("E8", Fraction(2))
        assert shell(e8, 2, cache) == good
        assert cache.load_shell("E8", Fraction(2), e8._digest) == good

    def test_v1_file_is_left_alone(self, tmp_path, e8):
        old = tmp_path / "E8__2_1.shell"
        old.write_text("griess-lab-shell v1 E8 2 1\n1 1 0 0 0 0 0 0\n")
        cache = DiskCache(str(tmp_path))
        assert len(shell(e8, 2, cache)) == 240
        assert old.read_text() == "griess-lab-shell v1 E8 2 1\n1 1 0 0 0 0 0 0\n"
        assert cache.load_shell("E8", Fraction(2), e8._digest) is not None

    def test_store_leaves_no_temp_file(self, tmp_path, e8):
        cache = DiskCache(str(tmp_path))
        shell(e8, 2, cache)
        reps = ((Q(1, 2), Q(-1, 3)), (Q(0), Q(2)))
        cache.store_cosets("Z2", "sub", reps)
        assert cache.load_cosets("Z2", "sub") == reps
        assert not [n for n in os.listdir(tmp_path) if ".tmp-" in n]


class TestIndexAndSum:
    def test_index_requires_sublattice(self, e8):
        z8 = build_standard("Z", 8)
        with pytest.raises(ValueError):
            index_in(z8, e8)

