import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from eqloc import simplicial
from eqloc.simplicial import (
    BudgetExceeded,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    admissible_words,
    boundary,
    boundary_inclusion,
    coface_map,
    codegeneracy_map,
    constant_map,
    divide_word,
    empty_simplicial_set,
    enumerate_maps,
    hom_set,
    horn,
    identity_map,
    is_admissible,
    is_injective,
    is_isomorphism,
    isomorphic,
    nondeg,
    normalize_word,
    point,
    standard_simplex,
    validate,
    verify_map,
    vertex_image,
    word_face,
)


def vertex_complex(names):
    return SimplicialSet([list(names)], {})


class TestWords:
    def test_normalize_idempotent(self):
        assert normalize_word((3, 1)) == (3, 1)
        assert normalize_word(()) == ()

    def test_rewrite(self):
        # s_0 s_0 = s_1 s_0 and s_1 s_2 = s_3 s_1
        assert normalize_word((0, 0)) == (1, 0)
        assert normalize_word((1, 2)) == (3, 1)

    def test_word_face_absorbed(self):
        # d_0 s_0 = id and d_1 s_0 = id
        assert word_face((0,), 0) == ((), None)
        assert word_face((0,), 1) == ((), None)

    def test_word_face_passes(self):
        # d_0 s_1 s_0: d_0 passes s_1 as s_0, then cancels s_0
        assert word_face((1, 0), 0) == ((0,), None)
        # d_3 s_1 = s_1 d_2
        assert word_face((1,), 3) == ((1,), 2)

    def test_one_degeneracy_on_a_normal_form(self):
        """The boundary index's s_a equals the word algebra's."""
        for q in range(3):
            for k in range(4):
                for w in admissible_words(k, q):
                    for a in range(q + k + 1):
                        assert simplicial._degenerate(a, w) == \
                            simplicial.compose_words((a,), w)

    def test_admissible_word_count(self):
        # C(q + k, k) admissible words of length k on a q-simplex
        for q in range(4):
            for k in range(4):
                assert len(admissible_words(k, q)) == math.comb(q + k, k)

    def test_admissible_words_match_brute_force(self):
        """The words are exactly the strictly decreasing (i_k, ..., i_1)
        with i_t <= q + t - 1, sorted."""
        for q in range(6):
            for k in range(6):
                expected = tuple(sorted(
                    w for w in itertools.product(range(q + k), repeat=k)
                    if is_admissible(w)
                    and all(w[k - t] <= q + t - 1 for t in range(1, k + 1))))
                assert admissible_words(k, q) == expected

    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=0, max_size=4),
           st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_normalize_confluent(self, seq, rng):
        """Any order of applying s_i s_j = s_{j+1} s_i reaches the same form."""
        expected = normalize_word(tuple(seq))
        word = list(seq)
        for _ in range(40):
            spots = [k for k in range(len(word) - 1) if word[k] <= word[k + 1]]
            if not spots:
                break
            k = rng.choice(spots)
            word[k], word[k + 1] = word[k + 1] + 1, word[k]
        assert tuple(word) == expected


class TestStandard:
    def test_standard_simplex_counts(self):
        for n in range(5):
            X = standard_simplex(n)
            for m in range(n + 1):
                assert len(X.cells(m)) == math.comb(n + 1, m + 1)
            assert validate(X) == []

    def test_standard_1(self):
        X = standard_simplex(1)
        assert len(X.cells(0)) == 2 and len(X.cells(1)) == 1

    def test_boundary_2(self):
        B = boundary(2)
        assert len(B.cells(0)) == 3 and len(B.cells(1)) == 3
        assert B.dim == 1
        assert validate(B) == []

    def test_horn(self):
        H = horn(2, 1)
        assert len(H.cells(0)) == 3 and len(H.cells(1)) == 2
        with pytest.raises(ValueError):
            horn(0, 0)

    def test_boundary_0_empty(self):
        assert boundary(0).dim == -1

    def test_validate_standard_3(self):
        assert validate(standard_simplex(3)) == []

    def test_validate_empty(self):
        assert validate(empty_simplicial_set()) == []

    def test_validate_broken_presentation(self):
        # a 2-cell whose face data contradicts the simplicial identities:
        # d_0 d_1 t = b but d_0 d_0 t = a
        X = SimplicialSet(
            [["a", "b", "c"], ["e", "f", "g"], ["t"]],
            {
                "e": (((), "a"), ((), "b")),
                "f": (((), "b"), ((), "c")),
                "g": (((), "a"), ((), "c")),
                # deliberately wrong: d_1 should share vertices with d_0, d_2
                "t": (((), "f"), ((), "e"), ((), "e")),
            })
        problems = validate(X)
        assert any(p[0] == "identity" and p[1] == "t" for p in problems)
        bad = [p for p in problems if p[0] == "identity"]
        assert all(p[2] < p[3] for p in bad)


class TestFaceTableCounts:
    """Validating a complex and verifying a map whose faces are all
    nondegenerate reads face tables only: no call into the word algebra."""

    def test_no_word_algebra_calls(self, monkeypatch):
        calls = {"word_face": 0, "compose_words": 0}

        def counted(name):
            fn = getattr(simplicial, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(simplicial, name, counted(name))
        X = standard_simplex(4)
        assert validate(X) == []
        assert verify_map(identity_map(X)) == []
        assert calls == {"word_face": 0, "compose_words": 0}


class TestNormalizeOp:
    def test_spec_examples(self):
        X = standard_simplex(0)
        # d_0 (s_0 . v) and d_1 (s_0 . v) are the vertex itself
        assert X.face(Simplex((0,), "0"), 0) == Simplex((), "0")
        assert X.face(Simplex((0,), "0"), 1) == Simplex((), "0")
        # d_0 (s_1 s_0 . v) = (s_0, v), derived by hand from the identities
        assert X.face(Simplex((1, 0), "0"), 0) == Simplex((0,), "0")

    def test_out_of_range(self):
        X = standard_simplex(0)
        with pytest.raises(IndexError):
            X.face(Simplex((0,), "0"), 3)

    def test_idempotent_on_normal_inputs(self):
        X = standard_simplex(2)
        s = Simplex((2, 0), "0.1")
        n = X.simplex_dim(s)
        got = X.face(s, n)  # some face; already-normal output
        assert got == X.face(s, n)


class TestSimplexAlgebra:
    def test_simplicial_identities_on_formal_simplices(self):
        X = standard_simplex(2)
        for n in range(2, 5):
            for s in X.simplices(n):
                for j in range(n + 1):
                    for i in range(j):
                        assert X.face(X.face(s, j), i) == \
                            X.face(X.face(s, i), j - 1)

    def test_strip_set_is_word(self):
        # z = s_j (d_j z) exactly for the indices of the admissible word
        X = standard_simplex(2)
        for n in range(1, 5):
            for s in X.simplices(n):
                js = {j for j in range(n)
                      if X.degeneracy(X.face(s, j), j) == s}
                assert js == set(s.word)

    def test_divide_word(self):
        X = standard_simplex(1)
        s = Simplex((1, 0), "0")
        assert divide_word(X, s, (1, 0)) == Simplex((), "0")
        assert divide_word(X, s, (0,)) == Simplex((0,), "0")
        assert divide_word(X, nondeg("0.1"), (0,)) is None


class TestMaps:
    def test_identity_and_compose(self):
        X = standard_simplex(2)
        f = identity_map(X)
        assert verify_map(f) == []
        assert f.then(f) == f

    def test_coface_codegeneracy(self):
        for n in range(1, 4):
            for i in range(n + 1):
                assert verify_map(coface_map(n, i)) == []
        for n in range(0, 3):
            for j in range(n + 1):
                assert verify_map(codegeneracy_map(n, j)) == []

    def test_cosimplicial_identity(self):
        # sigma_j . delta_j = id
        d = coface_map(1, 0)
        s = codegeneracy_map(0, 0)
        assert d.then(s) == identity_map(standard_simplex(0))

    def test_vertex_image(self):
        X = standard_simplex(2)
        assert vertex_image(X, [0, 0, 1]) == Simplex((0,), "0.1")
        assert vertex_image(X, [0, 1, 1]) == Simplex((1,), "0.1")
        assert vertex_image(X, [2, 2, 2]) == Simplex((1, 0), "2")

    def test_constant_map(self):
        f = constant_map(standard_simplex(2), standard_simplex(0), "0")
        assert verify_map(f) == []

    def test_images_follow_source_cell_order(self):
        f = coface_map(2, 1)
        assert f.images == tuple(f(nondeg(c))
                                 for c in f.source.all_cells())
        assert f.assignment == dict(zip(f.source.all_cells(), f.images))

    def test_cell_outside_source_rejected(self):
        with pytest.raises(ValueError, match="'stray' is not a cell"):
            SimplicialMap(point(), point(),
                          {"0": nondeg("0"), "stray": nondeg("0")})
        with pytest.raises(ValueError, match="2 images for 1 cells"):
            SimplicialMap(point(), point(), images=(nondeg("0"),) * 2)

    def test_unassigned_and_inadmissible_images_reported(self):
        X = standard_simplex(1)
        assert verify_map(SimplicialMap(X, X, {"0": nondeg("0")})) == [
            ("unassigned", "1"), ("unassigned", "0.1")]
        # (0, 0) is not strictly decreasing; s_0 s_0 would be written (1, 0)
        images = constant_map(standard_simplex(2), point(), "0").assignment
        images["0.1.2"] = Simplex((0, 0), "0")
        bad = SimplicialMap(standard_simplex(2), point(), images)
        assert verify_map(bad) == [("inadmissible-word", "0.1.2")]


class TestHomSet:
    def test_point_to_point(self):
        assert len(hom_set(point(), point())) == 1

    def test_delta1_to_delta1(self):
        # monotone vertex maps 00, 01, 11: derived by enumeration
        maps = hom_set(standard_simplex(1), standard_simplex(1))
        assert len(maps) == 3
        for f in maps:
            assert verify_map(f) == []

    def test_into_empty(self):
        assert hom_set(standard_simplex(1), empty_simplicial_set()) == []
        assert len(hom_set(empty_simplicial_set(), standard_simplex(1))) == 1

    def test_monotone_count(self):
        # maps Delta^p -> Delta^q biject with monotone maps [p] -> [q]
        for p in range(3):
            for q in range(3):
                expected = math.comb(p + q + 1, p + 1)
                assert len(hom_set(standard_simplex(p),
                                   standard_simplex(q))) == expected

    def test_naive_oracle_agreement(self):
        # independent oracle: all dimension-preserving assignments filtered
        # by face commutation
        X, Y = boundary(2), standard_simplex(1)
        cells = [c for level in X.levels for c in level]
        pools = [Y.simplices(X.cell_dim(c)) for c in cells]
        count = 0
        for combo in itertools.product(*pools):
            f = SimplicialMap(X, Y, dict(zip(cells, combo)))
            if not verify_map(f):
                count += 1
        assert count == len(hom_set(X, Y))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_maps(boundary(2), standard_simplex(2), budget=[3])

    def test_pins(self):
        X = standard_simplex(1)
        maps = enumerate_maps(X, X, pins={"0": nondeg("0"), "1": nondeg("1")})
        assert len(maps) == 1 and maps[0] == identity_map(X)

    def test_large_discrete_source(self):
        """The search keeps its state on an explicit stack, so a source with
        far more cells than the recursion limit is fine."""
        X = vertex_complex([f"v{i}" for i in range(1500)])
        maps = hom_set(X, point())
        assert maps == [constant_map(X, point(), "0")]
        f = isomorphic(X, X)
        assert f is not None and is_isomorphism(f) is not None


class TestIso:
    def test_identity_iso(self):
        X = boundary(2)
        inv = is_isomorphism(identity_map(X))
        assert inv == identity_map(X)

    def test_isomorphic_search(self):
        X = standard_simplex(1)
        Y = SimplicialSet([["p", "q"], ["e"]], {"e": (((), "p"), ((), "q"))})
        f = isomorphic(X, Y)
        assert f is not None and is_isomorphism(f) is not None
        assert isomorphic(X, standard_simplex(0)) is None

    def test_injective(self):
        assert is_injective(boundary_inclusion(2))
        assert not is_injective(constant_map(standard_simplex(1), point(), "0"))
