import os
import random
import subprocess
import sys

import pytest

import eqloc
from eqloc import glue
from eqloc.cat import (
    Diagram,
    DiagramMap,
    adjoint_to_cotensor,
    adjoint_to_tensor,
    arrow_category,
    colim,
    colim_map,
    constant_diagram,
    coproduct_D,
    cotensor,
    cotensor_map,
    cotensor_restriction,
    cyclic_category,
    empty_diagram,
    free_diagram,
    hom_D,
    hom_complex,
    hom_complex_post,
    hom_complex_pre,
    identity_dmap,
    opposite,
    point_diagram,
    pullback_D,
    pushout_D,
    tensor,
    tensor_projection,
    tensor_unit_section,
    terminal_category,
    validate_category,
    validate_diagram,
    validate_dmap,
    wrap_sset,
)
from eqloc.fixtures import (
    arrow_orbit,
    free_z2_orbit,
    trivial_z2_orbit,
    z2_category,
    z2_collapse,
    z2_two_orbits,
)
from eqloc.glue import product, pullback
from eqloc.orbits import orbit_setup
from eqloc.simplicial import (
    SimplicialSet,
    boundary,
    boundary_inclusion,
    hom_set,
    horn,
    identity_map,
    isomorphic,
    point,
    standard_simplex,
    verify_map,
)
from oracles import (
    adjoint_to_tensor_oracle,
    coproduct_map_oracle,
    cotensor_oracle,
    hom_complex_oracle,
    random_z2_diagram,
)


def cell_counts(X):
    return [len(l) for l in X.levels]


class TestCategories:
    def test_validate_standard_shapes(self):
        for D in (terminal_category(), arrow_category(), cyclic_category(2),
                  cyclic_category(3)):
            assert validate_category(D) == []

    def test_broken_composition(self):
        from eqloc.cat import SmallCategory
        B = cyclic_category(3)
        B.comp[("g1", "g1")] = "g1"  # should be g2; breaks associativity
        problems = validate_category(B)
        assert any(p[0] == "associativity" for p in problems)
        M = SmallCategory(["a", "b", "c"],
                          [("ia", "a", "a"), ("ib", "b", "b"), ("ic", "c", "c"),
                           ("f", "a", "b"), ("g", "b", "c")],
                          {"a": "ia", "b": "ib", "c": "ic"}, {})
        problems = validate_category(M)
        assert ("missing-composite", "g", "f") in problems

    def test_opposite(self):
        D = arrow_category()
        assert validate_category(opposite(D)) == []
        assert opposite(D).src["f"] == "b"


class TestDiagrams:
    def test_validate_fixtures(self):
        for X in (free_z2_orbit(), trivial_z2_orbit(), z2_two_orbits(),
                  arrow_orbit(standard_simplex(1))):
            assert validate_diagram(X) == []

    def test_validate_dmap(self):
        assert validate_dmap(z2_collapse()) == []
        assert validate_dmap(identity_dmap(free_z2_orbit())) == []

    def test_stray_object_and_arrow_reported_first(self):
        X = free_z2_orbit()
        at_zz = Diagram(X.shape, {**X.at, "zz": point()}, X.act)
        assert validate_diagram(at_zz) == [("unknown-object", "zz")]
        act_zz = Diagram(X.shape, X.at, {**X.act, "zz": X.act["g1"]})
        assert validate_diagram(act_zz) == [("unknown-arrow", "zz")]
        # checked before the actions: a stray key hides a bad action
        bad = Diagram(X.shape, {**X.at, "zz": point()},
                      {"g1": identity_map(point()), "yy": X.act["g1"]})
        assert validate_diagram(bad) == [("unknown-object", "zz"),
                                         ("unknown-arrow", "yy")]

    def test_stray_component_reported_first(self):
        h = identity_dmap(free_z2_orbit())
        stray = DiagramMap(h.source, h.target,
                           {**h.components, "zz": h.components["*"]})
        assert validate_dmap(stray) == [("unknown-object", "zz")]

    def test_free_diagram_on_arrow(self):
        D = arrow_category()
        F = free_diagram(D, "a")
        assert validate_diagram(F) == []
        assert cell_counts(F.at["a"]) == [1]
        assert cell_counts(F.at["b"]) == [1]
        G = free_diagram(D, "b")
        assert F.at["b"].cells(0) == ("f",)
        assert cell_counts(G.at["a"]) == []

    def test_yoneda_count(self):
        # hom_D(F^d, X) bijects with the vertices of X(d)
        D = z2_category()
        F = free_diagram(D, "*")
        X = z2_two_orbits()
        assert len(hom_D(F, X)) == len(X.at["*"].cells(0))


class TestColim:
    def test_constant_over_connected(self):
        for D in (arrow_category(), z2_category()):
            c = colim(constant_diagram(D, point()))
            assert cell_counts(c.space) == [1]

    def test_arrow_orbit(self):
        # colim of (X -> point) over the arrow category is the point
        c = colim(arrow_orbit(boundary(2)))
        assert isomorphic(c.space, point()) is not None

    def test_free_z2(self):
        # Z/2 acting freely on two vertices: one vertex downstairs
        c = colim(free_z2_orbit())
        assert cell_counts(c.space) == [1]

    def test_cocone_commutes(self):
        X = free_z2_orbit()
        c = colim(X)
        g = X.act["g1"]
        (leg,) = c.legs
        assert g.then(leg) == leg

    def test_mediator_universal(self):
        from eqloc.simplicial import constant_map
        X = free_z2_orbit()
        c = colim(X)
        W = point()
        legs = [constant_map(X.at["*"], W, "0")]
        m = c.mediate(legs)
        assert verify_map(m) == [] and m.target == W
        assert c.legs[0].then(m) == legs[0]

    def test_colim_map(self):
        f = z2_collapse()
        m = colim_map(f)
        assert verify_map(m) == []
        assert cell_counts(m.source) == [1] and cell_counts(m.target) == [1]


class TestTensorCotensor:
    def test_tensor_unit(self):
        X = free_z2_orbit()
        t = tensor(X, point())
        assert isomorphic(t.diagram.at["*"], X.at["*"]) is not None
        assert validate_diagram(t.diagram) == []

    def test_tensor_empty(self):
        X = empty_diagram(z2_category())
        t = tensor(X, standard_simplex(1))
        assert t.diagram.at["*"].dim == -1

    def test_colim_tensor_orbit(self):
        # colim(T tensor K) is K for an orbit T
        K = boundary(2)
        for T in (free_z2_orbit(), trivial_z2_orbit(),
                  arrow_orbit(standard_simplex(1))):
            c = colim(tensor(T, K).diagram)
            assert isomorphic(c.space, K) is not None

    def test_tensor_structure_maps(self):
        X = free_z2_orbit()
        t = tensor(X, standard_simplex(1))
        assert validate_dmap(tensor_projection(X, standard_simplex(1))) == []
        s0 = tensor_unit_section(X, standard_simplex(1), "0")
        assert validate_dmap(s0) == []

    def test_cotensor_by_point(self):
        X = free_z2_orbit()
        c = cotensor(X, point(), 2)
        assert validate_diagram(c.diagram) == []
        assert isomorphic(c.diagram.at["*"], X.at["*"]) is not None

    def test_cotensor_delta1_delta1(self):
        # (Delta^1)^(Delta^1) at cap 1: 3 vertices (monotone maps), edges
        X = wrap_sset(standard_simplex(1))
        c = cotensor(X, standard_simplex(1), 1)
        sp = c.diagram.at["*"]
        assert len(sp.cells(0)) == 3
        # level 1 of X^K bijects with hom(Delta^1 x K, X)
        from eqloc.glue import product
        square = product(standard_simplex(1), standard_simplex(1)).space
        assert len(sp.simplices(1)) == len(hom_set(square, standard_simplex(1)))

    def test_cotensor_of_point_diagram(self):
        P = point_diagram(z2_category())
        c = cotensor(P, boundary(2), 1)
        assert isomorphic(c.diagram.at["*"], point()) is not None

    def test_cotensor_functorial(self):
        f = z2_collapse()
        cm = cotensor_map(f, boundary(1), 1)
        assert validate_dmap(cm) == []

    def test_cotensor_restriction(self):
        X = wrap_sset(standard_simplex(1))
        r = cotensor_restriction(X, boundary_inclusion(1), 1)
        assert validate_dmap(r) == []
        # restriction target X^{dDelta^1} = X x X has 2*2 vertices
        assert len(r.target.at["*"].cells(0)) == 4


class TestHomD:
    def test_into_point(self):
        X = z2_two_orbits()
        assert len(hom_D(X, point_diagram(z2_category()))) == 1

    def test_free_to_trivial(self):
        assert len(hom_D(free_z2_orbit(), trivial_z2_orbit())) == 1

    def test_trivial_to_free(self):
        # no fixed vertex in the free orbit
        assert len(hom_D(trivial_z2_orbit(), free_z2_orbit())) == 0

    def test_free_to_free(self):
        # equivariant self-maps of the free orbit: the two group elements
        assert len(hom_D(free_z2_orbit(), free_z2_orbit())) == 2

    def test_adjunction_bijection(self):
        # hom(X tensor K, Y) bijects with hom(X, Y^K) in bounded dimensions:
        # the adjoints of hom(X, Y^K) are valid, distinct and fill the left
        K = standard_simplex(1)
        for X, Y in ((free_z2_orbit(), trivial_z2_orbit()),
                     (trivial_z2_orbit(), free_z2_orbit())):
            cot = cotensor(Y, K, 1)
            lhs = hom_D(tensor(X, K).diagram, Y)
            adjoints = [adjoint_to_tensor(phi, cot)
                        for phi in hom_D(X, cot.diagram)]
            assert all(validate_dmap(a) == [] for a in adjoints)
            assert len(set(adjoints)) == len(adjoints) == len(lhs)
            assert set(adjoints) == set(lhs)


ADJOINT_PAIRS = {
    "free-free": (free_z2_orbit, free_z2_orbit),
    "free-trivial": (free_z2_orbit, trivial_z2_orbit),
    "trivial-trivial": (trivial_z2_orbit, trivial_z2_orbit),
    "arrow-arrow": (lambda: arrow_orbit(standard_simplex(1)),
                    lambda: arrow_orbit(standard_simplex(1))),
    "arrow-boundary-point": (lambda: arrow_orbit(boundary(2)),
                             lambda: arrow_orbit(point())),
    "arrow-boundary-arrow": (lambda: arrow_orbit(boundary(2)),
                             lambda: arrow_orbit(standard_simplex(1))),
}

ADJOINT_EXPONENTS = {
    "Delta0": lambda: standard_simplex(0),
    "Delta1": lambda: standard_simplex(1),
    "bdDelta2": lambda: boundary(2),
    "horn21": lambda: horn(2, 1),
}


class TestAdjointToTensor:
    """adjoint_to_tensor reads each element at its own level; the oracle
    composes the whole codegeneracy maps."""

    @pytest.mark.parametrize("cap", range(3))
    @pytest.mark.parametrize("exponent", sorted(ADJOINT_EXPONENTS))
    @pytest.mark.parametrize("pair", sorted(ADJOINT_PAIRS))
    def test_matches_codegeneracy_oracle(self, pair, exponent, cap):
        T, Y = (make() for make in ADJOINT_PAIRS[pair])
        K = ADJOINT_EXPONENTS[exponent]()
        cot = cotensor(Y, K, cap)
        phis = hom_D(T, cot.diagram, limit=8)
        assert phis
        round_trip = all(T.at[d].dim <= cap for d in T.shape.objects)
        for phi in phis:
            flat = adjoint_to_tensor(phi, cot)
            assert flat == adjoint_to_tensor_oracle(phi, cot)
            assert validate_dmap(flat) == []
            if round_trip:  # T's cells all have elements in the presentation
                assert adjoint_to_cotensor(flat, T, cot) == phi

    @pytest.mark.parametrize("exponent", ["Delta1", "bdDelta2"])
    def test_builds_no_product_above_cap(self, exponent, monkeypatch):
        T = arrow_orbit(standard_simplex(1))
        Y = arrow_orbit(standard_simplex(1))
        K = ADJOINT_EXPONENTS[exponent]()
        cot = cotensor(Y, K, 0)
        phis = hom_D(T, cot.diagram)
        assert phis
        # T(a) is Delta^1, so tensor(T, K) itself holds product(Delta^1, K):
        # build it before recording what adjoint_to_tensor asks for
        tensor(T, K)
        asked = []
        build = glue.tuple_complex

        def recording(factors, constraints=()):
            asked.append((factors, constraints))
            return build(factors, constraints)

        monkeypatch.setattr(glue, "tuple_complex", recording)
        for phi in phis:
            adjoint_to_tensor(phi, cot)
        # every ask, cached or not, is for product(Delta^0, K)
        assert asked
        assert set(asked) == {((standard_simplex(0), K), ())}

    def test_cell_above_cap_names_cell_and_cap(self):
        """T(a) = Delta^1 has a 1-cell, whose element a cap-0 cotensor does
        not present: the inverse adjoint says so instead of a bare KeyError."""
        T = arrow_orbit(standard_simplex(1))
        Y = arrow_orbit(standard_simplex(1))
        K = standard_simplex(1)
        cot = cotensor(Y, K, 0)
        phis = hom_D(tensor(T, K).diagram, Y)
        assert phis
        for phi in phis:
            with pytest.raises(ValueError,
                               match=r"cell '0\.1' of dimension 1 .* cap 0"):
                adjoint_to_cotensor(phi, T, cot)


class TestHomComplex:
    def test_over_terminal_shape(self):
        # over D = 1 the mapping complex recovers X^{Delta^n} vertex counts
        X = wrap_sset(boundary(2))
        hc = hom_complex(point_diagram(terminal_category()), X, 1)
        assert len(hc.space.cells(0)) == 3

    def test_free_orbit_self_maps(self):
        T = free_z2_orbit()
        hc = hom_complex(T, T, 1)
        assert len(hc.space.cells(0)) == 2  # the two group elements

    def test_empty_source_terminal(self):
        E = empty_diagram(z2_category())
        hc = hom_complex(E, free_z2_orbit(), 2)
        # one simplex per level: the terminal complex is a point
        assert isomorphic(hc.space, point()) is not None

    def test_level_counts_match_hom_D(self):
        # level n of hom(A, X) equals hom_D(A tensor Delta^n, X)
        A = free_z2_orbit()
        X = z2_two_orbits()
        hc = hom_complex(A, X, 1)
        for n in range(2):
            expected = len(hom_D(tensor(A, standard_simplex(n)).diagram, X))
            assert len(hc.space.simplices(n)) == expected

    def test_post_and_pre_maps(self):
        f = z2_collapse()
        post = hom_complex_post(free_z2_orbit(), f, 1)
        assert verify_map(post) == []
        pre = hom_complex_pre(f, trivial_z2_orbit(), 1)
        assert verify_map(pre) == []


def _levels_1_and_2(space):
    return len(space.levels) == 3 and all(space.levels[1:])


def _z2_interval():
    return tensor(free_z2_orbit(), standard_simplex(1)).diagram


def _z2_two_intervals():
    return tensor(z2_two_orbits(), standard_simplex(1)).diagram


def _edge():
    return wrap_sset(standard_simplex(1))


PRESENTATION_COTENSORS = {
    "Delta1^Delta1": (_edge, lambda: standard_simplex(1), "*"),
    "Delta1^bdDelta1": (_edge, lambda: boundary(1), "*"),
    "Delta2^bdDelta1": (lambda: wrap_sset(standard_simplex(2)),
                        lambda: boundary(1), "*"),
    "Z2-interval^Delta1": (_z2_interval, lambda: standard_simplex(1), "*"),
    "arrow-Delta1^Delta1": (lambda: arrow_orbit(standard_simplex(1)),
                            lambda: standard_simplex(1), "a"),
}

PRESENTATION_HOM_COMPLEXES = {
    "two-points->Delta1": (lambda: wrap_sset(SimplicialSet([["u", "v"]], {})),
                           _edge),
    "point->square": (lambda: point_diagram(terminal_category()),
                      lambda: wrap_sset(product(standard_simplex(1),
                                                standard_simplex(1)).space)),
    "arrow-bd1->arrow-Delta1": (lambda: arrow_orbit(boundary(1)),
                                lambda: arrow_orbit(standard_simplex(1))),
    "two-orbits->two-intervals": (z2_two_orbits, _z2_two_intervals),
}


class TestPresentationOracle:
    """cotensor and hom_complex extract the same presentation as faces and
    degeneracies composed per lookup from the coface/codegeneracy maps."""

    @pytest.mark.parametrize("case", sorted(PRESENTATION_COTENSORS))
    def test_cotensor_matches_oracle(self, case):
        make_X, make_K, d = PRESENTATION_COTENSORS[case]
        X, K = make_X(), make_K()
        pres = cotensor(X, K, 2).pres[d]
        space, to_simplex, elem_of_cell = cotensor_oracle(X, K, 2, d)
        assert _levels_1_and_2(space)
        assert pres.space == space
        assert pres.to_simplex == to_simplex
        assert pres.elem_of_cell == elem_of_cell
        assert pres.cap == 2

    @pytest.mark.parametrize("case", sorted(PRESENTATION_HOM_COMPLEXES))
    def test_hom_complex_matches_oracle(self, case):
        make_A, make_X = PRESENTATION_HOM_COMPLEXES[case]
        A, X = make_A(), make_X()
        hc = hom_complex(A, X, 2)
        space, to_simplex, elem_of_cell = hom_complex_oracle(A, X, 2)
        assert _levels_1_and_2(space)
        assert hc.space == space
        assert hc.to_simplex == to_simplex
        assert hc.elem_of_cell == elem_of_cell
        assert hc.cap == 2


class TestMemoKeys:
    """Memoized constructions are keyed by value: equal but distinct
    arguments get the very same result object."""

    def test_equal_arguments_share_results(self):
        X1, X2 = z2_two_orbits(), z2_two_orbits()
        assert X1 == X2 and X1 is not X2
        K1, K2 = boundary(1), SimplicialSet([["0", "1"]], {})
        assert K1 is K2  # equal complexes are one object
        assert tensor(X1, K1) is tensor(X2, K2)
        assert cotensor(X1, standard_simplex(1), 1) is \
            cotensor(X2, standard_simplex(1), 1)
        assert hom_complex(free_z2_orbit(), X1, 1) is \
            hom_complex(free_z2_orbit(), X2, 1)
        assert orbit_setup(X1) is orbit_setup(X2)
        A1 = X1.at["*"]
        assert A1 is X2.at["*"]
        # a stray faces entry opts a complex out of interning
        A2 = SimplicialSet(A1.levels, {"stray": ()})
        assert A1 == A2 and A1 is not A2
        assert product(A1, K2) is product(A2, K2)
        f1, f2 = X1.act["g1"], X2.act["g1"]
        assert f1 is not f2
        assert pullback(f1, f1) is pullback(f2, f2)

    def test_product_shares_the_two_argument_entry(self):
        X, K = free_z2_orbit().at["*"], standard_simplex(1)
        assert product(X, K) is glue.tuple_complex((X, K), ())


class TestPointwise:
    def test_pushout_D(self):
        A = free_z2_orbit()
        po = pushout_D([(identity_dmap(A), identity_dmap(A))])
        assert validate_diagram(po.diagram) == []
        assert isomorphic(po.diagram.at["*"], A.at["*"]) is not None

    def test_pullback_over_identity(self):
        X = free_z2_orbit()
        pb = pullback_D(identity_dmap(X), identity_dmap(X))
        assert validate_diagram(pb.diagram) == []
        assert isomorphic(pb.diagram.at["*"], X.at["*"]) is not None

    def test_pullback_fiber_of_colim(self):
        # fiber of the free orbit over its one colimit vertex is the orbit
        X = free_z2_orbit()
        c = colim(X)
        constC = constant_diagram(X.shape, c.space)
        qmap = DiagramMap(X, constC, {"*": c.legs[0]})
        vertex = c.space.cells(0)[0]
        P = point_diagram(X.shape)
        from eqloc.simplicial import constant_map
        vmap = DiagramMap(P, constC,
                          {"*": constant_map(point(), c.space, vertex)})
        pb = pullback_D(qmap, vmap)
        assert isomorphic(pb.diagram.at["*"], X.at["*"]) is not None
        assert validate_diagram(pb.diagram) == []

    def test_coproduct_D(self):
        co = coproduct_D([free_z2_orbit(), trivial_z2_orbit()])
        assert validate_diagram(co.diagram) == []
        assert len(co.diagram.at["*"].cells(0)) == 3
        for inj in co.injections:
            assert validate_dmap(inj) == []

    def test_coproduct_D_actions_match_oracle(self):
        """Each action of a coproduct of diagrams is the sum of the
        summands' actions, renamed cell by cell."""
        rng = random.Random(57721)
        cases = [[free_z2_orbit(), trivial_z2_orbit()],
                 [z2_two_orbits(), free_z2_orbit(), trivial_z2_orbit()]]
        cases += [[random_z2_diagram(rng) for _ in range(rng.randint(1, 3))]
                  for _ in range(6)]
        for diagrams in cases:
            co = coproduct_D(diagrams).diagram
            D = co.shape
            for m in D.arrows:
                assert co.act[m] == coproduct_map_oracle(
                    co.at[D.src[m]], co.at[D.tgt[m]],
                    [X.act[m] for X in diagrams])


MISMATCHED_ENDS = """
from eqloc.cat import hom_D, identity_dmap
from eqloc.fixtures import free_z2_orbit, two_points_diagram, z2_collapse
from eqloc.simplicial import identity_map, point, standard_simplex
checks = [
    lambda: identity_map(standard_simplex(1)).then(identity_map(point())),
    lambda: z2_collapse().then(z2_collapse()),
    lambda: identity_dmap(free_z2_orbit()).then(
        identity_dmap(two_points_diagram())),
    lambda: hom_D(free_z2_orbit(), two_points_diagram()),
]
for check in checks:
    try:
        check()
    except ValueError as e:
        print("ValueError:", e)
"""


class TestEndpointChecks:
    """Composition and hom_D reject mismatched ends with a ValueError."""

    def test_mismatched_ends_raise(self):
        with pytest.raises(ValueError, match="target and source differ"):
            identity_map(standard_simplex(1)).then(identity_map(point()))
        with pytest.raises(ValueError, match="target and source differ"):
            z2_collapse().then(z2_collapse())
        with pytest.raises(ValueError, match="same shape"):
            hom_D(free_z2_orbit(), wrap_sset(point()))

    def test_checks_survive_optimize(self):
        """python -O strips asserts; these checks must still run."""
        src = os.path.dirname(os.path.dirname(eqloc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", MISMATCHED_ENDS],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("ValueError:") == 4, out.stdout
