import math

import pytest

from eqloc.glue import (
    coproduct,
    induced_tuple_map,
    product,
    pullback,
    pushout,
    quotient,
    tuple_complex,
)
from eqloc.simplicial import (
    Simplex,
    SimplicialMap,
    boundary,
    boundary_inclusion,
    constant_map,
    empty_simplicial_set,
    hom_set,
    identity_map,
    is_isomorphism,
    isomorphic,
    nondeg,
    point,
    standard_simplex,
    validate,
    verify_map,
)


def cell_counts(X):
    return [len(l) for l in X.levels]


class TestCoproduct:
    def test_two_points(self):
        co = coproduct([point(), point()])
        assert cell_counts(co.space) == [2]
        for inj in co.injections:
            assert verify_map(inj) == []

    def test_with_empty(self):
        co = coproduct([empty_simplicial_set(), standard_simplex(1)])
        assert cell_counts(co.space) == [2, 1]
        assert validate(co.space) == []


class TestQuotient:
    def test_collapse_edge(self):
        # Delta^1 with both vertices identified: one vertex, one loop
        X = standard_simplex(1)
        q = quotient(X, [(nondeg("0"), nondeg("1"))])
        assert cell_counts(q.space) == [1, 1]
        assert validate(q.space) == []
        assert verify_map(q.projection) == []

    def test_identify_edge_with_degenerate(self):
        # identifying the edge with a degenerate edge collapses Delta^1
        X = standard_simplex(1)
        q = quotient(X, [(nondeg("0.1"), Simplex((0,), "0"))])
        assert cell_counts(q.space) == [1]

    def test_no_pairs(self):
        X = boundary(2)
        q = quotient(X, [])
        assert is_isomorphism(q.projection) is not None


class TestPushout:
    def test_pushout_along_identity(self):
        # pushout of X <- X -> B along the identity is B
        X = standard_simplex(1)
        f = identity_map(X)
        po = pushout([(f, f)])
        assert isomorphic(po.space, X) is not None

    def test_circle(self):
        # Delta^0 glued along the boundary of Delta^1: one vertex, one edge
        B = boundary(1)
        collapse = constant_map(B, point(), "0")
        incl = boundary_inclusion(1)
        po = pushout([(collapse, incl)])
        assert cell_counts(po.space) == [1, 1]
        assert validate(po.space) == []
        assert all(verify_map(leg) == [] for leg in po.legs)

    def test_wedge_of_two_circles(self):
        B = boundary(1)
        collapse = constant_map(B, point(), "0")
        incl = boundary_inclusion(1)
        circle = pushout([(collapse, incl)]).space
        # glue two circles at the basepoint
        co = coproduct([circle, circle])
        pts = coproduct([point()])
        two = SimplicialMap(pts.space, co.space, {"0:0": nondeg("0:q0_0")})
        other = SimplicialMap(pts.space, co.space, {"0:0": nondeg("1:q0_0")})
        # identify the two images of the point
        q = quotient(co.space, [(nondeg("0:q0_0"), nondeg("1:q0_0"))])
        assert cell_counts(q.space) == [1, 2]
        assert two, other  # silence unused warnings

    def test_universal_property_enumerated(self):
        # cocones from the circle pushout into Delta^1 factor uniquely
        B = boundary(1)
        collapse = constant_map(B, point(), "0")
        incl = boundary_inclusion(1)
        po = pushout([(collapse, incl)])
        W = standard_simplex(1)
        cocones = [(p, q) for p in hom_set(point(), W)
                   for q in hom_set(standard_simplex(1), W)
                   if collapse.then(p) == incl.then(q)]
        assert cocones
        for p, q in cocones:
            m = po.mediate([p, q])
            assert verify_map(m) == []
            assert po.legs[0].then(m) == p
            assert po.legs[1].then(m) == q
            others = [h for h in hom_set(po.space, W)
                      if po.legs[0].then(h) == p
                      and po.legs[1].then(h) == q]
            assert others == [m]


class TestProduct:
    def test_unit(self):
        X = standard_simplex(1)
        tc = product(X, point())
        assert isomorphic(tc.space, X) is not None

    def test_square(self):
        # Delta^1 x Delta^1: 4 vertices, 5 edges, 2 two-cells (shuffles)
        tc = product(standard_simplex(1), standard_simplex(1))
        assert cell_counts(tc.space) == [4, 5, 2]
        assert validate(tc.space) == []
        assert verify_map(tc.projection(0)) == []
        assert verify_map(tc.projection(1)) == []

    def test_with_empty(self):
        tc = product(empty_simplicial_set(), standard_simplex(2))
        assert tc.space.dim == -1

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_shuffle_top_cells(self, p, q):
        tc = product(standard_simplex(p), standard_simplex(q))
        assert len(tc.space.cells(p + q)) == math.comb(p + q, p)

    def test_simplices_biject_with_pairs(self):
        X, Y = standard_simplex(1), boundary(2)
        tc = product(X, Y)
        for n in range(4):
            pairs = len(X.simplices(n)) * len(Y.simplices(n))
            assert len(tc.space.simplices(n)) == pairs

    def test_universal_property_enumerated(self):
        X, Y = standard_simplex(1), standard_simplex(1)
        tc = product(X, Y)
        W = standard_simplex(1)
        for f in hom_set(W, X):
            for g in hom_set(W, Y):
                m = tc.mediate((f, g))
                assert verify_map(m) == []
                assert m.then(tc.projection(0)) == f
                assert m.then(tc.projection(1)) == g
                others = [h for h in hom_set(W, tc.space)
                          if h.then(tc.projection(0)) == f
                          and h.then(tc.projection(1)) == g]
                assert others == [m]


class TestPullback:
    def test_over_identity(self):
        X = boundary(2)
        f = identity_map(X)
        tc = pullback(f, f)
        assert isomorphic(tc.space, X) is not None

    def test_fiber(self):
        # fiber of Delta^1 -> Delta^0 over the point is Delta^1
        t = constant_map(standard_simplex(1), point(), "0")
        v = identity_map(point())
        tc = pullback(t, v)
        assert isomorphic(tc.space, standard_simplex(1)) is not None

    def test_fiber_of_fold(self):
        # two edges folded onto one: fiber over a vertex has two vertices
        X = coproduct([point(), point()]).space
        fold = SimplicialMap(X, point(), {"0:0": nondeg("0"), "1:0": nondeg("0")})
        tc = pullback(fold, identity_map(point()))
        assert cell_counts(tc.space) == [2]


class TestInducedMaps:
    def test_product_functorial(self):
        X = standard_simplex(1)
        tc = product(X, X)
        f = constant_map(X, X, "0")
        m = induced_tuple_map(tc, tc, (f, identity_map(X)))
        assert verify_map(m) == []
        assert m.then(tc.projection(1)) == tc.projection(1)
        assert m.then(tc.projection(0)) == tc.projection(0).then(f)

    def test_three_factor_limit(self):
        X = standard_simplex(1)
        t = constant_map(X, point(), "0")
        tc = tuple_complex((X, X, X), ((0, t, 1, t), (1, t, 2, t)))
        # plain triple product since the constraints are vacuous over a point
        assert len(tc.space.cells(0)) == 8
