import pytest

from eqloc.cat import (
    constant_diagram,
    coproduct_D,
    identity_dmap,
    point_diagram,
    tensor,
    tensor_projection,
    terminal_dmap,
    wrap_smap,
    wrap_sset,
)
from eqloc.fixtures import (
    free_z2_orbit,
    trivial_z2_orbit,
    z2_category,
    z2_collapse,
    z2_two_orbits,
)
from eqloc.glue import UnionFind
from eqloc.homotopy import (
    Budget,
    cone,
    cylinder,
    fibrant_replace,
    homotopy_report,
    is_fibration_equivariant,
    is_kan,
    is_null_homotopic,
    is_weq_equivariant,
    lifts,
    null_factorization,
    pi0,
    pi_n,
    properness_probe,
    sset_weq_probe,
)
from eqloc.orbits import orbits_of
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    constant_map,
    identity_map,
    isomorphic,
    nondeg,
    point,
    standard_simplex,
    validate,
)


def truncated_nerve_z2(N):
    """The nerve of Z/2 up to dimension N: one nondegenerate cell per level."""
    levels = [[f"n{i}"] for i in range(N + 1)]
    faces = {}
    for n in range(1, N + 1):
        fs = []
        for i in range(n + 1):
            if i == 0 or i == n:
                fs.append(((), f"n{n-1}"))
            else:
                # multiplying adjacent entries yields the identity, which
                # is the (i-1)-st degeneracy of the cell two levels down
                fs.append(((i - 1,), f"n{n-2}"))
        faces[f"n{n}"] = tuple(fs)
    return SimplicialSet(levels, faces)


def two_points():
    return SimplicialSet([["u", "v"]], {})


class TestKan:
    def test_point_is_kan(self):
        assert is_kan(point(), 3)

    def test_interval_not_kan_at_2(self):
        # no filler for the outer horns with reversed edges
        assert is_kan(standard_simplex(1), 1)
        assert not is_kan(standard_simplex(1), 2)

    def test_nerve_z2_kan_at_2(self):
        N = truncated_nerve_z2(3)
        assert validate(N) == []
        assert is_kan(N, 2)

    def test_discrete_is_kan(self):
        assert is_kan(two_points(), 3)

    def test_only_the_last_outer_horn_fails(self):
        # one loop e with 2-cells (e, e, e) and (s v, s v, e): the horn
        # (s v, e, -) has no filler, every 2-horn at k < 2 has one
        v, e = nondeg("v"), nondeg("e")
        X = SimplicialSet([["v"], ["e"], ["a", "b"]],
                          {"e": (v, v), "a": (e, e, e),
                           "b": (((0,), "v"), ((0,), "v"), e)})
        assert validate(X) == []
        to_point = constant_map(X, point(), "0")
        assert [lifts(to_point, 2, k) for k in range(3)] == [True, True, False]
        assert is_kan(X, 1) and not is_kan(X, 2)


class TestPi0:
    def test_boundary_connected(self):
        assert len(pi0(boundary(2))) == 1

    def test_two_points(self):
        assert len(pi0(two_points())) == 2

    def test_empty(self):
        from eqloc.simplicial import empty_simplicial_set
        assert pi0(empty_simplicial_set()) == ()

    def test_union_find_oracle(self):
        # independent oracle: union-find over vertices and edges
        for X in (boundary(2), two_points(), standard_simplex(3),
                  truncated_nerve_z2(2)):
            uf = UnionFind(X.cells(0))
            for e in X.cells(1):
                uf.union(X.face(nondeg(e), 0).cell,
                         X.face(nondeg(e), 1).cell)
            roots = {uf.find(v) for v in X.cells(0)}
            assert len(roots) == len(pi0(X))


class TestPiN:
    def test_pi1_of_point(self):
        assert len(pi_n(point(), "0", 1)) == 1

    def test_pi1_of_nerve_z2(self):
        N = truncated_nerve_z2(3)
        classes = pi_n(N, "n0", 1)
        assert len(classes) == 2  # the underlying set of Z/2

    def test_pi_rejects_non_kan(self):
        with pytest.raises(ValueError):
            pi_n(standard_simplex(1), "0", 1)

    def test_report(self):
        rep = homotopy_report(truncated_nerve_z2(3), 1)
        assert rep.is_kan_at_cap
        assert len(rep.pi0) == 1
        assert len(rep.pi_n[("n0", 1)]) == 2


class TestSsetProbes:
    def test_rlp_horn_against_point(self):
        p = constant_map(standard_simplex(2), point(), "0")
        assert lifts(p, 2, 1)

    def test_rlp_fails_on_interval(self):
        p = constant_map(standard_simplex(1), point(), "0")
        assert not lifts(p, 2, 0)

    def test_sphere_lifting(self):
        # against the empty sphere in Delta^0: onto on vertices
        assert lifts(constant_map(two_points(), point(), "0"), 0)
        assert not lifts(constant_map(point(), two_points(), "u"), 0)
        # the sphere (u, v) has no edge over the degenerate edge of the point
        assert not lifts(constant_map(two_points(), point(), "0"), 1)
        assert lifts(identity_map(two_points()), 1)

    def test_fibrant_replace_discrete(self):
        X, j, ok = fibrant_replace(two_points(), Budget(stages=2, n_cap=2))
        assert ok and isomorphic(X, two_points()) is not None

    def test_weq_probe_identity(self):
        v = sset_weq_probe(identity_map(truncated_nerve_z2(3)), 1,
                           Budget(stages=2, n_cap=2))
        assert v.value == "yes"

    def test_weq_probe_detects_pi0(self):
        f = SimplicialMap(two_points(), point(),
                          {"u": ((), "0"), "v": ((), "0")})
        v = sset_weq_probe(f, 0, Budget(stages=2, n_cap=1))
        assert v.value == "no"

    def test_weq_probe_detects_pi1(self):
        N = truncated_nerve_z2(3)
        f = constant_map(N, point(), "0")
        v = sset_weq_probe(f, 1, Budget(stages=2, n_cap=2))
        assert v.value == "no"


class TestEquivariantProbes:
    def test_identity_is_weq(self):
        X = z2_two_orbits()
        v = is_weq_equivariant(identity_dmap(X), orbits_of(X, X), 0, 1)
        assert v.value == "yes"

    def test_collapse_not_weq(self):
        # fixed points go from empty to a point: detected at the trivial orbit
        f = z2_collapse()
        v = is_weq_equivariant(f, orbits_of(f.source, f.target), 0, 1)
        assert v.value == "no"

    def test_pi_n_failure_names_a_vertex_of_the_diagram(self):
        # over a groupoid hom(T, X) is X(c)^H itself, cells and names
        X = wrap_sset(truncated_nerve_z2(2))
        f = terminal_dmap(X)
        v = is_weq_equivariant(f, orbits_of(X, f.target), 1, 2)
        assert (v.value, v.reason) == (
            "no", f"orbit 0: pi_1 not bijective at {X.at['*'].cells(0)[0]}")

    def test_fibration_projection(self):
        X = trivial_z2_orbit()
        t = tensor(X, truncated_nerve_z2(2))
        p = tensor_projection(X, truncated_nerve_z2(2))
        assert is_fibration_equivariant(p, orbits_of(t.diagram, X), 1, 1)


class TestCylinderCone:
    def test_cylinder_of_empty(self):
        from eqloc.cat import empty_diagram
        cyl = cylinder(empty_diagram(z2_category()))
        assert cyl.space.at["*"].dim == -1

    def test_cylinder_ends_injective(self):
        from eqloc.simplicial import is_injective
        cyl = cylinder(z2_two_orbits())
        for i in (cyl.i0, cyl.i1):
            assert all(is_injective(i.components[d])
                       for d in ("*",))

    def test_cone_of_point_is_interval(self):
        from eqloc.cat import terminal_category
        A = point_diagram(terminal_category())
        cn = cone(A)
        assert isomorphic(cn.space.at["*"], standard_simplex(1)) is not None

    def test_cone_colim_connected(self):
        cn = cone(free_z2_orbit())
        from eqloc.cat import colim
        c = colim(cn.space)
        assert len(pi0(c.space)) == 1


class TestNullHomotopy:
    def test_constant_map_null(self):
        X = wrap_sset(standard_simplex(1))
        f = wrap_smap(constant_map(standard_simplex(1),
                                   standard_simplex(1), "0"))
        verdict, H = is_null_homotopic(f)
        assert verdict.value == "yes" and H is not None

    def test_identity_of_discrete_not_null(self):
        X = wrap_sset(two_points())
        verdict, H = is_null_homotopic(identity_dmap(X))
        assert verdict.value == "no"

    def test_vertex_inclusion_null_via_edge(self):
        incl = wrap_smap(SimplicialMap(point(), standard_simplex(1),
                                       {"0": ((), "0")}))
        verdict, H = is_null_homotopic(incl)
        assert verdict.value == "yes"

    def test_budget_inconclusive(self):
        X = wrap_sset(standard_simplex(2))
        f = identity_dmap(X)
        verdict, H = is_null_homotopic(f, search_budget=1)
        assert verdict.value == "inconclusive"

    def test_null_factorization(self):
        incl = wrap_smap(SimplicialMap(point(), standard_simplex(1),
                                       {"0": ((), "0")}))
        verdict, H = is_null_homotopic(incl)
        cn, m = null_factorization(incl, H)
        assert cn.inclusion.then(m) == incl

    def test_null_factorization_constant(self):
        f = wrap_smap(constant_map(boundary(2), boundary(2), "0"))
        verdict, H = is_null_homotopic(f)
        assert verdict.value == "yes"
        cn, m = null_factorization(f, H)
        assert cn.inclusion.then(m) == f


class TestProperness:
    def test_pushout_of_identity(self):
        X = z2_two_orbits()
        v = properness_probe("left", identity_dmap(X), identity_dmap(X),
                             orbits_of(X, X), 0, 1)
        assert v.value == "yes"

    def test_left_properness_z2(self):
        # a fixed-point-preserving equivalence pushed along a free-cell leg
        from eqloc.cat import DiagramMap
        P = trivial_z2_orbit()
        B = constant_diagram(z2_category(), standard_simplex(1))
        weq = DiagramMap(P, B, {"*": SimplicialMap(
            point(), standard_simplex(1), {"0": ((), "0")})})
        co = coproduct_D([P, free_z2_orbit()])
        along = co.injections[0]
        v = properness_probe("left", weq, along,
                             orbits_of(P, B, co.diagram), 0, 1)
        assert v.value == "yes"

    def test_right_properness(self):
        X = z2_two_orbits()
        t = tensor(X, standard_simplex(1))
        p = tensor_projection(X, standard_simplex(1))
        v = properness_probe("right", p, p, orbits_of(t.diagram, X), 0, 1)
        assert v.value == "yes"
