from eqloc.cat import (
    DiagramMap,
    arrow_category,
    constant_diagram,
    coproduct_D,
    free_diagram,
    hom_D,
    hom_complex,
    identity_dmap,
    point_diagram,
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
from eqloc.orbits import (
    diagram_isomorphic,
    factor_through_setup,
    isomorphisms,
    is_orbit,
    orbit_category_of,
    orbit_naturality,
    orbit_point_diagram,
    orbit_setup,
    orbits_of,
)
from eqloc.simplicial import (
    SimplicialSet,
    boundary,
    isomorphic,
    point,
    standard_simplex,
)


class TestIsOrbit:
    def test_arrow_orbit(self):
        assert is_orbit(arrow_orbit(boundary(2)))

    def test_free_z2(self):
        assert is_orbit(free_z2_orbit())
        assert is_orbit(trivial_z2_orbit())

    def test_constant_interval_not_orbit(self):
        X = constant_diagram(z2_category(), standard_simplex(1))
        assert not is_orbit(X)

    def test_two_orbits_not_orbit(self):
        assert not is_orbit(z2_two_orbits())


class TestOrbitSetup:
    def test_two_orbit_diagram(self):
        X = z2_two_orbits()
        setup = orbit_setup(X)
        assert len(setup) == 2
        for o in setup:
            assert is_orbit(o.orbit)
            assert validate_dmap(o.into) == []
        sizes = sorted(len(o.orbit.at["*"].cells(0)) for o in setup)
        assert sizes == [1, 2]  # the trivial and the free orbit

    def test_connected_point(self):
        X = point_diagram(z2_category())
        assert len(orbit_setup(X)) == 1

    def test_empty(self):
        from eqloc.cat import empty_diagram
        assert orbit_setup(empty_diagram(z2_category())) == ()

    def test_factorization_property(self):
        # every map from a library orbit into X factors through a member
        X = z2_two_orbits()
        setup = orbit_setup(X)
        for T in (free_z2_orbit(), trivial_z2_orbit()):
            for phi in hom_D(T, X):
                hit = factor_through_setup(phi, setup)
                assert hit is not None
                member, psi = hit
                assert psi.then(member.into) == phi


class TestOrbitNaturality:
    def test_identity_square(self):
        X = z2_two_orbits()
        o = orbit_setup(X)[0]
        F, target = orbit_naturality(identity_dmap(X), o)
        assert target.witness == o.witness
        assert F == identity_dmap(o.orbit)

    def test_collapse_square(self):
        f = z2_collapse()
        o = orbit_setup(f.source)[0]
        F, target = orbit_naturality(f, o)
        # free orbit maps onto the trivial orbit over the collapsed vertex
        assert len(target.orbit.at["*"].cells(0)) == 1
        assert F.then(target.into) == o.into.then(f)
        assert validate_dmap(F) == []

    def test_composition_law(self):
        # composite of two squares equals the square of the composite
        incl = coproduct_D([free_z2_orbit(), trivial_z2_orbit()]).injections[0]
        collapse_all = None
        X = z2_two_orbits()
        from eqloc.cat import terminal_dmap
        g = terminal_dmap(X)
        f = incl
        for o in orbit_setup(f.source):
            F1, mid = orbit_naturality(f, o)
            F2, end = orbit_naturality(g, mid)
            F3, end2 = orbit_naturality(f.then(g), o)
            assert end.witness == end2.witness
            assert F1.then(F2) == F3


class TestOrbitCategory:
    def test_z2_two_orbits(self):
        E = orbit_category_of(z2_two_orbits(), level_cap=0, dim_cap=1)
        assert len(E) == 2
        ids = {i: len(E.orbits[i].at["*"].cells(0)) for i in range(2)}
        assert sorted(ids.values()) == [1, 2]
        # maps: free -> trivial 1, trivial -> free 0, free -> free 2
        sizes = {}
        for (i, j), maps in E.homs.items():
            sizes[(ids[i], ids[j])] = len(maps)
        assert sizes[(2, 1)] == 1
        assert sizes[(1, 2)] == 0
        assert sizes[(2, 2)] == 2
        assert sizes[(1, 1)] == 1

    def test_trivial_diagram_one_orbit(self):
        E = orbit_category_of(trivial_z2_orbit(), level_cap=1, dim_cap=1)
        assert len(E) == 1
        # the level-1 copy merges into the level-0 orbit, with its witness
        assert E.witnesses == [[(0, "q0_0"), (1, "q0_0")]]

    def test_over_terminal_shape_cap0(self):
        X = wrap_sset(boundary(2))
        E = orbit_category_of(X, level_cap=0, dim_cap=1)
        assert len(E) == 1
        assert isomorphic(E.orbits[0].at["*"], point()) is not None

    def test_arrow_example_cap0(self):
        # (Delta^0 + Delta^0 -> Delta^0): one orbit, the diagram itself
        two = SimplicialSet([["u", "v"]], {})
        X = arrow_orbit(two)
        E = orbit_category_of(X, level_cap=0, dim_cap=1)
        assert len(E) == 1
        assert diagram_isomorphic(E.orbits[0], X) is not None

    def test_isomorphisms_of_the_free_orbit(self):
        F = free_z2_orbit()
        swap = DiagramMap(F, F, {"*": F.act["g1"]})
        assert list(isomorphisms(F, F)) == [identity_dmap(F), swap]
        assert list(isomorphisms(F, F)) == list(hom_D(F, F))
        assert list(isomorphisms(F, trivial_z2_orbit())) == []
        # equal level sizes, but no equivariant map from fixed points to F
        two = constant_diagram(z2_category(), SimplicialSet([["u", "v"]], {}))
        assert list(isomorphisms(two, F)) == []
        assert diagram_isomorphic(two, F) is None

    def test_as_category_laws(self):
        from eqloc.cat import validate_category
        E = orbit_category_of(z2_two_orbits(), level_cap=0, dim_cap=1)
        cat, lookup = E.as_category()
        assert validate_category(cat) == []

    def test_orbits_of_keeps_first_copies(self):
        E = orbit_category_of(z2_two_orbits(), level_cap=0, dim_cap=1)
        assert E.witnesses == [[(0, "q0_0")], [(0, "q0_1")]]
        # the free orbit of free_z2_orbit() is a copy of orbit 0 of E
        assert orbits_of(z2_two_orbits(), free_z2_orbit()) == E.orbits
        Ts = orbits_of(free_z2_orbit(), trivial_z2_orbit())
        assert isinstance(Ts, tuple) and len(Ts) == 2
        assert diagram_isomorphic(Ts[0], free_z2_orbit()) is not None
        assert diagram_isomorphic(Ts[1], trivial_z2_orbit()) is not None
        assert orbits_of() == ()


class TestOrbitPointDiagram:
    def test_z2_fixed_points(self):
        # at the trivial orbit: the fixed subcomplex; at the free orbit: the
        # underlying complex
        X = z2_two_orbits()
        E = orbit_category_of(X, level_cap=0, dim_cap=1)
        P = orbit_point_diagram(X, E, 1)
        assert validate_diagram(P) == []
        by_size = {len(E.orbits[i].at["*"].cells(0)): f"T{i}"
                   for i in range(2)}
        fixed = P.at[by_size[1]]
        underlying = P.at[by_size[2]]
        assert len(fixed.cells(0)) == 1   # only the trivial summand is fixed
        assert len(underlying.cells(0)) == 3

    def test_identity_vertex(self):
        T = free_z2_orbit()
        E = orbit_category_of(T, level_cap=0, dim_cap=1)
        P = orbit_point_diagram(T, E, 1)
        # hom(T, T) contains the identity: the value has >= 1 vertex
        assert len(P.at["T0"].cells(0)) == 2

    def test_yoneda_free_diagram(self):
        # the value at the representable orbit recovers X(d) vertices
        D = arrow_category()
        F = free_diagram(D, "a")
        X = arrow_orbit(standard_simplex(1))
        hc = hom_complex(F, X, 1)
        assert len(hc.space.cells(0)) == len(X.at["a"].cells(0))
