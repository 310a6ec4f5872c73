"""Remaining worked examples: the separating local probe, inconclusive
verdicts under truncation, degenerate setups, and transport chains."""

from eqloc.cat import (
    DiagramMap,
    coproduct_D,
    empty_diagram,
    empty_dmap_into,
    free_diagram,
    identity_dmap,
    point_diagram,
    pushout_D,
    terminal_category,
    terminal_dmap,
    validate_diagram,
    wrap_smap,
    wrap_sset,
)
from eqloc.fixtures import (
    empty_to_point_map,
    free_z2_orbit,
    two_points_diagram,
    z2_category,
    z2_collapse,
    z2_two_orbits,
)
from eqloc.homotopy import is_weq_equivariant
from eqloc.localization import (
    LocalizationCaps,
    LocalizationSpec,
    class_K,
    hor_F_instrumentation,
    is_S_equivalence,
    is_S_local,
    localize,
)
from eqloc.orbits import orbits_of
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary_inclusion,
    enumerate_maps,
    identity_map,
    is_isomorphism,
    isomorphic,
    nondeg,
    point,
    standard_simplex,
)
from eqloc.soa import (
    ArrowSquare,
    Budget,
    empty_instrumentation,
    find_lift,
    rlp_check,
    setup_I,
    setup_from_set,
    setup_union,
    small_object_argument,
)


def circle():
    return SimplicialSet([["v"], ["e"]], {"e": (((), "v"), ((), "v"))})


class TestDegenerateSetups:
    def test_union_with_empty_instrumentation(self):
        base = setup_from_set([wrap_smap(boundary_inclusion(1))], name="M")
        u = setup_union(base, empty_instrumentation())
        f = terminal_dmap(two_points_diagram())
        assert u.assign(f) == base.assign(f)

    def test_class_K_with_empty_S_is_J_alone(self):
        spec = LocalizationSpec(terminal_category(), generators=[],
                                caps=LocalizationCaps())
        instr = class_K(spec)
        t = terminal_dmap(two_points_diagram())
        assert all(sq.member_id.startswith("J@") for sq in instr.assign(t))

    def test_set_based_boundaries_match_setup_I_verdicts(self):
        # the classical argument specializes: both instrumentations leave the
        # same map injective over the boundary family
        members = [wrap_smap(boundary_inclusion(n)) for n in range(3)]
        set_instr = setup_from_set(members, name="B",
                                   budget=Budget(stages=4))
        f = terminal_dmap(two_points_diagram())
        r1 = small_object_argument(f, set_instr)
        r2 = small_object_argument(f, setup_I(Budget(stages=4, n_cap=2,
                                                     dim_cap=0)))
        assert r1.stopped_by == r2.stopped_by == "stabilization"
        for n in range(3):
            i = wrap_smap(boundary_inclusion(n))
            assert rlp_check(i, r1.delta).holds
            assert rlp_check(i, r2.delta).holds

    def test_hor_F_on_isomorphism_all_lift(self):
        spec = LocalizationSpec(
            z2_category(), fixedpointwise=empty_to_point_map(),
            caps=LocalizationCaps(hor_n_cap=1, dim_cap=1))
        instr = hor_F_instrumentation(spec.f, spec.caps)
        g = identity_dmap(z2_two_orbits())
        for sq in instr.assign(g):
            assert find_lift(sq.top, g, sq.left, sq.right) is not None

    def test_setup_I_transport_three_chain(self):
        budget = Budget(stages=1, n_cap=0, dim_cap=1)
        instr = setup_I(budget)
        spaces = [wrap_sset(SimplicialSet([["a", "b"]], {})),
                  wrap_sset(SimplicialSet([["c"]], {})),
                  wrap_sset(point())]
        fs = [terminal_dmap(X) for X in spaces]
        collapse01 = wrap_smap(SimplicialMap(
            spaces[0].at["*"], spaces[1].at["*"],
            {"a": ((), "c"), "b": ((), "c")}))
        collapse12 = wrap_smap(SimplicialMap(
            spaces[1].at["*"], spaces[2].at["*"], {"c": ((), "0")}))
        g01 = ArrowSquare(fs[0], fs[1], collapse01, identity_dmap(fs[0].target))
        g12 = ArrowSquare(fs[1], fs[2], collapse12, identity_dmap(fs[0].target))
        g02 = ArrowSquare(fs[0], fs[2], collapse01.then(collapse12),
                          identity_dmap(fs[0].target))
        for sq in instr.assign(fs[0]):
            mid, _ = instr.transport(g01, sq)
            end, _ = instr.transport(g12, mid)
            direct, _ = instr.transport(g02, sq)
            assert end == direct

    def test_pushout_of_empty_is_coproduct(self):
        X, B = free_z2_orbit(), z2_two_orbits()
        E = empty_diagram(z2_category())
        po = pushout_D([(empty_dmap_into(X), empty_dmap_into(B))])
        co = coproduct_D([X, B])
        from eqloc.orbits import diagram_isomorphic
        assert diagram_isomorphic(po.diagram, co.diagram) is not None

    def test_free_diagram_over_terminal_shape(self):
        F = free_diagram(terminal_category(), "*")
        assert validate_diagram(F) == []
        assert isomorphic(F.at["*"], point()) is not None


class TestHornCollapseFactorization:
    def test_stabilizes_at_the_attainable_cap(self):
        # the horn composed down to the point, factored with the horn-filler
        # family at cap 1: every assigned square lifts by degeneracies
        from eqloc.simplicial import horn, horn_inclusion
        from eqloc.soa import setup_J
        f = terminal_dmap(wrap_sset(horn(2, 1)))
        r = small_object_argument(f, setup_J(Budget(stages=3, n_cap=1,
                                                    dim_cap=0)))
        assert r.stopped_by == "stabilization"
        for k in (0, 1):
            assert rlp_check(wrap_smap(horn_inclusion(1, k)), r.delta).holds


class TestRetractFailure:
    def test_non_cofibration_has_no_retract(self):
        # the collapse of the interval is not levelwise injective, so the
        # lift against its own delta fails and the witness search reports it
        from eqloc.simplicial import constant_map
        from eqloc.soa import retract_witness
        f = wrap_smap(constant_map(standard_simplex(1), point(), "0"))
        w = retract_witness(f, setup_I(Budget(stages=3, n_cap=1, dim_cap=0)))
        assert w is None


class TestTruncationVerdicts:
    def test_weq_probe_inconclusive_above_cap(self):
        # the circle's mapping space never stabilizes under horn filling, so
        # a pi_1-level probe with a small budget must answer inconclusive
        f = terminal_dmap(wrap_sset(circle()))
        orbits = orbits_of(f.source, f.target, dim_cap=1)
        v = is_weq_equivariant(f, orbits, pi_cap=1, hom_cap=2,
                               budget=Budget(stages=2, n_cap=2, dim_cap=0))
        assert v.value == "inconclusive"


class TestSeparatingProbe:
    def _symmetric_local_interval(self):
        """The localization of two points carries a vertex-swapping
        involution; lifting it to a Z/2 diagram gives a local object whose
        fixed points are empty."""
        spec = LocalizationSpec(
            terminal_category(),
            generators=[wrap_smap(empty_to_point_map())],
            caps=LocalizationCaps())
        L = localize(two_points_diagram(), spec).local_object.at["*"]
        u, v = L.cells(0)
        candidates = enumerate_maps(L, L, pins={u: nondeg(v), v: nondeg(u)})
        swaps = [s for s in candidates
                 if is_isomorphism(s) is not None
                 and s.then(s) == identity_map(L)]
        assert swaps, "no symmetric involution on the local interval"
        from eqloc.cat import Diagram
        sigma = swaps[0]
        P = Diagram(z2_category(), {"*": L}, {"g1": sigma})
        assert validate_diagram(P) == []
        return P

    def test_collapse_fails_against_separating_probe(self):
        # S-locality of a diagram with empty fixed points, against the class
        # generated by (empty -> free orbit); the equivariant collapse is
        # detected as a non-equivalence by this probe
        P = self._symmetric_local_interval()
        from eqloc.simplicial import empty_simplicial_set
        free = free_z2_orbit()
        gen = DiagramMap(empty_diagram(z2_category()), free,
                         {"*": SimplicialMap(empty_simplicial_set(),
                                             free.at["*"], {})})
        spec = LocalizationSpec(
            z2_category(), generators=[gen],
            caps=LocalizationCaps(hor_n_cap=2, j_n_cap=1, probe_n_cap=2,
                                  dim_cap=1, hom_cap=2, pi_cap=0, stages=3))
        assert is_S_local(P, spec).value == "yes"
        v = is_S_equivalence(z2_collapse(), spec, [P])
        assert v.value == "no"


class TestGeneralFixedPointwise:
    """The fixed-pointwise machinery for a general map of simplicial sets:
    nonempty A corners of the three-dimensional pullback."""

    def _spec(self, stages=2):
        return LocalizationSpec(
            z2_category(),
            fixedpointwise=boundary_inclusion(1),
            caps=LocalizationCaps(hor_n_cap=1, j_n_cap=1, probe_n_cap=1,
                                  dim_cap=1, hom_cap=1, pi_cap=0,
                                  stages=stages))

    def test_squares_commute_with_nonempty_A(self):
        from eqloc.fixtures import trivial_z2_orbit
        from eqloc.soa import verify_square
        spec = self._spec()
        instr = hor_F_instrumentation(spec.f, spec.caps)
        g = terminal_dmap(z2_two_orbits())
        squares = instr.assign(g)
        assert squares
        assert all(verify_square(sq) for sq in squares)

    def test_isomorphism_squares_lift(self):
        spec = self._spec()
        instr = hor_F_instrumentation(spec.f, spec.caps)
        g = identity_dmap(free_z2_orbit())
        for sq in instr.assign(g):
            assert find_lift(sq.top, g, sq.left, sq.right) is not None

    def test_localize_runs_exactly(self):
        from eqloc.fixtures import trivial_z2_orbit
        spec = self._spec(stages=1)
        r = localize(trivial_z2_orbit(), spec)
        assert r.trace.stopped_by in ("stabilization", "budget")
        assert r.j.then(r.trace.delta) == r.trace.arrow

    def test_locality_report_general_f(self):
        from eqloc.fixtures import trivial_z2_orbit
        from eqloc.localization import fixed_point_locality_report
        from eqloc.orbits import orbit_category_of
        spec = self._spec()
        # the point diagram has point fixed-point spaces: f-local decisively
        Z = point_diagram(z2_category())
        E = orbit_category_of(Z, 0, 1)
        reports = fixed_point_locality_report(Z, spec.f, E.orbits, spec.caps)
        assert all(rep.local.value == "yes" for rep in reports)

    def test_locality_report_detects_failure(self):
        from eqloc.cat import coproduct_D
        from eqloc.fixtures import trivial_z2_orbit
        from eqloc.localization import fixed_point_locality_report
        from eqloc.orbits import orbit_category_of
        spec = self._spec()
        # two fixed points: the mapping-space criterion compares squares of
        # components and fails decisively
        Z = coproduct_D([point_diagram(z2_category()),
                         point_diagram(z2_category())]).diagram
        E = orbit_category_of(point_diagram(z2_category()), 0, 1)
        reports = fixed_point_locality_report(Z, spec.f, E.orbits, spec.caps)
        assert any(rep.local.value == "no" for rep in reports)
