import pathlib

import pytest

from eqloc.cat import (
    empty_diagram,
    empty_dmap_into,
    identity_dmap,
    terminal_category,
    terminal_dmap,
    validate_dmap,
    wrap_smap,
    wrap_sset,
)
from eqloc.documents import Workspace
from eqloc.fixtures import (
    empty_to_point_map,
    free_z2_orbit,
    interval_plus_point,
    two_points_diagram,
    z2_two_orbits,
)
from eqloc.localization import (
    LocalizationCaps,
    LocalizationSpec,
    extend_to_local,
    localize,
)
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary_inclusion,
    constant_map,
    horn_inclusion,
    isomorphic,
    point,
    standard_simplex,
)
from eqloc.soa import (
    ArrowSquare,
    Budget,
    Instrumentation,
    SetFamily,
    empty_instrumentation,
    find_lift,
    retract_witness,
    rlp_check,
    setup_I,
    setup_J,
    setup_from_set,
    setup_union,
    small_object_argument,
    soa_functorial,
    verify_pullback_over_colim,
    verify_square,
)
from oracles import (
    extend_to_local_oracle,
    soa_functorial_oracle,
    stage_pushout_oracle,
)

Z2 = str(pathlib.Path(__file__).parent / "data" / "z2_example.json")


def two_points():
    return SimplicialSet([["u", "v"]], {})


class TestRlp:
    def test_boundary_vs_collapse_fails(self):
        i = wrap_smap(boundary_inclusion(1))
        p = wrap_smap(constant_map(standard_simplex(1), point(), "0"))
        report = rlp_check(i, p)
        assert not report.holds
        assert report.counterexample is not None
        # the counterexample is the vertex-swapping square
        a, b = report.counterexample
        comp = a.components["*"]
        assert comp.assignment["0"] != comp.assignment["1"]

    def test_identity_always_lifts(self):
        i = wrap_smap(boundary_inclusion(1))
        p = identity_dmap(wrap_sset(standard_simplex(1)))
        assert rlp_check(i, p).holds

    def test_empty_inclusion_lifts(self):
        i = identity_dmap(empty_diagram(terminal_category()))
        p = wrap_smap(constant_map(standard_simplex(1), point(), "0"))
        assert rlp_check(i, p).holds

    def test_lift_found_when_exists(self):
        # horn inclusion against the 2-simplex: the missing face exists
        i = wrap_smap(horn_inclusion(2, 1))
        p = terminal_dmap(wrap_sset(standard_simplex(2)))
        report = rlp_check(i, p)
        assert report.holds
        assert len(report.lifts) == report.n_squares


class TestSetupFromSet:
    def test_assign_enumerates_member_maps(self):
        m = wrap_smap(boundary_inclusion(1))
        instr = setup_from_set([m], name="M")
        f = terminal_dmap(wrap_sset(two_points()))
        squares = instr.assign(f)
        # pairs of vertices of the two-point space: 4 squares
        assert len(squares) == 4
        assert all(verify_square(sq) for sq in squares)

    def test_transport_identity_and_composite(self):
        m = wrap_smap(boundary_inclusion(1))
        instr = setup_from_set([m], name="M")
        X = wrap_sset(two_points())
        Y = wrap_sset(point())
        f1 = terminal_dmap(X)
        f2 = terminal_dmap(Y)
        collapse = wrap_smap(constant_map(two_points(), point(), "0"))
        g = ArrowSquare(source=f1, target=f2, upper=collapse,
                        lower=identity_dmap(f1.target))
        assert g.verify()
        ident = ArrowSquare(source=f1, target=f1, upper=identity_dmap(X),
                            lower=identity_dmap(f1.target))
        for sq in instr.assign(f1):
            tsq, (cA, cB) = instr.transport(ident, sq)
            assert tsq == sq
            tsq2, _ = instr.transport(g, sq)
            assert verify_square(tsq2)
            assert tsq2.bottom == f2

    def test_union_disjointness(self):
        a = setup_from_set([wrap_smap(boundary_inclusion(1))], name="A")
        b = setup_from_set([wrap_smap(horn_inclusion(1, 0))], name="B")
        u = setup_union(a, b)
        f = terminal_dmap(wrap_sset(point()))
        assert len(u.assign(f)) == len(a.assign(f)) + len(b.assign(f))
        with pytest.raises(ValueError):
            setup_union(a, setup_from_set([], name="A"))


class TestFamilies:
    """An instrumentation is its families: assign concatenates their squares
    in family order, and transport routes a square by the family name in
    meta[0]."""

    def _point_member(self):
        return wrap_smap(boundary_inclusion(0))  # empty -> point

    def test_assign_concatenates_in_family_order(self):
        a = setup_from_set([wrap_smap(boundary_inclusion(1))], name="A")
        b = setup_from_set([self._point_member()], name="B")
        u = setup_union(b, a, name="U")
        f = terminal_dmap(wrap_sset(two_points()))
        assert list(u.families) == ["B", "A"]
        assert u.assign(f) == b.assign(f) + a.assign(f)
        assert {sq.meta[0] for sq in u.assign(f)} == {"A", "B"}

    def test_set_family_named_like_a_member_id_routes_by_name(self):
        # "I@x#0" begins like the member ids "I@n" of setup_I, but its
        # square names the set family I@x, which transports it
        budget = Budget(stages=1, n_cap=1, dim_cap=1)
        u = setup_union(setup_I(budget),
                        setup_from_set([self._point_member()], name="I@x"))
        f = terminal_dmap(wrap_sset(two_points()))
        ident = ArrowSquare(source=f, target=f,
                            upper=identity_dmap(f.source),
                            lower=identity_dmap(f.target))
        squares = [sq for sq in u.assign(f) if sq.meta[0] == "I@x"]
        assert [sq.member_id for sq in squares] == ["I@x#0"]
        for sq in u.assign(f):
            target, _ = u.transport(ident, sq)
            assert target == sq

    def test_union_rejects_a_set_family_named_I_beside_setup_I(self):
        # the member ids differ (I#0 against I@0); the family names do not
        budget = Budget(stages=1, n_cap=0, dim_cap=1)
        with pytest.raises(ValueError, match="two families named 'I'"):
            setup_union(setup_I(budget),
                        setup_from_set([self._point_member()], name="I"))

    def test_duplicate_family_names_rejected(self):
        fam = SetFamily("M", [self._point_member()])
        with pytest.raises(ValueError, match="'M'"):
            Instrumentation("twice", [fam, fam], Budget())

    def test_empty_instrumentation_has_no_families(self):
        e = empty_instrumentation()
        assert e.families == {}
        assert e.assign(terminal_dmap(wrap_sset(two_points()))) == ()

    def test_union_budget_is_fieldwise_max(self):
        a = setup_from_set([], name="A",
                           budget=Budget(stages=1, n_cap=3, dim_cap=0))
        b = setup_from_set([], name="B",
                           budget=Budget(stages=5, n_cap=0, dim_cap=2))
        assert setup_union(a, b).budget == Budget(stages=5, n_cap=3,
                                                  dim_cap=2)


class TestSetupI:
    def test_empty_to_point_single_square(self):
        # only n = 0 contributes: one square with top (empty -> point)
        budget = Budget(stages=4, n_cap=2, dim_cap=1)
        instr = setup_I(budget)
        Y = wrap_sset(point())
        f = empty_dmap_into(Y)
        squares = instr.assign(f)
        assert len(squares) == 1
        sq = squares[0]
        assert sq.top.source.at["*"].dim == -1
        assert isomorphic(sq.top.target.at["*"], point()) is not None
        assert verify_square(sq)

    def test_isomorphism_all_lift(self):
        budget = Budget(stages=2, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        X = wrap_sset(standard_simplex(1))
        f = identity_dmap(X)
        for sq in instr.assign(f):
            assert find_lift(sq.top, f, sq.left, sq.right) is not None

    def test_z2_squares_for_both_orbits(self):
        # the free and trivial orbit both index squares of W for Z/2 inputs
        budget = Budget(stages=2, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        X = z2_two_orbits()
        f = terminal_dmap(X)
        squares = instr.assign(f)
        assert all(verify_square(sq) for sq in squares)
        # n = 0: W is the target (a point), so only the trivial orbit appears
        sizes_n0 = {len(sq.orbit.orbit.at["*"].cells(0))
                    for sq in squares if sq.meta[1] == 0}
        assert sizes_n0 == {1}
        # n = 1: W is X x X, whose orbits include free and trivial ones
        sizes_n1 = {len(sq.orbit.orbit.at["*"].cells(0))
                    for sq in squares if sq.meta[1] == 1}
        assert sizes_n1 == {1, 2}


class TestSmallObjectArgument:
    def test_empty_to_point(self):
        budget = Budget(stages=4, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        Y = wrap_sset(point())
        f = empty_dmap_into(Y)
        r = small_object_argument(f, instr)
        assert r.stopped_by == "stabilization"
        assert r.n_stages == 1
        assert isomorphic(r.gamma.target.at["*"], point()) is not None
        assert r.gamma.then(r.delta) == f

    def test_already_injective_zero_stages(self):
        budget = Budget(stages=3, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        f = identity_dmap(wrap_sset(point()))
        r = small_object_argument(f, instr)
        assert r.n_stages == 0 and r.stopped_by == "stabilization"
        assert r.gamma == identity_dmap(f.source)

    def test_setup_J_discrete_is_fibrant(self):
        # discrete complexes fill every horn by degeneracies: zero stages
        budget = Budget(stages=3, n_cap=2, dim_cap=0)
        instr = setup_J(budget)
        f = terminal_dmap(wrap_sset(two_points()))
        r = small_object_argument(f, instr)
        assert r.n_stages == 0 and r.stopped_by == "stabilization"

    def test_setup_J_horn_budget_stop(self):
        # horn filling glues the missing face as a fresh edge, so the run
        # does not stabilize at a finite stage; the partial factorization is
        # still exact and fills the original horn
        from eqloc.simplicial import horn
        budget = Budget(stages=1, n_cap=2, dim_cap=0)
        instr = setup_J(budget)
        H = wrap_sset(horn(2, 1))
        f = terminal_dmap(H)
        r = small_object_argument(f, instr)
        assert r.stopped_by == "budget"
        assert r.gamma.then(r.delta) == f
        # each glued horn contributes one 2-cell and one fresh edge
        Z = r.gamma.target.at["*"]
        assert len(Z.cells(2)) >= 1
        assert len(Z.cells(1)) == 2 + len(Z.cells(2))

    def test_budget_exhaustion_flagged(self):
        budget = Budget(stages=1, n_cap=1, dim_cap=0)
        instr = setup_I(budget)
        X = wrap_sset(two_points())
        f = terminal_dmap(X)
        r = small_object_argument(f, instr)
        assert r.stopped_by == "budget"
        assert r.gamma.then(r.delta) == f  # exact even when budget-stopped

    def test_determinism(self):
        budget = Budget(stages=3, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        f = terminal_dmap(wrap_sset(two_points()))
        r1 = small_object_argument(f, instr)
        r2 = small_object_argument(f, instr)
        assert r1.gamma == r2.gamma and r1.delta == r2.delta
        assert [s.attached for s in r1.stages] == \
            [s.attached for s in r2.stages]

    def test_stage_squares_commute(self):
        budget = Budget(stages=3, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        f = terminal_dmap(z2_two_orbits())
        r = small_object_argument(f, instr)
        for stage in r.stages:
            for sq in stage.squares:
                assert verify_square(sq)

    def test_pullback_over_colim_on_trace(self):
        budget = Budget(stages=2, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        f = terminal_dmap(free_z2_orbit())
        r = small_object_argument(f, instr)
        assert r.n_stages >= 1
        for stage in r.stages:
            assert verify_pullback_over_colim(stage.stage_map)


class TestFunctorial:
    def _point_member(self):
        from eqloc.simplicial import SimplicialMap as SM, empty_simplicial_set
        return wrap_smap(SM(empty_simplicial_set(), point(), {}))

    def _vertex_target(self, names):
        return wrap_sset(SimplicialSet([list(names)], {}))

    def test_xi_exists_and_commutes(self):
        instr = setup_from_set([self._point_member()], name="M",
                               budget=Budget(stages=1))
        Y1 = wrap_sset(point())
        Y2 = self._vertex_target(["u", "v"])
        f1 = empty_dmap_into(Y1)
        f2 = empty_dmap_into(Y2)
        g = ArrowSquare(source=f1, target=f2, upper=identity_dmap(f1.source),
                        lower=wrap_smap(SimplicialMap(
                            point(), Y2.at["*"], {"0": ((), "u")})))
        assert g.verify()
        r1 = small_object_argument(f1, instr, stages=1, strict=True)
        r2 = small_object_argument(f2, instr, stages=1, strict=True)
        assert r1.n_stages == r2.n_stages == 1
        xi = soa_functorial(g, r1, r2, instr)
        assert validate_dmap(xi) == []
        assert r1.gamma.then(xi) == g.upper.then(r2.gamma)
        assert xi.then(r2.delta) == r1.delta.then(g.lower)

    def test_identity_square_gives_identity(self):
        instr = setup_from_set([self._point_member()], name="M",
                               budget=Budget(stages=1))
        f = empty_dmap_into(wrap_sset(point()))
        ident = ArrowSquare(source=f, target=f,
                            upper=identity_dmap(f.source),
                            lower=identity_dmap(f.target))
        r = small_object_argument(f, instr, stages=1, strict=True)
        xi = soa_functorial(ident, r, r, instr)
        assert xi == identity_dmap(r.gamma.target)

    def test_composite_law_three_chain(self):
        instr = setup_from_set([self._point_member()], name="M",
                               budget=Budget(stages=1))
        Y1 = wrap_sset(point())
        Y2 = self._vertex_target(["u", "v"])
        Y3 = self._vertex_target(["w"])
        f1, f2, f3 = (empty_dmap_into(Y) for Y in (Y1, Y2, Y3))
        e = identity_dmap(f1.source)
        g12 = ArrowSquare(f1, f2, e, wrap_smap(SimplicialMap(
            point(), Y2.at["*"], {"0": ((), "u")})))
        g23 = ArrowSquare(f2, f3, e, wrap_smap(SimplicialMap(
            Y2.at["*"], Y3.at["*"], {"u": ((), "w"), "v": ((), "w")})))
        g13 = ArrowSquare(f1, f3, e, g12.lower.then(g23.lower))
        r1 = small_object_argument(f1, instr, stages=1, strict=True)
        r2 = small_object_argument(f2, instr, stages=1, strict=True)
        r3 = small_object_argument(f3, instr, stages=1, strict=True)
        xi12 = soa_functorial(g12, r1, r2, instr)
        xi23 = soa_functorial(g23, r2, r3, instr)
        xi13 = soa_functorial(g13, r1, r3, instr)
        assert xi12.then(xi23) == xi13

    def test_setup_I_transport_laws(self):
        budget = Budget(stages=2, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        X1 = wrap_sset(two_points())
        X2 = wrap_sset(point())
        f1 = terminal_dmap(X1)
        f2 = terminal_dmap(X2)
        collapse = wrap_smap(constant_map(two_points(), point(), "0"))
        g = ArrowSquare(f1, f2, collapse, identity_dmap(f1.target))
        ident = ArrowSquare(f1, f1, identity_dmap(X1), identity_dmap(f1.target))
        for sq in instr.assign(f1):
            tsq, _ = instr.transport(ident, sq)
            assert tsq == sq
            tsq2, (cA, cB) = instr.transport(g, sq)
            assert verify_square(tsq2)
            assert tsq2 in instr.assign(f2)
            # the connecting maps glue the cube: left face commutes
            assert cA.then(tsq2.top) == sq.top.then(cB)

    def test_stage_mismatch_rejected(self):
        instr = setup_from_set([self._point_member()], name="M",
                               budget=Budget(stages=1))
        f1 = empty_dmap_into(wrap_sset(point()))
        r1 = small_object_argument(f1, instr, stages=1, strict=True)
        r2 = small_object_argument(f1, instr, stages=0, strict=True)
        ident = ArrowSquare(f1, f1, identity_dmap(f1.source),
                            identity_dmap(f1.target))
        with pytest.raises(ValueError):
            soa_functorial(ident, r1, r2, instr)


class TestRetract:
    def test_cellular_map_retracts(self):
        budget = Budget(stages=3, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        Y = wrap_sset(two_points())
        f = empty_dmap_into(Y)
        w = retract_witness(f, instr)
        assert w is not None
        assert w.section.then(w.factorization.delta) == identity_dmap(Y)

    def test_collapse_retracts(self):
        # a map with degenerate-target quotient: vertex inclusion into a point
        budget = Budget(stages=3, n_cap=1, dim_cap=1)
        instr = setup_I(budget)
        incl = wrap_smap(SimplicialMap(point(), two_points(), {"0": ((), "u")}))
        w = retract_witness(incl, instr)
        assert w is not None
        assert incl.then(w.section) == w.factorization.gamma


class TestCoproductMediate:
    """Every stage is one n-ary pushout of its attached squares' spans; the
    oracle glues the same stage through the coproducts of the tops, their
    copairings and one pushout of the summed span, with the mediators out
    of the coproducts assigned by glue.coproduct's cell names "<k>:<cell>".
    Both must give the same spaces and maps, cell names included."""

    def _stages_agree(self, r):
        assert r.n_stages > 0
        rho = r.arrow
        for stage in r.stages:
            o = stage_pushout_oracle(
                [stage.squares[i] for i in stage.attached], rho)
            assert stage.pushout.diagram == o.pushout.diagram
            assert stage.stage_map == o.stage_map
            assert stage.rho == o.rho
            rho = stage.rho

    def test_every_stage_of_criterion_1(self):
        r = small_object_argument(terminal_dmap(interval_plus_point()),
                                  setup_I(Budget(stages=4, n_cap=3,
                                                 dim_cap=0)))
        self._stages_agree(r)

    def test_strict_run_on_z2_example(self):
        f = terminal_dmap(Workspace().load(Z2).diagram("both"))
        instr = setup_I(Budget(stages=2, n_cap=1, dim_cap=1))
        r = small_object_argument(f, instr, strict=True)
        assert [len(s.attached) for s in r.stages] == [6, 11]
        self._stages_agree(r)
        ident = ArrowSquare(f, f, identity_dmap(f.source),
                            identity_dmap(f.target))
        xi = soa_functorial(ident, r, r, instr)
        assert xi == soa_functorial_oracle(ident, r, r, instr)

    def test_functorial_xi_on_strict_runs(self):
        """soa_functorial mediates once per stage through the legs of the
        transported squares' tops; the oracle copairs through the
        coproduct of tops first.  The swap of two points over the point
        runs two stages; the collapse of their targets attaches two
        squares on one side and one on the other."""
        instr = setup_I(Budget(stages=2, n_cap=1, dim_cap=1))
        f = terminal_dmap(wrap_sset(two_points()))
        swap = wrap_smap(SimplicialMap(two_points(), two_points(),
                                       {"u": ((), "v"), "v": ((), "u")}))
        g = ArrowSquare(f, f, swap, identity_dmap(f.target))
        r = small_object_argument(f, instr, strict=True)
        assert [len(s.attached) for s in r.stages] == [5, 10]
        self._stages_agree(r)
        xi = soa_functorial(g, r, r, instr)
        assert xi != identity_dmap(r.gamma.target)
        assert xi == soa_functorial_oracle(g, r, r, instr)
        f1 = empty_dmap_into(wrap_sset(two_points()))
        f2 = empty_dmap_into(wrap_sset(point()))
        g = ArrowSquare(f1, f2, identity_dmap(f1.source), wrap_smap(
            constant_map(two_points(), point(), "0")))
        r1 = small_object_argument(f1, instr, strict=True)
        r2 = small_object_argument(f2, instr, strict=True)
        assert [len(s.attached) for s in r1.stages] == [2]
        assert [len(s.attached) for s in r2.stages] == [1]
        self._stages_agree(r1)
        self._stages_agree(r2)
        xi = soa_functorial(g, r1, r2, instr)
        assert xi == soa_functorial_oracle(g, r1, r2, instr)

    def test_extension_lifts_on_relocalize_fixtures(self):
        spec = LocalizationSpec(
            terminal_category(),
            generators=[wrap_smap(empty_to_point_map())],
            caps=LocalizationCaps())
        for X in (two_points_diagram(), interval_plus_point()):
            r = localize(X, spec)
            self._stages_agree(r.trace)
            g = terminal_dmap(X)
            assert extend_to_local(g, r) == extend_to_local_oracle(g, r)
