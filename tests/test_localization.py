import pytest

from eqloc.cat import (
    DiagramMap,
    empty_diagram,
    hom_complex,
    identity_dmap,
    point_diagram,
    pushout_D,
    terminal_category,
    terminal_dmap,
    validate_dmap,
    wrap_smap,
    wrap_sset,
)
from eqloc.fixtures import (
    empty_to_point_map,
    free_z2_orbit,
    trivial_z2_orbit,
    two_points_diagram,
    z2_category,
    z2_two_orbits,
)
from eqloc.homotopy import is_kan, pi0
from eqloc.localization import (
    LocalizationCaps,
    LocalizationSpec,
    ObstructedLift,
    arrow_isomorphic,
    class_K,
    extend_to_local,
    extension_uniqueness,
    fixed_point_locality_report,
    hor_F_instrumentation,
    horns_of,
    is_S_equivalence,
    is_S_local,
    localize,
    validate_spec,
)
from eqloc.orbits import orbit_category_of, orbits_of
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary_inclusion,
    constant_map,
    nondeg,
    point,
    standard_simplex,
)
from eqloc.soa import verify_square
from oracles import swapped_loops


def d1_shape():
    return terminal_category()


def empty_to_point_spec(caps=None):
    return LocalizationSpec(
        d1_shape(),
        generators=[wrap_smap(empty_to_point_map())],
        caps=caps or LocalizationCaps())


class TestSpecValidation:
    def test_valid(self):
        assert validate_spec(empty_to_point_spec()) == []

    def test_trivial_generator_rejected(self):
        spec = LocalizationSpec(
            d1_shape(), generators=[identity_dmap(wrap_sset(point()))])
        assert ("trivial-generator", 0) in validate_spec(spec)
        with pytest.raises(ValueError):
            class_K(spec)

    def test_non_injective_rejected(self):
        from eqloc.simplicial import constant_map
        spec = LocalizationSpec(
            d1_shape(),
            generators=[wrap_smap(constant_map(standard_simplex(1),
                                               point(), "0"))])
        assert ("not-injective", 0) in validate_spec(spec)

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            LocalizationSpec(d1_shape())

    def test_generator_of_another_shape_rejected(self):
        spec = LocalizationSpec(z2_category(),
                                generators=[wrap_smap(empty_to_point_map())])
        assert validate_spec(spec) == [("shape-mismatch", 0)]
        with pytest.raises(ValueError, match="shape-mismatch"):
            class_K(spec)


class TestHorns:
    def test_horns_of_empty_to_point(self):
        # Hor({empty -> point}) over the trivial shape is the boundary family
        spec = empty_to_point_spec()
        horns = horns_of(spec.generators, 2)
        assert len(horns) == 3
        for h in horns:
            assert arrow_isomorphic(h.arrow, wrap_smap(boundary_inclusion(h.n)))

    def test_n0_horn_is_the_generator(self):
        spec = empty_to_point_spec()
        h0 = horns_of(spec.generators, 0)[0]
        assert arrow_isomorphic(h0.arrow, spec.generators[0])

    def test_arrows_with_isomorphic_ends_need_not_be_isomorphic(self):
        two = SimplicialSet([["u", "v"]], {})
        swap = wrap_smap(SimplicialMap(two, two, {"u": nondeg("v"),
                                                  "v": nondeg("u")}))
        collapse = wrap_smap(constant_map(two, two, "u"))
        ident = identity_dmap(wrap_sset(two))
        assert arrow_isomorphic(swap, ident)
        assert not arrow_isomorphic(collapse, swap)
        assert not arrow_isomorphic(swap, collapse)

    def test_class_K_assigns_both_families(self):
        spec = empty_to_point_spec()
        instr = class_K(spec)
        t = terminal_dmap(two_points_diagram())
        squares = instr.assign(t)
        assert any(sq.member_id.startswith("J@") for sq in squares)
        assert any(sq.member_id.startswith("Hor#") for sq in squares)
        assert all(verify_square(sq) for sq in squares)


class TestLocality:
    def test_terminal_is_local(self):
        spec = empty_to_point_spec()
        v = is_S_local(point_diagram(d1_shape()), spec)
        assert v.value == "yes"

    def test_two_points_not_local(self):
        spec = empty_to_point_spec()
        v = is_S_local(two_points_diagram(), spec)
        assert v.value == "no"


class TestLocalize:
    def test_already_local_zero_stages(self):
        spec = empty_to_point_spec()
        r = localize(point_diagram(d1_shape()), spec)
        assert r.trace.n_stages == 0
        assert r.j == identity_dmap(r.j.source)
        assert r.locality.value == "yes"

    def test_two_points_becomes_connected(self):
        spec = empty_to_point_spec()
        r = localize(two_points_diagram(), spec)
        assert r.trace.stopped_by == "stabilization"
        assert len(pi0(r.local_object.at["*"])) == 1
        assert r.locality.value == "yes"

    def test_idempotency_zero_stages(self):
        spec = empty_to_point_spec()
        r = localize(two_points_diagram(), spec)
        again = localize(r.local_object, spec)
        assert again.trace.n_stages == 0

    def test_trace_is_K_cellular(self):
        spec = empty_to_point_spec()
        r = localize(two_points_diagram(), spec)
        prefixes = ("J@", "Hor#")
        for stage in r.trace.stages:
            for idx in stage.attached:
                assert stage.squares[idx].member_id.startswith(prefixes)


class TestExtendToLocal:
    def test_extension_exists_and_unique_to_terminal(self):
        spec = empty_to_point_spec()
        X = two_points_diagram()
        r = localize(X, spec)
        P = point_diagram(d1_shape())
        g = terminal_dmap(X)
        lift = extend_to_local(g, r)
        assert r.j.then(lift) == g
        rep = extension_uniqueness(g, r)
        assert len(rep.lifts) >= 1
        assert rep.all_homotopic

    def test_identity_among_lifts(self):
        spec = empty_to_point_spec()
        X = two_points_diagram()
        r = localize(X, spec)
        lift = extend_to_local(r.j, r)
        assert validate_dmap(lift) == []
        rep = extension_uniqueness(r.j, r)
        assert identity_dmap(r.local_object) in rep.lifts
        assert rep.all_homotopic

    def test_extensions_into_a_doubled_target_are_not_homotopic(self):
        # L X glued to itself along X: the two copies of L X extend the
        # same map, and no cylinder joins them
        r = localize(two_points_diagram(), empty_to_point_spec())
        po = pushout_D([(r.j, r.j)])
        rep = extension_uniqueness(r.j.then(po.legs[0]), r)
        assert len(rep.lifts) == 2 and not rep.truncated
        assert rep.all_homotopic is False

    def test_non_local_target_obstructs_the_extension(self):
        X = two_points_diagram()
        r = localize(X, empty_to_point_spec())
        with pytest.raises(ObstructedLift, match="Hor#1") as exc:
            extend_to_local(identity_dmap(X), r)
        assert exc.value.square.meta == ("Hor", 1)


class TestSEquivalence:
    def test_coaugmentation_is_equivalence(self):
        # probed against a genuinely local diagram; the capped local_object
        # itself is only local at the caps (its homotopy above the cap is
        # uncontrolled), so it is not a sound probe
        spec = empty_to_point_spec()
        X = two_points_diagram()
        r = localize(X, spec)
        P = point_diagram(d1_shape())
        v = is_S_equivalence(r.j, spec, [P])
        assert v.value == "yes"

    def test_identity_is_equivalence(self):
        spec = empty_to_point_spec()
        v = is_S_equivalence(identity_dmap(two_points_diagram()), spec,
                             [point_diagram(d1_shape())])
        assert v.value == "yes"


class TestFixedPointwise:
    def fp_spec(self):
        return LocalizationSpec(
            z2_category(),
            fixedpointwise=empty_to_point_map(),
            caps=LocalizationCaps(hor_n_cap=1, j_n_cap=1, probe_n_cap=1,
                                  dim_cap=1, hom_cap=1, stages=2))

    def test_horF_reduces_to_boundary_attachments(self):
        # with f: empty -> point the W-limit degenerates to the I-pullback
        spec = LocalizationSpec(
            d1_shape(), fixedpointwise=empty_to_point_map(),
            caps=LocalizationCaps(hor_n_cap=1, j_n_cap=1, dim_cap=1))
        instr = hor_F_instrumentation(spec.f, spec.caps)
        t = terminal_dmap(two_points_diagram())
        squares = instr.assign(t)
        # n=0: one square over the point target; n=1: one per vertex pair
        by_n = {}
        for sq in squares:
            by_n.setdefault(sq.meta[1], []).append(sq)
        assert len(by_n[0]) == 1
        assert len(by_n[1]) == 4
        assert all(verify_square(sq) for sq in squares)

    def test_z2_squares_indexed_by_orbits(self):
        spec = self.fp_spec()
        instr = hor_F_instrumentation(spec.f, spec.caps)
        t = terminal_dmap(z2_two_orbits())
        squares = instr.assign(t)
        sizes = {len(sq.orbit.orbit.at["*"].cells(0))
                 for sq in squares if sq.meta[1] == 1}
        assert sizes == {1, 2}

    def test_free_orbit_fixed_points_not_local(self):
        spec = self.fp_spec()
        E = orbit_category_of(free_z2_orbit(), 0, 1)
        reports = fixed_point_locality_report(free_z2_orbit(), spec.f,
                                              E.orbits, spec.caps)
        # the trivial-orbit fixed points are empty: not local
        assert any(r.local.value == "no" for r in reports)

    def test_swapped_loops_fail_at_the_free_orbit(self):
        """Z has no free orbit, yet its horns do: the missing filler shows
        only in hom(free orbit, Z) = Z, and the fixed points Z^{Z/2} (the
        vertex alone) are Kan.  Both modes give the same verdict."""
        Z = swapped_loops()
        assert orbit_category_of(Z, 0, 1).orbits == \
            orbit_category_of(trivial_z2_orbit(), 0, 1).orbits
        assert not is_kan(hom_complex(free_z2_orbit(), Z, 2).space, 2)
        assert is_kan(hom_complex(trivial_z2_orbit(), Z, 2).space, 2)
        generator = DiagramMap(empty_diagram(z2_category()),
                               point_diagram(z2_category()),
                               {"*": empty_to_point_map()})
        for spec in (LocalizationSpec(z2_category(),
                                      fixedpointwise=empty_to_point_map()),
                     LocalizationSpec(z2_category(), generators=[generator])):
            v = is_S_local(Z, spec)
            assert (v.value, v.reason) == ("no", "no lift for J@2_0")
            assert v.caps == ("hor_n_cap", 2, "probe_n_cap", 2, "dim_cap", 1)

    def test_localize_free_orbit(self):
        spec = self.fp_spec()
        X = free_z2_orbit()
        r = localize(X, spec)
        reports = fixed_point_locality_report(
            r.local_object, spec.f, orbits_of(X, trivial_z2_orbit()),
            spec.caps)
        for rep in reports:
            assert rep.components == 1
            assert rep.fibrant
            assert rep.local.value == "yes"
