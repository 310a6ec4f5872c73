import random

import pytest

from eqloc.cat import (
    Diagram,
    DiagramMap,
    SmallCategory,
    arrow_category,
    empty_diagram,
    hom_complex,
    hom_complex_post,
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
    arrow_orbit,
    empty_to_point_map,
    free_z2_orbit,
    trivial_z2_orbit,
    two_points_diagram,
    z2_category,
    z2_collapse,
    z2_two_orbits,
)
from eqloc.homotopy import (
    is_fibration_equivariant,
    is_kan,
    is_weq_equivariant,
    lifts,
    pi0,
    weq_probe_all,
)
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
    isomorphic,
    nondeg,
    point,
    standard_simplex,
)
from eqloc.soa import Budget, fixed_points, verify_square
from oracles import (
    fixed_point_locality_report_oracle,
    is_S_local_oracle,
    random_z2_diagram,
    swapped_loops,
    two_object_swapped_loops,
)


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


def _two_components(Xa, Xb):
    """Xa and Xb over the discrete groupoid on two objects."""
    D = SmallCategory(["a", "b"], [("ida", "a", "a"), ("idb", "b", "b")],
                      {"a": "ida", "b": "idb"}, {})
    return Diagram(D, {"a": Xa, "b": Xb}, {})


def _fixed_point_cases():
    """Diagrams over groupoid shapes: the Z/2 fixtures, the swapped loops
    at one object and at two, two diagrams over two components, and 40
    seeded random Z/2 diagrams."""
    rng = random.Random(271828)
    return [free_z2_orbit(), trivial_z2_orbit(), z2_two_orbits(),
            swapped_loops(), two_object_swapped_loops(),
            _two_components(point(), SimplicialSet([], {})),
            _two_components(swapped_loops().at["*"], point()),
            *(random_z2_diagram(rng) for _ in range(40))]


def _orbits_of_both_types(Z):
    """The orbits of Z, with the free and trivial orbits over Z/2."""
    if Z.shape == z2_category():
        return orbits_of(Z, z2_two_orbits())
    return orbits_of(Z)


class TestFixedPointReading:
    """On a groupoid shape the locality probe and the fixed-point report
    read hom(T, Z) as soa.fixed_points and build no mapping complex; their
    answers are those of the square probe and of the hom_complex report in
    tests/oracles.py."""

    def test_probe_matches_square_oracle(self):
        seen = set()
        for Z in _fixed_point_cases():
            for dim_cap in (0, 1, 2):
                for probe_n_cap in (1, 2):
                    spec = LocalizationSpec(
                        Z.shape, fixedpointwise=empty_to_point_map(),
                        caps=LocalizationCaps(dim_cap=dim_cap,
                                              probe_n_cap=probe_n_cap))
                    v = is_S_local(Z, spec)
                    assert v == is_S_local_oracle(Z, spec)
                    seen.add(v.reason or v.value)
        assert seen == {"yes", "no lift for J@2_0", "no lift for HorF@0",
                        "no lift for HorF@1", "no lift for HorF@2"}

    def test_probe_matches_square_oracle_on_local_objects(self):
        spec = LocalizationSpec(z2_category(),
                                fixedpointwise=empty_to_point_map())
        for X in (free_z2_orbit(), z2_two_orbits()):
            Z = localize(X, spec).local_object
            for probe_n_cap in (1, 2):
                probe = LocalizationSpec(
                    Z.shape, fixedpointwise=empty_to_point_map(),
                    caps=LocalizationCaps(probe_n_cap=probe_n_cap))
                v = is_S_local(Z, probe)
                assert v == is_S_local_oracle(Z, probe)
                assert v.value == "yes"

    def test_report_matches_hom_complex_oracle(self):
        vertex = SimplicialMap(point(), standard_simplex(1), {"0": nondeg("0")})
        for Z in _fixed_point_cases():
            Ts = _orbits_of_both_types(Z)
            for f, pi_caps in ((empty_to_point_map(), (0, 1, 2)),
                               (boundary_inclusion(1), (0,)), (vertex, (0,))):
                for pi_cap in pi_caps:
                    for probe_n_cap in (1, 2):
                        for hom_cap in (1, 2):
                            caps = LocalizationCaps(
                                probe_n_cap=probe_n_cap, pi_cap=pi_cap,
                                hom_cap=hom_cap)
                            assert fixed_point_locality_report(
                                Z, f, Ts, caps) == \
                                fixed_point_locality_report_oracle(
                                    Z, f, Ts, caps)

    def test_fixed_points_present_the_mapping_complex(self):
        for Z in _fixed_point_cases():
            for T in _orbits_of_both_types(Z):
                for cap in (0, 1, 2):
                    assert isomorphic(fixed_points(Z, T, cap),
                                      hom_complex(T, Z, cap).space) \
                        is not None

    def test_equivariant_probes_match_hom_complex(self):
        maps = [z2_collapse(), identity_dmap(swapped_loops()),
                *(terminal_dmap(Z) for Z in _fixed_point_cases()[:27])]
        budget = Budget(stages=3, n_cap=1, dim_cap=0)
        for f in maps:
            Ts = _orbits_of_both_types(f.source)
            for hom_cap in (1, 2):
                posts = [hom_complex_post(T, f, hom_cap) for T in Ts]
                assert is_fibration_equivariant(f, Ts, 2, hom_cap) == all(
                    lifts(phi, n, k) for phi in posts
                    for n in (1, 2) for k in range(n + 1))
                assert is_weq_equivariant(f, Ts, 0, hom_cap) == \
                    weq_probe_all(posts, "orbit", 0, budget,
                                  ("pi_cap", 0, "hom_cap", hom_cap))

    def test_groupoid_runs_build_no_mapping_complex(self, monkeypatch):
        """The probe and the report assign no pullback-hom square and build
        no mapping complex; localize assigns J and HorF once at each stage
        that attaches, and nothing at the last, which stabilizes."""
        import eqloc.cat
        import eqloc.localization
        import eqloc.soa
        assign = eqloc.soa.PullbackHomFamily.assign
        assigned = []

        def counted(family, g):
            assigned.append(family.name)
            return assign(family, g)

        def refuse(*args, **kwargs):
            raise AssertionError("mapping complex or square probe built")
        for module, name in ((eqloc.localization, "hom_complex"),
                             (eqloc.cat, "hom_complex"),
                             (eqloc.cat, "hom_complex_post")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(eqloc.soa.PullbackHomFamily, "assign", counted)
        for Z in (z2_two_orbits(), swapped_loops(),
                  two_object_swapped_loops()):
            spec = LocalizationSpec(Z.shape,
                                    fixedpointwise=empty_to_point_map())
            r = localize(Z, spec)
            assert r.trace.stopped_by == "stabilization"
            assert assigned == ["J", "HorF"] * r.trace.n_stages
            assigned.clear()
            is_S_local(Z, spec)
            fixed_point_locality_report(Z, spec.f, _orbits_of_both_types(Z),
                                        spec.caps)
            assert assigned == []

    def test_arrow_shape_keeps_the_square_probe(self, monkeypatch):
        import eqloc.localization
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper
        for name in ("class_K", "hom_complex"):
            monkeypatch.setattr(eqloc.localization, name,
                                counted(getattr(eqloc.localization, name)))
        Z = arrow_orbit(SimplicialSet([["u", "v"]], {}))
        spec = LocalizationSpec(arrow_category(),
                                fixedpointwise=empty_to_point_map())
        assert not arrow_category().is_groupoid()
        Ts = orbits_of(Z)
        v = is_S_local(Z, spec)
        reports = fixed_point_locality_report(Z, spec.f, Ts, spec.caps)
        assert calls == ["class_K"] + ["hom_complex"] * len(Ts)
        assert v == is_S_local_oracle(Z, spec)
        assert reports == fixed_point_locality_report_oracle(
            Z, spec.f, Ts, spec.caps)
