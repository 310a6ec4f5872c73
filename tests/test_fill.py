"""The fill test by adjunction, soa.first_unlifted, against the square
probe, the naive extension oracle and a small object argument whose every
stage is decided by squares."""

import functools
import random

import pytest

from eqloc.cat import (
    DiagramMap,
    empty_diagram,
    empty_dmap_into,
    identity_dmap,
    point_diagram,
    terminal_dmap,
    wrap_smap,
    wrap_sset,
)
from eqloc.documents import trace_doc
from eqloc.fixtures import (
    empty_to_point_map,
    free_z2_orbit,
    trivial_z2_orbit,
    z2_category,
    z2_collapse,
    z2_two_orbits,
)
from eqloc.homotopy import fibrant_replace
from eqloc.localization import (
    LocalizationCaps,
    LocalizationSpec,
    class_K,
    hor_F_instrumentation,
    is_S_local,
    localize,
)
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    boundary_inclusion,
    empty_simplicial_set,
    identity_map,
    nondeg,
    point,
    standard_simplex,
)
from eqloc.soa import (
    Budget,
    CornerMember,
    first_unlifted,
    lifts,
    rlp_check,
    setup_I,
    setup_J,
    small_object_argument,
)
from oracles import (
    first_unlifted_oracle,
    fixed_point_fill_oracle,
    is_S_local_oracle,
    random_collapse_map,
    random_sset,
    random_z2_diagram,
    soa_square_oracle,
    swapped_loops,
    two_object_swapped_loops,
)


def _vertex():
    return SimplicialMap(point(), standard_simplex(1), {"0": nondeg("0")})


# f in {empty -> point, bd 1 -> Delta^1, a vertex of Delta^1, bd 2 -> Delta^2},
# the Hor(F) exponent cap each is checked at, and how many of the groupoid
# cases the square oracle runs on: on all 45 it takes seconds where B has an
# edge, the fill test a tenth of a second
MAPS = [(empty_to_point_map, 2, 10), (lambda: boundary_inclusion(1), 1, 6),
        (_vertex, 1, 10), (lambda: boundary_inclusion(2), 1, 6)]


@functools.cache
def _groupoid_cases():
    """The Z/2 fixtures, the swapped loops at one object and at two, and 40
    seeded random Z/2 diagrams."""
    rng = random.Random(14142)
    return (free_z2_orbit(), trivial_z2_orbit(), z2_two_orbits(),
            swapped_loops(), two_object_swapped_loops(),
            *(random_z2_diagram(rng) for _ in range(40)))


def _arrows(Z):
    """Z -> point, and the first stage map of an I-run on it, whose target
    is not a point."""
    r = small_object_argument(terminal_dmap(Z),
                              setup_I(Budget(stages=1, n_cap=1, dim_cap=0)))
    return [terminal_dmap(Z), r.gamma]


class TestFirstUnliftedMatchesSquares:
    """first_unlifted names the member that the square probe names, for I,
    J and Hor(F), on arrows to a point and to other diagrams."""

    def test_i_and_j(self):
        instrs = [setup_I(Budget(n_cap=2, dim_cap=1)),
                  setup_J(Budget(n_cap=2, dim_cap=1))]
        seen = set()
        for idx, Z in enumerate(_groupoid_cases()):
            arrows = [*_arrows(Z), identity_dmap(Z)] if idx < 5 \
                else [terminal_dmap(Z)]
            for rho in arrows:
                for instr in instrs:
                    got = first_unlifted(rho, instr)
                    assert got == first_unlifted_oracle(rho, instr), (Z, rho)
                    seen.add(got)
        for rho in (z2_collapse(), identity_dmap(free_z2_orbit())):
            for instr in instrs:
                assert first_unlifted(rho, instr) == \
                    first_unlifted_oracle(rho, instr)
        assert {None, "I@0", "I@1", "J@2_0"} <= seen

    @pytest.mark.parametrize("make_f, hor_n_cap, squared", MAPS)
    def test_hor_f(self, make_f, hor_n_cap, squared):
        f = make_f()
        instr = hor_F_instrumentation(f, LocalizationCaps(hor_n_cap=hor_n_cap))
        seen = set()
        for Z in _groupoid_cases()[:squared]:
            for rho in _arrows(Z):
                got = first_unlifted(rho, instr)
                assert got == first_unlifted_oracle(rho, instr), (Z, rho)
                seen.add(got)
        assert None in seen and len(seen) > 1

    @pytest.mark.parametrize("make_f, hor_n_cap, squared", MAPS)
    def test_probe(self, make_f, hor_n_cap, squared):
        """is_S_local equals the naive extension oracle on the groupoid
        cases, and the square probe on the first `squared` of them."""
        seen = set()
        for idx, Z in enumerate(_groupoid_cases()):
            spec = LocalizationSpec(Z.shape, fixedpointwise=make_f(),
                                    caps=LocalizationCaps(
                                        hor_n_cap=hor_n_cap, probe_n_cap=2))
            v = is_S_local(Z, spec)
            assert v == fixed_point_fill_oracle(Z, spec), Z
            if idx < squared:
                assert v == is_S_local_oracle(Z, spec), Z
            seen.add(v.reason or v.value)
        assert "yes" in seen and len(seen) > 1

    def test_set_mode(self):
        """Set-mode J reads fixed points and Hor keeps its squares, with the
        square probe's verdicts, on the terminal and Z/2 shapes."""
        rng = random.Random(2718)
        terminal = [wrap_sset(X) for X in (
            point(), SimplicialSet([["u", "v"]], {}), standard_simplex(1),
            boundary(2), *(random_sset(rng, max_cells=5) for _ in range(3)))]
        z2 = z2_category()
        z2_generators = [
            [DiagramMap(empty_diagram(z2), point_diagram(z2),
                        {"*": empty_to_point_map()})],
            [empty_dmap_into(free_z2_orbit())],
            [empty_dmap_into(z2_two_orbits())]]
        cases = [(Z, [wrap_smap(empty_to_point_map())]) for Z in terminal]
        cases += [(Z, [wrap_smap(boundary_inclusion(1))]) for Z in terminal]
        cases += [(Z, gens) for gens in z2_generators
                  for Z in _groupoid_cases()[:15] if Z.shape == z2]
        seen = set()
        for Z, gens in cases:
            spec = LocalizationSpec(Z.shape, generators=gens,
                                    caps=LocalizationCaps(hor_n_cap=1))
            v = is_S_local(Z, spec)
            assert v == is_S_local_oracle(Z, spec), Z
            seen.add(v.reason or v.value)
        assert "yes" in seen and any("Hor#" in r for r in seen) \
            and any("J@" in r for r in seen)


class TestCornerLifts:
    def test_lifts_matches_square_rlp(self):
        """lifts against a pushout-product corner equals rlp_check, which
        searches every commutative square, on seeded collapse maps; so do
        an identity, whose every slot is pinned, and inclusions of the
        empty complex, which pin none."""
        corners = [m.inclusion for make_f, _, _ in MAPS
                   for m in hor_F_instrumentation(
                       make_f(), LocalizationCaps(hor_n_cap=1)
                   ).families["HorF"].members.values()]
        corners += [identity_map(standard_simplex(1)),
                    SimplicialMap(empty_simplicial_set(), standard_simplex(1),
                                  {}),
                    SimplicialMap(empty_simplicial_set(), boundary(2), {})]
        rng = random.Random(1729)
        seen = set()
        for _ in range(12):
            X = random_sset(rng, max_cells=4)
            p = random_collapse_map(rng, X)
            for j in corners:
                got = lifts(p, j)
                assert got == rlp_check(wrap_smap(j), wrap_smap(p)).holds
                seen.add(got)
        assert seen == {True, False}

    def test_non_injective_j_is_an_error(self):
        """A collapse is no inclusion: rlp_check finds a square without a
        lift, and lifts refuses to answer."""
        collapse = SimplicialMap(SimplicialSet([["u", "v"]], {}), point(),
                                 {"u": nondeg("0"), "v": nondeg("0")})
        assert not rlp_check(wrap_smap(collapse), wrap_smap(collapse)).holds
        with pytest.raises(ValueError, match=r"injective j, not SimplicialMap"
                           r"\(SimplicialSet\[2\]->SimplicialSet\[1\]\)"):
            lifts(collapse, collapse)

    def test_inclusion_of_one_corner_is_the_member(self):
        m = setup_J(Budget(n_cap=1)).families["J"].members[(1, 0)]
        assert isinstance(m, CornerMember) and m.inclusion == m.corners[0][1]


def _soa_runs():
    """(f, instrumentation, strict) on the fixtures, to a point and not."""
    fp = LocalizationSpec(z2_category(), fixedpointwise=empty_to_point_map(),
                          caps=LocalizationCaps(stages=3))
    loops = LocalizationSpec(z2_category(),
                             fixedpointwise=boundary_inclusion(1),
                             caps=LocalizationCaps(hor_n_cap=1, stages=2))
    runs = []
    for Z in (free_z2_orbit(), z2_two_orbits(), swapped_loops(),
              two_object_swapped_loops()):
        for instr in (setup_I(Budget(stages=4, n_cap=1, dim_cap=0)),
                      setup_J(Budget(stages=2, n_cap=1, dim_cap=1))):
            runs += [(terminal_dmap(Z), instr, False),
                     (terminal_dmap(Z), instr, True)]
    for X in (free_z2_orbit(), z2_two_orbits(), swapped_loops()):
        runs.append((terminal_dmap(X), class_K(fp), False))
    # the swapped loops' second stage at bd 1 -> Delta^1 builds cotensors
    # of millions of maps, so they get one stage
    runs += [(terminal_dmap(free_z2_orbit()), class_K(loops), False),
             (terminal_dmap(z2_two_orbits()), class_K(loops), False),
             (terminal_dmap(swapped_loops()), class_K(loops), False, 1)]
    runs.append((z2_collapse(), setup_I(Budget(stages=3, n_cap=2)), False))
    return runs


class TestStabilizationByFillTest:
    """A run stops where a run deciding every stage by squares stops, with
    the same trace."""

    def test_same_trace_as_square_stabilized_runs(self):
        stopped = set()
        for f, instr, strict, *stages in _soa_runs():
            stages = stages[0] if stages else None
            r = small_object_argument(f, instr, stages, strict=strict)
            o = soa_square_oracle(f, instr, stages, strict=strict)
            assert (r.n_stages, r.stopped_by) == (o.n_stages, o.stopped_by)
            assert trace_doc(r) == trace_doc(o)
            stopped.add(r.stopped_by)
        assert stopped == {"stabilization", "budget"}

    def test_fibrant_replace(self, monkeypatch):
        import eqloc.homotopy
        rng = random.Random(577)
        spaces = [boundary(2), SimplicialSet([["u", "v"]], {}),
                  *(random_sset(rng, max_cells=3) for _ in range(4))]
        runs = [(X, Budget(stages=stages, n_cap=n_cap, dim_cap=1))
                for X in spaces for stages, n_cap in ((2, 2), (3, 1))]
        got = [fibrant_replace(X, budget) for X, budget in runs]
        assert {ok for _, _, ok in got} == {True, False}
        monkeypatch.setattr(eqloc.homotopy, "small_object_argument",
                            soa_square_oracle)
        assert got == [fibrant_replace(X, budget) for X, budget in runs]

    def test_disagreement_is_an_error(self, monkeypatch):
        """A fill test that names a member while every assigned square
        lifts stops the run with the stage and the member."""
        import eqloc.soa
        f = terminal_dmap(wrap_sset(point()))
        instr = setup_I(Budget(stages=2, n_cap=1, dim_cap=0))
        assert small_object_argument(f, instr).stopped_by == "stabilization"
        monkeypatch.setattr(eqloc.soa, "first_unlifted",
                            lambda rho, instr, checked=None: "I@1")
        with pytest.raises(ValueError, match=r"stage 1: .*I@1"):
            small_object_argument(f, instr)


def test_general_f_probe_reads_fixed_points(monkeypatch):
    """Localizing the swapped loops at f = bd 2 -> Delta^2 ends with a
    decisive verdict, the naive extension oracle's, and its probe builds no
    cotensor, mapping complex or pullback-hom square (the square probe on
    the same run did not return in minutes)."""
    import eqloc.cat
    import eqloc.localization
    import eqloc.soa

    def refuse(*args, **kwargs):
        raise AssertionError("square probe built")
    probe = eqloc.localization.is_S_local
    probed = []

    def refusing_probe(Z, spec):
        probed.append(Z)
        with monkeypatch.context() as m:
            for module, name in ((eqloc.cat, "cotensor"),
                                 (eqloc.soa, "cotensor"),
                                 (eqloc.cat, "hom_complex"),
                                 (eqloc.soa, "hom_complex_post")):
                m.setattr(module, name, refuse)
            m.setattr(eqloc.soa.PullbackHomFamily, "assign", refuse)
            return probe(Z, spec)
    monkeypatch.setattr(eqloc.localization, "is_S_local", refusing_probe)
    Z = swapped_loops()
    spec = LocalizationSpec(
        Z.shape, fixedpointwise=boundary_inclusion(2),
        caps=LocalizationCaps(hor_n_cap=1, j_n_cap=1, probe_n_cap=2,
                              dim_cap=1, hom_cap=2, stages=1))
    r = localize(Z, spec)
    assert probed == [r.local_object] and r.trace.n_stages == 1
    assert (r.locality.value, r.locality.reason) == \
        ("no", "no lift for HorF@1")
    assert r.locality == fixed_point_fill_oracle(r.local_object, spec)
