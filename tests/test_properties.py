"""Cross-cutting invariants: randomized universal properties, factorization
postconditions, and the localization two-out-of-three instance."""

import gc
import itertools
import json
import pathlib
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from eqloc.cat import (
    Diagram,
    DiagramMap,
    SmallCategory,
    arrow_category,
    colim,
    constant_diagram,
    cotensor,
    empty_dmap_into,
    hom_D,
    identity_dmap,
    limit_D,
    point_diagram,
    pullback_D,
    terminal_category,
    terminal_dmap,
    validate_category,
    validate_diagram,
    wrap_smap,
    wrap_sset,
)
from eqloc import homotopy, localization, orbits, soa
from eqloc.fixtures import (
    arrow_orbit,
    empty_to_point_map,
    free_z2_orbit,
    interval_plus_point,
    trivial_z2_orbit,
    two_points_diagram,
    z2_collapse,
    z2_two_orbits,
)
from eqloc.documents import (
    Workspace,
    assignment_from_doc,
    canonical_json,
    sset_doc,
    sset_from_doc,
)
from eqloc.glue import product, pushout, quotient
from eqloc.homotopy import is_weq_equivariant, pi0
from eqloc.localization import (
    LocalizationCaps,
    LocalizationSpec,
    extend_to_local,
    is_S_equivalence,
    localize,
)
from eqloc.orbits import orbit_setup, orbits_of
from eqloc.simplicial import (
    BudgetExceeded,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    boundary_inclusion,
    codegeneracy_map,
    compose_words,
    constant_map,
    enumerate_maps,
    hom_set,
    horn,
    horn_inclusion,
    identity_map,
    nondeg,
    normalize_word,
    point,
    standard_simplex,
    validate,
    verify_map,
)
from eqloc.soa import (
    ArrowSquare,
    Budget,
    setup_I,
    setup_J,
    small_object_argument,
)
from oracles import (
    HorFFamilyOracle,
    assign_at_cap_oracle,
    commutative_squares_oracle,
    face_oracle,
    naive_hom,
    pi0_dfs_oracle,
    pi0_oracle,
    quotient_oracle,
    random_collapse_map,
    random_sset,
    random_z2_diagram,
    rlp_oracle,
    setup_I_oracle,
    sset_doc_oracle,
    setup_J_oracle,
    swapped_loops,
    two_object_swapped_loops,
    validate_oracle,
    verify_map_oracle,
)


class TestWordAlgebra:
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=3),
           st.lists(st.integers(min_value=0, max_value=4), max_size=3),
           st.lists(st.integers(min_value=0, max_value=4), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_compose_associative(self, a, b, c):
        a, b, c = normalize_word(a), normalize_word(b), normalize_word(c)
        assert compose_words(compose_words(a, b), c) == \
            compose_words(a, compose_words(b, c))

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_normalize_is_admissible_and_idempotent(self, seq):
        w = normalize_word(seq)
        assert all(w[i] > w[i + 1] for i in range(len(w) - 1))
        assert normalize_word(w) == w


def _check_glued_universal(glued, ends, commutes):
    """Every cocone into Delta^1, one map per end kept by commutes, has
    exactly one mediator out of the glued space; returns the number of
    cocones checked."""
    W = standard_simplex(1)
    assert validate(glued.space) == []
    checked = 0
    for maps in itertools.product(*(hom_set(E, W) for E in ends)):
        if not commutes(maps):
            continue
        m = glued.mediate(maps)
        assert verify_map(m) == []
        assert tuple(leg.then(m) for leg in glued.legs) == maps
        mediators = [h for h in hom_set(glued.space, W)
                     if tuple(leg.then(h) for leg in glued.legs) == maps]
        assert mediators == [m]
        checked += 1
    return checked


def _check_pushout_universal(spans):
    X = spans[0][0].target
    return _check_glued_universal(
        pushout(spans), [X] + [g.target for _, g in spans],
        lambda maps: all(f.then(maps[0]) == g.then(q)
                         for (f, g), q in zip(spans, maps[1:])))


def _check_colim_universal(X):
    D = X.shape
    k = {d: i for i, d in enumerate(D.objects)}
    return _check_glued_universal(
        colim(X), [X.at[d] for d in D.objects],
        lambda maps: all(X.act[m].then(maps[k[D.tgt[m]]]) == maps[k[D.src[m]]]
                         for m in D.arrows))


class TestRandomizedUniversalProperties:
    def test_pushout_universal_on_random_instances(self):
        """Mediators out of random pushouts exist uniquely for every cocone
        into a small test object: first a point glued to a vertex, then
        1-3 spans, each gluing a point or an edge to a vertex, then the
        colimits of seeded random Z/2 diagrams."""
        rng = random.Random(271828)
        checked = 0
        for _ in range(12):
            X = random_sset(rng, max_cells=6)
            if not X.cells(0):
                continue
            v = rng.choice(list(X.cells(0)))
            f = SimplicialMap(point(), X, {"0": ((), v)})
            checked += _check_pushout_universal([(f, identity_map(point()))])
        for _ in range(12):
            X = random_sset(rng, max_cells=6)
            if not X.cells(0):
                continue
            spans = []
            for _ in range(rng.randint(1, 3)):
                B = rng.choice([point(), standard_simplex(1)])
                spans.append((
                    SimplicialMap(point(), X,
                                  {"0": ((), rng.choice(X.cells(0)))}),
                    SimplicialMap(point(), B,
                                  {"0": ((), rng.choice(B.cells(0)))})))
            checked += _check_pushout_universal(spans)
        assert checked > 0
        # colimits of seeded Z/2 diagrams: the same glued type, one leg
        assert sum(_check_colim_universal(random_z2_diagram(rng))
                   for _ in range(6)) > 0

    def test_quotient_projection_valid_on_random_instances(self):
        rng = random.Random(314159)
        for _ in range(15):
            X = random_sset(rng, max_cells=8)
            verts = list(X.cells(0))
            if len(verts) < 2:
                continue
            a, b = rng.sample(verts, 2)
            q = quotient(X, [(nondeg(a), nondeg(b))])
            assert validate(q.space) == []
            assert verify_map(q.projection) == []


class TestFactorizationPostconditions:
    def test_delta_lifts_against_sampled_members(self):
        """Stabilized runs: the factorization property carries the lift past
        the assigned squares to independently sampled class members."""
        budget = Budget(stages=4, n_cap=2, dim_cap=0)
        instr = setup_I(budget)
        f = terminal_dmap(two_points_diagram())
        r = small_object_argument(f, instr)
        assert r.stopped_by == "stabilization"
        from eqloc.soa import rlp_check
        for n in range(3):
            assert rlp_check(wrap_smap(boundary_inclusion(n)), r.delta).holds

    def test_setup_J_delta_is_equivariant_fibration(self):
        """hom(T, -) probes of a stabilized J-factorization pass horn-RLP."""
        from eqloc.homotopy import is_fibration_equivariant
        budget = Budget(stages=2, n_cap=2, dim_cap=1)
        instr = setup_J(budget)
        f = terminal_dmap(z2_two_orbits())
        r = small_object_argument(f, instr)
        assert r.stopped_by == "stabilization"
        Ts = orbits_of(r.delta.source, r.delta.target, dim_cap=1)
        assert is_fibration_equivariant(r.delta, Ts, 2, 2)


class TestTwoOutOfThree:
    def test_verdicts_agree_when_decisive(self):
        """is_S_equivalence(g) and the equivariant probe of the induced map
        between localizations agree whenever both are decisive."""
        spec = LocalizationSpec(
            terminal_category(),
            generators=[wrap_smap(empty_to_point_map())],
            caps=LocalizationCaps())
        X = two_points_diagram()
        Y = point_diagram(terminal_category())
        fold = terminal_dmap(X)
        rX = localize(X, spec)
        rY = localize(Y, spec)
        v1 = is_S_equivalence(fold, spec, [Y])
        # the induced map between localizations, through initiality
        Lg = extend_to_local(fold.then(rY.j), rX)
        Ts = orbits_of(Lg.source, Lg.target, dim_cap=1)
        v2 = is_weq_equivariant(Lg, Ts, 0, 2)
        decisive = {"yes", "no"}
        if v1.value in decisive and v2.value in decisive:
            assert v1.value == v2.value
        assert v1.value == "yes" and v2.value == "yes"


class TestOrbitSetupFactorization:
    def test_sampled_orbit_maps_factor(self):
        """Maps from library orbits into diagram fixtures factor through the
        setup members (the factorization property)."""
        from eqloc.orbits import factor_through_setup
        targets = [z2_two_orbits(), free_z2_orbit()]
        sources = [free_z2_orbit(), trivial_z2_orbit()]
        checked = 0
        for X in targets:
            setup = orbit_setup(X)
            for T in sources:
                for phi in hom_D(T, X):
                    hit = factor_through_setup(phi, setup)
                    assert hit is not None
                    member, psi = hit
                    assert psi.then(member.into) == phi
                    checked += 1
        assert checked >= 3


def _pullback_hom_cases():
    """(id, instrumentation, reference family): I and J at n_cap 0-2, and
    Hor(F) of empty -> point and bd 1 -> Delta^1 at hor_n_cap 0-2, each at
    dim_cap 0 and 1."""
    cases = []
    for dim_cap in (0, 1):
        for n in range(3):
            budget = Budget(stages=1, n_cap=n, dim_cap=dim_cap)
            cases.append((f"I-n{n}-d{dim_cap}", setup_I(budget),
                          setup_I_oracle(budget)))
            cases.append((f"J-n{n}-d{dim_cap}", setup_J(budget),
                          setup_J_oracle(budget)))
            caps = LocalizationCaps(hor_n_cap=n, dim_cap=dim_cap)
            for name, f in (("empty", empty_to_point_map()),
                            ("bd1", boundary_inclusion(1))):
                cases.append((f"HorF-{name}-n{n}-d{dim_cap}",
                              localization.hor_F_instrumentation(f, caps),
                              HorFFamilyOracle(f, caps)))
    return cases


PULLBACK_HOM_CASES = _pullback_hom_cases()


def _arrow_squares():
    """Morphisms of arrows between Z/2 fixtures: the two orbits onto the
    trivial orbit over the point, and the free orbit collapsing under
    identity -> collapse, so that both upper and lower move."""
    two, free, point_ = z2_two_orbits(), free_z2_orbit(), trivial_z2_orbit()
    return [
        ArrowSquare(terminal_dmap(two), terminal_dmap(point_),
                    terminal_dmap(two), identity_dmap(point_)),
        ArrowSquare(identity_dmap(free), z2_collapse(),
                    identity_dmap(free), z2_collapse()),
    ]


class TestPullbackHomFamily:
    """The one pullback-hom family gives the squares and transports of the
    per-family reference classes in tests/oracles.py."""

    @pytest.mark.parametrize("case", PULLBACK_HOM_CASES,
                             ids=[c[0] for c in PULLBACK_HOM_CASES])
    def test_assign_and_transport_match_reference(self, case):
        _, instr, ref = case
        for g in _arrow_squares():
            ident = ArrowSquare(g.source, g.source,
                                identity_dmap(g.source.source),
                                identity_dmap(g.source.target))
            for f in (g.source, g.target):
                got, want = instr.assign(f), ref.assign(f)
                assert [(s, s.member_id, s.meta, s.orbit) for s in got] == \
                    [(s, s.member_id, s.meta, s.orbit) for s in want]
            for sq in instr.assign(g.source):
                for h in (ident, g):
                    target, connect = instr.transport(h, sq)
                    ref_target, ref_connect = ref.transport(h, sq)
                    assert (target, target.orbit) == \
                        (ref_target, ref_target.orbit)
                    assert connect == ref_connect


def _groupoid_arrows():
    """Arrows over groupoid shapes: the Z/2 fixtures, the swapped loops,
    seeded random Z/2 diagrams and the two-object groupoid diagram."""
    loops, pair = swapped_loops(), two_object_swapped_loops()
    rng = random.Random(161803)
    randoms = [random_z2_diagram(rng) for _ in range(4)]
    return [terminal_dmap(z2_two_orbits()), z2_collapse(),
            terminal_dmap(loops), identity_dmap(loops),
            terminal_dmap(pair), identity_dmap(pair),
            *(terminal_dmap(R) for R in randoms)]


def _groupoid_cap_cases():
    """(id, instrumentation, dim_cap): I at n_cap 1, J at n_cap 2, Hor(F)
    of empty -> point and of bd 1 -> Delta^1 at hor_n_cap 1, at dim_cap 1
    and 2.  At dim_cap 2 Hor(F) of bd 1 -> Delta^1 stops at hor_n_cap 0:
    the reference takes 3-11 s per swapped-loops arrow for its n = 1
    member at cap 2."""
    cases = []
    for cap in (1, 2):
        budget = Budget(stages=1, n_cap=1, dim_cap=cap)
        cases += [(f"I-d{cap}", setup_I(budget), cap),
                  (f"J-d{cap}", setup_J(Budget(stages=1, n_cap=2,
                                               dim_cap=cap)), cap)]
        for name, f, n in (("empty", empty_to_point_map(), 1),
                           ("bd1", boundary_inclusion(1), 2 - cap)):
            caps = LocalizationCaps(hor_n_cap=n, dim_cap=cap)
            cases.append((f"HorF-{name}-n{n}-d{cap}",
                          localization.hor_F_instrumentation(f, caps), cap))
    return cases


GROUPOID_CAP_CASES = _groupoid_cap_cases()


class TestGroupoidCap:
    """On a groupoid shape every orbit is discrete, so PullbackHomFamily
    builds W at cap 0 and gets the squares of W built at dim_cap; any
    other shape keeps dim_cap."""

    @pytest.mark.parametrize("case", GROUPOID_CAP_CASES,
                             ids=[c[0] for c in GROUPOID_CAP_CASES])
    def test_squares_equal_those_at_dim_cap(self, case):
        _, instr, cap = case
        family, = instr.families.values()
        for g in _groupoid_arrows():
            assert g.source.shape.is_groupoid()
            assert validate_diagram(g.source) == []
            got = instr.assign(g)
            want = assign_at_cap_oracle(family, g, cap)
            assert [(s, s.member_id, s.meta, s.orbit.orbit, s.orbit.witness)
                    for s in got] == \
                [(s, s.member_id, s.meta, s.orbit.orbit, s.orbit.witness)
                 for s in want]

    def test_orbit_category_levels_equal_those_at_dim_cap(self):
        """orbit_category_of reads the orbits of X^{Delta^n} at cap 0."""
        for g in _groupoid_arrows():
            X = g.source
            for n in (0, 1):
                got, want = (
                    [(o.orbit, o.witness) for o in orbit_setup(
                        cotensor(X, standard_simplex(n), cap).diagram)]
                    for cap in (0, 2))
                assert got == want

    def test_other_shapes_keep_dim_cap(self):
        """Over the arrow category and over a one-object monoid with an
        idempotent e, an orbit of W holds an edge at cap 1.  I@0's W of
        the identity of Y is Y."""
        monoid = SmallCategory(["*"], [("id", "*", "*"), ("e", "*", "*")],
                               {"*": "id"}, {("e", "e"): "e"})
        edge = standard_simplex(1)
        instr = setup_I(Budget(stages=1, n_cap=0, dim_cap=1))
        family, = instr.families.values()
        for Y in (arrow_orbit(edge),
                  Diagram(monoid, {"*": edge},
                          {"e": constant_map(edge, edge, "0")})):
            assert validate_category(Y.shape) == []
            assert validate_diagram(Y) == []
            assert not Y.shape.is_groupoid()
            g = identity_dmap(Y)
            squares = instr.assign(g)
            assert squares == assign_at_cap_oracle(family, g, 1)
            assert any(sq.orbit.orbit.dim > 0 for sq in squares)
            assert all(sq.orbit.orbit.dim == 0
                       for sq in assign_at_cap_oracle(family, g, 0))


def _random_arrow(rng):
    """A random diagram X -> X/~ over the arrow category."""
    X = random_sset(rng, max_cells=4)
    q = random_collapse_map(rng, X)
    return Diagram(arrow_category(), {"a": X, "b": q.target}, {"f": q})


def _naive_hom_D(A, X):
    """Natural transformations A -> X by brute force: the product of the
    component hom sets, in object order, filtered by naturality."""
    objects = list(A.shape.objects)
    out = []
    for combo in itertools.product(*(naive_hom(A.at[d], X.at[d])
                                     for d in objects)):
        comps = dict(zip(objects, combo))
        if all(A.act[m].then(comps[A.shape.tgt[m]])
               == comps[A.shape.src[m]].then(X.act[m])
               for m in A.shape.non_identities()):
            out.append(DiagramMap(A, X, comps))
    return out


class TestSearchKernel:
    """Every search runs through one kernel and keeps canonical order."""

    def _pairs(self, seed, n=10):
        rng = random.Random(seed)
        return [(random_sset(rng, max_cells=4), random_sset(rng, max_cells=5))
                for _ in range(n)]

    def test_hom_sets_equal_the_oracle_as_lists(self):
        for X, Y in self._pairs(271828):
            assert enumerate_maps(X, Y) == naive_hom(X, Y)

    def test_pins_and_cell_filter_keep_canonical_order(self):
        rng = random.Random(314159)
        for X, Y in self._pairs(314159):
            full = naive_hom(X, Y)
            cells = [c for level in X.levels for c in level]
            cell = rng.choice(cells)
            pin = rng.choice(Y.simplices(X.cell_dim(cell)))
            assert enumerate_maps(X, Y, pins={cell: pin}) == [
                f for f in full if f(nondeg(cell)) == pin]
            banned = rng.choice(Y.cells(0))

            def keep(c, s):
                return c == cell or s.cell != banned
            assert enumerate_maps(X, Y, cell_filter=keep) == [
                f for f in full
                if all(keep(c, f(nondeg(c))) for c in cells)]

    def test_limit_returns_a_prefix(self):
        for X, Y in self._pairs(161803):
            A, B = wrap_sset(X), wrap_sset(Y)
            full = hom_D(A, B)
            assert [h.components["*"] for h in full] == enumerate_maps(X, Y)
            assert hom_D(A, B, limit=0) == []
            for k in range(1, len(full) + 2):
                assert hom_D(A, B, limit=k) == full[:k]

    def test_budget_runs_out_or_gives_the_full_list(self):
        ran_out = 0
        for X, Y in self._pairs(141421):
            full = enumerate_maps(X, Y)
            for k in range(12):
                try:
                    assert enumerate_maps(X, Y, budget=[k]) == full
                except BudgetExceeded:
                    ran_out += 1
        assert ran_out > 0

    def test_hom_D_equals_the_oracle_as_lists(self):
        rng = random.Random(173205)
        z2 = [free_z2_orbit(), trivial_z2_orbit(), z2_two_orbits()]
        pairs = [(A, B) for A in z2 for B in z2]
        pairs += [(_random_arrow(rng), _random_arrow(rng)) for _ in range(8)]
        for A, B in pairs:
            expected = _naive_hom_D(A, B)
            assert hom_D(A, B) == expected
            assert hom_D(A, B, limit=1) == expected[:1]
        with pytest.raises(BudgetExceeded):
            hom_D(z2_two_orbits(), z2_two_orbits(), budget=[1])


def _extension_cases():
    """(along, target) pairs on the Z/2 fixtures and on random arrow
    diagrams: one cylinder end, both cylinder ends, and the cylinder
    projection, whose images are degenerate and may pin inconsistently."""
    rng = random.Random(662607)
    z2 = [free_z2_orbit(), trivial_z2_orbit(), z2_two_orbits()]
    pairs = [(A, X) for A in z2 for X in z2]
    pairs += [(_random_arrow(rng), _random_arrow(rng)) for _ in range(6)]
    cases = []
    for A, X in pairs:
        cyl = homotopy.cylinder(A)
        ends = hom_D(A, X, limit=3)
        for l1 in ends:
            cases.append(([(cyl.i0, l1)], X))
            cases += [([(cyl.i0, l1), (cyl.i1, l2)], X) for l2 in ends]
        cases += [([(cyl.projection, h)], X)
                  for h in hom_D(cyl.space, X, limit=3)]
    return cases


def _brute_extensions(along, X, keep=None):
    """hom_D(B, X) filtered by every pair and by keep on every cell."""
    B = along[0][0].target
    cells = [(d, c) for d in B.shape.objects for c in B.at[d].all_cells()]
    return [l for l in hom_D(B, X)
            if all(i.then(l) == a for i, a in along)
            and (keep is None or all(keep(d, c, l.components[d](nondeg(c)))
                                     for d, c in cells))]


class TestExtensions:
    """soa.extensions is the one pinned search behind every lifting and
    extension problem; it must agree with a filter of the full hom set."""

    def test_equals_the_filtered_hom_set(self):
        sizes = set()
        for along, X in _extension_cases():
            expected = _brute_extensions(along, X)
            assert soa.extensions(along, X) == expected
            sizes.add(min(len(expected), 2))
            for k in range(len(expected) + 2):
                assert soa.extensions(along, X, limit=k) == expected[:k]
        assert sizes == {0, 1, 2}

    def test_cell_filter_sees_the_object(self):
        rng = random.Random(299792)
        pruned = 0
        for along, X in _extension_cases():
            B = along[0][0].target
            d = rng.choice(list(B.shape.objects))
            kept = rng.choice(B.at[d].cells(0))
            banned = rng.choice(X.at[d].cells(0))

            def keep(e, cell, s):
                return e != d or cell == kept or s.cell != banned
            expected = _brute_extensions(along, X, keep)
            assert soa.extensions(along, X, cell_filter=keep) == expected
            pruned += len(_brute_extensions(along, X)) > len(expected)
        assert pruned > 0

    def test_inconsistent_or_unsolvable_pins_give_nothing(self):
        # two vertices onto one: the pins disagree
        T = two_points_diagram()
        assert soa.extensions([(terminal_dmap(T), identity_dmap(T))],
                              T) == []
        # the loop's edge goes to a degenerate edge of the point, but is
        # asked to extend a nondegenerate one: no pin solves it
        loop = quotient(standard_simplex(1),
                        [(nondeg("0"), nondeg("1"))]).space
        S = wrap_sset(loop)
        assert soa.extensions([(terminal_dmap(S), identity_dmap(S))],
                              S) == []

    def test_budget_runs_out(self):
        ran_out = 0
        for along, X in _extension_cases():
            full = soa.extensions(along, X)
            if full:
                with pytest.raises(BudgetExceeded):
                    soa.extensions(along, X, budget=[0])
                ran_out += 1
            assert soa.extensions(along, X, budget=[10 ** 6]) == full
        assert ran_out > 0

    def test_budget_counts_the_pools_then_naturality(self):
        """The budget is spent as by one pinned enumerate_maps per object,
        in object order, followed by hom_D over those pools."""
        checked = 0
        for along, X in _extension_cases():
            B = along[0][0].target
            pins = {d: {} for d in B.shape.objects}
            for i, a in along:
                for d in B.shape.objects:
                    for c in i.source.at[d].all_cells():
                        pins[d][i.components[d](nondeg(c))] = \
                            a.components[d](nondeg(c))
            if any(s.word for p in pins.values() for s in p):
                continue  # degenerate images: pins need word division
            spent, count = [10 ** 6], [10 ** 6]
            got = soa.extensions(along, X, budget=spent)
            pools = {d: enumerate_maps(B.at[d], X.at[d], budget=count,
                                       pins={s.cell: v
                                             for s, v in pins[d].items()})
                     for d in B.shape.objects}
            assert hom_D(B, X, component_pool=pools.__getitem__,
                         budget=count) == got
            assert spent == count
            checked += 1
        assert checked > 0

    def test_commutative_squares_equal_a_filtered_product(self):
        """Squares come from extensions along i; they equal the filter of
        every pair, order included, also where i has degenerate images and
        the pins need word division.  Equal right maps are one object."""
        rng = random.Random(602214)
        arrows = [z2_collapse(), terminal_dmap(z2_two_orbits()),
                  identity_dmap(free_z2_orbit())]
        arrows += [_random_quotient(rng) for _ in range(5)]
        cases = [(i, p) for i in arrows for p in arrows
                 if i.source.shape == p.source.shape]
        sizes, degenerate, repeated = set(), 0, 0
        for i, p in cases + _square_cases():
            squares = soa.commutative_squares(i, p)
            assert squares == commutative_squares_oracle(i, p)
            sizes.add(min(len(squares), 2))
            degenerate += any(s.word for f in i.components.values()
                              for s in f.images)
            rights = {b for _, b in squares}
            assert len({id(b) for _, b in squares}) == len(rights)
            repeated += len(squares) > len(rights)
        assert sizes == {0, 1, 2}
        assert degenerate > 0 and repeated > 0

    def test_pullback_D_is_the_two_factor_limit(self):
        rng = random.Random(141592)
        cospans = [(z2_collapse(), terminal_dmap(z2_two_orbits())),
                   (z2_collapse(), z2_collapse())]
        for _ in range(4):
            f = _random_quotient(rng)
            cospans += [(f, f), (f, identity_dmap(f.target))]
        for f, g in cospans:
            pb = pullback_D(f, g)
            lim = limit_D([f.source, g.source], [(0, f, 1, g)])
            assert pb.diagram == lim.diagram
            assert pb.projections == lim.projections
            assert [p.target for p in pb.projections] == [f.source, g.source]
            P = point_diagram(f.source.shape)
            cones = [(a, b) for a in hom_D(P, f.source)
                     for b in hom_D(P, g.source) if a.then(f) == b.then(g)]
            assert len(cones) == len(hom_D(P, pb.diagram))
            for a, b in cones:
                m = pb.mediate([a, b])
                assert m == lim.mediate([a, b])
                assert [m.then(p) for p in pb.projections] == [a, b]


def _square_cases():
    """(i, p) pairs: horn and boundary inclusions, codegeneracies and
    constant maps against random collapse maps, and the set-mode horns of
    two Z/2 generators against the Z/2 fixtures."""
    rng = random.Random(299792)
    members = [horn_inclusion(n, k) for n in (1, 2) for k in range(n + 1)]
    members += [boundary_inclusion(n) for n in range(3)]
    members += [codegeneracy_map(n, j) for n in (0, 1) for j in range(n + 1)]
    members += [constant_map(standard_simplex(n), standard_simplex(1), "1")
                for n in (1, 2)]
    cases = []
    for _ in range(6):
        p = wrap_smap(random_collapse_map(rng, random_sset(rng, max_cells=5)))
        cases += [(wrap_smap(i), p) for i in members]
    generators = [empty_dmap_into(free_z2_orbit()),
                  empty_dmap_into(trivial_z2_orbit())]
    targets = [z2_collapse(), terminal_dmap(z2_two_orbits()),
               identity_dmap(free_z2_orbit())]
    cases += [(h.arrow, p) for h in localization.horns_of(generators, 2)
              for p in targets]
    return cases


def _random_quotient(rng):
    """A random quotient map X -> X/~ between constant arrow diagrams."""
    X = random_sset(rng, max_cells=4)
    q = random_collapse_map(rng, X)
    return DiagramMap(constant_diagram(arrow_category(), X),
                      constant_diagram(arrow_category(), q.target),
                      {"a": q, "b": q})


class TestLifts:
    def test_lifts_to_a_point_matches_a_scan_of_all_simplices(self):
        """X -> point lifts against a horn (sphere) when every horn (sphere)
        of X has a filler, found by a scan of every n-simplex rather than
        by boundary lookup; is_kan(X, m) is the conjunction over the horns
        up to m."""
        rng = random.Random(223606)
        spaces = [random_sset(rng, max_cells=8) for _ in range(6)]
        spaces += [standard_simplex(2), boundary_inclusion(2).source]
        checked = filled = 0
        for X in spaces:
            to_point = constant_map(X, point(), "0")
            horns_fill = {}
            for n in range(1, 4):
                for k in [None, *range(n + 1)]:
                    facets = {i: nondeg(".".join(str(v) for v in range(n + 1)
                                                 if v != i))
                              for i in range(n + 1) if i != k}
                    expected = all(
                        any(all(X.face(s, i) == phi(f)
                                for i, f in facets.items())
                            for s in X.simplices(n))
                        for phi in hom_set(
                            boundary(n) if k is None else horn(n, k), X))
                    got = homotopy.lifts(to_point, n, k)
                    assert got == expected, (X, n, k)
                    checked += 1
                    filled += got
                    if k is not None:
                        horns_fill[n, k] = got
            for m in range(1, 4):
                assert homotopy.is_kan(X, m) == all(
                    v for (n, _), v in horns_fill.items() if n <= m)
        assert 0 < filled < checked

    def test_lifts_matches_the_brute_force_oracle(self):
        """lifts(p, n, k) equals rlp_oracle, which filters whole hom sets,
        on seeded collapse maps, for horns and spheres up to n = 2."""
        rng = random.Random(1983)
        seen = {}
        for _ in range(20):
            X = random_sset(rng, max_cells=3)
            p = random_collapse_map(rng, X)
            for n in range(3):
                for k in [None, *range(n + 1)] if n else [None]:
                    i = boundary_inclusion(n) if k is None \
                        else horn_inclusion(n, k)
                    got = homotopy.lifts(p, n, k)
                    assert got == rlp_oracle(i, p), (X, n, k)
                    seen.setdefault(k is None, set()).add(got)
        assert seen == {True: {True, False}, False: {True, False}}


def _copy_sset(X):
    """An equal complex that is another object: its stray `faces` entry
    opts it out of interning."""
    faces = {c: X.cell_faces(c) for l in X.levels[1:] for c in l}
    return SimplicialSet([list(l) for l in X.levels],
                         dict(faces, stray=(nondeg("nowhere"),)))


class TestIdentityContract:
    """Equality of maps and diagrams is by parts; hashes agree with it."""

    def _random_maps(self, rng):
        """Maps between random complexes, with rebuilt equal copies and
        equal assignments into different targets."""
        maps = []
        for _ in range(6):
            X, Y = random_sset(rng, max_cells=6), random_sset(rng, max_cells=6)
            homs = hom_set(X, Y)[:8]
            maps.extend(homs)
            X2, Y2 = _copy_sset(X), _copy_sset(Y)
            maps.extend(SimplicialMap(X2, Y2, dict(f.assignment))
                        for f in homs[:3])
            v = Y.cells(0)[0]
            maps.append(constant_map(X, Y, v))
            maps.append(constant_map(X, SimplicialSet([[v]], {}), v))
        return maps

    def test_equality_is_by_source_target_and_assignment(self):
        rng = random.Random(161803)
        maps = self._random_maps(rng)
        equal_pairs = 0
        for f in maps:
            for g in maps:
                by_parts = (f.source == g.source and f.target == g.target
                            and sorted(f.assignment.items())
                            == sorted(g.assignment.items()))
                assert (f == g) == by_parts
                if f == g:
                    assert hash(f) == hash(g)
                    equal_pairs += f is not g
        assert equal_pairs > 0

    def test_list_words_equal_tuple_words(self):
        rng = random.Random(141421)
        for f in self._random_maps(rng):
            g = SimplicialMap(f.source, f.target,
                              {c: (list(s.word), s.cell)
                               for c, s in f.assignment.items()})
            assert g == f and hash(g) == hash(f)
            assert all(type(s) is Simplex and type(s.word) is tuple
                       for s in g.assignment.values())

    def test_images_are_shared_not_copied(self):
        rng = random.Random(173205)
        for f in self._random_maps(rng):
            g = SimplicialMap(f.source, f.target, f.assignment)
            for c in f.assignment:
                assert g.assignment[c] is f.assignment[c]

    def test_one_image_object_per_target_and_value(self):
        """Maps into one complex share its image objects, whether built from
        a dict or from `images=`, from fresh copies of every image."""
        rng = random.Random(223606)
        for f in self._random_maps(rng):
            def fresh(s):
                return Simplex(tuple(list(s.word)), s.cell)
            by_dict = SimplicialMap(f.source, f.target, {
                c: fresh(s) for c, s in f.assignment.items()})
            by_images = SimplicialMap(f.source, f.target, images=[
                None if s is None else fresh(s) for s in f.images])
            for g in (by_dict, by_images):
                assert g == f
                assert all(a is b for a, b in zip(g.images, f.images))
            table = f.target._simplex_table
            assert all(table[s] is s for s in f.images if s is not None)

    def test_a_document_parsed_twice_shares_its_images(self):
        doc = {"schema": "eqloc/1", "simplicial_sets": {
            "e": {"cells": [["a", "b"], ["x"]],
                  "faces": {"x": [[[], "b"], [[], "a"]]}},
            "tri": {"cells": [["0", "1", "2"], ["01", "02", "12"], ["t"]],
                    "faces": {"01": [[[], "1"], [[], "0"]],
                              "02": [[[], "2"], [[], "0"]],
                              "12": [[[], "2"], [[], "1"]],
                              "t": [[[], "12"], [[], "02"], [[], "01"]]}}},
            "maps": {"f": {"source": "tri", "target": "e", "assignment": {
                "0": [[], "a"], "1": [[], "a"], "2": [[], "b"],
                "01": [[0], "a"], "02": [[], "x"], "12": [[], "x"],
                "t": [[0], "x"]}}}}
        one, two = Workspace(), Workspace()
        one.load_doc(json.loads(json.dumps(doc)))
        two.load_doc(json.loads(json.dumps(doc)))
        f, g = one.maps["f"], two.maps["f"]
        assert f.target is g.target and f == g
        assert all(a is b for a, b in zip(f.images, g.images))
        assert f.images[0] is f.images[1]

    def test_sset_equality_matches_the_old_key(self):
        """Equality by parts is the relation of the old materialized key
        (levels, ((cell, faces) for cells that have faces))."""
        rng = random.Random(271828)
        built = []
        for _ in range(8):
            X = random_sset(rng, max_cells=6)
            faces = {c: X.cell_faces(c) for l in X.levels[1:] for c in l}
            variants = [dict(faces), dict(faces, ghost=(nondeg("nowhere"),))]
            if faces:
                c = rng.choice(sorted(faces))
                variants.append({k: v for k, v in faces.items() if k != c})
                variants.append(dict(faces, **{c: faces[c][::-1]}))
            variants.append(dict(faces, **{X.cells(0)[0]: ()}))
            built.append((X, faces))
            built.extend((SimplicialSet([list(l) for l in X.levels], fs), fs)
                         for fs in variants)
            built.append((_copy_sset(X), faces))

        def old_key(X, faces):
            return (X.levels, tuple((c, faces[c]) for c in X.all_cells()
                                    if c in faces))

        equal_pairs = 0
        for A, fa in built:
            for B, fb in built:
                assert (A == B) == (old_key(A, fa) == old_key(B, fb))
                if A == B:
                    assert hash(A) == hash(B)
                    equal_pairs += A is not B
        assert equal_pairs > 0

    def test_faces_are_kept_not_copied(self):
        """A fresh value keeps the caller's faces; an equal one is the live
        complex with its own."""
        rng = random.Random(314159)
        for _ in range(6):
            X = random_sset(rng, max_cells=6)
            faces = {c: tuple(Simplex(f.word, f.cell) for f in X.cell_faces(c))
                     for l in X.levels[1:] for c in l}
            assert SimplicialSet(X.levels, faces) is X
            Y = SimplicialSet([X.levels[0] + ("fresh",), *X.levels[1:]], faces)
            assert Y != X and Y.cells(0)[:-1] == X.cells(0)
            for c, fs in faces.items():
                for i, f in enumerate(fs):
                    assert Y.cell_faces(c)[i] is f

    def test_assignment_order_does_not_matter(self):
        rng = random.Random(662607)
        for f in self._random_maps(rng):
            items = list(f.assignment.items())
            rng.shuffle(items)
            g = SimplicialMap(f.source, f.target, dict(items))
            assert g == f and hash(g) == hash(f)
            assert g.images == f.images

    def test_assignment_is_a_fresh_dict(self):
        rng = random.Random(602214)
        for f in self._random_maps(rng):
            images, h = f.images, hash(f)
            view = f.assignment
            assert view == dict(zip(f.source.all_cells(), images))
            view.clear()
            view["ghost"] = nondeg("nowhere")
            assert f.images is images and hash(f) == h
            assert f.assignment == dict(zip(f.source.all_cells(), images))

    def test_then_agrees_with_pointwise_composition(self):
        rng = random.Random(105457)
        checked = 0
        for _ in range(8):
            X, Y, Z = (random_sset(rng, max_cells=5) for _ in range(3))
            for f in enumerate_maps(X, Y)[:4]:
                for g in enumerate_maps(Y, Z)[:4]:
                    fg = f.then(g)
                    for n in range(3):
                        for s in X.simplices(n):
                            assert fg(s) == g(f(s))
                            checked += 1
        assert checked > 100

    def test_diagrams_and_dmaps_built_twice_are_equal(self):
        X1, X2 = free_z2_orbit(), free_z2_orbit()
        assert X1 is not X2 and X1.at["*"] is X2.at["*"]
        assert X1 == X2 and hash(X1) == hash(X2)
        copy = Diagram(X1.shape, {"*": _copy_sset(X1.at["*"])},
                       {m: SimplicialMap(_copy_sset(f.source),
                                         _copy_sset(f.target),
                                         dict(f.assignment))
                        for m, f in X1.act.items()})
        assert copy == X1 and hash(copy) == hash(X1)
        assert X1 != trivial_z2_orbit()
        h1, h2 = z2_collapse(), z2_collapse()
        assert h1 is not h2 and h1 == h2 and hash(h1) == hash(h2)
        rebuilt = DiagramMap(copy, h1.target, dict(h1.components))
        assert rebuilt == h1 and hash(rebuilt) == hash(h1)
        homs1 = hom_D(X1, z2_two_orbits())
        homs2 = hom_D(X2, z2_two_orbits())
        assert homs1 == homs2
        assert [hash(h) for h in homs1] == [hash(h) for h in homs2]
        assert len(set(homs1)) == len(homs1)


# every record class: (class, required fields, {defaulted field: default}),
# fields in constructor order
RECORDS = {
    "Verdict": (homotopy.Verdict, ["value"], {"caps": (), "reason": ""}),
    "HomotopyReport": (homotopy.HomotopyReport,
                       ["pi0", "pi_n", "cap", "is_kan_at_cap"],
                       {"truncated": True}),
    "Cylinder": (homotopy.Cylinder, ["space", "i0", "i1", "projection"], {}),
    "Cone": (homotopy.Cone, ["space", "inclusion", "apex"],
             {"_pushout": None, "_cylinder": None}),
    "LocalizationCaps": (localization.LocalizationCaps, [], {
        "hor_n_cap": 2, "j_n_cap": 1, "probe_n_cap": 2, "dim_cap": 1,
        "hom_cap": 2, "pi_cap": 0, "stages": 3, "uniqueness_limit": 6}),
    "Horn": (localization.Horn, ["arrow", "generator_index", "n"], {}),
    "LocalizationResult": (localization.LocalizationResult,
                           ["local_object", "j", "trace", "locality", "spec"],
                           {}),
    "ExtensionReport": (localization.ExtensionReport,
                        ["lifts", "all_homotopic", "truncated"], {}),
    "OrbitLocalityReport": (localization.OrbitLocalityReport,
                            ["orbit_index", "fibrant", "components",
                             "trivial_pi", "local"], {}),
    "OrbitMap": (orbits.OrbitMap, ["orbit", "into", "witness"],
                 {"pullback": None}),
    "Square": (soa.Square, ["top", "left", "right", "bottom", "member_id"],
               {"meta": (), "orbit": None}),
    "ArrowSquare": (soa.ArrowSquare, ["source", "target", "upper", "lower"],
                    {}),
    "Budget": (soa.Budget, [], {"stages": 4, "n_cap": 2, "dim_cap": 1}),
    "RlpReport": (soa.RlpReport,
                  ["holds", "n_squares", "lifts", "counterexample"], {}),
    "Stage": (soa.Stage, ["squares", "attached", "stage_map", "rho"],
              {"pushout": None}),
    "FactorizationResult": (soa.FactorizationResult,
                            ["arrow", "gamma", "delta", "stages",
                             "stopped_by", "strict", "instrumentation",
                             "budget"], {}),
    "RetractWitness": (soa.RetractWitness, ["factorization", "section"], {}),
    "CornerMember": (soa.CornerMember,
                     ["meta", "factors", "constraints", "corners"],
                     {"span": ()}),
}
FROZEN = ["ArrowSquare", "Budget", "CornerMember", "LocalizationCaps",
          "OrbitMap", "Square", "Verdict"]
MUTABLE = sorted(set(RECORDS) - set(FROZEN))


def _record_values(name, tag=""):
    """A distinct hashable value for every field of the record."""
    cls, required, defaults = RECORDS[name]
    return cls, {field: f"{field}-{tag}" for field in [*required, *defaults]}


class TestRecordContract:
    """Constructor, equality, hashing, mutability and repr of the record
    classes of homotopy, localization, orbits and soa."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_positional_and_keyword_construction_agree(self, name):
        cls, values = _record_values(name)
        by_position = cls(*values.values())
        by_keyword = cls(**values)
        assert by_position == by_keyword
        for field, value in values.items():
            assert getattr(by_position, field) == value
        assert cls(*values.values()) != cls(**_record_values(name, "x")[1])

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_defaults_and_bad_arguments(self, name):
        cls, required, defaults = RECORDS[name]
        named = {field: field for field in required}
        record = cls(**named)
        for field, default in defaults.items():
            assert getattr(record, field) == default
        n_fields = len(required) + len(defaults)
        with pytest.raises(TypeError):
            cls(*range(n_fields + 1))
        with pytest.raises(TypeError):
            cls(**named, unknown_field=1)
        if required:
            with pytest.raises(TypeError):
                cls(*required[:-1])
            with pytest.raises(TypeError):
                cls(*required, **{required[0]: 1})

    @pytest.mark.parametrize("name", FROZEN)
    def test_frozen_records_hash_by_value_and_refuse_assignment(self, name):
        cls, values = _record_values(name)
        a, b = cls(**values), cls(*values.values())
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        field = next(iter(values))
        with pytest.raises(AttributeError):
            setattr(a, field, "changed")
        with pytest.raises(AttributeError):
            a.new_attribute = 1
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == values[field]

    @pytest.mark.parametrize("name", MUTABLE)
    def test_mutable_records_are_unhashable(self, name):
        cls, values = _record_values(name)
        record = cls(**values)
        with pytest.raises(TypeError):
            hash(record)
        field = next(iter(values))
        setattr(record, field, "changed")
        assert getattr(record, field) == "changed"
        assert record != cls(**values)

    def test_orbit_and_pullback_stay_out_of_equality(self):
        square = dict(_record_values("Square")[1])
        a = soa.Square(**dict(square, orbit="one orbit"))
        b = soa.Square(**dict(square, orbit="another orbit"))
        assert a == b and hash(a) == hash(b)
        assert [a].index(b) == 0
        assert a != soa.Square(**dict(square, meta=("other",)))
        orbit = dict(_record_values("OrbitMap")[1])
        c = orbits.OrbitMap(**dict(orbit, pullback="one pullback"))
        d = orbits.OrbitMap(**dict(orbit, pullback="another pullback"))
        assert c == d and hash(c) == hash(d)
        assert c != orbits.OrbitMap(**dict(orbit, witness="other"))

    def test_records_of_different_classes_differ(self):
        assert soa.Budget() != localization.LocalizationCaps()
        assert homotopy.Verdict("yes") != ("yes", (), "")

    def test_repr_shows_only_shown_fields(self):
        assert repr(homotopy.Verdict("yes", (1,), "r")) == \
            "Verdict(value='yes', caps=(1,), reason='r')"
        assert repr(soa.Budget(stages=2)) == \
            "Budget(stages=2, n_cap=2, dim_cap=1)"
        hidden = {"Cone": ["_pushout", "_cylinder"], "Horn": [],
                  "OrbitMap": ["pullback"], "Square": ["orbit"],
                  "Stage": ["pushout"]}
        for name, fields in hidden.items():
            cls, values = _record_values(name)
            text = repr(cls(**values))
            assert text.startswith(f"{name}(")
            for field, value in values.items():
                assert (f"{field}={value!r}" in text) == (field not in fields)


# ---------------------------------------------------------------------------
# face table, validate and verify_map against their face-by-face oracles


def _with_degenerate_faces(X, rng):
    """X with one edge collapsed onto a degenerate vertex, so cells above
    it get degenerate faces; X itself when it has no edge."""
    if not X.cells(1):
        return X
    e = rng.choice(X.cells(1))
    v = X.cell_faces(e)[1].cell
    return quotient(X, [(nondeg(e), Simplex((0,), v))]).space


def _complex_pool(seed, count):
    """Random complexes, some with degenerate faces, and fixed ones up to
    dimension 3 (two with a degenerate face on a 3-cell)."""
    rng = random.Random(seed)
    pool = [standard_simplex(3), horn(3, 1), product(
        standard_simplex(1), standard_simplex(2)).space,
        quotient(standard_simplex(2),
                 [(nondeg("0.1"), Simplex((0,), "0"))]).space,
        quotient(standard_simplex(3),
                 [(nondeg("0.1.2"), Simplex((1,), "0.1"))]).space,
        quotient(standard_simplex(3),
                 [(nondeg("0.1.2"), Simplex((1, 0), "0"))]).space]
    for _ in range(count):
        X = random_sset(rng, max_cells=8)
        pool.append(_with_degenerate_faces(X, rng) if rng.random() < 0.5
                    else X)
    return pool


def _corrupt_sset(X, rng):
    """X with one to three random corruptions of its face data."""
    levels = [list(l) for l in X.levels]
    faces = {c: X.cell_faces(c) for l in X.levels[1:] for c in l}
    cells = [c for l in levels for c in l]
    upper = [c for l in levels[1:] for c in l]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["faces-on-vertex", "missing-faces", "face-count",
                           "inadmissible-word", "unknown-face-target",
                           "face-dimension", "identity", "identity",
                           "faces-for-unknown-cell"])
        if kind == "faces-on-vertex":
            v = rng.choice(levels[0])
            faces[v] = (nondeg(v),) * rng.randint(0, 2)
            continue
        if kind == "faces-for-unknown-cell":
            v = rng.choice(levels[0])
            faces[rng.choice(["ghost", "ghost2"])] = (nondeg(v), nondeg(v))
            continue
        live = [c for c in upper if faces.get(c)]
        if not live:
            continue
        c = rng.choice(live)
        fs = list(faces[c])
        n = X.cell_dim(c)
        i = rng.randrange(len(fs))
        if kind == "missing-faces":
            del faces[c]
            continue
        if kind == "face-count":
            fs = fs[:-1] if rng.random() < 0.5 else fs + [fs[0]]
        elif kind == "inadmissible-word":
            fs[i] = Simplex(rng.choice([(0, 0), (0, 1), (1, 1, 0), (2, 0, 0)]),
                            fs[i].cell)
        elif kind == "unknown-face-target":
            fs[i] = Simplex(fs[i].word, "zz")
        elif kind == "face-dimension":
            others = [s for m in range(X.dim + 1) if m != n - 1
                      for s in X.simplices(m)[:6]]
            fs[i] = rng.choice(others)
        elif rng.random() < 0.5 and len(fs) > 1:  # identity: swap two faces
            j = rng.randrange(len(fs))
            fs[i], fs[j] = fs[j], fs[i]
        else:  # identity: another face of the right dimension
            fs[i] = rng.choice(X.simplices(n - 1))
        faces[c] = tuple(fs)
    return SimplicialSet(levels, faces)


def _corrupt_map(f, rng):
    """f with one to three of its images corrupted."""
    X, Y = f.source, f.target
    images = list(f.images)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(images))
        n = X._dims[k]
        kind = rng.choice(["unassigned", "dimension", "inadmissible-word",
                           "face", "face"])
        if kind == "unassigned":
            images[k] = None
        elif kind == "dimension":
            images[k] = rng.choice([Simplex((), "zz")] + list(
                Y.simplices(n + 1)[:4]) + list(Y.simplices(n - 1)[:4]))
        elif kind == "inadmissible-word" and n >= 2:
            images[k] = Simplex((0,) * n, Y.cells(0)[0])
        else:
            images[k] = rng.choice(Y.simplices(n))
    return SimplicialMap(X, Y, images=images)


class TestFaceTable:
    """d_i of a nondegenerate cell is a table read; every face still equals
    the word-algebra result."""

    def test_face_matches_word_algebra_up_to_dim_3(self):
        checked = 0
        for X in _complex_pool(5772, 10):
            for n in range(4):
                for s in X.simplices(n):
                    for i in range(n + 1) if n else ():
                        assert X.face(s, i) == face_oracle(X, s, i)
                        checked += 1
                    for i in ((-1, n + 1) if n else (-1, 0, 1)):
                        with pytest.raises(IndexError):
                            X.face(s, i)
        assert checked > 1000

    def test_unknown_cell_raises_key_error(self):
        with pytest.raises(KeyError):
            standard_simplex(2).face(nondeg("zz"), 0)

    def test_missing_and_short_face_data_raise_as_before(self):
        X = SimplicialSet([["a"], ["e", "f"]], {"f": (nondeg("a"),)})
        with pytest.raises(KeyError):
            X.face(nondeg("e"), 0)
        with pytest.raises(IndexError):
            X.face(nondeg("f"), 1)

    def test_stored_inadmissible_face_word_is_normalized(self):
        X = SimplicialSet([["a"], [], ["t"]],
                          {"t": (Simplex((0, 0), "a"),) * 3})
        assert X.face(nondeg("t"), 1) == Simplex((1, 0), "a")


class TestValidateAgainstOracle:
    def test_corruption_suite(self):
        rng = random.Random(1414)
        kinds = set()
        for X in _complex_pool(2718, 40):
            assert validate(X) == validate_oracle(X) == []
            for _ in range(12):
                Y = _corrupt_sset(X, rng)
                got = validate(Y)
                assert got == validate_oracle(Y)
                kinds.update(p[0] for p in got)
        assert kinds == {"faces-on-vertex", "missing-faces", "face-count",
                         "inadmissible-word", "unknown-face-target",
                         "face-dimension", "identity",
                         "faces-for-unknown-cell"}

    def test_missing_faces_under_a_2_cell_are_reported(self):
        """A face table that an identity reads is missing or short: the
        lower cell is reported, and the cell above is left unchecked."""
        levels = [["a"], ["e", "f", "g"], ["t"]]
        t = (nondeg("e"), nondeg("f"), nondeg("g"))
        loop = (nondeg("a"), nondeg("a"))
        X = SimplicialSet(levels, {"f": loop, "g": loop, "t": t})
        assert validate(X) == validate_oracle(X) == [("missing-faces", "e")]
        X = SimplicialSet(levels, {"e": loop[:1], "f": loop, "g": loop,
                                   "t": t})
        assert validate(X) == validate_oracle(X) == [("face-count", "e", 1)]

    @pytest.mark.parametrize("word", [(1,), (-1,), (2, 0)])
    def test_face_word_out_of_range(self, word):
        """A strictly decreasing face word with an index outside 0..n-2 is
        not a degeneracy of an (n-1)-simplex."""
        n = len(word) + 1
        X = SimplicialSet([["a"]] + [[]] * (n - 1) + [["t"]],
                          {"t": (Simplex(word, "a"),) +
                           (Simplex(tuple(range(n - 2, -1, -1)), "a"),) * n})
        assert validate(X) == [("inadmissible-word", "t", 0)]


class TestVerifyMapAgainstOracle:
    def test_corruption_suite(self):
        rng = random.Random(1732)
        kinds = set()
        pool = _complex_pool(3141, 16)
        maps = [identity_map(X) for X in pool]
        maps += [random_collapse_map(rng, X) for X in pool]
        maps += [constant_map(X, point(), "0") for X in pool]
        for f in maps:
            assert verify_map(f) == verify_map_oracle(f) == []
            for _ in range(12):
                g = _corrupt_map(f, rng)
                got = verify_map(g)
                assert got == verify_map_oracle(g)
                kinds.update(p[0] for p in got)
        assert kinds == {"unassigned", "dimension", "inadmissible-word",
                         "face"}

    @pytest.mark.parametrize("word", [(1,), (-1,)])
    def test_image_word_out_of_range(self, word):
        f = SimplicialMap(standard_simplex(1), point(),
                          {"0": nondeg("0"), "1": nondeg("0"),
                           "0.1": Simplex(word, "0")})
        assert verify_map(f) == [("inadmissible-word", "0.1")]


def _unheld_doc(X, tag):
    """The document of X with every cell renamed tag + name: a value that
    no live complex holds, so parsing it builds a fresh complex."""
    doc = sset_doc_oracle(X)
    return {"cells": [[tag + c for c in l] for l in doc["cells"]],
            "faces": {tag + c: [[w, tag + d] for w, d in fs]
                      for c, fs in doc["faces"].items()}}


class TestParsedSimplices:
    def test_round_trip(self):
        for X in _complex_pool(1618, 30):
            assert sset_from_doc(sset_doc(X)) == X

    def test_equal_nondegenerate_faces_are_one_object(self):
        shared = 0
        for X in _complex_pool(1619, 10):
            doc = _unheld_doc(X, "parsed:")
            Y = sset_from_doc(doc)
            seen = {}
            for c in Y.all_cells():
                for f in (Y.cell_faces(c) if Y.cell_dim(c) else ()):
                    if not f.word:
                        shared += f in seen
                        assert seen.setdefault(f, f) is f
            assert sset_doc_oracle(Y) == doc
        assert shared > 0

    def test_assignment_shares_nondegenerate_images(self):
        a = assignment_from_doc({"x": [[], "p"], "y": [[], "p"],
                                 "z": [[0], "p"]})
        assert a["x"] is a["y"]
        assert a == {"x": nondeg("p"), "y": nondeg("p"),
                     "z": Simplex((0,), "p")}


def _fixture_complexes():
    """Every complex of the fixture diagrams and maps, and the standard
    simplices, boundaries and horns up to dimension 3."""
    diagrams = [free_z2_orbit(), trivial_z2_orbit(), z2_two_orbits(),
                two_points_diagram(), interval_plus_point(),
                arrow_orbit(standard_simplex(1)), z2_collapse().source,
                z2_collapse().target]
    out = [X for D in diagrams for X in D.at.values()]
    f = empty_to_point_map()
    out += [f.source, f.target]
    out += [standard_simplex(n) for n in range(4)]
    out += [boundary(n) for n in range(4)]
    out += [horn(n, k) for n in range(1, 4) for k in range(n + 1)]
    return out


def _z2_example_complexes():
    path = pathlib.Path(__file__).parent / "data" / "z2_example.json"
    sets = json.loads(path.read_text(encoding="utf-8"))["simplicial_sets"]
    return [sset_from_doc(doc, name) for name, doc in sorted(sets.items())]


def _index_from_faces(X, m):
    """_boundary_index(m) rebuilt from fresh face() results."""
    idx = {}
    for s in X.simplices(m):
        bd = tuple(X.face(s, i) for i in range(m + 1)) if m else ()
        idx.setdefault(bd, []).append(s)
    return {k: tuple(v) for k, v in idx.items()}


class TestSharedSimplicialData:
    """Documents, simplices and boundary indexes share the complex's own
    immutable data instead of copying it."""

    def test_doc_bytes_match_the_list_serializer(self):
        pool = (_fixture_complexes() + _z2_example_complexes()
                + _complex_pool(2024, 30))
        assert any(f.word for X in pool for c in X.all_cells()
                   if X.cell_dim(c) for f in X.cell_faces(c))
        for X in pool:
            doc = sset_doc(X)
            assert canonical_json(doc) == canonical_json(sset_doc_oracle(X))
            assert json.dumps(doc) == json.dumps(sset_doc_oracle(X))

    def test_doc_is_the_complex_tuples(self):
        for X in _complex_pool(2025, 10):
            doc = sset_doc(X)
            assert doc["cells"] is X.levels
            for c, fs in doc["faces"].items():
                assert fs is X.cell_faces(c)

    def test_memos_are_built_on_first_use(self):
        for X in _complex_pool(2026, 10):
            Y = sset_from_doc(_unheld_doc(X, "memo:"))
            assert validate(Y) == []
            assert Y._simplices_cache is None and Y._bd_index is None
            assert not hasattr(Y, "__dict__")
            Y._boundary_index(1)
            assert Y._simplices_cache is not None
            assert Y._bd_index is not None

    def test_boundary_index_keys_are_canonical_simplices(self):
        for X in _fixture_complexes() + _complex_pool(2027, 20):
            for m in range(X.dim + 2):
                got = X._boundary_index(m)
                assert list(got.items()) == list(
                    _index_from_faces(X, m).items())
                if m == 0:
                    assert got.get((), ()) is X.simplices(0) or not got
                    continue
                members = {id(s) for s in X.simplices(m - 1)}
                assert all(id(f) in members for key in got for f in key)

    def test_equal_words_are_one_object(self):
        X = standard_simplex(2)
        Y = product(standard_simplex(1), standard_simplex(1)).space
        for n in range(1, 5):
            words = {s.word: s.word for s in X.simplices(n) if s.word}
            shared = [s.word for s in Y.simplices(n) if s.word in words]
            assert shared
            assert all(w is words[w] for w in shared)


class TestInterning:
    """Construction is hash-consed: while a complex is alive, building an
    equal value returns it.  Stray face entries opt out."""

    def test_equal_complexes_built_apart_are_one_object(self):
        X = SimplicialSet([["a", "b"], ["e"]],
                          {"e": (nondeg("b"), nondeg("a"))})
        assert SimplicialSet([("a", "b"), ("e",), ()],
                             {"e": [[(), "b"], [[], "a"]]}) is X
        for Y in _complex_pool(2718, 10) + _fixture_complexes():
            assert sset_from_doc(sset_doc_oracle(Y)) is Y
            assert sset_from_doc(json.loads(json.dumps(sset_doc(Y)))) is Y
        for K in (standard_simplex(2), boundary(2), horn(2, 1)):
            left, right = product(point(), K), product(K, point())
            assert left is not right and left.space is right.space

    def test_stray_face_entry_is_a_fresh_object(self):
        levels = [["a", "b"], ["e"]]
        faces = {"e": (nondeg("b"), nondeg("a"))}
        X = SimplicialSet(levels, faces)
        stray = dict(faces, ghost=(nondeg("a"),))
        Z1, Z2 = SimplicialSet(levels, stray), SimplicialSet(levels, stray)
        assert Z1 is not X and Z2 is not Z1
        assert Z1 == X and hash(Z1) == hash(X)
        assert validate(Z1) == [("faces-for-unknown-cell", "ghost")]
        assert validate(X) == []
        assert SimplicialSet(levels, faces) is X

    def test_table_keeps_nothing_alive(self):
        table = SimplicialSet._interned
        gc.collect()
        before = len(table)
        X = SimplicialSet([["weak:a", "weak:b"], ["weak:e"]],
                          {"weak:e": (nondeg("weak:b"), nondeg("weak:a"))})
        X._boundary_index(1)
        assert len(table) == before + 1
        ref = weakref.ref(X)
        del X
        gc.collect()
        assert ref() is None
        assert len(table) == before

    def test_hash_is_the_hash_of_the_key(self):
        for X in _complex_pool(2719, 20) + _fixture_complexes():
            key = (X.levels, tuple(X.cell_faces(c) if X.cell_dim(c) else None
                                   for c in X.all_cells()))
            assert hash(X) == hash(key)

    def test_memos_are_seen_through_an_equal_handle(self):
        for X in _complex_pool(2720, 10):
            doc = _unheld_doc(X, "handle:")
            Y = sset_from_doc(doc)
            assert Y._simplices_cache is None and Y._bd_index is None
            index = Y._boundary_index(1)
            simplices = Y.simplices(1)
            Z = sset_from_doc(doc)
            assert Z is Y
            assert Z._boundary_index(1) is index and Z.simplices(1) is simplices


# ---------------------------------------------------------------------------
# quotients and components against the traversal and per-class oracles


def _random_pairs(X, rng):
    """Zero to four pairs of simplices of X of equal dimension, degenerate
    ones and dimensions above X's included, some pairs equal."""
    pairs = []
    for _ in range(rng.randint(0, 4)):
        n = rng.randint(0, X.dim + 1)
        simplices = X.simplices(n)
        if simplices:
            pairs.append((rng.choice(simplices), rng.choice(simplices)))
    return pairs


class TestComponentsAndQuotients:
    """pi0 is the union-find coequalizer of d_0 and d_1, and quotient reads
    its classes off through glue.normal_form_complex; both agree with the
    former traversal and per-class extraction."""

    def test_pi0_matches_the_traversal(self):
        rng = random.Random(1414)
        pool = _complex_pool(1413, 30) + _fixture_complexes() + [
            random_sset(rng, max_cells=12) for _ in range(30)]
        for X in pool:
            classes = pi0(X)
            assert classes == pi0_dfs_oracle(X)
            assert len(classes) == pi0_oracle(X)
        assert pi0(SimplicialSet([], {})) == ()

    def test_pi0_classes_in_first_vertex_order_with_sorted_members(self):
        X = SimplicialSet([["d", "a", "c", "b"], ["e", "f"]],
                          {"e": (nondeg("b"), nondeg("d")),
                           "f": (nondeg("a"), nondeg("a"))})
        assert pi0(X) == pi0_dfs_oracle(X) == (("b", "d"), ("a",), ("c",))

    def test_quotient_matches_the_extraction(self):
        rng = random.Random(1415)
        checked = 0
        for X in _complex_pool(1416, 30) + _fixture_complexes():
            for _ in range(4):
                pairs = _random_pairs(X, rng)
                q = quotient(X, pairs)
                space, projection, rep_of = quotient_oracle(X, pairs)
                assert q.space == space and q.space.levels == space.levels
                assert all(q.space.cell_faces(c) == space.cell_faces(c)
                           for level in space.levels[1:] for c in level)
                assert q.projection == projection
                assert q.rep_of == rep_of
                assert verify_map(q.projection) == []
                checked += bool(pairs)
        assert checked > 100

    def test_quotient_identifying_a_face_with_a_degeneracy(self):
        X = standard_simplex(2)
        for pairs in ([(nondeg("0.1"), Simplex((0,), "0"))],
                      [(nondeg("0.1.2"), Simplex((1,), "0.2"))],
                      [(nondeg("0.1"), nondeg("1.2")),
                       (nondeg("0"), nondeg("2"))]):
            q = quotient(X, pairs)
            assert (q.space, q.projection, q.rep_of) == quotient_oracle(
                X, pairs)
