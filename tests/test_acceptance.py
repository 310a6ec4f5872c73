"""The acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  All checks are exact (oracle- or property-based);
runtimes are enforced with generous margins below the stated limits."""

import random
import time

from eqloc.cat import (
    DiagramMap,
    coproduct_D,
    hom_D,
    identity_dmap,
    tensor,
    tensor_map,
    terminal_category,
    terminal_dmap,
    wrap_smap,
    wrap_sset,
)
from eqloc.fixtures import (
    arrow_orbit,
    empty_to_point_map,
    free_z2_orbit,
    interval_plus_point,
    trivial_z2_orbit,
    two_points_diagram,
    z2_category,
    z2_two_orbits,
)
from eqloc.homotopy import is_kan, pi0
from eqloc.localization import (
    LocalizationCaps,
    LocalizationSpec,
    arrow_isomorphic,
    extend_to_local,
    extension_uniqueness,
    horns_of,
    localize,
)
from eqloc.orbits import orbits_of
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary_inclusion,
    empty_simplicial_set,
    hom_set,
    nondeg,
    point,
    standard_simplex,
)
from eqloc.soa import (
    ArrowSquare,
    Budget,
    find_lift,
    rlp_check,
    setup_I,
    setup_from_set,
    small_object_argument,
    soa_functorial,
    verify_pullback_over_colim,
)
from eqloc.cat import empty_dmap_into
from oracles import naive_hom, pi0_oracle, random_collapse_map, random_sset, \
    rlp_oracle


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_classical_recovery(self):
        """Factorizing Delta^1 + Delta^0 -> Delta^0 with the boundary setup
        yields a map lifting against every boundary inclusion up to n = 3."""
        start = time.time()
        budget = Budget(stages=4, n_cap=3, dim_cap=0)
        f = terminal_dmap(interval_plus_point())
        r = small_object_argument(f, setup_I(budget))
        ok = r.stopped_by == "stabilization" and r.n_stages <= 4
        detail = f"{r.n_stages} stages"
        for n in range(4):
            rep = rlp_check(wrap_smap(boundary_inclusion(n)), r.delta)
            ok = ok and rep.holds
            detail += f"; bd({n}): {rep.n_squares} squares"
        elapsed = time.time() - start
        ok = ok and elapsed < 60
        report("criterion 1: classical recovery", ok,
               detail + f"; {elapsed:.1f}s < 60s")

    def test_02_q1_decomposition(self):
        """For a free-cell attachment over Z/2 the mapping counts decompose
        exactly as hom(-, X_a) + hom(-, T) * |L_n minus K_n|."""
        from eqloc.simplicial import boundary
        start = time.time()
        T = free_z2_orbit()
        # two free copies to attach along, plus a fixed summand so the
        # trivial-orbit counts are nonzero
        X_a = coproduct_D([T, T, trivial_z2_orbit()]).diagram
        t_bd = tensor(T, boundary(1))
        incl = tensor_map(identity_dmap(T), boundary_inclusion(1))
        # the attachment sends the 0-end into the first copy, the 1-end into
        # the second: vertex (t, i) of T x bd(1) goes to copy i
        comps = {}
        for d in T.shape.objects:
            tc = t_bd.tcs[d]
            assignment = {}
            for cell in tc.space.all_cells():
                u, v = tc.coords[cell]
                copy = v.cell  # "0" or "1"
                assignment[cell] = nondeg(f"{int(copy)}:{u.cell}")
            comps[d] = SimplicialMap(tc.space, X_a.at[d], assignment)
        attach = DiagramMap(t_bd.diagram, X_a, comps)
        from eqloc.cat import pushout_D, validate_dmap
        assert validate_dmap(attach) == []
        po = pushout_D([(attach, incl)])
        X_a1 = po.diagram
        from eqloc.simplicial import is_injective
        assert all(is_injective(po.legs[1].components[d])
                   for d in T.shape.objects), "lower edge must be injective"
        diff = {0: 0, 1: 1, 2: 2}  # |Delta^1_n| - |bd Delta^1_n|
        ok = True
        detail = []
        for Tp in (free_z2_orbit(), trivial_z2_orbit()):
            for n in range(3):
                TpD = tensor(Tp, standard_simplex(n)).diagram
                lhs = len(hom_D(TpD, X_a1))
                rhs = len(hom_D(TpD, X_a)) + len(hom_D(TpD, T)) * diff[n]
                ok = ok and lhs == rhs
                detail.append(f"n={n}:{lhs}={rhs}")
        elapsed = time.time() - start
        ok = ok and elapsed < 120
        report("criterion 2: Q1 decomposition", ok,
               ", ".join(detail) + f"; {elapsed:.1f}s < 120s")

    def test_03_pullback_over_colim(self):
        """Every stage square of every emitted trace is a pullback over the
        colimit, checked by the universal property."""
        traces = []
        traces.append(small_object_argument(
            terminal_dmap(free_z2_orbit()),
            setup_I(Budget(stages=2, n_cap=1, dim_cap=1))))
        traces.append(small_object_argument(
            terminal_dmap(z2_two_orbits()),
            setup_I(Budget(stages=2, n_cap=1, dim_cap=1))))
        traces.append(small_object_argument(
            terminal_dmap(interval_plus_point()),
            setup_I(Budget(stages=3, n_cap=2, dim_cap=0))))
        spec = LocalizationSpec(
            z2_category(), fixedpointwise=empty_to_point_map(),
            caps=LocalizationCaps(hor_n_cap=1, j_n_cap=1, dim_cap=1,
                                  stages=2, hom_cap=1, probe_n_cap=1))
        traces.append(localize(z2_two_orbits(), spec).trace)
        n_squares = 0
        ok = True
        for tr in traces:
            for stage in tr.stages:
                n_squares += 1
                ok = ok and verify_pullback_over_colim(stage.stage_map)
        report("criterion 3: pullback over colimit", ok,
               f"{n_squares} stage squares across {len(traces)} traces")

    def test_04_functoriality(self):
        """xi satisfies both commuting squares and the composite law on a
        3-chain, with exact equality of maps."""
        # chain with the set-based instrumentation
        member = wrap_smap(SimplicialMap(empty_simplicial_set(), point(), {}))
        instr = setup_from_set([member], name="M", budget=Budget(stages=1))
        Y1 = wrap_sset(point())
        Y2 = wrap_sset(SimplicialSet([["u", "v"]], {}))
        Y3 = wrap_sset(SimplicialSet([["w"]], {}))
        f1, f2, f3 = (empty_dmap_into(Y) for Y in (Y1, Y2, Y3))
        e = identity_dmap(f1.source)
        g12 = ArrowSquare(f1, f2, e, wrap_smap(SimplicialMap(
            point(), Y2.at["*"], {"0": ((), "u")})))
        g23 = ArrowSquare(f2, f3, e, wrap_smap(SimplicialMap(
            Y2.at["*"], Y3.at["*"], {"u": ((), "w"), "v": ((), "w")})))
        g13 = ArrowSquare(f1, f3, e, g12.lower.then(g23.lower))
        rs = [small_object_argument(f, instr, stages=1, strict=True)
              for f in (f1, f2, f3)]
        xi12 = soa_functorial(g12, rs[0], rs[1], instr)
        xi23 = soa_functorial(g23, rs[1], rs[2], instr)
        xi13 = soa_functorial(g13, rs[0], rs[2], instr)
        ok = xi12.then(xi23) == xi13
        # the two commuting conditions with the orbit instrumentation
        instrI = setup_I(Budget(stages=1, n_cap=0, dim_cap=1))
        rI1 = small_object_argument(f1, instrI, stages=1, strict=True)
        rI2 = small_object_argument(f2, instrI, stages=1, strict=True)
        xiI = soa_functorial(g12, rI1, rI2, instrI)
        ok = ok and rI1.gamma.then(xiI) == g12.upper.then(rI2.gamma)
        ok = ok and xiI.then(rI2.delta) == rI1.delta.then(g12.lower)
        report("criterion 4: functoriality of the factorization", ok,
               "composite law on 3-chain and both commuting squares exact")

    def test_05_cofibrancy_instances(self):
        """For five fixture diagrams, a section of the generated trivial
        fibration (a setup_I delta over the diagram) exists and is found."""
        fixtures = [
            ("two points", two_points_diagram(),
             Budget(stages=3, n_cap=1, dim_cap=0)),
            ("interval plus point", interval_plus_point(),
             Budget(stages=4, n_cap=2, dim_cap=0)),
            ("free Z/2 orbit", free_z2_orbit(),
             Budget(stages=3, n_cap=1, dim_cap=1)),
            ("Z/2 two orbits", z2_two_orbits(),
             Budget(stages=3, n_cap=1, dim_cap=1)),
            ("arrow orbit", arrow_orbit(SimplicialSet([["u", "v"]], {})),
             Budget(stages=3, n_cap=1, dim_cap=1)),
        ]
        ok = True
        details = []
        for name, X, budget in fixtures:
            f = empty_dmap_into(X)
            r = small_object_argument(f, setup_I(budget))
            section = find_lift(empty_dmap_into(X), r.delta,
                                empty_dmap_into(r.delta.source),
                                identity_dmap(X))
            good = (r.stopped_by == "stabilization" and section is not None
                    and section.then(r.delta) == identity_dmap(X))
            ok = ok and good
            details.append(f"{name}: {'lift found' if good else 'FAILED'}")
        report("criterion 5: cofibrancy instances", ok, "; ".join(details))

    def test_06_hor_computation(self):
        """Hor({empty -> point}) equals the boundary inclusions, as arrows
        up to isomorphism, for every n up to the cap."""
        gen = wrap_smap(empty_to_point_map())
        cap = 3
        horns = horns_of([gen], cap)
        ok = len(horns) == cap + 1
        for h in horns:
            ok = ok and arrow_isomorphic(
                h.arrow, wrap_smap(boundary_inclusion(h.n)))
        report("criterion 6: horn computation", ok,
               f"Hor = boundary inclusions for n <= {cap}")

    def test_07_fixed_pointwise_localization(self):
        """Localizing the free + trivial Z/2 diagram at empty -> point makes
        both fixed-point spaces connected and fibrant at the caps."""
        start = time.time()
        caps = LocalizationCaps(hor_n_cap=2, j_n_cap=1, probe_n_cap=2,
                                dim_cap=1, hom_cap=2, pi_cap=0, stages=3)
        spec = LocalizationSpec(z2_category(),
                                fixedpointwise=empty_to_point_map(),
                                caps=caps)
        r = localize(z2_two_orbits(), spec)
        ok = r.trace.n_stages <= 3 and r.trace.stopped_by == "stabilization"
        from eqloc.cat import hom_complex
        orbits = orbits_of(free_z2_orbit(), trivial_z2_orbit())
        details = [f"{r.trace.n_stages} stages"]
        for i, T in enumerate(orbits):
            M = hom_complex(T, r.local_object, caps.hom_cap).space
            comps = len(pi0(M))
            kan = is_kan(M, 2)
            ok = ok and comps == 1 and kan
            details.append(f"orbit {i}: pi0={comps}, horn-RLP(n<=2)={kan}")
        elapsed = time.time() - start
        ok = ok and elapsed < 300
        report("criterion 7: fixed-pointwise localization", ok,
               "; ".join(details) + f"; {elapsed:.1f}s < 300s")

    def test_08_initiality(self):
        """Extensions over the coaugmentation exist and are unique up to
        simplicial homotopy, on local targets."""
        spec = LocalizationSpec(
            terminal_category(),
            generators=[wrap_smap(empty_to_point_map())],
            caps=LocalizationCaps())
        X = two_points_diagram()
        r = localize(X, spec)
        ok = r.locality.value == "yes"
        # a map into the genuinely local terminal diagram
        g = terminal_dmap(X)
        lift = extend_to_local(g, r)
        ok = ok and r.j.then(lift) == g
        rep = extension_uniqueness(g, r)
        ok = ok and len(rep.lifts) >= 1 and rep.all_homotopic
        # the coaugmentation extended over itself: identity among the lifts
        rep2 = extension_uniqueness(r.j, r)
        ok = ok and identity_dmap(r.local_object) in rep2.lifts
        ok = ok and rep2.all_homotopic
        report("criterion 8: initiality of the localization", ok,
               f"{len(rep.lifts)} lift(s) to the point, "
               f"{len(rep2.lifts)} self-lift(s), all homotopic")

    def test_09_idempotency(self):
        """Localizing a stabilized local object performs zero stages."""
        specs = []
        specs.append((LocalizationSpec(
            terminal_category(),
            generators=[wrap_smap(empty_to_point_map())],
            caps=LocalizationCaps()), two_points_diagram()))
        specs.append((LocalizationSpec(
            z2_category(), fixedpointwise=empty_to_point_map(),
            caps=LocalizationCaps(hor_n_cap=1, j_n_cap=1, probe_n_cap=1,
                                  dim_cap=1, hom_cap=1, stages=2)),
            z2_two_orbits()))
        ok = True
        details = []
        for spec, X in specs:
            r = localize(X, spec)
            again = localize(r.local_object, spec)
            good = (r.trace.stopped_by == "stabilization"
                    and again.trace.n_stages == 0)
            ok = ok and good
            details.append(f"{spec.mode}: {again.trace.n_stages} stages")
        report("criterion 9: idempotency", ok, "; ".join(details))

    def test_10_oracle_equivalence(self):
        """hom_set, pi0 and rlp_check agree with independent brute-force
        oracles on 200 seeded random instances of at most 10 cells."""
        start = time.time()
        from eqloc.simplicial import boundary, horn_inclusion
        rng = random.Random(19120423)
        n_hom = n_pi = n_rlp = 0
        small_sources = [point(), SimplicialSet([["a", "b"]], {}),
                         standard_simplex(1), boundary(2)]
        for trial in range(200):
            X = random_sset(rng, max_cells=10)
            # pi0 against the union-find oracle
            assert len(pi0(X)) == pi0_oracle(X), f"pi0 trial {trial}"
            n_pi += 1
            # hom_set against the filtered-product oracle
            src = rng.choice(small_sources)
            fast = hom_set(src, X)
            slow = naive_hom(src, X)
            assert len(fast) == len(slow) == len(set(fast) | set(slow)), \
                f"hom trial {trial}"
            n_hom += 1
            # rlp against the unpruned filter oracle
            p = random_collapse_map(rng, X)
            n = rng.choice([1, 1, 2])
            k = rng.randint(0, n)
            i = horn_inclusion(n, k)
            fast_rlp = rlp_check(wrap_smap(i), wrap_smap(p)).holds
            slow_rlp = rlp_oracle(i, p)
            assert fast_rlp == slow_rlp, f"rlp trial {trial}"
            n_rlp += 1
        elapsed = time.time() - start
        ok = n_hom == n_pi == n_rlp == 200 and elapsed < 600
        report("criterion 10: oracle equivalence", ok,
               f"200 instances each for hom_set/pi0/rlp_check; "
               f"{elapsed:.1f}s < 600s")
