"""Localization functors: horns of a class of maps, the instrumented class
K = J with the horns adjoined, locality and local-equivalence probes, and
fixed-pointwise localization with respect to a map of simplicial sets.

Two kinds of generators are accepted: a finite set S of levelwise-injective
diagram maps, and a single map f of simplicial sets presenting the class
{f tensored with every orbit}.  Localization factors X -> point through the
generalized small object argument for the combined class.
"""

from __future__ import annotations

import functools
from typing import Optional

from .cat import (
    Diagram,
    DiagramMap,
    Record,
    SmallCategory,
    cotensor_restriction,
    hom_complex,
    hom_complex_pre,
    identity_dmap,
    pushout_D,
    tensor_map,
    terminal_dmap,
    wrap_sset,
)
from .glue import induced_tuple_map, product
from .homotopy import (
    INCONCLUSIVE,
    NO,
    YES,
    Verdict,
    cylinder,
    is_kan,
    pi0,
    pi_n,
    sset_weq_probe,
    weq_probe_all,
)
from .orbits import isomorphisms
from .simplicial import (
    SimplicialMap,
    boundary,
    boundary_inclusion,
    identity_map,
    is_injective,
    is_isomorphism,
    standard_simplex,
)
from .soa import (
    Budget,
    CornerMember,
    FactorizationResult,
    Instrumentation,
    PullbackHomFamily,
    extensions,
    find_lift,
    first_unlifted,
    fixed_points,
    setup_J,
    setup_from_set,
    setup_union,
    small_object_argument,
)


class LocalizationCaps(Record, frozen=True):
    """Finite truncation parameters for localization runs.

    hor_n_cap bounds the pushout-product exponent of the horn class; j_n_cap
    bounds the horn-filler family glued during factorization (horn fillers
    bring fresh cells with them and never stabilize, so this is kept below
    the probe cap); probe_n_cap is the cap at which locality reports check
    horn lifting; dim_cap truncates the mapping-complex pullbacks.
    """

    hor_n_cap: int = 2
    j_n_cap: int = 1
    probe_n_cap: int = 2
    dim_cap: int = 1
    hom_cap: int = 2
    pi_cap: int = 0
    stages: int = 3
    uniqueness_limit: int = 6


class LocalizationSpec:
    """Generators of a localization: a finite set S, or a single map of
    simplicial sets in fixed-pointwise mode."""

    def __init__(self, shape: SmallCategory, generators=None, fixedpointwise=None,
                 caps: LocalizationCaps = LocalizationCaps()):
        if (generators is None) == (fixedpointwise is None):
            raise ValueError("exactly one of generators/fixedpointwise required")
        self.shape = shape
        self.generators = tuple(generators) if generators is not None else None
        self.f = fixedpointwise
        self.caps = caps

    @property
    def mode(self) -> str:
        return "set" if self.generators is not None else "fixedpointwise"


def validate_spec(spec: LocalizationSpec):
    """Generators must be levelwise injections over the spec's shape and
    non-trivial."""
    problems = []
    if spec.mode == "set":
        for idx, g in enumerate(spec.generators):
            if g.source.shape != spec.shape:
                problems.append(("shape-mismatch", idx))
            elif not all(is_injective(g.components[d])
                         for d in g.source.shape.objects):
                problems.append(("not-injective", idx))
            elif all(is_isomorphism(g.components[d]) is not None
                     for d in g.source.shape.objects):
                problems.append(("trivial-generator", idx))
    else:
        f = spec.f
        if not is_injective(f):
            problems.append(("not-injective", "f"))
        elif is_isomorphism(f) is not None:
            problems.append(("trivial-generator", "f"))
    return problems


# ---------------------------------------------------------------------------
# horns of a set of maps


class Horn(Record):
    """The pushout-product of a generator with a boundary inclusion."""

    arrow: DiagramMap
    generator_index: int
    n: int


def horns_of(generators, n_cap):
    """Hor(S): pushout-products of each generator with bd(n) in Delta^n."""
    out = []
    for idx, f in enumerate(generators):
        A, B = f.source, f.target
        for n in range(n_cap + 1):
            incl = boundary_inclusion(n)
            a_incl = tensor_map(identity_dmap(A), incl)
            f_bd = tensor_map(f, identity_map(boundary(n)))
            po = pushout_D([(a_incl, f_bd)])
            arrow = po.mediate([
                tensor_map(f, identity_map(standard_simplex(n))),
                tensor_map(identity_dmap(B), incl)])
            out.append(Horn(arrow=arrow, generator_index=idx, n=n))
    return tuple(out)


def class_K(spec: LocalizationSpec, probe: bool = False) -> Instrumentation:
    """The instrumented class J with the horns of the generators adjoined.

    Disjointness of the two classes is guaranteed by non-triviality of the
    generators.  With probe=True the horn-filler family is capped at the
    probe cap instead of the gluing cap, for locality checks.
    """
    problems = validate_spec(spec)
    if problems:
        raise ValueError(f"invalid localization generators: {problems}")
    caps = spec.caps
    j_cap = caps.probe_n_cap if probe else caps.j_n_cap
    j = setup_J(Budget(stages=caps.stages, n_cap=j_cap, dim_cap=caps.dim_cap))
    if spec.mode == "set":
        horns = horns_of(spec.generators, caps.hor_n_cap)
        hor = setup_from_set([h.arrow for h in horns], name="Hor",
                             budget=Budget(stages=caps.stages,
                                           n_cap=caps.hor_n_cap,
                                           dim_cap=caps.dim_cap))
    else:
        hor = hor_F_instrumentation(spec.f, caps)
    return setup_union(j, hor, name="K")


# ---------------------------------------------------------------------------
# the fixed-pointwise instrumentation (class F = {f tensor T})


@functools.cache
def _corners(f: SimplicialMap, n) -> CornerMember:
    """The Hor(F) member at exponent n: the pushout-product corner
    Delta^n x A u bd x B -> Delta^n x B of f: A -> B, its two X-corners
    glued along bd x A.  Cached: the run and probe families share it."""
    A, B = f.source, f.target
    dn, bdn = standard_simplex(n), boundary(n)
    incl = boundary_inclusion(n)
    dB, bB = product(dn, B), product(bdn, B)
    dA, bA = product(dn, A), product(bdn, A)
    bB_dB = induced_tuple_map(bB, dB, (incl, identity_map(B)))
    bA_bB = induced_tuple_map(bA, bB, (identity_map(bdn), f))
    bA_dA = induced_tuple_map(bA, dA, (incl, identity_map(A)))
    dA_dB = induced_tuple_map(dA, dB, (identity_map(dn), f))
    return CornerMember(
        (n,), ((0, bB.space), (1, dB.space), (0, dA.space)),
        # the arrow's images of both X-corners are restrictions of the
        # Y-corner, and the X-corners agree on bd x A
        ((0, None, 1, bB_dB), (0, bA_bB, 2, bA_dA), (2, None, 1, dA_dB)),
        ((2, dA_dB), (0, bB_dB)), span=(bA_dA, bA_bB))


def hor_F_instrumentation(f: SimplicialMap,
                          caps: LocalizationCaps) -> Instrumentation:
    """Instrumentation of Hor(F) for F = {f (x) T over all orbits T}."""
    budget = Budget(stages=caps.stages, n_cap=caps.hor_n_cap,
                    dim_cap=caps.dim_cap)
    members = [_corners(f, n) for n in range(caps.hor_n_cap + 1)]
    return Instrumentation(
        "HorF", [PullbackHomFamily("HorF", members, caps.dim_cap)], budget)


# ---------------------------------------------------------------------------
# localization runs and locality probes


class LocalizationResult(Record):
    local_object: Diagram
    j: DiagramMap                 # the coaugmentation X -> L X
    trace: FactorizationResult
    locality: Verdict
    spec: LocalizationSpec


def localize(X: Diagram, spec: LocalizationSpec) -> LocalizationResult:
    """Factor X -> point through the instrumented class K = J + horns.

    The cellular factor is the coaugmentation; budget exhaustion is flagged
    on the trace and reflected in the locality verdict.
    """
    instr = class_K(spec)
    r = small_object_argument(terminal_dmap(X), instr)
    local_object = r.gamma.target
    verdict = is_S_local(local_object, spec)
    return LocalizationResult(local_object=local_object, j=r.gamma,
                              trace=r, locality=verdict, spec=spec)


def is_S_local(Z: Diagram, spec: LocalizationSpec) -> Verdict:
    """Right lifting of Z -> point against every square that
    class_K(spec, probe=True) assigns, decided by soa.first_unlifted: the
    verdict names the first member, in that order, with a square that does
    not lift.  On a groupoid shape the pullback-hom families, J and HorF,
    are read off the fixed points of Z with no square built; the set
    family Hor searches a lift of each of its squares.
    """
    caps = ("hor_n_cap", spec.caps.hor_n_cap,
            "probe_n_cap", spec.caps.probe_n_cap,
            "dim_cap", spec.caps.dim_cap)
    member = first_unlifted(terminal_dmap(Z), class_K(spec, probe=True))
    if member is None:
        return Verdict(YES, caps)
    return Verdict(NO, caps, f"no lift for {member}")


def is_S_equivalence(g: DiagramMap, spec: LocalizationSpec,
                     probes) -> Verdict:
    """Mapping-space comparison against the supplied local diagrams.

    Cofibrant replacement is omitted: every diagram of simplicial sets is
    cofibrant in the equivariant structure.
    """
    caps = spec.caps
    budget = Budget(stages=caps.stages, n_cap=caps.pi_cap + 1, dim_cap=0)
    return weq_probe_all((hom_complex_pre(g, P, caps.hom_cap)
                          for P in probes), "probe", caps.pi_cap, budget,
                         ("pi_cap", caps.pi_cap, "hom_cap", caps.hom_cap))


class ObstructedLift(Exception):
    def __init__(self, square):
        super().__init__(f"no lift against {square.member_id}")
        self.square = square


def extend_to_local(g: DiagramMap, result: LocalizationResult) -> DiagramMap:
    """Extend g: X -> P over the coaugmentation j: X -> L X.

    Walks the trace: every attached square's top lifts against P -> point
    because P is local, and the pushout mediators assemble the extension.
    Raises ObstructedLift with the failing square when P is not local enough
    at the caps.
    """
    if g.source != result.j.source:
        raise ValueError("extend_to_local needs g out of the source of j")
    t = terminal_dmap(g.target)
    h = g
    for stage in result.trace.stages:
        lifts = []
        for idx in stage.attached:
            sq = stage.squares[idx]
            lift = find_lift(sq.top, t, sq.left.then(h),
                             terminal_dmap(sq.top.target))
            if lift is None:
                raise ObstructedLift(sq)
            lifts.append(lift)
        h = stage.pushout.mediate([h, *lifts])
    if result.j.then(h) != g:
        raise ValueError("extension does not restrict to g along j")
    return h


def simplicially_homotopic(l1: DiagramMap,
                           l2: DiagramMap) -> Optional[DiagramMap]:
    """A simplicial homotopy on the cylinder from l1 to l2, if one exists."""
    if l1.source != l2.source or l1.target != l2.target:
        raise ValueError("simplicially_homotopic needs parallel maps")
    cyl = cylinder(l1.source)
    found = extensions([(cyl.i0, l1), (cyl.i1, l2)], l1.target, limit=1)
    return found[0] if found else None


class ExtensionReport(Record):
    lifts: list
    all_homotopic: Optional[bool]
    truncated: bool


def extension_uniqueness(g: DiagramMap,
                         result: LocalizationResult) -> ExtensionReport:
    """Enumerate extensions of g over the coaugmentation, up to the spec's
    uniqueness_limit, and probe pairwise simplicial homotopy."""
    limit = result.spec.caps.uniqueness_limit
    lifts = extensions([(result.j, g)], g.target, limit=limit + 1)
    truncated = len(lifts) > limit
    lifts = lifts[:limit]
    verdict = True
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            if simplicially_homotopic(lifts[i], lifts[j]) is None:
                verdict = False
    return ExtensionReport(lifts=lifts, all_homotopic=verdict,
                           truncated=truncated)


# ---------------------------------------------------------------------------
# fixed-pointwise locality reports


class OrbitLocalityReport(Record):
    orbit_index: int
    fibrant: bool
    components: int
    trivial_pi: Optional[bool]
    local: Verdict


def fixed_point_locality_report(Z: Diagram, f: SimplicialMap, orbits,
                                caps: LocalizationCaps):
    """Per-orbit f-locality of the fixed-point spaces hom(T, Z), T in orbits.

    On a groupoid shape hom(T, Z) is read as soa.fixed_points(Z, T,
    hom_cap), which is isomorphic to the hom_complex(T, Z, hom_cap) that
    every other shape reads.

    For f: empty -> point the criterion is executed exactly: fibrant and
    contractible at the caps.  For general f the mapping-space criterion is
    evaluated with inconclusive verdicts where truncation bites.  Fibrancy
    is checked up to probe_n_cap but no higher than hom_cap, since M has no
    cells of its own above hom_cap and a horn there may lack fillers only
    because the truncation cut them off; a pass that stops below
    probe_n_cap is inconclusive.
    """
    empty_to_point = is_empty_to_point(f)
    groupoid = Z.shape.is_groupoid()
    at = ("probe_n_cap", caps.probe_n_cap, "pi_cap", caps.pi_cap)
    kan_cap = caps.pi_cap + 1
    fib_cap = min(caps.probe_n_cap, caps.hom_cap)
    reports = []
    for idx, T in enumerate(orbits):
        M = (fixed_points(Z, T, caps.hom_cap) if groupoid
             else hom_complex(T, Z, caps.hom_cap).space)
        fib = is_kan(M, fib_cap)
        comps = len(pi0(M))
        trivial = None
        if fib and fib_cap < caps.probe_n_cap:
            local = Verdict(INCONCLUSIVE, at, f"fixed points Kan up to "
                            f"hom_cap {caps.hom_cap} only")
        elif empty_to_point:
            # pi_n needs M Kan up to n + 1, which may lie above probe_n_cap
            kan = fib and (not caps.pi_cap or kan_cap <= caps.probe_n_cap
                           or is_kan(M, kan_cap))
            if kan:
                trivial = all(
                    len(pi_n(M, cls[0], n, kan_checked=True)) == 1
                    for cls in pi0(M) for n in range(1, caps.pi_cap + 1))
            ok = kan and comps == 1 and (trivial is None or trivial)
            local = Verdict(YES if ok else NO, at)
            if fib and not kan:
                # a horn of dimension <= hom_cap has all its fillers in M
                local = Verdict(NO if kan_cap <= caps.hom_cap else INCONCLUSIVE,
                                at, f"fixed points not Kan at {kan_cap}, "
                                f"hom_cap {caps.hom_cap}")
        else:
            wrapped = wrap_sset(M)
            restriction = cotensor_restriction(wrapped, f, caps.hom_cap)
            phi = restriction.components["*"]
            v = sset_weq_probe(phi, caps.pi_cap,
                               Budget(stages=caps.stages,
                                      n_cap=caps.pi_cap + 1, dim_cap=0))
            local = v if fib else Verdict(
                INCONCLUSIVE, v.caps, "fixed points not fibrant at caps")
        reports.append(OrbitLocalityReport(
            orbit_index=idx, fibrant=fib, components=comps,
            trivial_pi=trivial, local=local))
    return reports


def is_empty_to_point(f: SimplicialMap) -> bool:
    """Whether f is isomorphic to empty -> point."""
    return (f.source.dim == -1 and f.target.dim == 0
            and len(f.target.cells(0)) == 1)


def arrow_isomorphic(f: DiagramMap, g: DiagramMap) -> bool:
    """Isomorphism of arrows: isos of sources and targets commuting with them."""
    return any(phi.then(g) == f.then(psi)
               for psi in isomorphisms(f.target, g.target)
               for phi in isomorphisms(f.source, g.source))
