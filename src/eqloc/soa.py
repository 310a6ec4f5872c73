"""Factorization setups, instrumented classes, lifting search, hom(T, -)
for an orbit T (`orbit_hom`), the fill test by adjunction, and the
generalized small object argument with full traces and functorial action.

An instrumentation is a union of named families, each assigning to every
arrow a finite set of attachment squares, functorially in the arrow; each
square names its family in meta[0].  The argument iterates: glue in the
target of every attached square's top along its source, all in one pushout
of the squares' spans, and stop when every assigned square already lifts.
That stop is decided by `first_unlifted` before any square is assigned: on
a groupoid shape a pullback-hom family is decided by `simplicial.lifts` on
the fixed points of the arrow, so the last stage builds no cotensor, orbit
or square of such a family.  Transfinite stages are replaced by a stage
budget.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from .cat import (
    Diagram,
    DiagramMap,
    Record,
    adjoint_to_tensor,
    colim,
    colim_map,
    constant_diagram,
    cotensor,
    cotensor_map,
    cotensor_restriction,
    field,
    hom_D,
    hom_complex_post,
    identity_dmap,
    limit_D,
    pullback_D,
    pushout_D,
    tensor_map,
)
from .glue import pushout
from .orbits import OrbitMap, orbit_cap, orbit_naturality, orbit_setup
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary_inclusion,
    divide_word,
    enumerate_maps,
    horn_inclusion,
    identity_map,
    is_isomorphism,
    lifts,
    nondeg,
)


class Square(Record, frozen=True):
    """A commutative square from a class member (top) to an ambient arrow."""

    top: DiagramMap     # g: A -> B, the class member
    left: DiagramMap    # A -> X
    right: DiagramMap   # B -> Y
    bottom: DiagramMap  # X -> Y
    member_id: str
    meta: tuple = ()
    orbit: Optional[OrbitMap] = field(default=None, compare=False, repr=False)


def verify_square(sq: Square) -> bool:
    return sq.left.then(sq.bottom) == sq.top.then(sq.right)


class ArrowSquare(Record, frozen=True):
    """A morphism f1 -> f2 in the category of arrows: a commutative square."""

    source: DiagramMap  # f1
    target: DiagramMap  # f2
    upper: DiagramMap   # dom f1 -> dom f2
    lower: DiagramMap   # cod f1 -> cod f2

    def verify(self) -> bool:
        return self.source.then(self.lower) == self.upper.then(self.target)


class Budget(Record, frozen=True):
    """Finite stand-ins for the transfinite parameters of the argument."""

    stages: int = 4
    n_cap: int = 2
    dim_cap: int = 1


class Instrumentation:
    """A class of maps with a factorization setup and iteration budgets.

    The class is the union of its families, each a functorial choice of
    attachment squares with its own name.  assign maps an arrow to the
    squares of every family in family order, each family's in canonical
    order; transport hands a square to the family named by meta[0], which
    carries it along a morphism of arrows and returns the target square
    together with the connecting maps of tops.
    """

    def __init__(self, name, families, budget: Budget):
        self.name = name
        self.families = {}
        for fam in families:
            if fam.name in self.families:
                raise ValueError(f"instrumentation {name!r} has two "
                                 f"families named {fam.name!r}")
            self.families[fam.name] = fam
        self.budget = budget

    def assign(self, arrow: DiagramMap, assigned=None):
        """The squares of every family; assigned maps the names of families
        whose squares of this arrow are already built to those squares."""
        assigned = assigned or {}
        return tuple(sq for name, fam in self.families.items()
                     for sq in (assigned[name] if name in assigned
                                else fam.assign(arrow)))

    def transport(self, g: ArrowSquare, sq: Square):
        return self.families[sq.meta[0]].transport(g, sq)


# ---------------------------------------------------------------------------
# set-based setups


class SetFamily:
    """The factorization setup of a small subcategory: all maps from the
    members into the arrow, transported by postcomposition."""

    def __init__(self, name, members):
        self.name = name
        self.members = tuple(members)

    def assign(self, f: DiagramMap):
        return tuple(Square(top=m, left=a, right=b, bottom=f,
                            member_id=f"{self.name}#{idx}",
                            meta=(self.name, idx))
                     for idx, m in enumerate(self.members)
                     for a, b in commutative_squares(m, f))

    def transport(self, g: ArrowSquare, sq: Square):
        target = Square(top=sq.top,
                        left=sq.left.then(g.upper),
                        right=sq.right.then(g.lower),
                        bottom=g.target,
                        member_id=sq.member_id, meta=sq.meta)
        connect = (identity_dmap(sq.top.source), identity_dmap(sq.top.target))
        return target, connect


def setup_from_set(members, name="set", budget: Budget = Budget()):
    """The instrumentation of the one set family of the members."""
    return Instrumentation(name, [SetFamily(name, members)], budget)


def setup_union(a: Instrumentation, b: Instrumentation,
                name=None) -> Instrumentation:
    """The families of a, then those of b; family names must be disjoint."""
    budget = Budget(stages=max(a.budget.stages, b.budget.stages),
                    n_cap=max(a.budget.n_cap, b.budget.n_cap),
                    dim_cap=max(a.budget.dim_cap, b.budget.dim_cap))
    return Instrumentation(name or f"{a.name}+{b.name}",
                           [*a.families.values(), *b.families.values()],
                           budget)


def empty_instrumentation():
    return Instrumentation("empty", (), Budget())


# ---------------------------------------------------------------------------
# the pullback-hom orbit setups for I, J and Hor(F)


class CornerMember(Record, frozen=True):
    """One member T (x) (j: K -> L) of a pullback-hom family.

    factors are the cotensors whose limit is W, in order: (0, C) for X^C,
    (1, C) for Y^C.  constraints are limit_D's (i, a, k, b); a map of
    exponents restricts, None postcomposes with the arrow.  corners are the
    X-corners (i, leg: C_i -> L) whose union is K; two are glued along span,
    the maps from their overlap into the first and into the second.
    """

    meta: tuple
    factors: tuple
    constraints: tuple
    corners: tuple
    span: tuple = ()

    @functools.cached_property
    def inclusion(self) -> SimplicialMap:
        """j: K -> L, with K the union of the X-corners."""
        legs = [leg for _, leg in self.corners]
        return pushout([self.span]).mediate(legs) if self.span else legs[0]


def _glue(po, maps):
    """The map out of T (x) K that is maps[i] on the i-th X-corner."""
    return maps[0] if po is None else po.mediate(maps)


class PullbackHomFamily:
    """The orbit setup of a family of tensored inclusions T (x) (j: K -> L).

    For an arrow g: X -> Y and a member j, W is the pullback-hom
    X^K x_{Y^K} Y^L of g against j, the Leibniz cotensor of the adjunction
    of two variables (Hovey, Model Categories, ch. 4): a map T -> W is a
    commutative square from T (x) j to g.  Each level-0 orbit of W converts
    by adjunction into an attachment square, and a morphism of arrows
    transports squares through the induced map of the Ws.

    I and J are the one-corner case, K itself: W = X^K x_{Y^K} Y^L.  Hor(F)
    is the pushout-product corner Delta^n x A u bd x B of f: A -> B, two
    X-corners glued along bd x A, so W is the limit of X^{bd x B},
    Y^{Delta^n x B} and X^{Delta^n x A}.

    The order of a member's factors is part of the output: it fixes the
    tuple_complex cell names of W, and those name the orbit witnesses that
    each square records in its meta.  The constraint order is fixed too, as
    part of tuple_complex's memo key, so equal Ws share one complex.

    W is built at `orbit_cap(shape, dim_cap)`: 0 on a groupoid shape, whose
    orbits are discrete, else dim_cap.  An orbit, its witness and the
    adjoint square read only level 0 of W and of the cotensors, whose
    cells and names do not depend on the cap.
    """

    def __init__(self, name, members, dim_cap: int):
        self.name = name
        self.members = {m.meta: m for m in members}
        self.dim_cap = dim_cap

    def member_id(self, m: CornerMember) -> str:
        return f"{self.name}@" + "_".join(map(str, m.meta))

    def _w(self, g: DiagramMap, m: CornerMember, cap: int):
        """W of the arrow g, with the cotensor of every factor."""
        ends = (g.source, g.target)
        cots = [cotensor(ends[e], C, cap) for e, C in m.factors]

        def leg(i, a):
            e, C = m.factors[i]
            return (cotensor_map(g, C, cap) if a is None
                    else cotensor_restriction(ends[e], a, cap))

        lim = limit_D([c.diagram for c in cots],
                      [(i, leg(i, a), k, leg(k, b))
                       for i, a, k, b in m.constraints])
        return lim, cots

    def _pushout(self, m: CornerMember, T: Diagram):
        """T (x) K as the pushout of the corners, None for one corner."""
        if m.span:
            return pushout_D([tuple(tensor_map(identity_dmap(T), s)
                                    for s in m.span)])
        return None

    def _square(self, g: DiagramMap, m: CornerMember, o: OrbitMap, lim,
                cots):
        """The attachment square adjoint to the orbit o of W, and the
        pushout presenting the source of its top."""
        adj = [adjoint_to_tensor(o.into.then(p), c)
               for p, c in zip(lim.projections, cots)]
        po = self._pushout(m, o.orbit)
        L = m.corners[0][1].target
        sq = Square(top=_glue(po, [tensor_map(identity_dmap(o.orbit), leg)
                                   for _, leg in m.corners]),
                    left=_glue(po, [adj[i] for i, _ in m.corners]),
                    right=adj[m.factors.index((1, L))], bottom=g,
                    member_id=self.member_id(m),
                    meta=(self.name,) + m.meta + (o.witness,), orbit=o)
        return sq, po

    def assign(self, g: DiagramMap):
        squares = []
        cap = orbit_cap(g.source.shape, self.dim_cap)
        for m in self.members.values():
            lim, cots = self._w(g, m, cap)
            squares += [self._square(g, m, o, lim, cots)[0]
                        for o in orbit_setup(lim.diagram)]
        return tuple(squares)

    def transport(self, gsq: ArrowSquare, sq: Square):
        m = self.members[sq.meta[1:-1]]
        cap = orbit_cap(gsq.source.source.shape, self.dim_cap)
        lim1, _ = self._w(gsq.source, m, cap)
        lim2, cots2 = self._w(gsq.target, m, cap)
        # the induced natural map W_1 -> W_2, factor by factor
        ends = (gsq.upper, gsq.lower)
        g_tilde = lim2.mediate([
            p.then(cotensor_map(ends[e], C, cap))
            for p, (e, C) in zip(lim1.projections, m.factors)])
        F, o2 = orbit_naturality(g_tilde, sq.orbit)
        target, po2 = self._square(gsq.target, m, o2, lim2, cots2)
        moved = [tensor_map(F, identity_map(leg.source))
                 for _, leg in m.corners]
        if po2 is not None:
            moved = [mv.then(leg) for mv, leg in zip(moved, po2.legs)]
        connect = (_glue(self._pushout(m, sq.orbit.orbit), moved),
                   tensor_map(F, identity_map(m.corners[0][1].target)))
        return target, connect


def _one_corner(meta, j: SimplicialMap) -> CornerMember:
    """The member T (x) j whose one X-corner is K: W = X^K x_{Y^K} Y^L."""
    return CornerMember(meta, ((0, j.source), (1, j.target)),
                        ((0, None, 1, j),), ((0, j),))


def setup_I(budget: Budget = Budget()) -> Instrumentation:
    """Instrumentation of the generating cofibrations T (x) (bd n -> Delta^n)."""
    members = [_one_corner((n,), boundary_inclusion(n))
               for n in range(budget.n_cap + 1)]
    return Instrumentation(
        "I", [PullbackHomFamily("I", members, budget.dim_cap)], budget)


def setup_J(budget: Budget = Budget()) -> Instrumentation:
    """Instrumentation of the generating trivial cofibrations (horn fillers)."""
    members = [_one_corner((n, k), horn_inclusion(n, k))
               for n in range(1, budget.n_cap + 1) for k in range(n + 1)]
    return Instrumentation(
        "J", [PullbackHomFamily("J", members, budget.dim_cap)], budget)


# ---------------------------------------------------------------------------
# lifting search


def extensions(along, target: Diagram, cell_filter: Optional[Callable] = None,
               limit: Optional[int] = None, budget: Optional[list] = None):
    """The maps l: B -> target with i.then(l) == a for every (i, a) in along,
    in canonical order.  Each i pins the cells its image reaches, by word
    division; [] when a pin has no solution or two pins disagree.
    cell_filter(d, cell, candidate) prunes the candidates at object d."""
    B = along[0][0].target
    pools = {}
    for d in B.shape.objects:
        pins = {}
        for i, a in along:
            for e in i.source.at[d].all_cells():
                img = i.components[d](nondeg(e))
                sol = divide_word(target.at[d], a.components[d](nondeg(e)),
                                  img.word)
                if sol is None or pins.get(img.cell, sol) != sol:
                    return []
                pins[img.cell] = sol
        pools[d] = enumerate_maps(
            B.at[d], target.at[d], pins=pins, budget=budget,
            cell_filter=None if cell_filter is None
            else functools.partial(cell_filter, d))
    return hom_D(B, target, component_pool=pools.__getitem__, limit=limit,
                 budget=budget)


def find_lift(i: DiagramMap, p: DiagramMap, a: DiagramMap, b: DiagramMap):
    """A diagonal filler for the square (a, b) of i against p: the first
    extension of a along i over b in canonical order, or None."""

    def fiber(d, cell, cand):
        return p.components[d](cand) == b.components[d](nondeg(cell))

    lifts = extensions([(i, a)], p.source, cell_filter=fiber, limit=1)
    return lifts[0] if lifts else None


def commutative_squares(i: DiagramMap, p: DiagramMap):
    """The pairs (a, b) with a.then(p) == i.then(b), in canonical order: for
    each a, the b are the extensions of a.then(p) along i.  Equal b are one
    object."""
    shared = {}
    return [(a, shared.setdefault(b, b))
            for a in hom_D(i.source, p.source)
            for b in extensions([(i, a.then(p))], p.target)]


class RlpReport(Record):
    holds: bool
    n_squares: int
    lifts: list
    counterexample: Optional[tuple]  # (a, b) square without a lift


def rlp_check(i: DiagramMap, p: DiagramMap) -> RlpReport:
    """Right lifting property of p against i, by exhaustive square search.

    Every commutative square of i over p is enumerated; the report carries a
    lift per square or the first counterexample square.
    """
    squares = commutative_squares(i, p)
    lifts = []
    for a, b in squares:
        l = find_lift(i, p, a, b)
        if l is None:
            return RlpReport(False, len(squares), lifts, (a, b))
        lifts.append(l)
    return RlpReport(True, len(squares), lifts, None)


# ---------------------------------------------------------------------------
# hom(T, -) for an orbit T, read as fixed points over groupoid shapes


def _fixed(Z: Diagram, c, H, cap) -> SimplicialSet:
    """The cap-skeleton of Z(c)^H: the cells of Z(c) up to the cap that
    every arrow in H fixes, with their own face tuples."""
    X = Z.at[c]
    acts = [Z.act[g] for g in H]
    levels = [[x for x in X.cells(n)
               if all(a(nondeg(x)) == nondeg(x) for a in acts)]
              for n in range(cap + 1)]
    return SimplicialSet(levels, {x: X.cell_faces(x)
                                  for cells in levels[1:] for x in cells})


def _fixed_map(f: DiagramMap, c, H, cap) -> SimplicialMap:
    """f at c restricted to the cap-skeleta of the fixed points of H, whose
    fixed cells f sends to fixed simplices."""
    source = _fixed(f.source, c, H, cap)
    return SimplicialMap(source, _fixed(f.target, c, H, cap),
                         images=tuple(f.components[c](nondeg(x))
                                      for x in source.all_cells()))


def _orbit_type(T: Diagram):
    """(c, H): the first object c where the orbit T is non-empty, and the
    stabilizer H in Aut(c) of T's first vertex t there."""
    c = next(d for d in T.shape.objects if T.at[d].cells(0))
    t = nondeg(T.at[c].cells(0)[0])
    return c, [g for g in T.shape.hom(c, c) if T.act[g](t) == t]


def orbit_hom(T: Diagram, f: DiagramMap, cap) -> SimplicialMap:
    """hom(T, f): hom(T, X) -> hom(T, Y) up to the cap for an orbit T and
    f: X -> Y.  On a groupoid shape it is read off the actions as f at c
    restricted to the cap-skeleta of X(c)^H and Y(c)^H, (c, H) =
    _orbit_type(T), with no mapping complex built; on any other shape it
    is postcomposition on the mapping complexes.

    This is Elmendorf's (Systems of fixed point sets, 1983).  T is discrete
    (`orbits.orbit_cap`), and every vertex of T(d) is m.t for an arrow
    m: c -> d, since over a groupoid the zigzags presenting colim T compose
    to one arrow.  So a map T (x) Delta^n -> Z is fixed by the image z of
    (t, iota_n), an n-simplex of Z(c) that H fixes, and each such z extends
    by m.t |-> m.z, well defined as m.t = m'.t puts m'^-1 m in H.  An
    automorphism sends s_w x to s_w (g.x) and commutes with faces, so a
    simplex is fixed when its cell is, and the fixed cells with their own
    faces are a subcomplex.
    """
    if f.source.shape.is_groupoid():
        return _fixed_map(f, *_orbit_type(T), cap)
    return hom_complex_post(T, f, cap)


def fixed_point_maps(g: DiagramMap, cap) -> tuple:
    """The distinct cap-skeleta g(c)^H: X(c)^H -> Y(c)^H of g: X -> Y over a
    groupoid shape, c over the objects and H over the intersections of the
    stabilizers in Aut(c) of the cells of X(c) and of Y(c), Aut(c)
    included."""
    D = g.source.shape
    maps = {}
    for c in D.objects:
        auts = frozenset(D.hom(c, c))
        subgroups = {auts}
        for Z in (g.source, g.target):
            for x in Z.at[c].all_cells():
                stab = frozenset(h for h in auts
                                 if Z.act[h](nondeg(x)) == nondeg(x))
                subgroups |= {stab & H for H in subgroups}
        for H in sorted(subgroups, key=sorted):
            maps.setdefault(_fixed_map(g, c, H, cap))
    return tuple(maps)


# ---------------------------------------------------------------------------
# the fill test


def first_unlifted(rho: DiagramMap, instr: Instrumentation,
                   checked: Optional[dict] = None) -> Optional[str]:
    """The member id of the first member of instr, in assign order, with a
    square of rho that has no lift; None when every square lifts.

    On a groupoid shape a pullback-hom family assigns no square.  Let
    rho: X -> Y and let T (x) (j: K -> L) be a member.  W is built at cap 0
    (PullbackHomFamily), so the family's squares are the orbits of the
    vertices w = (a: K -> X(c), b: L -> Y(c)), rho a = b j, of W(c) over the
    objects c.  By adjunction (Hovey, Model Categories, ch. 4) the square of
    w has T = G/S, G = Aut(c) and S = Stab(w), and a lift T (x) L -> X is a
    filler l: L -> X(c) of (a, b) that S fixes (`orbit_hom`): a filler
    of (a, b) against rho(c)^S: X(c)^S -> Y(c)^S.  An automorphism fixes
    s_u x exactly when it fixes x, so S is the intersection of the
    stabilizers of the cells that a and b reach.  Hence the member has a
    square with no lift exactly when `lifts(rho(c)^H, j)` fails for some H
    of `fixed_point_maps`: each S is such an H; and a square (a, b) of
    rho(c)^H with no filler, for any subgroup H, lies in rho(c)^S' with
    S' = Stab(a, b) containing H, where it has none either, as
    X(c)^S' is a subcomplex of X(c)^H, so the square of the orbit of (a, b)
    has no lift.  The fixed points are read up to the largest dim L, above
    which no map out of L reaches.

    j is the horn of J@n_k, the sphere of I@n and, for HorF@n, the
    pushout-product corner C_n = Delta^n x A u bd n x B -> Delta^n x B of
    f: A -> B (CornerMember.inclusion), which is bd n -> Delta^n for
    f = empty -> point.  When Y is a point every Y(c)^H is a point.

    Every other family assigns its squares and searches a lift of each.
    checked, when given, receives the name of each such family with its
    squares and the set of those without a lift, all of them searched, so
    that a stage that attaches assigns and lifts none twice.
    """
    groupoid = rho.source.shape.is_groupoid()
    for name, fam in instr.families.items():
        if groupoid and isinstance(fam, PullbackHomFamily):
            maps = fixed_point_maps(rho, max(
                (m.inclusion.target.dim for m in fam.members.values()),
                default=0))
            for m in fam.members.values():
                if not all(lifts(phi, m.inclusion) for phi in maps):
                    return fam.member_id(m)
            continue
        squares = fam.assign(rho)
        unlifted = (sq for sq in squares
                    if find_lift(sq.top, rho, sq.left, sq.right) is None)
        if checked is not None:
            bad = set(unlifted)
            checked[name] = (squares, bad)
            unlifted = (sq for sq in squares if sq in bad)
        first = next(unlifted, None)
        if first is not None:
            return first.member_id
    return None


# ---------------------------------------------------------------------------
# the generalized small object argument


class Stage(Record):
    squares: tuple          # all assigned squares, canonical order
    attached: tuple         # indices of squares glued at this stage
    stage_map: DiagramMap   # i_beta: Z_beta -> Z_{beta+1}
    rho: DiagramMap         # Z_{beta+1} -> Y
    # Z_beta with the attached squares' tops glued in; legs[1 + k] is the
    # leg from the top of the k-th attached square
    pushout: object = field(repr=False, default=None)


class FactorizationResult(Record):
    """The staged record of a run of the generalized small object argument."""

    arrow: DiagramMap
    gamma: DiagramMap
    delta: DiagramMap
    stages: tuple
    stopped_by: str         # "stabilization" or "budget"
    strict: bool
    instrumentation: str
    budget: Budget

    @property
    def n_stages(self) -> int:
        return len(self.stages)


def small_object_argument(f: DiagramMap, instr: Instrumentation,
                          stages: Optional[int] = None,
                          strict: bool = False) -> FactorizationResult:
    """Factor f as a cellular map followed by an injective one.

    Each stage first asks `first_unlifted` whether some square lacks a lift;
    when none does the run stops with stabilization, and no square is
    assigned.  Otherwise the squares are assigned and tested for lifts, and
    the unsolved squares (all squares in strict mode) are glued in by a
    single pushout; a fill test that names a member while every square lifts
    is a ValueError.  delta . gamma = f holds exactly for every run,
    including budget-stopped ones.
    """
    max_stages = instr.budget.stages if stages is None else stages
    rho = f
    records = []
    stopped = "budget"
    for _ in range(max_stages):
        checked = {}
        member = first_unlifted(rho, instr, checked)
        if member is None:
            stopped = "stabilization"
            break
        squares = instr.assign(rho, {name: sqs for name, (sqs, _)
                                     in checked.items()})
        unsolved = [idx for idx, sq in enumerate(squares)
                    if (sq in checked[sq.meta[0]][1] if sq.meta[0] in checked
                        else find_lift(sq.top, rho, sq.left, sq.right) is None)]
        if not unsolved:
            raise ValueError(f"stage {len(records) + 1}: the fill test finds "
                             f"no lift for {member}, but every assigned "
                             "square lifts")
        attach = tuple(range(len(squares))) if strict else tuple(unsolved)
        attached = [squares[i] for i in attach]
        po = pushout_D([(sq.left, sq.top) for sq in attached])
        rho = po.mediate([rho, *(sq.right for sq in attached)])
        records.append(Stage(squares=squares, attached=attach,
                             stage_map=po.legs[0], rho=rho, pushout=po))

    gamma = identity_dmap(f.source)
    for rec in records:
        gamma = gamma.then(rec.stage_map)
    result = FactorizationResult(
        arrow=f, gamma=gamma, delta=rho, stages=tuple(records),
        stopped_by=stopped, strict=strict, instrumentation=instr.name,
        budget=instr.budget)
    if result.gamma.then(result.delta) != f:
        raise ValueError("factorization does not compose to f")
    return result


def soa_functorial(g: ArrowSquare, r1: FactorizationResult,
                   r2: FactorizationResult, instr: Instrumentation) -> DiagramMap:
    """The natural map between two factorizations induced by g: f1 -> f2.

    Both runs must be strict-mode with the same instrumentation and equal
    stage counts; the map is built stagewise through the transported squares.
    """
    if not (r1.strict and r2.strict):
        raise ValueError("functorial action requires strict-mode traces")
    if r1.instrumentation != r2.instrumentation or r1.budget != r2.budget:
        raise ValueError("factorizations ran with different instrumentations")
    if r1.n_stages != r2.n_stages:
        raise ValueError("stage mismatch between factorizations")
    xi = g.upper
    rho1, rho2 = r1.arrow, r2.arrow
    for s1, s2 in zip(r1.stages, r2.stages):
        g_beta = ArrowSquare(source=rho1, target=rho2, upper=xi, lower=g.lower)
        legs2 = s2.pushout.legs
        # route each attached square of run 1 to its transported counterpart
        maps = [xi.then(legs2[0])]
        for idx in s1.attached:
            tsq, (_, cB) = instr.transport(g_beta, s1.squares[idx])
            j = s2.squares.index(tsq)
            if j not in s2.attached:
                raise ValueError("transported square was not attached")
            maps.append(cB.then(legs2[1 + s2.attached.index(j)]))
        xi = s1.pushout.mediate(maps)
        rho1, rho2 = s1.rho, s2.rho
    # the two functoriality squares commute
    if r1.gamma.then(xi) != g.upper.then(r2.gamma):
        raise ValueError("functoriality square on gamma does not commute")
    if xi.then(r2.delta) != r1.delta.then(g.lower):
        raise ValueError("functoriality square on delta does not commute")
    return xi


class RetractWitness(Record):
    factorization: FactorizationResult
    section: DiagramMap  # B -> Z with delta . section = id, section . f = gamma


def retract_witness(f: DiagramMap,
                    instr: Instrumentation) -> Optional[RetractWitness]:
    """Exhibit a cofibration as a retract of its own cellular factor.

    Runs the argument on f and searches a lift of f against its delta; the
    retraction fixes the domain.  None when the lift search fails within the
    budget (reported by the caller).
    """
    r = small_object_argument(f, instr)
    q = find_lift(f, r.delta, r.gamma, identity_dmap(f.target))
    if q is None:
        return None
    if f.then(q) != r.gamma:
        raise ValueError("retraction does not restrict to gamma along f")
    if q.then(r.delta) != identity_dmap(f.target):
        raise ValueError("retraction is not a section of delta")
    return RetractWitness(factorization=r, section=q)


# ---------------------------------------------------------------------------
# trace verification


def verify_pullback_over_colim(stage_map: DiagramMap) -> bool:
    """Check that (Z, Z', colim Z, colim Z') is a pullback square, for the
    stage map Z -> Z'.

    The canonical comparison map from Z into the fiber product must be an
    isomorphism in every component.
    """
    Z, Znext = stage_map.source, stage_map.target
    cZ, cN = colim(Z), colim(Znext)
    m = colim_map(stage_map)
    D = Z.shape
    constN = constant_diagram(D, cN.space)
    constZ = constant_diagram(D, cZ.space)
    q_next = DiagramMap(Znext, constN, dict(zip(D.objects, cN.legs)))
    incl = DiagramMap(constZ, constN, {d: m for d in D.objects})
    pb = pullback_D(q_next, incl)
    q_z = DiagramMap(Z, constZ, dict(zip(D.objects, cZ.legs)))
    comparison = pb.mediate([stage_map, q_z])
    return all(is_isomorphism(comparison.components[d]) is not None
               for d in D.objects)
