"""Equivariant weak-equivalence and fibration probes, Kan machinery,
combinatorial homotopy groups at a cap, cylinders, cones and null homotopies.
The fill test `lifts` and the fixed points that present hom(T, Z) for an
orbit T over a groupoid shape live in soa, which the small object argument
reads them from.

Weak-equivalence checking is a semi-decision: verdicts are three-valued and
every report names the caps it was computed at.
"""

from __future__ import annotations

from typing import Optional

from .cat import (
    Diagram,
    DiagramMap,
    Record,
    field,
    hom_D,
    hom_complex_post,
    point_diagram,
    pullback_D,
    pushout_D,
    tensor,
    tensor_projection,
    tensor_unit_section,
    terminal_dmap,
    wrap_smap,
    wrap_sset,
)
from .glue import UnionFind
from .simplicial import (
    BudgetExceeded,
    SimplicialMap,
    SimplicialSet,
    constant_map,
    degenerate_at,
    is_injective,
    nondeg,
    point,
    standard_simplex,
)
from .soa import (
    Budget,
    extensions,
    fixed_points_post,
    lifts,
    setup_J,
    small_object_argument,
    sphere_simplices,
)


class Verdict(Record, frozen=True):
    """A three-valued answer with the caps it was decided at."""

    value: str  # "yes" | "no" | "inconclusive"
    caps: tuple = ()
    reason: str = ""

    def __bool__(self):
        return self.value == "yes"


YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Kan conditions and homotopy groups of simplicial sets


def is_kan(X: SimplicialSet, n_cap) -> bool:
    """Right lifting of X -> point against all horns of dimension <= n_cap.
    This certifies fibrancy only up to the cap; callers flag truncation."""
    to_point = constant_map(X, point(), "0")
    return all(lifts(to_point, n, k)
               for n in range(1, n_cap + 1) for k in range(n + 1))


def pi0(X: SimplicialSet):
    """Connected components: the coequalizer of d_0, d_1: X_1 -> X_0.

    Classes in order of their first vertex, each with its members sorted.
    """
    uf = UnionFind(X.cells(0))
    for e in X.cells(1):
        faces = X.cell_faces(e)
        uf.union(faces[0].cell, faces[1].cell)
    return tuple(tuple(sorted(c)) for c in uf.classes(X.cells(0)).values())


def pi_n(X: SimplicialSet, basepoint, n, kan_checked=False):
    """Homotopy classes of n-spheres at the basepoint, for Kan X.

    Two spheres are identified when an (n+1)-simplex has them as its last two
    faces and the degenerate basepoint elsewhere; the closure is computed by
    union-find.  Requires fibrancy up to n+1, checked unless the caller
    already did.
    """
    if not kan_checked and not is_kan(X, n + 1):
        raise ValueError("pi_n needs a Kan complex up to level n+1")
    spheres = sphere_simplices(X, basepoint, n)
    uf = UnionFind(spheres)
    base = degenerate_at(X, basepoint, n)
    for w in X.simplices(n + 1):
        if all(X.face(w, i) == base for i in range(n)):
            a, b = X.face(w, n), X.face(w, n + 1)
            if a in uf.parent and b in uf.parent:
                uf.union(a, b)
    # spheres are in canonical order, so are the classes and their members
    return tuple(tuple(cls) for cls in uf.classes(spheres).values())


class HomotopyReport(Record):
    pi0: tuple
    pi_n: dict            # (basepoint, n) -> tuple of classes
    cap: int
    is_kan_at_cap: bool
    truncated: bool = True


def homotopy_report(X: SimplicialSet, cap) -> HomotopyReport:
    components = pi0(X)
    kan = is_kan(X, cap + 1)
    groups = {}
    if kan:
        for cls in components:
            v = cls[0]
            for n in range(1, cap + 1):
                groups[(v, n)] = pi_n(X, v, n, kan_checked=True)
    return HomotopyReport(pi0=components, pi_n=groups, cap=cap,
                          is_kan_at_cap=kan)


# ---------------------------------------------------------------------------
# lifting and weak-equivalence probes for plain simplicial sets


def fibrant_replace(X: SimplicialSet, budget: Budget):
    """Kan-ify by gluing horn fillers; returns (replacement, unit, stabilized)."""
    f = terminal_dmap(wrap_sset(X))
    r = small_object_argument(f, setup_J(budget))
    return (r.gamma.target.at["*"], r.gamma.components["*"],
            r.stopped_by == "stabilization")


def fibrant_replace_map(phi: SimplicialMap, budget: Budget):
    """Replace a map by one between Kan complexes, up to the budget.

    The target is Kan-ified first, then the composite is factored with horn
    fillers; the middle map is anodyne, so homotopy comparisons transfer.
    Returns (phi_hat, stabilized).
    """
    Yh, jY, okY = fibrant_replace(phi.target, budget)
    r = small_object_argument(wrap_smap(phi.then(jY)), setup_J(budget))
    return r.delta.components["*"], okY and r.stopped_by == "stabilization"


def _class_bijection(cls_x, cls_y, image) -> bool:
    """Whether sending each class of cls_x to the class of cls_y holding
    image(its first member) is a bijection."""
    index_y = {s: i for i, cls in enumerate(cls_y) for s in cls}
    images = {index_y.get(image(cls[0])) for cls in cls_x}
    return None not in images and len(images) == len(cls_x) == len(cls_y)


def sset_weq_probe(phi: SimplicialMap, pi_cap, budget: Budget) -> Verdict:
    """Weak-equivalence probe: pi0 bijection and pi_n bijections at the cap.

    Non-Kan inputs are fibrant-replaced first; a budget-stopped replacement
    makes the verdict inconclusive.
    """
    caps = ("pi_cap", pi_cap, "n_cap", budget.n_cap, "stages", budget.stages)
    if not (is_kan(phi.source, pi_cap + 1) and is_kan(phi.target, pi_cap + 1)):
        phi, ok = fibrant_replace_map(phi, budget)
        if not ok:
            return Verdict(INCONCLUSIVE, caps, "fibrant replacement hit budget")
    cls_x, cls_y = pi0(phi.source), pi0(phi.target)
    if len(cls_x) != len(cls_y):
        return Verdict(NO, caps, "pi0 cardinality differs")
    if not _class_bijection(cls_x, cls_y, lambda v: phi(nondeg(v)).cell):
        return Verdict(NO, caps, "pi0 not bijective")
    for cls in cls_x:
        v = cls[0]
        w = phi(nondeg(v)).cell
        for n in range(1, pi_cap + 1):
            if not _class_bijection(pi_n(phi.source, v, n, kan_checked=True),
                                    pi_n(phi.target, w, n, kan_checked=True),
                                    phi):
                return Verdict(NO, caps, f"pi_{n} not bijective at {v}")
    return Verdict(YES, caps)


# ---------------------------------------------------------------------------
# equivariant probes through orbit mapping complexes, read as fixed points
# (soa.fixed_points_post) on groupoid shapes


def _orbit_hom_post(T: Diagram, f: DiagramMap, hom_cap) -> SimplicialMap:
    """hom(T, f) for an orbit T up to hom_cap: `fixed_points_post` on a
    groupoid shape, else postcomposition on the mapping complexes."""
    if f.source.shape.is_groupoid():
        return fixed_points_post(T, f, hom_cap)
    return hom_complex_post(T, f, hom_cap)


def is_fibration_equivariant(f: DiagramMap, orbits, n_cap, hom_cap) -> bool:
    """Horn-RLP of hom(T, f) for every orbit T of orbits, at the caps."""
    return all(lifts(phi, n, k)
               for phi in (_orbit_hom_post(T, f, hom_cap) for T in orbits)
               for n in range(1, n_cap + 1) for k in range(n + 1))


def weq_probe_all(phis, label, pi_cap, budget: Budget, caps) -> Verdict:
    """The worst `sset_weq_probe` verdict over the maps phis.

    The first NO stops the walk and names its map as "<label> i"; otherwise
    the verdict is INCONCLUSIVE if any probe was, else YES, with the caps.
    """
    worst = YES
    for idx, phi in enumerate(phis):
        v = sset_weq_probe(phi, pi_cap, budget)
        if v.value == NO:
            return Verdict(NO, v.caps, f"{label} {idx}: {v.reason}")
        if v.value == INCONCLUSIVE:
            worst = INCONCLUSIVE
    return Verdict(worst, caps)


def is_weq_equivariant(f: DiagramMap, orbits, pi_cap, hom_cap,
                       budget: Optional[Budget] = None) -> Verdict:
    """Equivariant weak-equivalence probe through hom(T, f), T in orbits."""
    budget = budget or Budget(stages=3, n_cap=pi_cap + 1, dim_cap=0)
    return weq_probe_all((_orbit_hom_post(T, f, hom_cap) for T in orbits),
                         "orbit", pi_cap, budget,
                         ("pi_cap", pi_cap, "hom_cap", hom_cap))


def is_cofibration(g: DiagramMap) -> bool:
    """Levelwise injectivity, the cofibration test used at desk scale."""
    return all(is_injective(g.components[d])
               for d in g.source.shape.objects)


# ---------------------------------------------------------------------------
# cylinders, cones, null homotopies


class Cylinder(Record):
    space: Diagram
    i0: DiagramMap
    i1: DiagramMap
    projection: DiagramMap


def cylinder(A: Diagram) -> Cylinder:
    t = tensor(A, standard_simplex(1))
    return Cylinder(space=t.diagram,
                    i0=tensor_unit_section(A, standard_simplex(1), "0"),
                    i1=tensor_unit_section(A, standard_simplex(1), "1"),
                    projection=tensor_projection(A, standard_simplex(1)))


class Cone(Record):
    space: Diagram
    inclusion: DiagramMap   # A -> CA through the 0-end of the cylinder
    apex: DiagramMap        # point -> CA
    _pushout: object = field(repr=False, default=None)
    _cylinder: Cylinder = field(repr=False, default=None)


def cone(A: Diagram) -> Cone:
    """CA = pt glued to the cylinder of A along its 1-end."""
    cyl = cylinder(A)
    po = pushout_D([(terminal_dmap(A), cyl.i1)])
    return Cone(space=po.diagram,
                inclusion=cyl.i0.then(po.legs[1]),
                apex=po.legs[0],
                _pushout=po, _cylinder=cyl)


def diagram_vertices(X: Diagram):
    """Global vertices: maps from the terminal diagram."""
    return hom_D(point_diagram(X.shape), X)


def is_null_homotopic(f: DiagramMap, search_budget: Optional[int] = None):
    """Search for a homotopy from f to a map factoring through the point.

    Enumerates H on the cylinder with H i0 = f pinned and H i1 forced to be
    vertexwise constant; returns (verdict, homotopy).  The verdict is
    inconclusive when the node budget runs out.
    """
    A, X = f.source, f.target
    cyl = cylinder(A)
    budget = [search_budget] if search_budget is not None else None
    end_cells = {}
    for d in A.shape.objects:
        end_cells[d] = set()
        for c in A.at[d].all_cells():
            img = cyl.i1.components[d](nondeg(c))
            if img.word:
                raise ValueError("cylinder end i1 hits a degenerate "
                                 f"simplex {img!r}")
            end_cells[d].add(img.cell)

    def constant_at_end(d, cell, cand):
        if cell not in end_cells[d]:
            return True
        n = cyl.space.at[d].cell_dim(cell)
        return cand == degenerate_at(X.at[d], cand.cell, n) \
            and len(cand.word) == n
    try:
        candidates = extensions([(cyl.i0, f)], X,
                                cell_filter=constant_at_end, budget=budget)
    except BudgetExceeded:
        return Verdict(INCONCLUSIVE, ("search_budget", search_budget),
                       "homotopy search hit budget"), None
    vertices = diagram_vertices(X)
    collapse = terminal_dmap(A)
    for H in candidates:
        end = cyl.i1.then(H)
        for iota in vertices:
            if end == collapse.then(iota):
                return Verdict(YES), H
    return Verdict(NO), None


def null_factorization(f: DiagramMap, H: DiagramMap):
    """Factor a null-homotopic map through the cone of its source.

    H must be a homotopy with H i0 = f and H i1 factoring through the point;
    the cone mediator makes the factorization commute on the nose.
    """
    A, X = f.source, f.target
    cn = cone(A)
    cyl = cn._cylinder
    end = cyl.i1.then(H)
    iota = next((v for v in diagram_vertices(X)
                 if end == terminal_dmap(A).then(v)), None)
    if iota is None:
        raise ValueError("H does not end at a vertex")
    m = cn._pushout.mediate([iota, H])
    if cn.inclusion.then(m) != f:
        raise ValueError("cone factorization does not restrict to f")
    return cn, m


# ---------------------------------------------------------------------------
# properness probes


def properness_probe(kind, weq: DiagramMap, along: DiagramMap, orbits,
                     pi_cap, hom_cap) -> Verdict:
    """Instance-wise (left or right) properness check.

    kind "left": pushout of a weak equivalence along a cofibration; kind
    "right": pullback of a weak equivalence along a fibration.  The verdict
    is the equivariant weak-equivalence probe of the (co)base change.
    """
    if kind == "left":
        if weq.source != along.source:
            raise ValueError("left properness probe needs maps with a "
                             "common source")
        if not is_cofibration(along):
            return Verdict(NO, (), "leg is not a levelwise injection")
        po = pushout_D([(weq, along)])
        probe = po.legs[1]  # cobase change of the weak equivalence
    elif kind == "right":
        if weq.target != along.target:
            raise ValueError("right properness probe needs maps with a "
                             "common target")
        pb = pullback_D(weq, along)
        probe = pb.projections[1]  # base change of the weak equivalence
    else:
        raise ValueError(f"unknown probe kind {kind!r}")
    return is_weq_equivariant(probe, orbits, pi_cap, hom_cap)
