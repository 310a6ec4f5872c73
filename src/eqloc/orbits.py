"""Orbit extraction, orbit categories of a diagram, and orbit-point diagrams.

An orbit is a diagram whose colimit is the one-point simplicial set.  The
orbits of a diagram X are the pullbacks of vertices of colim of X (or of its
cotensor levels) along the canonical map to the colimit.
"""

from __future__ import annotations

import functools
from typing import Optional

from .cat import (
    Diagram,
    DiagramMap,
    Record,
    SmallCategory,
    colim,
    colim_map,
    constant_diagram,
    cotensor,
    field,
    hom_D,
    hom_complex,
    hom_complex_pre,
    identity_dmap,
    opposite,
    point_diagram,
    pullback_D,
    terminal_dmap,
)
from .simplicial import (
    constant_map,
    is_isomorphism,
    nondeg,
    point,
    standard_simplex,
)


class OrbitMap(Record, frozen=True):
    """An orbit with its structure map into an ambient diagram.

    witness is the vertex of colim of the ambient diagram over which the
    orbit was pulled back.
    """

    orbit: Diagram
    into: DiagramMap
    witness: str
    pullback: object = field(compare=False, repr=False, default=None)

    @property
    def ambient(self) -> Diagram:
        return self.into.target


def is_orbit(T: Diagram) -> bool:
    """True exactly when colim of T is the one-point simplicial set."""
    c = colim(T).space
    return c.dim == 0 and len(c.cells(0)) == 1


@functools.cache
def orbit_setup(X: Diagram):
    """One orbit map per vertex of colim X, pulled back along X -> colim X.

    This is the level-0 factorization setup for maps of orbits into X: any
    map from an orbit factors through the member over the matching vertex.
    """
    co = colim(X)
    D = X.shape
    constC = constant_diagram(D, co.space)
    q = DiagramMap(X, constC, dict(zip(D.objects, co.legs)))
    P = point_diagram(D)
    out = []
    for v in co.space.cells(0):
        vmap = DiagramMap(P, constC,
                          {d: constant_map(point(), co.space, v)
                           for d in D.objects})
        pb = pullback_D(q, vmap)
        out.append(OrbitMap(orbit=pb.diagram, into=pb.projections[0],
                            witness=v, pullback=pb))
    return tuple(out)


def _factor_over(setup, v, g: DiagramMap):
    """(member, psi) for the member of setup over the colim vertex v, with
    member.into . psi == g by the pullback universal property; None when no
    member lies over v."""
    member = next((m for m in setup if m.witness == v), None)
    if member is None:
        return None
    return member, member.pullback.mediate([g, terminal_dmap(g.source)])


def factor_through_setup(phi: DiagramMap, setup) -> Optional[tuple]:
    """Factor a map from an orbit through a setup member, if possible.

    Returns (member, psi) with member.into . psi == phi; the pullback
    universal property supplies psi once the matching vertex is identified.
    """
    T = phi.source
    if not is_orbit(T):
        return None
    co_t = colim(T)
    v = colim_map(phi)(nondeg(co_t.space.cells(0)[0])).cell
    return _factor_over(setup, v, phi)


def orbit_naturality(f: DiagramMap, o: OrbitMap):
    """The square carrying an orbit of the source to one of the target.

    Returns (F, target) where F: o.orbit -> target.orbit covers f, and target
    belongs to orbit_setup(f.target) over the image vertex.
    """
    if o.ambient != f.source:
        raise ValueError("orbit_naturality needs an orbit of the source of f")
    y = colim_map(f)(nondeg(o.witness)).cell
    found = _factor_over(orbit_setup(f.target), y, o.into.then(f))
    if found is None:
        raise ValueError(f"no orbit of the target over the image {y!r} "
                         "of the witness")
    target, F = found
    return F, target


# ---------------------------------------------------------------------------
# orbit categories


class OrbitCategory:
    """A finite fragment of the category of orbits of a diagram.

    Orbits are deduplicated up to isomorphism; hom sets are stored for every
    ordered pair.  witnesses[i] records the (cotensor level, vertex) pairs
    that produced orbit i.
    """

    def __init__(self, orbits, homs, witnesses):
        self.orbits = tuple(orbits)
        self.homs = homs
        self.witnesses = witnesses

    def __len__(self):
        return len(self.orbits)

    def as_category(self):
        """The orbit category as a finite category with named arrows."""
        objects = [f"T{i}" for i in range(len(self.orbits))]
        arrows = []
        lookup = {}
        for (i, j), maps in sorted(self.homs.items()):
            for k, h in enumerate(maps):
                name = f"m{i}_{j}_{k}"
                arrows.append((name, f"T{i}", f"T{j}"))
                lookup[name] = h
        identities = {}
        for i, T in enumerate(self.orbits):
            idx = self.homs[(i, i)].index(identity_dmap(T))
            identities[f"T{i}"] = f"m{i}_{i}_{idx}"
        comp = {}
        for (i, j), fs in self.homs.items():
            for (j2, k), gs in self.homs.items():
                if j2 != j:
                    continue
                for a, fmap in enumerate(fs):
                    for b, gmap in enumerate(gs):
                        comp[(f"m{j}_{k}_{b}", f"m{i}_{j}_{a}")] = \
                            f"m{i}_{k}_{self.homs[(i, k)].index(fmap.then(gmap))}"
        cat = SmallCategory(objects, arrows, identities, comp)
        return cat, lookup


def isomorphisms(T1: Diagram, T2: Diagram):
    """The isomorphisms T1 -> T2, in canonical order.

    A natural transformation with isomorphism components is invertible, so
    these are the members of hom_D whose components are all isomorphisms;
    none when some object's level sizes differ.
    """
    if any([len(l) for l in T1.at[d].levels]
           != [len(l) for l in T2.at[d].levels] for d in T1.shape.objects):
        return
    for h in hom_D(T1, T2):
        if all(is_isomorphism(h.components[d]) is not None
               for d in T1.shape.objects):
            yield h


def diagram_isomorphic(T1: Diagram, T2: Diagram) -> Optional[DiagramMap]:
    """An isomorphism T1 -> T2 when one exists."""
    return next(isomorphisms(T1, T2), None)


def _first_copies(found):
    """The orbits of the (orbit, witness) pairs of found up to isomorphism,
    in discovery order, and the witnesses of each: an orbit isomorphic to
    one kept before it is dropped, and that one gains its witness."""
    kept = []
    witnesses = []
    for T, w in found:
        i = next((i for i, K in enumerate(kept)
                  if diagram_isomorphic(T, K) is not None), None)
        if i is None:
            kept.append(T)
            witnesses.append([w])
        else:
            witnesses[i].append(w)
    return kept, witnesses


def orbit_cap(D: SmallCategory, dim_cap) -> int:
    """The cap at which the orbits of a diagram over D are read: 0 on a
    groupoid shape, whose orbits are discrete, else dim_cap.

    Let X be a diagram over a groupoid and x an n-simplex of X(d), n > 0,
    whose class in colim X is degenerate, [x] = [s_i y].  Over a groupoid
    the relation x ~ m.x that presents the colimit is already an
    equivalence (inverses make it symmetric, composites transitive), so
    one arrow m gives x = m.(s_i y) = s_i (m.y), and x is degenerate.  The
    orbit over a vertex v of colim X holds the simplices whose class is a
    degeneracy of v, hence no nondegenerate simplex above dimension 0, and
    the cap cannot change it.  Over the arrow category, or a monoid with an
    idempotent, an orbit can hold an edge.
    """
    return 0 if D.is_groupoid() else dim_cap


def _level_orbits(X: Diagram, level_cap, dim_cap):
    """(orbit, (n, vertex)) over every vertex of colim X^{Delta^n}, n <=
    level_cap, the levels truncated at `orbit_cap`."""
    cap = orbit_cap(X.shape, dim_cap)
    for n in range(level_cap + 1):
        for o in orbit_setup(cotensor(X, standard_simplex(n), cap).diagram):
            yield o.orbit, (n, o.witness)


def orbit_category_of(X: Diagram, level_cap=1, dim_cap=2) -> OrbitCategory:
    """Orbits of X over vertices of colim of the cotensor levels n <= level_cap,
    up to isomorphism, with the hom sets between them."""
    kept, witnesses = _first_copies(_level_orbits(X, level_cap, dim_cap))
    homs = {(i, j): tuple(hom_D(Ti, Tj))
            for i, Ti in enumerate(kept) for j, Tj in enumerate(kept)}
    return OrbitCategory(kept, homs, witnesses)


def orbits_of(*diagrams, dim_cap=1) -> tuple:
    """The level-0 orbits of the diagrams up to isomorphism, in discovery
    order: the orbits T over which every equivariant probe reads hom(T, -)."""
    return tuple(_first_copies(found for X in diagrams
                               for found in _level_orbits(X, 0, dim_cap))[0])


def orbit_point_diagram(X: Diagram, E: OrbitCategory, dim_cap) -> Diagram:
    """The diagram of orbit-points over the opposite of the orbit category.

    The value at an orbit T is the mapping complex hom(T, X) truncated at
    dim_cap; functoriality is by precomposition.
    """
    cat, lookup = E.as_category()
    shape = opposite(cat)
    at = {f"T{i}": hom_complex(T, X, dim_cap).space
          for i, T in enumerate(E.orbits)}
    act = {}
    for name, h in lookup.items():
        act[name] = hom_complex_pre(h, X, dim_cap)
    return Diagram(shape, at, act)
