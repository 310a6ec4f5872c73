"""Colimit and limit engines for finite simplicial sets.

Quotients run a union-find over the simplices of each level and re-extract a
normal-form presentation; products and pullbacks are built from tuples of
simplices that are jointly nondegenerate.
"""

from __future__ import annotations

import functools
import sys

from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    admissible_words,
    backtrack,
    compose_words,
    is_admissible,
    nondeg,
)


class UnionFind:
    """Plain union-find; representatives are elected separately."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self, items) -> dict:
        """root -> the items in its class, in items order; the classes come
        in the order of their first item."""
        out = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return out


# ---------------------------------------------------------------------------
# coproducts


class Coproduct:
    def __init__(self, space, injections, summand_of):
        self.space = space
        self.injections = injections
        self.summand_of = summand_of  # cell -> (summand index, original cell)

    def image(self, maps, s: Simplex) -> Simplex:
        """s under the map that is maps[k] on summand k."""
        k, orig = self.summand_of[s.cell]
        return maps[k](Simplex(s.word, orig))

    def mediate(self, maps) -> SimplicialMap:
        """The one map out of the coproduct that is maps[k] on
        injections[k], into maps[0].target."""
        return SimplicialMap(self.space, maps[0].target, images=tuple(
            self.image(maps, nondeg(c)) for c in self.space.all_cells()))


def coproduct(spaces) -> Coproduct:
    """Disjoint union; cells are renamed "<i>:<name>" per summand."""
    dim = max((X.dim for X in spaces), default=-1)
    # each summand's cells under their new names, as nondegenerate simplices
    renamed = [{c: nondeg(f"{i}:{c}") for c in X.all_cells()}
               for i, X in enumerate(spaces)]
    levels = []
    faces = {}
    summand_of = {}
    for n in range(dim + 1):
        level = []
        for i, X in enumerate(spaces):
            ren = renamed[i]
            for c in X.cells(n):
                name = ren[c].cell
                level.append(name)
                summand_of[name] = (i, c)
                if n >= 1:
                    faces[name] = tuple(
                        Simplex(f.word, ren[f.cell].cell) if f.word
                        else ren[f.cell] for f in X.cell_faces(c))
        levels.append(level)
    space = SimplicialSet(levels, faces)
    injections = [SimplicialMap(X, space, images=tuple(ren.values()))
                  for X, ren in zip(spaces, renamed)]
    return Coproduct(space, injections, summand_of)


# ---------------------------------------------------------------------------
# normal forms


def normal_form_complex(levels, face, degeneracy, prefix):
    """The complex presented by levelwise elements in Eilenberg-Zilber form.

    levels[n] lists the n-elements in canonical order; face(n, e, i) is d_i
    of an n-element e and degeneracy(n, f, j) the n-element s_j f of an
    (n-1)-element f.  An n-element e is s_j d_j e for the largest j that
    gives e back (tried only where d_j e == d_{j+1} e, as e = s_j t forces),
    else a new cell "<prefix>n_k".  Returns the space, the normal form of
    every element (keyed by (n, e)) and the element behind every cell.
    """
    to_simplex = {}
    elem_of_cell = {}
    new_levels = []
    faces = {}
    for n, elems in enumerate(levels):
        level = []
        for e in elems:
            fs = [face(n, e, i) for i in range(n + 1)] if n else ()
            j = next((j for j in reversed(range(n)) if fs[j] == fs[j + 1]
                      and degeneracy(n, fs[j], j) == e), None)
            if j is not None:
                sub = to_simplex[(n - 1, fs[j])]
                to_simplex[(n, e)] = Simplex(compose_words((j,), sub.word),
                                             sub.cell)
            else:
                name = sys.intern(f"{prefix}{n}_{len(level)}")
                level.append(name)
                elem_of_cell[name] = e
                if n >= 1:
                    faces[name] = tuple(to_simplex[(n - 1, f)] for f in fs)
                to_simplex[(n, e)] = nondeg(name)
        new_levels.append(level)
    return SimplicialSet(new_levels, faces), to_simplex, elem_of_cell


# ---------------------------------------------------------------------------
# quotients


class Quotient:
    def __init__(self, space, projection, rep_of):
        self.space = space
        self.projection = projection
        self.rep_of = rep_of  # new cell -> representative Simplex upstairs


def quotient(Z: SimplicialSet, pairs) -> Quotient:
    """Quotient of Z by the simplicial congruence generated by the pairs.

    Each pair is two simplices of equal dimension to be identified.  The
    generating relation is first saturated under faces, then closed levelwise
    under all degeneracies, which generates the full simplicial congruence.
    """
    for u, v in pairs:
        if Z.simplex_dim(u) != Z.simplex_dim(v):
            raise ValueError(f"pair dimensions differ: {u!r}, {v!r}")
    saturated = set()
    work = [(u, v) for u, v in pairs if u != v]
    while work:
        u, v = work.pop()
        if (u, v) in saturated or (v, u) in saturated or u == v:
            continue
        saturated.add((u, v))
        for i in range(Z.simplex_dim(u) + 1) if Z.simplex_dim(u) >= 1 else ():
            work.append((Z.face(u, i), Z.face(v, i)))
    pairs = sorted(saturated, key=lambda p: (Z.simplex_dim(p[0]),
                                             Z.skey(p[0]), Z.skey(p[1])))
    ufs = []
    firsts = []  # per level: class root -> its least member
    for n in range(Z.dim + 1):
        uf = UnionFind(Z.simplices(n))
        for u, v in pairs:
            q = Z.simplex_dim(u)
            if q > n:
                continue
            for w in admissible_words(n - q, q):
                uf.union(Simplex(compose_words(w, u.word), u.cell),
                         Simplex(compose_words(w, v.word), v.cell))
        ufs.append(uf)
        firsts.append({root: members[0] for root, members
                       in uf.classes(Z.simplices(n)).items()})

    def least(n, s):
        return firsts[n][ufs[n].find(s)]

    space, to_simplex, rep_of = normal_form_complex(
        [level.values() for level in firsts],
        lambda n, s, i: least(n - 1, Z.face(s, i)),
        lambda n, s, j: least(n, Z.degeneracy(s, j)), "q")
    projection = SimplicialMap(Z, space, images=tuple(
        to_simplex[(n, least(n, nondeg(c)))]
        for n, cells in enumerate(Z.levels) for c in cells))
    return Quotient(space, projection, rep_of)


# ---------------------------------------------------------------------------
# glued spaces: pushouts and colimits


class Glued:
    """The coproduct of spaces with the two simplices of every pair
    identified: legs[k] from spaces[k], and the one mediator out of it."""

    def __init__(self, spaces, pairs):
        """pairs are ((k, s), (l, t)) for a simplex s of spaces[k] and t of
        spaces[l]."""
        self._co = co = coproduct(spaces)
        inj = co.injections
        self._q = q = quotient(co.space, [(inj[k](s), inj[l](t))
                                          for (k, s), (l, t) in pairs])
        self.space = q.space
        self.legs = [i.then(q.projection) for i in inj]

    def mediate(self, maps) -> SimplicialMap:
        """The one map out of the glued space that is maps[k] on legs[k],
        into maps[0].target; the maps must agree on every pair."""
        rep_of = self._q.rep_of
        return SimplicialMap(self.space, maps[0].target, images=tuple(
            self._co.image(maps, rep_of[c]) for c in self.space.all_cells()))


def pushout(spans) -> Glued:
    """The pushout of the spans (f_i: A_i -> X, g_i: A_i -> B_i), all f_i
    into one X: X with every B_i glued in along A_i, legs[1 + i] from B_i."""
    X = spans[0][0].target
    if any(f.source != g.source or f.target != X for f, g in spans):
        raise ValueError("pushout needs spans of maps with a common source, "
                         "all into one space")
    return Glued([X] + [g.target for _, g in spans],
                 [((0, f(nondeg(a))), (1 + i, g(nondeg(a))))
                  for i, (f, g) in enumerate(spans)
                  for a in f.source.all_cells()])


# ---------------------------------------------------------------------------
# tuple complexes: products, pullbacks, finite limits of set-valued corners


class TupleComplex:
    """Subcomplex of a product of factors cut out by map-equality constraints.

    Cells are jointly nondegenerate tuples; `locate` finds the normal form of
    an arbitrary compatible tuple of simplices.
    """

    def __init__(self, factors, constraints, space, coords, cell_of):
        self.factors = factors
        self.constraints = constraints
        self.space = space
        self.coords = coords    # cell -> tuple of Simplex per factor
        self.cell_of = cell_of  # tuple -> its cell, as a nondegenerate Simplex

    def locate(self, coords) -> Simplex:
        coords = tuple(coords)
        word = []
        while common := _shared_word(coords):
            j = max(common)
            coords = tuple(X.face(c, j)
                           for X, c in zip(self.factors, coords))
            word.append(j)
        if not is_admissible(word):
            raise ValueError(f"stripped word {word!r} is not admissible")
        cell = self.cell_of[coords]
        return Simplex(tuple(word), cell.cell) if word else cell

    def projection(self, i) -> SimplicialMap:
        return SimplicialMap(self.space, self.factors[i], images=tuple(
            self.coords[c][i] for c in self.space.all_cells()))

    def mediate(self, maps) -> SimplicialMap:
        """The unique map into the limit induced by a compatible cone."""
        src = maps[0].source
        return SimplicialMap(src, self.space, images=tuple(
            self.locate(tuple(m(nondeg(c)) for m in maps))
            for c in src.all_cells()))


def _shared_word(coords) -> set:
    """The degeneracy indices in the word of every coordinate."""
    return set.intersection(*[set(c.word) for c in coords])


def _constrained(factors, by_slot, n, slot, partial):
    """The n-simplices of factors[slot] that meet the constraints whose later
    factor is slot, given the coordinates partial[:slot] before it."""
    pool = factors[slot].simplices(n)
    for (i, f, j, g) in by_slot.get(slot, ()):
        if i < slot:
            a = f(partial[i])
            pool = [s for s in pool if g(s) == a]
        elif j < slot:
            b = g(partial[j])
            pool = [s for s in pool if f(s) == b]
        else:
            pool = [s for s in pool if f(s) == g(s)]
    return pool


@functools.cache
def tuple_complex(factors, constraints=()) -> TupleComplex:
    """Limit of finitely many factors under constraints (i, f, j, g) meaning
    f(x_i) = g(x_j) levelwise, with f on factor i and g on factor j.  Both
    are tuples, and the result is memoized by their values and shared."""
    factors = list(factors)
    constraints = list(constraints)
    dim_bound = sum(max(X.dim, 0) for X in factors) if factors else -1
    if any(X.dim < 0 for X in factors):
        dim_bound = -1

    by_slot = {}
    for (i, f, j, g) in constraints:
        by_slot.setdefault(max(i, j), []).append((i, f, j, g))

    levels_tuples = [backtrack(len(factors),
                               lambda slot, partial: _constrained(
                                   factors, by_slot, n, slot, partial),
                               tuple)
                     for n in range(dim_bound + 1)]

    levels = []
    faces = {}
    coords = {}
    cell_of = {}
    tc = TupleComplex(factors, tuple(constraints), None, coords, cell_of)
    for n, tuples in enumerate(levels_tuples):
        level = []
        for t in tuples:
            if t and _shared_word(t):
                continue  # jointly degenerate
            name = sys.intern(f"t{n}_{len(level)}")
            level.append(name)
            coords[name] = t
            cell_of[t] = nondeg(name)
        levels.append(level)
    # face data needs cell_of for lower levels, hence the second pass
    for n in range(1, len(levels)):
        for name in levels[n]:
            t = coords[name]
            faces[name] = tuple(
                tc.locate(tuple(X.face(c, i) for X, c in zip(factors, t)))
                for i in range(n + 1))
    space = SimplicialSet(levels, faces)
    tc.space = space
    return tc


def product(X: SimplicialSet, Y: SimplicialSet) -> TupleComplex:
    return tuple_complex((X, Y), ())


def pullback(f: SimplicialMap, g: SimplicialMap) -> TupleComplex:
    """The fiber product source(f) x_{target} source(g)."""
    if f.target != g.target:
        raise ValueError("pullback needs maps with a common target")
    return tuple_complex((f.source, g.source), ((0, f, 1, g),))


def induced_tuple_map(src: TupleComplex, dst: TupleComplex, maps) -> SimplicialMap:
    """Map of tuple complexes applying one map per coordinate."""
    return SimplicialMap(src.space, dst.space, images=tuple(
        dst.locate(tuple(m(s) for m, s in zip(maps, src.coords[c])))
        for c in src.space.all_cells()))
