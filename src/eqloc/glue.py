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


# ---------------------------------------------------------------------------
# coproducts


class Coproduct:
    def __init__(self, space, injections, summand_of):
        self.space = space
        self.injections = injections
        self.summand_of = summand_of  # cell -> (summand index, original cell)


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
    dim = Z.dim
    ufs = []
    for n in range(dim + 1):
        uf = UnionFind(Z.simplices(n))
        for u, v in pairs:
            q = Z.simplex_dim(u)
            if q > n:
                continue
            for w in admissible_words(n - q, q):
                uf.union(Simplex(compose_words(w, u.word), u.cell),
                         Simplex(compose_words(w, v.word), v.cell))
        ufs.append(uf)

    levels = []
    faces = {}
    rep_of = {}
    ez_by_root = {}  # (n, root) -> Simplex downstairs
    for n in range(dim + 1):
        members = {}
        for s in Z.simplices(n):
            members.setdefault(ufs[n].find(s), []).append(s)
        classes = sorted(members.values(), key=lambda ms: Z.skey(ms[0]))
        level = []
        for cls in classes:
            rep = cls[0]
            root = ufs[n].find(rep)
            js = [j for j in range(n)
                  if ufs[n].find(Z.degeneracy(Z.face(rep, j), j)) == root]
            if js:
                j = max(js)
                sub = ez_by_root[(n - 1, ufs[n - 1].find(Z.face(rep, j)))]
                ez_by_root[(n, root)] = Simplex(
                    compose_words((j,), sub.word), sub.cell)
            else:
                name = sys.intern(f"q{n}_{len(level)}")
                level.append(name)
                rep_of[name] = rep
                if n >= 1:
                    faces[name] = tuple(
                        ez_by_root[(n - 1, ufs[n - 1].find(Z.face(rep, i)))]
                        for i in range(n + 1))
                ez_by_root[(n, root)] = nondeg(name)
        levels.append(level)

    space = SimplicialSet(levels, faces)
    projection = SimplicialMap(
        Z, space,
        {c: ez_by_root[(Z.cell_dim(c), ufs[Z.cell_dim(c)].find(nondeg(c)))]
         for c in Z.all_cells()})
    return Quotient(space, projection, rep_of)


def mediate(co: Coproduct, q: Quotient, legs, target) -> SimplicialMap:
    """The map out of a quotient of a coproduct that is legs[i] on summand i;
    the legs must agree on the identified simplices."""
    images = []
    for cell in q.space.all_cells():
        rep = q.rep_of[cell]
        i, orig = co.summand_of[rep.cell]
        images.append(legs[i](Simplex(rep.word, orig)))
    return SimplicialMap(q.space, target, images=tuple(images))


# ---------------------------------------------------------------------------
# pushouts


class Pushout:
    """X <- A -> B glued; legs from X and B and the mediator factory."""

    def __init__(self, space, from_left, from_right, _coproduct, _quotient):
        self.space = space
        self.from_left = from_left
        self.from_right = from_right
        self._co = _coproduct
        self._q = _quotient

    def mediate(self, p: SimplicialMap, q: SimplicialMap) -> SimplicialMap:
        """The unique map out of the pushout agreeing with a commuting cocone."""
        return mediate(self._co, self._q, (p, q), p.target)


def pushout(f: SimplicialMap, g: SimplicialMap) -> Pushout:
    """The pushout X sqcup_A B of f: A -> X and g: A -> B."""
    if f.source != g.source:
        raise ValueError("pushout needs maps with a common source")
    co = coproduct([f.target, g.target])
    in_x, in_b = co.injections
    pairs = [(in_x(f(nondeg(a))), in_b(g(nondeg(a))))
             for a in f.source.all_cells()]
    q = quotient(co.space, pairs)
    return Pushout(q.space,
                   in_x.then(q.projection),
                   in_b.then(q.projection),
                   co, q)


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
        while True:
            common = set(coords[0].word)
            for c in coords[1:]:
                common &= set(c.word)
            if not common:
                break
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

    def mediate(self, maps, source=None) -> SimplicialMap:
        """The unique map into the limit induced by a compatible cone."""
        src = source if source is not None else maps[0].source
        return SimplicialMap(src, self.space, images=tuple(
            self.locate(tuple(m(nondeg(c)) for m in maps))
            for c in src.all_cells()))


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
            common = set(t[0].word) if t else set()
            for c in t[1:]:
                common &= set(c.word)
            if t and common:
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
