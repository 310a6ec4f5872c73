"""Finite index categories and diagrams of simplicial sets.

Diagrams are functors from a finite category into simplicial sets; colimits
and the pointwise (co)limits are computed with the engines from glue.  The
cotensor X^K and the mapping complex hom(A, X) are level presentations up to
a dimension cap, whose n-simplices are maps out of P(Delta^n) for
P = (-) x K or A tensor (-), with the faces and degeneracies P carries over
from Delta^*.  tensor, cotensor and hom_complex are memoized by
functools.cache, keyed by value; their results are shared, not to be mutated.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from . import glue
from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    apply_operator,
    backtrack,
    coface_map,
    codegeneracy_map,
    constant_map,
    degenerate_at,
    empty_simplicial_set,
    enumerate_maps,
    hom_set,
    identity_map,
    nondeg,
    point,
    simplex_vertices,
    standard_simplex,
    verify_map,
)


class Keyed:
    """Equality and hash through an identity key built once by `_identity()`.

    Objects of one class are equal when their keys are equal; the hash of
    the key is computed on first use and kept.
    """

    _key_cache = None
    _hash = None

    def _key(self):
        if self._key_cache is None:
            self._key_cache = self._identity()
        return self._key_cache

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash


_REQUIRED = object()


class field:
    """Options of one Record field: its default, and whether equality
    (`compare`) and `repr` see it."""

    __slots__ = ("default", "compare", "repr")

    def __init__(self, *, default, compare=True, repr=True):
        self.default = default
        self.compare = compare
        self.repr = repr


class Record:
    """A plain record: named fields, declared as annotated class attributes.

    The annotations list the fields in order; a class attribute gives a
    field's default, or a `field(...)` that also keeps it out of equality or
    out of `repr`.  A subclass takes its fields positionally or by keyword,
    compares equal to a record of the same class with equal compared fields,
    and shows its shown fields in `repr`.  `class C(Record, frozen=True)`
    makes the instances read-only and hashable over the compared fields;
    the others are mutable and unhashable.
    """

    _fields = {}        # name -> field, in declaration order
    _defaults = {}
    _compared = ()
    _shown = ()
    __hash__ = None

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dict(cls._fields)
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _REQUIRED)
            if not isinstance(spec, field):
                spec = field(default=spec)
            fields[name] = spec
        cls._fields = fields
        cls._defaults = {name: f.default for name, f in fields.items()
                         if f.default is not _REQUIRED}
        for name, default in cls._defaults.items():
            setattr(cls, name, default)
        cls._compared = tuple(n for n, f in fields.items() if f.compare)
        cls._shown = tuple(n for n, f in fields.items() if f.repr)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._read_only
            cls.__hash__ = Record._hash_compared

    def __init__(self, *args, **kwargs):
        names = tuple(self._fields)
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                values[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument "
                                f"{name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = ("multiple values for argument" if name in values
                       else "an unexpected keyword argument")
            raise TypeError(f"{type(self).__name__}() got {problem} {name!r}")
        self.__dict__.update(values)

    def _compared_values(self):
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared_values() == other._compared_values()

    def _hash_compared(self):
        return hash(self._compared_values())

    def _read_only(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"{type(self).__name__}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class SmallCategory(Keyed):
    """A finite category: named objects and arrows plus a composition table."""

    def __init__(self, objects, arrows, identities, composition):
        """arrows: (name, src, tgt) triples; identities: object -> arrow name;
        composition: (g, f) -> name of g after f, for composable non-identity
        pairs (identity compositions are filled in automatically)."""
        self.objects = tuple(objects)
        self.arrows = tuple(a[0] for a in arrows)
        self.src = {a[0]: a[1] for a in arrows}
        self.tgt = {a[0]: a[2] for a in arrows}
        self.identity = dict(identities)
        comp = dict(composition)
        for m in self.arrows:
            comp[(m, self.identity[self.src[m]])] = m
            comp[(self.identity[self.tgt[m]], m)] = m
        self.comp = comp

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    def is_identity(self, m) -> bool:
        return self.identity[self.src[m]] == m

    def non_identities(self):
        return tuple(m for m in self.arrows if not self.is_identity(m))

    def hom(self, a, b):
        return tuple(m for m in self.arrows
                     if self.src[m] == a and self.tgt[m] == b)

    def is_groupoid(self) -> bool:
        """True when every arrow has a two-sided inverse."""
        ids = self.identity
        return all(any(self.comp.get((n, m)) == ids[self.src[m]]
                       and self.comp.get((m, n)) == ids[self.tgt[m]]
                       for n in self.arrows) for m in self.arrows)

    def _identity(self):
        return (self.objects,
                tuple((m, self.src[m], self.tgt[m]) for m in self.arrows),
                tuple(sorted(self.identity.items())),
                tuple(sorted(self.comp.items())))

    def __repr__(self):
        return f"SmallCategory({len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_category(D: SmallCategory):
    problems = [(f"duplicate-{kind}", name)
                for kind, names in (("object", D.objects), ("arrow", D.arrows))
                for name in dict.fromkeys(names) if names.count(name) > 1]
    problems += [("unknown-arrow", m) for m in dict.fromkeys(
        m for pair in D.comp for m in pair) if m not in D.src]
    for d in D.objects:
        e = D.identity.get(d)
        if e is None or D.src.get(e) != d or D.tgt.get(e) != d:
            problems.append(("identity", d))
    for g in D.arrows:
        for f in D.arrows:
            if D.src[g] != D.tgt[f]:
                continue
            gf = D.comp.get((g, f))
            if gf is None:
                problems.append(("missing-composite", g, f))
            elif D.src.get(gf) != D.src[f] or D.tgt.get(gf) != D.tgt[g]:
                problems.append(("composite-typing", g, f))
    for h in D.arrows:
        for g in D.arrows:
            for f in D.arrows:
                if D.src[g] != D.tgt[f] or D.src[h] != D.tgt[g]:
                    continue
                lhs = D.comp.get((h, D.comp.get((g, f))))
                rhs = D.comp.get((D.comp.get((h, g)), f))
                if lhs != rhs:
                    problems.append(("associativity", h, g, f))
    return problems


def terminal_category() -> SmallCategory:
    return SmallCategory(["*"], [("id", "*", "*")], {"*": "id"}, {})


def arrow_category() -> SmallCategory:
    return SmallCategory(
        ["a", "b"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("f", "a", "b")],
        {"a": "ida", "b": "idb"}, {})


def cyclic_category(n) -> SmallCategory:
    """The cyclic group of order n as a one-object category, arrows g0..g{n-1}."""
    arrows = [(f"g{k}", "*", "*") for k in range(n)]
    comp = {(f"g{k}", f"g{l}"): f"g{(k + l) % n}"
            for k in range(n) for l in range(n)}
    return SmallCategory(["*"], arrows, {"*": "g0"}, comp)


def opposite(D: SmallCategory) -> SmallCategory:
    arrows = [(m, D.tgt[m], D.src[m]) for m in D.arrows]
    comp = {(f, g): gf for (g, f), gf in D.comp.items()}
    return SmallCategory(D.objects, arrows, D.identity, comp)


# ---------------------------------------------------------------------------
# diagrams and their maps


class Diagram(Keyed):
    """A functor from a finite category into simplicial sets.

    Two diagrams are equal when their shapes, objects and actions are equal.
    The identity key holds references to those children, not copies, and
    the hash is computed once.
    """

    def __init__(self, shape: SmallCategory, at, act):
        self.shape = shape
        self.at = dict(at)
        self.act = dict(act)
        for d in shape.objects:
            e = shape.identity[d]
            if e not in self.act:
                self.act[e] = identity_map(self.at[d])

    def _identity(self):
        return (self.shape,
                tuple((d, self.at[d]) for d in self.shape.objects),
                tuple((m, self.act[m]) for m in self.shape.arrows))

    def __repr__(self):
        sizes = {d: self.at[d].n_nondegenerate() for d in self.shape.objects}
        return f"Diagram({sizes})"

    @property
    def dim(self) -> int:
        return max((self.at[d].dim for d in self.shape.objects), default=-1)


def validate_diagram(X: Diagram):
    D = X.shape
    problems = ([("unknown-object", o) for o in X.at if o not in D.objects]
                + [("unknown-arrow", m) for m in X.act if m not in D.src])
    if problems:
        return problems
    for m in D.arrows:
        f = X.act.get(m)
        if f is None:
            problems.append(("missing-action", m))
            continue
        if f.source != X.at[D.src[m]] or f.target != X.at[D.tgt[m]]:
            problems.append(("action-typing", m))
        elif verify_map(f):
            problems.append(("action-not-simplicial", m))
    if problems:
        return problems
    for d in D.objects:
        if X.act[D.identity[d]] != identity_map(X.at[d]):
            problems.append(("identity-action", d))
    for g in D.arrows:
        for f in D.arrows:
            if D.src[g] != D.tgt[f]:
                continue
            if X.act[D.comp[(g, f)]] != X.act[f].then(X.act[g]):
                problems.append(("functoriality", g, f))
    return problems


class DiagramMap(Keyed):
    """A natural transformation between diagrams of the same shape.

    Two maps are equal when their sources, targets and components are equal.
    The identity key holds references to those children, not copies, and
    the hash is computed once.
    """

    def __init__(self, source: Diagram, target: Diagram, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    def __getitem__(self, d) -> SimplicialMap:
        return self.components[d]

    def _identity(self):
        return (self.source, self.target,
                tuple((d, self.components[d])
                      for d in self.source.shape.objects))

    def __repr__(self):
        return f"DiagramMap({self.source!r} -> {self.target!r})"

    def then(self, other: "DiagramMap") -> "DiagramMap":
        if self.target != other.source:
            raise ValueError(f"cannot compose {self!r} with {other!r}: "
                             "target and source differ")
        return DiagramMap(self.source, other.target,
                          {d: self.components[d].then(other.components[d])
                           for d in self.components})


def identity_dmap(X: Diagram) -> DiagramMap:
    return DiagramMap(X, X, {d: identity_map(X.at[d])
                             for d in X.shape.objects})


def validate_dmap(h: DiagramMap):
    if h.source.shape != h.target.shape:
        return [("shape-mismatch",)]
    D = h.source.shape
    problems = [("unknown-object", o) for o in h.components
                if o not in D.objects]
    if problems:
        return problems
    for d in D.objects:
        f = h.components.get(d)
        if f is None or f.source != h.source.at[d] or f.target != h.target.at[d]:
            problems.append(("component-typing", d))
        elif verify_map(f):
            problems.append(("component-not-simplicial", d))
    if problems:
        return problems
    for m in D.non_identities():
        a, b = D.src[m], D.tgt[m]
        if h.source.act[m].then(h.components[b]) != \
                h.components[a].then(h.target.act[m]):
            problems.append(("naturality", m))
    return problems


def constant_diagram(D: SmallCategory, K: SimplicialSet) -> Diagram:
    return Diagram(D, {d: K for d in D.objects},
                   {m: identity_map(K) for m in D.arrows})


def point_diagram(D: SmallCategory) -> Diagram:
    return constant_diagram(D, point())


def empty_diagram(D: SmallCategory) -> Diagram:
    return constant_diagram(D, empty_simplicial_set())


def wrap_sset(X: SimplicialSet) -> Diagram:
    """A plain simplicial set as a diagram over the one-object category."""
    return Diagram(terminal_category(), {"*": X}, {})


def wrap_smap(f: SimplicialMap) -> DiagramMap:
    return DiagramMap(wrap_sset(f.source), wrap_sset(f.target), {"*": f})


def terminal_dmap(X: Diagram) -> DiagramMap:
    P = point_diagram(X.shape)
    return DiagramMap(X, P, {d: constant_map(X.at[d], point(), "0")
                             for d in X.shape.objects})


def empty_dmap_into(X: Diagram) -> DiagramMap:
    E = empty_diagram(X.shape)
    return DiagramMap(E, X, {d: SimplicialMap(empty_simplicial_set(),
                                              X.at[d], {})
                             for d in X.shape.objects})


def nerve(D: SmallCategory, dim_cap) -> SimplicialSet:
    """The nerve of a finite category, truncated at dim_cap.

    Nondegenerate k-simplices are chains (f_1, ..., f_k) of composable
    non-identity arrows, f_i from a_{i-1} to a_i.  Inner faces compose
    adjacent arrows; a composite that collapses to an identity makes the
    chain a degeneracy of the shorter one.
    """

    def name_of(chain, obj=None):
        return "|".join(chain) if chain else obj

    def normal_form(chain, obj):
        # strip identity entries greedily from the largest position; an
        # identity at index j is the j-th degeneracy of the shorter chain
        word = []
        chain = list(chain)
        while True:
            ids = [j for j, m in enumerate(chain) if D.is_identity(m)]
            if not ids:
                break
            j = max(ids)
            chain.pop(j)
            word.append(j)
        return Simplex(tuple(word), name_of(tuple(chain), obj))

    chains = {0: [()]}
    for k in range(1, dim_cap + 1):
        chains[k] = [chain + (m,) for chain in chains[k - 1]
                     for m in D.non_identities()
                     if not chain or D.src[m] == D.tgt[chain[-1]]]

    levels = [list(D.objects)]
    faces = {}
    for k in range(1, dim_cap + 1):
        cells = sorted(chains[k], key=name_of)
        levels.append([name_of(c) for c in cells])
        for c in cells:
            fs = []
            for i in range(k + 1):
                if i == 0:
                    fs.append(Simplex((), name_of(c[1:], D.tgt[c[0]])))
                elif i == k:
                    fs.append(Simplex((), name_of(c[:-1], D.src[c[0]])))
                else:
                    merged = c[:i - 1] + (D.comp[(c[i], c[i - 1])],) + c[i + 1:]
                    fs.append(normal_form(merged, D.src[c[0]]))
            faces[name_of(c)] = tuple(fs)
    return SimplicialSet(levels, faces)


def free_diagram(D: SmallCategory, d) -> Diagram:
    """The free (representable) diagram generated at d: discrete hom-sets."""
    at = {}
    for d2 in D.objects:
        at[d2] = SimplicialSet([list(D.hom(d, d2))], {})
    act = {}
    for m in D.arrows:
        a, b = D.src[m], D.tgt[m]
        act[m] = SimplicialMap(at[a], at[b],
                               {u: nondeg(D.compose(m, u)) for u in D.hom(d, a)})
    return Diagram(D, at, act)


# ---------------------------------------------------------------------------
# colimits


def colim(X: Diagram) -> glue.Glued:
    """Levelwise colimit: the coproduct of the values with every cell glued
    to its image under each non-identity arrow; legs in shape.objects order."""
    D = X.shape
    k = {d: i for i, d in enumerate(D.objects)}
    return glue.Glued([X.at[d] for d in D.objects], [
        ((k[D.src[m]], nondeg(c)), (k[D.tgt[m]], X.act[m](nondeg(c))))
        for m in D.non_identities() for c in X.at[D.src[m]].all_cells()])


def colim_map(f: DiagramMap) -> SimplicialMap:
    """The induced map of colimits."""
    cx, cy = colim(f.source), colim(f.target)
    return cx.mediate([f.components[d].then(leg)
                       for d, leg in zip(f.source.shape.objects, cy.legs)])


# ---------------------------------------------------------------------------
# pointwise (co)limits of diagrams


class CoproductD:
    def __init__(self, diagram, injections):
        self.diagram = diagram
        self.injections = injections


def coproduct_D(diagrams) -> CoproductD:
    D = diagrams[0].shape
    cos = {d: glue.coproduct([X.at[d] for X in diagrams]) for d in D.objects}
    at = {d: cos[d].space for d in D.objects}
    act = {}
    for m in D.arrows:
        inj = cos[D.tgt[m]].injections
        act[m] = cos[D.src[m]].mediate([X.act[m].then(i)
                                        for X, i in zip(diagrams, inj)])
    diagram = Diagram(D, at, act)
    injections = [DiagramMap(X, diagram,
                             {d: cos[d].injections[i] for d in D.objects})
                  for i, X in enumerate(diagrams)]
    return CoproductD(diagram, injections)


class PushoutD:
    def __init__(self, diagram, legs, pos):
        self.diagram = diagram
        self.legs = legs  # legs[0] from X, legs[1 + i] from B_i
        self.pos = pos  # object -> glue.Glued, the pushout at that object

    def mediate(self, maps) -> DiagramMap:
        """The map out of the pushout that is maps[k] on legs[k]."""
        comps = {d: self.pos[d].mediate([m.components[d] for m in maps])
                 for d in self.diagram.shape.objects}
        return DiagramMap(self.diagram, maps[0].target, comps)


def pushout_D(spans) -> PushoutD:
    """Pointwise pushout of the spans (f_i: A_i -> X, g_i: A_i -> B_i), all
    f_i into one X, with induced actions."""
    X = spans[0][0].target
    if any(f.source != g.source or f.target != X for f, g in spans):
        raise ValueError("pushout_D needs spans of maps with a common "
                         "source, all into one diagram")
    D = X.shape
    ends = [X] + [g.target for _, g in spans]
    pos = {d: glue.pushout([(f.components[d], g.components[d])
                            for f, g in spans])
           for d in D.objects}
    at = {d: pos[d].space for d in D.objects}
    act = {}
    for m in D.arrows:
        a, b = D.src[m], D.tgt[m]
        act[m] = pos[a].mediate([E.act[m].then(leg)
                                 for E, leg in zip(ends, pos[b].legs)])
    diagram = Diagram(D, at, act)
    legs = [DiagramMap(E, diagram, {d: pos[d].legs[k] for d in D.objects})
            for k, E in enumerate(ends)]
    return PushoutD(diagram, legs, pos)


class LimitD:
    """Finite limit of diagrams cut out of a product by map equalities."""

    def __init__(self, diagram, projections, tcs):
        self.diagram = diagram
        self.projections = projections
        self.tcs = tcs

    def mediate(self, maps) -> DiagramMap:
        src = maps[0].source
        comps = {d: self.tcs[d].mediate([m.components[d] for m in maps])
                 for d in src.shape.objects}
        return DiagramMap(src, self.diagram, comps)


def limit_D(factors, constraints) -> LimitD:
    """Pointwise limit of several diagrams; constraints are (i, f, j, g)
    with f, g DiagramMaps out of factors i and j into a shared corner."""
    D = factors[0].shape
    tcs = {}
    for d in D.objects:
        cons = tuple((i, f.components[d], j, g.components[d])
                     for (i, f, j, g) in constraints)
        tcs[d] = glue.tuple_complex(tuple(X.at[d] for X in factors), cons)
    at = {d: tcs[d].space for d in D.objects}
    act = {}
    for m in D.arrows:
        a, b = D.src[m], D.tgt[m]
        act[m] = glue.induced_tuple_map(tcs[a], tcs[b],
                                        tuple(X.act[m] for X in factors))
    diagram = Diagram(D, at, act)
    projections = [DiagramMap(diagram, X,
                              {d: tcs[d].projection(i) for d in D.objects})
                   for i, X in enumerate(factors)]
    return LimitD(diagram, projections, tcs)


def pullback_D(f: DiagramMap, g: DiagramMap) -> LimitD:
    """Pointwise fiber product of f: X -> Z and g: Y -> Z, as the limit of
    X and Y under f = g; projections[0] and [1] go to X and Y."""
    if f.target != g.target:
        raise ValueError("pullback_D needs maps with a common target")
    return limit_D([f.source, g.source], [(0, f, 1, g)])


# ---------------------------------------------------------------------------
# tensor with a simplicial set


class Tensor:
    def __init__(self, diagram, tcs):
        self.diagram = diagram
        self.tcs = tcs  # object -> glue.TupleComplex for at[d] x K


@functools.cache
def tensor(X: Diagram, K: SimplicialSet) -> Tensor:
    """Objectwise product with a constant diagram at K."""
    D = X.shape
    tcs = {d: glue.product(X.at[d], K) for d in D.objects}
    at = {d: tcs[d].space for d in D.objects}
    act = {m: glue.induced_tuple_map(tcs[D.src[m]], tcs[D.tgt[m]],
                                     (X.act[m], identity_map(K)))
           for m in D.arrows}
    return Tensor(Diagram(D, at, act), tcs)


def tensor_map(f: DiagramMap, k: SimplicialMap) -> DiagramMap:
    """The map tensor(A, K) -> tensor(B, L) induced by f: A -> B and k: K -> L."""
    tsrc = tensor(f.source, k.source)
    tdst = tensor(f.target, k.target)
    comps = {d: glue.induced_tuple_map(tsrc.tcs[d], tdst.tcs[d],
                                       (f.components[d], k))
             for d in f.source.shape.objects}
    return DiagramMap(tsrc.diagram, tdst.diagram, comps)


def tensor_unit_section(X: Diagram, K: SimplicialSet, vertex) -> DiagramMap:
    """The slice X -> X tensor K over a vertex of K."""
    t = tensor(X, K)
    comps = {}
    for d in X.shape.objects:
        tc = t.tcs[d]
        assignment = {c: tc.locate((nondeg(c), degenerate_at(
            K, vertex, X.at[d].cell_dim(c)))) for c in X.at[d].all_cells()}
        comps[d] = SimplicialMap(X.at[d], tc.space, assignment)
    return DiagramMap(X, t.diagram, comps)


def tensor_projection(X: Diagram, K: SimplicialSet) -> DiagramMap:
    t = tensor(X, K)
    return DiagramMap(t.diagram, X,
                      {d: t.tcs[d].projection(0) for d in X.shape.objects})


# ---------------------------------------------------------------------------
# levelwise presentations (cotensor, mapping complexes)


class LevelPresentation:
    """A simplicial set up to a cap, given by levelwise element sets.

    Records the normal form of every element up to the cap (`to_simplex`)
    and the element behind every presented cell (`elem_of_cell`), so maps
    defined on elements can be transported to the extracted presentation.
    """

    def __init__(self, space, to_simplex, elem_of_cell, cap):
        self.space = space
        self.to_simplex = to_simplex    # (n, element) -> Simplex
        self.elem_of_cell = elem_of_cell
        self.cap = cap

    def transport(self, other: "LevelPresentation", fn) -> SimplicialMap:
        """The map of presented spaces sending the cell of an n-element e to
        the normal form of fn(n, e) in `other`."""
        space = self.space
        images = tuple(other.to_simplex[(n, fn(n, self.elem_of_cell[c]))]
                       for n, cells in enumerate(space.levels)
                       for c in cells)
        return SimplicialMap(space, other.space, images=images)


def _operators(functor, cap):
    """functor applied to the cofaces delta_i: Delta^{n-1} -> Delta^n
    (cofaces[n][i], i <= n) and the codegeneracies sigma_j: Delta^n ->
    Delta^{n-1} (codegs[n][j], j < n) of the levels n <= cap."""
    return ([tuple(functor(coface_map(n, i)) for i in range(n + 1)) if n
             else () for n in range(cap + 1)],
            [tuple(functor(codegeneracy_map(n - 1, j)) for j in range(n))
             for n in range(cap + 1)])


def complex_from_levels(levels, cofaces, codegs, cap) -> LevelPresentation:
    """Extract a normal-form presentation from levelwise elements.

    levels[n] lists the n-elements, maps out of P(Delta^n), in canonical
    order; the `_operators` of P act by precomposition: d_i e =
    cofaces[n][i].then(e), s_j f = codegs[n][j].then(f); normal forms by
    `glue.normal_form_complex`.  Cells above the cap are unknown; the result
    presents the cap-skeleton.
    """
    space, to_simplex, elem_of_cell = glue.normal_form_complex(
        levels, lambda n, e, i: cofaces[n][i].then(e),
        lambda n, f, j: codegs[n][j].then(f), "e")
    return LevelPresentation(space, to_simplex, elem_of_cell, cap)


class Cotensor:
    """Objectwise mapping complex X^K up to a dimension cap."""

    def __init__(self, diagram, pres, base, K, cap):
        self.diagram = diagram
        self.pres = pres  # object -> LevelPresentation (elements: SimplicialMaps)
        self.base = base
        self.K = K
        self.cap = cap


@functools.cache
def cotensor(X: Diagram, K: SimplicialSet, cap) -> Cotensor:
    """X^K with m-simplices hom(Delta^m x K, X(d)) for m <= cap."""
    D = X.shape
    cofaces, codegs = _operators(
        lambda k: glue.induced_tuple_map(glue.product(k.source, K),
                                         glue.product(k.target, K),
                                         (k, identity_map(K))), cap)
    pres = {}
    for d in D.objects:
        levels = [hom_set(glue.product(standard_simplex(m), K).space, X.at[d])
                  for m in range(cap + 1)]
        pres[d] = complex_from_levels(levels, cofaces, codegs, cap)
    at = {d: pres[d].space for d in D.objects}
    act = {m: pres[D.src[m]].transport(pres[D.tgt[m]],
                                       lambda n, e: e.then(X.act[m]))
           for m in D.arrows}
    return Cotensor(Diagram(D, at, act), pres, X, K, cap)


def cotensor_map(f: DiagramMap, K: SimplicialSet, cap) -> DiagramMap:
    """Postcomposition X^K -> Y^K induced by f: X -> Y."""
    cs, ct = cotensor(f.source, K, cap), cotensor(f.target, K, cap)
    comps = {d: cs.pres[d].transport(
        ct.pres[d], lambda n, e: e.then(f.components[d]))
        for d in f.source.shape.objects}
    return DiagramMap(cs.diagram, ct.diagram, comps)


def cotensor_restriction(X: Diagram, k: SimplicialMap, cap) -> DiagramMap:
    """Precomposition X^L -> X^K induced by an inclusion k: K -> L."""
    K, L = k.source, k.target
    cL, cK = cotensor(X, L, cap), cotensor(X, K, cap)
    # product(Delta^m, K) -> product(Delta^m, L), one per level
    incls = [glue.induced_tuple_map(glue.product(standard_simplex(m), K),
                                    glue.product(standard_simplex(m), L),
                                    (identity_map(standard_simplex(m)), k))
             for m in range(cap + 1)]
    comps = {d: cL.pres[d].transport(cK.pres[d],
                                     lambda n, e: incls[n].then(e))
             for d in X.shape.objects}
    return DiagramMap(cL.diagram, cK.diagram, comps)


# ---------------------------------------------------------------------------
# hom sets and mapping complexes of diagrams


def hom_D(A: Diagram, X: Diagram,
          component_pool: Optional[Callable] = None,
          limit: Optional[int] = None,
          budget: Optional[list] = None):
    """All natural transformations A -> X, in canonical order.

    component_pool(d) optionally narrows the candidate simplicial maps used
    at each object; naturality is enforced across all arrows; limit caps the
    number of results.
    """
    D = A.shape
    if D != X.shape:
        raise ValueError("hom_D needs diagrams of the same shape")
    objects = list(D.objects)
    pools = {d: list(component_pool(d)) if component_pool is not None
             else enumerate_maps(A.at[d], X.at[d], budget=budget)
             for d in objects}
    arrows_by_pair = {}
    for m in D.non_identities():
        a, b = D.src[m], D.tgt[m]
        arrows_by_pair.setdefault((a, b), []).append(m)
    # the squares to check at objects[k]: arrows between it and earlier ones
    slot = {d: k for k, d in enumerate(objects)}
    squares = [[(A.act[m], slot[a], slot[b], X.act[m])
                for (a, b), ms in arrows_by_pair.items()
                if max(slot[a], slot[b]) == k for m in ms]
               for k in range(len(objects))]

    def natural(k, chosen):
        return all(fa.then(chosen[b]) == chosen[a].then(fx)
                   for fa, a, b, fx in squares[k])

    def emit(chosen):
        return DiagramMap(A, X, dict(zip(objects, chosen)))

    return backtrack(len(objects), lambda k, chosen: pools[objects[k]], emit,
                     accept=natural if any(squares) else None, limit=limit,
                     budget=budget)


@functools.cache
def hom_complex(A: Diagram, X: Diagram, cap) -> LevelPresentation:
    """The mapping complex of diagrams up to the cap: level n is the set of
    natural transformations A tensor Delta^n -> X."""
    cofaces, codegs = _operators(
        lambda k: tensor_map(identity_dmap(A), k), cap)
    levels = [hom_D(tensor(A, standard_simplex(m)).diagram, X)
              for m in range(cap + 1)]
    return complex_from_levels(levels, cofaces, codegs, cap)


def hom_complex_post(A: Diagram, f: DiagramMap, cap) -> SimplicialMap:
    """hom(A, X) -> hom(A, Y) induced by postcomposition with f: X -> Y."""
    hs, ht = hom_complex(A, f.source, cap), hom_complex(A, f.target, cap)
    return hs.transport(ht, lambda n, e: e.then(f))


def hom_complex_pre(h: DiagramMap, X: Diagram, cap) -> SimplicialMap:
    """hom(B, X) -> hom(A, X) induced by precomposition with h: A -> B."""
    hs, ht = hom_complex(h.target, X, cap), hom_complex(h.source, X, cap)
    return hs.transport(ht, lambda n, e: tensor_map(
        h, identity_map(standard_simplex(n))).then(e))


def adjoint_to_cotensor(a: DiagramMap, T: Diagram, cot: Cotensor) -> DiagramMap:
    """Convert a: tensor(T, K) -> X into T -> X^K; inverse of adjoint_to_tensor.

    The element assigned to a cell t evaluates a along the operator action
    of the Delta-coordinate on t.
    """
    X, K = cot.base, cot.K
    t_tensor = tensor(T, K)
    comps = {}
    for d in T.shape.objects:
        tc = t_tensor.tcs[d]
        assignment = {}
        for t in T.at[d].all_cells():
            m = T.at[d].cell_dim(t)
            if m > cot.cap:
                raise ValueError(
                    f"adjoint_to_cotensor: cell {t!r} of dimension {m} is "
                    f"above the cotensor cap {cot.cap}, so its element has "
                    f"no simplex in the truncated cotensor")
            ptc = glue.product(standard_simplex(m), K)
            psi = {}
            for cell in ptc.space.all_cells():
                sigma, kappa = ptc.coords[cell]
                moved = apply_operator(T.at[d], nondeg(t),
                                       simplex_vertices(sigma))
                psi[cell] = a.components[d](tc.locate((moved, kappa)))
            element = SimplicialMap(ptc.space, X.at[d], psi)
            assignment[t] = cot.pres[d].to_simplex[(m, element)]
        comps[d] = SimplicialMap(T.at[d], cot.diagram.at[d], assignment)
    return DiagramMap(T, cot.diagram, comps)


def adjoint_to_tensor(phi: DiagramMap, cot: Cotensor) -> DiagramMap:
    """Convert phi: T -> X^K into the adjoint map tensor(T, K) -> X.

    The value on a pair (u, v) evaluates the element of phi(u) = s_w(c) at
    the top simplex of Delta^n paired with v.  That element is the cell's
    element e_c precomposed with the codegeneracies of w, and the
    codegeneracies carry the top simplex of Delta^n to s_w of the top
    simplex of Delta^m (m the dimension of c).  So the value is
    e_c(s_w(iota_m), v), read in product(Delta^m, K): no composite map and
    no product above the cell's own level is built.
    """
    T = phi.source
    X = cot.base
    K = cot.K
    t = tensor(T, K)
    comps = {}
    for d in T.shape.objects:
        tc = t.tcs[d]
        pres = cot.pres[d]
        images = []
        for cell in tc.space.all_cells():
            u, v = tc.coords[cell]
            w, c = phi.components[d](u)
            m = pres.space.cell_dim(c)
            iota = Simplex(w, standard_simplex(m).cells(m)[0])
            images.append(pres.elem_of_cell[c](
                glue.product(standard_simplex(m), K).locate((iota, v))))
        comps[d] = SimplicialMap(tc.space, X.at[d], images=tuple(images))
    return DiagramMap(t.diagram, X, comps)
