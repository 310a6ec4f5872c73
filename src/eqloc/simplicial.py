"""Finite simplicial sets: degeneracy words, normal forms, maps, hom enumeration.

Every simplex is kept in Eilenberg-Zilber normal form: a strictly decreasing
degeneracy word applied to a nondegenerate cell.  All face/degeneracy algebra
happens on words, so a complex only ever materializes its nondegenerate cells.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Callable, NamedTuple, Optional


class BudgetExceeded(Exception):
    """Raised when a backtracking search runs out of its node budget."""


# ---------------------------------------------------------------------------
# degeneracy words
#
# A word (i_k, ..., i_1) with i_k > ... > i_1 >= 0 denotes the operator
# composite s_{i_k} .. s_{i_1} (rightmost applied first).  The empty word is
# the identity.

Word = tuple  # tuple[int, ...], strictly decreasing


def is_admissible(word) -> bool:
    return all(word[t] > word[t + 1] for t in range(len(word) - 1))


def normalize_word(indices) -> Word:
    """Admissible form of an arbitrary composite of degeneracy operators.

    Rewrites adjacent pairs by s_i s_j = s_{j+1} s_i (i <= j) until the
    sequence is strictly decreasing.
    """
    word = list(indices)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a <= b:
                word[k], word[k + 1] = b + 1, a
                changed = True
    return tuple(word)


def compose_words(outer, inner) -> Word:
    """Admissible form of the composite (outer word) after (inner word)."""
    return normalize_word(tuple(outer) + tuple(inner))


def word_face(word, i):
    """Push d_i through a degeneracy word.

    Returns (word', residual) where the composite d_i . s_word equals
    s_word' . d_residual, with residual None when d_i is absorbed by the word.
    """
    out = []
    rest = list(word)
    while rest:
        j = rest.pop(0)
        if i < j:
            out.append(j - 1)
        elif i == j or i == j + 1:
            return normalize_word(out + rest), None
        else:
            out.append(j)
            i -= 1
    return normalize_word(out), i


@functools.cache
def admissible_words(length, base_dim):
    """All admissible words of the given length acting on a base_dim-simplex.

    Sorted; there are C(base_dim + length, length) of them.  A word read
    backwards increases with i_t <= base_dim + t - 1, as does every
    increasing tuple drawn from range(base_dim + length).  Cached, so every
    complex's simplices share one tuple per word.
    """
    return tuple(sorted(tuple(reversed(c)) for c in
                        itertools.combinations(range(base_dim + length),
                                               length)))


class Simplex(NamedTuple):
    """A (possibly degenerate) simplex in EZ normal form: word applied to a cell."""

    word: Word
    cell: str


def nondeg(cell: str) -> Simplex:
    return Simplex((), cell)


# ---------------------------------------------------------------------------
# simplicial sets


def _as_simplex(s) -> Simplex:
    """s as a Simplex with a tuple word; one that already is one is kept."""
    if type(s) is Simplex and type(s.word) is tuple:
        return s
    return Simplex(tuple(s[0]), s[1])


class SimplicialSet:
    """A finite simplicial set presented by nondegenerate cells.

    levels: per-dimension lists of cell names (the canonical order).
    faces: for each cell of dimension n >= 1, an (n+1)-tuple of Simplex values
    of dimension n-1, listed d_0 .. d_n.  A face that is already a Simplex
    with a tuple word is kept as is, not copied.

    Construction is hash-consed: equal complexes are one object.  The key is
    (levels, the faces of each cell in `all_cells()` order, None for a
    vertex); its hash is computed once, at construction, and is the
    complex's hash.  While a complex with that key is alive, building the
    same value again returns it, so its memos serve every builder.  The
    table holds complexes weakly and keeps none alive.  A complex whose
    `faces` has an entry for a name that is not a cell is not interned: it is
    always a fresh object, so `validate` can report the stray entry.

    `_index` gives each cell its position in `all_cells()` order; maps out of
    the complex store their images in that order.  Two complexes are equal
    when their keys are equal (entries of `faces` for names that are not
    cells are ignored).  A complex must not be mutated after construction.

    The class has `__slots__`, so an instance has no `__dict__`.  Its two
    memos, `_simplices_cache` (n -> `simplices(n)`) and `_bd_index`
    (m -> `_boundary_index(m)`), stay None until first used.  `levels` and
    `cell_faces` return the complex's own immutable tuples.
    """

    __slots__ = ("_levels", "_faces", "_index", "_dims", "_hash",
                 "_simplices_cache", "_bd_index", "__weakref__")

    _interned = weakref.WeakValueDictionary()  # key -> the live complex

    def __new__(cls, levels, faces):
        lv = [tuple(l) for l in levels]
        while lv and not lv[-1]:
            lv.pop()
        levels = tuple(lv)
        faces = {c: tuple(map(_as_simplex, fs)) for c, fs in faces.items()}
        index = {}
        dims = []
        for n, cells in enumerate(levels):
            for c in cells:
                if c in index:
                    raise ValueError(f"duplicate cell name {c!r}")
                index[c] = len(dims)
                dims.append(n)
        key = (levels, tuple(map(faces.get, index)))
        interned = faces.keys() <= index.keys()
        if interned:
            self = cls._interned.get(key)
            if self is not None:
                return self
        self = super().__new__(cls)
        self._levels = levels
        self._faces = faces
        self._index = index
        self._dims = tuple(dims)
        self._hash = hash(key)
        self._simplices_cache = None
        self._bd_index = None
        if interned:
            cls._interned[key] = self
        return self

    # -- basic structure ----------------------------------------------------

    @property
    def levels(self):
        return self._levels

    @property
    def dim(self) -> int:
        """Dimension: max level holding a nondegenerate cell, -1 if empty."""
        return len(self._levels) - 1

    def cells(self, n) -> tuple:
        if 0 <= n < len(self._levels):
            return self._levels[n]
        return ()

    def all_cells(self):
        for cells in self._levels:
            yield from cells

    def n_nondegenerate(self) -> int:
        return sum(len(l) for l in self._levels)

    def cell_dim(self, cell) -> int:
        return self._dims[self._index[cell]]

    def cell_faces(self, cell) -> tuple:
        return self._faces[cell]

    def has_cell(self, cell) -> bool:
        return cell in self._index

    def simplex_dim(self, s: Simplex) -> int:
        return self._dims[self._index[s.cell]] + len(s.word)

    def skey(self, s: Simplex):
        """Canonical sort key among simplices of equal dimension."""
        return (self._index[s.cell], s.word)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        if hash(self) != hash(other) or self._levels != other._levels:
            return False
        mine, theirs = self._faces.get, other._faces.get
        return all(mine(c) == theirs(c) for c in self._index)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        counts = ",".join(str(len(l)) for l in self._levels)
        return f"SimplicialSet[{counts}]"

    # -- simplex algebra ----------------------------------------------------

    def face(self, s: Simplex, i) -> Simplex:
        """d_i of a simplex in normal form (a table read for a cell)."""
        n = self._dims[self._index[s.cell]] + len(s.word)
        if n < 1 or not 0 <= i <= n:
            raise IndexError(f"face index {i} out of range for dim {n}")
        if not s.word:
            f = self._faces[s.cell][i]
            return Simplex(normalize_word(f.word), f.cell) if f.word else f
        word, residual = word_face(s.word, i)
        if residual is None:
            return Simplex(word, s.cell)
        f = self._faces[s.cell][residual]
        return Simplex(compose_words(word, f.word), f.cell)

    def degeneracy(self, s: Simplex, j) -> Simplex:
        n = self.simplex_dim(s)
        if not 0 <= j <= n:
            raise IndexError(f"degeneracy index {j} out of range for dim {n}")
        return Simplex(compose_words((j,), s.word), s.cell)

    def simplices(self, n) -> tuple:
        """All n-simplices (degenerate included), canonical order."""
        if n < 0:
            return ()
        cache = self._simplices_cache
        if cache is None:
            cache = self._simplices_cache = {}
        if n not in cache:
            out = []
            for q in range(min(n, self.dim) + 1):
                for cell in self._levels[q]:
                    for w in admissible_words(n - q, q):
                        out.append(Simplex(w, cell))
            out.sort(key=self.skey)
            cache[n] = tuple(out)
        return cache[n]

    def _boundary_index(self, m):
        """Index boundary (d_0 s, ..., d_m s) -> the m-simplices s with that
        boundary, in canonical order; all vertices under () when m = 0.

        The faces in a key are the members of `simplices(m - 1)`, and the
        m = 0 entry is `simplices(0)` itself, so the index copies no simplex.
        """
        cache = self._bd_index
        if cache is None:
            cache = self._bd_index = {}
        if m in cache:
            return cache[m]
        if m == 0:
            vertices = self.simplices(0)
            cache[0] = {(): vertices} if vertices else {}
            return cache[0]
        canonical = {s: s for s in self.simplices(m - 1)}
        idx = {}
        for s in self.simplices(m):
            bd = tuple([canonical[self.face(s, i)] for i in range(m + 1)])
            idx.setdefault(bd, []).append(s)
        cache[m] = {k: tuple(v) for k, v in idx.items()}
        return cache[m]


def validate(X: SimplicialSet):
    """Check well-formedness and the simplicial identities.

    Returns a list of violations; empty means valid.  Face-data violations
    are reported per (cell, slot), a face word of an n-cell with an index
    outside 0..n-2 as inadmissible; identity violations as (cell, i, j)
    where d_i d_j != d_{j-1} d_i, read from a table D[b][a] = d_a d_b and
    skipped when a face of a face lacks face data; a `faces` entry for a
    name that is not a cell as ("faces-for-unknown-cell", name).
    """
    problems = []
    index, dims, faces = X._index, X._dims, X._faces
    valid = set()  # cells of dimension >= 1 whose face data passed
    for cell, n in zip(index, dims):
        fs = faces.get(cell)
        if n == 0:
            if fs is not None:
                problems.append(("faces-on-vertex", cell))
            continue
        if fs is None:
            problems.append(("missing-faces", cell))
            continue
        if len(fs) != n + 1:
            problems.append(("face-count", cell, len(fs)))
            continue
        reported = len(problems)
        for i, (w, c) in enumerate(fs):
            if len(w) > 1 and not is_admissible(w):
                problems.append(("inadmissible-word", cell, i))
            elif c not in index:
                problems.append(("unknown-face-target", cell, i, c))
            elif dims[index[c]] + len(w) != n - 1:
                problems.append(("face-dimension", cell, i))
            elif w and (w[-1] < 0 or w[0] > n - 2):
                problems.append(("inadmissible-word", cell, i))
        if len(problems) > reported:
            continue
        valid.add(cell)
        if n < 2:
            continue
        try:  # a degenerate face on a vertex v has every face s_{n-3..0} v
            D = [faces[f.cell] if not f.word and f.cell in valid
                 else [Simplex(f.word[1:], f.cell)] * n
                 if not dims[index[f.cell]]
                 else [X.face(f, a) for a in range(n)] for f in fs]
        except (KeyError, IndexError):
            continue
        for j in range(1, n + 1):
            for i in range(j):
                if D[j][i] != D[i][j - 1]:
                    problems.append(("identity", cell, i, j))
    for name in faces:
        if name not in index:
            problems.append(("faces-for-unknown-cell", name))
    return problems


# ---------------------------------------------------------------------------
# standard complexes
#
# Cells of the standard family are named by dot-joined vertex labels, e.g.
# "0.2.3" for the face of a simplex spanned by vertices 0, 2, 3.  They and
# their coface and codegeneracy maps are built once, by functools.cache.


def _subset_name(vs) -> str:
    return ".".join(str(v) for v in vs)


def _simplex_on_subsets(n, keep=None):
    """Complex whose cells are the vertex subsets of [n] that keep accepts
    (all of them by default); the kept subsets must be downward closed."""
    by_dim = {}
    for m in range(n + 1):
        for vs in itertools.combinations(range(n + 1), m + 1):
            if keep is None or keep(vs):
                by_dim.setdefault(m, []).append(vs)
    levels = []
    faces = {}
    for d in range(max(by_dim) + 1 if by_dim else 0):
        cells = sorted(by_dim.get(d, []))
        levels.append([_subset_name(vs) for vs in cells])
        if d >= 1:
            for vs in cells:
                faces[_subset_name(vs)] = tuple(
                    nondeg(_subset_name(vs[:i] + vs[i + 1:]))
                    for i in range(len(vs)))
    return SimplicialSet(levels, faces)


@functools.cache
def standard_simplex(n) -> SimplicialSet:
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return _simplex_on_subsets(n)


@functools.cache
def boundary(n) -> SimplicialSet:
    """The boundary of the standard n-simplex; empty when n = 0."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return _simplex_on_subsets(n, lambda vs: len(vs) <= n)


@functools.cache
def horn(n, k) -> SimplicialSet:
    """The horn missing the k-th facet; requires n >= 1."""
    if n < 1:
        raise ValueError("horn requires n >= 1")
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")
    skipped = tuple(v for v in range(n + 1) if v != k)
    return _simplex_on_subsets(n, lambda vs: len(vs) <= n and vs != skipped)


def empty_simplicial_set() -> SimplicialSet:
    return SimplicialSet([], {})


def point() -> SimplicialSet:
    return standard_simplex(0)


def apply_operator(X: SimplicialSet, s: Simplex, values) -> Simplex:
    """The action X(f)(s) of a monotone operator f: [r] -> [m] on an
    m-simplex, given by its value list of length r+1.

    The operator factors as a surjection after an injection: faces strip the
    values missed by the image, then the repeat positions give the word.
    """
    m = X.simplex_dim(s)
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        raise ValueError(f"operator values {values!r} are not monotone")
    if not (0 <= values[0] and values[-1] <= m):
        raise ValueError(f"operator values {values!r} leave [0, {m}]")
    image = set(values)
    t = s
    for i in range(m, -1, -1):
        if i not in image:
            t = X.face(t, i)
    word = tuple(sorted((j for j in range(len(values) - 1)
                         if values[j] == values[j + 1]), reverse=True))
    return Simplex(compose_words(word, t.word), t.cell)


def simplex_vertices(s: Simplex):
    """The vertex value list of a simplex of a standard-family complex."""
    values = [int(v) for v in s.cell.split(".")]
    for j in reversed(s.word):
        values.insert(j, values[j])
    return values


def vertex_image(Y: SimplicialSet, verts) -> Simplex:
    """Normal form of the simplex of Y spanned by a weakly increasing vertex list.

    Only meaningful for complexes of the standard family, where a cell is
    determined by its vertex set.
    """
    if any(verts[i] > verts[i + 1] for i in range(len(verts) - 1)):
        raise ValueError(f"vertex list {verts!r} is not monotone")
    distinct = []
    repeats = []
    for i, v in enumerate(verts):
        if i + 1 < len(verts) and verts[i + 1] == v:
            repeats.append(i)
        else:
            distinct.append(v)
    name = _subset_name(distinct)
    if not Y.has_cell(name):
        raise ValueError(f"no cell {name!r} in target")
    return Simplex(tuple(sorted(repeats, reverse=True)), name)


# ---------------------------------------------------------------------------
# simplicial maps


class SimplicialMap:
    """A simplicial map, given on nondegenerate cells of the source.

    `images` is a tuple with the image of each source cell, in
    `source.all_cells()` order; an unassigned cell holds None, which
    `verify_map` reports.  Build a map from a {cell: image} dict, or pass
    that tuple as `images=` (stored as given).  A dict that names a cell the
    source lacks raises ValueError.  A dict image that is already a Simplex
    with a tuple word is stored as is, so images may be shared between maps.

    `assignment` is a {cell: image} dict built on each access: changing it
    leaves the map as it was, and building it costs a pass over the cells,
    so keep it out of hot loops.  Two maps are equal when their sources,
    targets and images are equal.  The hash is computed once, so a map must
    not be mutated after construction.
    """

    __slots__ = ("source", "target", "images", "_hash")

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 assignment=None, *, images=None):
        self.source = source
        self.target = target
        index = source._index
        if images is None:
            if not assignment.keys() <= index.keys():
                cell = next(c for c in assignment if c not in index)
                raise ValueError(f"{cell!r} is not a cell of the source")
            images = [None if s is None else _as_simplex(s)
                      for s in map(assignment.get, index)]
        elif len(images) != len(index):
            raise ValueError(f"{len(images)} images for {len(index)} cells")
        self.images = tuple(images)
        self._hash = None

    @property
    def assignment(self) -> dict:
        return {c: s for c, s in zip(self.source._index, self.images)
                if s is not None}

    def __call__(self, s: Simplex) -> Simplex:
        img = self.images[self.source._index[s.cell]]
        if not s.word:
            return img
        return Simplex(compose_words(s.word, img.word), img.cell)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.images == other.images)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.images))
        return self._hash

    def __repr__(self):
        return f"SimplicialMap({self.source!r}->{self.target!r})"

    def then(self, other: "SimplicialMap") -> "SimplicialMap":
        if self.target != other.source:
            raise ValueError(f"cannot compose {self!r} with {other!r}: "
                             "target and source differ")
        # a tuple made from a list is taken at its size from the tuple free
        # list that discarded tuples return to; one grown from map() is not
        return SimplicialMap(self.source, other.target,
                             images=[other(s) for s in self.images])


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, images=tuple(map(nondeg, X.all_cells())))


def verify_map(f: SimplicialMap):
    """Violations of dimension preservation and face commutation; an image
    word of an n-cell with an index outside 0..n-1 is inadmissible."""
    problems = []
    X, Y = f.source, f.target
    for c, img in zip(X.all_cells(), f.images):
        if img is None:
            problems.append(("unassigned", c))
        elif not Y.has_cell(img.cell) or Y.simplex_dim(img) != X.cell_dim(c):
            problems.append(("dimension", c))
        elif img.word and (img.word[-1] < 0 or img.word[0] >= X.cell_dim(c)
                           or not is_admissible(img.word)):
            problems.append(("inadmissible-word", c))
    if problems:
        return problems
    for c, img in zip(X.all_cells(), f.images):
        n = X.cell_dim(c)
        for i in range(n + 1) if n >= 1 else ():
            if f(X.face(nondeg(c), i)) != Y.face(img, i):
                problems.append(("face", c, i))
    return problems


def constant_map(X: SimplicialSet, Y: SimplicialSet, vertex: str) -> SimplicialMap:
    return SimplicialMap(X, Y, {c: degenerate_at(Y, vertex, X.cell_dim(c))
                                for c in X.all_cells()})


def degenerate_at(X: SimplicialSet, vertex: str, n) -> Simplex:
    """The n-fold degenerate simplex on a vertex."""
    return Simplex(tuple(range(n - 1, -1, -1)), vertex)


def standard_map(src: SimplicialSet, tgt: SimplicialSet, vmap) -> SimplicialMap:
    """Map between standard-family complexes induced by a monotone vertex map."""
    assignment = {}
    for c in src.all_cells():
        verts = [vmap[int(v)] for v in c.split(".")]
        assignment[c] = vertex_image(tgt, verts)
    return SimplicialMap(src, tgt, assignment)


@functools.cache
def coface_map(n, i) -> SimplicialMap:
    """delta_i: the inclusion of the i-th facet Delta^{n-1} -> Delta^n."""
    vmap = [v if v < i else v + 1 for v in range(n)]
    return standard_map(standard_simplex(n - 1), standard_simplex(n), vmap)


@functools.cache
def codegeneracy_map(n, j) -> SimplicialMap:
    """sigma_j: the collapse Delta^{n+1} -> Delta^n repeating vertex j."""
    vmap = [v if v <= j else v - 1 for v in range(n + 2)]
    return standard_map(standard_simplex(n + 1), standard_simplex(n), vmap)


def boundary_inclusion(n) -> SimplicialMap:
    B = boundary(n)
    return SimplicialMap(B, standard_simplex(n),
                         {c: nondeg(c) for c in B.all_cells()})


def horn_inclusion(n, k) -> SimplicialMap:
    H = horn(n, k)
    return SimplicialMap(H, standard_simplex(n),
                         {c: nondeg(c) for c in H.all_cells()})


# ---------------------------------------------------------------------------
# hom enumeration and lift search


def backtrack(n, candidates, emit, accept=None, limit=None, budget=None):
    """Depth-first search over n slots, with an explicit stack.

    candidates(k, chosen) gives the values to try at slot k, given chosen[:k];
    accept(k, chosen), when given, keeps or rejects the value just put in
    chosen[k].  Returns emit(chosen) of each full assignment in search order,
    at most limit of them.  budget is a one-element mutable counter of
    candidate tries, raising BudgetExceeded below zero.
    """
    if limit is not None and limit <= 0:
        return []
    chosen = [None] * n
    if n == 0:
        return [emit(chosen)]
    results = []
    stack = [iter(candidates(0, chosen))]
    while stack:
        k = len(stack) - 1
        for value in stack[k]:
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceeded()
            chosen[k] = value
            if accept is None or accept(k, chosen):
                break
        else:
            stack.pop()
            continue
        if k + 1 < n:
            stack.append(iter(candidates(k + 1, chosen)))
            continue
        results.append(emit(chosen))
        if limit is not None and len(results) >= limit:
            break
    return results


def _map_search(X: SimplicialSet, Y: SimplicialSet):
    """Slot order, boundary and emit functions of a search for maps X -> Y.

    Slots are cell positions faces-first: top cells from the highest level
    down, each right after its faces not yet placed (d_0 first).
    boundary(k, chosen) gives the cell of slot k, its dimension and the
    boundary its image must have.
    """
    index = X._index
    cells = list(index)
    order, placed = [], set()
    for top in itertools.chain.from_iterable(reversed(X.levels)):
        stack = [(top, False)]
        while stack:
            cell, ready = stack.pop()
            if ready and cell not in placed:
                placed.add(cell)
                order.append(index[cell])
            elif cell not in placed:
                stack.append((cell, True))
                stack.extend((f.cell, False) for f in reversed(
                    X.cell_faces(cell) if X.cell_dim(cell) else ()))
    slot = sorted(range(len(order)), key=order.__getitem__)  # by position
    plan = [(cells[p], X._dims[p], tuple(
        (slot[index[f.cell]], f.word)
        for f in (X.cell_faces(cells[p]) if X._dims[p] else ())))
        for p in order]

    def boundary(k, chosen):  # a tuple from a list: see SimplicialMap.then
        cell, m, faces = plan[k]
        return cell, m, tuple([
            Simplex(compose_words(w, chosen[j].word), chosen[j].cell) if w
            else chosen[j] for j, w in faces])

    def emit(chosen):
        return SimplicialMap(X, Y, images=[chosen[k] for k in slot])

    return order, boundary, emit


def enumerate_maps(X: SimplicialSet, Y: SimplicialSet,
                   pins: Optional[dict] = None,
                   cell_filter: Optional[Callable] = None,
                   budget: Optional[list] = None):
    """All simplicial maps X -> Y by backtracking, in canonical order.

    pins forces cell values; cell_filter(cell, candidate) prunes candidates;
    budget is a one-element mutable counter of candidate tries, decremented
    per try: the first try after it reaches zero raises BudgetExceeded.

    Cells are searched faces-first (each right after the cells of its
    faces) and the maps are sorted back into canonical order.  budget
    counts tries in search order, so where it runs out depends on that
    order.  Candidates come from Y's boundary index.
    """
    pins = pins or {}
    order, boundary, emit = _map_search(X, Y)
    by_boundary = Y._boundary_index

    def candidates(k, chosen):
        cell, m, bd = boundary(k, chosen)
        pool = by_boundary(m).get(bd, ())
        if cell in pins:
            pinned = _as_simplex(pins[cell])
            pool = (pinned,) if pinned in pool else ()
        if cell_filter is None:
            return pool
        return (s for s in pool if cell_filter(cell, s))

    maps = backtrack(len(order), candidates, emit, budget=budget)
    if order != sorted(order):
        maps.sort(key=lambda f: [Y.skey(s) for s in f.images])
    return maps


def hom_set(X: SimplicialSet, Y: SimplicialSet):
    """The finite set of simplicial maps X -> Y, canonically ordered."""
    return enumerate_maps(X, Y)


def divide_word(Y: SimplicialSet, s: Simplex, word) -> Optional[Simplex]:
    """Solve s_word(t) = s for t, or None when s is not word-divisible.

    Degeneracies are split injections, so the solution is unique when it
    exists; it is found by stripping the word outermost-first with d_j s_j = id.
    """
    t = s
    for j in word:
        if Y.simplex_dim(t) == 0:
            return None
        t = Y.face(t, j)
    check = Simplex(compose_words(word, t.word), t.cell)
    return t if check == s else None


def is_injective(f: SimplicialMap) -> bool:
    """Levelwise injectivity, checked on nondegenerate cells.

    A simplicial map is a monomorphism iff nondegenerate cells map to
    distinct nondegenerate simplices in every dimension.
    """
    seen = set()
    for img in f.images:
        if img.word or img in seen:
            return False
        seen.add(img)
    return True


def is_isomorphism(f: SimplicialMap) -> Optional[SimplicialMap]:
    """The inverse map when f is an isomorphism, else None."""
    X, Y = f.source, f.target
    inv = {}
    for c, img in zip(X.all_cells(), f.images):
        if img.word or img.cell in inv:
            return None
        inv[img.cell] = nondeg(c)
    if set(inv) != set(Y.all_cells()):
        return None
    g = SimplicialMap(Y, X, inv)
    if verify_map(g):
        return None
    return g


def isomorphic(X: SimplicialSet, Y: SimplicialSet) -> Optional[SimplicialMap]:
    """Search for an isomorphism X -> Y; None when the complexes differ."""
    if [len(l) for l in X.levels] != [len(l) for l in Y.levels]:
        return None
    order, boundary, emit = _map_search(X, Y)

    def candidates(k, chosen):
        _, m, bd = boundary(k, chosen)
        used = set(chosen[:k])
        return (s for s in Y._boundary_index(m).get(bd, ())
                if not s.word and s not in used)

    found = backtrack(len(order), candidates, emit, limit=1)
    if found and is_isomorphism(found[0]) is not None:
        return found[0]
    return None
