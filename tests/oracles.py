"""Independent brute-force oracles and a seeded random-instance generator.

The oracles deliberately avoid the pruned search paths of the package: hom
sets by filtering the full product of dimension-preserving assignments, pi0
by union-find, lifting by filtering full hom sets, tensor adjoints by
composing whole codegeneracy maps, mapping-complex presentations by
composing every face and degeneracy from the coface and codegeneracy maps
per lookup, complex documents from fresh lists, and the orbit setups of I, J and Hor(F) by one class per
family, each building its own W.
"""

import itertools
import random
import sys

from eqloc.cat import (
    DiagramMap,
    adjoint_to_tensor,
    cotensor,
    cotensor_map,
    cotensor_restriction,
    hom_D,
    identity_dmap,
    limit_D,
    pullback_D,
    pushout_D,
    tensor,
    tensor_map,
)
from eqloc.glue import (UnionFind, induced_tuple_map, product, pushout,
                        quotient)
from eqloc.soa import Square
from eqloc.orbits import orbit_naturality, orbit_setup
from eqloc.simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    boundary_inclusion,
    coface_map,
    codegeneracy_map,
    compose_words,
    constant_map,
    hom_set,
    horn_inclusion,
    identity_map,
    is_admissible,
    nondeg,
    point,
    standard_simplex,
    verify_map,
    word_face,
)


def face_oracle(X, s, i):
    """d_i of a simplex by the word algebra alone: push d_i through the
    word, then read the residual face of the cell and compose."""
    n = X.simplex_dim(s)
    if n < 1 or not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range for dim {n}")
    word, residual = word_face(s.word, i)
    if residual is None:
        return Simplex(word, s.cell)
    f = X.cell_faces(s.cell)[residual]
    return Simplex(compose_words(word, f.word), f.cell)


def validate_oracle(X):
    """validate, face by face: each identity d_i d_j = d_{j-1} d_i of a cell
    evaluated as four `face_oracle` calls.

    Where a face of a face has missing or short face data, evaluating an
    identity raises KeyError or IndexError; the cell's identities are then
    left unchecked, as that lower cell's face data is reported.  Face words
    are checked for strict decrease only, so compare on words whose indices
    fit their dimension.
    """
    problems = []
    for cell in X.all_cells():
        n = X.cell_dim(cell)
        if n == 0:
            if cell in X._faces:
                problems.append(("faces-on-vertex", cell))
            continue
        fs = X._faces.get(cell)
        if fs is None:
            problems.append(("missing-faces", cell))
            continue
        if len(fs) != n + 1:
            problems.append(("face-count", cell, len(fs)))
            continue
        ok = True
        for i, f in enumerate(fs):
            if not is_admissible(f.word):
                problems.append(("inadmissible-word", cell, i))
                ok = False
            elif not X.has_cell(f.cell):
                problems.append(("unknown-face-target", cell, i, f.cell))
                ok = False
            elif X.simplex_dim(f) != n - 1:
                problems.append(("face-dimension", cell, i))
                ok = False
        if not ok or n < 2:
            continue
        s = nondeg(cell)
        try:
            found = [("identity", cell, i, j)
                     for j in range(n + 1) for i in range(j)
                     if face_oracle(X, face_oracle(X, s, j), i)
                     != face_oracle(X, face_oracle(X, s, i), j - 1)]
        except (KeyError, IndexError):
            continue
        problems.extend(found)
    for name in X._faces:
        if not X.has_cell(name):
            problems.append(("faces-for-unknown-cell", name))
    return problems


def verify_map_oracle(f):
    """verify_map, face by face: f(d_i c) against d_i f(c) through
    `face_oracle` and the map's own call.  Image words are checked for
    strict decrease only."""
    problems = []
    X, Y = f.source, f.target
    for c, img in zip(X.all_cells(), f.images):
        if img is None:
            problems.append(("unassigned", c))
        elif not Y.has_cell(img.cell) or Y.simplex_dim(img) != X.cell_dim(c):
            problems.append(("dimension", c))
        elif not is_admissible(img.word):
            problems.append(("inadmissible-word", c))
    if problems:
        return problems
    for c, img in zip(X.all_cells(), f.images):
        n = X.cell_dim(c)
        for i in range(n + 1) if n >= 1 else ():
            if f(face_oracle(X, nondeg(c), i)) != face_oracle(Y, img, i):
                problems.append(("face", c, i))
    return problems


def naive_hom(X, Y):
    """Every dimension-preserving cell assignment, filtered by face checks."""
    cells = [c for level in X.levels for c in level]
    pools = [Y.simplices(X.cell_dim(c)) for c in cells]
    out = []
    for combo in itertools.product(*pools):
        f = SimplicialMap(X, Y, dict(zip(cells, combo)))
        if not verify_map(f):
            out.append(f)
    return out


def pi0_oracle(X):
    """Component count by union-find over vertices and edges."""
    if not X.cells(0):
        return 0
    uf = UnionFind(X.cells(0))
    for e in X.cells(1):
        uf.union(X.face(nondeg(e), 0).cell, X.face(nondeg(e), 1).cell)
    return len({uf.find(v) for v in X.cells(0)})


def rlp_oracle(i, p):
    """RLP by filtering full hom sets, no pruning anywhere."""
    A, B = i.source, i.target
    X, Y = p.source, p.target
    all_lifts = naive_hom(B, X)
    all_bottoms = naive_hom(B, Y)
    for a in naive_hom(A, X):
        for b in all_bottoms:
            composite_ok = all(
                b(i(nondeg(c))) == p(a(nondeg(c))) for c in A.all_cells())
            if not composite_ok:
                continue
            found = False
            for l in all_lifts:
                if all(l(i(nondeg(c))) == a(nondeg(c)) for c in A.all_cells()) \
                        and all(p(l(nondeg(c))) == b(nondeg(c))
                                for c in B.all_cells()):
                    found = True
                    break
            if not found:
                return False
    return True


def adjoint_to_tensor_oracle(phi, cot):
    """phi: T -> X^K as a map tensor(T, K) -> X, by whole maps.

    For a cell (u, v) with phi(u) = s_w(c), the element of the cell c is
    precomposed with the codegeneracy map product(Delta^{m+1}, K) ->
    product(Delta^m, K) of each index of w, innermost first, and the
    composite is read at the top simplex of Delta^n paired with v.
    """
    T, X, K = phi.source, cot.base, cot.K
    t = tensor(T, K)
    comps = {}
    for d in T.shape.objects:
        tc = t.tcs[d]
        pres = cot.pres[d]
        assignment = {}
        for cell in tc.space.all_cells():
            u, v = tc.coords[cell]
            s = phi.components[d](u)
            e = pres.elem_of_cell[s.cell]
            m = pres.space.cell_dim(s.cell)
            for j in reversed(s.word):
                codeg = induced_tuple_map(
                    product(standard_simplex(m + 1), K),
                    product(standard_simplex(m), K),
                    (codegeneracy_map(m, j), identity_map(K)))
                e = codeg.then(e)
                m += 1
            top = nondeg(standard_simplex(m).cells(m)[0])
            assignment[cell] = e(product(standard_simplex(m), K).locate(
                (top, v)))
        comps[d] = SimplicialMap(tc.space, X.at[d], assignment)
    return DiagramMap(t.diagram, X, comps)


def presentation_oracle(levels, face_fn, deg_fn):
    """A normal-form presentation of levelwise elements, composing every
    face_fn(n, e, i) and deg_fn(n, e, j) (which raises the level from n to
    n+1) at the point of use.  Returns (space, to_simplex, elem_of_cell)."""
    to_simplex = {}
    elem_of_cell = {}
    new_levels = []
    faces = {}
    for n, elems in enumerate(levels):
        level = []
        for e in elems:
            js = [j for j in range(n)
                  if deg_fn(n - 1, face_fn(n, e, j), j) == e]
            if js:
                j = max(js)
                sub = to_simplex[(n - 1, face_fn(n, e, j))]
                to_simplex[(n, e)] = Simplex(compose_words((j,), sub.word),
                                             sub.cell)
            else:
                name = sys.intern(f"e{n}_{len(level)}")
                level.append(name)
                elem_of_cell[name] = e
                if n >= 1:
                    faces[name] = tuple(to_simplex[(n - 1, face_fn(n, e, i))]
                                        for i in range(n + 1))
                to_simplex[(n, e)] = nondeg(name)
        new_levels.append(level)
    return SimplicialSet(new_levels, faces), to_simplex, elem_of_cell


def cotensor_oracle(X, K, cap, d):
    """The presentation of X(d)^K up to the cap: level m is
    hom(Delta^m x K, X(d)), faces and degeneracies by precomposition with
    the coface and codegeneracy maps of Delta^* times K."""
    def tc(m):
        return product(standard_simplex(m), K)

    def face_fn(n, e, i):
        return induced_tuple_map(tc(n - 1), tc(n), (
            coface_map(n, i), identity_map(K))).then(e)

    def deg_fn(n, e, j):
        return induced_tuple_map(tc(n + 1), tc(n), (
            codegeneracy_map(n, j), identity_map(K))).then(e)

    levels = [hom_set(tc(m).space, X.at[d]) for m in range(cap + 1)]
    return presentation_oracle(levels, face_fn, deg_fn)


def hom_complex_oracle(A, X, cap):
    """The presentation of hom(A, X) up to the cap: level m is
    Nat(A tensor Delta^m, X), faces and degeneracies by precomposition with
    A tensored with the coface and codegeneracy maps."""
    def face_fn(n, e, i):
        return tensor_map(identity_dmap(A), coface_map(n, i)).then(e)

    def deg_fn(n, e, j):
        return tensor_map(identity_dmap(A), codegeneracy_map(n, j)).then(e)

    levels = [hom_D(tensor(A, standard_simplex(m)).diagram, X)
              for m in range(cap + 1)]
    return presentation_oracle(levels, face_fn, deg_fn)


def sset_doc_oracle(X):
    """The document of X built from fresh lists: one list per level and one
    [word, cell] list per face, the words as lists."""
    return {
        "cells": [list(level) for level in X.levels],
        "faces": {c: [[list(f.word), f.cell] for f in X.cell_faces(c)]
                  for level in X.levels[1:] for c in level},
    }


def random_sset(rng: random.Random, max_cells=10) -> SimplicialSet:
    """A random finite complex built by gluing standard pieces.

    Grown through the public pushout/quotient operations, so the result is
    valid by construction and the draw is reproducible from the seed.
    """
    n_start = rng.randint(1, 3)
    X = SimplicialSet([[f"v{i}" for i in range(n_start)]], {})
    for _ in range(rng.randint(0, 6)):
        if X.n_nondegenerate() >= max_cells:
            break
        op = rng.choice(["edge", "edge", "cell2", "merge"])
        if op == "edge":
            verts = [s.cell for s in X.simplices(0)]
            a, b = rng.choice(verts), rng.choice(verts)
            attach = SimplicialMap(boundary(1), X,
                                   {"0": nondeg(a), "1": nondeg(b)})
            X = pushout(attach, boundary_inclusion(1)).space
        elif op == "cell2":
            maps = hom_set(boundary(2), X)
            if maps:
                attach = rng.choice(maps)
                X = pushout(attach, boundary_inclusion(2)).space
        elif op == "merge" and len(X.cells(0)) >= 2:
            verts = list(X.cells(0))
            a, b = rng.sample(verts, 2)
            X = quotient(X, [(nondeg(a), nondeg(b))]).space
    return X


def random_collapse_map(rng: random.Random, X) -> SimplicialMap:
    """A random map from X onto a quotient of itself."""
    verts = list(X.cells(0))
    if len(verts) >= 2 and rng.random() < 0.7:
        a, b = rng.sample(verts, 2)
        q = quotient(X, [(nondeg(a), nondeg(b))])
        return q.projection
    return constant_map(X, point(), "0")


# ---------------------------------------------------------------------------
# orbit setups, one class per family


def _orbit_square_oracle(o, pb, incl, member_id, meta, f, cX, cY):
    """The attachment square adjoint to an orbit map into W_{f,n}."""
    phi_x = o.into.then(pb.projections[0])
    phi_y = o.into.then(pb.projections[1])
    left = adjoint_to_tensor(phi_x, cX)
    right = adjoint_to_tensor(phi_y, cY)
    top = tensor_map(identity_dmap(o.orbit), incl)
    return Square(top=top, left=left, right=right, bottom=f,
                  member_id=member_id, meta=meta, orbit=o)


class OrbitSetupFamilyOracle:
    """The I or J setup for tensored inclusions T (x) (K_i -> L_i), with W
    the pullback of X^K -> Y^K <- Y^L.  family is a tuple of
    (meta, inclusion)."""

    def __init__(self, name, family, budget):
        self.name = name
        self.family = tuple(family)
        self.budget = budget

    def _w_pullback(self, f, incl):
        cX = cotensor(f.source, incl.source, self.budget.dim_cap)
        cY_L = cotensor(f.target, incl.target, self.budget.dim_cap)
        s = cotensor_map(f, incl.source, self.budget.dim_cap)
        r = cotensor_restriction(f.target, incl, self.budget.dim_cap)
        return pullback_D(s, r), cX, cY_L

    def assign(self, f):
        squares = []
        for meta, incl in self.family:
            pb, cX, cY_L = self._w_pullback(f, incl)
            member_id = f"{self.name}@" + "_".join(str(x) for x in meta)
            for o in orbit_setup(pb.diagram):
                squares.append(_orbit_square_oracle(
                    o, pb, incl, member_id, (self.name,) + meta + (o.witness,),
                    f, cX, cY_L))
        return tuple(squares)

    def transport(self, g, sq):
        meta = sq.meta[1:-1]
        incl = dict(self.family)[meta]
        pb1, _, _ = self._w_pullback(g.source, incl)
        pb2, cX2, cY2 = self._w_pullback(g.target, incl)
        dim_cap = self.budget.dim_cap
        x1, y1 = pb1.projections
        to_x2 = x1.then(cotensor_map(g.upper, incl.source, dim_cap))
        to_y2 = y1.then(cotensor_map(g.lower, incl.target, dim_cap))
        g_tilde = pb2.mediate([to_x2, to_y2])
        F, o2 = orbit_naturality(g_tilde, sq.orbit)
        member_id = f"{self.name}@" + "_".join(str(x) for x in meta)
        target = _orbit_square_oracle(
            o2, pb2, incl, member_id, (self.name,) + meta + (o2.witness,),
            g.target, cX2, cY2)
        connect = (tensor_map(F, identity_map(incl.source)),
                   tensor_map(F, identity_map(incl.target)))
        return target, connect


def setup_I_oracle(budget):
    return OrbitSetupFamilyOracle(
        "I", [((n,), boundary_inclusion(n))
              for n in range(budget.n_cap + 1)], budget)


def setup_J_oracle(budget):
    return OrbitSetupFamilyOracle(
        "J", [((n, k), horn_inclusion(n, k))
              for n in range(1, budget.n_cap + 1) for k in range(n + 1)],
        budget)


def _corners_oracle(f, n):
    """Product complexes and inclusion maps of f for exponent n."""
    A, B = f.source, f.target
    dn, bdn = standard_simplex(n), boundary(n)
    incl = boundary_inclusion(n)
    pAB = {
        "dB": product(dn, B), "bB": product(bdn, B),
        "dA": product(dn, A), "bA": product(bdn, A),
    }
    maps = {
        "bB_dB": induced_tuple_map(pAB["bB"], pAB["dB"],
                                   (incl, identity_map(B))),
        "bA_bB": induced_tuple_map(pAB["bA"], pAB["bB"],
                                   (identity_map(bdn), f)),
        "bA_dA": induced_tuple_map(pAB["bA"], pAB["dA"],
                                   (incl, identity_map(A))),
        "dA_dB": induced_tuple_map(pAB["dA"], pAB["dB"],
                                   (identity_map(dn), f)),
    }
    return pAB, maps


class HorFFamilyOracle:
    """The Hor(F) setup for F = {f (x) T over all orbits T}, with W the
    three-factor limit of X^{bd x B}, Y^{Delta x B} and X^{Delta x A}."""

    def __init__(self, f, caps):
        self.f = f
        self.caps = caps

    def _w_limit(self, g, n):
        caps = self.caps
        pAB, maps = _corners_oracle(self.f, n)
        X, Y = g.source, g.target
        cX_bB = cotensor(X, pAB["bB"].space, caps.dim_cap)
        cY_dB = cotensor(Y, pAB["dB"].space, caps.dim_cap)
        cX_dA = cotensor(X, pAB["dA"].space, caps.dim_cap)
        constraints = (
            (0, cotensor_map(g, pAB["bB"].space, caps.dim_cap),
             1, cotensor_restriction(Y, maps["bB_dB"], caps.dim_cap)),
            (0, cotensor_restriction(X, maps["bA_bB"], caps.dim_cap),
             2, cotensor_restriction(X, maps["bA_dA"], caps.dim_cap)),
            (2, cotensor_map(g, pAB["dA"].space, caps.dim_cap),
             1, cotensor_restriction(Y, maps["dA_dB"], caps.dim_cap)),
        )
        lim = limit_D([cX_bB.diagram, cY_dB.diagram, cX_dA.diagram],
                      constraints)
        return lim, (cX_bB, cY_dB, cX_dA)

    def _member(self, T, n):
        pAB, maps = _corners_oracle(self.f, n)
        t_bA_dA = tensor_map(identity_dmap(T), maps["bA_dA"])
        t_bA_bB = tensor_map(identity_dmap(T), maps["bA_bB"])
        po = pushout_D(t_bA_dA, t_bA_bB)
        arrow = po.mediate(tensor_map(identity_dmap(T), maps["dA_dB"]),
                           tensor_map(identity_dmap(T), maps["bB_dB"]))
        return po, arrow

    def _square(self, g, n, o, lim, cotensors):
        adj_bB, adj_dB, adj_dA = (
            adjoint_to_tensor(o.into.then(proj), cot)
            for proj, cot in zip(lim.projections, cotensors))
        po, arrow = self._member(o.orbit, n)
        return Square(top=arrow, left=po.mediate(adj_dA, adj_bB),
                      right=adj_dB, bottom=g, member_id=f"HorF@{n}",
                      meta=("HorF", n, o.witness), orbit=o), po

    def assign(self, g):
        squares = []
        for n in range(self.caps.hor_n_cap + 1):
            lim, cotensors = self._w_limit(g, n)
            squares += [self._square(g, n, o, lim, cotensors)[0]
                        for o in orbit_setup(lim.diagram)]
        return tuple(squares)

    def transport(self, gsq, sq):
        n = sq.meta[1]
        lim1, _ = self._w_limit(gsq.source, n)
        lim2, cotensors2 = self._w_limit(gsq.target, n)
        caps = self.caps
        pAB, maps = _corners_oracle(self.f, n)
        g_tilde = lim2.mediate([
            lim1.projections[0].then(
                cotensor_map(gsq.upper, pAB["bB"].space, caps.dim_cap)),
            lim1.projections[1].then(
                cotensor_map(gsq.lower, pAB["dB"].space, caps.dim_cap)),
            lim1.projections[2].then(
                cotensor_map(gsq.upper, pAB["dA"].space, caps.dim_cap)),
        ])
        F, o2 = orbit_naturality(g_tilde, sq.orbit)
        target, po2 = self._square(gsq.target, n, o2, lim2, cotensors2)
        po1, _ = self._member(sq.orbit.orbit, n)
        connect_dom = po1.mediate(
            tensor_map(F, identity_map(pAB["dA"].space)).then(po2.from_left),
            tensor_map(F, identity_map(pAB["bB"].space)).then(po2.from_right))
        connect_cod = tensor_map(F, identity_map(pAB["dB"].space))
        return target, (connect_dom, connect_cod)
