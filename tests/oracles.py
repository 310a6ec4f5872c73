"""Independent brute-force oracles and a seeded random-instance generator.

The oracles deliberately avoid the pruned search paths of the package: hom
sets by filtering the full product of dimension-preserving assignments, the
pi0 count by union-find and the pi0 classes by graph traversal, quotients
by their own normal-form extraction, lifting by filtering full hom sets, tensor adjoints by
composing whole codegeneracy maps, mapping-complex presentations by
composing every face and degeneracy from the coface and codegeneracy maps
per lookup, complex documents from fresh lists, and the orbit setups of I, J and Hor(F) by one class per
family, each building its own W, or by one function building W at a given
cap whatever the shape; maps out of a coproduct by the summand cell names
"<k>:<cell>"; each stage of the small object argument by coproducts of
the tops, copairings and one pushout of a single span; and the locality
probe, the fill test and the fixed-point report by squares and mapping
complexes on every shape, every stage of the argument, the last one too,
by squares, and the fixed-pointwise probe also by naive extension of each
map out of a horn or a corner into every fixed-point space.
"""

import itertools
import random
import sys

from eqloc.cat import (
    Diagram,
    DiagramMap,
    adjoint_to_tensor,
    coproduct_D,
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
    terminal_dmap,
)
from eqloc.glue import (UnionFind, induced_tuple_map, product, pushout,
                        quotient)
from eqloc.soa import ArrowSquare, Square, find_lift
from eqloc.orbits import orbit_naturality, orbit_setup
from eqloc.simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    admissible_words,
    boundary,
    boundary_inclusion,
    coface_map,
    codegeneracy_map,
    compose_words,
    constant_map,
    enumerate_maps,
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
    faces = X.face_data()
    for cell in X.all_cells():
        n = X.cell_dim(cell)
        if n == 0:
            if cell in faces:
                problems.append(("faces-on-vertex", cell))
            continue
        fs = faces.get(cell)
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
    for name in faces:
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


def pi0_dfs_oracle(X):
    """The classes of pi0 by depth-first traversal of the edge graph: in
    order of their least vertex, each with its members sorted."""
    adjacency = {v: set() for v in X.cells(0)}
    for e in X.cells(1):
        a = X.face(nondeg(e), 0).cell
        b = X.face(nondeg(e), 1).cell
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    classes = []
    for v in X.cells(0):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in sorted(adjacency[u]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        classes.append(tuple(sorted(comp)))
    return tuple(classes)


def quotient_oracle(Z, pairs):
    """(space, projection, rep_of) of the quotient of Z by the congruence
    the pairs generate: the pairs closed under faces, then one union-find per
    level over every degeneracy of them, and each class read off through its
    least member, whose degeneracy test scans every j < n."""
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
    levels = []
    faces = {}
    rep_of = {}
    ez_by_root = {}  # (n, root) -> Simplex downstairs
    for n in range(Z.dim + 1):
        members = {}
        for s in Z.simplices(n):
            members.setdefault(ufs[n].find(s), []).append(s)
        level = []
        for cls in sorted(members.values(), key=lambda ms: Z.skey(ms[0])):
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
    return space, projection, rep_of


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


def commutative_squares_oracle(i, p):
    """The squares (a, b) of i against p by filtering every pair of
    hom_D(i.source, p.source) x hom_D(i.target, p.target), in that order."""
    rights = hom_D(i.target, p.target)
    squares = []
    for a in hom_D(i.source, p.source):
        ap = a.then(p)
        for b in rights:
            if i.then(b) == ap:
                squares.append((a, b))
    return squares


def coproduct_mediate_oracle(co, legs, target):
    """The map out of the coproduct diagram co.diagram that is legs[k] on
    summand k, assigned by the cell names "<k>:<cell>" of glue.coproduct."""
    comps = {}
    for d in co.diagram.shape.objects:
        assignment = {}
        for k, leg in enumerate(legs):
            for c in leg.source.at[d].all_cells():
                assignment[f"{k}:{c}"] = leg.components[d](nondeg(c))
        comps[d] = SimplicialMap(co.diagram.at[d], target.at[d], assignment)
    return DiagramMap(co.diagram, target, comps)


def coproduct_map_oracle(source, target, maps):
    """The sum of maps between coproducts, by the cell names: the cell
    "<k>:<c>" of source goes to the image of c under maps[k], renamed into
    summand k of target."""
    assignment = {}
    for k, m in enumerate(maps):
        for c in m.source.all_cells():
            img = m(nondeg(c))
            assignment[f"{k}:{c}"] = Simplex(img.word, f"{k}:{img.cell}")
    return SimplicialMap(source, target, assignment)


def coproduct_sum_oracle(coA, coB, maps):
    """The sum of maps between coproduct diagrams, objectwise by
    coproduct_map_oracle."""
    return DiagramMap(coA.diagram, coB.diagram, {
        d: coproduct_map_oracle(coA.diagram.at[d], coB.diagram.at[d],
                                [m.components[d] for m in maps])
        for d in coA.diagram.shape.objects})


class StageOracle:
    def __init__(self, pushout, tops, stage_map, rho):
        self.pushout = pushout    # the pushout of the one summed span
        self.tops = tops          # the coproduct of the tops' targets
        self.stage_map = stage_map
        self.rho = rho


def stage_pushout_oracle(attached, rho):
    """One stage of the small object argument glued through coproducts: the
    coproducts of the attached squares' top sources and top targets, the sum
    of the tops, the copairings of the lefts into Z = rho.source and of the
    rights into rho.target, and one pushout of the summed left along the
    summed top."""
    tops = [sq.top for sq in attached]
    coA = coproduct_D([t.source for t in tops])
    coB = coproduct_D([t.target for t in tops])
    left_sum = coproduct_mediate_oracle(coA, [sq.left for sq in attached],
                                        rho.source)
    right_sum = coproduct_mediate_oracle(coB, [sq.right for sq in attached],
                                         rho.target)
    po = pushout_D([(left_sum, coproduct_sum_oracle(coA, coB, tops))])
    return StageOracle(po, coB, po.legs[0], po.mediate([rho, right_sum]))


def _stage_oracles(result):
    """stage_pushout_oracle of every stage of a trace, from its arrow on."""
    out = []
    rho = result.arrow
    for stage in result.stages:
        out.append(stage_pushout_oracle(
            [stage.squares[i] for i in stage.attached], rho))
        rho = stage.rho
    return out


def soa_functorial_oracle(g, r1, r2, instr):
    """The map of soa_functorial through the stage oracles: the transported
    tops' targets are copaired into the second run's coproduct of tops, and
    one mediator of the summed span assembles each stage."""
    xi = g.upper
    rho1, rho2 = r1.arrow, r2.arrow
    for s1, s2, o1, o2 in zip(r1.stages, r2.stages, _stage_oracles(r1),
                              _stage_oracles(r2)):
        g_beta = ArrowSquare(source=rho1, target=rho2, upper=xi,
                             lower=g.lower)
        b_maps = []
        for idx in s1.attached:
            tsq, (_, cB) = instr.transport(g_beta, s1.squares[idx])
            k = s2.attached.index(s2.squares.index(tsq))
            b_maps.append(cB.then(o2.tops.injections[k]))
        to_b2 = coproduct_mediate_oracle(o1.tops, b_maps, o2.tops.diagram)
        xi = o1.pushout.mediate([xi.then(o2.pushout.legs[0]),
                                 to_b2.then(o2.pushout.legs[1])])
        rho1, rho2 = s1.rho, s2.rho
    return xi


def extend_to_local_oracle(g, result):
    """The extension of extend_to_local through the stage oracles: each
    stage's lifts are copaired out of the coproduct of tops and one
    mediator of the summed span extends g over the stage."""
    P = g.target
    h = g
    for stage, o in zip(result.trace.stages, _stage_oracles(result.trace)):
        lifts = [find_lift(sq.top, terminal_dmap(P), sq.left.then(h),
                           terminal_dmap(sq.top.target))
                 for sq in (stage.squares[i] for i in stage.attached)]
        h = o.pushout.mediate([h, coproduct_mediate_oracle(o.tops, lifts, P)])
    return h


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
            X = pushout([(attach, boundary_inclusion(1))]).space
        elif op == "cell2":
            maps = hom_set(boundary(2), X)
            if maps:
                attach = rng.choice(maps)
                X = pushout([(attach, boundary_inclusion(2))]).space
        elif op == "merge" and len(X.cells(0)) >= 2:
            verts = list(X.cells(0))
            a, b = rng.sample(verts, 2)
            X = quotient(X, [(nondeg(a), nondeg(b))]).space
    return X


def swapped_loops():
    """Z/2 acting on one vertex with two loops that it swaps."""
    from eqloc.fixtures import z2_category
    X = SimplicialSet([["v"], ["a", "b"]],
                      {"a": (nondeg("v"), nondeg("v")),
                       "b": (nondeg("v"), nondeg("v"))})
    swap = SimplicialMap(X, X, {"v": nondeg("v"), "a": nondeg("b"),
                                "b": nondeg("a")})
    return Diagram(z2_category(), {"*": X}, {"g1": swap})


def two_object_swapped_loops():
    """The swapped loops at two objects a and b, with mutually inverse
    arrows f: a -> b and h: b -> a that both act by the swap."""
    from eqloc.cat import SmallCategory
    loops = swapped_loops()
    D = SmallCategory(["a", "b"],
                      [("ida", "a", "a"), ("idb", "b", "b"),
                       ("f", "a", "b"), ("h", "b", "a")],
                      {"a": "ida", "b": "idb"},
                      {("h", "f"): "ida", ("f", "h"): "idb"})
    S, swap = loops.at["*"], loops.act["g1"]
    return Diagram(D, {"a": S, "b": S}, {"f": swap, "h": swap})


def random_z2_diagram(rng: random.Random, max_edges=2):
    """A random Z/2-diagram: two swapped copies of a random graph K glued
    along some of its vertices, which the involution then fixes."""
    from eqloc.fixtures import free_z2_orbit
    verts = [f"v{i}" for i in range(rng.randint(1, 3))]
    faces = {f"e{i}": (nondeg(rng.choice(verts)), nondeg(rng.choice(verts)))
             for i in range(rng.randint(0, max_edges))}
    K = SimplicialSet([verts, list(faces)] if faces else [verts], faces)
    glued = rng.sample(verts, rng.randint(1, len(verts)))
    A = SimplicialSet([glued], {})
    incl = SimplicialMap(A, K, {v: nondeg(v) for v in glued})
    free = free_z2_orbit()
    return pushout_D([(tensor_map(identity_dmap(free), incl),
                       tensor_map(terminal_dmap(free), identity_map(A)))]
                     ).diagram


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


def assign_at_cap_oracle(family, g, cap):
    """PullbackHomFamily.assign with W of every member built at cap, whatever
    the shape: the squares of the orbits of that W, member by member."""
    ends = (g.source, g.target)
    squares = []
    for m in family.members.values():
        cots = [cotensor(ends[e], C, cap) for e, C in m.factors]

        def leg(i, a):
            e, C = m.factors[i]
            return (cotensor_map(g, C, cap) if a is None
                    else cotensor_restriction(ends[e], a, cap))

        lim = limit_D([c.diagram for c in cots],
                      [(i, leg(i, a), k, leg(k, b))
                       for i, a, k, b in m.constraints])
        squares += [family._square(g, m, o, lim, cots)[0]
                    for o in orbit_setup(lim.diagram)]
    return tuple(squares)


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
        po = pushout_D([(t_bA_dA, t_bA_bB)])
        arrow = po.mediate([tensor_map(identity_dmap(T), maps["dA_dB"]),
                            tensor_map(identity_dmap(T), maps["bB_dB"])])
        return po, arrow

    def _square(self, g, n, o, lim, cotensors):
        adj_bB, adj_dB, adj_dA = (
            adjoint_to_tensor(o.into.then(proj), cot)
            for proj, cot in zip(lim.projections, cotensors))
        po, arrow = self._member(o.orbit, n)
        return Square(top=arrow, left=po.mediate([adj_dA, adj_bB]),
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
        connect_dom = po1.mediate([
            tensor_map(F, identity_map(pAB["dA"].space)).then(po2.legs[0]),
            tensor_map(F, identity_map(pAB["bB"].space)).then(po2.legs[1])])
        connect_cod = tensor_map(F, identity_map(pAB["dB"].space))
        return target, (connect_dom, connect_cod)


# ---------------------------------------------------------------------------
# locality probes by squares and mapping complexes


def first_unlifted_oracle(rho, instr):
    """soa.first_unlifted by squares on every shape: the member id of the
    first square, in instr.assign order, with no lift found by find_lift."""
    for sq in instr.assign(rho):
        if find_lift(sq.top, rho, sq.left, sq.right) is None:
            return sq.member_id
    return None


def is_S_local_oracle(Z, spec):
    """is_S_local by squares on every shape: a lift of Z -> point searched
    for every square that class_K(spec, probe=True) assigns."""
    from eqloc.homotopy import NO, YES, Verdict
    from eqloc.localization import class_K
    caps = ("hor_n_cap", spec.caps.hor_n_cap,
            "probe_n_cap", spec.caps.probe_n_cap,
            "dim_cap", spec.caps.dim_cap)
    member = first_unlifted_oracle(terminal_dmap(Z), class_K(spec, probe=True))
    if member is None:
        return Verdict(YES, caps)
    return Verdict(NO, caps, f"no lift for {member}")


def _fixed_subcomplexes(Z):
    """Z(c)^H for every object c and every subgroup H of Aut(c), found by
    trying every subset of Aut(c) closed under composition."""
    D = Z.shape
    out = []
    for c in D.objects:
        auts = D.hom(c, c)
        for r in range(1, len(auts) + 1):
            for H in itertools.combinations(auts, r):
                if any(D.compose(g, h) not in H for g in H for h in H):
                    continue
                X = Z.at[c]
                fixed = [[x for x in X.cells(n) if all(
                    Z.act[g](nondeg(x)) == nondeg(x) for g in H)]
                    for n in range(X.dim + 1)]
                out.append(SimplicialSet(fixed, {
                    x: X.cell_faces(x) for cells in fixed[1:] for x in cells}))
    return out


def _maps_on_union(pieces, M, assigned):
    """Every map from the union K of the images of the inclusions pieces,
    all into one L, to M: dicts from the cells of K to simplices of M,
    built piece by piece, each piece's maps by enumerate_maps pinned where
    earlier pieces overlap it."""
    if not pieces:
        yield assigned
        return
    i = pieces[0]
    image = {c: i(nondeg(c)).cell for c in i.source.all_cells()}
    pins = {c: assigned[image[c]] for c in image if image[c] in assigned}
    for x in enumerate_maps(i.source, M, pins=pins):
        yield from _maps_on_union(pieces[1:], M, {
            **assigned, **{image[c]: x(nondeg(c)) for c in image}})


def fixed_point_fill_oracle(Z, spec):
    """is_S_local of a fixed-pointwise spec over a groupoid shape by naive
    extension: for each member in class_K order (J@n_k, then HorF@n), each
    Z(c)^H and each map K -> Z(c)^H out of the horn or of the corner
    Delta^n x A u bd n x B, a pinned enumerate_maps of the extensions over
    Delta^n or Delta^n x B.  The maps out of the corner are those out of
    bd n x B, each with those out of Delta^n x A that agree on bd n x A."""
    from eqloc.homotopy import NO, YES, Verdict
    caps = spec.caps
    verdict_caps = ("hor_n_cap", caps.hor_n_cap,
                    "probe_n_cap", caps.probe_n_cap, "dim_cap", caps.dim_cap)
    members = [(f"J@{n}_{k}", [horn_inclusion(n, k)])
               for n in range(1, caps.probe_n_cap + 1) for k in range(n + 1)]
    for n in range(caps.hor_n_cap + 1):
        _, maps = _corners_oracle(spec.f, n)
        members.append((f"HorF@{n}", [maps["bB_dB"], maps["dA_dB"]]))
    spaces = _fixed_subcomplexes(Z)
    for member_id, pieces in members:
        L = pieces[0].target
        for M in spaces:
            for a in _maps_on_union(pieces, M, {}):
                if not enumerate_maps(L, M, pins=a):
                    return Verdict(NO, verdict_caps, f"no lift for {member_id}")
    return Verdict(YES, verdict_caps)


def soa_square_oracle(f, instr, stages=None, strict=False):
    """small_object_argument with every stage decided by squares: each
    stage assigns and lifts every square, the last one too, and stops with
    stabilization when all of them lift."""
    from eqloc.soa import FactorizationResult, Stage
    rho, records, stopped = f, [], "budget"
    for _ in range(instr.budget.stages if stages is None else stages):
        squares = instr.assign(rho)
        unsolved = [idx for idx, sq in enumerate(squares)
                    if find_lift(sq.top, rho, sq.left, sq.right) is None]
        if not unsolved:
            stopped = "stabilization"
            break
        attach = tuple(range(len(squares))) if strict else tuple(unsolved)
        po = pushout_D([(squares[i].left, squares[i].top) for i in attach])
        rho = po.mediate([rho, *(squares[i].right for i in attach)])
        records.append(Stage(squares=squares, attached=attach,
                             stage_map=po.legs[0], rho=rho, pushout=po))
    gamma = identity_dmap(f.source)
    for rec in records:
        gamma = gamma.then(rec.stage_map)
    return FactorizationResult(
        arrow=f, gamma=gamma, delta=rho, stages=tuple(records),
        stopped_by=stopped, strict=strict, instrumentation=instr.name,
        budget=instr.budget)


def fixed_point_locality_report_oracle(Z, f, orbits, caps):
    """fixed_point_locality_report reading hom(T, Z) as
    hom_complex(T, Z, hom_cap) on every shape."""
    from eqloc.cat import hom_complex, wrap_sset
    from eqloc.homotopy import (INCONCLUSIVE, NO, YES, Verdict, is_kan, pi0,
                                pi_n, sset_weq_probe)
    from eqloc.localization import OrbitLocalityReport, is_empty_to_point
    from eqloc.soa import Budget
    at = ("probe_n_cap", caps.probe_n_cap, "pi_cap", caps.pi_cap)
    kan_cap = caps.pi_cap + 1
    fib_cap = min(caps.probe_n_cap, caps.hom_cap)
    reports = []
    for idx, T in enumerate(orbits):
        M = hom_complex(T, Z, caps.hom_cap).space
        fib = is_kan(M, fib_cap)
        comps = len(pi0(M))
        trivial = None
        if fib and fib_cap < caps.probe_n_cap:
            local = Verdict(INCONCLUSIVE, at, f"fixed points Kan up to "
                            f"hom_cap {caps.hom_cap} only")
        elif is_empty_to_point(f):
            kan = fib and (not caps.pi_cap or kan_cap <= caps.probe_n_cap
                           or is_kan(M, kan_cap))
            if kan:
                trivial = all(
                    len(pi_n(M, cls[0], n, kan_checked=True)) == 1
                    for cls in pi0(M) for n in range(1, caps.pi_cap + 1))
            ok = kan and comps == 1 and (trivial is None or trivial)
            local = Verdict(YES if ok else NO, at)
            if fib and not kan:
                local = Verdict(NO if kan_cap <= caps.hom_cap else INCONCLUSIVE,
                                at, f"fixed points not Kan at {kan_cap}, "
                                f"hom_cap {caps.hom_cap}")
        else:
            restriction = cotensor_restriction(wrap_sset(M), f, caps.hom_cap)
            v = sset_weq_probe(restriction.components["*"], caps.pi_cap,
                               Budget(stages=caps.stages,
                                      n_cap=caps.pi_cap + 1, dim_cap=0))
            local = v if fib else Verdict(
                INCONCLUSIVE, v.caps, "fixed points not fibrant at caps")
        reports.append(OrbitLocalityReport(
            orbit_index=idx, fibrant=fib, components=comps,
            trivial_pi=trivial, local=local))
    return reports
