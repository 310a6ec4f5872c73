"""Independent brute-force oracles and a seeded random-instance generator.

The oracles deliberately avoid the pruned search paths of the package: hom
sets by filtering the full product of dimension-preserving assignments, pi0
by union-find, lifting by filtering full hom sets, tensor adjoints by
composing whole codegeneracy maps.
"""

import itertools
import random

from eqloc.cat import DiagramMap, tensor
from eqloc.glue import (UnionFind, induced_tuple_map, product, pushout,
                        quotient)
from eqloc.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    boundary_inclusion,
    codegeneracy_map,
    constant_map,
    hom_set,
    identity_map,
    nondeg,
    point,
    standard_simplex,
    verify_map,
)


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
