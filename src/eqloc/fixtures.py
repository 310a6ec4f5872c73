"""Worked examples shared by the test suite and the CLI fixtures command."""

from __future__ import annotations

from .cat import (
    Diagram,
    DiagramMap,
    SmallCategory,
    arrow_category,
    coproduct_D,
    cyclic_category,
    point_diagram,
    wrap_sset,
)
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    constant_map,
    empty_simplicial_set,
    nondeg,
    point,
)


def z2_category() -> SmallCategory:
    return cyclic_category(2)


def free_z2_orbit() -> Diagram:
    """Two vertices swapped by the involution: the free Z/2-orbit."""
    X = SimplicialSet([["p", "q"]], {})
    swap = SimplicialMap(X, X, {"p": nondeg("q"), "q": nondeg("p")})
    return Diagram(z2_category(), {"*": X}, {"g1": swap})


def trivial_z2_orbit() -> Diagram:
    return point_diagram(z2_category())


def z2_two_orbits() -> Diagram:
    """Disjoint union of the free and the trivial Z/2-orbit."""
    return coproduct_D([free_z2_orbit(), trivial_z2_orbit()]).diagram


def z2_collapse() -> DiagramMap:
    """The equivariant collapse of the free orbit onto the trivial one."""
    F, T = free_z2_orbit(), trivial_z2_orbit()
    return DiagramMap(F, T, {"*": constant_map(F.at["*"], point(), "0")})


def arrow_orbit(X: SimplicialSet) -> Diagram:
    """The orbit (X -> point) over the arrow category."""
    D = arrow_category()
    return Diagram(D, {"a": X, "b": point()},
                   {"f": constant_map(X, point(), "0")})


def two_points_diagram() -> Diagram:
    """Two vertices, no action: Delta^0 + Delta^0 over the trivial category."""
    X = SimplicialSet([["u", "v"]], {})
    return wrap_sset(X)


def interval_plus_point() -> Diagram:
    """Delta^1 + Delta^0 over the trivial category."""
    X = SimplicialSet([["a", "b", "c"], ["e"]],
                      {"e": (((), "a"), ((), "b"))})
    return wrap_sset(X)


def empty_to_point_map() -> SimplicialMap:
    return SimplicialMap(empty_simplicial_set(), point(), {})
