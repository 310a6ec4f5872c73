"""The shared on-disk document format and the named workspace.

Documents are UTF-8 JSON with a fixed schema version.  Cell names are
strings; degeneracy words are arrays of naturals in strictly decreasing
order; maps list each source cell with its image word and cell.  All output
is serialized canonically (sorted keys, fixed separators) so reruns are
byte-identical.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .cat import (
    Diagram,
    DiagramMap,
    SmallCategory,
    terminal_category,
    validate_category,
    validate_diagram,
    validate_dmap,
    wrap_smap,
    wrap_sset,
)
from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    empty_simplicial_set,
    identity_map,
    point,
    validate,
    verify_map,
)

SCHEMA = "eqloc/1"
SECTIONS = ("categories", "simplicial_sets", "maps", "diagrams",
            "diagram_maps", "localization_specs")


class DocumentError(Exception):
    """A parse or validation failure, with enough context to locate it."""


@contextmanager
def _entry(kind, name):
    """Report a missing key or a wrong type inside one document entry as a
    DocumentError that names the entry."""
    try:
        yield
    except KeyError as exc:
        raise DocumentError(f"{kind} {name!r}: missing or unknown "
                            f"key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise DocumentError(f"{kind} {name!r}: {exc}") from exc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# entity serializers


def sset_doc(X: SimplicialSet) -> dict:
    """The document of X, built from X's own immutable tuples: `cells` is
    `X.levels` and each `faces` entry is `X.cell_faces(c)`, whose Simplex
    values are (word, cell) tuples.  JSON writes them as the same arrays as
    lists, so compare documents through `canonical_json`, not by `==`
    against parsed JSON."""
    return {
        "cells": X.levels,
        "faces": {c: X.cell_faces(c) for level in X.levels[1:] for c in level},
    }


def _read_simplex(word, cell, shared, owner):
    """Simplex(word, cell), a face or image of the cell `owner`; one
    nondegenerate Simplex per name in shared.  The word must be a list or
    tuple of ints."""
    if not isinstance(word, (list, tuple)) or (
            word and not all(type(i) is int for i in word)):
        raise ValueError(f"cell {owner!r}: degeneracy word {word!r} is not "
                         f"a list of integers")
    word = tuple(word)
    return Simplex(word, cell) if word else (
        shared.get(cell) or shared.setdefault(cell, Simplex((), cell)))


def _valid(kind, name, obj, problems):
    """obj, or a DocumentError naming the entry and its problems."""
    if problems:
        raise DocumentError(f"{kind} {name!r} invalid: {problems}")
    return obj


def sset_from_doc(doc, name="?") -> SimplicialSet:
    """The validated complex of a document; `cells` must be a list or tuple
    of levels, each a list or tuple of cell-name strings."""
    try:
        shared = {}
        faces = {c: tuple([_read_simplex(w, d, shared, c) for w, d in fs])
                 for c, fs in doc.get("faces", {}).items()}
        cells, seq = doc["cells"], (list, tuple)
        if not (isinstance(cells, seq) and all(
                isinstance(level, seq) and all(isinstance(c, str) for c in level)
                for level in cells)):
            raise ValueError("cells must be a list of levels, each a list "
                             "of cell-name strings")
        X = SimplicialSet(cells, faces)
        problems = validate(X)
    except Exception as exc:
        raise DocumentError(f"simplicial set {name!r}: {exc}") from exc
    return _valid("simplicial set", name, X, problems)


def assignment_from_doc(doc):
    shared = {}
    return {c: _read_simplex(v[0], v[1], shared, c) for c, v in doc.items()}


def category_from_doc(doc, name="?") -> SmallCategory:
    """The validated category of a document, all of whose names are strings."""
    try:
        D = SmallCategory(doc["objects"],
                          [tuple(a) for a in doc["arrows"]],
                          doc["identities"],
                          {(g, f): gf for g, f, gf in doc.get("composition", [])})
        names = (*D.objects, *D.arrows, *D.src.values(), *D.tgt.values(),
                 *D.identity.values(), *D.comp.values(),
                 *(n for pair in D.comp for n in pair))
        if not all(isinstance(n, str) for n in names):
            raise ValueError("object and arrow names must be strings")
    except Exception as exc:
        raise DocumentError(f"category {name!r}: {exc}") from exc
    return _valid("category", name, D, validate_category(D))


# ---------------------------------------------------------------------------
# the workspace


class Workspace:
    """Named entities read from documents, one table per section.  The
    builtins (the category `1`, the simplicial sets `empty` and `point`, the
    map `empty-to-point`) are the initial table contents, never listed by
    `summary`.  CLI reports record their own provenance."""

    def __init__(self):
        self.categories = {"1": terminal_category()}
        self.simplicial_sets = {"empty": empty_simplicial_set(),
                                "point": point()}
        self.maps = {"empty-to-point": SimplicialMap(
            empty_simplicial_set(), point(), {})}
        self.diagrams = {}
        self.diagram_maps = {}
        self.spec_docs = {}

    def _tables(self):
        """Each of SECTIONS' tables, with the reader of one (doc, name)."""
        return ((self.categories, category_from_doc),
                (self.simplicial_sets, sset_from_doc),
                (self.maps, self._map),
                (self.diagrams, self._diagram),
                (self.diagram_maps, self._diagram_map),
                (self.spec_docs, lambda d, name: d))

    def load(self, path):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"{path}: syntax error at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        except (UnicodeDecodeError, RecursionError) as exc:
            raise DocumentError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise DocumentError(f"{path}: the document is not a JSON object")
        if doc.get("schema") != SCHEMA:
            raise DocumentError(f"{path}: unsupported schema "
                                f"{doc.get('schema')!r}, expected {SCHEMA!r}")
        self.load_doc(doc, origin=str(path))
        return self

    def load_doc(self, doc, origin="<doc>"):
        if not isinstance(doc, dict):
            raise DocumentError(f"{origin}: the document is not a JSON object")
        for key in SECTIONS:
            if not isinstance(doc.get(key, {}), dict):
                raise DocumentError(f"{origin}: section {key!r} is not an "
                                    f"object")
        for key, (table, read) in zip(SECTIONS, self._tables()):
            for name, d in doc.get(key, {}).items():
                if name in table:
                    raise DocumentError(f"duplicate name {name!r}")
                table[name] = read(d, name)

    def _map(self, d, name) -> SimplicialMap:
        with _entry("map", name):
            src = self._get(self.simplicial_sets, d["source"], "simplicial set")
            tgt = self._get(self.simplicial_sets, d["target"], "simplicial set")
            f = SimplicialMap(src, tgt, assignment_from_doc(d["assignment"]))
            return _valid("map", name, f, verify_map(f))

    def _diagram(self, d, name) -> Diagram:
        with _entry("diagram", name):
            shape = self._get(self.categories, d["shape"], "category")
            at = {o: self._get(self.simplicial_sets, s, "simplicial set")
                  for o, s in d["at"].items()}
            # a stray arrow keeps its map name for validate_diagram to report
            act = {m: self._get(self.maps, mapname, "map") if mapname != "id"
                   else identity_map(at[shape.src[m]]) if m in shape.src
                   else mapname
                   for m, mapname in d.get("act", {}).items()}
            X = Diagram(shape, at, act)
            return _valid("diagram", name, X, validate_diagram(X))

    def _diagram_map(self, d, name) -> DiagramMap:
        with _entry("diagram map", name):
            src = self._get(self.diagrams, d["source"], "diagram")
            tgt = self._get(self.diagrams, d["target"], "diagram")
            comps = {o: self._get(self.maps, m, "map")
                     for o, m in d["components"].items()}
            h = DiagramMap(src, tgt, comps)
            return _valid("diagram map", name, h, validate_dmap(h))

    def _get(self, table, name, kind):
        if name not in table:
            raise DocumentError(f"unknown {kind} {name!r}")
        return table[name]

    # -- resolution helpers used by the CLI ---------------------------------

    def diagram(self, name) -> Diagram:
        if name in self.diagrams:
            return self.diagrams[name]
        if name in self.simplicial_sets:
            return wrap_sset(self.simplicial_sets[name])
        raise DocumentError(f"unknown diagram {name!r}")

    def dmap(self, name) -> DiagramMap:
        if name in self.diagram_maps:
            return self.diagram_maps[name]
        if name in self.maps:
            return wrap_smap(self.maps[name])
        raise DocumentError(f"unknown map {name!r}")

    def sset(self, name) -> SimplicialSet:
        if name in self.simplicial_sets:
            return self.simplicial_sets[name]
        raise DocumentError(f"unknown simplicial set {name!r}")

    def summary(self) -> dict:
        """The names each section added, sorted; builtins are left out."""
        return {key: sorted(table.keys() - builtin.keys())
                for key, (table, _), (builtin, _) in zip(
                    SECTIONS, self._tables(), Workspace()._tables())}


# ---------------------------------------------------------------------------
# report serializers


def diagram_cells_doc(X: Diagram) -> dict:
    return {d: [len(level) for level in X.at[d].levels]
            for d in X.shape.objects}


def dmap_doc(h: DiagramMap) -> dict:
    return {d: {c: [list(s.word), s.cell]
                for c, s in sorted(h.components[d].assignment.items())}
            for d in h.source.shape.objects}


def trace_doc(result) -> dict:
    """The replayable record of a factorization run."""
    stages = []
    for stage in result.stages:
        attached = []
        for idx in stage.attached:
            sq = stage.squares[idx]
            attached.append({
                "member": sq.member_id,
                "meta": [str(x) for x in sq.meta],
            })
        stages.append({
            "n_assigned": len(stage.squares),
            "attached": attached,
            "pushout_cells": diagram_cells_doc(stage.stage_map.target),
            "stage_map": dmap_doc(stage.stage_map),
        })
    return {
        "instrumentation": result.instrumentation,
        "budget": {
            "stages": result.budget.stages,
            "n_cap": result.budget.n_cap,
            "dim_cap": result.budget.dim_cap,
        },
        "strict": result.strict,
        "stopped_by": result.stopped_by,
        "n_stages": result.n_stages,
        "stages": stages,
        "gamma": dmap_doc(result.gamma),
        "delta": dmap_doc(result.delta),
    }


def verdict_doc(v) -> dict:
    return {"value": v.value, "caps": [str(c) for c in v.caps],
            "reason": v.reason}


def write_report(path, report) -> str:
    text = canonical_json(report)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
