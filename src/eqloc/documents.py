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


def _read_simplex(word, cell, shared):
    """Simplex(word, cell); one nondegenerate Simplex per name in shared."""
    word = tuple(word)
    return Simplex(word, cell) if word else (
        shared.get(cell) or shared.setdefault(cell, Simplex((), cell)))


def sset_from_doc(doc, name="?") -> SimplicialSet:
    """The validated complex of a document; `cells` must be a list or tuple
    of levels, each a list or tuple of cell-name strings."""
    try:
        shared = {}
        faces = {c: tuple([_read_simplex(w, d, shared) for w, d in fs])
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
    if problems:
        raise DocumentError(f"simplicial set {name!r} invalid: {problems}")
    return X


def assignment_from_doc(doc):
    shared = {}
    return {c: _read_simplex(v[0], v[1], shared) for c, v in doc.items()}


def category_from_doc(doc, name="?") -> SmallCategory:
    try:
        D = SmallCategory(doc["objects"],
                          [tuple(a) for a in doc["arrows"]],
                          doc["identities"],
                          {(g, f): gf for g, f, gf in doc.get("composition", [])})
    except Exception as exc:
        raise DocumentError(f"category {name!r}: {exc}") from exc
    problems = validate_category(D)
    if problems:
        raise DocumentError(f"category {name!r} invalid: {problems}")
    return D


# ---------------------------------------------------------------------------
# the workspace


class Workspace:
    """Named entities loaded from documents plus derived artifacts.

    Every artifact carries provenance: the file it came from, or the
    operation and inputs that derived it.
    """

    def __init__(self):
        self.categories = {}
        self.simplicial_sets = {}
        self.maps = {}
        self.diagrams = {}
        self.diagram_maps = {}
        self.spec_docs = {}
        self.provenance = {}
        self._install_builtins()

    def _install_builtins(self):
        self.categories["1"] = terminal_category()
        self.simplicial_sets["empty"] = empty_simplicial_set()
        self.simplicial_sets["point"] = point()
        self.maps["empty-to-point"] = SimplicialMap(
            empty_simplicial_set(), point(), {})
        for name in ("1", "empty", "point", "empty-to-point"):
            self.provenance[name] = {"builtin": True}

    def _fresh(self, table, name):
        if name in table:
            raise DocumentError(f"duplicate name {name!r}")

    def load(self, path):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"{path}: syntax error at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
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
        for name, d in doc.get("categories", {}).items():
            self._fresh(self.categories, name)
            self.categories[name] = category_from_doc(d, name)
            self.provenance[name] = {"file": origin}
        for name, d in doc.get("simplicial_sets", {}).items():
            self._fresh(self.simplicial_sets, name)
            self.simplicial_sets[name] = sset_from_doc(d, name)
            self.provenance[name] = {"file": origin}
        for name, d in doc.get("maps", {}).items():
            self._fresh(self.maps, name)
            with _entry("map", name):
                src = self._get(self.simplicial_sets, d["source"],
                                "simplicial set")
                tgt = self._get(self.simplicial_sets, d["target"],
                                "simplicial set")
                f = SimplicialMap(src, tgt,
                                  assignment_from_doc(d["assignment"]))
                problems = verify_map(f)
            if problems:
                raise DocumentError(f"map {name!r} invalid: {problems}")
            self.maps[name] = f
            self.provenance[name] = {"file": origin}
        for name, d in doc.get("diagrams", {}).items():
            self._fresh(self.diagrams, name)
            with _entry("diagram", name):
                shape = self._get(self.categories, d["shape"], "category")
                at = {o: self._get(self.simplicial_sets, s, "simplicial set")
                      for o, s in d["at"].items()}
                act = {}
                for m, mapname in d.get("act", {}).items():
                    if mapname == "id":
                        act[m] = identity_map(at[shape.src[m]])
                    else:
                        act[m] = self._get(self.maps, mapname, "map")
                X = Diagram(shape, at, act)
                problems = validate_diagram(X)
            if problems:
                raise DocumentError(f"diagram {name!r} invalid: {problems}")
            self.diagrams[name] = X
            self.provenance[name] = {"file": origin}
        for name, d in doc.get("diagram_maps", {}).items():
            self._fresh(self.diagram_maps, name)
            with _entry("diagram map", name):
                src = self._get(self.diagrams, d["source"], "diagram")
                tgt = self._get(self.diagrams, d["target"], "diagram")
                comps = {o: self._get(self.maps, m, "map")
                         for o, m in d["components"].items()}
                h = DiagramMap(src, tgt, comps)
                problems = validate_dmap(h)
            if problems:
                raise DocumentError(f"diagram map {name!r} invalid: {problems}")
            self.diagram_maps[name] = h
            self.provenance[name] = {"file": origin}
        for name, d in doc.get("localization_specs", {}).items():
            self._fresh(self.spec_docs, name)
            self.spec_docs[name] = d
            self.provenance[name] = {"file": origin}

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
        return {
            "categories": sorted(n for n in self.categories
                                 if "builtin" not in self.provenance.get(n, {})),
            "simplicial_sets": sorted(
                n for n in self.simplicial_sets
                if "builtin" not in self.provenance.get(n, {})),
            "maps": sorted(n for n in self.maps
                           if "builtin" not in self.provenance.get(n, {})),
            "diagrams": sorted(self.diagrams),
            "diagram_maps": sorted(self.diagram_maps),
            "localization_specs": sorted(self.spec_docs),
        }


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
