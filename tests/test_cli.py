import copy
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import eqloc
from eqloc.cli import main
from eqloc.documents import SECTIONS, DocumentError, Workspace
from eqloc.localization import LocalizationCaps
from eqloc.soa import Budget

DATA = pathlib.Path(__file__).parent / "data"
Z2 = str(DATA / "z2_example.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParse:
    def test_bundled_z2_example(self, capsys):
        ws = Workspace().load(Z2)
        s = ws.summary()
        assert len(s["categories"]) == 1
        assert len(s["diagrams"]) == 3
        assert len(s["maps"]) == 2
        code, out, err = run(capsys, "parse", "-w", Z2)
        assert code == 0

    def test_empty_document(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text('{"schema": "eqloc/1"}')
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 0

    def test_syntax_error_has_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": "eqloc/1",,}')
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert "line" in err and "column" in err

    def test_broken_composition_table(self, tmp_path, capsys):
        doc = {
            "schema": "eqloc/1",
            "categories": {"C": {
                "objects": ["*"],
                "arrows": [["e", "*", "*"], ["g", "*", "*"]],
                "identities": {"*": "e"},
                "composition": [],
            }},
        }
        p = tmp_path / "cat.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert "missing-composite" in err

    def test_invalid_faces_reported(self, tmp_path, capsys):
        doc = {
            "schema": "eqloc/1",
            "simplicial_sets": {"B": {
                "cells": [["a"], ["e"]],
                "faces": {"e": [[[], "a"], [[], "zzz"]]},
            }},
        }
        p = tmp_path / "bad_sset.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert "unknown-face-target" in err

    def test_faces_for_unknown_cell_reported(self, tmp_path, capsys):
        doc = {
            "schema": "eqloc/1",
            "simplicial_sets": {"G": {
                "cells": [["a"]],
                "faces": {"ghost": [[[], "a"], [[], "a"]]},
            }},
        }
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert "('faces-for-unknown-cell', 'ghost')" in err

    def _parse_with_swap(self, tmp_path, capsys, swap):
        """`eqloc parse` on the Z/2 example with the assignment of its map
        'swap' (which exchanges the vertices p and q) replaced."""
        doc = json.loads(pathlib.Path(Z2).read_text(encoding="utf-8"))
        doc["maps"]["swap"]["assignment"] = swap
        p = tmp_path / "z2_bad_map.json"
        p.write_text(json.dumps(doc))
        return run(capsys, "parse", "-w", str(p))

    def test_map_with_extra_cell_names_map_and_cell(self, tmp_path, capsys):
        code, out, err = self._parse_with_swap(
            tmp_path, capsys,
            {"p": [[], "q"], "q": [[], "p"], "stray": [[], "p"]})
        assert code == 1
        assert "map 'swap'" in err and "'stray'" in err
        assert "diagram" not in err

    def test_map_with_missing_cell_is_unassigned(self, tmp_path, capsys):
        code, out, err = self._parse_with_swap(tmp_path, capsys,
                                               {"p": [[], "q"]})
        assert code == 1
        assert "map 'swap' invalid: [('unassigned', 'q')]" in err

    def test_wrong_schema(self, tmp_path, capsys):
        p = tmp_path / "v0.json"
        p.write_text('{"schema": "eqloc/0"}')
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1


ONE_POINT = {"P": {"shape": "1", "at": {"*": "point"}}}

# workspace sections with one malformed entry, named by the second field
MALFORMED_ENTRIES = {
    "category-not-an-object": ("categories", "category 'C'", {
        "categories": {"C": 5}}),
    "category-object-a-list": ("categories", "category 'x'", {
        "categories": {"x": {"objects": [[], "a"],
                             "arrows": [["ida", "a", "a"]],
                             "identities": {"a": "ida"}}}}),
    "composite-not-an-arrow": ("categories", "category 'x'", {
        "categories": {"x": {"objects": ["a"],
                             "arrows": [["ida", "a", "a"], ["g", "a", "a"]],
                             "identities": {"a": "ida"},
                             "composition": [["g", "g", "zz"]]}}}),
    "composition-of-non-arrows": ("categories", "category 'x'", {
        "categories": {"x": {"objects": ["a"],
                             "arrows": [["ida", "a", "a"]],
                             "identities": {"a": "ida"},
                             "composition": [["zz", "ida", "ida"]]}}}),
    "duplicate-object": ("categories", "category 'c'", {
        "categories": {"c": {"objects": ["a", "a"],
                             "arrows": [["ida", "a", "a"]],
                             "identities": {"a": "ida"}}},
        "simplicial_sets": {"two": {"cells": [["p", "q"]]}},
        "diagrams": {"X": {"shape": "c", "at": {"a": "two"}, "act": {}}}}),
    "duplicate-arrow": ("categories", "category 'x'", {
        "categories": {"x": {"objects": ["a", "b"],
                             "arrows": [["ida", "a", "a"], ["idb", "b", "b"],
                                        ["f", "a", "b"], ["f", "b", "a"]],
                             "identities": {"a": "ida", "b": "idb"}}}}),
    "sset-not-an-object": ("simplicial_sets", "simplicial set 'S'", {
        "simplicial_sets": {"S": ["a"]}}),
    "image-not-a-pair": ("maps", "map 'f'", {"maps": {"f": {
        "source": "point", "target": "point", "assignment": {"0": 5}}}}),
    "image-too-short": ("maps", "map 'f'", {"maps": {"f": {
        "source": "point", "target": "point", "assignment": {"0": [[]]}}}}),
    "map-without-assignment": ("maps", "map 'f'", {"maps": {"f": {
        "source": "point", "target": "point"}}}),
    "map-not-an-object": ("maps", "map 'f'", {"maps": {"f": 5}}),
    "map-source-a-list": ("maps", "map 'f'", {"maps": {"f": {
        "source": ["point"], "target": "point", "assignment": {}}}}),
    "diagram-without-at": ("diagrams", "diagram 'X'", {"diagrams": {"X": {
        "shape": "1"}}}),
    "diagram-at-a-list": ("diagrams", "diagram 'X'", {"diagrams": {"X": {
        "shape": "1", "at": ["point"]}}}),
    "diagram-unknown-arrow": ("diagrams", "diagram 'X'", {"diagrams": {"X": {
        "shape": "1", "at": {"*": "point"}, "act": {"zz": "id"}}}}),
    "dmap-without-components": ("diagram_maps", "diagram map 'h'", {
        "diagrams": ONE_POINT,
        "diagram_maps": {"h": {"source": "P", "target": "P"}}}),
    "dmap-components-a-list": ("diagram_maps", "diagram map 'h'", {
        "diagrams": ONE_POINT,
        "diagram_maps": {"h": {"source": "P", "target": "P",
                               "components": ["point"]}}}),
}


def _sset_entry(faces):
    """A simplicial set entry on the cells of a triangle t with edges
    e = bc, f = ac, g = ab."""
    return {"cells": [["a", "b", "c"], ["e", "f", "g"], ["t"]],
            "faces": faces}


TRIANGLE = {"e": [[[], "c"], [[], "b"]], "f": [[[], "c"], [[], "a"]],
            "g": [[[], "b"], [[], "a"]],
            "t": [[[], "e"], [[], "f"], [[], "g"]]}

# one face-data violation each: the problem kind, the cell it names, faces
BAD_FACES = {
    "faces-on-vertex": ("faces-on-vertex", "a",
                        dict(TRIANGLE, a=[[[], "b"]])),
    "missing-faces": ("missing-faces", "f", {
        k: v for k, v in TRIANGLE.items() if k != "f"}),
    "face-count": ("face-count", "t", dict(TRIANGLE, t=[[[], "e"]])),
    "inadmissible-word": ("inadmissible-word", "t", dict(
        TRIANGLE, t=[[[0, 0], "a"], [[], "f"], [[], "g"]])),
    "word-out-of-range": ("inadmissible-word", "t", dict(
        TRIANGLE, t=[[[1], "a"], [[], "f"], [[], "g"]])),
    "unknown-face-target": ("unknown-face-target", "t", dict(
        TRIANGLE, t=[[[], "zz"], [[], "f"], [[], "g"]])),
    "face-dimension": ("face-dimension", "t", dict(
        TRIANGLE, t=[[[], "a"], [[], "f"], [[], "g"]])),
    "identity": ("identity", "t", dict(
        TRIANGLE, e=[[[], "b"], [[], "c"]])),
    "faces-for-unknown-cell": ("faces-for-unknown-cell", "ghost", dict(
        TRIANGLE, ghost=[[[], "a"], [[], "b"]])),
}


class TestBadFaceData:
    """Each face-data violation exits 1 naming the problem and the cell."""

    def test_triangle_is_valid(self, tmp_path, capsys):
        p = tmp_path / "triangle.json"
        p.write_text(json.dumps({"schema": "eqloc/1",
                                 "simplicial_sets": {"S": _sset_entry(TRIANGLE)}}))
        assert run(capsys, "parse", "-w", str(p))[0] == 0

    @pytest.mark.parametrize("case", sorted(BAD_FACES))
    def test_exit_1_names_problem_and_cell(self, case, tmp_path, capsys):
        kind, cell, faces = BAD_FACES[case]
        p = tmp_path / f"{case}.json"
        p.write_text(json.dumps({"schema": "eqloc/1",
                                 "simplicial_sets": {"S": _sset_entry(faces)}}))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert f"simplicial set 'S' invalid: [('{kind}', '{cell}'" in err
        assert "Traceback" not in err

    def test_word_of_strings_names_the_entry(self, tmp_path, capsys):
        p = tmp_path / "words.json"
        p.write_text(json.dumps({"schema": "eqloc/1", "simplicial_sets": {
            "S": _sset_entry(dict(TRIANGLE,
                                  t=[[["x"], "a"], [[], "f"], [[], "g"]]))}}))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert "error: simplicial set 'S'" in err
        assert "Traceback" not in err


# a degeneracy word that is not a list of ints: the section, the entry and
# cell the error names, and the entry
NON_INTEGER_WORDS = {
    "empty-string-face": ("simplicial_sets", "simplicial set 'S'", "e", {
        "S": {"cells": [["a", "b"], ["e"]],
              "faces": {"e": [["", "a"], ["", "b"]]}}}),
    "digit-string-face": ("simplicial_sets", "simplicial set 'S'", "t", {
        "S": _sset_entry(dict(TRIANGLE,
                              t=[["0", "a"], [[], "f"], [[], "g"]]))}),
    "float-in-face-word": ("simplicial_sets", "simplicial set 'S'", "t", {
        "S": _sset_entry(dict(TRIANGLE,
                              t=[[[0.0], "a"], [[], "f"], [[], "g"]]))}),
    "empty-string-image": ("maps", "map 'f'", "0", {
        "f": {"source": "point", "target": "point",
              "assignment": {"0": ["", "0"]}}}),
    "boolean-in-image-word": ("maps", "map 'f'", "0", {
        "f": {"source": "point", "target": "point",
              "assignment": {"0": [[True], "0"]}}}),
}


class TestNonIntegerWords:
    """A degeneracy word that is not a list of ints exits 1 naming the
    complex or map and the cell, whichever way JSON spells it."""

    @pytest.mark.parametrize("case", sorted(NON_INTEGER_WORDS))
    def test_exit_1_names_entry_and_cell(self, case, tmp_path, capsys):
        section, entry, cell, entries = NON_INTEGER_WORDS[case]
        p = tmp_path / f"{case}.json"
        p.write_text(json.dumps({"schema": "eqloc/1", section: entries}))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert f"error: {entry}: cell '{cell}': degeneracy word" in err
        assert "Traceback" not in err


class TestMalformedCells:
    """`cells` that is not a list of lists of strings exits 1 naming the
    set, whichever command reads it."""

    @pytest.mark.parametrize("command", [["parse"], ["colim", "-d", "S"]])
    @pytest.mark.parametrize("cells", ["c", [[1]]], ids=["string", "number"])
    def test_exit_1_names_the_set(self, cells, command, tmp_path, capsys):
        p = tmp_path / "cells.json"
        p.write_text(json.dumps({"schema": "eqloc/1", "simplicial_sets": {
            "S": {"cells": cells, "faces": {}}}}))
        code, out, err = run(capsys, command[0], "-w", str(p), *command[1:])
        assert code == 1
        assert "error: simplicial set 'S': cells must be" in err
        assert "Traceback" not in err


class TestMalformedEntries:
    """A missing key or a wrong type in an entry exits 1 naming the entry."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
    def test_exit_1_names_entry(self, case, tmp_path, capsys):
        section, entry, doc = MALFORMED_ENTRIES[case]
        assert section in doc
        p = tmp_path / f"{case}.json"
        p.write_text(json.dumps(dict(doc, schema="eqloc/1")))
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert f"error: {entry}" in err
        assert "Traceback" not in err


class TestMalformedDocuments:
    """A document or a section that is not an object exits 1 naming it."""

    def _parse(self, tmp_path, capsys, text):
        p = tmp_path / "ws.json"
        p.write_text(text)
        code, out, err = run(capsys, "parse", "-w", str(p))
        assert code == 1
        assert "Traceback" not in err
        return str(p), err

    @pytest.mark.parametrize("text", ["[1]", '"eqloc/1"', "null"])
    def test_document_not_an_object(self, text, tmp_path, capsys):
        path, err = self._parse(tmp_path, capsys, text)
        assert f"error: {path}: the document is not a JSON object" in err

    @pytest.mark.parametrize("section", ["categories", "simplicial_sets",
                                         "maps", "diagrams", "diagram_maps",
                                         "localization_specs"])
    def test_section_not_an_object(self, section, tmp_path, capsys):
        path, err = self._parse(tmp_path, capsys, json.dumps(
            {"schema": "eqloc/1", section: []}))
        assert f"error: {path}: section {section!r} is not an object" in err

    def test_deep_document_names_the_path(self, tmp_path, capsys):
        path, err = self._parse(tmp_path, capsys,
                                "[" * 200000 + "]" * 200000)
        assert err.startswith(f"error: {path}: maximum recursion depth")

    def test_load_doc_rejects_a_list(self):
        with pytest.raises(DocumentError, match="<doc>: the document"):
            Workspace().load_doc([1])


# one valid entry per section: Z/2 swapping the two edges of a circle
SWEEP_BASE = {
    "categories": {"C": {
        "objects": ["*"], "arrows": [["e", "*", "*"], ["g", "*", "*"]],
        "identities": {"*": "e"}, "composition": [["g", "g", "e"]]}},
    "simplicial_sets": {"L": {
        "cells": [["p", "q"], ["a", "b"]],
        "faces": {"a": [[[], "q"], [[], "p"]], "b": [[[], "p"], [[], "q"]]}}},
    "maps": {"swap": {"source": "L", "target": "L", "assignment": {
        "p": [[], "q"], "q": [[], "p"], "a": [[], "b"], "b": [[], "a"]}}},
    "diagrams": {"X": {"shape": "C", "at": {"*": "L"}, "act": {"g": "swap"}}},
    "diagram_maps": {"h": {"source": "X", "target": "X",
                           "components": {"*": "swap"}}},
    "localization_specs": {"s": {"shape": "C",
                                 "fixedpointwise": "empty-to-point"}},
}

SWEEP_LEAVES = [None, True, 0, 1, -1, 2.5, "", "*", "e", "g", "p", "a",
                "L", "C", "X", "swap", "id", "point", "empty-to-point"]


def _random_json(rng, depth):
    """A random JSON value nested at most depth deep, its strings mostly
    names the sweep document uses."""
    kind = rng.randrange(4) if depth else 0
    if kind < 2:
        return rng.choice(SWEEP_LEAVES)
    items = [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return items
    return {str(rng.choice(SWEEP_LEAVES)): v for v in items}


def _slots(parent, key):
    """(container, key) of the value parent[key] and of every value below."""
    yield parent, key
    value = parent[key]
    if isinstance(value, (dict, list)):
        for k in (value if isinstance(value, dict) else range(len(value))):
            yield from _slots(value, k)


class TestMalformedSweep:
    def test_only_document_errors_escape(self):
        """Seeded documents, each with one field of one SWEEP_BASE entry
        turned into random JSON of depth <= 3, load or raise
        DocumentError."""
        Workspace().load_doc(SWEEP_BASE)
        for seed in range(2400):
            rng = random.Random(seed)
            doc = copy.deepcopy(SWEEP_BASE)
            section = doc[SECTIONS[seed % len(SECTIONS)]]
            parent, key = rng.choice(list(_slots(section, next(iter(section)))))
            parent[key] = _random_json(rng, 3)
            try:
                Workspace().load_doc(doc)
            except DocumentError:
                pass
            except Exception as exc:
                pytest.fail(f"seed {seed}: {type(exc).__name__}: {exc} "
                            f"in {json.dumps(doc)}")


class TestCommands:
    def test_colim_free(self, tmp_path, capsys):
        out_path = str(tmp_path / "colim.json")
        code, out, err = run(capsys, "colim", "-w", Z2, "-d", "free",
                             "--out", out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["colim"]["cells"] == [["q0_0"]]

    def test_orbits(self, capsys):
        code, out, err = run(capsys, "orbits", "-w", Z2, "-d", "both")
        assert code == 0
        assert "2 orbit(s)" in out

    def test_homcx(self, capsys):
        code, out, err = run(capsys, "homcx", "-w", Z2, "--source", "free",
                             "--target", "both", "--dim-cap", "1")
        assert code == 0

    def test_rlp_decisive(self, capsys):
        code, out, err = run(capsys, "rlp", "-w", Z2,
                             "-i", "empty-to-point", "-p", "swap")
        assert code == 0
        assert "holds" in out

    def test_factorize_stabilizes(self, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        code, out, err = run(capsys, "factorize", "-w", Z2, "--map", "swap3",
                             "--class", "I", "--n-cap", "1", "--stages", "4",
                             "--out", out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["trace"]["stopped_by"] == "stabilization"
        assert doc["delta_report"]["delta_rlp_verified"]

    def test_factorize_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "factorize", "-w", Z2, "--map",
                             "empty-to-point", "--class", "J",
                             "--n-cap", "2", "--stages", "0")
        assert code in (0, 2)

    def test_localize_fixedpointwise(self, tmp_path, capsys):
        out_path = str(tmp_path / "loc.json")
        code, out, err = run(capsys, "localize", "-w", Z2, "-d", "both",
                             "--fixedpointwise-f", "empty-to-point",
                             "--n-cap", "1", "--stages", "2",
                             "--hom-cap", "1", "--probe-n-cap", "1",
                             "--out", out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["locality"]["value"] == "yes"
        assert all(fp["pi0"] == 1 for fp in doc["fixed_points"])

    def test_localize_with_named_spec(self, tmp_path, capsys):
        doc = {
            "schema": "eqloc/1",
            "simplicial_sets": {"twoV": {"cells": [["u", "v"]], "faces": {}}},
            "localization_specs": {
                "S1": {"generators": ["empty-to-point"],
                       "caps": {"stages": 3}}},
        }
        p = tmp_path / "ws.json"
        p.write_text(json.dumps(doc))
        out_path = str(tmp_path / "loc.json")
        code, out, err = run(capsys, "localize", "-w", str(p), "-d", "twoV",
                             "--spec", "S1", "--out", out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["locality"]["value"] == "yes"

    def test_locality_no(self, capsys):
        code, out, err = run(capsys, "locality", "-w", Z2, "-d", "free",
                             "--fixedpointwise-f", "empty-to-point",
                             "--n-cap", "1", "--hom-cap", "1",
                             "--probe-n-cap", "1")
        assert code == 0
        assert "no" in out

    @pytest.mark.parametrize("hom_cap, local", [
        ("2", ("no", "fixed points not Kan at 2, hom_cap 2")),
        ("1", ("inconclusive", "fixed points not Kan at 2, hom_cap 1")),
    ])
    def test_fixed_point_pi_1_needs_kan_at_2(self, hom_cap, local, tmp_path,
                                            capsys):
        """The boundary of Delta^2 is a circle: Kan at 1, not at 2, so its
        pi_1 is not read, and at hom_cap 2 the missing 2-filler is exact."""
        faces = {"0.1": [[[], "1"], [[], "0"]], "0.2": [[[], "2"], [[], "0"]],
                 "1.2": [[[], "2"], [[], "1"]]}
        p = tmp_path / "bd2.json"
        p.write_text(json.dumps({"schema": "eqloc/1", "simplicial_sets": {
            "bd2": {"cells": [["0", "1", "2"], ["1.2", "0.2", "0.1"]],
                    "faces": faces}}}))
        out_path = str(tmp_path / "loc.json")
        code, out, err = run(capsys, "locality", "-w", str(p), "-d", "bd2",
                             "--fixedpointwise-f", "empty-to-point",
                             "--probe-n-cap", "1", "--pi-cap", "1",
                             "--hom-cap", hom_cap, "--out", out_path)
        [fixed] = json.loads(pathlib.Path(out_path).read_text())[
            "fixed_points"]
        assert (fixed["fibrant"], fixed["pi0"]) == (True, 1)
        assert (fixed["local"]["value"], fixed["local"]["reason"]) == local

    @pytest.mark.parametrize("hom_cap, local", [
        ("2", ("yes", "")),
        ("1", ("inconclusive", "fixed points Kan up to hom_cap 1 only")),
    ])
    def test_fixed_points_kan_no_higher_than_hom_cap(self, hom_cap, local,
                                                     tmp_path, capsys):
        """Above hom_cap the truncated fixed points lack fillers that the
        full complex has, so with probe_n_cap 2 over hom_cap 1 every orbit
        is Kan only up to 1 and inconclusive, never a decisive no."""
        out_path = str(tmp_path / "loc.json")
        code, out, err = run(capsys, "localize", "-w", Z2, "-d", "both",
                             "--fixedpointwise-f", "empty-to-point",
                             "--hom-cap", hom_cap, "--out", out_path)
        assert code == 0
        assert "locality: yes" in out
        fixed = json.loads(pathlib.Path(out_path).read_text())["fixed_points"]
        assert [(r["orbit"], r["fibrant"], r["pi0"]) for r in fixed] == \
            [(0, True, 1), (1, True, 1)]
        assert {(r["local"]["value"], r["local"]["reason"])
                for r in fixed} == {local}

    def test_pi0(self, capsys):
        code, out, err = run(capsys, "pi", "-w", Z2, "--complex", "three",
                             "--n", "0")
        assert code == 0
        assert "3 class(es)" in out

    def test_pi_rejects_non_kan(self, tmp_path, capsys):
        doc = {
            "schema": "eqloc/1",
            "simplicial_sets": {"I1": {
                "cells": [["a", "b"], ["e"]],
                "faces": {"e": [[[], "a"], [[], "b"]]},
            }},
        }
        p = tmp_path / "i1.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pi", "-w", str(p), "--complex", "I1",
                             "--n", "1")
        assert code == 1

    def test_pi1_per_basepoint(self, tmp_path, capsys):
        out_path = str(tmp_path / "pi.json")
        code, out, err = run(capsys, "pi", "-w", Z2, "--complex", "three",
                             "--n", "1", "--out", out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["classes_per_basepoint"] == {"p": 1, "q": 1, "c": 1}
        assert doc["caps"] == {"kan_checked_to": 2}
        code, out, err = run(capsys, "pi", "-w", Z2, "--complex", "three",
                             "--n", "1", "--basepoint", "q", "--out",
                             out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["classes_per_basepoint"] == {"q": 1}

    def test_pi1_unknown_basepoint_exits_1(self, capsys):
        code, out, err = run(capsys, "pi", "-w", Z2, "--complex", "three",
                             "--n", "1", "--basepoint", "zz")
        assert code == 1
        assert err == "error: unknown basepoint 'zz'\n"

    def test_rlp_failure_reports_a_counterexample(self, tmp_path, capsys):
        doc = {"schema": "eqloc/1", "maps": {"c-to-p": {
            "source": "one", "target": "two",
            "assignment": {"c": [[], "p"]}}}}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        out_path = str(tmp_path / "rlp.json")
        code, out, err = run(capsys, "rlp", "-w", Z2, "-w", str(p),
                             "-i", "empty-to-point", "-p", "c-to-p",
                             "--out", out_path)
        assert code == 0
        assert "rlp fails over 2 squares" in out
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["holds"] is False and doc["n_squares"] == 2
        # the point cannot lift to q, outside the image of c -> p
        assert doc["counterexample"] == {"left": {"*": {}},
                                         "right": {"*": {"0": [[], "q"]}}}

    def test_cone(self, capsys):
        code, out, err = run(capsys, "cone", "-w", Z2, "-d", "trivial")
        assert code == 0

    def test_nullcheck(self, capsys):
        code, out, err = run(capsys, "nullcheck", "-w", Z2, "--map", "swap")
        assert code == 0
        assert "no" in out

    def test_nullcheck_budget_exit2(self, capsys):
        code, out, err = run(capsys, "nullcheck", "-w", Z2, "--map", "swap3",
                             "--budget", "1")
        assert code == 2

    def test_nullcheck_zero_budget_is_inconclusive(self, capsys):
        code, out, err = run(capsys, "nullcheck", "-w", Z2, "--map", "swap3",
                             "--budget", "0")
        assert code == 2
        assert "inconclusive" in out

    @pytest.mark.parametrize("argv", [
        ("pi", "--complex", "three", "--n", "-1"),
        ("nullcheck", "--map", "swap3", "--budget", "-5"),
    ])
    def test_negative_argument_exits_1(self, argv, capsys):
        code, out, err = run(capsys, argv[0], "-w", Z2, *argv[1:])
        assert code == 1
        assert err.startswith("error: ") and argv[-2] in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("argv", [
        ("parse", "-w", "{tmp}/missing.json"),
        ("parse", "-w", "{tmp}"),
        ("colim", "-w", Z2, "-d", "both", "--out", "{tmp}/no/such/x.json"),
        ("parse", "-w", "{tmp}/latin1.json"),
    ])
    def test_file_error_exits_1_naming_the_path(self, argv, tmp_path, capsys):
        (tmp_path / "latin1.json").write_bytes(b'{"schema": "eqloc/1\xff"}')
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and argv[-1] in err
        assert "Traceback" not in out + err

    def test_proper_probe(self, capsys):
        code, out, err = run(capsys, "proper-probe", "-w", Z2,
                             "--kind", "left", "--weq", "swap",
                             "--along", "swap")
        assert code == 0


class TestReplay:
    def test_byte_identical_reports(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for out_path in (a, b):
            code, _, _ = run(capsys, "factorize", "-w", Z2, "--map", "swap3",
                             "--class", "I", "--n-cap", "1", "--stages", "3",
                             "--out", out_path)
            assert code == 0
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()

    def test_env_caps(self, capsys, monkeypatch):
        monkeypatch.setenv("EQLOC_CAPS", "level_cap=0,dim_cap=1")
        code, out, err = run(capsys, "orbits", "-w", Z2, "-d", "free")
        assert code == 0
        assert "level_cap=0" in out

    def test_env_caps_rejects_unknown(self, capsys, monkeypatch):
        monkeypatch.setenv("EQLOC_CAPS", "bogus=3")
        code, out, err = run(capsys, "orbits", "-w", Z2, "-d", "free")
        assert code == 1

    def test_env_caps_rejects_hor_n_cap(self, capsys, monkeypatch):
        # the horn exponent cap is n_cap on the command line
        monkeypatch.setenv("EQLOC_CAPS", "hor_n_cap=0")
        code, out, err = run(capsys, "locality", "-w", Z2, "-d", "free",
                             "--fixedpointwise-f", "empty-to-point",
                             "--hom-cap", "1", "--probe-n-cap", "1")
        assert code == 1
        assert err == "error: EQLOC_CAPS: unknown cap 'hor_n_cap' = 0\n"

    @pytest.mark.parametrize("argv", [
        ["parse"], ["colim", "-d", "free"],
        ["rlp", "-i", "empty-to-point", "-p", "swap"]])
    def test_env_caps_checked_by_every_command(self, capsys, monkeypatch,
                                               argv):
        """A command that reads no cap still rejects an unknown key, and a
        valid EQLOC_CAPS leaves its output as it was."""
        argv = [argv[0], "-w", Z2, *argv[1:]]
        plain = run(capsys, *argv)
        monkeypatch.setenv("EQLOC_CAPS", "stages=2,pi_cap=1")
        assert run(capsys, *argv) == plain
        monkeypatch.setenv("EQLOC_CAPS", "bogus=1")
        assert run(capsys, *argv) == (
            1, "", "error: EQLOC_CAPS: unknown cap 'bogus' = 1\n")

    def test_default_caps_are_the_record_defaults(self, tmp_path, capsys):
        out_path = str(tmp_path / "f.json")
        code, _, _ = run(capsys, "factorize", "-w", Z2, "--map", "swap3",
                         "--out", out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["trace"]["budget"] == dict(vars(Budget()))
        code, out, _ = run(capsys, "locality", "-w", Z2, "-d", "both",
                           "--fixedpointwise-f", "empty-to-point", "--out",
                           out_path)
        assert code == 0
        doc = json.loads(pathlib.Path(out_path).read_text())
        caps = LocalizationCaps()
        assert doc["locality"]["caps"] == [str(x) for x in (
            "hor_n_cap", caps.hor_n_cap, "probe_n_cap", caps.probe_n_cap,
            "dim_cap", caps.dim_cap)]


def run_process(*argv, timeout=60):
    """The CLI in a fresh interpreter, killed after timeout seconds."""
    src = pathlib.Path(eqloc.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "eqloc.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestGroupoidRuns:
    """Localizations over Z/2 build their orbit setups at cap 0, so runs
    that once built every cotensor up to dim_cap finish."""

    def test_fixedpointwise_at_dim_cap_4(self):
        out = run_process("localize", "-w", Z2, "-d", "both",
                          "--fixedpointwise-f", "empty-to-point",
                          "--dim-cap", "4")
        assert out.returncode == 0, out.stderr

    def test_set_mode_with_a_free_orbit_generator(self, tmp_path):
        doc = {"schema": "eqloc/1",
               "diagrams": {"emptyZ2": {"shape": "Z2", "at": {"*": "empty"},
                                        "act": {"g1": "id"}}},
               "maps": {"e_two": {"source": "empty", "target": "two",
                                  "assignment": {}}},
               "diagram_maps": {"e_to_free": {
                   "source": "emptyZ2", "target": "free",
                   "components": {"*": "e_two"}}}}
        p = tmp_path / "e_to_free.json"
        p.write_text(json.dumps(doc))
        out = run_process("localize", "-w", Z2, "-w", str(p), "-d", "both",
                          "--generators", "e_to_free")
        assert out.returncode == 0, out.stderr
        assert "locality: yes" in out.stdout

    def test_general_f_probe_is_decided(self, tmp_path, capsys):
        """The swapped loops at f = bd 2 -> Delta^2: the locality probe
        reads fixed points, so a one-stage run ends with a decisive verdict
        (it did not return in minutes while it searched squares)."""
        out_path = str(tmp_path / "loops.json")
        code, out, err = run(capsys, "localize",
                             "-w", str(DATA / "swapped_loops.json"),
                             "-d", "loops", "--fixedpointwise-f", "bd2",
                             "--n-cap", "1", "--j-n-cap", "1",
                             "--probe-n-cap", "2", "--dim-cap", "1",
                             "--hom-cap", "2", "--stages", "1",
                             "--out", out_path)
        assert code == 2, err  # stopped by the stage budget
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["trace"]["n_stages"] == 1
        assert doc["trace"]["stopped_by"] == "budget"
        assert doc["locality"] == {
            "value": "no", "reason": "no lift for HorF@1",
            "caps": ["hor_n_cap", "1", "probe_n_cap", "2", "dim_cap", "1"]}


class TestBenchmarkReport:
    """The localize run of the benchmark's fixedpoint workload writes the
    report whose sha256 perfbench/expected.json records."""

    def test_fixedpoint_report_digest(self, tmp_path, monkeypatch, capsys):
        root = DATA.parents[1]
        monkeypatch.chdir(root)
        monkeypatch.delenv("EQLOC_CAPS", raising=False)
        report = tmp_path / "fixedpoint_report.json"
        code, out, err = run(capsys, "localize", "-w",
                             "tests/data/z2_example.json", "-d", "both",
                             "--fixedpointwise-f", "empty-to-point",
                             "--out", str(report))
        assert code == 0, err
        expected = json.loads((root / "perfbench" / "expected.json")
                              .read_text(encoding="utf-8"))["fixedpoint"]
        text = report.read_text(encoding="utf-8")
        assert hashlib.sha256(text.encode()).hexdigest() == expected


# the bad value of each kind, as a flag or EQLOC_CAPS gives it and as a
# spec's JSON gives it
BAD_CAPS = {
    "negative": ("dim_cap", "-1", -1),
    "non-integer": ("dim_cap", "1.5", "1"),
    "unknown-key": ("dimcap", "1", 1),
}


class TestCapChecks:
    """A cap from a flag, EQLOC_CAPS or a spec's "caps" must be a known key
    and an integer >= 0; otherwise the CLI exits 1 naming the cap."""

    @pytest.mark.parametrize("kind", sorted(BAD_CAPS))
    @pytest.mark.parametrize("source", ["flag", "env", "spec"])
    def test_bad_cap_exits_1(self, source, kind, tmp_path, capsys,
                             monkeypatch):
        key, text, value = BAD_CAPS[kind]
        argv = ["localize", "-w", Z2, "-d", "both"]
        if source == "spec":
            doc = {"schema": "eqloc/1", "localization_specs": {
                "S": {"fixedpointwise": "empty-to-point",
                      "caps": {key: value}}}}
            p = tmp_path / "spec.json"
            p.write_text(json.dumps(doc))
            argv += ["-w", str(p), "--spec", "S"]
        else:
            argv += ["--fixedpointwise-f", "empty-to-point"]
            if source == "env":
                monkeypatch.setenv("EQLOC_CAPS", f"{key}={text}")
            else:
                argv += ["--" + key.replace("_", "-"), text]
        code, out, err = run(capsys, *argv)
        assert code == 1
        named = key.replace("_", "-") if source == "flag" else key
        assert named in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("value", [True, -1, 1.0, None, [1]])
    def test_spec_cap_must_be_a_natural(self, value, tmp_path, capsys):
        doc = {"schema": "eqloc/1", "localization_specs": {
            "S": {"fixedpointwise": "empty-to-point",
                  "caps": {"stages": value}}}}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "localize", "-w", Z2, "-w", str(p),
                             "-d", "both", "--spec", "S")
        assert code == 1
        assert "spec 'S': cap 'stages'" in err

    def test_spec_caps_not_an_object(self, tmp_path, capsys):
        doc = {"schema": "eqloc/1", "localization_specs": {
            "S": {"fixedpointwise": "empty-to-point", "caps": [1]}}}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "localize", "-w", Z2, "-w", str(p),
                             "-d", "both", "--spec", "S")
        assert code == 1
        assert "caps is not an object" in err

    def test_zero_caps_are_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("EQLOC_CAPS", "level_cap=0")
        code, out, err = run(capsys, "orbits", "-w", Z2, "-d", "free",
                             "--dim-cap", "0")
        assert code == 0


MALFORMED_SPECS = {
    "not-an-object": 7,
    "generators-not-a-list": {"generators": 5},
    "generator-not-a-name": {"generators": [["swap"]]},
    "fixedpointwise-not-a-name": {"fixedpointwise": ["empty-to-point"]},
    "fixedpointwise-unknown": {"fixedpointwise": "nope"},
    "generator-unknown": {"generators": ["nope"]},
    "neither-generators-nor-fixedpointwise": {"generatorz": ["swap"]},
    "both-generators-and-fixedpointwise": {
        "fixedpointwise": "empty-to-point", "generators": ["nope"]},
}


class TestMalformedSpecs:
    """A localization spec entry of the wrong shape makes localize and
    locality exit 1 with an error line naming the spec, not a traceback."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED_SPECS))
    @pytest.mark.parametrize("command", ["localize", "locality"])
    def test_malformed_spec_exits_1(self, command, kind, tmp_path, capsys):
        doc = {"schema": "eqloc/1",
               "localization_specs": {"S": MALFORMED_SPECS[kind]}}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "-w", Z2, "-w", str(p),
                             "-d", "both", "--spec", "S")
        assert code == 1
        assert err.startswith("error: spec 'S'")
        assert "Traceback" not in out + err

    def test_unknown_flag_map_names_the_flag(self, capsys):
        code, out, err = run(capsys, "locality", "-w", Z2, "-d", "both",
                             "--fixedpointwise-f", "nope")
        assert code == 1
        assert err.startswith("error: --fixedpointwise-f: unknown map 'nope'")

    def test_generators_flag_still_resolves_names(self, capsys):
        code, out, err = run(capsys, "locality", "-w", Z2, "-d", "both",
                             "--generators", "swap,nope")
        assert code == 1
        assert err == "error: --generators: unknown map 'nope'\n"

    def test_flag_of_the_other_mode_is_refused(self, capsys):
        code, out, err = run(capsys, "locality", "-w", Z2, "-d", "both",
                             "--fixedpointwise-f", "empty-to-point",
                             "--generators", "nope")
        assert code == 1
        assert out == ""
        assert err == ("error: --generators and --fixedpointwise-f cannot "
                       "be given together\n")

    def test_flag_beside_a_spec_is_refused(self, tmp_path, capsys):
        doc = {"schema": "eqloc/1", "localization_specs": {
            "V": {"fixedpointwise": "empty-to-point"}}}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "locality", "-w", Z2, "-w", str(p),
                             "-d", "both", "--spec", "V")
        assert code == 0 and out.startswith("locality: no")
        code, out, err = run(capsys, "locality", "-w", Z2, "-w", str(p),
                             "-d", "both", "--spec", "V",
                             "--generators", "nope")
        assert code == 1
        assert out == ""
        assert err == ("error: --spec and --generators cannot be given "
                       "together\n")

    def test_generator_of_another_shape_is_named(self, capsys):
        # empty-to-point lives over the terminal category, both over Z/2
        code, out, err = run(capsys, "localize", "-w", Z2, "-d", "both",
                             "--generators", "empty-to-point")
        assert code == 1
        assert err == ("error: invalid localization generators: "
                       "[('shape-mismatch', 0)]\n")


class TestWorkspace:
    def _diagram_map_doc(self, name, source, component):
        return {"schema": "eqloc/1",
                "maps": {"collapse3": {
                    "source": "three", "target": "three",
                    "assignment": {"p": [[], "p"], "q": [[], "p"],
                                   "c": [[], "c"]}}},
                "diagram_maps": {name: {"source": source, "target": source,
                                        "components": {"*": component}}}}

    def test_diagram_map_entry(self, tmp_path, capsys):
        p = tmp_path / "dm.json"
        p.write_text(json.dumps(
            self._diagram_map_doc("swap-self", "free", "swap")))
        ws = Workspace().load(Z2).load(str(p))
        h = ws.dmap("swap-self")
        assert h.source == h.target == ws.diagram("free")
        assert h.components["*"] == ws.maps["swap"]
        code, out, err = run(capsys, "rlp", "-w", Z2, "-w", str(p),
                             "-i", "swap-self", "-p", "swap-self")
        assert code == 0 and "rlp holds" in out

    def test_non_natural_diagram_map_rejected(self, tmp_path, capsys):
        # p, q -> p does not commute with the swap of p and q
        p = tmp_path / "dm.json"
        p.write_text(json.dumps(
            self._diagram_map_doc("bad", "both", "collapse3")))
        code, out, err = run(capsys, "parse", "-w", Z2, "-w", str(p))
        assert code == 1
        assert err == ("error: diagram map 'bad' invalid: "
                       "[('naturality', 'g1')]\n")

    def test_builtins_present(self):
        ws = Workspace()
        assert "empty-to-point" in ws.maps
        assert "1" in ws.categories

    def test_builtins_never_listed_under_a_shared_name(self, tmp_path,
                                                       capsys):
        # a simplicial set named like the builtin category, and a diagram
        # named like a builtin simplicial set
        p = tmp_path / "collide.json"
        p.write_text(json.dumps({
            "schema": "eqloc/1",
            "simplicial_sets": {"1": {"cells": [["v"]]}},
            "diagrams": {"empty": {"shape": "1", "at": {"*": "1"}}}}))
        out_path = str(tmp_path / "parse.json")
        code, out, err = run(capsys, "parse", "-w", str(p), "--out", out_path)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == (
            "0 categories; 1 simplicial_sets; 0 maps; 1 diagrams; "
            "0 diagram_maps; 0 localization_specs")
        doc = json.loads(pathlib.Path(out_path).read_text())
        assert doc["workspace"] == {
            "categories": [], "simplicial_sets": ["1"], "maps": [],
            "diagrams": ["empty"], "diagram_maps": [],
            "localization_specs": []}

    @pytest.mark.parametrize("section, entry, problem", [
        ("diagrams", {"shape": "Z2", "at": {"*": "two", "zz": "one"},
                      "act": {"g1": "swap"}},
         "diagram 'X' invalid: [('unknown-object', 'zz')]"),
        ("diagrams", {"shape": "Z2", "at": {"*": "two"},
                      "act": {"g1": "swap", "zz": "swap"}},
         "diagram 'X' invalid: [('unknown-arrow', 'zz')]"),
        ("diagrams", {"shape": "Z2", "at": {"*": "two"},
                      "act": {"g1": "swap", "zz": "id"}},
         "diagram 'X' invalid: [('unknown-arrow', 'zz')]"),
        ("diagram_maps", {"source": "free", "target": "free",
                          "components": {"*": "swap", "zz": "swap"}},
         "diagram map 'X' invalid: [('unknown-object', 'zz')]"),
    ], ids=["at-object", "act-arrow", "act-arrow-id", "component-object"])
    def test_stray_entry_rejected(self, tmp_path, capsys, section, entry,
                                  problem):
        p = tmp_path / "stray.json"
        p.write_text(json.dumps({"schema": "eqloc/1", section: {"X": entry}}))
        code, out, err = run(capsys, "parse", "-w", Z2, "-w", str(p))
        assert (code, out, err) == (1, "", f"error: {problem}\n")

    def test_duplicate_name_rejected(self, tmp_path):
        ws = Workspace()
        ws.load(Z2)
        with pytest.raises(DocumentError):
            ws.load(Z2)

    def test_unknown_reference(self, tmp_path):
        doc = {"schema": "eqloc/1",
               "maps": {"f": {"source": "nope", "target": "point",
                              "assignment": {}}}}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DocumentError):
            Workspace().load(str(p))
