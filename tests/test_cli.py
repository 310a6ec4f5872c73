import json
import pathlib

import pytest

from eqloc.cli import main
from eqloc.documents import DocumentError, Workspace

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

    def test_load_doc_rejects_a_list(self):
        with pytest.raises(DocumentError, match="<doc>: the document"):
            Workspace().load_doc([1])


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
    ])
    def test_file_error_exits_1_naming_the_path(self, argv, tmp_path, capsys):
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


class TestWorkspace:
    def test_builtins_present(self):
        ws = Workspace()
        assert "empty-to-point" in ws.maps
        assert "1" in ws.categories

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
