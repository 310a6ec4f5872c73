"""Invariant checks in the core modules are explicit and survive python -O."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import eqloc

# one call per explicit check, each breaking it: first the checks in
# simplicial, glue and cat, then the checks on public inputs in orbits,
# localization and homotopy
CHECKS = """
from eqloc.cat import (colim, identity_dmap, pullback_D, pushout_D,
                       terminal_category, wrap_smap, wrap_sset)
from eqloc.fixtures import (empty_to_point_map, free_z2_orbit,
                            trivial_z2_orbit, two_points_diagram)
from eqloc.glue import product, pullback, pushout, quotient
from eqloc.homotopy import properness_probe
from eqloc.localization import (LocalizationSpec, extend_to_local, localize,
                                simplicially_homotopic)
from eqloc.orbits import OrbitMap, orbit_naturality, orbit_setup
from eqloc.simplicial import (Simplex, apply_operator, boundary, identity_map,
                              nondeg, point, standard_simplex, vertex_image)
FREE, TRIVIAL = identity_dmap(free_z2_orbit()), identity_dmap(trivial_z2_orbit())
EDGE = wrap_sset(standard_simplex(1))
EMPTY_TO_POINT = LocalizationSpec(terminal_category(),
                                  generators=[wrap_smap(empty_to_point_map())])
CHECKS = [
    ("not monotone", lambda: apply_operator(
        standard_simplex(2), nondeg("0.1.2"), [1, 0])),
    ("leave", lambda: apply_operator(
        standard_simplex(1), nondeg("0.1"), [0, 2])),
    ("not monotone", lambda: vertex_image(standard_simplex(2), [2, 1])),
    ("no cell '0.1.2'", lambda: vertex_image(boundary(2), [0, 1, 2])),
    ("pair dimensions differ", lambda: quotient(
        standard_simplex(1), [(nondeg("0"), nondeg("0.1"))])),
    ("common source", lambda: pushout(
        [(identity_map(point()), identity_map(standard_simplex(1)))])),
    ("all into one space", lambda: pushout(
        [(identity_map(point()), identity_map(point())),
         (identity_map(standard_simplex(1)), identity_map(standard_simplex(1)))])),
    ("not admissible", lambda: product(point(), point()).locate(
        (Simplex((0, 1), "0"), Simplex((0, 1), "0")))),
    ("common target", lambda: pullback(
        identity_map(point()), identity_map(standard_simplex(1)))),
    ("common source", lambda: pushout_D(
        [(identity_dmap(free_z2_orbit()), identity_dmap(trivial_z2_orbit()))])),
    ("all into one diagram", lambda: pushout_D(
        [(identity_dmap(free_z2_orbit()), identity_dmap(free_z2_orbit())),
         (identity_dmap(trivial_z2_orbit()),
          identity_dmap(trivial_z2_orbit()))])),
    ("common target", lambda: pullback_D(
        identity_dmap(free_z2_orbit()), identity_dmap(trivial_z2_orbit()))),
    ("orbit of the source", lambda: orbit_naturality(
        TRIVIAL, orbit_setup(free_z2_orbit())[0])),
    ("no orbit of the target", lambda: orbit_naturality(
        identity_dmap(EDGE),
        OrbitMap(orbit=EDGE, into=identity_dmap(EDGE),
                 witness=colim(EDGE).space.cells(1)[0]))),
    ("out of the source of j", lambda: extend_to_local(
        identity_dmap(wrap_sset(point())),
        localize(two_points_diagram(), EMPTY_TO_POINT))),
    ("parallel maps", lambda: simplicially_homotopic(FREE, TRIVIAL)),
    ("common source", lambda: properness_probe(
        "left", FREE, TRIVIAL, None, 1, 1)),
    ("common target", lambda: properness_probe(
        "right", FREE, TRIVIAL, None, 1, 1)),
]
"""

RUN_CHECKS = CHECKS + """
for _, check in CHECKS:
    try:
        check()
    except ValueError as e:
        print("ValueError:", e)
"""


def _checks():
    scope = {}
    exec(CHECKS, scope)
    return scope["CHECKS"]


N_CHECKS = len(_checks())


class TestExplicitChecks:
    @pytest.mark.parametrize("index", range(N_CHECKS))
    def test_check_raises_named_value_error(self, index):
        message, check = _checks()[index]
        with pytest.raises(ValueError, match=message):
            check()

    def test_checks_survive_optimize(self):
        """python -O strips asserts; these checks must still run."""
        src = os.path.dirname(os.path.dirname(eqloc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", RUN_CHECKS],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("ValueError:") == N_CHECKS, out.stdout


MODULES = sorted(p.stem for p in
                 pathlib.Path(eqloc.__file__).parent.glob("*.py"))


# stdlib modules that would pull the inspect/ast/dis/tokenize chain into
# every process that imports eqloc
HEAVY_IMPORTS = ("dataclasses", "inspect", "ast")


def _tree(module):
    path = pathlib.Path(eqloc.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


class TestNoAsserts:
    @pytest.mark.parametrize("module", MODULES)
    def test_no_assert_statements(self, module):
        """Invariants are checked with explicit raises, which -O keeps."""
        lines = [n.lineno for n in ast.walk(_tree(module))
                 if isinstance(n, ast.Assert)]
        assert lines == [], f"assert statements in {module}.py at {lines}"

    @pytest.mark.parametrize("module", MODULES)
    def test_no_self_referencing_nested_functions(self, module):
        """A nested function that names itself holds its own closure cell,
        so it and everything it closes over stay alive as cyclic garbage
        until the cycle collector runs; searches keep an explicit stack."""
        found = set()
        for outer in ast.walk(_tree(module)):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name
                       for n in ast.walk(inner)):
                    found.add((inner.name, inner.lineno))
        assert found == set(), (
            f"self-referencing nested defs in {module}.py: {sorted(found)}")

    @pytest.mark.parametrize("module", MODULES)
    def test_no_heavy_imports(self, module):
        """eqloc keeps dataclasses, inspect and ast out of its imports."""
        found = []
        for n in ast.walk(_tree(module)):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                names = [n.module]
            else:
                continue
            found += [(name, n.lineno) for name in names
                      if name.split(".")[0] in HEAVY_IMPORTS]
        assert found == [], f"imports in {module}.py: {found}"

    @pytest.mark.parametrize("module", MODULES)
    def test_imports_at_module_level(self, module):
        """Every import sits at the top of its module: no function imports
        lazily (there are no import cycles to break)."""
        found = []
        for fn in ast.walk(_tree(module)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [n.lineno for n in ast.walk(fn)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert found == [], f"imports inside functions of {module}.py " \
            f"at lines {sorted(set(found))}"

    @pytest.mark.parametrize("module", MODULES)
    def test_no_module_level_empty_containers(self, module):
        """Memos go through functools.cache, not hand-rolled module dicts:
        no module-level name is bound to an empty {}, [] or set()."""
        def empty(v):
            return (isinstance(v, ast.Dict) and not v.keys
                    or isinstance(v, ast.List) and not v.elts
                    or isinstance(v, ast.Call) and not v.args
                    and not v.keywords and isinstance(v.func, ast.Name)
                    and v.func.id in ("dict", "list", "set"))
        found = []
        for n in _tree(module).body:
            if isinstance(n, ast.Assign) and empty(n.value):
                found += [t.id for t in n.targets if isinstance(t, ast.Name)]
            elif isinstance(n, ast.AnnAssign) and n.value is not None \
                    and empty(n.value) and isinstance(n.target, ast.Name):
                found.append(n.target.id)
        assert found == [], f"module-level empty containers in " \
            f"{module}.py: {found}"



def _names(tree):
    """Every identifier a module mentions: names, attributes and imports."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


class TestOnePinnedSearch:
    """Every lifting and extension problem goes through soa.extensions, the
    one place that pins cells by word division and hands hom_D its pools."""

    def test_only_soa_names_divide_word(self):
        found = [m for m in MODULES if m not in ("simplicial", "soa")
                 and "divide_word" in _names(_tree(m))]
        assert found == [], f"divide_word named in {found}"

    def test_only_extensions_passes_component_pool(self):
        found = []
        for module in MODULES:
            tree = _tree(module)
            # ast.walk is breadth-first, so the innermost def wins
            owner = {id(n): fn.name for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for n in ast.walk(fn)}
            found += [(module, owner.get(id(n)))
                      for n in ast.walk(tree) if isinstance(n, ast.Call)
                      and any(k.arg == "component_pool" for k in n.keywords)]
        assert found == [("soa", "extensions")], found


class TestOnePullbackHomFamily:
    """The orbit setups of I, J and Hor(F) are members of one family class,
    soa.PullbackHomFamily, the one place that turns orbits of W into
    squares and transports them."""

    def test_only_the_family_calls_orbit_setup_and_naturality(self):
        found = set()
        for module in MODULES:
            if module == "orbits":
                continue
            tree = _tree(module)
            # ast.walk is breadth-first, so the innermost class wins
            owner = {id(n): c.name for c in ast.walk(tree)
                     if isinstance(c, ast.ClassDef) for n in ast.walk(c)}
            found |= {(module, owner.get(id(n))) for n in ast.walk(tree)
                      if isinstance(n, ast.Call)
                      and {"orbit_setup", "orbit_naturality"}
                      & set(_names(n.func))}
        assert found == {("soa", "PullbackHomFamily")}, found

    def test_localization_defines_no_setup_family(self):
        found = [c.name for c in ast.walk(_tree("localization"))
                 if isinstance(c, ast.ClassDef)
                 and any(isinstance(f, ast.FunctionDef)
                         and f.name in ("assign", "transport")
                         for f in c.body)]
        assert found == [], found


class TestOneSetupType:
    """soa.Instrumentation is a union of named families: a square reaches
    its family by the name in meta[0], never by parsing its member_id, and
    every assign and transport is a method of a setup class."""

    def test_no_member_id_prefix_tests(self):
        found = []
        for module in MODULES:
            found += [(module, n.lineno) for n in ast.walk(_tree(module))
                      if isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr == "startswith"
                      and "member_id" in _names(n.func.value)]
        assert found == [], f"startswith on a member_id at {found}"

    def test_assign_and_transport_are_methods(self):
        tree = _tree("soa")
        methods = {id(f) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for f in c.body}
        found = [f.lineno for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)
                 and f.name in ("assign", "transport")
                 and id(f) not in methods]
        assert found == [], f"assign/transport outside a class at {found}"


def _callers(name):
    """(module, innermost enclosing def) of every call of a function or
    method named `name`: `name(...)` or `x.name(...)`, not `name.m(...)`."""
    found = set()
    for module in MODULES:
        tree = _tree(module)
        # ast.walk is breadth-first, so the innermost def wins
        owner = {id(n): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for n in ast.walk(fn)}
        found |= {(module, owner.get(id(n))) for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and name == getattr(
                      n.func, "id", getattr(n.func, "attr", None))}
    return found


class TestOneMechanismPerConcept:
    """Normal forms of levelwise elements come from glue.normal_form_complex,
    components from glue.UnionFind, the worst verdict over a family of
    weak-equivalence probes from homotopy.weq_probe_all, every horn or
    sphere or corner lifting question of a simplicial map from soa.lifts,
    every isomorphism of diagrams from orbits.isomorphisms, the commutative
    squares of a member from soa.extensions, the cap of an orbit setup
    from one groupoid test in each of its two builders, the reading of
    hom(T, -) as fixed points from one groupoid test in each of its three
    callers (the fill test soa.first_unlifted, the fixed-point report and
    the equivariant probes' hom(T, f)), and every list of
    orbits up to isomorphism from one first-copy dedup in orbits, the
    cells of a stage from one n-ary pushout of its squares' spans, and every
    pushout and colimit from one glued space, glue.Glued."""

    def test_one_normal_form_extractor(self):
        assert _callers("normal_form_complex") == {
            ("cat", "complex_from_levels"), ("glue", "quotient")}

    def test_components_by_union_find(self):
        assert _callers("UnionFind") == {
            ("glue", "quotient"), ("homotopy", "pi0"), ("homotopy", "pi_n")}

    def test_one_probe_loop(self):
        assert _callers("sset_weq_probe") == {
            ("homotopy", "weq_probe_all"),
            ("localization", "fixed_point_locality_report")}
        assert _callers("weq_probe_all") == {
            ("homotopy", "is_weq_equivariant"),
            ("localization", "is_S_equivalence")}

    def test_one_fill_test(self):
        # lifts looks its candidates up through its helper `candidates`
        assert _callers("_fillers") == {
            ("soa", "candidates"), ("soa", "sphere_simplices")}
        assert _callers("lifts") == {
            ("soa", "first_unlifted"), ("homotopy", "is_kan"),
            ("homotopy", "is_fibration_equivariant")}
        # outside the hom search, only the filler lookup reads the index
        assert {c for c in _callers("_boundary_index")
                if c[0] != "simplicial"} == {("soa", "_fillers")}

    def test_one_isomorphism_scan(self):
        assert _callers("isomorphisms") == {
            ("orbits", "diagram_isomorphic"),
            ("localization", "arrow_isomorphic")}

    def test_squares_by_pinned_extension(self):
        assert ("soa", "commutative_squares") in _callers("extensions")

    def test_one_groupoid_cap_choice(self):
        assert _callers("is_groupoid") == {
            ("soa", "_cap"), ("orbits", "_level_orbits"),
            ("homotopy", "_orbit_hom_post"), ("soa", "first_unlifted"),
            ("localization", "fixed_point_locality_report")}
        # in PullbackHomFamily only the cap choice reads self.dim_cap
        family = next(c for c in ast.walk(_tree("soa"))
                      if isinstance(c, ast.ClassDef)
                      and c.name == "PullbackHomFamily")
        readers = {fn.name for fn in family.body
                   if isinstance(fn, ast.FunctionDef)
                   for n in ast.walk(fn)
                   if isinstance(n, ast.Attribute) and n.attr == "dim_cap"
                   and isinstance(n.ctx, ast.Load)
                   and getattr(n.value, "id", None) == "self"}
        assert readers == {"_cap"}

    def test_one_orbit_dedup(self):
        assert _callers("diagram_isomorphic") == {("orbits", "_first_copies")}
        assert _callers("_first_copies") == {
            ("orbits", "orbit_category_of"), ("orbits", "orbits_of")}

    def test_one_pushout_per_stage(self):
        """Inside soa, pushout_D is called only by small_object_argument,
        one pushout of every attached square's span, and by
        PullbackHomFamily._pushout; soa builds no coproduct."""
        calls = {(name, owner) for name in ("pushout_D", "coproduct_D")
                 for module, owner in _callers(name) if module == "soa"}
        assert calls == {("pushout_D", "small_object_argument"),
                         ("pushout_D", "_pushout")}

    def test_no_coproduct_of_tops(self):
        """Stages keep no coproduct of tops and nothing copairs out of one:
        every map out of a pushout goes through its legs."""
        gone = {"copairing", "tops_coproduct", "_coproduct_arrow",
                "from_left", "from_right"}
        found = {(module, name) for module in MODULES
                 for tree in [_tree(module)]
                 for name in {*_names(tree), *(
                     n.name for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef)))}
                 if name in gone}
        assert found == set(), found

    def test_one_glued_space(self):
        """Only glue.Glued quotients a coproduct, and cat, whose colimits
        are glued spaces, calls no quotient itself."""
        assert _callers("quotient") == {("glue", "__init__")}
        glued = next(c for c in ast.walk(_tree("glue"))
                     if isinstance(c, ast.ClassDef) and c.name == "Glued")
        assert any(isinstance(n, ast.Call)
                   and getattr(n.func, "id", None) == "quotient"
                   for n in ast.walk(glued))
        assert "quotient" not in set(_names(_tree("cat")))

    def test_no_second_glued_type(self):
        """No module keeps a colimit holder, a free mediator or a sum of maps
        between coproducts beside the glued space and Coproduct.mediate."""
        found = {(module, n.name) for module in MODULES
                 for n in _tree(module).body
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                 and n.name in {"Colim", "Pushout", "coproduct_map",
                                "mediate"}}
        assert found == set(), found

    def test_probes_take_orbit_lists(self):
        """The probes walk a sequence of orbits; none builds or reads an
        orbit category."""
        imported = {(module, alias.name)
                    for module in ("homotopy", "localization")
                    for n in ast.walk(_tree(module))
                    if isinstance(n, ast.ImportFrom) and n.module == "orbits"
                    for alias in n.names}
        assert imported == {("localization", "isomorphisms")}


class TestModuleBoundaries:
    """A module reaches another's helpers only through its public names, and
    the coproduct naming scheme "<k>:<cell>" lives in glue alone."""

    def test_no_private_names_imported_across_modules(self):
        found = [(module, alias.name) for module in MODULES
                 for n in ast.walk(_tree(module))
                 if isinstance(n, ast.ImportFrom) and (
                     n.level > 0 or (n.module or "").startswith("eqloc"))
                 for alias in n.names if alias.name.startswith("_")]
        assert found == [], f"private names imported: {found}"

    def test_coproduct_cell_names_only_in_glue(self):
        def pair(n):
            return (isinstance(n, ast.JoinedStr) and len(n.values) == 3
                    and isinstance(n.values[0], ast.FormattedValue)
                    and isinstance(n.values[1], ast.Constant)
                    and n.values[1].value == ":"
                    and isinstance(n.values[2], ast.FormattedValue))
        found = {module for module in MODULES
                 if any(pair(n) for n in ast.walk(_tree(module)))}
        assert found == {"glue"}


def test_import_loads_no_heavy_stdlib_modules():
    """A fresh interpreter importing eqloc and its CLI loads none of the
    inspect chain (dataclasses, inspect, ast, dis)."""
    src = os.path.dirname(os.path.dirname(eqloc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, eqloc, eqloc.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
