"""Invariant checks in the core modules are explicit and survive python -O."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import eqloc

# one call per explicit check in simplicial, glue and cat, each breaking it
CHECKS = """
from eqloc.cat import identity_dmap, pullback_D, pushout_D
from eqloc.fixtures import free_z2_orbit, trivial_z2_orbit
from eqloc.glue import product, pullback, pushout, quotient
from eqloc.simplicial import (Simplex, apply_operator, boundary, identity_map,
                              nondeg, point, standard_simplex, vertex_image)
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
        identity_map(point()), identity_map(standard_simplex(1)))),
    ("not admissible", lambda: product(point(), point()).locate(
        (Simplex((0, 1), "0"), Simplex((0, 1), "0")))),
    ("common target", lambda: pullback(
        identity_map(point()), identity_map(standard_simplex(1)))),
    ("common source", lambda: pushout_D(
        identity_dmap(free_z2_orbit()), identity_dmap(trivial_z2_orbit()))),
    ("common target", lambda: pullback_D(
        identity_dmap(free_z2_orbit()), identity_dmap(trivial_z2_orbit()))),
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


class TestExplicitChecks:
    @pytest.mark.parametrize("index", range(10))
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
        assert out.stdout.count("ValueError:") == 10, out.stdout


class TestNoAsserts:
    @pytest.mark.parametrize("module", ["simplicial", "glue", "cat"])
    def test_no_assert_statements(self, module):
        """Invariants are checked with explicit raises, which -O keeps."""
        path = pathlib.Path(eqloc.__file__).parent / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], f"assert statements in {module}.py at {lines}"
