"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Checks that tracing changes no output, that every wrapped attribute is
restored afterwards (so untraced passes measure unpatched code), that the
span arithmetic is right on a toy call tree, and that BENCHMARK.json names
exactly the metrics the harness reports.
"""

import itertools
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def _toy_module():
    """top -> mid x2 -> leaf x2 each; leaf returns a cached object per key;
    rec recurses into itself; tick is only counted."""
    mod = types.ModuleType("toy")
    src = '''
_cache = {}
def tick():
    return None
def leaf(x):
    tick()
    return _cache.setdefault(x, object())
def mid(x):
    leaf(x)
    leaf(x)
    return x
def top():
    mid(1)
    mid(2)
def rec(n):
    return rec(n - 1) if n else 0
'''
    exec(compile(src, "toy", "exec"), mod.__dict__)
    return mod


def _toy_tracer(mod):
    ticks = itertools.count()
    return Tracer([Target("toy.top", "toy", "top"),
                   Target("toy.mid", "toy", "mid"),
                   Target("toy.leaf", "toy", "leaf", repeat=True),
                   Target("toy.rec", "toy", "rec"),
                   Target("toy.tick", "toy", "tick", timed=False)],
                  module_prefix="toy", clock=lambda: next(ticks))


def test_self_time_and_repeat_ratio_on_toy_tree(monkeypatch):
    mod = _toy_module()
    monkeypatch.setitem(sys.modules, "toy", mod)
    tracer = _toy_tracer(mod)
    with tracer:
        mod.top()
    # clock ticks: top 0..13, mid 1..6 and 7..12, leaves 2..3, 4..5, 8..9,
    # 10..11
    sums = tracer.layer_sums()
    assert sums["toy.top"] == {"calls": 1, "self_s": 3, "total_s": 13}
    assert sums["toy.mid"] == {"calls": 2, "self_s": 6, "total_s": 10}
    assert sums["toy.leaf"] == {"calls": 4, "self_s": 4, "total_s": 4,
                                "repeat_ratio": 0.5}
    assert sums["toy.tick"] == {"calls": 4}
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0, 4, 4]


def test_recursive_total_is_not_double_counted(monkeypatch):
    mod = _toy_module()
    monkeypatch.setitem(sys.modules, "toy", mod)
    tracer = _toy_tracer(mod)
    with tracer:
        mod.rec(2)
    # rec(2) 0..5 > rec(1) 1..4 > rec(0) 2..3
    row = tracer.layer_sums()["toy.rec"]
    assert row["calls"] == 3
    assert row["total_s"] == 5
    assert row["self_s"] == 5


def _bindings():
    """Every module global and class attribute of the library, by identity."""
    import eqloc.cli  # noqa: F401  (imports every module of the package)
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not (name == "eqloc" or name.startswith("eqloc.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_every_wrapped_attribute_is_restored():
    from eqloc.simplicial import hom_set, point
    before = _bindings()
    tracer = Tracer(layers.TARGETS).install()
    try:
        patched = {k for k, v in _bindings().items() if before[k] is not v}
        hom_set(point(), point())
    finally:
        tracer.uninstall()
    # every target is wrapped, including re-exports of the same function
    assert len(patched) > len(layers.TARGETS)
    assert ("eqloc.soa", "Instrumentation", "assign") in patched
    assert ("eqloc.soa", "enumerate_maps") in patched
    assert tracer.layer_sums()["simplicial.enumerate_maps"]["calls"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_passes_give_identical_outputs():
    run.OUT_DIR.mkdir(exist_ok=True)
    expected = json.loads((BENCH / "expected.json").read_text())
    plain = run.spawn("relocalize", 0, None, seed=7, budget_s=120)
    traced = run.spawn("relocalize", 1, None, seed=7, budget_s=120)
    assert plain is not None and traced is not None
    assert all(plain["checks"].values()) and all(traced["checks"].values())
    assert plain["digest"] == traced["digest"] == expected["relocalize"]
    assert "layers" in traced and "layers" not in plain
    assert traced["layers"]["localization.localize.total_s"] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
