"""The four benchmark workloads.

Each workload has a worker side, run in a fresh interpreter per pass:
``setup`` builds or parses the inputs, ``run`` is the timed closed loop (one
operation after another, each timed on its own), ``check`` tests the outputs
outside the timed section.  ``search`` also has a parent side: ``prepare``
draws the instances from the seed once per run and writes them to a file,
and ``verify`` compares the answers with the brute-force oracles.

Why each workload was chosen is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

_clock = time.perf_counter
_cpu = time.process_time


class Outcome:
    """What one pass produced: outputs, per-operation wall and CPU seconds,
    and the number of operations that raised."""

    def __init__(self, outputs, op_wall, op_cpu, failed):
        self.outputs = outputs
        self.op_wall = op_wall
        self.op_cpu = op_cpu
        self.failed = failed


def _single_op(fn, state):
    """A pass made of one operation; an exception fails it."""
    w, c = _clock(), _cpu()
    try:
        outputs, failed = fn(state), 0
    except Exception:  # the failure is counted and reported, not raised
        outputs, failed = None, 1
    return Outcome(outputs, [_clock() - w], [_cpu() - c], failed)


def digest(obj) -> str:
    from eqloc.documents import canonical_json
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# classical: acceptance criterion 1


class Classical:
    ops_per_pass = 1

    def setup(self, inputs):
        from eqloc.cat import terminal_dmap, wrap_smap
        from eqloc.fixtures import interval_plus_point
        from eqloc.simplicial import boundary_inclusion
        from eqloc.soa import Budget, setup_I
        return (terminal_dmap(interval_plus_point()),
                setup_I(Budget(stages=4, n_cap=3, dim_cap=0)),
                [wrap_smap(boundary_inclusion(n)) for n in range(4)])

    def run(self, state):
        from eqloc.soa import rlp_check, small_object_argument

        def op(state):
            f, instr, lefts = state
            r = small_object_argument(f, instr)
            return r, [rlp_check(i, r.delta) for i in lefts]
        return _single_op(op, state)

    def check(self, outputs):
        from eqloc.documents import trace_doc
        r, reps = outputs
        checks = {
            "stabilized_within_4_stages":
                r.stopped_by == "stabilization" and r.n_stages <= 4,
            "rlp_bd_0_to_3": all(rep.holds for rep in reps),
        }
        doc = {"trace": trace_doc(r),
               "rlp": [[rep.holds, rep.n_squares] for rep in reps]}
        return checks, digest(doc)


# ---------------------------------------------------------------------------
# fixedpoint: the localize CLI run on the Z/2 example, criterion 7's caps


class Fixedpoint:
    ops_per_pass = 1
    workspace = "tests/data/z2_example.json"

    def __init__(self, out_dir):
        self.report_path = out_dir / "fixedpoint_report.json"

    def setup(self, inputs):
        from eqloc.cli import main
        argv = ["localize", "-w", self.workspace, "-d", "both",
                "--fixedpointwise-f", "empty-to-point",
                "--out", str(self.report_path)]
        return main, argv

    def run(self, state):
        def op(state):
            main, argv = state
            with contextlib.redirect_stdout(io.StringIO()):
                return main(argv)
        return _single_op(op, state)

    def check(self, outputs):
        text = self.report_path.read_text(encoding="utf-8")
        report = json.loads(text)
        fixed = report.get("fixed_points", [])
        checks = {
            "exit_0": outputs == 0,
            "locality_yes": report["locality"]["value"] == "yes",
            "fixed_points_fibrant_pi0_1": len(fixed) == 2 and all(
                fp["fibrant"] and fp["pi0"] == 1 for fp in fixed),
        }
        return checks, hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# relocalize: criteria 8 and 9 over the fixtures


class Relocalize:
    ops_per_pass = 1

    def setup(self, inputs):
        from eqloc.cat import arrow_category, terminal_category, wrap_smap
        from eqloc.fixtures import (arrow_orbit, empty_to_point_map,
                                    free_z2_orbit, interval_plus_point,
                                    two_points_diagram, z2_category,
                                    z2_two_orbits)
        from eqloc.localization import LocalizationCaps, LocalizationSpec
        from eqloc.simplicial import SimplicialSet
        set_spec = LocalizationSpec(
            terminal_category(),
            generators=[wrap_smap(empty_to_point_map())],
            caps=LocalizationCaps())
        caps9 = LocalizationCaps(hor_n_cap=1, j_n_cap=1, probe_n_cap=1,
                                 dim_cap=1, hom_cap=1, stages=2)

        def fpw(shape):
            return LocalizationSpec(shape, fixedpointwise=empty_to_point_map(),
                                    caps=caps9)
        return [
            ("two_points_diagram", two_points_diagram(), set_spec),
            ("interval_plus_point", interval_plus_point(), set_spec),
            ("z2_two_orbits", z2_two_orbits(), fpw(z2_category())),
            ("free_z2_orbit", free_z2_orbit(), fpw(z2_category())),
            ("arrow_orbit", arrow_orbit(SimplicialSet([["u", "v"]], {})),
             fpw(arrow_category())),
        ]

    def run(self, state):
        from eqloc.cat import terminal_dmap
        from eqloc.localization import (extend_to_local, extension_uniqueness,
                                        localize)

        def op(cases):
            first = {name: localize(X, spec) for name, X, spec in cases}
            again = {name: localize(first[name].local_object, spec)
                     for name, X, spec in cases}
            extensions = {}
            for name, X, spec in cases:
                if spec.mode != "set":
                    continue
                g = terminal_dmap(X)
                extensions[name] = (g, extend_to_local(g, first[name]),
                                    extension_uniqueness(g, first[name]))
            return first, again, extensions
        return _single_op(op, state)

    def check(self, outputs):
        from eqloc.documents import dmap_doc, trace_doc
        first, again, extensions = outputs
        checks = {
            "relocalize_0_stages":
                all(r.trace.n_stages == 0 for r in again.values()),
            "extension_j_h_eq_g":
                len(extensions) == 2 and all(
                    first[name].j.then(h) == g
                    for name, (g, h, _) in extensions.items()),
            "extensions_unique_up_to_homotopy": all(
                len(rep.lifts) >= 1 and rep.all_homotopic
                for _, _, rep in extensions.values()),
        }
        doc = {name: {"trace": trace_doc(r.trace),
                      "locality": r.locality.value,
                      "again_stages": again[name].trace.n_stages}
               for name, r in first.items()}
        for name, (g, h, rep) in extensions.items():
            doc[name]["extension"] = dmap_doc(h)
            doc[name]["lifts"] = len(rep.lifts)
        return checks, digest(doc)


# ---------------------------------------------------------------------------
# search: seeded random instances in the style of criterion 10

SEARCH_INSTANCES = 2000
LARGE_INSTANCES = 128       # targets with tens of cells, at seeded positions
ORACLE_COST_CAP = 250       # brute-force candidates an oracle may try


def _small_sources():
    from eqloc.simplicial import (SimplicialSet, boundary, point,
                                  standard_simplex)
    return [point(), SimplicialSet([["a", "b"]], {}), standard_simplex(1),
            boundary(2)]


def random_complex(rng: random.Random):
    """A random 2-dimensional complex of about 12 to 30 cells, built
    directly from vertices, edges and triangles (gluing it cell by cell
    through pushouts would make generation dominate the run)."""
    from eqloc.simplicial import SimplicialSet, validate
    verts = [f"v{i}" for i in range(rng.randint(4, 7))]
    ends = {}
    faces = {}

    def add_edge(a, b):
        name = f"e{len(ends)}"
        ends[name] = (a, b)
        faces[name] = (((), b), ((), a))
        return name

    for _ in range(rng.randint(8, 16)):
        add_edge(rng.choice(verts), rng.choice(verts))
    triangles = []
    for _ in range(rng.randint(0, 5)):
        e01 = rng.choice(sorted(ends))
        x, y = ends[e01]
        outs = sorted(e for e, (a, _) in ends.items() if a == y)
        e12 = rng.choice(outs) if outs else add_edge(y, rng.choice(verts))
        z = ends[e12][1]
        closing = sorted(e for e, (a, b) in ends.items() if (a, b) == (x, z))
        e02 = rng.choice(closing) if closing else add_edge(x, z)
        name = f"t{len(triangles)}"
        triangles.append(name)
        faces[name] = (((), e12), ((), e02), ((), e01))
    levels = [verts, sorted(ends, key=lambda e: int(e[1:]))]
    if triangles:
        levels.append(triangles)
    X = SimplicialSet(levels, faces)
    problems = validate(X)
    if problems:
        raise RuntimeError(f"generator built an invalid complex: {problems}")
    return X


def _hom_key(maps) -> str:
    """Order-free fingerprint of a set of simplicial maps."""
    rows = sorted(tuple(sorted((c, s.word, s.cell)
                               for c, s in m.assignment.items()))
                  for m in maps)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _smap_doc(f):
    return {c: [list(s.word), s.cell] for c, s in sorted(f.assignment.items())}


class Search:
    ops_per_pass = SEARCH_INSTANCES

    def __init__(self, out_dir):
        self.out_dir = out_dir

    # -- parent side ---------------------------------------------------------

    def prepare(self, seed):
        """Draw the instances for this seed and write them to a file."""
        from oracles import random_collapse_map, random_sset
        from eqloc.documents import sset_doc
        rng = random.Random(seed)
        large = rng.sample(range(SEARCH_INSTANCES), LARGE_INSTANCES)
        # Large targets cycle through the four sources against horns of
        # dimension 1.  Dimension-2 horns on them have so heavy a cost tail
        # that a few draws moved wall_s by a third between seeds (measured).
        schedule = {t: (j % 4, 1) for j, t in enumerate(large)}
        self.instances = []
        docs = []
        for t in range(SEARCH_INSTANCES):
            if t in schedule:
                X = random_complex(rng)
                src, n = schedule[t]
            else:
                X = random_sset(rng, max_cells=10)
                src, n = rng.randrange(4), rng.choice([1, 1, 2])
            p = random_collapse_map(rng, X)
            k = rng.randint(0, n)
            self.instances.append((X, src, p, n, k))
            docs.append({"X": sset_doc(X), "src": src,
                         "Y": sset_doc(p.target), "p": _smap_doc(p),
                         "n": n, "k": k})
        path = self.out_dir / "search_inputs.json"
        path.write_text(json.dumps(docs), encoding="utf-8")
        return path

    def verify(self, answers):
        """Compare one pass's answers with the brute-force oracles, on every
        instance whose oracle stays under ORACLE_COST_CAP candidates.

        Returns (per-instance ok list, counts of oracle checks, seconds).
        """
        from oracles import naive_hom, pi0_oracle, rlp_oracle
        from eqloc.simplicial import horn, horn_inclusion, standard_simplex
        start = _clock()
        sources = _small_sources()
        ok = []
        counts = {"pi0": 0, "hom": 0, "rlp": 0}
        for (X, src, p, n, k), ans in zip(self.instances, answers):
            if ans is None:
                ok.append(False)
                continue
            comps, hom_n, hom_key, holds = ans
            good = comps == pi0_oracle(X)
            counts["pi0"] += 1
            S = sources[src]
            if _brute_cost(S, X) <= ORACLE_COST_CAP:
                slow = naive_hom(S, X)
                good = good and hom_n == len(slow) and hom_key == _hom_key(slow)
                counts["hom"] += 1
            B, A, Y = standard_simplex(n), horn(n, k), p.target
            cost = (_brute_cost(B, X)
                    + _brute_cost(A, X) * (1 + _brute_cost(B, Y)))
            if cost <= ORACLE_COST_CAP:
                good = good and holds == rlp_oracle(horn_inclusion(n, k), p)
                counts["rlp"] += 1
            ok.append(good)
        return ok, counts, _clock() - start

    # -- worker side ---------------------------------------------------------

    def setup(self, inputs):
        from eqloc.documents import sset_from_doc
        from eqloc.simplicial import Simplex, SimplicialMap
        sources = _small_sources()
        state = []
        for doc in json.loads(inputs.read_text(encoding="utf-8")):
            X, Y = sset_from_doc(doc["X"]), sset_from_doc(doc["Y"])
            p = SimplicialMap(X, Y, {c: Simplex(tuple(w), cell)
                                     for c, (w, cell) in doc["p"].items()})
            state.append((X, sources[doc["src"]], p, doc["n"], doc["k"]))
        return state

    def run(self, state):
        from eqloc.cat import wrap_smap
        from eqloc.homotopy import pi0
        from eqloc.simplicial import hom_set, horn_inclusion
        from eqloc.soa import rlp_check
        answers, op_wall, op_cpu, failed = [], [], [], 0
        for X, src, p, n, k in state:
            w, c = _clock(), _cpu()
            try:
                comps = len(pi0(X))
                maps = hom_set(src, X)
                holds = rlp_check(wrap_smap(horn_inclusion(n, k)),
                                  wrap_smap(p)).holds
            except Exception:  # counted as a failed instance
                maps = None
            op_wall.append(_clock() - w)
            op_cpu.append(_cpu() - c)
            if maps is None:
                answers.append(None)
                failed += 1
            else:
                # fingerprinted between operations, outside their timings
                answers.append((comps, len(maps), _hom_key(maps), holds))
        return Outcome(answers, op_wall, op_cpu, failed)

    def check(self, outputs):
        # the answers themselves go to the parent, which compares them with
        # the oracles and with the other passes
        return {"all_instances_answered": None not in outputs}, None


def _brute_cost(S, X):
    """Candidates the filtered-product oracle enumerates for hom(S, X)."""
    cost = 1
    for level_dim, level in enumerate(S.levels):
        cost *= len(X.simplices(level_dim)) ** len(level)
    return cost


def make(name, out_dir):
    return {"classical": Classical,
            "fixedpoint": lambda: Fixedpoint(out_dir),
            "search": lambda: Search(out_dir),
            "relocalize": Relocalize}[name]()


WORKLOADS = ("classical", "fixedpoint", "search", "relocalize")
