"""The library functions the traced run wraps, and the per-layer metrics
computed from its spans.

Each name is ``<module>.<function>`` as the layer is called from outside.
The word-algebra functions and ``SimplicialMap`` construction are counted,
not timed: they run about a million times on ``classical``.
"""

from __future__ import annotations

from tracer import Target

STAGES = 4
STAGE_FIELDS = ("assign_s", "lift_s", "squares", "attached", "cells")


def _cells(diagram):
    return sum(diagram.at[d].n_nondegenerate() for d in diagram.shape.objects)


def _count_len(name, counter):
    def post(tr, span, args, result, new):
        tr.add(name, counter, len(result))
    return post


def _cotensor_cells(tr, span, args, result, new):
    tr.add("cat.cotensor", "cells", _cells(result.diagram) if new else 0)


def _orbits(tr, span, args, result, new):
    tr.add("orbits.orbit_setup", "orbits", len(result) if new else 0)


def _found(tr, span, args, result, new):
    hit = bool(result) if isinstance(result, list) else result is not None
    tr.add("soa.find_lift", "found", int(hit))


def _squares(tr, span, args, result, new):
    tr.add("soa.rlp_check", "squares", result.n_squares)


def _assign(tr, span, args, result, new):
    # Instrumentation.assign(self, arrow): the squares and the cells of Z_k
    tr.span_info[span] = (len(result), _cells(args[1].source))


def _soa(tr, span, args, result, new):
    tr.span_info[span] = [len(stage.attached) for stage in result.stages]


TARGETS = [
    Target("simplicial.enumerate_maps", "eqloc.simplicial", "enumerate_maps",
           post=_count_len("simplicial.enumerate_maps", "maps"),
           counters=("maps",)),
    Target("simplicial.SimplicialMap", "eqloc.simplicial",
           "SimplicialMap.__init__", timed=False),
    Target("simplicial.SimplicialMap.then", "eqloc.simplicial",
           "SimplicialMap.then"),
    Target("simplicial.compose_words", "eqloc.simplicial", "compose_words",
           timed=False),
    Target("simplicial.word_face", "eqloc.simplicial", "word_face",
           timed=False),
    Target("glue.tuple_complex", "eqloc.glue", "tuple_complex", repeat=True),
    Target("glue.pushout", "eqloc.glue", "pushout"),
    Target("cat.cotensor", "eqloc.cat", "cotensor", repeat=True,
           post=_cotensor_cells, counters=("cells",)),
    Target("cat.hom_complex", "eqloc.cat", "hom_complex", repeat=True),
    Target("cat.adjoint_to_tensor", "eqloc.cat", "adjoint_to_tensor"),
    Target("cat.cotensor_map", "eqloc.cat", "cotensor_map"),
    Target("cat.cotensor_restriction", "eqloc.cat", "cotensor_restriction"),
    Target("cat.hom_D", "eqloc.cat", "hom_D",
           post=_count_len("cat.hom_D", "maps"), counters=("maps",)),
    Target("cat.pushout_D", "eqloc.cat", "pushout_D"),
    Target("cat.pullback_D", "eqloc.cat", "pullback_D"),
    Target("cat.limit_D", "eqloc.cat", "limit_D"),
    Target("orbits.orbit_setup", "eqloc.orbits", "orbit_setup", repeat=True,
           post=_orbits, counters=("orbits",)),
    Target("soa.small_object_argument", "eqloc.soa", "small_object_argument",
           post=_soa),
    Target("soa.assign", "eqloc.soa", "Instrumentation.assign", post=_assign),
    Target("soa.find_lift", "eqloc.soa", "find_lift", post=_found,
           counters=("found",)),
    Target("soa.rlp_check", "eqloc.soa", "rlp_check", post=_squares,
           counters=("squares",)),
    Target("homotopy.pi0", "eqloc.homotopy", "pi0"),
    Target("homotopy.is_kan", "eqloc.homotopy", "is_kan"),
    Target("localization.localize", "eqloc.localization", "localize"),
    Target("localization.is_S_local", "eqloc.localization", "is_S_local"),
    Target("localization.fixed_point_locality_report", "eqloc.localization",
           "fixed_point_locality_report"),
    Target("localization.extension_uniqueness", "eqloc.localization",
           "extension_uniqueness"),
    Target("documents.Workspace.load", "eqloc.documents", "Workspace.load"),
    Target("documents.write_report", "eqloc.documents", "write_report"),
]

# (metric, unit, better); the metric is <target>.<field> of layer_sums,
# except the stage metrics and the renamed constructor count
PER_LAYER = [
    ("simplicial.enumerate_maps.calls", "count", "lower"),
    ("simplicial.enumerate_maps.self_s", "s", "lower"),
    ("simplicial.enumerate_maps.maps", "count", "lower"),
    ("simplicial.SimplicialMap.built", "count", "lower"),
    ("simplicial.SimplicialMap.then.calls", "count", "lower"),
    ("simplicial.SimplicialMap.then.self_s", "s", "lower"),
    ("simplicial.compose_words.calls", "count", "lower"),
    ("simplicial.word_face.calls", "count", "lower"),
    ("glue.tuple_complex.calls", "count", "lower"),
    ("glue.tuple_complex.self_s", "s", "lower"),
    ("glue.tuple_complex.repeat_ratio", "ratio", "higher"),
    ("glue.pushout.calls", "count", "lower"),
    ("glue.pushout.self_s", "s", "lower"),
    ("cat.cotensor.calls", "count", "lower"),
    ("cat.cotensor.self_s", "s", "lower"),
    ("cat.cotensor.repeat_ratio", "ratio", "higher"),
    ("cat.cotensor.cells", "count", "lower"),
    ("cat.hom_complex.calls", "count", "lower"),
    ("cat.hom_complex.self_s", "s", "lower"),
    ("cat.hom_complex.repeat_ratio", "ratio", "higher"),
    ("cat.adjoint_to_tensor.calls", "count", "lower"),
    ("cat.adjoint_to_tensor.self_s", "s", "lower"),
    ("cat.adjoint_to_tensor.total_s", "s", "lower"),
    ("cat.cotensor_map.self_s", "s", "lower"),
    ("cat.cotensor_restriction.self_s", "s", "lower"),
    ("cat.hom_D.calls", "count", "lower"),
    ("cat.hom_D.self_s", "s", "lower"),
    ("cat.hom_D.maps", "count", "lower"),
    ("cat.pushout_D.self_s", "s", "lower"),
    ("cat.pullback_D.self_s", "s", "lower"),
    ("cat.limit_D.self_s", "s", "lower"),
    ("orbits.orbit_setup.calls", "count", "lower"),
    ("orbits.orbit_setup.self_s", "s", "lower"),
    ("orbits.orbit_setup.orbits", "count", "lower"),
    ("orbits.orbit_setup.repeat_ratio", "ratio", "higher"),
    ("soa.small_object_argument.total_s", "s", "lower"),
    ("soa.assign.calls", "count", "lower"),
    ("soa.assign.self_s", "s", "lower"),
    ("soa.find_lift.calls", "count", "lower"),
    ("soa.find_lift.self_s", "s", "lower"),
    ("soa.find_lift.found", "count", "higher"),
    ("soa.rlp_check.calls", "count", "lower"),
    ("soa.rlp_check.squares", "count", "lower"),
] + [
    (f"soa.stage{k}.{field}", "s" if field.endswith("_s") else "count",
     "lower")
    for k in range(1, STAGES + 1) for field in STAGE_FIELDS
] + [
    ("homotopy.pi0.calls", "count", "lower"),
    ("homotopy.pi0.self_s", "s", "lower"),
    ("homotopy.is_kan.calls", "count", "lower"),
    ("homotopy.is_kan.self_s", "s", "lower"),
    ("localization.localize.total_s", "s", "lower"),
    ("localization.is_S_local.total_s", "s", "lower"),
    ("localization.fixed_point_locality_report.total_s", "s", "lower"),
    ("localization.extension_uniqueness.total_s", "s", "lower"),
    ("documents.Workspace.load.total_s", "s", "lower"),
    ("documents.write_report.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    # the untraced passes of the same run, as in run.py's TIMES
    ("run.wall_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("run.op_p50_ms", "ms", "lower"),
    ("run.op_p99_ms", "ms", "lower"),
]

_RENAMED = {"simplicial.SimplicialMap.built": ("simplicial.SimplicialMap",
                                               "calls")}


def stage_sums(tracer):
    """soa.stage<k>.* summed over every SOA run of the pass.

    Stage k is the k-th assign span directly inside an SOA span; lift time
    is that of the find_lift spans directly inside the same SOA span between
    the k-th assign and the next.
    """
    soa = tracer.index["soa.small_object_argument"]
    assign = tracer.index["soa.assign"]
    lift = tracer.index["soa.find_lift"]
    total, _ = tracer.durations()
    out = {f"soa.stage{k}.{f}": 0 for k in range(1, STAGES + 1)
           for f in STAGE_FIELDS}
    stage_of = {}
    for i, (idx, _, _, parent) in enumerate(tracer.spans):
        if parent < 0 or tracer.spans[parent][0] != soa:
            continue
        if idx == assign:
            k = stage_of[parent] = stage_of.get(parent, 0) + 1
            if k > STAGES:
                continue
            squares, cells = tracer.span_info[i]
            attached = tracer.span_info.get(parent, [])
            out[f"soa.stage{k}.assign_s"] += total[i]
            out[f"soa.stage{k}.squares"] += squares
            out[f"soa.stage{k}.cells"] += cells
            out[f"soa.stage{k}.attached"] += (attached[k - 1]
                                              if k <= len(attached) else 0)
        elif idx == lift:
            k = stage_of.get(parent, 0)
            if 1 <= k <= STAGES:
                out[f"soa.stage{k}.lift_s"] += total[i]
    return out


def layer_metrics(tracer):
    """The PER_LAYER metrics of one traced pass; trace.* and run.* come from
    comparing passes, in run.py."""
    sums = tracer.layer_sums()
    stages = stage_sums(tracer)
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith(("trace.", "run.")):
            continue
        if name in stages:
            out[name] = stages[name]
            continue
        target, field = _RENAMED.get(name, tuple(name.rsplit(".", 1)))
        out[name] = sums[target][field]
    return out
