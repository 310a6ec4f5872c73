"""Batch front end: parse workspace documents, run operations, emit reports.

Every report names the caps and budgets it was computed with and flags
truncation.  Exit status: 0 on decisive success, 2 on inconclusive verdicts
or exhausted budgets, 1 on errors (bad caps and usage errors too).  Default
caps can be overridden with the environment variable EQLOC_CAPS, e.g.
EQLOC_CAPS="stages=4,n_cap=2"; every cap must be an integer >= 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cat import colim, hom_complex, terminal_dmap
from .documents import (
    DocumentError,
    SCHEMA,
    Workspace,
    diagram_cells_doc,
    dmap_doc,
    sset_doc,
    trace_doc,
    verdict_doc,
    write_report,
)
from .homotopy import (
    cone,
    is_kan,
    is_null_homotopic,
    pi0,
    pi_n,
    properness_probe,
)
from .localization import (
    LocalizationCaps,
    LocalizationSpec,
    fixed_point_locality_report,
    is_S_local,
    localize,
)
from .orbits import orbit_category_of, orbits_of
from .soa import (
    Budget,
    find_lift,
    rlp_check,
    setup_I,
    setup_J,
    small_object_argument,
)

ENV_CAPS = "EQLOC_CAPS"

_CAP_KEYS = ("stages", "n_cap", "dim_cap", "j_n_cap", "probe_n_cap",
             "hom_cap", "pi_cap", "level_cap")


def checked_cap(source, key, value, known=_CAP_KEYS):
    """value, when key is a known cap and value an int >= 0 (not a bool);
    otherwise a DocumentError naming the source, the key and the value."""
    if key not in known:
        raise DocumentError(f"{source}: unknown cap {key!r} = {value!r}")
    if type(value) is not int or value < 0:
        raise DocumentError(f"{source}: cap {key!r} must be an integer "
                            f">= 0, not {value!r}")
    return value


def env_caps() -> dict:
    out = {}
    for chunk in os.environ.get(ENV_CAPS, "").split(","):
        if chunk.strip():
            key, _, value = chunk.strip().partition("=")
            try:
                value = int(value)
            except ValueError:
                pass  # checked_cap names it
            out[key] = checked_cap(ENV_CAPS, key, value)
    return out


def cap(args, name, default):
    explicit = getattr(args, name, None)
    if explicit is not None:
        return checked_cap("--" + name.replace("_", "-"), name, explicit)
    return args.env_caps.get(name, default)


def load_workspace(args) -> Workspace:
    ws = Workspace()
    for path in args.workspace or []:
        ws.load(path)
    return ws


def provenance(args) -> dict:
    # the output path is where the report lands, not part of its derivation;
    # env_caps (EQLOC_CAPS, parsed by main) reaches it through the caps used
    skip = ("func", "command", "out", "env_caps")
    items = sorted(vars(args).items())
    return {"command": args.command,
            "args": {k: v for k, v in items
                     if k not in skip and v is not None}}


def emit(args, report, human):
    report = {"schema": SCHEMA, "provenance": provenance(args), **report}
    text = write_report(getattr(args, "out", None), report)
    print(human)
    if getattr(args, "out", None):
        print(f"report written to {args.out}")
    return text


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args):
    ws = load_workspace(args)
    summary = ws.summary()
    emit(args, {"workspace": summary},
         "; ".join(f"{len(v)} {k}" for k, v in summary.items()))
    return 0


def cmd_colim(args):
    ws = load_workspace(args)
    X = ws.diagram(args.diagram)
    c = colim(X)
    report = {
        "colim": sset_doc(c.space),
        "cocone": {d: {cell: [list(s.word), s.cell]
                       for cell, s in sorted(leg.assignment.items())}
                   for d, leg in zip(X.shape.objects, c.legs)},
    }
    counts = [len(level) for level in c.space.levels]
    emit(args, report, f"colim cells per dimension: {counts}")
    return 0


def cmd_orbits(args):
    ws = load_workspace(args)
    X = ws.diagram(args.diagram)
    level_cap = cap(args, "level_cap", 0)
    dim_cap = cap(args, "dim_cap", 1)
    E = orbit_category_of(X, level_cap, dim_cap)
    orbits = []
    for i, T in enumerate(E.orbits):
        orbits.append({
            "cells": diagram_cells_doc(T),
            "witnesses": [[n, v] for n, v in E.witnesses[i]],
        })
    report = {
        "orbits": orbits,
        "hom_counts": {f"{i}->{j}": len(maps)
                       for (i, j), maps in sorted(E.homs.items())},
        "caps": {"level_cap": level_cap, "dim_cap": dim_cap},
        "truncated": True,
    }
    emit(args, report, f"{len(orbits)} orbit(s) up to isomorphism "
         f"at level_cap={level_cap}")
    return 0


def cmd_homcx(args):
    ws = load_workspace(args)
    A = ws.diagram(args.source)
    X = ws.diagram(args.target)
    if A.shape != X.shape:
        raise DocumentError("source and target have different shapes")
    dim_cap = cap(args, "dim_cap", 2)
    hc = hom_complex(A, X, dim_cap)
    report = {
        "hom_complex": sset_doc(hc.space),
        "caps": {"dim_cap": dim_cap},
        "truncated": True,
    }
    counts = [len(level) for level in hc.space.levels]
    emit(args, report, f"hom complex cells per dimension: {counts} "
         f"(truncated at {dim_cap})")
    return 0


def cmd_rlp(args):
    ws = load_workspace(args)
    i = ws.dmap(args.left)
    p = ws.dmap(args.right)
    if i.source.shape != p.source.shape:
        raise DocumentError("the two maps live over different shapes")
    rep = rlp_check(i, p)
    report = {"holds": rep.holds, "n_squares": rep.n_squares}
    if rep.counterexample is not None:
        a, b = rep.counterexample
        report["counterexample"] = {"left": dmap_doc(a), "right": dmap_doc(b)}
    emit(args, report,
         f"rlp {'holds' if rep.holds else 'fails'} over {rep.n_squares} squares")
    return 0


def _budget(args):
    default = Budget()
    return Budget(stages=cap(args, "stages", default.stages),
                  n_cap=cap(args, "n_cap", default.n_cap),
                  dim_cap=cap(args, "dim_cap", default.dim_cap))


def cmd_factorize(args):
    ws = load_workspace(args)
    f = ws.dmap(args.map)
    budget = _budget(args)
    instr = setup_I(budget) if args.klass == "I" else setup_J(budget)
    r = small_object_argument(f, instr, strict=args.strict)
    delta_report = {"stabilized": r.stopped_by == "stabilization"}
    if r.stopped_by == "stabilization":
        # re-verify independently: every assigned square of delta lifts
        unsolved = [sq.member_id for sq in instr.assign(r.delta)
                    if find_lift(sq.top, r.delta, sq.left, sq.right) is None]
        delta_report["delta_rlp_verified"] = not unsolved
    report = {"trace": trace_doc(r), "delta_report": delta_report}
    emit(args, report,
         f"factorized in {r.n_stages} stage(s), stopped by {r.stopped_by}")
    return 0 if r.stopped_by == "stabilization" else 2


def _loc_caps(args) -> LocalizationCaps:
    default = LocalizationCaps()
    return LocalizationCaps(
        hor_n_cap=cap(args, "n_cap", default.hor_n_cap),
        j_n_cap=cap(args, "j_n_cap", default.j_n_cap),
        probe_n_cap=cap(args, "probe_n_cap", default.probe_n_cap),
        dim_cap=cap(args, "dim_cap", default.dim_cap),
        hom_cap=cap(args, "hom_cap", default.hom_cap),
        pi_cap=cap(args, "pi_cap", default.pi_cap),
        stages=cap(args, "stages", default.stages))


def _loc_spec(args, ws) -> LocalizationSpec:
    """The spec that the one given of --spec, --fixedpointwise-f and
    --generators names; a malformed entry, or more than one of the three
    flags, is a DocumentError naming its source."""
    caps = _loc_caps(args)
    shape = ws.diagram(args.diagram).shape
    given = [flag for flag, value in (("--spec", args.spec),
                                      ("--generators", args.generators),
                                      ("--fixedpointwise-f",
                                       args.fixedpointwise_f)) if value]
    if len(given) > 1:
        raise DocumentError(f"{' and '.join(given)} cannot be given "
                            "together")
    if args.spec:
        where = f"spec {args.spec!r}"
        doc = ws.spec_docs.get(args.spec)
        if doc is None:
            raise DocumentError(f"unknown localization spec {args.spec!r}")
        if not isinstance(doc, dict):
            raise DocumentError(f"{where} is not an object")
        doc_caps = doc.get("caps", {})
        if not isinstance(doc_caps, dict):
            raise DocumentError(f"{where}: caps is not an object")
        fields = dict(vars(caps))  # every field of LocalizationCaps
        for key, value in doc_caps.items():
            fields[key] = checked_cap(where, key, value, fields)
        caps = LocalizationCaps(**fields)
        fixed = "fixedpointwise" in doc
        if fixed == ("generators" in doc):
            raise DocumentError(f"{where} must name exactly one of "
                                "generators and fixedpointwise")
        names = doc["fixedpointwise" if fixed else "generators"]
    elif args.fixedpointwise_f or args.generators:
        fixed = bool(args.fixedpointwise_f)
        where = "--fixedpointwise-f" if fixed else "--generators"
        names = args.fixedpointwise_f if fixed else args.generators.split(",")
    else:
        raise DocumentError("one of --spec, --generators or "
                            "--fixedpointwise-f is needed")
    f = gens = None
    if fixed:
        f = ws.maps.get(names) if isinstance(names, str) else None
        if f is None:
            raise DocumentError(f"{where}: unknown map {names!r}")
    elif isinstance(names, list) and all(isinstance(n, str) for n in names):
        try:
            gens = [ws.dmap(n) for n in names]
        except DocumentError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    else:
        raise DocumentError(f"{where}: generators must be a list of map "
                            f"names, not {names!r}")
    return LocalizationSpec(shape, generators=gens, fixedpointwise=f,
                            caps=caps)


def _fixed_points(Z, j, spec) -> list:
    """The fixed-point reports of Z over the orbits of the map j."""
    Ts = orbits_of(j.source, j.target, dim_cap=spec.caps.dim_cap)
    return [{"orbit": rep.orbit_index, "fibrant": rep.fibrant,
             "pi0": rep.components, "local": verdict_doc(rep.local)}
            for rep in fixed_point_locality_report(Z, spec.f, Ts, spec.caps)]


def cmd_localize(args):
    ws = load_workspace(args)
    X = ws.diagram(args.diagram)
    spec = _loc_spec(args, ws)
    r = localize(X, spec)
    report = {
        "local_object": {d: sset_doc(r.local_object.at[d])
                         for d in r.local_object.shape.objects},
        "coaugmentation": dmap_doc(r.j),
        "trace": trace_doc(r.trace),
        "locality": verdict_doc(r.locality),
    }
    if spec.mode == "fixedpointwise":
        report["fixed_points"] = _fixed_points(r.local_object, r.j, spec)
    emit(args, report,
         f"localized in {r.trace.n_stages} stage(s), "
         f"stopped by {r.trace.stopped_by}; locality: {r.locality.value}")
    if r.trace.stopped_by != "stabilization" or \
            r.locality.value == "inconclusive":
        return 2
    return 0


def cmd_locality(args):
    ws = load_workspace(args)
    Z = ws.diagram(args.diagram)
    spec = _loc_spec(args, ws)
    v = is_S_local(Z, spec)
    report = {"locality": verdict_doc(v)}
    if spec.mode == "fixedpointwise":
        report["fixed_points"] = _fixed_points(Z, terminal_dmap(Z), spec)
    emit(args, report, f"locality: {v.value} ({v.reason or 'at caps'})")
    return {"yes": 0, "no": 0, "inconclusive": 2}[v.value]


def cmd_pi(args):
    if args.n < 0:
        raise DocumentError(f"--n must be an integer >= 0, not {args.n}")
    ws = load_workspace(args)
    X = ws.sset(args.complex)
    if args.n == 0:
        classes = pi0(X)
        report = {"n": 0, "classes": [list(c) for c in classes]}
        emit(args, report, f"pi0 has {len(classes)} class(es)")
        return 0
    kan_cap = args.n + 1
    if not is_kan(X, kan_cap):
        print(f"error: complex is not fibrant up to level {kan_cap}",
              file=sys.stderr)
        return 1
    if args.basepoint and args.basepoint not in X.cells(0):
        raise DocumentError(f"unknown basepoint {args.basepoint!r}")
    basepoints = [args.basepoint] if args.basepoint else \
        [cls[0] for cls in pi0(X)]
    result = {}
    for v in basepoints:
        classes = pi_n(X, v, args.n, kan_checked=True)
        result[v] = len(classes)
    report = {"n": args.n, "classes_per_basepoint": result,
              "caps": {"kan_checked_to": kan_cap}}
    emit(args, report,
         "; ".join(f"pi_{args.n} at {v}: {k}" for v, k in result.items()))
    return 0


def cmd_cone(args):
    ws = load_workspace(args)
    A = ws.diagram(args.diagram)
    cn = cone(A)
    c = colim(cn.space)
    report = {
        "cone": {d: sset_doc(cn.space.at[d]) for d in cn.space.shape.objects},
        "inclusion": dmap_doc(cn.inclusion),
        "colim_cells": [len(level) for level in c.space.levels],
    }
    emit(args, report,
         f"cone cells: {diagram_cells_doc(cn.space)}; "
         f"colim cells: {[len(l) for l in c.space.levels]}")
    return 0


def cmd_nullcheck(args):
    if args.budget is not None and args.budget < 0:
        raise DocumentError("--budget must be an integer >= 0, "
                            f"not {args.budget}")
    ws = load_workspace(args)
    f = ws.dmap(args.map)
    verdict, H = is_null_homotopic(f, search_budget=args.budget)
    report = {"verdict": verdict_doc(verdict)}
    if H is not None:
        report["homotopy"] = dmap_doc(H)
    emit(args, report, f"null-homotopic: {verdict.value}")
    return {"yes": 0, "no": 0, "inconclusive": 2}[verdict.value]


def cmd_proper_probe(args):
    ws = load_workspace(args)
    weq = ws.dmap(args.weq)
    along = ws.dmap(args.along)
    pi_cap = cap(args, "pi_cap", 0)
    hom_cap = cap(args, "hom_cap", 1)
    Ts = orbits_of(weq.source, weq.target, dim_cap=cap(args, "dim_cap", 1))
    v = properness_probe(args.kind, weq, along, Ts, pi_cap, hom_cap)
    emit(args, {"verdict": verdict_doc(v), "kind": args.kind},
         f"{args.kind} properness probe: {v.value}")
    return {"yes": 0, "no": 0, "inconclusive": 2}[v.value]


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqloc",
        description="Finite simplicial sets, diagram categories, and "
                    "equivariant localization at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-w", "--workspace", action="append",
                       help="workspace document (repeatable)")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("parse", help="validate workspace documents")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("colim", help="colimit of a diagram")
    common(p)
    p.add_argument("-d", "--diagram", required=True)
    p.set_defaults(func=cmd_colim)

    p = sub.add_parser("orbits", help="orbit category of a diagram")
    common(p)
    p.add_argument("-d", "--diagram", required=True)
    p.add_argument("--level-cap", dest="level_cap", type=int)
    p.add_argument("--dim-cap", dest="dim_cap", type=int)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("homcx", help="mapping complex of two diagrams")
    common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--dim-cap", dest="dim_cap", type=int)
    p.set_defaults(func=cmd_homcx)

    p = sub.add_parser("rlp", help="right lifting property check")
    common(p)
    p.add_argument("-i", "--left", required=True, help="the lifting map")
    p.add_argument("-p", "--right", required=True, help="the map tested")
    p.set_defaults(func=cmd_rlp)

    p = sub.add_parser("factorize", help="generalized small object argument")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--class", dest="klass", choices=("I", "J"), default="I")
    p.add_argument("--n-cap", dest="n_cap", type=int)
    p.add_argument("--dim-cap", dest="dim_cap", type=int)
    p.add_argument("--stages", type=int)
    p.add_argument("--strict", action="store_true",
                   help="re-attach squares whose lift already exists")
    p.set_defaults(func=cmd_factorize)

    def loc_flags(p):
        p.add_argument("-d", "--diagram", required=True)
        p.add_argument("--spec", help="a named localization spec")
        p.add_argument("--generators", help="comma-separated map names")
        p.add_argument("--fixedpointwise-f", dest="fixedpointwise_f",
                       help="a map of simplicial sets, e.g. empty-to-point")
        p.add_argument("--n-cap", dest="n_cap", type=int)
        p.add_argument("--j-n-cap", dest="j_n_cap", type=int)
        p.add_argument("--probe-n-cap", dest="probe_n_cap", type=int)
        p.add_argument("--dim-cap", dest="dim_cap", type=int)
        p.add_argument("--hom-cap", dest="hom_cap", type=int)
        p.add_argument("--pi-cap", dest="pi_cap", type=int)
        p.add_argument("--stages", type=int)

    p = sub.add_parser("localize", help="localization functor")
    common(p)
    loc_flags(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("locality", help="is the diagram local?")
    common(p)
    loc_flags(p)
    p.set_defaults(func=cmd_locality)

    p = sub.add_parser("pi", help="homotopy classes of a complex")
    common(p)
    p.add_argument("--complex", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basepoint")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("cone", help="cone of a diagram")
    common(p)
    p.add_argument("-d", "--diagram", required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("nullcheck", help="is a map null-homotopic?")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--budget", type=int, help="search node budget")
    p.set_defaults(func=cmd_nullcheck)

    p = sub.add_parser("proper-probe", help="properness probe on an instance")
    common(p)
    p.add_argument("--kind", choices=("left", "right"), required=True)
    p.add_argument("--weq", required=True)
    p.add_argument("--along", required=True)
    p.add_argument("--pi-cap", dest="pi_cap", type=int)
    p.add_argument("--hom-cap", dest="hom_cap", type=int)
    p.add_argument("--dim-cap", dest="dim_cap", type=int)
    p.set_defaults(func=cmd_proper_probe)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is bad input: exit 1, not 2
        return 1 if exc.code else 0
    try:
        args.env_caps = env_caps()  # checked for every command
        return args.func(args)
    except (DocumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
