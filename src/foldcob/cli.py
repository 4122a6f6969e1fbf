"""Command-line front end.

All subcommands print one deterministic JSON document on stdout and use
exit code 0 for success, 1 for invalid input data, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import foldcob
from .choices import CatalogId, Category

# The commands read every layer name as an attribute of this module
# (``_cli.homology``).  A public foldcob name is imported from its layer
# on first read, so a command loads only the layers it calls, and a
# wrapper put in place with ``setattr(cli, name, ...)`` is the one called.
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in foldcob.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(foldcob, name)
    return value


def _emit(doc) -> int:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")
    return 0


def _matrix_rows(m):
    return [list(row) for row in m.entries]


def _load_json(path):
    # a path with a line break or another unprintable character is shown
    # as its repr, so that the error stays one line
    shown = path if path.isprintable() else repr(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {shown}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot read {shown}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"cannot read {shown}: JSON nested too deeply") from None
    except ValueError:
        # int() refuses a number longer than sys.get_int_max_str_digits()
        raise ValueError(f"cannot read {shown}: JSON number with too many "
                         "digits") from None


def _cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        return _emit({"catalogs": [c.value for c in CatalogId]})
    cx = _cli.catalog(CatalogId(args.id))
    gens = []
    for degree in cx.generators:
        row = []
        for g in degree:
            if g.name == "A":
                name, parity = "A", None
            else:
                name, parity = g.name.rsplit("_", 1)
            row.append({"name": name, "parity": parity, "ring": g.ring.value})
        gens.append(row)
    diffs = []
    for i, m in enumerate(cx.differentials):
        frm, to = cx.ends(i)
        diffs.append({"from": frm, "to": to, "matrix": _matrix_rows(m)})
    return _emit({"id": args.id,
                  "direction": cx.direction.value,
                  "degrees": cx.top_degree + 1,
                  "generators": gens,
                  "differentials": diffs})


def _cmd_homology(args) -> int:
    pres = _cli.homology(_cli.catalog(CatalogId(args.id)), args.deg)
    return _emit({"free_rank": pres.free_rank, "torsion": list(pres.torsion)})


def _cmd_suspension(args) -> int:
    maps = _cli.suspension_map(args.variant)
    m = _cli.induced_map(maps.pullback, 1)
    return _emit({"variant": args.variant, "h1_matrix": _matrix_rows(m)})


def _cmd_hyper(args) -> int:
    h = _cli.hypercohomology(_cli.catalog(CatalogId.V32),
                             _cli.RingTag(args.coeff), args.deg)
    return _emit({"free_rank": h.group.free_rank,
                  "torsion": list(h.group.torsion),
                  "comparison_iso": h.comparison_is_isomorphism})


def _zw(inv) -> dict:
    """z, and w outside the oriented categories, where it is always 0."""
    return {"z": inv.z} if inv.category.oriented else {"z": inv.z, "w": inv.w}


def _cmd_invariants(args) -> int:
    g = _cli.graph_from_json(_load_json(args.infile))
    return _emit(_zw(_cli.invariants(g, Category(args.category))))


def _cmd_reduce(args) -> int:
    g = _cli.graph_from_json(_load_json(args.infile))
    res = _cli.reduce_to_normal_form(g, Category(args.category))
    doc = _zw(res.invariants)
    doc["trace"] = [{"move": m, "count": n} for m, n in res.trace]
    doc["canonical"] = _cli.graph_to_json(res.canonical)
    return _emit(doc)


def _cmd_cobordant(args) -> int:
    g1 = _cli.graph_from_json(_load_json(args.a))
    g2 = _cli.graph_from_json(_load_json(args.b))
    same = _cli.cobordant(g1, g2, Category(args.category))
    return _emit({"cobordant": same})


def _cmd_cusp(args) -> int:
    d = _cli.diagram_from_json(_load_json(args.infile))
    if d.mode is _cli.BoundaryMode.CLOSED:
        res = _cli.cusp_count_closed(d)
    else:
        res = _cli.cusp_count_boundary(d)
    return _emit({"cusps": res.count, "cross_check": res.cross_check})


def _cmd_identities(args) -> int:
    idents = _cli.counting_identities(CatalogId(args.id))
    doc = [{"f": [[lbl, c] for lbl, c in ident.f_terms],
            "F": [[lbl, c] for lbl, c in ident.F_terms]}
           for ident in idents]
    out = {"id": args.id, "identities": doc}
    if args.id == "BCUSP32":
        out["cocycle_check"] = _cli.cusp_cocycle_check().ok
    return _emit(out)


def _cmd_selftest(_args) -> int:
    from . import selftest

    results = selftest.run_all()
    ok = True
    for r in results:
        ok = ok and r.ok
        line = f"{'PASS' if r.ok else 'FAIL'} {r.name}"
        if not r.ok and r.detail:
            line += f": {r.detail}"
        sys.stdout.write(line + "\n")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="foldcob")
    sub = p.add_subparsers(dest="cmd", required=True)

    cat = sub.add_parser("catalog")
    catsub = cat.add_subparsers(dest="catalog_cmd", required=True)
    catsub.add_parser("list")
    exp = catsub.add_parser("export")
    exp.add_argument("--id", required=True,
                     choices=[c.value for c in CatalogId])
    cat.set_defaults(func=_cmd_catalog)

    hom = sub.add_parser("homology")
    hom.add_argument("--id", required=True,
                     choices=[c.value for c in CatalogId])
    hom.add_argument("--deg", type=int, required=True)
    hom.set_defaults(func=_cmd_homology)

    susp = sub.add_parser("suspension")
    susp.add_argument("--variant", required=True, choices=["co_Z", "full_Z2"])
    susp.set_defaults(func=_cmd_suspension)

    hyp = sub.add_parser("hyper")
    hyp.add_argument("--id", required=True, choices=["V32"])
    hyp.add_argument("--coeff", required=True, choices=["Z", "Z2"])
    hyp.add_argument("--deg", type=int, required=True, choices=[0, 1, 2])
    hyp.set_defaults(func=_cmd_hyper)

    categories = [c.value for c in Category]

    inv = sub.add_parser("invariants")
    inv.add_argument("--in", dest="infile", required=True)
    inv.add_argument("--category", required=True, choices=categories)
    inv.set_defaults(func=_cmd_invariants)

    red = sub.add_parser("reduce")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--category", required=True, choices=categories)
    red.set_defaults(func=_cmd_reduce)

    cob = sub.add_parser("cobordant")
    cob.add_argument("--a", required=True)
    cob.add_argument("--b", required=True)
    cob.add_argument("--category", required=True, choices=categories)
    cob.set_defaults(func=_cmd_cobordant)

    cusp = sub.add_parser("cusp")
    cusp.add_argument("--in", dest="infile", required=True)
    cusp.set_defaults(func=_cmd_cusp)

    ident = sub.add_parser("identities")
    ident.add_argument("--id", required=True,
                       choices=["CO32", "CUSP32", "BCUSP32"])
    ident.set_defaults(func=_cmd_identities)

    st = sub.add_parser("selftest")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
