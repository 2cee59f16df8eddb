"""Command-line surface: every operation behind one deterministic executable.

Six subcommands (numerology, monodromy, pencil, severi, dimlab, reproduce)
print JSON by default, CSV for flat tabular payloads.  Exit codes: 0 success,
1 domain failure (infeasible profile, empty family, a value pencillab
rejects, ...) with an {"error", "detail"} object on stdout, 2 usage errors
that argparse catches.  Output is byte-stable
for identical invocations: keys are sorted and all core paths are exact, so
caching and diffing runs is safe.

Each handler imports the pencillab modules it calls, so a command loads only
those: `numerology` or `severi exists` never reads the pencil geometry or the
search code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from typing import TYPE_CHECKING

from .errors import PencillabError
from .fields import QQ, Field

if TYPE_CHECKING:
    from . import pencil_geometry, severi_degeneration

CACHE_ENV = "PENCILLAB_CACHE"
DEFAULT_CACHE_DIR = "./.pencillab-cache"


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _field_of(args) -> Field:
    q = getattr(args, "q", None)
    return QQ if q is None else Field(q)


def _parse_form(field: Field, text: str) -> pencil_geometry.BinaryForm:
    from . import pencil_geometry

    coeffs = [tok.strip() for tok in text.split(",")]
    return pencil_geometry.BinaryForm(field, len(coeffs) - 1, tuple(coeffs))


def _parse_pencil(args) -> pencil_geometry.Pencil:
    from . import pencil_geometry

    field = _field_of(args)
    return pencil_geometry.Pencil(
        _parse_form(field, args.f), _parse_form(field, args.g)
    )


def _parse_point(field: Field, text: str) -> pencil_geometry.ProjPoint:
    from . import pencil_geometry

    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"point needs two coordinates, got {text!r}")
    return pencil_geometry.ProjPoint(field, parts[0], parts[1])


def _parse_sym_point(field: Field, text: str) -> pencil_geometry.SymPoint:
    from . import pencil_geometry

    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"plane point needs three coordinates, got {text!r}")
    return pencil_geometry.SymPoint(field, parts[0], parts[1], parts[2])


def _parse_pairs(field: Field, text: str) -> list[tuple]:
    out = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        left, _, right = chunk.partition(":")
        if not right:
            raise ValueError(f"pair {chunk!r} must look like x0,x1:y0,y1")
        out.append((_parse_point(field, left), _parse_point(field, right)))
    return out


def _parse_marked(field: Field, text: str) -> list[tuple]:
    out = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        left, _, right = chunk.partition(":")
        if not right:
            raise ValueError(f"marked point {chunk!r} must look like x0,x1:order")
        out.append((_parse_point(field, left), int(right)))
    return out


def _parse_counts(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        q, _, c = chunk.partition(":")
        if not c:
            raise ValueError(f"count sample {chunk!r} must look like q:count")
        out.append((int(q), int(c)))
    return out


def _parse_constraint(args) -> severi_degeneration.SearchConstraint:
    from . import severi_degeneration

    field = Field(args.q)
    incidences = []
    if args.incidence:
        for chunk in filter(None, (c.strip() for c in args.incidence.split(";"))):
            incidences.append(_parse_sym_point(field, chunk))
    ramifications = []
    if args.ram:
        ramifications = _parse_marked(field, args.ram)
    return severi_degeneration.SearchConstraint(
        incidences=tuple(incidences), ramifications=tuple(ramifications)
    )


def _cache_dir(args) -> str | None:
    """Where searches cache their results; None under --no-cache."""
    if args.no_cache:
        return None
    return os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)


def _search_options(args) -> dict:
    """search_pencils_ffield keywords set by --jobs, --no-cache and --budget."""
    options = {"jobs": args.jobs, "cache_dir": _cache_dir(args)}
    if args.budget is not None:  # omitted: the search's DEFAULT_SEARCH_BUDGET
        options["budget"] = args.budget
    return options


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code)


def _cmd_numerology(args):
    from . import numerology

    e = tuple(_parse_int_list(args.e)) if args.e is not None else ()
    if args.n is not None and args.n != len(e):
        raise ValueError(f"--n {args.n} disagrees with {len(e)} orders in --e")
    profile = numerology.RamificationProfile(g=args.g, k=args.k, e=e)
    return numerology.profile_report(profile), 0


def _cmd_monodromy_construct(args):
    from . import monodromy

    mt = monodromy.construct_tuple(args.k, _parse_int_list(args.e))
    report = monodromy.verify_tuple(mt)
    payload = mt.to_json_dict()
    payload["orders"] = list(report.orders)
    payload["genus"] = report.genus
    payload["verified"] = (
        report.product_is_identity and report.transitive and report.genus == 0
    )
    return payload, 0


def _cmd_monodromy_verify(args):
    from . import monodromy

    cycles = json.loads(args.cycles)
    mt = monodromy.MonodromyTuple.from_json_dict({"k": args.k, "cycles": cycles})
    report = monodromy.verify_tuple(mt)
    return {
        "product_is_identity": report.product_is_identity,
        "transitive": report.transitive,
        "consecutive_nondisjoint": report.consecutive_nondisjoint,
        "orders": list(report.orders),
        "genus": report.genus,
    }, 0


def _cmd_monodromy_enumerate(args):
    from . import monodromy

    tuples = monodromy.enumerate_tuples(
        args.k, _parse_int_list(args.e), exhaustive=args.exhaustive
    )
    listed = [mt.to_json_dict()["cycles"] for mt in tuples[: args.limit]]
    return {"count": len(tuples), "tuples": listed, "truncated": len(tuples) > args.limit}, 0


def _cmd_monodromy_count(args):
    from . import monodromy

    return {"count": monodromy.count_tuples(args.k, _parse_int_list(args.e))}, 0


def _cmd_monodromy_pad(args):
    from . import monodromy

    padded = monodromy.pad_profile(args.k, _parse_int_list(args.e))
    return {"k": args.k, "e": list(padded)}, 0


def _cmd_pencil_bezoutian(args):
    from . import pencil_geometry

    curve = pencil_geometry.bezoutian_curve(_parse_pencil(args))
    payload = curve.to_json_dict()
    payload["field"] = curve.field.label()
    payload["monomials"] = [list(m) for m in pencil_geometry.curve_monomials(curve.degree)]
    return payload, 0


def _cmd_pencil_wronskian(args):
    from . import pencil_geometry

    pencil = _parse_pencil(args)
    w = pencil_geometry.wronskian(pencil)
    payload = w.to_json_dict()
    payload["field"] = w.field.label()
    payload["roots"] = [
        {"point": pt.to_json(), "multiplicity": m}
        for pt, m in pencil_geometry.rational_roots(w)
    ]
    return payload, 0


def _cmd_pencil_base_locus(args):
    from . import pencil_geometry

    pencil = _parse_pencil(args)
    locus = pencil_geometry.base_locus(pencil)
    return {
        "gcd": locus.to_json_dict(),
        "degree": locus.degree,
        "squarefree": pencil_geometry.squarefree_form(locus),
        "multiple_base_points": pencil_geometry.has_multiple_base_points(pencil),
    }, 0


def _cmd_pencil_reduced(args):
    from . import pencil_geometry

    pencil = _parse_pencil(args)
    curve = pencil_geometry.bezoutian_curve(pencil)
    return {"reduced": pencil_geometry.is_reduced_curve(curve)}, 0


def _cmd_pencil_same_fiber(args):
    from . import pencil_geometry

    pencil = _parse_pencil(args)
    field = pencil.field
    p = _parse_point(field, args.P)
    q = _parse_point(field, args.Q)
    ambiguous = pencil_geometry.is_base_point(pencil, p) and pencil_geometry.is_base_point(
        pencil, q
    )
    verdict = pencil_geometry.same_fiber(
        pencil, p, q, strict=not args.allow_base_ambiguity
    )
    return {"same_fiber": verdict, "both_base_points": ambiguous}, 0


def _cmd_pencil_ramification(args):
    from . import pencil_geometry

    pencil = _parse_pencil(args)
    point = _parse_point(pencil.field, args.P)
    return {
        "has_ramification": pencil_geometry.has_ramification_at(
            pencil, point, args.order
        ),
        "base_point": pencil_geometry.is_base_point(pencil, point),
    }, 0


def _cmd_pencil_total_ram(args):
    from . import pencil_geometry

    field = _field_of(args)
    pencil = pencil_geometry.total_ramification_pencil(
        _parse_point(field, args.a), _parse_point(field, args.b), args.k
    )
    return pencil.to_json_dict(), 0


def _cmd_pencil_sym_point(args):
    from . import pencil_geometry

    field = _field_of(args)
    sp = pencil_geometry.sym_point(
        _parse_point(field, args.P), _parse_point(field, args.Q)
    )
    return {"coords": sp.to_json(), "on_diagonal": sp.on_diagonal()}, 0


def _cmd_pencil_conic_section(args):
    from . import pencil_geometry, severi_degeneration

    pencil = _parse_pencil(args)
    curve = pencil_geometry.bezoutian_curve(pencil)
    if args.conic is None:
        conic = pencil_geometry.diagonal_conic(pencil.field)
    else:
        coeffs = [tok.strip() for tok in args.conic.split(",")]
        conic = pencil_geometry.PlaneCurve(pencil.field, 2, tuple(coeffs))
    report = severi_degeneration.intersect_with_conic(curve, conic)
    return report.to_json_dict(), 0


def _cmd_severi_exists(args):
    from . import numerology

    verdict = numerology.exists_alpha(args.p, args.delta, args.k)
    return {"exists": verdict}, 0 if verdict else 1


def _cmd_severi_alphas(args):
    from . import numerology

    tuples = numerology.enumerate_alpha(args.p, args.delta, args.k)
    return [t.to_json_dict() for t in tuples], 0


def _cmd_severi_delta0(args):
    from . import numerology

    least = numerology.delta_zero(args.p, args.k)
    return {"p": args.p, "k": args.k, "delta0": least}, 0 if least is not None else 1


def _cmd_severi_descends(args):
    from . import pencil_geometry, severi_degeneration

    field = _field_of(args)
    pairs = _parse_pairs(field, args.pairs) if args.pairs else []
    marked = _parse_marked(field, args.marked) if args.marked else []
    model = severi_degeneration.LimitCurveModel(
        node_pairs=tuple(pairs),
        marked_points=tuple(pt for pt, _ in marked),
        orders=tuple(e for _, e in marked),
    )
    pencil = _parse_pencil(args)
    second = None
    if args.f2 and args.g2:
        second = pencil_geometry.Pencil(
            _parse_form(field, args.f2), _parse_form(field, args.g2)
        )
    report = severi_degeneration.descends(model, pencil, second)
    return report.to_json_dict(), 0


def _cmd_severi_limit_curve(args):
    from . import severi_degeneration

    field = _field_of(args)
    alphas = _parse_int_list(args.alphas)
    alpha = severi_degeneration.AlphaTuple(p=len(alphas), alphas=tuple(alphas))
    chains = []
    if args.chains:
        for chunk in filter(None, (c.strip() for c in args.chains.split(";"))):
            m_text, _, pair_text = chunk.partition("@")
            if not pair_text:
                raise ValueError(
                    f"chain {chunk!r} must look like m@x0,x1:y0,y1"
                )
            (pair,) = _parse_pairs(field, pair_text)
            chains.append(severi_degeneration.ChainSpec(m=int(m_text), pair=pair))
    marked = _parse_marked(field, args.marked) if args.marked else []
    model = severi_degeneration.build_limit_curve(alpha, chains, marked)
    return {
        "p": alpha.p,
        "delta": alpha.delta,
        "genus": model.genus,
        "node_pairs": [[a.to_json(), b.to_json()] for a, b in model.node_pairs],
        "marked_points": [pt.to_json() for pt in model.marked_points],
        "orders": list(model.orders),
    }, 0


def _cmd_dimlab_search(args):
    from . import severi_degeneration

    constraint = _parse_constraint(args)
    result = severi_degeneration.search_pencils_ffield(
        args.k, args.q, constraint, report_strata=args.strata, **_search_options(args)
    )
    payload = result.to_json_dict()
    payload["k"] = args.k
    payload["q"] = args.q
    return payload, 0 if result.count > 0 else 1


def _cmd_dimlab_estimate(args):
    from . import severi_degeneration

    est = severi_degeneration.dimension_estimate(_parse_counts(args.counts))
    return est.to_json_dict(), 0


def _cmd_dimlab_grassmannian(args):
    from . import numerology

    return {
        "k": args.k,
        "q": args.q,
        "count": numerology.grassmannian_pencil_count(args.k, args.q),
    }, 0


def _cmd_reproduce(args):
    if args.target == "example-p345":
        from . import numerology

        rows = []
        for p, k in [(3, 2), (4, 2), (5, 2), (5, 3)]:
            rows.append({"p": p, "k": k, "delta0": numerology.delta_zero(p, k)})
        return rows, 0
    if args.target == "unique-pencil":
        from . import pencil_geometry, severi_degeneration

        field = Field(5)
        constraint = severi_degeneration.SearchConstraint(
            ramifications=(
                (pencil_geometry.ProjPoint(field, 1, 0), 2),
                (pencil_geometry.ProjPoint(field, 0, 1), 2),
            )
        )
        result = severi_degeneration.search_pencils_ffield(
            2, 5, constraint, **_search_options(args)
        )
        return {
            "k": 2,
            "q": 5,
            "count": result.count,
            "samples": [p.to_json_dict() for p in result.samples],
        }, 0
    raise ValueError(f"unknown reproduction target {args.target!r}")


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    search_common = argparse.ArgumentParser(add_help=False)
    search_common.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, help="worker processes"
    )
    search_common.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    search_common.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max work a search may do: f-rows x conditions, "
        "or pencils in the Grassmannian with --strata",
    )

    parser = argparse.ArgumentParser(
        prog="pencillab",
        description="pencils of binary forms: numerology, monodromy, plane geometry, "
        "and finite-field dimension experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_num = sub.add_parser(
        "numerology", parents=[common], help="invariants of a ramification profile"
    )
    p_num.add_argument("--g", type=int, required=True)
    p_num.add_argument("--k", type=int, required=True)
    p_num.add_argument("--e", type=str, default=None, help="comma list of orders")
    p_num.add_argument("--n", type=int, default=None, help="cross-check for len(e)")
    p_num.set_defaults(handler=_cmd_numerology)

    p_mon = sub.add_parser("monodromy", help="cycle tuples for genus-0 covers")
    mon_sub = p_mon.add_subparsers(dest="action", required=True)
    m_con = mon_sub.add_parser("construct", parents=[common])
    m_con.add_argument("--k", type=int, required=True)
    m_con.add_argument("--e", type=str, required=True)
    m_con.set_defaults(handler=_cmd_monodromy_construct)
    m_ver = mon_sub.add_parser("verify", parents=[common])
    m_ver.add_argument("--k", type=int, required=True)
    m_ver.add_argument("--cycles", type=str, required=True, help="JSON list of cycles")
    m_ver.set_defaults(handler=_cmd_monodromy_verify)
    m_enu = mon_sub.add_parser("enumerate", parents=[common])
    m_enu.add_argument("--k", type=int, required=True)
    m_enu.add_argument("--e", type=str, required=True)
    m_enu.add_argument("--exhaustive", action="store_true")
    m_enu.add_argument("--limit", type=int, default=50, help="tuples listed in output")
    m_enu.set_defaults(handler=_cmd_monodromy_enumerate)
    m_cnt = mon_sub.add_parser("count", parents=[common])
    m_cnt.add_argument("--k", type=int, required=True)
    m_cnt.add_argument("--e", type=str, required=True)
    m_cnt.set_defaults(handler=_cmd_monodromy_count)
    m_pad = mon_sub.add_parser("pad", parents=[common])
    m_pad.add_argument("--k", type=int, required=True)
    m_pad.add_argument("--e", type=str, required=True)
    m_pad.set_defaults(handler=_cmd_monodromy_pad)

    field_opt = argparse.ArgumentParser(add_help=False)
    field_opt.add_argument(
        "--q", type=int, default=None, help="odd prime; omit for rationals"
    )
    pform = argparse.ArgumentParser(add_help=False)
    pform.add_argument("--f", type=str, required=True, help="comma coefficient list")
    pform.add_argument("--g", type=str, required=True, help="comma coefficient list")

    p_pen = sub.add_parser("pencil", help="exact geometry of one pencil")
    pen_sub = p_pen.add_subparsers(dest="action", required=True)
    pe_bez = pen_sub.add_parser("bezoutian", parents=[common, field_opt, pform])
    pe_bez.set_defaults(handler=_cmd_pencil_bezoutian)
    pe_wro = pen_sub.add_parser("wronskian", parents=[common, field_opt, pform])
    pe_wro.set_defaults(handler=_cmd_pencil_wronskian)
    pe_bas = pen_sub.add_parser("base-locus", parents=[common, field_opt, pform])
    pe_bas.set_defaults(handler=_cmd_pencil_base_locus)
    pe_red = pen_sub.add_parser("reduced", parents=[common, field_opt, pform])
    pe_red.set_defaults(handler=_cmd_pencil_reduced)
    pe_sam = pen_sub.add_parser("same-fiber", parents=[common, field_opt, pform])
    pe_sam.add_argument("--P", type=str, required=True)
    pe_sam.add_argument("--Q", type=str, required=True)
    pe_sam.add_argument(
        "--allow-base-ambiguity",
        action="store_true",
        help="answer true instead of erroring when both points are base points",
    )
    pe_sam.set_defaults(handler=_cmd_pencil_same_fiber)
    pe_ram = pen_sub.add_parser("ramification", parents=[common, field_opt, pform])
    pe_ram.add_argument("--P", type=str, required=True)
    pe_ram.add_argument("--order", type=int, required=True)
    pe_ram.set_defaults(handler=_cmd_pencil_ramification)
    pe_tot = pen_sub.add_parser("total-ram", parents=[common, field_opt])
    pe_tot.add_argument("--a", type=str, required=True)
    pe_tot.add_argument("--b", type=str, required=True)
    pe_tot.add_argument("--k", type=int, required=True)
    pe_tot.set_defaults(handler=_cmd_pencil_total_ram)
    pe_sym = pen_sub.add_parser("sym-point", parents=[common, field_opt])
    pe_sym.add_argument("--P", type=str, required=True)
    pe_sym.add_argument("--Q", type=str, required=True)
    pe_sym.set_defaults(handler=_cmd_pencil_sym_point)
    pe_con = pen_sub.add_parser("conic-section", parents=[common, field_opt, pform])
    pe_con.add_argument(
        "--conic",
        type=str,
        default=None,
        help="six coefficients (u2,uv,uw,v2,vw,w2); default: the diagonal conic",
    )
    pe_con.set_defaults(handler=_cmd_pencil_conic_section)

    p_sev = sub.add_parser("severi", help="nodal-family combinatorics")
    sev_sub = p_sev.add_subparsers(dest="action", required=True)
    sv_exi = sev_sub.add_parser("exists", parents=[common])
    sv_exi.add_argument("--p", type=int, required=True)
    sv_exi.add_argument("--delta", type=int, required=True)
    sv_exi.add_argument("--k", type=int, required=True)
    sv_exi.set_defaults(handler=_cmd_severi_exists)
    sv_alp = sev_sub.add_parser("alphas", parents=[common])
    sv_alp.add_argument("--p", type=int, required=True)
    sv_alp.add_argument("--delta", type=int, required=True)
    sv_alp.add_argument("--k", type=int, required=True)
    sv_alp.set_defaults(handler=_cmd_severi_alphas)
    sv_dz = sev_sub.add_parser("delta0", parents=[common])
    sv_dz.add_argument("--p", type=int, required=True)
    sv_dz.add_argument("--k", type=int, required=True)
    sv_dz.set_defaults(handler=_cmd_severi_delta0)
    sv_des = sev_sub.add_parser("descends", parents=[common, field_opt, pform])
    sv_des.add_argument("--pairs", type=str, default=None, help="x0,x1:y0,y1;...")
    sv_des.add_argument("--marked", type=str, default=None, help="x0,x1:order;...")
    sv_des.add_argument("--f2", type=str, default=None, help="second pencil generator")
    sv_des.add_argument("--g2", type=str, default=None, help="second pencil generator")
    sv_des.set_defaults(handler=_cmd_severi_descends)
    sv_lim = sev_sub.add_parser("limit-curve", parents=[common, field_opt])
    sv_lim.add_argument("--alphas", type=str, required=True, help="comma list a1..ap")
    sv_lim.add_argument("--chains", type=str, default=None, help="m@x0,x1:y0,y1;...")
    sv_lim.add_argument("--marked", type=str, default=None, help="x0,x1:order;...")
    sv_lim.set_defaults(handler=_cmd_severi_limit_curve)

    p_dim = sub.add_parser("dimlab", help="finite-field counting experiments")
    dim_sub = p_dim.add_subparsers(dest="action", required=True)
    dl_sea = dim_sub.add_parser("search", parents=[common, search_common])
    dl_sea.add_argument("--k", type=int, required=True)
    dl_sea.add_argument("--q", type=int, required=True)
    dl_sea.add_argument("--incidence", type=str, default=None, help="u,v,w;u,v,w;...")
    dl_sea.add_argument("--ram", type=str, default=None, help="x0,x1:order;...")
    dl_sea.add_argument("--strata", action="store_true", help="classify base divisors")
    dl_sea.set_defaults(handler=_cmd_dimlab_search)
    dl_est = dim_sub.add_parser("estimate", parents=[common])
    dl_est.add_argument("--counts", type=str, required=True, help="q:count,q:count,...")
    dl_est.set_defaults(handler=_cmd_dimlab_estimate)
    dl_gra = dim_sub.add_parser("grassmannian", parents=[common])
    dl_gra.add_argument("--k", type=int, required=True)
    dl_gra.add_argument("--q", type=int, required=True)
    dl_gra.set_defaults(handler=_cmd_dimlab_grassmannian)

    p_rep = sub.add_parser(
        "reproduce", parents=[common, search_common], help="rerun worked examples"
    )
    p_rep.add_argument("target", choices=("example-p345", "unique-pencil"))
    p_rep.set_defaults(handler=_cmd_reproduce)

    return parser


# ---------------------------------------------------------------------------
# output and dispatch


def _snake(name: str) -> str:
    """CamelCase to snake_case, keeping acronyms whole: JSONDecodeError -> json_decode_error."""
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "_", name).lower()


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_csv(payload) -> bool:
    rows = payload if isinstance(payload, list) else [payload]
    if not rows or not all(isinstance(r, dict) for r in rows):
        return False
    flat_rows = []
    for row in rows:
        flat = {}
        for key, val in row.items():
            if isinstance(val, dict):
                return False
            if isinstance(val, list):
                if any(isinstance(x, (dict, list)) for x in val):
                    return False
                val = " ".join(str(x) for x in val)
            flat[key] = val
        flat_rows.append(flat)
    header = sorted({key for row in flat_rows for key in row})
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in flat_rows:
        writer.writerow([row.get(key, "") for key in header])
    return True


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except (PencillabError, ValueError, ZeroDivisionError) as exc:
        _emit_json({"error": _snake(type(exc).__name__), "detail": str(exc)})
        return 1
    if args.format == "csv":
        if not _emit_csv(payload):
            sys.stderr.write("csv output requires a flat tabular payload\n")
            return 2
    else:
        _emit_json(payload)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
