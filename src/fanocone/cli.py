"""Command-line front end: exact invariant reports from presentation files.

Exit codes: 0 success, 1 central-identity failure (implementation bug),
2 malformed input, or input over the chart order limit
cone_model.MAX_CHART_ORDER.  All payloads are deterministic: rationals as
"p/q" strings, sorted keys, no timestamps.
"""

import argparse
import json
import sys
from fractions import Fraction

from .cone_model import (
    SchemaError,
    WeightedAction,
    input_from_dict,
    validate_presentation,
)
from .discrepancy import InvalidPresentation, minimal_discrepancy
from .orb_topology import wps_cohomology
from .rationals import format_ratio, format_rational, parse_rational
from .reeb_orbits import engines_agree, enumerate_families, inf_lsft, tower_table
from .ss_engine import (
    CertificationError,
    assemble_e1,
    certify_min_degree,
    degenerate_ranks,
    expected_sh_homology_ball,
)
from .sympath_index import DiagonalPath, index_bundle

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_INPUT = 2


def _load_input(path):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except OSError as exc:
        raise SchemaError("cannot read %r: %s" % (path, exc)) from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError("malformed JSON at line %d: %s" % (exc.lineno, exc.msg)) from exc
    data = input_from_dict(obj)
    violations = validate_presentation(data.presentation)
    if violations:
        raise SchemaError("; ".join(violations))
    return data


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, value))
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append("%s- %s" % (pad, value))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def _emit(obj, out, as_text=False):
    if as_text:
        out.write("\n".join(_render_text(obj)) + "\n")
    else:
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _family_ratios(f):
    """period, rs, lcz and lsft of f, rendered from its integer fields."""
    d, D = f.isotropy_order, f.D
    return (
        format_ratio(f.ell * d + f.k, d),
        format_ratio(f.rs_num, D),
        format_ratio(f.lcz_num, D),
        format_ratio(f.lsft_num, D),
    )


def _family_dict(f):
    period, rs, lcz, lsft = _family_ratios(f)
    return {
        "isotropy_order": f.isotropy_order,
        "k": f.k,
        "ell": f.ell,
        "component_id": f.component_id,
        "period": period,
        "stratum_dim": f.stratum_dim,
        "rs": rs,
        "lcz": lcz,
        "z2": f.z2,
        "lsft": lsft,
    }


def cmd_md(args, out):
    data = _load_input(args.input)
    result = minimal_discrepancy(data.presentation)
    _emit(
        {
            "md": format_rational(result.md),
            "minimizers": [{"chart": label, "k": k} for label, k in result.minimizers],
            "capped_by_r": result.capped_by_r,
            "klt": result.klt,
            "diagnosis": result.diagnosis,
        },
        out,
        as_text=args.text,
    )
    return EXIT_OK


def cmd_orbits(args, out):
    data = _load_input(args.input)
    max_period = parse_rational(args.max_period)
    families = enumerate_families(tower_table(data.presentation), max_period)
    _emit([_family_dict(f) for f in families], out, as_text=args.text)
    return EXIT_OK


def cmd_cz(args, out):
    speeds = tuple(parse_rational(s) for s in args.speeds.split(",") if s.strip())
    path = DiagonalPath(speeds=speeds, duration=parse_rational(args.duration))
    bundle = index_bundle(path)
    _emit(
        {
            "rs": format_rational(bundle.rs),
            "lcz": format_rational(bundle.lcz),
            "kernel_half_dim": bundle.kernel_half_dim,
            "z2": bundle.z2,
        },
        out,
        as_text=args.text,
    )
    return EXIT_OK


def _e1_table(page):
    rows = []
    for key in page.keys_sorted():
        p_filtration, degree, z2 = key
        for entry in page.entries[key]:
            rows.append(
                {
                    "p": p_filtration,
                    "degree": format_rational(degree),
                    "z2": z2,
                    "rank": entry.rank,
                    "homology_degree": entry.homology_degree,
                    "family": _family_dict(entry.family),
                }
            )
    return rows


def cmd_e1(args, out):
    data = _load_input(args.input)
    page = assemble_e1(tower_table(data.presentation), parse_rational(args.max_degree))
    _emit(_e1_table(page), out, as_text=args.text)
    return EXIT_OK


def cmd_shmin(args, out):
    data = _load_input(args.input)
    pres = data.presentation
    table = tower_table(pres)
    floor_degree = inf_lsft(table) + 3 - pres.n
    page = assemble_e1(table, floor_degree + 1)
    profile = degenerate_ranks(page)
    _emit(
        {
            "min_degree": format_rational(profile.min_degree),
            "degenerate": profile.degenerate,
            "ranks": {
                format_rational(d): profile.ranks[d] for d in sorted(profile.ranks)
            },
        },
        out,
        as_text=args.text,
    )
    return EXIT_OK


def cmd_wps_cohomology(args, out):
    if args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative, got %d" % args.max_degree)
    weights = tuple(int(x) for x in args.weights.split(","))
    action = WeightedAction(weights)
    table = {
        str(k): str(wps_cohomology(action, k)) for k in range(0, args.max_degree + 1)
    }
    _emit(table, out, as_text=args.text)
    return EXIT_OK


def build_verification_report(data, engine_period=3):
    pres = data.presentation
    n = pres.n
    table = tower_table(pres)
    md_result = minimal_discrepancy(pres)
    inf_value = inf_lsft(table)
    floor_degree = inf_value + 3 - n
    page = assemble_e1(table, floor_degree + 1)
    sh_min = certify_min_degree(page).min_degree

    agree = data.weighted is None or engines_agree(table, data.weighted, engine_period)

    thm13 = (2 * md_result.md == inf_value) and (inf_value == sh_min + n - 3)
    return {
        "presentation": {
            "n": n,
            "r": format_rational(pres.r),
            "strata": len(pres.strata),
            "charts": len(pres.charts),
        },
        "md": format_rational(md_result.md),
        "inf_lsft": format_rational(inf_value),
        "sh_min_degree": format_rational(sh_min),
        "thm13_holds": thm13,
        "thm14_scenario": md_result.md == Fraction(n - 1),
        "shokurov_ok": md_result.md <= n - 1,
        "engines_agree": agree,
    }


def cmd_verify(args, out):
    data = _load_input(args.input)
    report = build_verification_report(data)
    _emit(report, out, as_text=args.text)
    if not (report["thm13_holds"] and report["engines_agree"]):
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_report(args, out):
    data = _load_input(args.input)
    pres = data.presentation
    max_degree = parse_rational(args.max_degree)
    if max_degree <= 0:
        raise ValueError("--max-degree must be positive, got %s" % args.max_degree)
    table = tower_table(pres)
    lines = []
    lines.append("presentation: n=%d r=%s strata=%d charts=%d" % (
        pres.n, format_rational(pres.r), len(pres.strata), len(pres.charts)))

    md_result = minimal_discrepancy(pres)
    lines.append("minimal discrepancy: %s (%s)" % (
        format_rational(md_result.md), md_result.diagnosis))
    if md_result.capped_by_r:
        lines.append("  minimum attained by the bare ratio term r")
    for label, k in md_result.minimizers:
        lines.append("  minimizer: chart %s, element k=%d" % (label, k))
    lines.append("inf lSFT: %s" % format_rational(inf_lsft(table)))

    lines.append("")
    lines.append("orbit families (period <= %s):" % format_rational(max_degree))
    lines.append("  %-10s %-4s %-4s %-8s %-8s %-8s %-8s" % (
        "|G|", "k", "ell", "period", "rs", "lcz", "lsft"))
    for f in enumerate_families(table, max_degree):
        lines.append("  %-10d %-4d %-4d %-8s %-8s %-8s %-8s" % (
            (f.isotropy_order, f.k, f.ell) + _family_ratios(f)))

    page = assemble_e1(table, max_degree)
    lines.append("")
    lines.append("E1 page entries (degree <= %s):" % format_rational(max_degree))
    lines.append("  %-6s %-10s %-4s %-6s %-4s" % ("p", "degree", "z2", "rank", "j"))
    for row in _e1_table(page):
        lines.append("  %-6d %-10s %-4d %-6d %-4d" % (
            row["p"], row["degree"], row["z2"], row["rank"], row["homology_degree"]))

    profile = degenerate_ranks(page) if page.entries else None
    lines.append("")
    if profile is None:
        lines.append("homology profile: empty page below the degree bound")
    elif profile.degenerate:
        lines.append("homology profile (page degenerates, ranks exact):")
        for degree in sorted(profile.ranks):
            lines.append("  degree %-10s rank %d" % (
                format_rational(degree), profile.ranks[degree]))
        if data.homology_sphere_link:
            expected = expected_sh_homology_ball(pres.n, max_degree)
            match = profile.ranks == expected
            lines.append("homology-ball oracle match: %s" % ("yes" if match else "NO"))
    else:
        lines.append("homology profile: min degree %s (page not monochromatic; "
                     "higher ranks not certified)" % format_rational(profile.min_degree))
    if args.json:
        _emit({"lines": lines}, out)
    else:
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fanocone",
        description="Exact invariants of isolated Fano cone singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("input", help="presentation file, or - for stdin")

    sp = sub.add_parser("md", help="minimal discrepancy")
    add_input(sp)
    sp.set_defaults(func=cmd_md)

    sp = sub.add_parser("orbits", help="orbit families up to a period")
    add_input(sp)
    sp.add_argument("--max-period", required=True)
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("cz", help="indices of a diagonal unitary path")
    sp.add_argument("--speeds", required=True, help="comma-separated rationals")
    sp.add_argument("--duration", required=True)
    sp.set_defaults(func=cmd_cz)

    sp = sub.add_parser("e1", help="first-page entries up to a degree")
    add_input(sp)
    sp.add_argument("--max-degree", required=True)
    sp.set_defaults(func=cmd_e1)

    sp = sub.add_parser("shmin", help="minimal nonzero homology degree")
    add_input(sp)
    sp.set_defaults(func=cmd_shmin)

    sp = sub.add_parser("wps-cohomology", help="weighted projective cohomology table")
    sp.add_argument("--weights", required=True, help="comma-separated integers")
    sp.add_argument("--max-degree", required=True, type=int)
    sp.set_defaults(func=cmd_wps_cohomology)

    sp = sub.add_parser("verify", help="run the full identity verification")
    add_input(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("report", help="human-readable summary")
    add_input(sp)
    sp.add_argument("--max-degree", required=True)
    sp.set_defaults(func=cmd_report)

    for name, sp in sub.choices.items():
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", default=False)
        group.add_argument("--text", action="store_true", default=False)
    return parser


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (SchemaError, InvalidPresentation, ValueError) as exc:
        err.write("error: %s\n" % exc)
        return EXIT_INPUT
    except MemoryError:
        # Exit 1 is kept for identity failures; an input this process cannot
        # hold is refused like any other it cannot process.
        err.write("error: out of memory\n")
        return EXIT_INPUT
    except CertificationError as exc:
        err.write("identity failure: %s\n" % exc)
        return EXIT_IDENTITY


if __name__ == "__main__":
    sys.exit(main())
