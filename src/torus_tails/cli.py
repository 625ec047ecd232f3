"""Command-line front-end.

Subcommands mirror the library surface: jones, degree, tail, stable-coeffs,
kostant, plethysm, summation-set, missing-points, minimizer, selftest.
Machine-readable output embeds the run configuration, the library version and
the global exponent denominator, and is byte-stable for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

from . import __version__
from .jones import (JonesError, TorusKnot, colored_jones,
                    minimizer_bruteforce, minimizer_closed_form,
                    quadratic_forms)
from .kostant import kostant, kostant_dp
from .lie import LieError, RootSystem, Weight, get_root_system
from .mult import lattice_hull, plethysm_mult, summation_set
from .qseries import SeriesDivisionError, TruncatedSeries
from .stability import (detect_jones_tail, jones_family, stable_coefficients,
                        tail_closed_T2b, tail_closed_T4b,
                        tail_eval_stable_limit)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INCONSISTENT = 3


@dataclass
class RunConfig:
    command: str
    algebra: Optional[str] = None
    knot: Optional[tuple[int, int]] = None
    ray: Optional[tuple[int, ...]] = None
    n: Optional[int] = None
    n_max: Optional[int] = None
    x_order: Optional[int] = None
    q_order: Optional[int] = None
    k_max: Optional[int] = None
    method: Optional[str] = None
    output: str = "json"


def _parse_ints(text: str, count: int) -> tuple[int, ...]:
    parts = [int(p.strip()) for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"expected {count} coordinates, got {text!r}")
    return tuple(parts)


# The package runs A1 as A1 x A1, its color (n) as (n, 0): the command line
# reads and writes an A1 weight, or root coordinates, as the first factor's
# one coordinate.
def _shown(rs: RootSystem, mu: Weight) -> Weight:
    return tuple(mu[:1] if rs.name == "A1" else mu)


def _parse_weight(text: str, rs: RootSystem) -> Weight:
    parts = _parse_ints(text, len(_shown(rs, rs.rho)))
    return parts + (0,) * (rs.rank - len(parts))


def _parse_ray(text: str, rs: RootSystem) -> Weight:
    """'rho' (every coordinate 1) or the ray's coordinates."""
    return _parse_weight(",".join(map(str, _shown(rs, rs.rho)))
                         if text == "rho" else text, rs)


def _color(args) -> tuple[RootSystem, Weight, RunConfig]:
    """The root system, --lambda as the package takes it, and the config."""
    rs = get_root_system(args.algebra)
    lam = _parse_weight(args.lam, rs)
    return rs, lam, RunConfig(args.command, rs.name, ray=_shown(rs, lam),
                              output=args.format)


def _knot_request(args, parse_ray, **fields
                  ) -> tuple[RootSystem, TorusKnot, Weight, RunConfig]:
    """The root system, the knot, the ray as parse_ray reads it for the
    package, and the config with the command's own fields, read in that
    order (so a bad request reports its first bad part)."""
    rs = get_root_system(args.algebra)
    knot = TorusKnot(*_parse_ints(args.knot, 2))
    ray = parse_ray(args.ray, rs)
    return rs, knot, ray, RunConfig(args.command, rs.name, (knot.a, knot.b),
                                    _shown(rs, ray), output=args.format,
                                    **fields)


# terms per json.dumps call when a series' terms list is written out
TERMS_CHUNK = 4096


def _emit(doc: dict, cfg: RunConfig, denom: int = 1) -> None:
    """Write doc with the run's config, version and denom as one line of
    sorted-key JSON.

    The one ``TruncatedSeries`` a document can hold, ``cmd_jones``'s
    polynomial, is written as its ``to_json_obj``, but its terms list never
    exists whole: the document is encoded with a one-NUL placeholder string
    in its place, and the terms are written there TERMS_CHUNK at a time.
    Every piece goes through json.dumps, which runs the C encoder (json.dump
    to a stream never does), with the same separators, so the bytes are
    those of one json.dumps.
    """
    doc = {"config": {k: v for k, v in asdict(cfg).items() if v is not None},
           "version": __version__, "denom": denom, **doc}
    series: list[TruncatedSeries] = []

    def encode(obj):
        assert isinstance(obj, TruncatedSeries), \
            f"no JSON form for {type(obj).__name__} {obj!r}"
        assert not series, "a document holds one series"
        series.append(obj)
        head = TruncatedSeries(obj.denom, order=obj.order).to_json_obj()
        head["terms"] = "\0"
        return head

    before, _, after = json.dumps(doc, sort_keys=True, default=encode
                                  ).partition('"\\u0000"')
    out = sys.stdout
    out.write(before)
    for s in series:
        out.write("[")
        for j in range(0, len(s.exps), TERMS_CHUNK):
            chunk = TruncatedSeries(s.denom, s.exps[j:j + TERMS_CHUNK],
                                    s.coeffs[j:j + TERMS_CHUNK])
            out.write((", " if j else "")
                      + json.dumps(chunk.to_json_obj()["terms"])[1:-1])
        out.write("]")
    out.write(after + "\n")


def _keep(series: TruncatedSeries) -> TruncatedSeries:
    """Leaves a series in its document, for ``_emit`` to write."""
    return series


def _emit_csv(rows, header: Sequence[str]) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(str(x) for x in row) + "\n")


def cmd_jones(args) -> int:
    rs, knot, ray, cfg = _knot_request(args, _parse_weight, n=args.n)
    lam = tuple(args.n * c for c in ray)
    res = colored_jones(rs, knot, lam)
    if args.format == "csv":
        p = res.polynomial
        _emit_csv(((e, p.denom, c) for e, c in zip(p.exps, p.coeffs)),
                  ("exponent_numerator", "denom", "coefficient"))
    else:
        doc = res.to_json_obj(series=_keep)
        doc["lambda"] = _shown(rs, res.lam)
        _emit({"result": doc}, cfg, res.polynomial.denom)
    return EXIT_OK


def cmd_degree(args) -> int:
    rs, knot, ray, cfg = _knot_request(args, _parse_weight, n_max=args.n_max)
    rows = []
    for n in range(0, args.n_max + 1):
        lam = tuple(n * c for c in ray)
        f_star, f_max = quadratic_forms(rs, knot, lam)
        mu = minimizer_closed_form(rs, lam, knot.a)
        rows.append({"n": n, "minimizer": _shown(rs, mu),
                     "delta_star": str(f_star(mu)),
                     "delta": str(f_max(tuple(knot.a * c for c in lam)))})
    _emit({"degrees": rows}, cfg)
    return EXIT_OK


def cmd_tail(args) -> int:
    rs, knot, ray, cfg = _knot_request(
        args, _parse_ray, n_max=args.n_max, x_order=args.x_order,
        q_order=args.q_order, method=args.method)
    if args.method == "closed":
        closed = {(2, (1, 0)): tail_closed_T2b, (4, (1, 1)): tail_closed_T4b}
        fn = closed.get((knot.a, ray)) if rs.name == "A2" else None
        if fn is None:
            shown = ",".join(map(str, _shown(rs, ray)))
            print(f"no closed tail for {rs.name} {knot} on ray {shown}: "
                  f"closed forms exist for A2 T(2,b) on 1,0 and A2 T(4,b) "
                  f"on rho", file=sys.stderr)
            return EXIT_BAD_INPUT
        tail = fn(knot.b, args.x_order, args.q_order)
        if fn is tail_closed_T2b and args.n0 % 2:
            # the T(2,b) tail is the even class's; the odd class has -1 times
            tail = replace(tail.scale(-1), residue=(1, 2))
    elif args.method == "stable-limit":
        tail = tail_eval_stable_limit(rs, knot, ray, args.n0, args.x_order,
                                      args.q_order, args.n_max)
    else:
        tail = detect_jones_tail(rs, knot, ray, args.n0, args.n_max,
                                 args.x_order, args.q_order)
    _emit({"tail": tail.to_json_obj()}, cfg)
    return EXIT_OK


def cmd_stable_coeffs(args) -> int:
    rs, knot, ray, cfg = _knot_request(args, _parse_ray, n_max=args.n_max,
                                       k_max=args.k_max)
    if args.k_max < 0:
        raise ValueError("--k-max must be >= 0")
    # a_k(n) for k <= k_max lies below q^(k_max+1)
    fam = jones_family(rs, knot, ray, range(1, args.n_max + 1),
                       order=args.k_max + 1)
    table = stable_coefficients(fam, args.k_max)
    if args.format == "csv":
        _emit_csv(((k, n, v) for (k, n), v in sorted(table.items())),
                  ("k", "n", "a_k"))
    else:
        _emit({"coefficients": [[k, n, v]
                                for (k, n), v in sorted(table.items())]}, cfg)
    return EXIT_OK


def cmd_kostant(args) -> int:
    rs = get_root_system(args.algebra)
    alpha = _parse_weight(args.alpha, rs)
    cfg = RunConfig("kostant", rs.name, output=args.format)
    _emit({"alpha": _shown(rs, alpha), "closed": kostant(rs, alpha),
           "dp": kostant_dp(rs, alpha)}, cfg)
    return EXIT_OK


def cmd_plethysm(args) -> int:
    rs, lam, cfg = _color(args)
    mu = _parse_weight(args.mu, rs)
    _emit({"lambda": cfg.ray, "a": args.a, "mu": _shown(rs, mu),
           "multiplicity": plethysm_mult(rs, lam, args.a, mu)}, cfg)
    return EXIT_OK


def cmd_summation_set(args) -> int:
    rs, lam, cfg = _color(args)
    s = sorted(summation_set(rs, lam, args.a).items())
    _emit({"lambda": cfg.ray, "a": args.a,
           "set": [[_shown(rs, mu), m] for mu, m in s
                   if m or not args.drop_zero]}, cfg)
    return EXIT_OK


def cmd_missing_points(args) -> int:
    rs, lam, cfg = _color(args)
    # R = hull points minus S, each built once
    s = summation_set(rs, lam, args.a)
    hull = lattice_hull(rs, lam, args.a).points()
    _emit({"lambda": cfg.ray, "a": args.a, "hull_size": len(hull),
           "missing": [_shown(rs, mu) for mu in hull if mu not in s]}, cfg)
    return EXIT_OK


def cmd_minimizer(args) -> int:
    rs, lam, cfg = _color(args)
    table = minimizer_closed_form(rs, lam, args.a)
    brute = minimizer_bruteforce(rs, lam, args.a)
    if table != brute:
        print(f"minimizer cross-check failed: table {_shown(rs, table)} vs "
              f"brute {_shown(rs, brute)}", file=sys.stderr)
        return EXIT_INCONSISTENT
    _emit({"lambda": cfg.ray, "a": args.a, "minimizer": _shown(rs, table)},
          cfg)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selfcheck import run_selftest     # only this command needs it
    cfg = RunConfig("selftest", method=args.filter, output=args.format)
    reports = run_selftest(args.filter)
    if args.format == "json":
        stripped = [{k: v for k, v in r.items() if k != "seconds"}
                    for r in reports]
        _emit({"reports": stripped,
               "ok": all(r["ok"] for r in reports)}, cfg)
    else:
        width = max(len(r["name"]) for r in reports) if reports else 10
        for r in reports:
            status = "PASS" if r["ok"] else "FAIL"
            print(f"{r['name']:<{width}}  {status}  {r['seconds']:>8.2f}s")
            if not r["ok"]:
                print(f"    {r['detail']}")
    if not reports:
        print("no checks matched the filter", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK if all(r["ok"] for r in reports) else EXIT_FAILURE


LAMBDA_HELP = "highest weight c1,c2, or c1 for A1"
KNOT_HELP = "a,b (2<=a<b coprime)"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torus-tails",
        description="Exact colored Jones polynomials of torus knots for "
                    "rank <= 2 simple Lie algebras, and their stable tails.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats):
        sp.add_argument("--algebra", required=True,
                        help="A1, A2, B2 or G2 (case-insensitive)")
        sp.add_argument("--knot", required=True, help=KNOT_HELP)
        sp.add_argument("--lambda", dest="ray", required=True,
                        help="ray coefficients c1,c2, or c1 for A1 (the "
                             "color is n times the ray)")
        sp.add_argument("--format", choices=formats, default="json")

    def color(name, summary, fn, *flags):
        """A command on a color: --algebra, --lambda and --a, then each
        (option, keywords) of flags, then --format."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--algebra", required=True)
        sp.add_argument("--lambda", dest="lam", required=True,
                        help=LAMBDA_HELP)
        sp.add_argument("--a", type=int, required=True)
        for option, keywords in flags:
            sp.add_argument(option, **keywords)
        sp.add_argument("--format", choices=("json",), default="json")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("jones", help="one colored Jones polynomial")
    common(sp, ("json", "csv"))
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=cmd_jones)

    sp = sub.add_parser("degree", help="q-degrees along a ray")
    common(sp, ("json",))
    sp.add_argument("--n-max", type=int, default=10)
    sp.set_defaults(fn=cmd_degree)

    sp = sub.add_parser("tail", help="tail of a colored Jones family")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--knot", required=True, help=KNOT_HELP)
    sp.add_argument("--ray", default="rho",
                    help="'rho' or ray coefficients c1,c2, or c1 for A1")
    sp.add_argument("--method", choices=("detect", "stable-limit", "closed"),
                    default="closed")
    sp.add_argument("--x-order", type=int, default=2)
    sp.add_argument("--q-order", type=int, default=60)
    sp.add_argument("--n-max", type=int, default=30)
    sp.add_argument("--n0", type=int, default=1,
                    help="residue class representative")
    sp.add_argument("--format", choices=("json",), default="json")
    sp.set_defaults(fn=cmd_tail)

    sp = sub.add_parser("stable-coeffs", help="a_k(n) table for a family")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--knot", required=True, help=KNOT_HELP)
    sp.add_argument("--ray", default="rho")
    sp.add_argument("--n-max", type=int, default=20)
    sp.add_argument("--k-max", type=int, default=10)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_stable_coeffs)

    sp = sub.add_parser("kostant", help="Kostant partition function value")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--alpha", required=True,
                    help="root coordinates u,v, or u for A1")
    sp.add_argument("--format", choices=("json",), default="json")
    sp.set_defaults(fn=cmd_kostant)

    color("plethysm", "one plethysm multiplicity", cmd_plethysm,
          ("--mu", {"required": True}))
    color("summation-set", "S_{lambda,a} with multiplicities",
          cmd_summation_set, ("--drop-zero", {"action": "store_true"}))
    color("missing-points", "hull points outside S", cmd_missing_points)
    color("minimizer", "closed-form vs brute-force minimizer", cmd_minimizer)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--filter", default=None,
                    help="substring of a check key (e.g. 'kostant')")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (JonesError, SeriesDivisionError) as exc:
        # ValueError subclasses, but they report an internal inconsistency
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, LieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AssertionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
