"""Command-line interface.

Subcommands:
  build    construct a generator pair and print it (optionally with tau)
  verify   run registered claims (glob filter) and print a JSON report
  search   list admissible parameters a for a lemma over F_q
  certify  run the default generation certificate for (n, q)
  fields   list the bundled finite-field moduli

`--a` accepts a prime-field integer or "minpoly:c0,c1,..." naming the
ascending coefficients of the minimal polynomial of a over F_p.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import claims as _claims
from .construct import RECIPES, build, tau_of
from .errors import BadParam, SympgenError, UnknownClaim
from .gf import bundled_moduli, modulus_for, standard_field
from .grouporder import Certificate


def _parse_a(spec: str):
    try:
        if spec.startswith("minpoly:"):
            coeffs = tuple(int(c) for c in spec[len("minpoly:"):].split(","))
            return ("minpoly", coeffs)
        return int(spec)
    except ValueError:
        raise BadParam(f"bad --a {spec!r}: want an int or minpoly:c0,c1,...") from None


def _field_for(q: int, aspec, tag=None):
    field = standard_field(q, tag)
    a = _claims._resolve_a(field, aspec)
    return field, a


def _mat_json(m):
    return m.rows_raw()


def cmd_build(args) -> int:
    aspec = _parse_a(args.a)
    field, a = _field_for(args.q, aspec)
    pair = build(args.recipe, args.n, args.q, a, field)
    out = {
        "n": pair.n, "q": pair.q, "recipe": pair.recipe,
        "field": field.spec_string,
        "a": field.elem_string(a.val),
        "x": _mat_json(pair.x), "y": _mat_json(pair.y),
        "valid": pair.validate() is pair,
    }
    if args.dump_tau:
        out["tau"] = _mat_json(tau_of(pair))
    print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    return 0


def cmd_verify(args) -> int:
    results = _claims.run_all(args.filter)
    if not results:  # a mistyped filter must not read as a pass
        raise UnknownClaim(f"no claim matches {args.filter!r}")
    print(_claims.report_json(results, stable=not args.timings))
    return 1 if any(r.status == "Fail" for r in results) else 0


def cmd_search(args) -> int:
    field = standard_field(args.q)
    found = _claims.search_parameter(args.lemma, args.q, field)
    out = {"lemma": args.lemma, "q": args.q,
           "field": field.spec_string,
           "admissible": [field.elem_string(b.val) for b in found],
           "count": len(found)}
    print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    return 0


def cmd_certify(args) -> int:
    aspec = _parse_a(args.a) if args.a is not None else None
    cert = _claims.certify_pair(args.n, args.q, aspec)
    out = {"n": args.n, "q": args.q, "words": "default",
           "certificate": cert.value}
    print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    return 0 if cert == Certificate.Certified else 1


def cmd_fields(args) -> int:
    entries = [{"q": q, "tag": tag, "modulus": list(modulus_for(q, tag))}
               for q, tag in bundled_moduli()]
    print(json.dumps(entries, sort_keys=True, separators=(",", ":")))
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sympgen",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a generator pair")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--a", required=True)
    b.add_argument("--recipe", default="general", choices=RECIPES)
    b.add_argument("--dump-tau", action="store_true")
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run registered claims")
    v.add_argument("filter", nargs="?", default="*")
    v.add_argument("--timings", action="store_true",
                   help="include real wall times (report no longer byte-stable)")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("search", help="admissible a for a lemma over F_q")
    s.add_argument("--lemma", required=True)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(fn=cmd_search)

    c = sub.add_parser("certify", help="generation certificate for (n, q)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--a", default=None)
    c.set_defaults(fn=cmd_certify)

    f = sub.add_parser("fields", help="list bundled field moduli")
    f.set_defaults(fn=cmd_fields)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SympgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
