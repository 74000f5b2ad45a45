"""Make the benchmark's reference value files anew.

    python3 bench/make_refs.py

Writes bench/refs/values_adic.json (values by ``value_of``, the adic
route) and bench/refs/values_euclid.json (values by
``value_via_euclidean``).  Each value workload checks its outputs against
the file of the other route; cli_corpus checks its eval reports against
the Euclidean file.  Polynomials on which the two routes disagree are
listed on standard error.
"""

import json
import sys

from workloads import (
    DATA,
    REFS,
    ROOT,
    TABLES,
    build_valuations,
    cli_eval_cases,
    poly_text,
    pool_polynomials,
    value_str,
)

sys.path.insert(0, str(ROOT / "src"))

import skpval  # noqa: E402
from skpval import jsonio  # noqa: E402
from skpval.valuation import value_of, value_via_euclidean  # noqa: E402

ROUTES = {"adic": value_of, "euclid": value_via_euclidean}


def main():
    valuations = build_valuations(skpval)
    out = {route: {"route": fn.__name__, "pool": {}, "cli_eval": {}} for route, fn in ROUTES.items()}
    disagree = 0
    for name in TABLES:
        val = valuations[name]
        field = val.skp.field
        for route in ROUTES:
            out[route]["pool"][name] = []
        for terms in pool_polynomials(name):
            f = skpval.MultiPoly(val.skp.nvars, {e: field.of(c) for e, c in terms.items()}, field)
            got = {route: value_str(fn(f, val).coords) for route, fn in ROUTES.items()}
            if got["adic"] != got["euclid"]:
                disagree += 1
                print(f"routes disagree on {name} {poly_text(terms)}: {got}", file=sys.stderr)
            for route, value in got.items():
                out[route]["pool"][name].append({"poly": poly_text(terms), "value": value})
    for fname, text in cli_eval_cases():
        with open(DATA / fname) as fh:
            skp = jsonio.build_from_problem(json.load(fh))
        val = skpval.SkpValuation(skp)
        f = skpval.parse_poly(text, skp.nvars, skp.field)
        for route, fn in ROUTES.items():
            out[route]["cli_eval"][f"{fname}|{text}"] = value_str(fn(f, val).coords)
    REFS.mkdir(exist_ok=True)
    for route, payload in out.items():
        with open(REFS / f"values_{route}.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(out)} reference files, {disagree} disagreements")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
