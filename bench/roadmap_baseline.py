"""Reproduce the baseline timings that ROADMAP.md item 1 quotes.

    python3 bench/roadmap_baseline.py

* example1 (cutoff 32): 70 polynomials of degree <= 5 from
  skpval.realize.random_polynomial with random.Random(7), valued by
  value_of and by value_via_euclidean;
* (X0 + X1)^k on the plane-curve table [[2], [3, 9, 10]] for k = 10, 20,
  by adic_expand and by value_via_euclidean.

These inputs come from the program's own generator, as in the ROADMAP
measurement; the benchmark workloads use their own (see workloads.py).
Each figure is one timing, so it carries the host drift README.md
describes.
"""

import random
import sys
from time import perf_counter

from workloads import ROOT, build_valuations

sys.path.insert(0, str(ROOT / "src"))

import skpval  # noqa: E402
from skpval.realize import random_polynomial  # noqa: E402


def timed(fn, items):
    t0 = perf_counter()
    out = [fn(x) for x in items]
    return perf_counter() - t0, out


def main():
    vals = build_valuations(skpval)
    ex1 = vals["example1"]
    rng = random.Random(7)
    polys = [random_polynomial(rng, ex1.skp.nvars, 5) for _ in range(70)]
    t_adic, a = timed(lambda f: skpval.value_of(f, ex1), polys)
    t_eucl, e = timed(lambda f: skpval.value_via_euclidean(f, ex1), polys)
    assert a == e, "routes disagree"
    print(f"example1, 70 polynomials, seed 7: value_of {t_adic:.2f} s, "
          f"value_via_euclidean {t_eucl:.2f} s")
    plane = vals["plane"]
    for k in (10, 20):
        f = skpval.parse_poly(f"(X0 + X1)^{k}", 2)
        t_adic, _ = timed(lambda g: skpval.adic_expand(g, plane.skp), [f])
        t_eucl, _ = timed(lambda g: skpval.value_via_euclidean(g, plane), [f])
        print(f"(X0 + X1)^{k}: adic_expand {t_adic:.3f} s, "
              f"value_via_euclidean {t_eucl:.3f} s")


if __name__ == "__main__":
    main()
