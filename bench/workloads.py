"""The benchmark's four workloads: seeded inputs, timed operations, checks.

Each workload is a fixed input set that one pass runs in full.  A workload
supplies four steps, which ``worker.py`` drives:

* ``setup()`` imports ``skpval`` and builds what every pass reuses; its
  time is the ``setup_s`` metric;
* ``inputs(ctx, seed)`` makes the operations of one pass from the seed
  (the benchmark's own work, timed nowhere);
* ``run(ctx, op)`` is one timed operation;
* ``check(ctx, op, out, previous)`` returns the problems found in one
  output (an empty list when it is right); ``previous`` is the same
  operation's output from the pass before, or None on the first pass.

``skpval`` is imported only inside ``setup()``, so the import is part of
the measured set-up, and operations call ``skpval`` through its module
attributes, so the traced run's wrappers see every call.
"""

import contextlib
import importlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / "tests" / "data"
REFS = BENCH / "refs"

# The polynomial supports and coefficients come from this fixed seed and
# never from --seed.  Single valuations differ in cost by more than 100x,
# so a fresh random set per seed would change the work of a pass by more
# than the bounds allow; --seed instead picks a unit multiplier for every
# polynomial and the order of the operations.
POOL_SEED = 8054056
COEFFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
Q_UNITS = (1, -1, 2, -2, 3, -3)


class Op:
    """One operation of a pass.

    ``known_fault`` marks the one operation that fails every time because
    of a named fault in the program; it stays in the workload and is
    counted as failed without making the run incorrect.
    """

    __slots__ = ("name", "args", "expected", "known_fault")

    def __init__(self, name, args, expected=None, known_fault=False):
        self.name = name
        self.args = args
        self.expected = expected
        self.known_fault = known_fault


def value_str(coords):
    return [str(Fraction(c)) for c in coords]


# -- value tables and the fixed polynomial pool ------------------------------


def example1_rows():
    """The three-variable table with two truncated limit entries.

    Row 2 holds blocks n = 0..2 of positions j = 1..4 with values
    (0, n+2, j); the limit entries (0, 3, 0) and (0, 4, 0) open blocks 1
    and 2.  Built with the default cutoff 32.
    """
    row2 = []
    labels = {}
    for n in range(3):
        if n > 0:
            row2.append((0, n + 2, 0))
            labels[(2, len(row2))] = n
        for j in range(1, 5):
            row2.append((0, n + 2, j))
    return [[(0, 0, 1)], [(0, 1, 0)], row2], labels


_EX1_ROWS, _EX1_LABELS = example1_rows()

# name: table rows, build options, and the pool's (count, max degree,
# max terms).  The two-variable tables give small working sets in
# adic_expand, example1 large ones.
TABLES = {
    "plane": {"rows": [[2], [3, 9, 10]], "pool": (30, 12, 5)},
    "swapped": {
        "rows": [[3], [2, 9, 10]],
        "thetas": {(1, 2): -1},
        "pool": (30, 12, 5),
    },
    "example2": {
        "rows": [[1], [Fraction(1, 2), Fraction(4, 3), Fraction(21, 5)]],
        "pool": (30, 12, 5),
    },
    "plane_gf7": {"rows": [[2], [3, 9, 10]], "prime": 7, "pool": (30, 12, 5)},
    "example1": {"rows": _EX1_ROWS, "labels": _EX1_LABELS, "pool": (30, 5, 5)},
}


def _nvars(spec):
    return len(spec["rows"])


def pool_polynomials(name):
    """The fixed polynomials of one table as {exponents: integer coeff}."""
    spec = TABLES[name]
    count, max_degree, max_terms = spec["pool"]
    nvars = _nvars(spec)
    vectors = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=nvars)
        if sum(e) <= max_degree
    ]
    rng = random.Random(POOL_SEED + list(TABLES).index(name))
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[rng.choice(vectors)] = rng.choice(COEFFS)
        out.append(terms)
    return out


def poly_text(terms):
    """Canonical text of a pool polynomial, written by the benchmark."""
    return " ".join(
        f"{c}@{','.join(map(str, e))}" for e, c in sorted(terms.items())
    )


def build_valuations(skpval):
    out = {}
    for name, spec in TABLES.items():
        field = skpval.GF(spec["prime"]) if "prime" in spec else skpval.QQ
        table = skpval.compute_relations(spec["rows"], limit_labels=spec.get("labels"))
        skp = skpval.build_skp(table, thetas=spec.get("thetas"), field=field)
        out[name] = skpval.SkpValuation(skp)
    return out


def load_refs(route):
    """Reference values made by ``route`` ("adic" or "euclid").

    Refuses a reference file whose polynomials are not today's pool, so a
    changed generator cannot pass against stale values.
    """
    with open(REFS / f"values_{route}.json") as fh:
        refs = json.load(fh)
    for name in TABLES:
        got = [entry["poly"] for entry in refs["pool"][name]]
        want = [poly_text(t) for t in pool_polynomials(name)]
        if got != want:
            raise RuntimeError(
                f"{REFS / f'values_{route}.json'} does not match the pool of "
                f"{name}; run python3 bench/make_refs.py"
            )
    return refs


class ValueWorkload:
    """Value every pool polynomial, times a seeded unit, by one route.

    The check compares with the value the *other* route gave for the
    unscaled polynomial: a unit multiplier does not change a valuation.
    """

    def __init__(self, route, check_route):
        self.route = route
        self.check_route = check_route

    def setup(self):
        import skpval

        return {
            "skpval": skpval,
            "valuation": skpval.valuation,
            "valuations": build_valuations(skpval),
        }

    def inputs(self, ctx, seed):
        refs = load_refs(self.check_route)
        MultiPoly = ctx["skpval"].MultiPoly
        rng = random.Random(seed)
        ops = []
        for name, spec in TABLES.items():
            val = ctx["valuations"][name]
            field = val.skp.field
            prime = spec.get("prime")
            for k, terms in enumerate(pool_polynomials(name)):
                unit = rng.randint(1, prime - 1) if prime else rng.choice(Q_UNITS)
                f = MultiPoly(
                    val.skp.nvars,
                    {e: field.of(c * unit) for e, c in terms.items()},
                    field,
                )
                expected = refs["pool"][name][k]["value"]
                ops.append(Op(f"{name}[{k}]*{unit}", (f, val), expected))
        rng.shuffle(ops)
        return ops

    def run(self, ctx, op):
        f, val = op.args
        if self.route == "adic":
            return ctx["valuation"].value_of(f, val)
        return ctx["valuation"].value_via_euclidean(f, val)

    def check(self, ctx, op, out, previous):
        got = value_str(out.coords)
        if got != op.expected:
            return [f"value {got}, {self.check_route} route gives {op.expected}"]
        return []


# -- realize and verify ----------------------------------------------------

# Generator sequences that meet the positivity and increasing conditions.
SEQUENCES = (
    ("4,6,13", [4, 6, 13]),
    ("6,9,19", [6, 9, 19]),
    ("4,10,21", [4, 10, 21]),
    ("8,12,26,53", [8, 12, 26, 53]),
    ("e1,e2", [(1, 0), (0, 1)]),
    ("e1,e2,(1/2,3/2)", [(1, 0), (0, 1), (Fraction(1, 2), Fraction(3, 2))]),
)
VERIFY = {"coeff_bound": 4, "degree_bound": 8, "samples": 200}
# verify_realization draws its containment samples from this seed; the
# seed of the run goes into the thetas instead (see RealizeWorkload.inputs)
VERIFY_SEED = 0
THETAS = (1, -1, 2, -2)


def as_vector(g):
    return tuple(Fraction(c) for c in (g if isinstance(g, tuple) else (g,)))


def combination(vecs, coeffs):
    """sum a_p g_p as a tuple of Fractions."""
    return tuple(sum(a * v[k] for a, v in zip(coeffs, vecs)) for k in range(len(vecs[0])))


def semigroup_ball(vecs, coeff_bound):
    """{sum a_p g_p : a_p >= 0, sum a_p <= coeff_bound}, by plain loops."""
    return {
        combination(vecs, coeffs)
        for coeffs in itertools.product(range(coeff_bound + 1), repeat=len(vecs))
        if sum(coeffs) <= coeff_bound
    }


def rank_of(gens):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [list(as_vector(g)) for g in gens]
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                q = rows[r][col] / rows[rank][col]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_realization(gens, bounds, report, verdict, value_of_text):
    """Problems in one realize-and-verify result (empty when right).

    ``value_of_text`` values a witness polynomial from its text by a route
    other than the one ``verify_realization`` used.
    """
    vecs = [as_vector(g) for g in gens]
    K = bounds["coeff_bound"]
    problems = []
    if not verdict.passed:
        problems.append("verdict did not pass")
    attained = {tuple(Fraction(c) for c in g.coords) for g, _, _ in verdict.attainment}
    ball = semigroup_ball(vecs, K)
    if attained != ball:
        missing = sorted(ball - attained)
        extra = sorted(attained - ball)
        problems.append(f"attained set differs: missing {missing}, extra {extra}")
    for gamma, witness, text in verdict.attainment:
        coeffs = tuple(witness)
        value = value_of_text(text)
        gamma = tuple(Fraction(c) for c in gamma.coords)
        if (
            len(coeffs) != len(vecs)
            or any(a < 0 for a in coeffs)
            or sum(coeffs) > K
            or combination(vecs, coeffs) != gamma
        ):
            problems.append(f"witness {coeffs} does not sum to {gamma}")
        if tuple(Fraction(c) for c in value.coords) != gamma:
            problems.append(f"witness {text} has value {value}, not {gamma}")
    if verdict.containment_checked != bounds["samples"]:
        problems.append(f"checked {verdict.containment_checked} samples")
    rank = rank_of(gens)
    if report["r_rk"] != rank:
        problems.append(f"r_rk {report['r_rk']}, rank is {rank}")
    return problems


class RealizeWorkload:
    """``realize`` in corrected mode, then ``verify_realization``."""

    def setup(self):
        import skpval

        # the package attribute skpval.realize is the function, not the module
        return {
            "skpval": skpval,
            "realize": importlib.import_module("skpval.realize"),
            # witness values by the Euclidean route, per (operation, text)
            "witness_values": {},
        }

    def inputs(self, ctx, seed):
        # the seed picks the nonzero scale factors theta of the key
        # polynomials; they change the polynomials but not the semigroup.
        # Indices outside the realized table are ignored by build_skp.
        rng = random.Random(seed)
        ops = []
        for name, gens in SEQUENCES:
            spec = ctx["skpval"].SemigroupSpec(gens, **VERIFY)
            thetas = {
                (i, j): rng.choice(THETAS)
                for i in range(len(gens))
                for j in range(1, len(gens) + 1)
            }
            ops.append(Op(name, (spec, thetas, gens)))
        rng.shuffle(ops)
        return ops

    def run(self, ctx, op):
        spec, thetas, _ = op.args
        mod = ctx["realize"]
        result = mod.realize(spec, "corrected", thetas)
        verdict = mod.verify_realization(
            result.valuation, spec, result.blocks, seed=VERIFY_SEED, **VERIFY
        )
        return result.report, verdict, result.valuation

    def check(self, ctx, op, out, previous):
        report, verdict, valuation = out
        skp = valuation.skp
        cache = ctx["witness_values"]

        def value_of_text(text):
            # the same operation gives the same key polynomials in every
            # pass of a process, so each witness is valued once
            if (op.name, text) not in cache:
                f = ctx["skpval"].parse_poly(text, skp.nvars, skp.field)
                cache[op.name, text] = ctx["skpval"].value_via_euclidean(f, valuation)
            return cache[op.name, text]

        return check_realization(op.args[2], VERIFY, report, verdict, value_of_text)


# -- the command line over tests/data ----------------------------------------

STATUS = {0: "ok", 1: "invalid", 2: "error"}

# skp problem files: two polynomials each and the top-row cutoff for delta
SKP_FILES = {
    "remark_diffskp.json": (("X1^2 - X0^3", "X1^4 - 2*X0^3*X1^2 + X0^6 - X0^5*X1"), 3),
    "swapped_diffskp.json": (("X0^2 - X1^3", "(X0 + X1)^5"), 3),
    "example2.json": (("X1^6 - X0^3", "X1^2 - X0 + X0^2*X1"), 3),
    "example1_tail.json": (("X2^2 - X0*X1^3", "X2 + X1^2*X0"), 2),
}
# The exit code the README documents for each other input: bad_increase
# breaks the growth condition (1, domain failure), empty_rows has no rows
# (2, malformed input), the literal mode rejects (4, 6, 13) because an
# infinite index lands at an interior position (1).
TABLE_FILES = {"bad_increase.json": 1, "empty_rows.json": 2}
REALIZE_FILES = {
    "gamma_4_6_13.json": {"literal": 1, "corrected": 0},
    "free_pair.json": {"literal": 0, "corrected": 0},
}
CLASSIFY_FILES = ("classify_vii.json",)
# X0 inside 300 nested parentheses: well formed, value 2 on the plane-curve
# table.  The parser recurses four frames per parenthesis and fails with
# RecursionError, reported as an internal error with exit 1.
NESTED_POLY = "(" * 300 + "X0" + ")" * 300
NESTED_VALUE = ["2"]


def cli_eval_cases():
    """(file, polynomial text) of every eval with a reference value."""
    return [(f, p) for f, (polys, _) in SKP_FILES.items() for p in polys]


def cli_commands(seed):
    """Every command of a cli_corpus pass, as Ops with expected exit codes.

    The seed picks a unit multiplier for each polynomial, the value of the
    global --seed flag, and the order of the commands.
    """
    rng = random.Random(seed)
    ops = []

    def add(name, argv, code, ref=None):
        ops.append(Op(name, ["--seed", str(seed)] + argv, (code, ref)))

    for fname, (polys, j) in SKP_FILES.items():
        path = str(DATA / fname)
        add(f"validate {fname}", ["validate", path], 0)
        add(f"build {fname}", ["build", path], 0)
        add(f"build --minimal {fname}", ["build", "--minimal", path], 0)
        add(f"classify {fname}", ["classify", path], 0)
        for p in polys:
            scaled = f"({rng.choice(Q_UNITS)})*({p})"
            add(f"eval {fname} {p}", ["eval", "--skp", path, "--poly", scaled], 0, (fname, p))
        p = f"({rng.choice(Q_UNITS)})*({polys[1]})"
        add(f"expand {fname}", ["expand", path, "--poly", p], 0)
        add(f"initial {fname}", ["initial", "--skp", path, "--poly", p], 0)
        add(f"delta {fname}", ["delta", "--skp", path, "--poly", p, "--j", str(j)], 0)
        add(f"normal-form {fname}", ["normal-form", "--skp", path, "--poly", p], 0)
    for fname, code in TABLE_FILES.items():
        path = str(DATA / fname)
        add(f"validate {fname}", ["validate", path], code)
        add(f"build {fname}", ["build", path], code)
        add(f"build --minimal {fname}", ["build", "--minimal", path], code)
        add(f"classify {fname}", ["classify", path], code)
    for fname, modes in REALIZE_FILES.items():
        for mode, code in modes.items():
            add(f"realize {mode} {fname}", ["realize", "--mode", mode, str(DATA / fname)], code)
    for fname in CLASSIFY_FILES:
        add(f"classify {fname}", ["classify", str(DATA / fname)], 0)
    # fixed input, independent of the seed
    ops.append(
        Op(
            "eval nested parentheses",
            ["eval", "--skp", str(DATA / "remark_diffskp.json"), "--poly", NESTED_POLY],
            None,
            known_fault=True,
        )
    )
    rng.shuffle(ops)
    return ops


def check_cli(op, code, text, previous, refs):
    """Problems in one CLI report (empty when right)."""
    try:
        report, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return ["report is not JSON"]
    if text[end:].strip():
        return ["report holds more than one JSON document"]
    problems = []
    if previous is not None and previous[1] != text:
        problems.append("report bytes differ between two invocations")
    if op.known_fault:
        value = (report.get("result") or {}).get("value")
        parse_error = code == 2 and report.get("status") == "error" and any(
            d.get("kind") != "internal" for d in report.get("diagnostics", [])
        )
        if not (code == 0 and value == NESTED_VALUE) and not parse_error:
            problems.append(f"exit {code}, diagnostics {report.get('diagnostics')}")
        return problems
    want_code, ref = op.expected
    if code != want_code:
        problems.append(f"exit {code}, documented {want_code}")
    if report.get("status") != STATUS.get(want_code):
        problems.append(f"status {report.get('status')!r}")
    if ref is not None and code == 0:
        got = (report.get("result") or {}).get("value")
        want = refs["cli_eval"]["|".join(ref)]
        if got != want:
            problems.append(f"value {got}, reference {want}")
    return problems


class CliWorkload:
    """In-process ``run_command`` over every tests/data problem."""

    def setup(self):
        import skpval.cli

        problems = {}
        for path in sorted(DATA.glob("*.json")):
            with open(path, "rb") as fh:
                problems[path.name] = json.loads(fh.read())
        return {"cli": skpval.cli, "problems": problems}

    def inputs(self, ctx, seed):
        ops = cli_commands(seed)
        covered = {Path(a).name for op in ops for a in op.args if a.endswith(".json")}
        if covered != set(ctx["problems"]):
            raise RuntimeError(
                f"tests/data problems without a command: {set(ctx['problems']) - covered}"
            )
        ctx["refs"] = load_refs("euclid")
        return ops

    def run(self, ctx, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = ctx["cli"].run_command(op.args)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, ctx, op, out, previous):
        return check_cli(op, out[0], out[1], previous, ctx["refs"])


WORKLOADS = {
    "adic_values": ValueWorkload("adic", "euclid"),
    "euclid_values": ValueWorkload("euclid", "adic"),
    "realize_verify": RealizeWorkload(),
    "cli_corpus": CliWorkload(),
}
