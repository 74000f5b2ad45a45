import contextlib
import functools
import io
import itertools
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from skpval import (
    GF,
    GroupValue,
    IterationCapError,
    NotMonicError,
    SemigroupSpec,
    SkpValuation,
    ZeroPolyError,
    build_skp,
    compute_relations,
    delta_of,
    initial_form,
    jsonio,
    minimal_pseudo_skp,
    value_of,
    value_via_euclidean,
)
from skpval import expansion
from skpval import skp as skp_module
from skpval.cli import run_command
from skpval.expansion import AdicExpansion
from skpval.fields import QQ
from skpval.ordgroup import analyze_chain
from skpval.realize import random_polynomial, realize
from skpval.skp import KeyProducts, SkpEntry, SkpTable
from skpval.valtable import TableEntry, enumerate_semigroup, table_from_chain

# every @given test draws the same examples on every run
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

DATA = Path(__file__).parent / "data"

# a mutation's value that deletes its key
ABSENT = object()

# the most characters of a schema message, the paths it names aside
MESSAGE_LIMIT = 120


def problem(name, **changes):
    """The problem in ``tests/data/name`` with the top-level ``changes`` set."""
    data = json.loads((DATA / name).read_text())
    data.update(changes)
    return data


def nested(depth):
    """A stand-in for ``depth`` nested arrays around "2", which
    ``write_problem`` writes out: the json module cannot encode or copy a
    tree that deep."""
    return f"<nest {depth}>"


def at(data, path):
    """The container and the key that a dotted key path names in ``data``."""
    *outer, last = path.split(".")
    for key in outer:
        data = data[int(key) if isinstance(data, list) else key]
    return data, int(last) if isinstance(data, list) else last


def write_problem(directory, problem, mutation=None, name="problem.json", sort_keys=True):
    """Write ``problem``, a tests/data file name or a dict, to
    ``directory/name`` and return the path.  ``mutation`` maps a key path
    (dict keys and list indices joined with ".") to the value set there in
    a copy of the problem; the value ABSENT deletes the key.  The keys are
    written sorted, or in the problem's own order where ``sort_keys`` is
    false."""
    text = (DATA / problem).read_text() if isinstance(problem, str) else json.dumps(problem)
    data = json.loads(text)  # a copy: a mutation leaves ``problem`` as it is
    for path, value in (mutation or {}).items():
        container, key = at(data, path)
        if value is ABSENT:
            container.pop(key, None)
        else:
            container[key] = value
    text = re.sub(
        r'"<nest (\d+)>"',
        lambda m: "[" * int(m[1]) + '"2"' + "]" * int(m[1]),
        json.dumps(data, indent=2, sort_keys=sort_keys),
    )
    path = Path(directory) / name
    path.write_text(text)
    return path


CliRun = namedtuple("CliRun", "code report text")


def run_cli(*argv, code=None, kind=None, message=None):
    """Run the command line in process on ``argv`` (each item as a str),
    check what every run owes the 0/1/2 exit contract, and return the exit
    code, the report and the text it was read from.

    An argparse usage error must be asked for, as kind "usage": it exits 2
    with no report and the usage on stderr.  Any other run leaves stderr
    empty and writes one JSON report, to stdout or to the ``--out`` file.
    The report holds at most one diagnostic: none on exit 0, and kind
    schema exactly on exit 2, whose message, the absolute paths on the
    command line aside, stays under ``MESSAGE_LIMIT`` characters.  Its
    status follows: ok on exit 0, error for kind schema or internal, and
    invalid for any other kind or for exit 1 without a diagnostic.  The
    exit code, the diagnostic's kind and a fragment of its message (of the
    usage, for a usage error) match where given.
    """
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = run_command(argv)
    except SystemExit as exc:  # argparse refuses the command line
        usage = err.getvalue()
        assert (exc.code, out.getvalue(), kind) == (2, "", "usage"), (argv, usage)
        assert usage.startswith("usage: skpval") and (message or "") in usage, (argv, usage)
        return CliRun(2, None, "")
    assert err.getvalue() == "", (argv, err.getvalue())  # the report is the only output
    text = out.getvalue()
    if "--out" in argv and not text:
        text = Path(argv[argv.index("--out") + 1]).read_text()
    report = json.loads(text)
    assert isinstance(report, dict), (argv, text)
    kinds = [d["kind"] for d in report["diagnostics"]]
    assert code is None or got == code, (argv, got, report)
    assert kind is None or kinds == [kind], (argv, report)
    assert message is None or message in report["diagnostics"][0]["message"], (argv, report)
    assert got in (0, 1, 2) and len(kinds) <= 1, (argv, got, report)
    assert (got == 2) == (kinds == ["schema"]) and (got != 0 or not kinds), (argv, got, report)
    if got == 2:
        short = report["diagnostics"][0]["message"]
        for path in filter(os.path.isabs, argv):
            short = short.replace(path, "")
        assert len(short) < MESSAGE_LIMIT, (argv, report)
    status = "ok" if got == 0 else "error" if kinds in (["schema"], ["internal"]) else "invalid"
    assert report["status"] == status, (argv, got, report)
    return CliRun(got, report, text)


# the entries that value a polynomial, each touching the value gate first
VALUE_ENTRIES = (value_of, value_via_euclidean, initial_form, delta_of)


def count_calls(monkeypatch, *names):
    """Call counts of the ``skp`` functions ``names``, each wrapped in every
    skpval module that binds it."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(skp_module, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for key, module in list(sys.modules.items()):
            if key.startswith("skpval") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def at_rewrite_cap(rewrites, call):
    """``call()`` with the rewrite cap at ``rewrites``, which the call
    must need: at one fewer (unless it needs none) it raises
    IterationCapError.  The cap is restored afterwards."""
    with mock.patch.object(expansion, "DEFAULT_REWRITE_CAP", rewrites):
        out = call()
    if rewrites:
        with mock.patch.object(expansion, "DEFAULT_REWRITE_CAP", rewrites - 1):
            with pytest.raises(IterationCapError):
                call()
    return out


def outcome(compute):
    """What ``compute()`` returns, or the ZeroPolyError or NotMonicError it
    raises as its type's name and its message."""
    try:
        return compute()
    except (ZeroPolyError, NotMonicError) as exc:
        return (type(exc).__name__, str(exc))


def part_json(part, skp):
    """A ``least_value_part`` result with its monomials as JSON."""
    low, monomials = part
    return low, AdicExpansion(skp, monomials).to_json()


@pytest.fixture(scope="session")
def diffskp_table():
    return compute_relations([[2], [3, 9, 10]])


@pytest.fixture(scope="session")
def diffskp():
    return corpus("remark_diffskp")


@pytest.fixture(scope="session")
def vdiff(diffskp):
    return SkpValuation(diffskp)


@pytest.fixture(scope="session")
def diffskp_swapped():
    # same valuation after swapping the two coordinates of the plane
    return build_skp(compute_relations([[3], [2, 9, 10]]), thetas={(1, 2): -1})


@pytest.fixture(scope="session")
def example2_table():
    return compute_relations(
        [[1], [Fraction(1, 2), Fraction(4, 3), Fraction(21, 5)]]
    )


@pytest.fixture(scope="session")
def example2():
    return corpus("example2")


def example1_rows():
    """Three-variable table with two truncated limit positions.

    Row 2 carries blocks n = 0..2 of positions j = 1..4 with values
    (0, n+2, j); positions 5 and 10 are the truncated limit entries
    (0, 3, 0) and (0, 4, 0).
    """
    row2 = []
    labels = {}
    for n in range(3):
        if n > 0:
            row2.append(GroupValue((0, n + 2, 0)))
            labels[(2, len(row2))] = n
        for j in range(1, 5):
            row2.append(GroupValue((0, n + 2, j)))
    rows = [[GroupValue((0, 0, 1))], [GroupValue((0, 1, 0))], row2]
    return rows, labels


@pytest.fixture(scope="session")
def example1_table():
    rows, labels = example1_rows()
    return compute_relations(rows, limit_labels=labels)


@pytest.fixture(scope="session")
def example1():
    return corpus("example1")


@pytest.fixture(scope="session")
def free2():
    return build_skp(compute_relations([[(1, 0)], [(0, 1)]]))


def doubling_chain(k):
    """The generators 1, 5/2, 21/4, ...: gamma_{k+1} = 2 gamma_k + 2^-k."""
    gens = [Fraction(1)]
    while len(gens) < k:
        gens.append(2 * gens[-1] + Fraction(1, 2 ** len(gens)))
    return tuple((g,) for g in gens)


@functools.lru_cache(maxsize=None)
def attainment_products(generators):
    """The valuation that ``realize`` builds for a tuple of generators
    (corrected mode, default thetas) and its attainment products as
    ``verify_realization`` makes them: (gamma, witness, product) over the
    default coefficient ball, each product from the table's ``products``."""
    spec = SemigroupSpec(generators)
    result = realize(spec)
    skp = result.valuation.skp
    indices = [result.blocks.table_index(p) for p in range(len(generators))]
    products = []
    for row, witness in enumerate_semigroup(spec.chain, spec.coeff_bound):
        key = tuple([(indices[p], a) for p, a in enumerate(witness) if a])
        products.append((spec.chain.value(row), witness, skp.products[key]))
    return result.valuation, products


def top_cut(skp, j):
    """The context of ``skp`` with its lower rows in full and the top row
    cut at ``j``."""
    return row_cut(skp, skp.nvars - 1, j)


def row_cut(skp, row, j):
    """The context of ``skp`` that cuts ``row`` at ``j``: the rows below in
    full, and each higher row at 1 (at 0 when empty)."""
    higher = tuple(min(n, 1) for n in skp.row_lengths()[row + 1:])
    return SkpValuation(skp, skp.row_lengths()[:row] + (j,) + higher)


def is_acceptable(skp, alpha):
    """Whether the context's gate takes the cutoff vector ``alpha``."""
    try:
        SkpValuation(skp, alpha)
    except ValueError:
        return False
    return True


def acceptable_vectors(skp):
    """Every acceptable cutoff vector of ``skp``."""
    ranges = [range(1, n + 1) if n else range(1) for n in skp.row_lengths()]
    return [a for a in itertools.product(*ranges) if is_acceptable(skp, a)]


# the skp problems of tests/data, each in the corpus over Q and over GF(7)
DATA_SKP = ("remark_diffskp", "swapped_diffskp", "example2", "example1_tail")

# The thetas at (1, 2) of remark_diffskp that ``_theta_<name>`` sets: a
# non-integral one, which makes U_{1,3} = X1^2 - 1/2*X0^3*X1 - X0^3, and one
# whose size makes a Euclidean division widen its digits.
THETAS = {"half": "1/2", "1e30": str(10**30)}

# Every table the tests sample on, by a name that says how it is built: a
# problem of tests/data, ``example1`` or ``doubling_5`` (the realized
# 5-generator doubling chain), then ``_cutoff<N>`` for a cutoff set on it,
# ``_theta_<name>`` for a theta of ``THETAS``, ``_gf<p>`` for its table
# over GF(p) and ``_minimal`` for its minimal table.  At cutoff 1 U_{1,2}
# of remark_diffskp truncates to 0.
CORPUS = (
    *(name + gf + minimal for name in DATA_SKP for gf in ("", "_gf7") for minimal in ("", "_minimal")),
    "example1", "example1_minimal", "example1_gf7",
    *(f"remark_diffskp_cutoff{cutoff}" for cutoff in (1, 2, 3, 5, 8)),
    *(f"remark_diffskp_theta_{theta}" for theta in THETAS),
    "example1_tail_cutoff16", "example1_tail_cutoff16_gf7",
    "gamma_4_6_13", "gamma_4_6_13_gf2", "gamma_4_6_13_gf3", "gamma_4_6_13_gf7",
    "free_pair", "doubling_5",
)
# The exact tables, whose key polynomials and products are untruncated for
# what ``sample_polynomials`` draws: those with no cutoff, and ``example1``
# at its cutoff 32.  On the others the adic expansion is still f's, as it
# reads only the rules, but it multiplies out to f truncated, and the
# Euclidean route divides by truncated key polynomials (test_properties).
EXACT = tuple(name for name in CORPUS if "_cutoff" not in name and "example1_tail" not in name)


def value_lowering_tail():
    """example1_tail.json with tail summands X0^(1+k): each has a lower
    value than the power U_{2,1} it replaces, (0, 2, 1)."""
    data = problem("example1_tail.json")
    data["limit_tails"][0]["exponents"] = {"0,1": [1, 1]}
    return data


def nonpositive_beta_table(skp, index, beta):
    """The key polynomials of ``skp`` under its betas with the one at
    ``index`` replaced by ``beta`` <= 0, a table built without validation:
    each entry has its chain value and keeps the n, relation, d, key
    polynomial, theta and rewrite terms of ``skp``."""
    betas = [GroupValue((beta,)) if k == index else skp.entries[k].beta for k in skp.order]
    values = table_from_chain(analyze_chain(betas), skp.row_lengths())
    entries = {}
    for k, old in skp.entries.items():
        ventry = TableEntry(k, values.entries[k].beta, old.n, old.relation)
        entry = entries[k] = SkpEntry(ventry, old.d, old.poly, old.theta)
        entry.rewrite_terms = old.rewrite_terms
    return SkpTable(values, KeyProducts(entries, skp.nvars, skp.field, skp.cutoff))


# Tables whose value rules the valuation refuses, outside the corpus, which
# only an expansion reads: ``adic_expand`` runs on the rule set, refusal and
# all (the library weighs by the chain, the reference by the entries)
REFUSED = {
    "example1_tail_lowering": lambda: jsonio.build_from_problem(value_lowering_tail()),
    "remark_diffskp_beta12_zero": lambda: nonpositive_beta_table(corpus("remark_diffskp"), (1, 2), 0),
    "remark_diffskp_beta01_negative": lambda: nonpositive_beta_table(
        corpus("remark_diffskp"), (0, 1), -2
    ),
}


@functools.lru_cache(maxsize=None)
def corpus(name):
    """The corpus or ``REFUSED`` table ``name``, built on first use."""
    if name in REFUSED:
        return REFUSED[name]()
    if name.endswith("_minimal"):
        return minimal_pseudo_skp(corpus(name[:-len("_minimal")]))
    name, _, p = name.partition("_gf")
    name, _, theta = name.partition("_theta_")
    name, _, cutoff = name.partition("_cutoff")
    if name == "example1":
        rows, labels = example1_rows()
        return build_skp(compute_relations(rows, limit_labels=labels), field=GF(int(p)) if p else QQ)
    if name == "doubling_5":
        return realize(SemigroupSpec(doubling_chain(5))).valuation.skp
    data = problem(f"{name}.json")
    if cutoff:
        data["cutoff"] = int(cutoff)
    if theta:
        data["thetas"] = {"1,2": THETAS[theta]}
    if p:
        data["field"] = {"prime": int(p)}
    if data["kind"] == "realize":
        return realize(jsonio.load_semigroup_spec(data)).valuation.skp
    return jsonio.build_from_problem(data)


def sample_polynomials(rng, skp, alpha, count):
    """The nonzero ones of ``count`` polynomials on the rows that the
    cutoff vector ``alpha`` cuts, of total degree up to 8 (4 on three rows
    or more): random ones, and in turn powers of the key polynomials at the
    cutoff positions, powers of a key polynomial at a random position, and
    either power plus a random one.  A power at the cutoff positions makes
    a normal form reduce there and carry into earlier positions."""
    rows = [i for i in range(skp.nvars) if alpha[i]]
    degree = 8 if skp.nvars < 3 else 4
    for k in range(count):
        f = random_polynomial(rng, skp.nvars, degree, skp.field, rows)
        if k % 2:
            if k % 8 < 4:
                power = skp.monomial_poly({(i, alpha[i]): rng.randint(1, 3) for i in rows})
            else:
                index = rng.choice([idx for idx in skp.order if idx[0] in rows])
                power = skp.entries[index].poly ** rng.randint(1, 3)
            f = power + f if k % 4 == 3 else power
        if not f.is_zero():  # the cutoff truncated the power to 0
            yield f
