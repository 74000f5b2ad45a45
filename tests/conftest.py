import contextlib
import functools
import io
import itertools
import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from skpval import (
    GF,
    GroupValue,
    IterationCapError,
    SemigroupSpec,
    SkpValuation,
    build_skp,
    compute_relations,
    delta_of,
    initial_form,
    value_of,
    value_via_euclidean,
)
from skpval import expansion
from skpval import skp as skp_module
from skpval.cli import run_command
from skpval.realize import realize
from skpval.valtable import enumerate_semigroup

# every @given test draws the same examples on every run
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

DATA = Path(__file__).parent / "data"

# a mutation's value that deletes its key
ABSENT = object()


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
    schema exactly on exit 2.  Its status follows: ok on exit 0, error for
    kind schema or internal, and invalid for any other kind or for exit 1
    without a diagnostic.  The exit code, the diagnostic's kind and a
    fragment of its message (of the usage, for a usage error) match where
    given.
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


def at_rewrite_cap(monkeypatch, rewrites, call):
    """``call()`` with the rewrite cap at ``rewrites``, which the call
    must need: at one fewer (unless it needs none) it raises
    IterationCapError.  The cap is restored afterwards."""
    cap = expansion.DEFAULT_REWRITE_CAP
    monkeypatch.setattr(expansion, "DEFAULT_REWRITE_CAP", rewrites)
    out = call()
    if rewrites:
        monkeypatch.setattr(expansion, "DEFAULT_REWRITE_CAP", rewrites - 1)
        with pytest.raises(IterationCapError):
            call()
    monkeypatch.setattr(expansion, "DEFAULT_REWRITE_CAP", cap)
    return out


@pytest.fixture(scope="session")
def diffskp_table():
    return compute_relations([[2], [3, 9, 10]])


@pytest.fixture(scope="session")
def diffskp(diffskp_table):
    return build_skp(diffskp_table)


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
def example2(example2_table):
    return build_skp(example2_table)


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
def example1(example1_table):
    return build_skp(example1_table)


@pytest.fixture(scope="session")
def free2():
    return build_skp(compute_relations([[(1, 0)], [(0, 1)]]))


@pytest.fixture(scope="session")
def key_tables(diffskp, example2, example1, diffskp_table, example2_table, example1_table):
    """The diffskp, example2 and example1 tables over Q and over GF(7)."""
    gf7 = [
        build_skp(table, field=GF(7))
        for table in (diffskp_table, example2_table, example1_table)
    ]
    return [diffskp, example2, example1] + gf7


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
