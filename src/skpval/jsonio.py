"""Problem files and reports as JSON.  ``SKP``, ``REALIZE`` and ``CLASSIFY``
give each key of a problem, whether it is required, and its form (``what``
it is in words, and ``read(data)``, its value); ``walk`` refuses any other
key at any depth.  A null is the key absent; only the keys present are
passed on, so each keeps its constructor's default.  Other checks follow.
"""

import json
from fractions import Fraction

from .classify import PseudoSkpArithmetic, RowArithmetic
from .errors import SchemaError, shorten
from .fields import MAX_PRIME, QQ, PrimeField, field_to_spec
from .ordgroup import GroupValue, format_index
from .poly import parse_poly
from .realize import CORRECTED, LITERAL, SemigroupSpec
from .skp import LimitTail, build_skp
from .valtable import compute_relations
from .valuation import SkpValuation

REQUIRED, OPTIONAL = True, False


class _Refused(Exception):
    """``what`` a form wants, and the key path to the data it refuses,
    innermost key first, built as the exception passes out of the walk."""

    def __init__(self, what, *path):
        self.what, self.path = what, list(path)


def _item(form, data, key):
    """``data``, the item at ``key`` of its container, read by ``form``."""
    try:
        return form.read(data)
    except _Refused as exc:
        exc.path.append(key)
        raise


class Int:
    """A JSON integer, or a number with an integral value such as 3.0, at
    least ``low``; a bool is refused although Python counts it an int."""

    def __init__(self, low=None):
        self.low = low
        self.what = "an integer" if low is None else f"an integer >= {low}"

    def read(self, data):
        if type(data) is float and data.is_integer():
            data = int(data)
        if type(data) is int and (self.low is None or data >= self.low):
            return data
        raise _Refused(self.what)


class Enum:
    """One of the JSON ``values``, of its type: true is not 1."""

    def __init__(self, *values):
        self.values = values
        self.what = "one of " + ", ".join(json.dumps(v) for v in values)

    def read(self, data):
        if any(type(data) is type(v) and data == v for v in self.values):
            return data
        raise _Refused(self.what)


class Rational:
    what = 'a rational "p" or "p/q" in the digits 0-9, or an integer'

    def read(self, data):
        try:
            return Fraction(data) if type(data) is int else QQ.parse(data)
        except (TypeError, SchemaError):  # not a str, or not of the form
            raise _Refused(self.what) from None


class Value:
    what = "a group value: a rational or a nonempty array of rationals"

    def read(self, data):
        if type(data) is list and data:
            return GroupValue([_item(RATIONAL, c, k) for k, c in enumerate(data)])
        if type(data) in (int, str):
            return GroupValue(RATIONAL.read(data))
        raise _Refused(self.what)


class Field:
    def read(self, data):
        if data == "Q":
            return QQ
        try:
            return PrimeField(PRIME.read(data)["prime"])
        except (ValueError, SchemaError):
            raise _Refused(f"a prime below {MAX_PRIME}", "prime") from None


class Array:
    """An array of ``item`` forms, ``length`` of them where that is given."""

    def __init__(self, item, length=None):
        self.item, self.length = item, length
        self.what = "an array" if length is None else f"an array of {length} items"

    def read(self, data):
        if type(data) is not list or self.length not in (None, len(data)):
            raise _Refused(self.what)
        return [_item(self.item, x, k) for k, x in enumerate(data)]


class Map:
    """An object from table indices "i,j" to ``value`` forms, read in sorted
    key order, so which fault is refused does not follow the file's order."""

    what = "an object"

    def __init__(self, value):
        self.value = value

    def read(self, data):
        if type(data) is not dict:
            raise _Refused(self.what)
        out = {}
        for key in sorted(data):
            try:
                i, j = key.split(",")
                index = load_digits(i), load_digits(j)
            except ValueError:
                raise _Refused('a table index "i,j" in the digits 0-9', key) from None
            out[index] = _item(self.value, data[key], key)
        return out


class Object:
    """An object of the ``entries`` {key: (required, form)}: another key is
    refused, the least first, and so is a required key absent.  ``read`` gives
    the keys present, or ``build`` of them, whose ValueError refuses the object."""

    def __init__(self, entries, build=None, what="an object"):
        self.entries, self.build, self.what = entries, build, what

    def read(self, data):
        if type(data) is not dict:
            raise _Refused(self.what)
        unknown = data.keys() - self.entries.keys()
        if unknown:
            raise _Refused("unknown key", min(unknown))
        out = {}
        for key, (required, form) in self.entries.items():
            if data.get(key) is not None:
                out[key] = _item(form, data[key], key)
            elif required:
                raise _Refused("required", key)
        try:
            return out if self.build is None else self.build(**out)
        except ValueError as exc:
            raise _Refused(str(exc)) from None

    def entry(self, data, key):
        """The value of ``key`` in ``data``, which this form has read, or None."""
        return None if data.get(key) is None else self.entries[key][1].read(data[key])


RATIONAL, VALUE, FIELD, BOOL = Rational(), Value(), Field(), Enum(True, False)
PRIME = Object({"prime": (REQUIRED, Int())}, what='"Q" or {"prime": p}')
THETAS = Map(RATIONAL)

SKP = Object({
    "kind": (OPTIONAL, Enum("skp", "values")),
    "values": (REQUIRED, Object({
        "dimension": (OPTIONAL, Int(1)),
        "rows": (REQUIRED, Array(Array(VALUE))),
        "limit_labels": (OPTIONAL, Map(Int())),
    })),
    "thetas": (OPTIONAL, THETAS),
    "cutoff": (OPTIONAL, Int(0)),
    "limit_tails": (OPTIONAL, Array(Object({
        "row": (REQUIRED, Int()),
        "at": (REQUIRED, Int(2)),
        "exponents": (REQUIRED, Map(Array(Int(), length=2))),
        "theta": (OPTIONAL, RATIONAL),
        "depth": (OPTIONAL, Int(0)),
    }, build=LimitTail))),
    "field": (OPTIONAL, FIELD),
    "declared_infinite_rows": (OPTIONAL, Array(Int(0))),
})

REALIZE = Object({
    "kind": (OPTIONAL, Enum("realize")),
    "generators": (REQUIRED, Array(VALUE)),
    "limit_labels": (OPTIONAL, Array(Int(1))),
    "field": (OPTIONAL, FIELD),
    **dict.fromkeys(("coeff_bound", "degree_bound", "samples"), (OPTIONAL, Int(0))),
    "mode": (OPTIONAL, Enum(LITERAL, CORRECTED)),
    "thetas": (OPTIONAL, THETAS),
})

CLASSIFY = Object({
    "kind": (OPTIONAL, Enum("classify")),
    "arithmetic": (REQUIRED, Object({
        "beta01": (OPTIONAL, VALUE),
        "rows": (REQUIRED, Array(Object(
            {"infinite": (OPTIONAL, BOOL), "final": (OPTIONAL, VALUE)}, build=RowArithmetic
        ), length=2)),
        "declared": (OPTIONAL, Object({
            **dict.fromkeys(("level0", "level1", "level2"), (OPTIONAL, Int(0))),
            **dict.fromkeys(("in_q1", "in_q2", "span1_in_02", "span2_in_01"), (OPTIONAL, BOOL)),
        })),
    }, build=PseudoSkpArithmetic)),
})


def walk(schema, data):
    """``data`` read by the table ``schema``; a refusal raises SchemaError
    "<key path>: <expected form>", keys cut short so no message grows."""
    try:
        return schema.read(data)
    except _Refused as exc:
        keys = [shorten(k) for k in map(str, exc.path[::-1])]
        raise SchemaError(f"{'.'.join(keys) or 'the problem'}: {exc.what}") from None


def _same_dimension(values, path, dim):
    """Refuse the first value whose dimension is not ``dim``, at its key
    path ``path.format(k)``."""
    for k, v in enumerate(values):
        if v.dim != dim:
            raise SchemaError(f"{path.format(k)}: a group value of dimension {dim}")


def load_digits(text):
    """A number written in ASCII digits only: ``int`` would also read a
    sign, spaces, underscores or another script's digits as some number."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{shorten(text)!r} is not written in the digits 0-9")
    try:
        return int(text)
    except ValueError:  # more digits than int() reads
        raise ValueError(f"{shorten(text)!r} has too many digits") from None


def require_indices(indices, known, what):
    """Refuse, as malformed input, any of the (i, j) ``indices`` outside ``known``."""
    for i, j in indices:
        if (i, j) not in known:
            raise SchemaError(f"no table index {i},{j} for {what}")


def read_skp(data):
    """An skp problem walked by ``SKP``, and its value table, after the
    checks the table cannot state."""
    problem = walk(SKP, data)
    values = problem["values"]
    rows = values["rows"]
    if not any(rows):
        raise SchemaError("table rows are empty")
    # without "dimension", the first value's, so a value of another is refused
    dim = values.get("dimension") or next(v for row in rows for v in row).dim
    for i, row in enumerate(rows):
        _same_dimension(row, f"values.rows.{i}.{{}}", dim)
    labels = values.get("limit_labels", {})
    table = compute_relations(rows, limit_labels=labels)
    require_indices(labels, table.entries, "a limit label")
    thetas = problem.get("thetas", {})
    require_indices(thetas, table.entries, "a theta")
    for tail in problem.get("limit_tails", ()):
        at = f"{tail.row},{tail.at}"
        require_indices([(tail.row, tail.at)], table.entries, "a limit tail")
        if (tail.row, tail.at - 1) in thetas:  # its rewrite takes the tail's theta
            before = f"{tail.row},{tail.at - 1}"
            raise SchemaError(f"a theta at {before}, whose theta the limit tail at {at} gives")
        # a tail is unrolled from the entries built before its own
        earlier = [index for index in table.entries if index < (tail.row, tail.at)]
        require_indices(tail.exponents, earlier, f"a limit tail exponent before {at}")
    for k, row in enumerate(problem.get("declared_infinite_rows", ())):
        if row >= table.nvars:
            raise SchemaError(f"declared_infinite_rows.{k}: a row 0..{table.nvars - 1}")
    return problem, table


def build_from_problem(data):
    """Build the key polynomials of an skp/valuation problem."""
    problem, table = read_skp(data)
    keys = ("thetas", "cutoff", "field", "limit_tails")
    return build_skp(table, **{key: problem[key] for key in keys if key in problem})


def load_semigroup_spec(data):
    problem = walk(REALIZE, data)
    keys = ("generators", "limit_labels", "field", "coeff_bound", "degree_bound", "samples")
    try:
        spec = SemigroupSpec(**{key: problem[key] for key in keys if key in problem})
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    _same_dimension(spec.generators, "generators.{}", spec.generators[0].dim)
    return spec


def load_valuation(text, skp):
    """The ``SkpValuation`` of the table under the --alpha flag ("1,3"), or
    the full table; a vector the context refuses is malformed input."""
    try:
        alpha = None if text is None else [load_digits(a) for a in text.split(",")]
        return SkpValuation(skp, alpha)
    except ValueError as exc:
        raise SchemaError(f"bad --alpha {shorten(text)!r}: {exc}") from exc


def load_poly(text, skp):
    """Polynomial text that passes the table's ``check_poly``."""
    f = parse_poly(text, skp.nvars, skp.field)
    try:
        skp.check_poly(f)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return f


def dump_table(table):
    out = {
        "dimension": table.dimension,
        "rows": [[v.to_json() for v in row] for row in table.rows],
    }
    if table.limit_labels:
        out["limit_labels"] = {
            f"{i},{j}": t for (i, j), t in sorted(table.limit_labels.items())
        }
    return out


def dump_skp(skp):
    entries = {}
    for index in skp.order:
        e = skp.entries[index]
        key = f"{index[0]},{index[1]}"
        entries[key] = {
            "beta": e.beta.to_json(),
            "n": format_index(e.n),
            "d": e.d,
            "poly": str(e.poly),
            "relation": {
                f"{i},{j}": m for (i, j), m in sorted(e.relation.items())
            },
        }
        if e.limit_label is not None:
            entries[key]["limit_label"] = e.limit_label
        if e.truncated_limit:
            entries[key]["truncated_limit"] = True
        if e.unroll_report is not None:
            entries[key]["unroll"] = e.unroll_report
    out = {
        "field": field_to_spec(skp.field),
        "entries": entries,
    }
    if skp.cutoff is not None:
        out["cutoff"] = skp.cutoff
    return out
