"""Problem-file schemas: loading and serializing the JSON interchange forms.

Rationals travel as strings "p/q" (or "p"), group values as arrays of such
strings (a bare string or number is accepted for dimension one), infinite
indices as the string "inf", and table indices as "i,j" keys.
"""

from fractions import Fraction

from .classify import PseudoSkpArithmetic, RowArithmetic
from .errors import SchemaError
from .fields import QQ, PrimeField, field_to_spec
from .ordgroup import GroupValue, format_index
from .poly import parse_poly
from .realize import SemigroupSpec
from .skp import LimitTail, build_skp
from .valtable import compute_relations
from .valuation import SkpValuation


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _optional(data, key, kind, what):
    """An optional field of type ``kind`` (dict or list): a missing key or
    null reads as empty, any other value of another type is refused."""
    value = data.get(key)
    if value is None:
        return kind()
    _require(isinstance(value, kind), f"\"{key}\" must be {what}")
    return value


def load_rational(data):
    if isinstance(data, bool):
        raise SchemaError(f"bad rational {data!r}")
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, str):
        return QQ.parse(data)
    raise SchemaError(f"bad rational {data!r}")


def load_int(data, what, nonnegative=False):
    """A JSON integer, or a number with an integral value such as 3.0.

    A bool is refused although Python counts it as an int.
    """
    integral = (isinstance(data, int) and not isinstance(data, bool)) or (
        isinstance(data, float) and data.is_integer()
    )
    want = "a nonnegative integer" if nonnegative else "an integer"
    _require(
        integral and not (nonnegative and data < 0), f"bad {what} {data!r} (want {want})"
    )
    return int(data)


def load_field(data):
    """The field from its JSON form: "Q" (the default) or {"prime": p},
    p an integer by ``load_int``'s rule."""
    if data is None or data == "Q":
        return QQ
    _require(isinstance(data, dict) and "prime" in data, f"bad field spec {data!r}")
    try:
        return PrimeField(load_int(data["prime"], "prime"))
    except ValueError as exc:
        raise SchemaError(f"bad field spec {data!r}") from exc


def load_group_value(data, dim=None):
    if isinstance(data, (int, str)):
        data = [data]
    _require(isinstance(data, list) and data, f"bad group value {data!r}")
    v = GroupValue([load_rational(c) for c in data])
    if dim is not None and v.dim != dim:
        raise SchemaError(f"group value {data!r} has dimension {v.dim}, want {dim}")
    return v


def load_digits(text):
    """A number written in ASCII digits only: ``int`` would also read a
    sign, spaces, underscores or another script's digits as some number."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not written in the digits 0-9")
    return int(text)


def load_index_key(key):
    try:
        i, j = key.split(",")
        return (load_digits(i), load_digits(j))
    except (ValueError, AttributeError) as exc:
        raise SchemaError(f"bad table index {key!r} (want \"i,j\")") from exc


def load_table(data):
    _require(isinstance(data, dict), "table must be an object")
    rows = data.get("rows")
    _require(isinstance(rows, list), "table needs a \"rows\" array")
    _require(
        any(isinstance(r, list) and r for r in rows),
        "table rows are empty",
    )
    for r in rows:
        _require(isinstance(r, list), "each table row must be an array")
    dim = data.get("dimension")
    if dim is None:  # the first value's, so a value of another dimension is refused
        dim = load_group_value(next(v for row in rows for v in row)).dim
    else:
        dim = load_int(dim, "dimension")
        _require(dim > 0, f"bad dimension {dim} (want a positive integer)")
    raw_rows = [[load_group_value(v, dim) for v in row] for row in rows]
    labels = _optional(data, "limit_labels", dict, "an object")
    labels = {load_index_key(k): load_int(t, "limit label") for k, t in labels.items()}
    try:
        table = compute_relations(raw_rows, limit_labels=labels)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    require_indices(labels, table.entries, "a limit label")
    return table


def require_indices(indices, known, what):
    """Refuse, as malformed input, any of the (i, j) ``indices`` outside ``known``."""
    for i, j in indices:
        _require((i, j) in known, f"no table index {i},{j} for {what}")


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


_TAIL_OPTIONS = (
    ("theta", load_rational),
    ("depth", lambda data: load_int(data, "tail depth")),
)


def load_limit_tail(data):
    _require(isinstance(data, dict), "limit tail must be an object")
    try:
        exponents = data["exponents"]
        _require(isinstance(exponents, dict), "limit tail \"exponents\" must be an object")
        exponents = {
            load_index_key(k): tuple(load_int(x, "tail exponent") for x in (a, b))
            for k, (a, b) in exponents.items()
        }
        # absent keys keep LimitTail's own defaults
        optional = {k: load(data[k]) for k, load in _TAIL_OPTIONS if k in data}
        return LimitTail(
            row=load_int(data["row"], "tail row"),
            at=load_int(data["at"], "tail position"),
            exponents=exponents,
            **optional,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad limit tail {data!r}") from exc


def load_cutoff(data):
    """The optional total-degree cutoff: None or a nonnegative integer."""
    if data is None:
        return None
    return load_int(data, "cutoff", nonnegative=True)


def build_from_problem(data):
    """Build the key polynomials of an skp/valuation problem."""
    table = load_table(data.get("values", data))
    field = load_field(data.get("field"))
    thetas = load_thetas(data, field)
    tails = _optional(data, "limit_tails", list, "an array")
    tails = [load_limit_tail(t) for t in tails]
    require_indices(thetas, table.entries, "a theta")
    for tail in tails:
        at = (tail.row, tail.at)
        require_indices([at], table.entries, "a limit tail")
        # the predecessor's rewrite takes the tail's theta
        _require(
            (tail.row, tail.at - 1) not in thetas,
            f"a theta at {tail.row},{tail.at - 1}, whose theta the limit tail "
            f"at {at[0]},{at[1]} gives",
        )
        # a tail is unrolled from the entries built before its own
        earlier = [index for index in table.entries if index < at]
        what = f"a limit tail exponent before {at[0]},{at[1]}"
        require_indices(tail.exponents, earlier, what)
    cutoff = load_cutoff(data.get("cutoff"))
    return build_skp(table, thetas=thetas, cutoff=cutoff, field=field, limit_tails=tails)


def load_valuation(text, skp):
    """The ``SkpValuation`` of the table under the --alpha flag ("1,3"), or
    the full table; a vector the context refuses is malformed input."""
    try:
        alpha = None if text is None else [load_digits(a) for a in text.split(",")]
        return SkpValuation(skp, alpha)
    except ValueError as exc:
        raise SchemaError(f"bad --alpha {text!r}: {exc}") from exc


def load_poly(text, skp):
    """Polynomial text that passes the table's ``check_poly``."""
    f = parse_poly(text, skp.nvars, skp.field)
    try:
        skp.check_poly(f)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return f


def load_declared_rows(data, nvars):
    """The optional "declared_infinite_rows" array: row numbers 0..nvars-1."""
    rows = _optional(data, "declared_infinite_rows", list, "an array")
    rows = [load_int(i, "declared infinite row") for i in rows]
    _require(all(0 <= i < nvars for i in rows), f"declared rows {rows} outside 0..{nvars-1}")
    return rows


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


_LEVELS = ("level0", "level1", "level2")
_MEMBERSHIPS = ("in_q1", "in_q2", "span1_in_02", "span2_in_01")


def _load_declared(declared):
    """The "declared" predicates: each level a nonnegative integer or null,
    each membership predicate a bool or null; other names are refused."""
    _require(isinstance(declared, dict), "\"declared\" must be an object")
    out = {}
    for key, value in declared.items():
        if key in _LEVELS:
            out[key] = None if value is None else load_int(value, key, nonnegative=True)
        else:
            _require(key in _MEMBERSHIPS, f"unknown declared predicate {key!r}")
            _require(value is None or isinstance(value, bool), f"{key!r} must be a bool or null")
            out[key] = value
    return out


def load_arithmetic(data):
    """The three-row lookup input: "beta01" and each row's "final", values
    of one dimension, each row's "infinite" a bool, and "declared"."""
    _require(isinstance(data, dict), "arithmetic must be an object")
    rows_data = data.get("rows")
    _require(
        isinstance(rows_data, list) and len(rows_data) == 2,
        "arithmetic needs exactly two rows (rows 1 and 2)",
    )
    beta01 = data.get("beta01")
    dim = None
    if beta01 is not None:
        beta01 = load_group_value(beta01)
        dim = beta01.dim
    rows = []
    for rd in rows_data:
        _require(isinstance(rd, dict), "each arithmetic row must be an object")
        infinite = rd.get("infinite", False)
        _require(isinstance(infinite, bool), f"\"infinite\" must be a bool, not {infinite!r}")
        final = rd.get("final")
        _require(infinite or final is not None, "a finite row needs its final value")
        if final is not None:
            final = load_group_value(final, dim)
            dim = final.dim
        rows.append(RowArithmetic(infinite, final))
    declared = data.get("declared")
    if declared is not None:
        declared = _load_declared(declared)
    try:
        return PseudoSkpArithmetic(beta01, rows, declared)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_semigroup_spec(data):
    _require(isinstance(data, dict), "realize problem must be an object")
    gens = data.get("generators")
    _require(isinstance(gens, list) and gens, "need a nonempty \"generators\" array")
    # absent bounds keep SemigroupSpec's own defaults
    bounds = {
        key: load_int(data[key], key, nonnegative=True)
        for key in ("coeff_bound", "degree_bound", "samples")
        if key in data
    }
    labels = _optional(data, "limit_labels", list, "an array")
    dim = load_group_value(gens[0]).dim
    try:
        return SemigroupSpec(
            [load_group_value(g, dim) for g in gens],
            limit_labels=[load_int(p, "limit label") for p in labels],
            field=load_field(data.get("field")),
            **bounds,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_thetas(data, field):
    """The optional "thetas" object as a map from table index to field element."""
    thetas = _optional(data, "thetas", dict, "an object")
    return {load_index_key(k): field.of(load_rational(v)) for k, v in thetas.items()}
