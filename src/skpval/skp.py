"""Construction of key polynomials from a validated value table.

Row i starts with U_{i,1} = X_i.  Each successor is the binomial

    U_{i,j} = U_{i,j-1}^{n_{i,j-1}} - theta_{i,j-1} * prod U^{m},

where m is the canonical relation of entry (i, j-1).  Limit-labeled entries
may instead be produced by unrolling a declared tail recurrence under a
truncation cutoff, which only chooses more summands: ``successor`` builds
both.  Every non-final entry also records its summands (U_{i,j}^n =
U_{i,j+1} + sum theta_t U^{m_t}), from which ``rewrite_rules`` derives the
rules of one expansion; for a freshly built table that is a single summand,
for a reduced table the collapsed chain.  The total-degree cutoff is a fact
about polynomials: it truncates each successor, tail and product
(``successor``, ``unroll_limit``, ``KeyProducts``), never the rules, so an
adic expansion, which reads only the rules, does not depend on it.

A product prod U_{i,j}^e has one form outside the adic rewrite loop (which
keys by dense exponent tuples), its key: the tuple of ``((i, j), e)`` pairs
with e > 0, indices ascending.  Summands, expansion monomials and Euclidean
pieces are keys; an exponent map is read or written only at a public edge.
Every product has one owner, the table's ``KeyProducts`` store, made before
the first successor and kept as long as the table, so evaluation and
verification reuse the powers and summands the build multiplied out.  So
does the rest of what the key polynomials alone determine, made on first
use for every ``SkpValuation`` on the table (``SkpTable``).

The built ``SkpTable`` is its ``ValueTable``, and each ``SkpEntry`` the
``TableEntry`` of its position: beta, n, relation and S^c are kept once,
and the betas' integer rows once, in the table's analyzed ``chain``.
"""

from functools import cached_property
from math import prod

from .errors import (
    InvalidTableError,
    NoCutoffError,
    NonStabilizingError,
    SchemaError,
    ThetaZeroError,
    ZeroPolyError,
    shorten,
)
from .fields import QQ
from .ordgroup import INFINITY, is_finite_index
from .packed import split_divisor
from .poly import MultiPoly, division_factor, exponent_width
from .valtable import TableEntry, ValueTable, compute_relations, validate_table

DEFAULT_LIMIT_CUTOFF = 32


class SkpEntry(TableEntry):
    """The table entry ``ventry`` with its key polynomial and bookkeeping;
    ``order`` is the order of ``poly``, INFINITY when the cutoff truncated
    it to 0; ``unroll_report`` is an unrolled tail's JSON report."""

    __slots__ = (
        "d",
        "poly",
        "order",
        "theta",
        "rewrite_terms",
        "truncated_limit",
        "unroll_report",
    )

    def __init__(self, ventry, d, poly, theta):
        super().__init__(
            ventry.index, ventry.beta, ventry.n, ventry.relation, ventry.limit_label
        )
        self.d = d
        self.poly = poly
        self.order = INFINITY if poly.is_zero() else poly.order()
        self.theta = theta
        self.rewrite_terms = None
        self.truncated_limit = False
        self.unroll_report = None

    def __repr__(self):
        return f"SkpEntry({self.index}, d={self.d}, U={self.poly})"


class LimitTail:
    """Declared tail recurrence feeding a limit-labeled entry.

    The entry at (row, at) is built as U_{row,at-1}^{n} minus the summands
    theta * prod U^{a + b*k} for unroll counter k = 0, 1, ..., where the
    ``exponents`` map sends an earlier table index to the affine pair (a, b).
    """

    __slots__ = ("row", "at", "exponents", "theta", "depth")

    def __init__(self, row, at, exponents, theta=1, depth=64):
        self.exponents = {tuple(k): (a, b) for k, (a, b) in exponents.items()}
        for x in (row, at, depth, *(x for k, ab in self.exponents.items() for x in k + ab)):
            if type(x) is not int:
                raise ValueError(f"limit tail number {x!r} is not an int")
        if at < 2:
            raise ValueError("a tail must target a successor position")
        if depth < 0:
            raise ValueError(f"limit tail depth {depth} is negative")
        self.row = row
        self.at = at
        self.theta = theta
        self.depth = depth


class KeyProducts(dict):
    """Key -> prod U^e over its sorted ``((i, j), e)`` items, truncated at
    the cutoff, made on first use: the one store of products of key
    polynomials, kept by its table as ``SkpTable.products`` and holding
    ``()`` mapped to 1.  Under a cutoff, a key whose ``u_order`` passes it
    is 0 at once: orders add in a polynomial ring over a field.  Any other
    missing product is the key with its greatest factor's exponent lowered
    by one, times that factor's polynomial, truncated (truncation commutes
    with multiplication); missing ones are built upward by a loop and stored.
    An exponent below 1 raises ValueError."""

    def __init__(self, entries, nvars, field, cutoff):
        super().__init__({(): MultiPoly.one(nvars, field)})
        self.entries, self.field, self.cutoff = entries, field, cutoff

    def __missing__(self, key):
        for (i, j), e in key:
            if e < 1:
                raise ValueError(f"exponent {e} of U_{{{i},{j}}} is below 1")
        if self.cutoff is not None and u_order(key, self.entries) > self.cutoff:
            out = self[key] = MultiPoly.zero(self[()].nvars, self.field)
            return out
        steps = []
        while key not in self:
            idx, e = key[-1]
            steps.append((key, idx))
            key = key[:-1] + ((idx, e - 1),) if e > 1 else key[:-1]
        out = self[key]
        for key, idx in reversed(steps):
            out = self[key] = (out * self.entries[idx].poly).truncate(self.cutoff)
        return out


def successor(products, start, n, summands):
    """U_start^n - sum theta * prod U^m over the (theta, key m) summands, all
    from the table's store ``products``, each step truncated: the one
    formula every successor key polynomial is built by."""
    out = products[((start.index, n),)]
    for theta, m in summands:
        out = (out - theta * products[m]).truncate(products.cutoff)
    return out


def u_order(key, entries):
    """Total-degree order of prod U^e, i.e. sum e * ord U, over a key, read
    from the stored ``SkpEntry.order``: the one order sum, INFINITY when a
    factor is 0, read where the cutoff is a fact about polynomials
    (``KeyProducts`` and ``unroll_limit``)."""
    return sum(e * entries[idx].order for idx, e in key)


def weigh(key, weights, start):
    """start + sum e * weights[index] over a key, each weight an integer
    vector given by its nonzero (position, coordinate) pairs."""
    w = list(start)
    for idx, e in key:
        for k, c in weights[idx]:
            w[k] += e * c
    return tuple(w)


class DivisorSplits(dict):
    """Index (row, j) -> the ``packed.Divisor`` of U_{row,j} at exponent
    width ``width``, each made on first use and packed at each digit width
    a division asks for."""

    def __init__(self, skp, width):
        super().__init__()
        self.skp = skp
        self.width = width

    def __missing__(self, index):
        out = self[index] = split_divisor(self.skp.entries[index].poly, index[0], self.width)
        return out


class SkpTable(ValueTable):
    """The value table ``table`` with the SkpEntry ``entries`` of its
    ``products`` store: key polynomials over ``field`` under the total-degree
    ``cutoff``, and the ``weigh`` weights of Vdeg (U_{i,j} has d in X_i).
    It owns, each made on first use, the Euclidean walk's ``steps``, width
    ``bounds`` and ``DivisorSplits`` by width (``splits``), and the
    ``empty_rows`` whose variables ``check_poly`` refuses.  One beta per
    position: an entry's beta other than its chain value raises ValueError."""

    def __init__(self, table, products):
        super().__init__(table.chain, table.rows, products.entries, table.limit_labels)
        for index, link in zip(self.order, self.chain):
            if self.entries[index].beta != link.value:
                raise ValueError(f"the entry at {index} has a beta other than the chain's")
        self.products, self.field, self.cutoff = products, products.field, products.cutoff
        self.degree_weights = {idx: [(idx[0], e.d)] for idx, e in self.entries.items()}
        self.splits = {}

    def monomial_poly(self, exps):
        """prod U_{i,j}^{e} from the table's ``products``."""
        return self.products[tuple(sorted((idx, e) for idx, e in exps.items() if e))]

    @cached_property
    def digit_row(self):
        """The lowest nonempty row: its one key polynomial is its variable,
        which packed polynomials keep in their digits (``poly``)."""
        return next(i for i, row in enumerate(self.rows) if row)

    @cached_property
    def empty_rows(self):
        return [i for i, row in enumerate(self.rows) if not row]

    def check_poly(self, f):
        """Refuse (ValueError) a polynomial outside the table's ring or in
        the variable of an empty row, which no key polynomial holds."""
        if f.nvars != self.nvars or f.field != self.field:
            raise ValueError("polynomial ring does not match the table")
        for i in self.empty_rows:
            if any(e[i] for e in f.terms):
                raise ValueError(f"X{i} appears but row {i} has no key polynomials")

    @cached_property
    def steps(self):
        """Per row i, the (d, beta row) of U_{i,j} at index j >= 1."""
        out = [[None] for _ in self.rows]
        for index, beta in zip(self.order, self.chain.rows):  # j ascends in each row
            out[index[0]].append((self.entries[index].d, beta))
        return out

    @cached_property
    def bounds(self):
        """(W_r for each row r, the largest exponent of a key polynomial):
        the bounds of the packing width (``expansion``'s module docstring)."""
        factors = [1] * self.nvars
        for (i, _), entry in self.entries.items():
            factors[i] = max(factors[i], division_factor(entry.poly, i))
        largest = max((max(e) for x in self.entries.values() for e in x.poly.terms), default=0)
        return factors, largest

    def divisor_splits(self, degree):
        """The ``DivisorSplits`` at the width that holds every exponent of
        the Euclidean walk, on all rows, of a polynomial of total degree
        ``degree``: degree * prod W_r and the key polynomials' own."""
        factors, largest = self.bounds
        width = exponent_width(max(degree * prod(factors), largest))
        if width not in self.splits:
            self.splits[width] = DivisorSplits(self, width)
        return self.splits[width]


def _as_theta_map(thetas, field):
    out = {}
    for key, val in (thetas or {}).items():
        c = field.of(val)
        if c == field.zero:
            raise ThetaZeroError(f"theta at {key} is zero")
        out[tuple(key)] = c
    return out


def unroll_limit(products, tail):
    """Accumulate a declared tail until summand orders pass the cutoff.

    ``products`` is the table's store, its ``entries`` the SkpEntry objects
    built so far.  Returns the polynomial, the (theta, key m) summands
    consumed and the JSON report (``stabilized``, ``summands_used``,
    ``cutoff``).  Requires a cutoff and a nonzero theta (else
    ThetaZeroError); raises NonStabilizingError when the depth is exhausted
    with summands still at or below the cutoff, and SchemaError when a
    summand it would use has a negative exponent.  Depth 0 returns the
    start power unchanged.
    """
    entries, cutoff, field = products.entries, products.cutoff, products.field
    if cutoff is None:
        raise NoCutoffError("limit unrolling requires a truncation cutoff")

    start = entries[(tail.row, tail.at - 1)]
    theta = field.of(tail.theta)
    if theta == field.zero:
        raise ThetaZeroError(f"limit tail theta at {tail.row},{tail.at} is zero")
    summands = []
    affine = sorted(tail.exponents.items())
    # depth 0 takes no summand; past it the loop ends only at a summand
    # above the cutoff, so the report says stabilized
    for k in range(tail.depth + 1 if tail.depth else 0):
        m = tuple((idx, a + b * k) for idx, (a, b) in affine if a + b * k)
        order = u_order(m, entries)
        if order == INFINITY:
            raise ZeroPolyError("order of the zero polynomial")
        if order > cutoff:
            break
        if k == tail.depth:
            raise NonStabilizingError(
                f"summand order still <= {cutoff} after {tail.depth} terms"
            )
        for (i, j), e in m:
            if e < 0:
                raise SchemaError(
                    f"limit tail at {tail.row},{tail.at}: summand k={k} has "
                    f"exponent {e} at {i},{j}"
                )
        summands.append((theta, m))
    n_start = start.n if is_finite_index(start.n) else 1
    poly = successor(products, start, n_start, summands)
    report = {
        "stabilized": tail.depth > 0,
        "summands_used": len(summands),
        "cutoff": cutoff,
    }
    return poly, summands, report


def build_skp(table, thetas=None, cutoff=None, field=QQ, limit_tails=None):
    """Build the key polynomials of a validated value table.

    ``thetas`` maps an entry index (i, j) to the nonzero scale used when
    constructing the next entry of the row (default 1 everywhere); the
    predecessor of a tail's entry takes the tail's theta instead.
    ``cutoff`` is a nonnegative total degree above which terms are dropped;
    None means no cutoff, except that a table with limit labels or tails
    gets DEFAULT_LIMIT_CUTOFF.  ``limit_tails`` is a list of LimitTail
    declarations; limit-labeled entries without a tail are built by the
    plain successor formula from the last materialized predecessor and
    flagged ``truncated_limit``.
    """
    if cutoff is not None and cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    report = validate_table(table)
    if not report.is_sequence_of_values:
        raise InvalidTableError(
            "table is not a sequence of values: "
            + "; ".join(repr(c) for c in report.failures),
            report,
        )
    theta_map = _as_theta_map(thetas, field)
    tails = {(t.row, t.at): t for t in (limit_tails or [])}
    if cutoff is None and (tails or table.limit_labels):
        cutoff = DEFAULT_LIMIT_CUTOFF

    products = KeyProducts({}, table.nvars, field, cutoff)
    entries = products.entries
    for index in table.order:
        i, j = index
        ventry = table.entries[index]
        theta = theta_map.get(index, field.one)
        if j == 1:
            poly = MultiPoly.variable(i, table.nvars, field)
            entry = SkpEntry(ventry, 1, poly, theta)
        else:
            prev = entries[(i, j - 1)]
            unrolled = None
            if index in tails:
                poly, prev.rewrite_terms, unrolled = unroll_limit(products, tails[index])
                prev.theta = field.of(tails[index].theta)
            else:
                prev.rewrite_terms = [(prev.theta, tuple(sorted(prev.relation.items())))]
                poly = successor(products, prev, prev.n, prev.rewrite_terms)
            products[((index, 1),)] = poly  # truncated already: its own product
            entry = SkpEntry(ventry, prev.n * prev.d, poly, theta)
            entry.unroll_report = unrolled
            entry.truncated_limit = unrolled is None and ventry.limit_label is not None
        entries[index] = entry
        _check_entry_shape(entry, cutoff)

    return SkpTable(table, products)


def _check_entry_shape(entry, cutoff):
    i, _ = entry.index
    poly = entry.poly
    # support: U_{i,j} involves only X_0..X_i
    if any(v > i for v in poly.support_variables()):
        raise AssertionError(entry)
    if cutoff is not None:
        return
    # monic of the predicted X_i-degree, lower coefficients with no constant term
    if poly.deg_in(i) != entry.d:
        raise AssertionError(entry)
    if not poly.is_monic_in(i):
        raise AssertionError(entry)
    if any(e[i] < entry.d and sum(e) == e[i] for e in poly.terms):
        raise AssertionError(entry)


def rewrite_rules(skp, alpha):
    """What an expansion under the cutoff vector ``alpha`` may rewrite.

    Maps every position (i, j) with j < alpha_i and finite n to
    (n, next index, summands): U_{i,j}^{n} = U_next + sum theta * U^{m}
    over the (theta, key m) summands.  Where the next positions below the cutoff
    form an n = 1 chain, the rule collapses it, so the dropped chain never
    appears in an expansion.  Positions are taken in descending order, so
    each chain is walked once: a rule extends the rule after it.
    """
    rules = {}
    for index in reversed(skp.order):
        i, j = index
        entry = skp.entries[index]
        if j >= alpha[i] or not is_finite_index(entry.n):
            continue
        nxt, terms = (i, j + 1), entry.rewrite_terms
        if j + 1 < alpha[i] and skp.entries[nxt].n == 1:
            _, nxt, rest = rules[nxt]
            terms = terms + rest
        rules[index] = (entry.n, nxt, terms)
    return rules


def minimal_pseudo_skp(skp):
    """Drop interior entries with n = 1 (keeping each row's first entry).

    The first entry stays so that U_{i,1} = X_i keeps holding on the reduced
    table.  Remaining entries are re-annotated; rewrite data is collapsed
    across the dropped chains so expansions over the reduced table agree
    with the original.
    """
    kept = []
    for index in skp.order:
        i, j = index
        entry = skp.entries[index]
        if j == 1 or skp.is_row_final(index) or entry.n != 1:
            kept.append(index)

    remap = {}
    new_rows = [[] for _ in range(skp.nvars)]
    for index in kept:
        i, j = index
        new_rows[i].append(skp.entries[index].beta)
        remap[index] = (i, len(new_rows[i]))

    limit_labels = {
        remap[idx]: lab
        for idx, lab in skp.limit_labels.items()
        if idx in remap
    }
    new_table = compute_relations(new_rows, limit_labels=limit_labels)

    new_entries = {}
    for index in kept:
        old = skp.entries[index]
        new_index = remap[index]
        ventry = new_table.entries[new_index]
        # indices and relations recomputed on the reduced table must agree
        # with the originals: dropped entries never carry relation mass
        if ventry.n != old.n:
            raise AssertionError((index, ventry.n, old.n))
        if ventry.relation != {remap[k]: m for k, m in old.relation.items()}:
            raise AssertionError(index)
        entry = SkpEntry(ventry, old.d, old.poly, old.theta)
        entry.truncated_limit = old.truncated_limit
        entry.unroll_report = old.unroll_report
        new_entries[new_index] = entry

    # collapse rewrite chains over the dropped positions: under the full
    # cutoff a rule ends exactly at the next kept entry
    rules = rewrite_rules(skp, skp.row_lengths())
    for index in kept:
        if skp.is_row_final(index):
            continue
        _, nxt, terms = rules[index]
        i, j = remap[index]
        if remap[nxt] != (i, j + 1):
            raise AssertionError((index, nxt))
        entry = new_entries[(i, j)]
        # the remap keeps each row's order, so a remapped key stays sorted
        entry.rewrite_terms = [
            (theta, tuple((remap[idx], e) for idx, e in m)) for theta, m in terms
        ]

    return SkpTable(new_table, KeyProducts(new_entries, skp.nvars, skp.field, skp.cutoff))


def normalize_alpha(skp, alpha=None):
    """Resolve a cutoff vector of in-range int components; None means the full table."""
    lengths = skp.row_lengths()
    if alpha is None:
        return lengths
    alpha = tuple(alpha)
    if len(alpha) != len(lengths):
        raise ValueError(f"alpha needs {len(lengths)} components")
    for a, ln in zip(alpha, lengths):
        if type(a) is not int:
            raise ValueError(f"cutoff component {a!r} is not an int")
        if ln == 0:
            if a != 0:
                raise ValueError("nonzero cutoff on an empty row")
        elif not 1 <= a <= ln:
            raise ValueError(f"cutoff {shorten(str(a))} outside 1..{ln}")
    return alpha

