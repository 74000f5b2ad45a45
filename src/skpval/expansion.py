"""Adic and Euclidean expansions of polynomials in key polynomials.

An adic expansion rewrites a polynomial as a sum of monomials in the key
polynomials where every exponent at a non-final position (i, j), j < alpha_i,
stays below n_{i,j}.  The rewrite replaces an occurrence of U_{i,j}^{n_{i,j}}
either by U_{i,j+1} + theta * U^{m} (successor rule) or, when the next
positions form an n = 1 chain, by the collapsed sum across the chain
(``skp.rewrite_rules``).  Each monomial is rewritten at its greatest violating
index, so the expansion is unique, and it is fixed by the rules and the betas
alone: a table's total-degree cutoff truncates its key polynomials, not the
expansion, which is f's under the successor formulas taken untruncated.  One
loop, ``_rewrite``, pops monomials from a priority queue in value order, ties
by the dense key, the exponent tuple over ``skp.order``; the order fixes only
the work.  Unless the rules refuse the table, no branch weighs less than its
power: U^n becomes U_next (greater) and theta * U^m (no less), and an
equal-weight branch lowers the exponent at its rule's position and raises
only earlier ones, so it sorts after its parent.  Every parent of a key pops
first, and the key is rewritten once, the invariant the pinned rewrite counts
rest on.  The one ``RuleSet`` of an ``SkpValuation``, the context of every
entry, made of the rules the context derived once, holds each rule branch's
exponent and weight deltas, so a rewrite adds tuples, and lifts each term
once; sparse keys appear only at the boundary (``AdicMonomial``).  It
records, without raising, a beta <= 0 or a branch of lower value: the value
entries refuse such a table, and ``adic_expand`` expands on it to the end.
What the key polynomials alone determine belongs to the table and serves every
context on it: the products, the Euclidean ``steps``, ``bounds`` and divisor
splits, and ``check_poly``, which every entry, ``euclidean_expand`` included,
runs on its polynomial.  The value loop stops at the first value class that
survives once its violating monomials are rewritten, as no later rewrite
reaches a lower class.  ``least_value`` returns that class as an integer row
of the table's ``chain``, with no monomial built, and ``least_value_part`` its
monomials too.

The Euclidean expansion of a row is computed by iterated monic division by
the largest applicable key polynomial; it coincides with grouping the adic
expansion by the row's exponents.  One plain recursive walk,
``euclidean_walk``, divides packed slices (``packed.Split``), split by
X_row-degree, by the table's ``DivisorSplits`` of its width, and carries the
key's weight, raised by beta per power divided out.  It hands each piece (a
slice of X_row-degree 0) and its weight to its caller, and divides only
while the weight is below the least sum the caller returned: the value
route values each coefficient on the row below, and under unit weights
(``euclidean_expand``) a weight is the key.  The digit variable of the
slices is X_L, L the table's ``digit_row``, its lowest nonempty row: the
coefficient of a monomial in the other variables, a polynomial in X_L, is
one int.  Row L holds one key polynomial, X_L itself, as the table refuses
an interior entry of infinite index, so the value route reads a piece's
value on row L off its one int, with no walk: the least power of X_L in it
is the place of its lowest nonzero digit, v2(x) // width, and over GF(p)
the digits are residues there, so that digit is the first not 0 mod p.
``euclidean_expand`` on row L itself takes X0 (X1 when L is 0) as the
digit variable.

The packing width follows the proof in ``poly``, row by row
(``SkpTable.bounds``).  Let W_r be the largest ``poly.division_factor`` of
row r's key polynomials.  A walk in row r keeps
phi_r(a) = sum_{v != r} a_v + W_r * a_r of every monomial it forms at or
below its largest value on the input, at most W_r * T for an input of total
degree T; so every exponent in the walk is at most W_r * T, and so is the
total degree of each piece's coefficient, which has X_r-degree 0.  Valuing
the coefficients on the rows below repeats the argument, so on all rows
every exponent is at most totdeg(f) * prod W_r.  The width holds the larger
of that bound and the key polynomials' own largest exponent; the digit
width grows in each division as ``poly`` proves it must.
"""

from heapq import heappop, heappush
from operator import add

from .errors import InvalidTableError, IterationCapError, ZeroPolyError
from .ordgroup import INFINITY, is_finite_index
from .packed import digit_variable, divide_split, join, pack, split
from .poly import MultiPoly
from .skp import weigh

DEFAULT_REWRITE_CAP = 1_000_000
TOP = (INFINITY,)  # a weight above every weight, a tuple of ints


class AdicMonomial:
    """A scalar times the product of key polynomials of a key."""

    __slots__ = ("coeff", "key")

    def __init__(self, coeff, key):
        self.coeff = coeff
        self.key = key

    def __repr__(self):
        inner = "*".join(
            f"U[{i},{j}]^{e}" if e > 1 else f"U[{i},{j}]" for (i, j), e in self.key
        )
        return f"AdicMonomial({self.coeff}{'*' + inner if inner else ''})"


def vp(key, alpha):
    """Row-final exponents of a key under a normalized cutoff vector, top
    row first."""
    out = [0] * len(alpha)
    for (i, j), e in key:
        if j == alpha[i]:
            out[i] = e
    return tuple(reversed(out))


class AdicExpansion:
    """A finite sum of adic-form monomials over a fixed table and cutoff
    vector, in (Vdeg, key) order."""

    def __init__(self, skp, monomials):
        self.skp = skp
        w, zero = skp.degree_weights, (0,) * skp.nvars
        self.monomials = sorted(monomials, key=lambda m: (weigh(m.key, w, zero), m.key))

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)

    def evaluate(self):
        """Multiply the expansion back out from the table's ``products``."""
        skp = self.skp
        out = MultiPoly.zero(skp.nvars, skp.field)
        for m in self.monomials:
            out = out + skp.products[m.key].scale(m.coeff)
        return out

    def to_json(self):
        field = self.skp.field
        return [
            {
                "coeff": field.format(m.coeff),
                "exponents": {f"{i},{j}": e for (i, j), e in m.key},
            }
            for m in self.monomials
        ]

    def __repr__(self):
        return " + ".join(repr(m) for m in self.monomials) or "0"


class RuleSet(dict):
    """An ``SkpValuation``'s ``rules``, its ``rewrite_rules``, on dense keys,
    weighed by value: ``branches`` maps each rule position to the branches
    of U^n there, theta (None for U_next) and the exponent and weight
    deltas, and ``scans`` to the (position, n) pairs, greatest first, where
    a branch can violate (None: every rule position).  As a dict it maps
    the exponents e of a term X^e to the (dense key, weight) of
    prod U_{i,1}^{e_i}, made on first use.  ``weights`` and
    ``origin`` weigh sparse keys by value, an integer row of the table's
    ``chain`` (it compares as its GroupValue).  ``refusal`` is None or the
    (exception type, message) of the first beta <= 0 (ValueError), else of
    the first rule with a branch of lower value than its power
    (InvalidTableError); only the value entries raise it (``refuse``)."""

    def __init__(self, skp, rules):
        super().__init__()
        self.skp, self.refusal = skp, None
        self.origin = origin = (0,) * skp.dimension
        self.weights = {}
        for index, beta in zip(skp.order, skp.chain.rows):
            if beta <= origin and self.refusal is None:
                self.refusal = (ValueError, f"beta at {index} is not positive")
            self.weights[index] = [(k, c) for k, c in enumerate(beta) if c]
        violable = []  # (rule position, n), the greatest first
        self.branches = {}
        for (i, j), (n, nxt, terms) in sorted(rules.items()):
            p = skp.position[(i, j)]
            violable.insert(0, (p, n))
            out = self.branches[p] = []
            for theta, m in [(None, ((nxt, 1),))] + terms:
                signed = (((i, j), -n),) + m  # the branch over U^n
                dkey = [0] * len(skp.order)
                for idx, e in signed:
                    dkey[skp.position[idx]] += e
                dweight = weigh(signed, self.weights, origin)
                if dweight < origin and self.refusal is None:
                    message = f"U_{{{i},{j}}}^{n} rewrites to a branch of lower value"
                    self.refusal = (InvalidTableError, message + ": the table defines no valuation")
                out.append((theta, tuple(dkey), dweight))
        # branches violate only at or below their rule, or where they raise an exponent
        self.scans = {None: violable}
        for p, out in self.branches.items():
            self.scans[p] = [(q, n) for q, n in violable if q <= p or any(b[1][q] for b in out)]

    def __missing__(self, exps):
        key = tuple([exps[i] if j == 1 else 0 for i, j in self.skp.order])
        w = weigh(sparse_key(key, self.skp), self.weights, self.origin)
        out = self[exps] = (key, w)
        return out

    def refuse(self):
        """Raise the refusal, if any, as a fresh exception."""
        if self.refusal is not None:
            kind, message = self.refusal
            raise kind(message)


def sparse_key(key, skp):
    """The sparse key ((i, j), e) of a dense one."""
    return tuple([(index, e) for index, e in zip(skp.order, key) if e])


def _rewrite(f, rules, stop_early):
    """The loop over a RuleSet, in value order: the working set (dense key
    -> coefficient) it ends with or, with ``stop_early`` (the value loop,
    which first raises the rules' refusal), the keys in it of the least
    weight of a surviving key, and that weight.  Nothing is dropped: each
    rewrite keeps the sum equal to f under the successor formulas taken
    untruncated, so a nonzero f never rewrites to an empty sum, and the
    least weight always has a surviving key."""
    skp, scans, branches = rules.skp, rules.scans, rules.branches
    if stop_early:
        rules.refuse()
    if f.is_zero():
        raise ZeroPolyError("cannot expand the zero polynomial")
    skp.check_poly(f)

    reduce = skp.field.reduce
    cap = DEFAULT_REWRITE_CAP

    # Each violating key in ``work`` has an entry (weight, key, greatest
    # violating position) in ``heap``, in the value loop every other key
    # too (position None); an entry whose key has left ``work`` is skipped.
    # Ties go by the dense key, so every parent of a key pops before it.
    # ``pending`` holds the (key, weight - w, coefficient) items to add: the
    # terms of f (w the origin), then the branches of the popped key.
    work = {}
    heap = []
    w, scan = rules.origin, scans[None]
    pending = [rules[exps] + (c,) for exps, c in f.terms.items()]
    rewrites = 0
    settled, current = [], None  # the popped keys of this weight that need no rewrite
    while pending:
        for key, dweight, coeff in pending:
            cur = work.get(key)
            if cur is None:  # coefficients and thetas are nonzero in a field
                work[key] = coeff
                for at, n in scan:  # the greatest violating position, if any
                    if key[at] >= n:
                        break
                else:
                    at = None
                if at is not None or stop_early:
                    heappush(heap, (tuple(map(add, w, dweight)), key, at))
            elif cur := reduce(cur + coeff):
                work[key] = cur
            else:
                del work[key]
        pending = ()
        while heap:
            w, key, at = heappop(heap)
            if key not in work:
                continue
            if w != current:
                if stop_early and not work.keys().isdisjoint(settled):
                    break
                settled, current = [], w
            if at is None:
                settled.append(key)
                continue
            rewrites += 1
            if rewrites > cap:
                raise IterationCapError(f"exceeded {cap} rewrites")
            coeff, scan = work.pop(key), scans[at]
            pending = [
                (tuple(map(add, key, dkey)), dweight,
                 coeff if theta is None else reduce(coeff * theta))
                for theta, dkey, dweight in branches[at]
            ]
            break
    if not stop_early:
        return work, None
    return {key: work[key] for key in settled if key in work}, current


def adic_expand(f, valuation):
    """The unique adic expansion of a nonzero polynomial under the table and
    cutoff vector of an ``SkpValuation``, rewritten in value order to the
    end; a table whose rules carry a refusal still expands.

    Raises IterationCapError past ``DEFAULT_REWRITE_CAP`` rewrites
    (diagnostic guard; polynomial inputs over finite tables are expected to
    terminate).
    """
    skp = valuation.skp
    work, _ = _rewrite(f, valuation.rule_set, False)
    return AdicExpansion(skp, [AdicMonomial(c, sparse_key(k, skp)) for k, c in work.items()])


def least_value(f, valuation):
    """The least value over f's adic expansion, an integer row of the
    table's ``chain``, under the table, cutoff vector and rules of an
    ``SkpValuation``; no monomial is built."""
    return _rewrite(f, valuation.rule_set, True)[1]


def least_value_part(f, valuation):
    """``least_value`` and the monomials of f's adic expansion that have it."""
    part, low = _rewrite(f, valuation.rule_set, True)
    return low, [AdicMonomial(c, sparse_key(k, valuation.skp)) for k, c in part.items()]


def euclidean_walk(g, splits, steps, row, j, w, piece):
    """The least sum ``piece`` returns over the Euclidean expansion in row
    ``row`` with cutoff ``j`` of the nonzero polynomial with packed
    X_row-degree split ``g`` (consumed) at the exponent width of
    ``splits``, the exponent at each position ascending; ``steps[j']`` is
    (d, beta) of U_{row,j'}.  Each piece goes to ``piece(w + sum t * beta
    over its key, packed piece, row)``, which returns a sum, or ``TOP``
    throughout to bound nothing; a further power is divided out only below
    the least sum.
    """

    def walk(g, j0, w, best):
        dg = max(g)
        while j0 and steps[j0][0] > dg:
            j0 -= 1
        if not j0:
            part = piece(w, g, row)  # X_row-degree 0: the split is a piece
            return part if part < best else best
        beta = steps[j0][1]
        divisor = splits[(row, j0)]
        if not divisor.lower and divisor.dg == 1:
            # U = X_row, every row's first key polynomial: the coefficient of
            # U^t is the split's slice of degree t, read with no division
            for t in sorted(g):
                wt = tuple([a + t * b for a, b in zip(w, beta)]) if t else w
                if t and wt >= best:
                    break  # every larger power weighs more
                part = piece(wt, g.piece(t), row)
                best = part if part < best else best
            return best
        while g:
            g, ct = divide_split(g, divisor)
            if ct:
                best = walk(ct, j0 - 1, w, best)
            w = tuple(map(add, w, beta))  # the weight of the next power's key
            if w >= best:
                break
        return best

    return walk(g, j, w, TOP)


def euclidean_expand(f, valuation, row=None):
    """Euclidean expansion of a row by iterated monic division.

    Returns a list of ({position: exponent} map over the row, coefficient
    polynomial with zero degree in the row's variable), sorted by key:
    every piece of ``euclidean_walk``.  Exponents at positions before
    the row's cutoff j, the context's ``alpha[row]``, stay below their n;
    ``row`` defaults to the top row.  No rule set is read, so a key
    polynomial truncated to 0 is refused (NotMonicError) only as a divisor.
    The digit variable is X_L, L the table's ``digit_row``, or on row L
    itself X0 (X1 when L is 0).
    """
    skp = valuation.skp
    skp.check_poly(f)
    top = skp.nvars - 1 if row is None else row
    if type(top) is not int or not 0 <= top < skp.nvars:
        raise ValueError(f"row {row!r} is not a row of the table")
    j = valuation.alpha[top]  # the context's gate keeps it in 1..length, 0 on an empty row
    if j == 0:
        raise ValueError(f"row {top} has no key polynomials")
    if f.is_zero():
        return []
    splits = skp.divisor_splits(f.degree())
    width = splits.width
    # under unit weights the weight of a key is its exponent vector over 1..j
    units = [None] + [
        (skp.entries[(top, p)].d, (0,) * (p - 1) + (1,) + (0,) * (j - p)) for p in range(1, j + 1)
    ]
    pieces = []
    g = split(pack(f, width, digit_variable(top, skp.digit_row)), top, width)

    def collect(w, c, _):
        pieces.append((w, c))
        return TOP  # no piece bounds the walk

    euclidean_walk(g, splits, units, top, j, (0,) * j, collect)
    keys = sorted((tuple([(p, t) for p, t in enumerate(w, 1) if t]), c) for w, c in pieces)
    # positions strictly before the row's j stay below their index
    for key, _ in keys:
        for pos, t in key:
            entry = skp.entries[(top, pos)]
            if pos != j and is_finite_index(entry.n) and t >= entry.n:
                raise AssertionError(key)
    return [(dict(key), MultiPoly.from_reduced(f.nvars, join(c, top, width, f.nvars, f.field), f.field))
            for key, c in keys]
