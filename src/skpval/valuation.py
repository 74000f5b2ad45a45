"""Valuations attached to a table of key polynomials.

The value of a monomial prod U_{i,j}^{e} is sum e * beta_{i,j}; the value of
a polynomial is the minimum over the monomials of its adic expansion, which
the value-only entry ``expansion.least_value`` finds as an integer row of
the table's analyzed chain, without expanding past the least value class
or building a monomial; ``value_of`` turns it into a ``GroupValue`` by
``skp.chain.value``.  The same number is computed independently, with no
rewrite rule, by ``value_via_euclidean``: nu(sum a_t U^t) = min_t (nu(a_t)
+ nu(U^t)) over the top row's Euclidean expansion, each a_t valued on the
row below by an ``expansion.euclidean_walk`` that starts at its key's
weight.  ``SkpValuation``, the context of every entry, is the one gate both
routes trust and the only entry of a cutoff vector: built, it refuses one
that is not acceptable by the ``rewrite_rules`` it derives once; and its
one rule set, made of them and read by ``adic_expand`` too, records the
refusal both routes raise first, a beta <= 0 (so nu(a_t) >= 0, which the
walk's bound rests on) or a rule U^n = U_next + sum theta * U^m with a
branch of lower value.  Only then is the polynomial checked, by the table's
``check_poly``.  Under a total-degree cutoff the adic route values by the
rules and the betas alone, a key polynomial the cutoff truncated to 0
included; the Euclidean route divides by the truncated key polynomials and
refuses one that is not monic (NotMonicError) when it divides by it.  Initial
forms, the top-row delta invariant and graded normal forms all build on the
least value part; a graded normal form reduces each initial-form monomial by
the table's relations through ``ordgroup.fold_relations``, the reduction
that makes a representation canonical.  On the table's ``digit_row`` the
Euclidean route reads a coefficient's value off the lowest nonzero digit
of its packed int (``expansion``).
"""

from functools import cached_property
from math import prod

from .errors import ZeroPolyError
from .expansion import (
    AdicExpansion,
    RuleSet,
    euclidean_walk,
    least_value,
    least_value_part,
    sparse_key,
    vp,
)
from .ordgroup import fold_relations, is_finite_index
from .packed import pack, split
from .skp import normalize_alpha, rewrite_rules, weigh


class SkpValuation:
    """A table of key polynomials with an acceptable cutoff vector, checked
    once by the ``rewrite_rules`` it derives once, ``rules``, and the one
    ``RuleSet`` they make, ``rule_set``, made on first use: it records the
    refusal only the value entries raise.  All else an entry reads, the
    products, the Euclidean route's steps, bounds and divisor splits and
    the polynomial check, is the table's, shared by every context on it."""

    def __init__(self, skp, alpha=None):
        self.skp = skp
        self.alpha = alpha = normalize_alpha(skp, alpha)
        self.rules = rewrite_rules(skp, alpha)
        # an expansion rewrites only at the rules' positions: their relations stay inside alpha
        if any(j > alpha[i] for index in self.rules for i, j in skp.entries[index].relation):
            raise ValueError(f"{alpha} is not an acceptable vector")

    @cached_property
    def rule_set(self):
        return RuleSet(self.skp, self.rules)

    def __repr__(self):
        return f"SkpValuation(alpha={self.alpha}, {self.skp!r})"


def value_of(f, valuation):
    """The valuation of a nonzero polynomial: the least value of its adic expansion."""
    return valuation.skp.chain.value(least_value(f, valuation))


def initial_form(f, valuation):
    """The sub-expansion of minimal-value monomials.

    The row-final exponent tuples of the result are pairwise distinct; this
    is checked on every call.
    """
    _, kept = least_value_part(f, valuation)
    vps = [vp(m.key, valuation.alpha) for m in kept]
    if len(set(vps)) != len(vps):
        raise AssertionError("initial-form power vectors collide")
    return AdicExpansion(valuation.skp, kept)


def value_via_euclidean(f, valuation):
    """The valuation computed through row-by-row Euclidean expansions, the
    coefficients of each row's pieces valued on the row below."""
    valuation.rule_set.refuse()  # the value gate, before any work
    if f.is_zero():
        raise ZeroPolyError("value of the zero polynomial")
    skp = valuation.skp
    skp.check_poly(f)
    splits = skp.divisor_splits(f.degree())
    steps, alpha, width, low = skp.steps, valuation.alpha, splits.width, skp.digit_row
    beta_low = steps[low][1][1]  # of U_{low,1} = X_low, the row's one key polynomial

    def value(w, g, row):
        # w plus the value on rows below ``row`` of the packed piece ``g``;
        # an empty row's variable is in no key polynomial, so in no coefficient
        while row and g.has_variable():
            row -= 1
            if row == g.low:  # g is in X_low alone, which values beta_low
                t = g.least_power()
                return tuple([a + t * b for a, b in zip(w, beta_low)]) if t else w
            if alpha[row]:
                g = split(g, row, width)
                return euclidean_walk(g, splits, steps[row], row, alpha[row], w, value)
        return w

    return skp.chain.value(value(valuation.rule_set.origin, pack(f, width, low), skp.nvars))


def delta_of(f, valuation):
    """Max exponent of the top-row cutoff entry, U_{top,j} with j the
    context's ``alpha[-1]``, over initial-form monomials."""
    return max(vp(m.key, valuation.alpha)[0] for m in initial_form(f, valuation))


class GradedNormalForm:
    """Initial form rewritten as p(T) * U^J in the associated graded ring.

    ``J`` is adic-bounded everywhere, including row-final positions of the
    rows in ``A`` (those with finite row-final index); ``torus`` maps a
    tuple of T-exponents (one per row of A, ascending) to its scalar
    coefficient.  T_i = U_{i,last}^{n} / (theta * U^{m}) has value zero, so
    every monomial of p(T) U^J shares the value of the input.
    """

    __slots__ = ("J", "torus", "A", "value")

    def __init__(self, J, torus, A, value):
        self.J = dict(J)
        self.torus = dict(torus)
        self.A = tuple(A)
        self.value = value

    def to_json(self, field):
        return {
            "J": {f"{i},{j}": e for (i, j), e in sorted(self.J.items())},
            "torus_rows": list(self.A),
            "p": {
                ",".join(str(e) for e in key): field.format(c)
                for key, c in sorted(self.torus.items())
            },
            "value": self.value.to_json(),
        }

    def __repr__(self):
        return f"GradedNormalForm(J={self.J}, A={self.A}, p={self.torus})"


def graded_normal_form(f, valuation):
    """Unique homogeneous decomposition in(f) = p(T) * U^J.

    Rows whose final entry has infinite index keep a free row-final exponent
    instead of contributing a torus variable.  Each monomial of the initial
    form is reduced by ``ordgroup.fold_relations`` over the table positions
    and the table's analyzed chain: an exponent e >= n at a position of
    finite index n keeps e mod n and passes (e div n) times the position's
    relation on to earlier positions.  A quotient q taken at a position
    multiplies the coefficient by the position's theta^q and, at a row's
    cutoff position, counts q toward T_i.
    """
    skp = valuation.skp
    alpha = valuation.alpha
    inf_form = initial_form(f, valuation)
    origin, weights = valuation.rule_set.origin, valuation.rule_set.weights
    value = weigh(inf_form.monomials[0].key, weights, origin)

    A = tuple(
        i
        for i in range(skp.nvars)
        if alpha[i] >= 1 and is_finite_index(skp.entries[(i, alpha[i])].n)
    )
    torus_positions = [skp.position[(i, alpha[i])] for i in A]
    thetas = [skp.entries[index].theta for index in skp.order]

    common_J = None
    torus = {}
    reduce = skp.field.reduce
    for mono in inf_form:
        p = [0] * len(skp.order)
        for index, e in mono.key:
            p[skp.position[index]] = e
        quotients = fold_relations(p, skp.chain)
        coeff = mono.coeff * prod(t ** q for t, q in zip(thetas, quotients))
        J = sparse_key(p, skp)
        if weigh(J, weights, origin) != value:
            raise AssertionError("normal-form monomial changed value")
        if common_J is None:
            common_J = J
        elif common_J != J:
            raise AssertionError("normal-form base exponent differs")
        key = tuple(quotients[k] for k in torus_positions)
        cur = reduce(torus.get(key, 0) + coeff)
        if not cur:
            torus.pop(key, None)
        else:
            torus[key] = cur
    return GradedNormalForm(common_J, torus, A, skp.chain.value(value))
