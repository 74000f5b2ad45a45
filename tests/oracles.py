"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's computation paths: the index scan
walks r = 1, 2, ... with a plain lattice-membership solve, representations
are found by exhaustive search over the coefficient box, semigroup
balls come from nested coefficient loops and, with their witnesses, from a
recursion that sums GroupValues instead of integer rows, the adic expansion has a
reference loop that rescans the whole working set before every rewrite
and sums its own integer values,
division in one variable has a reference that multiplies and subtracts whole
polynomials at every step, the Euclidean value has a reference that values
every piece of that division's expansion and sums GroupValues of Fractions
instead of integer vectors, the index and
canonical relation of a generator chain have a reference that takes a left
kernel and a second solve at every position, the initial form has a
reference that values the rescanned expansion monomial by monomial in
GroupValues, the least value part has a reference that takes the minimum
over a complete adic expansion, and the graded normal form has a reference
that rescans each monomial for its greatest position over its bound before
every reduction.  Products of key polynomials have a reference that
raises each factor to its power by ``**`` and truncates once, at the end.
Random polynomials have a reference drawn by ``randint``.  Planted
expansions need no reference at all: a sum of adic monomials multiplied
out by that product reference has itself as its adic expansion.
Membership in the semigroup of positive generators has an exact reference
that never reads a canonical representation: a coin-problem table at rank
1 and, above it, every count of the leading-level generators.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd, inf

from skpval.errors import DimensionMismatchError, NotInGroupError, NotMonicError
from skpval.expansion import AdicExpansion, AdicMonomial, adic_expand
from skpval.fields import QQ
from skpval.intlattice import row_echelon
from skpval.ordgroup import (
    INFINITY,
    ChainEntry,
    GroupValue,
    as_group_value,
    is_finite_index,
)
from skpval.poly import MultiPoly
from skpval.skp import normalize_alpha, rewrite_rules
from skpval.valuation import GradedNormalForm, initial_form


def solve_combination(rows, target):
    """Integer coefficients c with sum c_i rows[i] == target, or None, by
    back-substitution through the echelon's transform.  ``rows`` may be
    empty, in which case only the zero target is solvable."""
    if all(a == 0 for a in target):
        return [0] * len(rows)
    if not rows:
        return None
    H, U = row_echelon(rows)
    t = list(target)
    coeffs = [0] * len(rows)
    for i, h in enumerate(H):
        piv = next((c for c, a in enumerate(h) if a != 0), None)
        if piv is None:
            break
        if t[piv] % h[piv] != 0:
            return None
        q = t[piv] // h[piv]
        if q:
            t = [a - q * b for a, b in zip(t, h)]
            coeffs = [a + q * b for a, b in zip(coeffs, U[i])]
    if any(a != 0 for a in t):
        return None
    return coeffs


def _integer_rows(values):
    """Scale a family of GroupValues to integer rows by the common
    denominator: (rows, denominator)."""
    denom = 1
    for v in values:
        for c in v.coords:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    return [[int(c * denom) for c in v.coords] for v in values], denom


def _integer_betas(skp):
    """(index -> beta as an integer row, common denominator), scaled here
    from the entries' betas, not read from the table's chain."""
    rows, denom = _scaled_rows(tuple(skp.entries[idx].beta for idx in skp.order))
    return dict(zip(skp.order, rows)), denom


@functools.lru_cache(maxsize=None)
def _scaled_rows(betas):
    """``_integer_rows`` of a tuple of betas as tuples, scaled once per tuple."""
    rows, denom = _integer_rows(betas)
    return tuple(map(tuple, rows)), denom


def lattice_member(target, basis):
    """target in the Z-span of basis, by an integer solve."""
    rows, _ = _integer_rows([as_group_value(v) for v in basis] + [as_group_value(target)])
    return solve_combination(rows[:-1], rows[-1]) is not None


def scan_subgroup_index(gamma, previous, rmax=50):
    """Bounded scan for the least r with r*gamma in the span."""
    gamma = as_group_value(gamma)
    previous = [as_group_value(v) for v in previous]
    for r in range(1, rmax + 1):
        if lattice_member(gamma.scale(r), previous):
            return r
    return inf


def box_ranges(ns, int_bound):
    """Coefficient ranges: [0, n) at finite positions, [-B, B] at infinite."""
    out = []
    for nj in ns:
        if nj == inf:
            out.append(range(-int_bound, int_bound + 1))
        else:
            out.append(range(0, int(nj)))
    return out


def box_size(ns, int_bound):
    size = 1
    for r in box_ranges(ns, int_bound):
        size *= len(r)
    return size


def representation_box_search(n, gamma, previous, ns, int_bound=10):
    """All coefficient maps in the constraint box that hit n*gamma.

    The box is 0 <= m_j < n_j at finite positions and |m_j| <= int_bound at
    infinite ones.  Exhaustive depth-first walk over integer-scaled vectors;
    returns a list of coefficient tuples.
    """
    gamma = as_group_value(gamma)
    previous = [as_group_value(v) for v in previous]
    rows, _ = _integer_rows([gamma] + previous)
    target = tuple(c * n for c in rows[0])
    vecs = rows[1:]
    ranges = box_ranges(ns, int_bound)
    dim = len(target)
    hits = []

    def walk(pos, acc, combo):
        if pos == len(vecs):
            if acc == target:
                hits.append(tuple(combo))
            return
        v = vecs[pos]
        for m in ranges[pos]:
            combo.append(m)
            walk(pos + 1, tuple(a + m * b for a, b in zip(acc, v)), combo)
            combo.pop()

    walk(0, (0,) * dim, [])
    return hits


def brute_semigroup(values, bound):
    """All bounded nonnegative combinations, as a sorted list of coord tuples."""
    values = [as_group_value(v) for v in values]
    out = set()
    dim = values[0].dim if values else 1
    zero = as_group_value((Fraction(0),) * dim)
    for combo in itertools.product(range(bound + 1), repeat=len(values)):
        if sum(combo) > bound:
            continue
        total = zero
        for a, v in zip(combo, values):
            total = total + v.scale(a)
        out.add(total.coords)
    if not values:
        out.add(zero.coords)
    return sorted(out)


def group_enumerate_semigroup(values, coeff_bound):
    """The semigroup ball as ``valtable.enumerate_semigroup`` returns it,
    summed in GroupValues: the same recursion, coefficient of the first
    value outermost, keeping the first witness found for each value."""
    values = [as_group_value(v) for v in values]
    if not values:
        return []
    found = {}

    def rec(pos, budget, acc, witness):
        if pos == len(values):
            if acc.coords not in found:
                found[acc.coords] = (acc, tuple(witness))
            return
        for a in range(budget + 1):
            witness.append(a)
            rec(pos + 1, budget - a, acc + values[pos].scale(a), witness)
            witness.pop()

    rec(0, coeff_bound, GroupValue((0,) * values[0].dim), [])
    return sorted(found.values(), key=lambda vw: vw[0].coords)


def swap_variables(f, perm):
    """Relabel variables of a polynomial by the permutation perm."""
    terms = {}
    for exps, c in f.terms.items():
        new = [0] * f.nvars
        for i, e in enumerate(exps):
            new[perm[i]] = e
        terms[tuple(new)] = c
    return MultiPoly(f.nvars, terms, f.field)


def rescan_adic_expand(f, skp, alpha=None):
    """Adic expansion by rescanning the working set before every rewrite.

    Each step picks the violating monomial with the least (value, dense
    key), the value summed from ``_integer_betas`` and the dense key the
    exponent tuple over ``skp.order``, and rewrites it at its greatest
    violating index: the order the library's priority queue must
    reproduce.  Only the rules are read, never the key polynomials, so a
    table's total-degree cutoff drops nothing.  On a table whose betas are
    positive and whose rules lower no value, no key is rewritten twice,
    which is asserted.  Returns (expansion, rewrite count).
    """
    alpha = normalize_alpha(skp, alpha)
    zero = skp.field.zero
    rules = rewrite_rules(skp, alpha)
    betas, _ = _integer_betas(skp)
    origin = (0,) * skp.dimension

    def value(key):
        return _integer_value(dict(key), betas, origin)

    once = all(tuple(b) > origin for b in betas.values()) and all(
        value(m) >= value(((index, n),))
        for index, (n, nxt, terms) in rules.items()
        for _, m in [(None, ((nxt, 1),))] + list(terms)
    )

    def add(work, key, coeff):
        cur = skp.field.reduce(work.get(key, zero) + coeff)
        if cur == zero:
            work.pop(key, None)
        else:
            work[key] = cur

    def violations(key):
        return [
            (i, j)
            for (i, j), e in key
            if j < alpha[i]
            and is_finite_index(skp.entries[(i, j)].n)
            and e >= skp.entries[(i, j)].n
        ]

    @functools.lru_cache(maxsize=None)
    def rank(key):
        """(value, dense key) of a key that violates, None of one that does
        not: what the scan compares, worked out once per key."""
        dense = tuple(dict(key).get(idx, 0) for idx in skp.order)
        return (value(key), dense) if violations(key) else None

    work = {}
    for exps, c in f.terms.items():
        add(work, tuple(sorted(((i, 1), e) for i, e in enumerate(exps) if e)), c)
    rewrites, rewritten = 0, set()
    while True:
        candidates = [(rank(key), key) for key in work if rank(key)]
        if not candidates:
            break
        target = min(candidates)[1]
        if once and target in rewritten:
            raise AssertionError(f"key {target} rewritten twice")
        rewritten.add(target)
        rewrites += 1
        index = max(violations(target))
        coeff = work.pop(target)
        base = dict(target)
        base[index] -= skp.entries[index].n
        if base[index] == 0:
            del base[index]
        _, nxt, terms = rules[index]
        for theta, m in [(skp.field.one, ((nxt, 1),))] + list(terms):
            branch = dict(base)
            for idx, e in m:
                branch[idx] = branch.get(idx, 0) + e
            add(work, tuple(sorted(branch.items())), coeff * theta)
    monomials = [AdicMonomial(c, key) for key, c in work.items()]
    return AdicExpansion(skp, monomials), rewrites


def rescan_initial_form(f, valuation):
    """The monomials of least value in ``rescan_adic_expand``'s expansion,
    each valued as a sum of GroupValues."""
    skp = valuation.skp
    expansion, _ = rescan_adic_expand(f, skp, valuation.alpha)
    zero = GroupValue((0,) * skp.dimension)
    values = []
    for m in expansion:
        total = zero
        for idx, e in m.key:
            total = total + skp.entries[idx].beta.scale(e)
        values.append(total)
    low = min(values)
    kept = [m for m, v in zip(expansion, values) if v == low]
    return AdicExpansion(skp, kept)


def _integer_value(exps, betas, start):
    """start + sum e * beta over an exponent map, each beta a dense integer
    row of ``_integer_betas``."""
    total = list(start)
    for idx, e in exps.items():
        for k, c in enumerate(betas[idx]):
            total[k] += e * c
    return tuple(total)


def full_least_part(f, valuation):
    """The least value over the complete ``adic_expand`` of f in the context
    ``valuation``, as an integer row of ``_integer_betas``, and the
    monomials of that value: the route ``least_value_part`` replaced, which
    expands everything and then throws away all but the minimum."""
    skp = valuation.skp
    expansion = adic_expand(f, valuation)
    betas, _ = _integer_betas(skp)
    origin = (0,) * skp.dimension
    values = [_integer_value(dict(m.key), betas, origin) for m in expansion]
    low = min(values)
    return low, [m for m, v in zip(expansion, values) if v == low]


def multiplied_out(entries, key, cutoff):
    """prod U^e over the ``((i, j), e)`` items of ``key``: each factor raised
    by ``**``, multiplied in order, and the product truncated once."""
    some = next(iter(entries.values())).poly
    out = MultiPoly.one(some.nvars, some.field)
    for index, e in key:
        out = out * entries[index].poly ** e
    return out.truncate(cutoff)


COEFFICIENTS = (1, -1, 2, -2, 3, -3)
# ``planted_expansion``'s tie: how often it is tried, the most of a free
# exponent in ``value_classes`` and in a shift
TIE_RATE, TIE_BOUND, TIE_SHIFT = 0.5, 12, 3


def _adic_bound(skp, index):
    """The exponent bound n of a non-final position of finite index n, else
    None: an adic exponent there is below n, elsewhere free."""
    i, j = index
    n = skp.entries[index].n
    return n if j < skp.row_length(i) and is_finite_index(n) else None


def _merge(key, shift):
    """The key of the product of two keys."""
    exps = dict(key)
    for idx, e in shift:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted(exps.items()))


def _finals(skp, key):
    """The row-final exponents of a key."""
    return {idx: e for idx, e in key if skp.is_row_final(idx)}


@functools.lru_cache(maxsize=None)
def value_classes(skp):
    """Integer value (a row of ``_integer_betas``) -> the adic keys of that
    value with every free exponent (``_adic_bound`` None) at most
    ``TIE_BOUND``, enumerated over the whole box."""
    betas, _ = _integer_betas(skp)
    ranges = [range(_adic_bound(skp, idx) or TIE_BOUND + 1) for idx in skp.order]
    out = {}
    for exps in itertools.product(*ranges):
        key = tuple((idx, e) for idx, e in zip(skp.order, exps) if e)
        out.setdefault(_integer_value(dict(key), betas, (0,) * skp.dimension), []).append(key)
    return out


def admits_tie(skp):
    """Whether some class of ``value_classes`` holds two keys with other
    row-final exponents, the kind of tie ``_plant_tie`` plants."""
    for keys in value_classes(skp).values():
        finals = [_finals(skp, key) for key in keys]
        if any(x != finals[0] for x in finals):
            return True
    return False


def _plant_tie(rng, skp, planted):
    """``planted`` with a tie in its least value where one is found: for the
    first shift s (a key in the free exponents, each at most ``TIE_SHIFT``,
    by ascending total) such that ``value_classes`` holds a key of the
    least value times s with other row-final exponents than every least
    monomial times s, each monomial times s and one such key; else
    ``planted`` unchanged."""
    betas, _ = _integer_betas(skp)
    origin = (0,) * skp.dimension
    values = {key: _integer_value(dict(key), betas, origin) for key in planted}
    least = [key for key in planted if values[key] == min(values.values())]
    classes = value_classes(skp)
    free = [idx for idx in skp.order if _adic_bound(skp, idx) is None]
    for exps in sorted(itertools.product(range(TIE_SHIFT + 1), repeat=len(free)), key=sum):
        shift = tuple((idx, e) for idx, e in zip(free, exps) if e)
        taken = [_finals(skp, _merge(key, shift)) for key in least]
        value = _integer_value(dict(_merge(least[0], shift)), betas, origin)
        ties = [key for key in classes.get(value, ()) if _finals(skp, key) not in taken]
        if ties:
            out = {_merge(key, shift): c for key, c in planted.items()}
            c = skp.field.zero
            while not c:
                c = skp.field.of(rng.choice(COEFFICIENTS))
            out[rng.choice(ties)] = c
            return out
    return planted


def planted_expansion(rng, skp, size=4, final=2):
    """A polynomial built from distinct adic monomials of an exact table,
    and those monomials as {sorted key: coefficient}.  The adic expansion is
    unique, so ``adic_expand`` must give back exactly them.

    First ``size`` monomials are drawn: an exponent at a non-final position
    of finite index n is below n, any other at most ``final``; position j of
    a row of length L is used with probability j / (L + 1), so the least
    value often carries the greatest key polynomials.  Then, with
    probability ``TIE_RATE``, ``_plant_tie`` adds a monomial of the least
    value where the table admits one: all monomials times a shift s in the
    free exponents (``_adic_bound`` None), which keeps them adic and in
    value order, and a key from ``value_classes`` with the least value
    times s but other row-final exponents.  Each product comes
    from ``multiplied_out``."""
    planted = {}
    while len(planted) < size:
        key = []
        for index in skp.order:
            bound = _adic_bound(skp, index) or final + 1
            if bound > 1 and rng.random() < index[1] / (skp.row_length(index[0]) + 1):
                key.append((index, rng.randrange(1, bound)))
        c = skp.field.of(rng.choice(COEFFICIENTS))
        if c:
            planted.setdefault(tuple(key), c)
    if rng.random() < TIE_RATE:
        planted = _plant_tie(rng, skp, planted)
    f = MultiPoly.zero(skp.nvars, skp.field)
    for key, c in planted.items():
        f = f + multiplied_out(skp.entries, key, skp.cutoff).scale(c)
    return f, planted


def coefficient_of(f, i, k):
    """The coefficient of X_i^k, as a polynomial with zero X_i-degree."""
    terms = {}
    for e, c in f.terms.items():
        if e[i] == k:
            e2 = list(e)
            e2[i] = 0
            terms[tuple(e2)] = c
    return MultiPoly(f.nvars, terms, f.field)


def long_divide(f, g, i):
    """Division with remainder by g monic in X_i, one whole-polynomial step
    at a time: subtract lead * X_i^(d - dg) * g until deg_{X_i} < dg."""
    f._check(g)
    dg = g.deg_in(i)
    unit = MultiPoly.one(f.nvars, f.field)
    if dg < 0 or coefficient_of(g, i, dg) != unit:
        raise NotMonicError(f"divisor is not monic in X{i}")
    q = MultiPoly.zero(f.nvars, f.field)
    rem = f
    xi = MultiPoly.variable(i, f.nvars, f.field)
    while not rem.is_zero() and rem.deg_in(i) >= dg:
        d = rem.deg_in(i)
        t = coefficient_of(rem, i, d) * xi ** (d - dg)
        q = q + t
        rem = rem - t * g
        if not rem.is_zero() and rem.deg_in(i) >= d:
            raise AssertionError(f"division step kept X{i}-degree {d}")
    return q, rem


def long_euclidean_expand(f, skp, j=None, row=None):
    """Euclidean expansion of a row by ``long_divide``, as a sorted list of
    (exponent map, coefficient polynomial); the same contract as the
    library's ``euclidean_expand``."""
    top = skp.nvars - 1 if row is None else row
    if j is None:
        j = skp.row_length(top)
    if f.is_zero():
        return []

    def rec(g, jmax):
        dg = g.deg_in(top)
        applicable = [
            j2 for j2 in range(1, jmax + 1) if skp.entries[(top, j2)].d <= dg
        ]
        if not applicable:
            return {(): g}
        j0 = max(applicable)
        divisor = skp.entries[(top, j0)].poly
        if divisor == MultiPoly.variable(top, g.nvars, g.field):
            # in powers of X_top the coefficients are read off directly:
            # dividing once per power would take as many steps as the
            # largest exponent
            coeffs = {t: coefficient_of(g, top, t) for t in {e[top] for e in g.terms}}
        else:
            coeffs = {}
            cur = g
            t = 0
            while not cur.is_zero():
                if cur.deg_in(top) < skp.entries[(top, j0)].d:
                    coeffs[t] = cur
                    break
                q, r = long_divide(cur, divisor, top)
                if not r.is_zero():
                    coeffs[t] = r
                cur = q
                t += 1
        out = {}
        for t, ct in coeffs.items():
            for subkey, cpoly in rec(ct, j0 - 1).items():
                out[subkey + ((j0, t),) if t else subkey] = cpoly
        return out

    items = [(dict(key), cpoly) for key, cpoly in rec(f, j).items()]
    items.sort(key=lambda kc: tuple(sorted(kc[0].items())))
    return items


def group_euclid_value(f, valuation, top):
    """The value of f on rows 0..top through every piece of the Euclidean
    expansions of ``long_euclidean_expand``, each summed as a GroupValue
    (``part + beta.scale(e)``) and compared as one.  Like the value route,
    it refuses a divisor the cutoff left not monic (NotMonicError)."""
    skp = valuation.skp
    if top < 0 or f.degree() == 0:
        return GroupValue((0,) * valuation.skp.dimension)
    if skp.row_length(top) == 0 or valuation.alpha[top] == 0:
        if f.deg_in(top) > 0:
            raise ValueError(f"X{top} appears but row {top} is not usable")
        return group_euclid_value(f, valuation, top - 1)
    best = None
    for exps, coeff in long_euclidean_expand(f, skp, valuation.alpha[top], row=top):
        part = group_euclid_value(coeff, valuation, top - 1)
        for j, e in exps.items():
            part = part + skp.entries[(top, j)].beta.scale(e)
        if best is None or part < best:
            best = part
    return best


# -- reference graded normal form: the rescan loop the library replaced by
# one descending pass over the table positions.


def rescan_graded_normal_form(f, valuation):
    """Unique homogeneous decomposition in(f) = p(T) * U^J.

    Rows whose final entry has infinite index keep a free row-final exponent
    instead of contributing a torus variable.  Extraction runs from the
    highest row down, descending positions within a row.
    """
    skp = valuation.skp
    alpha = valuation.alpha
    inf_form = initial_form(f, valuation)
    betas, denom = _integer_betas(skp)
    origin = (0,) * skp.dimension
    value = _integer_value(dict(inf_form.monomials[0].key), betas, origin)

    A = tuple(
        i
        for i in range(skp.nvars)
        if alpha[i] >= 1 and is_finite_index(skp.entries[(i, alpha[i])].n)
    )
    a_set = set(A)

    def bound_of(index):
        i, j = index
        entry = skp.entries[index]
        if j < alpha[i]:
            return entry.n if is_finite_index(entry.n) else None
        if i in a_set:
            return entry.n
        return None

    common_J = None
    torus = {}
    reduce = skp.field.reduce
    for mono in inf_form:
        exps = dict(mono.key)
        coeff = mono.coeff
        tdeg = {i: 0 for i in A}
        while True:
            target = None
            for idx, e in exps.items():
                b = bound_of(idx)
                if b is not None and e >= b:
                    if target is None or idx > target:
                        target = idx
            if target is None:
                break
            i, j = target
            entry = skp.entries[target]
            q, r = divmod(exps[target], entry.n)
            if r:
                exps[target] = r
            else:
                del exps[target]
            coeff = coeff * entry.theta ** q
            if j == alpha[i] and i in a_set:
                tdeg[i] += q
            for idx2, m in entry.relation.items():
                if q * m:
                    exps[idx2] = exps.get(idx2, 0) + q * m
        if _integer_value(exps, betas, origin) != value:
            raise AssertionError("normal-form monomial changed value")
        if common_J is None:
            common_J = exps
        elif common_J != exps:
            raise AssertionError("normal-form base exponent differs")
        key = tuple(tdeg[i] for i in A)
        cur = reduce(torus.get(key, 0) + coeff)
        if not cur:
            torus.pop(key, None)
        else:
            torus[key] = cur
    value = GroupValue(tuple(Fraction(c, denom) for c in value))
    return GradedNormalForm(common_J or {}, torus, A, value)


# -- reference index and relation arithmetic: subgroup_index through a left
# kernel, canonical_representation through a second integer solve, and
# analyze_chain chaining the two at every position.  The library does all
# three with one echelon of the prefix per position.


def left_kernel(rows):
    """Basis (list of int vectors x) of {x : x @ rows == 0}."""
    if not rows:
        return []
    H, U = row_echelon(rows)
    return [U[i] for i in range(len(rows)) if all(a == 0 for a in H[i])]


def of_dimension(values, dim):
    """``values`` as GroupValues, each of dimension ``dim`` or refused
    with DimensionMismatchError."""
    out = [as_group_value(v) for v in values]
    for v in out:
        if v.dim != dim:
            raise DimensionMismatchError(f"expected dimension {dim}, got {v.dim}")
    return out


def subgroup_index(gamma, previous):
    """Least r >= 1 with r*gamma in the group generated by ``previous``.

    Returns INFINITY when no positive multiple lands in the group; in
    particular for a nonzero gamma over an empty family.
    """
    gamma = as_group_value(gamma)
    previous = of_dimension(previous, gamma.dim)
    if not any(gamma.coords):
        return 1
    if not previous:
        return INFINITY
    rows, _ = _integer_rows([gamma] + previous)
    kernel = left_kernel(rows)
    n0 = 0
    for vec in kernel:
        n0 = gcd(n0, vec[0])
    if n0 == 0:
        return INFINITY
    return n0


def evaluate(rep, previous):
    """sum m_j * previous[j] over a representation {j: m_j}, as a GroupValue."""
    if not previous:
        raise ValueError("cannot evaluate over an empty family")
    total = GroupValue((0,) * as_group_value(previous[0]).dim)
    for j, m in rep.items():
        total = total + as_group_value(previous[j]).scale(m)
    return total


def canonical_representation(n, gamma, previous, ns=None, relations=None):
    """The unique representation of n*gamma over ``previous``.

    Coefficients satisfy 0 <= m_j < n_j at positions of finite index and are
    free integers at positions of infinite index.  ``ns`` and ``relations``
    describe the earlier entries; when omitted they are recomputed by chaining
    ``subgroup_index`` / ``canonical_representation`` along the prefix.

    Raises NotInGroupError when n*gamma is outside the generated group.
    """
    gamma = as_group_value(gamma)
    previous = of_dimension(previous, gamma.dim)
    if ns is None or relations is None:
        chain = analyze_chain(previous)
        ns = [e.n for e in chain]
        relations = [e.relation for e in chain]

    target = gamma.scale(n)
    if not any(target.coords):
        return {}
    rows, denom = _integer_rows(previous + [target])
    sol = solve_combination(rows[:-1], rows[-1])
    if sol is None:
        raise NotInGroupError(f"{n}*{gamma} is not in the generated group")

    # descending Euclidean reduction: fold the excess at the greatest index
    # with finite n into strictly earlier positions via its stored relation
    p = list(sol)
    for j in range(len(p) - 1, -1, -1):
        nj = ns[j]
        if not is_finite_index(nj):
            continue
        if 0 <= p[j] < nj:
            continue
        q, r = divmod(p[j], nj)
        p[j] = r
        for j2, m in relations[j].items():
            p[j2] += q * m
    rep = {j: m for j, m in enumerate(p) if m}
    if not (evaluate(rep, previous) == target if previous else not any(target.coords)):
        raise AssertionError(f"representation {rep} does not evaluate to {target}")
    return rep


def analyze_chain(values):
    """Index and canonical relation of every prefix position.

    Position j gets n_j = subgroup_index over values[:j]; when n_j is finite
    the canonical representation of n_j*values[j] is attached, otherwise an
    empty relation.
    """
    values = [as_group_value(v) for v in values]
    entries = []
    ns = []
    relations = []
    for j, v in enumerate(values):
        n = subgroup_index(v, values[:j])
        if is_finite_index(n):
            rel = canonical_representation(n, v, values[:j], ns=ns, relations=relations)
        else:
            rel = {}
        entries.append(ChainEntry(v, n, rel))
        ns.append(n)
        relations.append(rel)
    return entries


# -- exact semigroup membership for positive generators, with no lattice
# arithmetic: a reachability table over the integers at rank 1, and above
# it every count of the generators at the leading coordinate.


def _coin_member(target, gens):
    """target in the semigroup of positive rationals ``gens``, by a
    reachability table after scaling everything to integers."""
    denom = 1
    for c in [target] + list(gens):
        denom = denom * c.denominator // gcd(denom, c.denominator)
    t = target * denom
    if t < 0 or t.denominator != 1:
        return False
    coins = [int(c * denom) for c in gens]
    t = int(t)
    reach = [True] + [False] * t
    for k in range(1, t + 1):
        reach[k] = any(c <= k and reach[k - c] for c in coins)
    return reach[t]


def semigroup_member(gamma, gens):
    """gamma in the semigroup of the lex-positive ``gens``, exactly.

    Only the generators with a nonzero leading coordinate contribute there,
    each at most leading(gamma)/leading(g) times; every count that matches
    gamma's leading coordinate leaves a remainder to decide one level down
    over the generators whose leading coordinate is 0.
    """
    gamma = as_group_value(gamma)
    gens = of_dimension(gens, gamma.dim)
    if gamma.dim == 1:
        return _coin_member(gamma.coords[0], [g.coords[0] for g in gens])
    lead = [g for g in gens if g.coords[0] != 0]
    rest = [GroupValue(g.coords[1:]) for g in gens if g.coords[0] == 0]
    top = gamma.coords[0]
    if top < 0:
        return False
    for counts in itertools.product(*[range(int(top / g.coords[0]) + 1) for g in lead]):
        if sum(c * g.coords[0] for c, g in zip(counts, lead)) != top:
            continue
        below = [gamma.coords[k] - sum(c * g.coords[k] for c, g in zip(counts, lead))
                 for k in range(1, gamma.dim)]
        if semigroup_member(GroupValue(below), rest):
            return True
    return False


def positive_chain(rng, dim, size):
    """``size`` random lex-positive values of dimension 1 or 2 with small
    numerators and denominators, in random order."""
    out = []
    while len(out) < size:
        if dim == 1:
            out.append(GroupValue(Fraction(rng.randint(1, 14), rng.choice((1, 1, 2, 3)))))
            continue
        v = GroupValue((rng.randint(0, 2), Fraction(rng.randint(-3, 4), rng.choice((1, 2)))))
        if v > GroupValue((0, 0)):
            out.append(v)
    return out


def random_polynomial(rng, nvars, max_degree, field=QQ, variables=None):
    """A random nonzero polynomial of up to 5 terms with small integer
    coefficients."""
    if variables is None:
        variables = list(range(nvars))
    while True:
        terms = {}
        for _ in range(rng.randint(1, 5)):
            while True:
                exps = [0] * nvars
                for v in variables:
                    exps[v] = rng.randint(0, max_degree)
                if sum(exps) <= max_degree:
                    break
            c = rng.randint(-5, 5)
            if c == 0:
                c = 1
            terms[tuple(exps)] = c
        f = MultiPoly(nvars, terms, field)
        if not f.is_zero():
            return f
