"""Totally ordered abelian groups realized as Q^r with lexicographic order.

A :class:`GroupValue` is an immutable vector of exact rationals compared
lexicographically (first coordinate most significant).  On top of that this
module provides the arithmetic a well-ordered generator sequence needs:

* ``subgroup_index(g, previous)`` -- the least r >= 1 with r*g in the group
  generated by ``previous`` (INFINITY when no multiple lands there),
* ``canonical_representation(n, g, previous)`` -- the unique representation
  n*g = sum m_j gamma_j with 0 <= m_j < n_j at positions of finite index,
* ``analyze_chain(values)`` -- both at every position of a sequence, one
  integer echelon per position; a prefix's rational rank is its number of
  infinite indices,
* ``semigroup_witness(g, chain)`` -- exact membership in the semigroup the
  chain generates, read from g's canonical representation,
* ``rational_rank``, ``span_levels`` and ``isolated_level`` for the
  numerical invariants.

All computations are exact: values are scaled to a common denominator and
handed to the integer-lattice solver.
"""

from fractions import Fraction
from math import gcd, inf as INFINITY

from . import intlattice
from .errors import DimensionMismatchError, NotInGroupError


def is_finite_index(n):
    """True for an integer index, False for the INFINITY marker."""
    return n != INFINITY


class GroupValue:
    """An element of Q^r under the lexicographic order.

    Instances are immutable; addition and integer/rational scaling are
    componentwise and exact.  Comparisons require equal dimension.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        if isinstance(coords, (int, Fraction, str)):
            coords = (coords,)
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("GroupValue is immutable")

    @property
    def dim(self):
        return len(self.coords)

    def _check_dim(self, other):
        if not isinstance(other, GroupValue):
            raise TypeError(f"expected GroupValue, got {other!r}")
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        self._check_dim(other)
        return GroupValue(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_dim(other)
        return GroupValue(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupValue(tuple(-a for a in self.coords))

    def scale(self, k):
        k = Fraction(k)
        return GroupValue(tuple(k * a for a in self.coords))

    def __mul__(self, k):
        return self.scale(k)

    __rmul__ = __mul__

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def __eq__(self, other):
        if not isinstance(other, GroupValue):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        self._check_dim(other)
        return self.coords < other.coords

    def __le__(self, other):
        self._check_dim(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        self._check_dim(other)
        return self.coords > other.coords

    def __ge__(self, other):
        self._check_dim(other)
        return self.coords >= other.coords

    def __repr__(self):
        if self.dim == 1:
            return f"GroupValue({self.coords[0]})"
        return f"GroupValue(({', '.join(str(c) for c in self.coords)}))"

    def __str__(self):
        if self.dim == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self):
        """JSON form: the coordinates as rational strings "p/q" (or "p")."""
        return [str(c) for c in self.coords]


def as_group_value(x, dim=None):
    """Coerce a scalar, sequence, or GroupValue; optionally check dimension."""
    v = x if isinstance(x, GroupValue) else GroupValue(x)
    if dim is not None and v.dim != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.dim}")
    return v


def _integer_rows(values):
    """Scale a family of GroupValues to integer rows by the common denominator."""
    denom = 1
    for v in values:
        for c in v.coords:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    return [[int(c * denom) for c in v.coords] for v in values], denom


def _lattice_step(prefix, target):
    """(n, raw): the least n >= 1 with n*target in the Z-span of the integer
    rows ``prefix``, and integer coefficients with sum raw_k prefix_k ==
    n*target; (INFINITY, None) when target is outside the Q-span.

    Echelons the prefix once and writes the target over the nonzero echelon
    rows, a basis of the span, by back-substitution: n is the lcm of the
    coefficients' denominators, built up pivot by pivot, and raw is read
    through the transform U.
    """
    n, t, raw = 1, list(target), [0] * len(prefix)
    H, U = intlattice.row_echelon(prefix) if prefix else ([], [])
    for h, u in zip(H, U):
        piv = next((c for c, a in enumerate(h) if a), None)
        if piv is None:
            break
        g = h[piv] // gcd(t[piv], h[piv])
        n, t, raw = n * g, [g * a for a in t], [g * a for a in raw]
        q = t[piv] // h[piv]
        t = [a - q * b for a, b in zip(t, h)]
        raw = [a + q * b for a, b in zip(raw, u)]
    return (INFINITY, None) if any(t) else (n, raw)


def subgroup_index(gamma, previous):
    """Least r >= 1 with r*gamma in the group generated by ``previous``.

    Returns INFINITY when no positive multiple lands in the group; in
    particular for a nonzero gamma over an empty family.
    """
    gamma = as_group_value(gamma)
    previous = [as_group_value(v, gamma.dim) for v in previous]
    rows, _ = _integer_rows(previous + [gamma])
    return _lattice_step(rows[:-1], rows[-1])[0]


class Representation:
    """Coefficients m_j of a representation n*gamma = sum m_j gamma_j.

    Stored sparsely as position -> nonzero integer.  ``is_positive`` records
    whether every coefficient is a natural number.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {j: int(m) for j, m in dict(coeffs).items() if m != 0}

    @property
    def is_positive(self):
        return all(m > 0 for m in self.coeffs.values())

    def evaluate(self, previous):
        """Reconstruct sum m_j * previous[j] as a GroupValue."""
        if not previous:
            raise ValueError("cannot evaluate over an empty family")
        dim = as_group_value(previous[0]).dim
        total = GroupValue((0,) * dim)
        for j, m in self.coeffs.items():
            total = total + as_group_value(previous[j]).scale(m)
        return total

    def __eq__(self, other):
        return isinstance(other, Representation) and self.coeffs == other.coeffs

    def __repr__(self):
        inner = ", ".join(f"{j}: {m}" for j, m in sorted(self.coeffs.items()))
        return "Representation({" + inner + "})"


def canonical_representation(n, gamma, previous, ns=None, relations=None):
    """The unique representation of n*gamma over ``previous``.

    Coefficients satisfy 0 <= m_j < n_j at positions of finite index and are
    free integers at positions of infinite index.  ``ns`` and ``relations``
    describe the earlier entries; when omitted they are recomputed with
    ``analyze_chain`` over the prefix.

    Raises NotInGroupError when n*gamma is outside the generated group.
    """
    gamma = as_group_value(gamma)
    previous = [as_group_value(v, gamma.dim) for v in previous]
    if ns is None or relations is None:
        chain = analyze_chain(previous)
        ns = [e.n for e in chain]
        relations = [e.relation for e in chain]
    rows, _ = _integer_rows(previous + [gamma.scale(n)])
    index, raw = _lattice_step(rows[:-1], rows[-1])
    if index != 1:
        raise NotInGroupError(f"{n}*{gamma} is not in the generated group")
    return _canonical(raw, rows[-1], rows[:-1], ns, relations)


def _canonical(raw, target, prefix, ns, relations):
    """The canonical form of a raw relation target = sum raw_k prefix_k on
    integer rows, checked on those rows.

    Descending Euclidean reduction: fold the excess at the greatest position
    with finite n into strictly earlier positions via its stored relation.
    """
    p = list(raw)
    for j in range(len(p) - 1, -1, -1):
        nj = ns[j]
        if not is_finite_index(nj) or 0 <= p[j] < nj:
            continue
        q, p[j] = divmod(p[j], nj)
        for j2, m in relations[j].coeffs.items():
            p[j2] += q * m
    total = [sum(m * row[k] for m, row in zip(p, prefix)) for k in range(len(target))]
    if total != list(target):
        raise AssertionError(f"representation {p} does not evaluate to {target}")
    return Representation(dict(enumerate(p)))


class ChainEntry:
    """Per-position data of an analyzed generator sequence."""

    __slots__ = ("value", "n", "relation")

    def __init__(self, value, n, relation):
        self.value = value
        self.n = n
        self.relation = relation

    def __repr__(self):
        n = "inf" if not is_finite_index(self.n) else self.n
        return f"ChainEntry({self.value}, n={n}, rel={self.relation})"


def analyze_chain(values):
    """Index and canonical relation of every prefix position.

    Position j gets n_j, the subgroup index of values[j] over values[:j],
    and when n_j is finite the canonical representation of n_j*values[j],
    otherwise an empty relation.  The family is scaled to integer rows once;
    each position takes one lattice step.
    """
    values = [as_group_value(v) for v in values]
    for v in values[1:]:
        values[0]._check_dim(v)
    rows, _ = _integer_rows(values)
    entries, ns, relations = [], [], []
    for j, (v, row) in enumerate(zip(values, rows)):
        n, raw = _lattice_step(rows[:j], row)
        rel = Representation({})
        if raw is not None:
            rel = _canonical(raw, [n * a for a in row], rows[:j], ns, relations)
        entries.append(ChainEntry(v, n, rel))
        ns.append(n)
        relations.append(rel)
    return entries


def semigroup_witness(gamma, chain):
    """Coefficients of gamma as a nonnegative combination of the chain's
    values, or None when gamma's canonical representation has a negative
    coefficient or gamma is outside the generated group.

    Exact when every relation in ``chain`` (from ``analyze_chain``) is
    nonnegative: a nonnegative combination reduces to the unique canonical
    one by folding n_j*gamma_j into its relation, which creates no negative
    coefficient.
    """
    values = [e.value for e in chain]
    try:
        rep = canonical_representation(
            1, gamma, values, ns=[e.n for e in chain],
            relations=[e.relation for e in chain],
        )
    except NotInGroupError:
        return None
    witness = tuple(rep.coeffs.get(j, 0) for j in range(len(chain)))
    return None if any(m < 0 for m in witness) else witness


def _pivot_columns(values):
    rows, _ = _integer_rows([as_group_value(v) for v in values])
    return intlattice.pivot_columns(rows)


def rational_rank(values):
    """Dimension of the Q-span of the given values."""
    return len(_pivot_columns(values))


def span_levels(values):
    """Isolated levels achieved by the Q-span of the values.

    For the lexicographic order on Q^r the isolated subgroups are
    Delta_k = {first r-k coordinates zero}; the span meets a new Delta_k
    exactly at the levels r - c over its pivot columns c.
    """
    values = [as_group_value(v) for v in values]
    return frozenset(values[0].dim - c for c in _pivot_columns(values))


def isolated_level(v):
    """Least k with v in Delta_k; Delta_0 = {0}."""
    v = as_group_value(v)
    for pos, c in enumerate(v.coords):
        if c != 0:
            return v.dim - pos
    return 0


def format_index(n):
    return "inf" if not is_finite_index(n) else int(n)
