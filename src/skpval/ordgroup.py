"""Totally ordered abelian groups realized as Q^r with lexicographic order.

A :class:`GroupValue` is an immutable vector of exact rationals compared
lexicographically (first coordinate most significant).  On top of that this
module provides the arithmetic a well-ordered generator sequence needs:

* ``analyze_chain(values)`` -- the index n_j of every position over the
  earlier values (INFINITY outside their Q-span) and its canonical relation
  n_j*gamma_j = sum m*gamma, a plain ``{position: nonzero int}`` map, from
  two integer echelons of the family whatever its length; the chain
  keeps the rows, their common denominator and their echelon, and is the
  one integer value encoding (``Chain.row`` and ``Chain.value``),
* ``subgroup_index(g, previous)`` and ``canonical_representation(n, g,
  previous)`` -- the unique n*g = sum m_j gamma_j with 0 <= m_j < n_j at
  positions of finite index, as such a map -- read from such a chain,
* ``fold_relations(p, entries)`` -- the one descending reduction by the
  relations, which makes a representation canonical and with which the
  graded normal form of ``valuation`` reduces its monomials,
* ``semigroup_witness(g, chain)`` -- exact membership in the semigroup the
  chain generates, solved against its stored echelon by back-substitution,
* ``rational_rank``, read from the same analysis, and ``isolated_level``
  for the numerical invariants.

All computations are exact.
"""

from fractions import Fraction
from math import gcd, inf as INFINITY, lcm

from . import intlattice
from .errors import DimensionMismatchError, NotInGroupError


def is_finite_index(n):
    """True for an integer index, False for the INFINITY marker."""
    return n != INFINITY


class GroupValue:
    """An element of Q^r under the lexicographic order.

    Instances are immutable; addition and integer/rational scaling are
    componentwise and exact.  Comparisons require equal dimension.  Every
    coordinate is a ``Fraction``: one of exactly that type is kept as it
    is, anything else is coerced.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        if isinstance(coords, (int, Fraction, str)):
            coords = (coords,)
        object.__setattr__(
            self,
            "coords",
            tuple(c if type(c) is Fraction else Fraction(c) for c in coords),
        )

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


def as_group_value(x):
    """Coerce a scalar, sequence, or GroupValue."""
    return x if isinstance(x, GroupValue) else GroupValue(x)


def _pivot(row):
    """Column of the first nonzero entry of an integer row, None for zero."""
    return next((c for c, a in enumerate(row) if a), None)


def _back_substitute(basis, target, m):
    """(n, raw): the least n >= 1 with n*target in the Z-span of ``basis``
    (nonzero echelon rows of m rows, as (pivot, row, transform row)) and
    coefficients over the m rows with sum raw_k rows_k == n*target;
    (INFINITY, None) outside the Q-span.  n is the lcm of the coefficients'
    denominators, built up pivot by pivot."""
    n, t, raw = 1, list(target), [0] * m
    for piv, h, u in basis:
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
    return analyze_chain([*previous, gamma])[-1].n


def canonical_representation(n, gamma, previous):
    """The unique representation of n*gamma over ``previous``, as the map
    {position: nonzero coefficient}.

    Coefficients satisfy 0 <= m_j < n_j at positions of finite index and are
    free integers at positions of infinite index.

    Raises NotInGroupError when n*gamma is outside the generated group.
    """
    gamma = as_group_value(gamma)
    rep = _represent(gamma.scale(n), analyze_chain(previous))
    if rep is None:
        raise NotInGroupError(f"{n}*{gamma} is not in the generated group")
    return rep


def fold_relations(p, entries):
    """Descending Euclidean reduction of the coefficient list ``p``, in
    place: from the greatest position down, the excess of p[j] over
    [0, n_j) at a position of finite index is folded into strictly earlier
    positions by the position's relation n_j*gamma_j = sum m*gamma (a
    ``{position: m}`` map); ``entries`` has the ``n`` and ``relation`` of
    every position of ``p``.  Returns the quotient taken at each position,
    0 where none was.
    """
    quotients = [0] * len(p)
    for j in range(len(p) - 1, -1, -1):
        nj = entries[j].n
        if not is_finite_index(nj) or 0 <= p[j] < nj:
            continue
        quotients[j], p[j] = divmod(p[j], nj)
        for j2, m in entries[j].relation.items():
            p[j2] += quotients[j] * m
    return quotients


def _canonical(raw, target, rows, entries):
    """The canonical form {position: nonzero coefficient} of a raw relation
    target = sum raw_k rows_k on integer rows, by ``fold_relations`` over
    ``entries``, the chain entries of the rows' positions; checked on those
    rows."""
    p = list(raw)
    fold_relations(p, entries)
    total = [sum(m * row[k] for m, row in zip(p, rows)) for k in range(len(target))]
    if total != list(target):
        raise AssertionError(f"representation {p} does not evaluate to {target}")
    return {j: m for j, m in enumerate(p) if m}


class ChainEntry:
    """Per-position data of an analyzed generator sequence; ``relation`` is
    the canonical relation {earlier position: nonzero int}, empty at a
    position of infinite index."""

    __slots__ = ("value", "n", "relation")

    def __init__(self, value, n, relation):
        self.value = value
        self.n = n
        self.relation = relation

    def __repr__(self):
        n = "inf" if not is_finite_index(self.n) else self.n
        return f"ChainEntry({self.value}, n={n}, rel={self.relation})"


class Chain(list):
    """The ChainEntry list of an analyzed family, keeping the lattice it was
    read from: ``rows``, the values times their common denominator
    ``denom``, and ``basis``, the nonzero rows of the rows' echelon as
    (pivot column, row, transform row).  ``row`` and ``value`` convert
    between a GroupValue and its integer row on that grid; integer rows
    order and compare as their values do."""

    def row(self, value):
        """value times ``denom`` as a tuple of ints, or None when a
        coordinate is off the grid of that denominator."""
        row = [c * self.denom for c in value.coords]
        if any(c.denominator != 1 for c in row):
            return None
        return tuple(c.numerator for c in row)

    def value(self, row):
        """The GroupValue of an integer row over ``denom``, its coordinates
        made Fractions here, so the constructor's check is skipped."""
        denom = self.denom
        out = object.__new__(GroupValue)
        coords = [Fraction(c) for c in row] if denom == 1 else [Fraction(c, denom) for c in row]
        object.__setattr__(out, "coords", tuple(coords))
        return out


def analyze_chain(values):
    """Index n_j of values[j] over values[:j] at every position, and when
    n_j is finite the canonical representation of n_j*values[j], otherwise
    an empty relation.

    Two echelons, whatever the length.  The first, of the integer rows, is
    the basis later values are solved against; through the transform its
    zero rows give a basis of the relations sum x_k rows_k = 0.  The second
    echelons those by last position, so the relations ending at or before j
    are spanned by its rows that do: the row ending at j holds n_j > 0 at j
    and minus a raw relation before it, and none ends at j iff n_j = INFINITY.
    The basis keeps each transform row folded by ``fold_relations``, which
    keeps its sum and leaves its entries small.
    """
    values = [as_group_value(v) for v in values]
    for v in values[1:]:
        values[0]._check_dim(v)
    chain = Chain()
    chain.denom = lcm(*(c.denominator for v in values for c in v.coords))
    chain.rows = rows = [chain.row(v) for v in values]
    H, U = intlattice.row_echelon(rows)
    kernel = [u[::-1] for h, u in zip(H, U) if not any(h)]
    last = len(values) - 1
    ending = {last - _pivot(x): x[::-1] for x in intlattice.row_echelon(kernel)[0]}
    chain.basis = [(_pivot(h), h, u) for h, u in zip(H, U) if any(h)]
    for j, (v, row) in enumerate(zip(values, rows)):
        n, rel = INFINITY, {}
        if j in ending:
            n = ending[j][j]
            raw = [-a for a in ending[j][:j]]
            rel = _canonical(raw, [n * a for a in row], rows[:j], chain)
        chain.append(ChainEntry(v, n, rel))
    for _, _, u in chain.basis:
        fold_relations(u, chain)
    return chain


def _represent(gamma, chain):
    """The canonical representation of gamma over the chain's values, solved
    against its stored echelon, or None outside the group they generate
    (a value off the chain's denominator grid is outside it)."""
    if chain:
        gamma._check_dim(chain[0].value)
    target = chain.row(gamma)
    if target is None:
        return None
    n, raw = _back_substitute(chain.basis, target, len(chain))
    return _canonical(raw, target, chain.rows, chain) if n == 1 else None


def semigroup_witness(gamma, chain):
    """Coefficients of gamma as a nonnegative combination of the chain's
    values, or None when gamma's canonical representation has a negative
    coefficient or gamma is outside the generated group.

    Exact when every relation in ``chain`` (from ``analyze_chain``) is
    nonnegative: a nonnegative combination reduces to the unique canonical
    one by folding n_j*gamma_j into its relation, which creates no negative
    coefficient.
    """
    rep = _represent(as_group_value(gamma), chain)
    if rep is None:
        return None
    witness = tuple(rep.get(j, 0) for j in range(len(chain)))
    return None if any(m < 0 for m in witness) else witness


def rational_rank(values):
    """Dimension of the Q-span of the given values."""
    return len(analyze_chain(values).basis)


def isolated_level(v):
    """Least k with v in Delta_k; Delta_0 = {0}."""
    v = as_group_value(v)
    for pos, c in enumerate(v.coords):
        if c != 0:
            return v.dim - pos
    return 0


def format_index(n):
    return "inf" if not is_finite_index(n) else int(n)
