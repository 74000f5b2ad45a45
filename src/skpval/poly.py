"""Sparse exact multivariate polynomials over Q or a prime field.

Terms are stored as a map from exponent tuple (one entry per variable) to a
nonzero coefficient in the field's form (``fields``): an int, or over Q a
Fraction when it is not integral.  Python's operators do the arithmetic and
every stored result passes through ``field.reduce``.  Arithmetic is exact;
nothing here ever introduces a denominator that the scalar field does not
already carry.

The one nontrivial algorithm is division with remainder in X_i by a divisor
monic in X_i, which keeps quotient and remainder in the same ring.  It runs
on packed polynomials (module ``packed``: ``pack``, ``split``,
``divide_split``, ``join``): the exponents of a monomial are coded as the
one int sum e_v << (w*v) at a width of w bits per variable, so the product
of two monomials is the sum of their codes, and the coefficients of the
powers of one variable are the digits of one int.

The width is proven, not guessed.  The sum of two codes is the code of the
product as long as no exponent of the product reaches 2^w.  Let g be monic
in X_i of X_i-degree dg and W >= 1 with |e| <= W * (dg - k) for every lower
term X^e * X_i^k of g, |e| the total degree of the variables other than X_i
(``division_factor``).  Weigh a monomial X^a by
phi(a) = sum_{v != i} a_v + W * a_i.  A division step sends a lead term of
X_i-degree D >= dg to a quotient term of X_i-degree D - dg (phi drops by
W * dg) and to the terms X^(a+e) * X_i^(D-dg+k), whose phi is
phi(a) + |e| - W * (dg - k) <= phi(a).  So every monomial a division forms,
in quotient and remainder alike, has phi at most the largest phi on the
dividend f, which is at most W * totdeg(f), and each of its exponents is at
most its phi.  A width that holds max(W * totdeg(f), the largest exponent
of g) therefore holds every exponent the division forms
(``exponent_width``); ``expansion`` repeats the argument row by row.

The digit width is proven, not guessed, like the exponent width.  In the
division the coefficients of the powers of one variable are the signed
digits, b bits wide, of one int (``packed``), and each ``packed.Split``
carries a bound B on every |digit| of its ints.  A step subtracts the lead
slice times the divisor's coefficient of X_i^k, for each lower k; each
digit of that product is a sum of the lead's digits times the
coefficient's, so at most L * N in absolute value, L a bound on the lead's
digits and N the largest sum of |c| over one coefficient
(``packed.Divisor.norm``), and B + L * N bounds every digit after the
step; L is B unless the lead was read.  An int determines its digits, and
its lowest set bit lies in its lowest nonzero digit, at place v2(x) // b,
while B < 2^(b-1) (``packed.digit_limit``).  So before a step that would
take B there, the division makes room.  Over Q the terms the bound adds up
may cancel, so it first reads the lead's digits for a true L, then every
slice's for a true B; over GF(p) it reduces the digits mod p, which sets
B to p - 1.  Only when that is not enough does it widen the slices
(``packed.widen``) to a width that holds the step, at least a quarter
wider; a slice of the quotient, finished, keeps its width until the
quotient is divided again.  The limit over GF(p) is lower, 2^t,
t = (b - bits(p)) // 2 - 2, so that one multiply reduces every digit of an
int (``packed``'s ``_reduce``).  A divisor whose lower coefficients are
not integral is taken as D * g, D the lcm of their denominators: a step
is then rem <- D * rem - lead * X_i^(d - dg) * (D * g), pseudo-division,
which multiplies every bound, the quotient's too, by D, and after s steps
the quotient and the remainder hold D^(s-1) and D^s times the true ones,
their ``scale``.
"""

import re
from operator import add

from .errors import PolyParseError, ZeroPolyError, shorten
from .fields import QQ
from .packed import digit_variable, divide_split, join, pack, split, split_divisor


class MultiPoly:
    """A sparse polynomial in variables X0..X_{nvars-1}."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, terms=None, field=QQ):
        self.nvars = nvars
        self.field = field
        clean = {}
        for exps, c in (terms or {}).items():
            c = field.of(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_reduced(cls, nvars, terms, field=QQ):
        """The polynomial that keeps ``terms`` as they are: every exponent
        tuple valid and every coefficient nonzero and in the field's form,
        as arithmetic makes them (``__init__`` checks outside input)."""
        out = cls.__new__(cls)
        out.nvars, out.field, out.terms = nvars, field, terms
        return out

    @classmethod
    def zero(cls, nvars, field=QQ):
        return cls.from_reduced(nvars, {}, field)

    @classmethod
    def constant(cls, c, nvars, field=QQ):
        return cls(nvars, {(0,) * nvars: field.of(c)}, field)

    @classmethod
    def one(cls, nvars, field=QQ):
        return cls.constant(1, nvars, field)

    @classmethod
    def variable(cls, i, nvars, field=QQ):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): field.of(1)}, field)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {other!r}")
        if other.nvars != self.nvars or other.field != self.field:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        reduce = self.field.reduce
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c = reduce(terms.get(e, 0) + c)
            if not c:
                terms.pop(e, None)
            else:
                terms[e] = c
        return MultiPoly.from_reduced(self.nvars, terms, self.field)

    def __neg__(self):
        reduce = self.field.reduce
        terms = {e: reduce(-c) for e, c in self.terms.items()}
        return MultiPoly.from_reduced(self.nvars, terms, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        reduce = self.field.reduce
        terms = {e: c for e, c in zip(terms, map(reduce, terms.values())) if c}
        return MultiPoly.from_reduced(self.nvars, terms, self.field)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.field.of(c)
        reduce = self.field.reduce
        terms = {e: reduce(c * v) for e, v in self.terms.items()} if c else {}
        return MultiPoly.from_reduced(self.nvars, terms, self.field)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.nvars, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def is_zero(self):
        return not self.terms

    # -- degrees -----------------------------------------------------------

    def deg_in(self, i):
        """Degree in X_i; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def order(self):
        """Minimum total degree over the terms."""
        if not self.terms:
            raise ZeroPolyError("order of the zero polynomial")
        return min(sum(e) for e in self.terms)

    def degree(self):
        """Maximum total degree over the terms; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def is_monic_in(self, i):
        """True when the leading X_i-coefficient is the constant 1."""
        d = self.deg_in(i)
        lead = [(e, c) for e, c in self.terms.items() if e[i] == d]
        return lead == [((0,) * i + (d,) + (0,) * (self.nvars - i - 1), self.field.one)]

    def truncate(self, cutoff):
        """Drop all terms of total degree above the cutoff."""
        if cutoff is None:
            return self
        terms = {e: c for e, c in self.terms.items() if sum(e) <= cutoff}
        return MultiPoly.from_reduced(self.nvars, terms, self.field)

    def support_variables(self):
        return {i for e in self.terms for i in range(self.nvars) if e[i] > 0}

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        """Terms ordered for display: lexicographic on exponent vectors,
        highest variable first, descending."""
        return sorted(
            self.terms.items(), key=lambda ec: tuple(reversed(ec[0])), reverse=True
        )

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"MultiPoly({poly_to_str(self)})"


def exponent_width(bound):
    """Bits per variable of packed monomials whose exponents are at most bound."""
    return max(1, bound.bit_length())


def division_factor(g, i):
    """The least W >= 1 with |e| <= W * (dg - k) over the lower terms
    X^e * X_i^k of g, dg its X_i-degree and |e| the total degree of the
    other variables: the factor of the width proof in the module docstring."""
    dg = g.deg_in(i)
    # -(-|e| // (dg - k)) is the ceiling of |e| / (dg - k)
    return max([-((e[i] - sum(e)) // (dg - e[i])) for e in g.terms if e[i] < dg] + [1])


def monic_divide(f, g, i):
    """Division with remainder by a divisor monic in X_i.

    Returns (q, rem) with f = q*g + rem exactly and deg_{X_i}(rem) <
    deg_{X_i}(g).  Since g is monic in X_i no coefficient division happens,
    so quotient and remainder stay in the same ring.  f and g are packed at
    the exponent width that holds max(W * totdeg(f), the largest exponent
    of g), W = ``division_factor(g, i)``, with digit variable X0 (X1 when
    i is 0), and q and rem joined.
    """
    f._check(g)
    largest = max(map(max, g.terms), default=0)
    w = exponent_width(max(division_factor(g, i) * f.degree(), largest))
    divisor = split_divisor(g, i, w)
    q, rem = divide_split(split(pack(f, w, digit_variable(i)), i, w), divisor)
    return tuple(
        MultiPoly.from_reduced(f.nvars, join(g, i, w, f.nvars, f.field), f.field) for g in (q, rem)
    )


# -- text form ---------------------------------------------------------------


def poly_to_str(f):
    """Deterministic text form, e.g. ``X1^2 - 3/2*X0^3``."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.sorted_terms():
        vars_part = "*".join(
            f"X{i}" + (f"^{k}" if k > 1 else "")
            for i, k in enumerate(e)
            if k > 0
        )
        cs = f.field.format(c)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if vars_part:
            body = vars_part if mag == "1" else f"{mag}*{vars_part}"
        else:
            body = mag
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


# deepest nesting of parentheses and unary minus the parser accepts; each
# level costs a few Python frames, so the bound keeps well clear of the
# interpreter's recursion limit
MAX_NESTING = 100

# ASCII digits only: ``\d`` would also read other scripts' digits
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<var>X[0-9]+)|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    """The (kind, text) pairs of ``text``, kind "num", "var" or "op"."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"bad character at {shorten(text[pos:])!r}")
            break
        tokens.append((m.lastgroup, m[m.lastgroup]))
        pos = m.end()
    return tokens


def _natural(digits, what):
    """The int that ``digits`` write, refused past the digits int() reads."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"{what} {shorten(digits)} has too many digits") from None


class _Parser:
    """Recursive descent for ``expr := term (('+'|'-') term)*``,
    ``term := factor ('*' factor)*``, ``factor := atom ('^' nat)?``,
    ``atom := rational | Xk | '(' expr ')' | '-' factor``."""

    def __init__(self, tokens, nvars, field):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.field = field
        self.depth = 0

    def peek(self):
        if self.pos >= len(self.tokens):
            return None, None
        return self.tokens[self.pos]

    def take(self):
        kind, val = self.peek()
        self.pos += 1
        return kind, val

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}, got {val if val is None else shorten(val)!r}")

    def parse(self):
        f = self.expr()
        if self.pos != len(self.tokens):
            raise PolyParseError(f"trailing input at token {self.pos}")
        return f

    def expr(self):
        f = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                g = self.term()
                f = f + g if val == "+" else f - g
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                f = f * self.factor()
            else:
                return f

    def factor(self):
        f = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num" or "/" in (val or ""):
                raise PolyParseError("exponent must be a natural number")
            f = f ** _natural(val, "exponent")
        return f

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return MultiPoly.constant(self.field.parse(val), self.nvars, self.field)
        if kind == "var":
            i = _natural(val[1:], "variable index")
            if i >= self.nvars:
                raise PolyParseError(
                    f"variable {shorten(val)} out of range (ring has X0..X{self.nvars - 1})"
                )
            return MultiPoly.variable(i, self.nvars, self.field)
        if kind == "op" and val in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"nested deeper than {MAX_NESTING} levels")
            self.depth += 1
            if val == "(":
                f = self.expr()
                self.expect_op(")")
            else:
                f = -self.factor()
            self.depth -= 1
            return f
        raise PolyParseError(f"unexpected token {val if val is None else shorten(val)!r}")


def parse_poly(text, nvars, field=QQ):
    """Parse the human text form into a MultiPoly."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    return _Parser(tokens, nvars, field).parse()
