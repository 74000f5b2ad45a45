"""Scalar coefficient fields: exact rationals and prime fields.

Coefficients are plain Python numbers: over Q an ``int`` when the value is
integral and a ``fractions.Fraction`` otherwise, over F_p an ``int`` in
[0, p).  Python's operators do the arithmetic; every stored result goes
through the field's ``reduce``, which restores that form.

Every field object exposes ``zero``, ``one``, ``reduce``, ``of`` (coercion
from int, Fraction or string) and ``parse``/``format`` for the string forms
used in JSON ("p/q" or "p").
"""

import re
from fractions import Fraction

from .errors import SchemaError, shorten

# "p" or "p/q" in ASCII digits, q nonzero: Fraction alone also reads spaces,
# "+", "_", "1.5", "1e2" and other scripts' digits
RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


class RationalField:
    """The field of rationals: ints, and Fractions for non-integral values."""

    name = "Q"
    zero = 0
    one = 1

    def reduce(self, c):
        """An integral Fraction as an int; any other value unchanged."""
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def of(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return self.reduce(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def parse(self, s):
        try:
            if RATIONAL.fullmatch(s):
                return self.reduce(Fraction(s))
        except ValueError:  # more digits than int() reads
            pass
        raise SchemaError(f"bad rational literal {shorten(s)!r}")

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# strong-probable-prime bases that make Miller-Rabin exact below MAX_PRIME
# (Sorenson and Webster, 2015)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981


def is_prime(p):
    """Deterministic Miller-Rabin primality, exact for p < MAX_PRIME."""
    if p < 2 or any(p % b == 0 for b in MR_BASES):
        return p in MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    for b in MR_BASES:
        x = pow(b, d, p)
        if x != 1 and all(pow(x, 1 << k, p) != p - 1 for k in range(s)):
            return False
    return True


class PrimeField:
    """F_p for a prime p, behind the same interface as the rationals;
    elements are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise SchemaError(f"prime {p} is too large (want p < {MAX_PRIME})")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def reduce(self, c):
        """The residue of an int in [0, p)."""
        return c % self.p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise SchemaError(
                    f"a rational whose denominator is divisible by {self.p} is not in {self.name}"
                )
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def parse(self, s):
        return self.of(QQ.parse(s))

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


def field_to_spec(field):
    if field == QQ:
        return "Q"
    return {"prime": field.p}
