"""Scalar coefficient fields: exact rationals and prime fields.

Every field object exposes ``zero``, ``one``, ``of`` (coercion from int,
Fraction, string, or a field element) and ``parse``/``format`` for the
string forms used in JSON ("p/q" or "p").
"""

from fractions import Fraction

from .errors import SchemaError


class RationalField:
    """The field of rationals, elements are fractions.Fraction."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {s!r}") from exc

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    """An element of F_p; arithmetic stays reduced mod p."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _check(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return self * FpElement(self.p, pow(o.v, self.p - 2, self.p))

    def __pow__(self, n):
        return FpElement(self.p, pow(self.v, n, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


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
    """F_p for a prime p, behind the same interface as the rationals."""

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise SchemaError(f"prime {p} is too large (want p < {MAX_PRIME})")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise TypeError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(self.p, x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise SchemaError(
                    f"{x} is not in {self.name}: denominator divisible by {self.p}"
                )
            return FpElement(self.p, x.numerator) / FpElement(self.p, x.denominator)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def parse(self, s):
        return self.of(QQ.parse(s))

    def format(self, x):
        return str(x.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


def field_from_spec(spec):
    """Field from its JSON form: "Q" or {"prime": p}."""
    if spec is None or spec == "Q":
        return QQ
    if isinstance(spec, dict) and "prime" in spec:
        try:
            return PrimeField(int(spec["prime"]))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad field spec {spec!r}") from exc
    raise SchemaError(f"bad field spec {spec!r}")


def field_to_spec(field):
    if field == QQ:
        return "Q"
    return {"prime": field.p}
