"""Polynomials packed into ints, and the one division kernel on them.

A ``Split`` holds a polynomial, in the division, as packed slices: for
each X_i-degree k, the coefficient of X_i^k as a slab {code: x}: code packs
the exponents of the variables other than the digit variable X_low, and
x = sum c_a * 2^(b*a) over the terms c_a * X_low^a * X^code is one int, its
signed digits at width b the coefficients.  X_low is X0, or X1 when the
division is in X0 (``expansion`` takes the table's lowest nonempty row);
past an exponent width of ``DIGIT_EXPONENT_BITS`` no variable is one, and
each int is one coefficient.  Over Q the slices hold f times the lcm of its
denominators, over GF(p) its residues in (-p/2, p/2].  Evaluation at 2^b is
a ring map, so adding and multiplying the ints adds and multiplies the
polynomials: a division step is one multiply-subtract per divisor term and
pair of codes, where a dict of terms took one update per pair of terms.
The digits are read back only to join, to widen and to reduce.

The widths of the codes and of the digits are proven in the docstring of
``poly``, whose ``monic_divide`` packs a ``MultiPoly``, divides it here and
joins the result; this module reads a ``MultiPoly`` only through its
``nvars``, ``field`` and ``terms``.
"""

from fractions import Fraction
from math import lcm
from operator import attrgetter, lshift

from .errors import NotMonicError
from .fields import QQ

# the digit width a packed polynomial starts at, in bits
DIGIT_WIDTH = 32
# the widest exponent field whose variable packs into digits: an int holds
# one digit per power of its variable up to the largest
DIGIT_EXPONENT_BITS = 16

_denominator = attrgetter("denominator")


def digit_width(bound, p=None, least=DIGIT_WIDTH):
    """The least digit width b, a multiple of 8 and at least ``least``,
    whose ``digit_limit`` is above bound."""
    if p is None:
        bits = bound.bit_length() + 1
    else:
        bits = 2 * (max(bound.bit_length(), p.bit_length()) + 2) + p.bit_length()
    return -(-max(least, bits) // 8) * 8


def digit_limit(b, p=None):
    """What a digit bound stays below at digit width b: 2^(b-1), so the
    ints determine their digits, and over GF(p) 2^t, t = (b - bits(p))
    // 2 - 2, so one multiply reduces them (``_reduce``)."""
    return 1 << (b - 1 if p is None else (b - p.bit_length()) // 2 - 2)


def digits(x, b):
    """The signed digits of x at width b, lowest first, each in
    [-2^(b-1), 2^(b-1)); the last may be 0.  Adding 2^(b-1) to every digit
    makes them all nonnegative, so the bytes of one int hold them."""
    n, step = x.bit_length() // b + 2, b // 8
    raw = (x + _offset(n, b, b)).to_bytes(n * step, "little")
    half = 1 << (b - 1)
    return [int.from_bytes(raw[s:s + step], "little") - half for s in range(0, n * step, step)]


def widen(x, b, nb):
    """The int whose signed digits at width nb are those of x at width b:
    the bytes of each offset digit (``digits``) moved into a wider place,
    one strided copy per byte of the narrow digit."""
    n, step, wide = x.bit_length() // b + 2, b // 8, nb // 8
    raw = (x + _offset(n, b, b)).to_bytes(n * step, "little")
    out = bytearray(n * wide)
    for j in range(step):
        out[j::wide] = raw[j::step]
    return int.from_bytes(out, "little") - _offset(n, b, nb)


def _offset(n, b, nb):
    """The sum of 2^(b-1) << (nb * a) over a < n."""
    return int.from_bytes((bytes(b // 8 - 1) + b"\x80" + bytes((nb - b) // 8)) * n, "little")


def _signed(values, p):
    """Residues mod p lifted to (-p/2, p/2]."""
    return [c - p if 2 * c > p else c for c in values]


class Split(dict):
    """A polynomial as packed slices (module docstring): X_i-degree k ->
    slab, the coefficient of X_i^k as {code: x}, x the int of its powers of
    the digit variable X_``low`` at digit ``width`` b, with a ``bound`` on
    every |digit| below ``digit_limit`` and the ``scale`` the slices hold
    the polynomial times.  A quotient slice may keep a narrower width, in
    ``widths``, until the split is divided or joined.  A piece, of
    X_i-degree 0, is the split {0: slab}."""

    __slots__ = ("low", "width", "bound", "scale", "widths")

    def __init__(self, low, width, scale):
        self.low, self.width, self.bound, self.scale, self.widths = low, width, 0, scale, None

    def piece(self, k):
        """The slice of X_i-degree k alone, as a piece."""
        out = Split(self.low, self.width, self.scale)
        out[0], out.bound = self[k], self.bound
        return out

    def has_variable(self):
        """Whether a piece holds a variable: a code other than 0's, or a
        digit past the first, which makes |x| at least 2^(width-1)."""
        slab = self[0]
        return len(slab) > 1 or 0 not in slab or slab[0].bit_length() >= self.width

    def least_power(self):
        """The least power of the digit variable in a piece in it alone: the
        place of the int's lowest nonzero digit, where its lowest set bit is."""
        x = self[0][0]
        return ((x & -x).bit_length() - 1) // self.width


def digit_variable(i, low=0):
    """X_low as the digit variable of a division in X_i, or, when X_low is
    X_i, X0 or X1."""
    return low if low != i else int(i == 0)


def by_degree(terms, i, w):
    """{k: the packed terms of X_i-degree k, that exponent cleared}."""
    shift, mask = w * i, (1 << w) - 1
    out = {}
    for e, c in terms.items():
        k = e >> shift & mask
        out.setdefault(k, {})[e - (k << shift)] = c
    return out


def pack(f, w, low):
    """f as one piece with digit variable X_low, and none past exponent
    width ``DIGIT_EXPONENT_BITS``: over Q f times the lcm of its
    denominators, over GF(p) its residues in (-p/2, p/2], at the least
    ``digit_width`` of its coefficients."""
    nvars, values = f.nvars, f.terms.values()
    if w > DIGIT_EXPONENT_BITS:
        low = nvars  # a variable no term has: each int is one digit
    scale, p = 1, getattr(f.field, "p", None)
    if p is not None:
        values = _signed(values, p)
    else:
        scale = lcm(*map(_denominator, values))
        if scale > 1:
            values = [(c * scale).numerator for c in values]
    bound = max(map(abs, values), default=0)
    out = Split(low, digit_width(bound, p), scale)
    b, shifts, drop = out.width, range(0, w * nvars, w), w * low
    slab = out[0] = {}
    for exps, c in zip(f.terms, values):
        a = exps[low] if low < nvars else 0
        e = sum(map(lshift, exps, shifts)) - (a << drop)
        slab[e] = slab.get(e, 0) + (c << b * a)
    out.bound = bound
    return out


def split(piece, i, w):
    """The split by X_i-degree of a piece."""
    out = Split(piece.low, piece.width, piece.scale)
    out.update(by_degree(piece[0], i, w))
    out.bound = piece.bound
    return out


def join(g, i, w, nvars, field):
    """The terms, as ``MultiPoly`` keeps them, of the polynomial of a
    split by X_i-degree, its scale divided out."""
    if g.widths:
        _repack(g, g.width)
    b, scale, shift, low = g.width, g.scale, w * i, w * g.low
    terms = {}
    for k, slab in g.items():
        for e, x in slab.items():
            for a, c in enumerate(digits(x, b)):
                c = field.reduce(Fraction(c, scale) if scale != 1 else c)
                if c:
                    terms[e + (k << shift) + (a << low)] = c
    mask = (1 << w) - 1
    shifts = range(0, w * nvars, w)
    return {tuple([e >> s & mask for s in shifts]): c for e, c in terms.items()}


class Divisor:
    """A divisor monic in X_i as ``divide_split`` reads it: its X_i-degree
    ``dg`` and, in ``lower`` (k -> {code at width ``w``: int}), its lower
    X_i-coefficients times ``lead``, the lcm of their denominators over Q,
    and over GF(p) (``p``) their residues in (-p/2, p/2]; ``norm`` is the
    largest sum of |c| over one coefficient (module docstring)."""

    __slots__ = ("p", "dg", "lead", "lower", "norm", "w", "_parts")

    def __init__(self, field, dg, lower, w):
        self.dg, self.w, self._parts = dg, w, {}
        self.p = p = getattr(field, "p", None)
        if p is not None:
            self.lead = 1
            self.lower = {k: dict(zip(part, _signed(part.values(), p))) for k, part in lower.items()}
        else:
            self.lead = lcm(*[c.denominator for part in lower.values() for c in part.values()])
            self.lower = {k: {e: (c * self.lead).numerator for e, c in part.items()}
                          for k, part in lower.items()}
        self.norm = max([sum(map(abs, part.values())) for part in self.lower.values()], default=0)

    def parts(self, b, low):
        """([(k, [(code, c, s)])] over the lower X_i-degrees k, the
        ``digit_limit`` at b): the terms c * X_low^a of each code at digit
        width b, s = b * a, those of one code as one (code, c, 0) while
        their packed c is a few words; made once per (b, low)."""
        out = self._parts.get((b, low))
        if out is None:
            shift, mask = self.w * low, (1 << self.w) - 1
            lower = []
            for k, part in sorted(self.lower.items()):
                grouped = {}
                for e, c in part.items():
                    a = e >> shift & mask
                    grouped.setdefault(e - (a << shift), []).append((c, b * a))
                flat = []
                for e, terms in grouped.items():
                    whole = sum([c << s for c, s in terms])
                    if len(terms) > 1 and whole.bit_length() <= 64 * len(terms):
                        terms = [(whole, 0)]
                    flat.extend([(e, c, s) for c, s in terms])
                lower.append((k, flat))
            out = self._parts[(b, low)] = lower, digit_limit(b, self.p)
        return out


def split_divisor(g, i, w):
    """The ``Divisor`` of g, monic in X_i, at exponent width w."""
    shifts = range(0, w * g.nvars, w)
    groups = by_degree({sum(map(lshift, e, shifts)): c for e, c in g.terms.items()}, i, w)
    dg = max(groups, default=-1)
    if groups.get(dg) != {0: g.field.one}:
        raise NotMonicError(f"divisor is not monic in X{i}")
    return Divisor(g.field, dg, {k: part for k, part in groups.items() if k < dg}, w)


def divide_split(rem, divisor):
    """The splits (q, rem) of f = q*g + rem, deg_{X_i} rem < dg, from the
    split of f (consumed) at an exponent width that holds every exponent
    the division forms, and the ``Divisor`` of g at that width.  Each
    step subtracts the lead slice times each term of the divisor's parts,
    and adds the lead's bound times ``Divisor.norm`` to the split's bound;
    a step that would take it to the ``digit_limit`` first makes room
    (``_make_room``).  Over GF(p) the remainder leaves reduced; a quotient
    slice may be 0 mod p, which costs its next division a step that
    changes nothing."""
    dg, D, p, nmax = divisor.dg, divisor.lead, divisor.p, divisor.norm
    if rem.widths:
        _repack(rem, rem.width)
    lower, limit = divisor.parts(rem.width, rem.low)
    bound = rem.bound
    q = Split(rem.low, rem.width, rem.scale)
    steps = 0
    for d in range(max(rem, default=-1), dg - 1, -1):
        lead = rem.pop(d, None)
        if lead is None:
            continue
        bl = bound
        if D != 1 or bound + bl * nmax >= limit:
            # making room may lower the bound of rem, not of the leads so far
            rem[d], rem.bound, q.bound = lead, bound, max(q.bound, bound)
            lower, limit, bl = _make_room(rem, q, divisor, d)
            lead, bound = rem.pop(d, None), rem.bound
            if lead is None:  # it was 0 mod p
                continue
            if D != 1:  # the step is D * rem - lead * X_i^(d - dg) * (D * g)
                _scale(rem, D)
                _scale(q, D)
                bound, bl = bound * D, bl * D
                steps += 1
        q[d - dg] = lead
        lead = lead.items()
        for k, part in lower:
            t = d - dg + k
            target = rem.get(t)
            if target is None:
                target = rem[t] = {}
            get = target.get
            for e2, c, s in part:
                for e1, x1 in lead:
                    e = e1 + e2
                    x = get(e, 0) - (x1 * c << s)
                    if x:
                        target[e] = x
                    else:
                        del target[e]
            if not target:
                del rem[t]
        bound += bl * nmax
    rem.bound, q.bound = bound, max(q.bound, bound)
    if p is not None:
        _reduce(rem, p)
    if rem and max(rem) >= dg:
        raise AssertionError(f"division left X_i-degree {max(rem)} >= {dg}")
    if steps:
        q.scale = rem.scale * D ** (steps - 1)
        rem.scale *= D**steps
    return q, rem


def _make_room(rem, q, divisor, d):
    """Make the digits of ``rem`` hold the division step at X_i-degree d.
    The bound adds up what the steps so far could add, and their terms may
    cancel: so first over GF(p) reduce the digits, and over Q take the
    true bound of the lead, then of every slice; last widen the digits,
    and those of ``q``, to a width that holds the step.  Returns the
    divisor's parts and the limit at the width it leaves, and the lead's
    bound.  The slices ``q`` has finished keep their width unless the
    step multiplies them by D."""
    D, p = divisor.lead, divisor.p
    bl, tried = rem.bound, 0
    while True:
        lower, limit = divisor.parts(rem.width, rem.low)
        need = rem.bound + bl * divisor.norm
        if D != 1:  # the step multiplies every slice, q's too, by D
            need = max(need, q.bound) * D
        if need < limit:
            return lower, limit, bl
        if tried == 0 and p is not None:
            _reduce(rem, p)
            bl = rem.bound
        elif tried == 0:
            bl = _true_bound(rem[d], rem.width)
        elif tried == 1 and p is None:
            rem.bound = max([_true_bound(slab, rem.width) for slab in rem.values()])
        else:
            b = digit_width(need, p, rem.width + rem.width // 4)
            _repack(rem, b)
            if D == 1:
                q.widths = {k: (q.widths or {}).get(k, q.width) for k in q}
                q.width = b
            else:
                _repack(q, b)
        tried += 1


def _true_bound(slab, b):
    """The largest |digit| of the ints of a slab at width b."""
    return max([max(map(abs, digits(x, b))) for x in slab.values()])


def _ones(x, b):
    """The digit 1 at every place of x at width b, and one more."""
    return int.from_bytes((b"\x01" + bytes(b // 8 - 1)) * (x.bit_length() // b + 2), "little")


def _repack(g, b):
    """Widen every slice of a split to the digit width b."""
    widths = g.widths or {}
    for k, slab in g.items():
        old = widths.get(k, g.width)
        if old != b:
            for e, x in slab.items():
                slab[e] = widen(x, old, b)
    g.width, g.widths = b, None


def _reduce(g, p):
    """Reduce the digits of a split of one width mod p, into [0, p),
    dropping the terms and slices that vanish.  Under a bound below p it is
    reduced already: each nonzero digit is nonzero mod p.  Under a bound B
    below the ``digit_limit`` one multiply reduces an int: adding c, the
    least multiple of p above B, to every digit makes each digit u positive
    and below 2^k, k = bits(2c); with s = k + bits(p) and
    m = floor(2^s / p) + 1, floor(u * m / 2^s) = floor(u / p) for every such
    u, and as the limit keeps k + s <= b, u * m stays in its digit, so a
    product, a shift and a mask give every quotient, and u - p * floor(u / p)
    every residue."""
    if g.bound < p:
        return
    b, c = g.width, p * (g.bound // p + 1)
    s = (2 * c).bit_length() + p.bit_length()
    m = (1 << s) // p + 1
    # past an int's own places its digits are c, 0 mod p
    ones = _ones(max([x for slab in g.values() for x in slab.values()], key=abs, default=0), b)
    c, mask = c * ones, ((1 << b - s) - 1) * ones
    for k in list(g):
        slab = g[k]
        for e, x in list(slab.items()):
            x += c
            x -= p * (x * m >> s & mask)
            if x:
                slab[e] = x
            else:
                del slab[e]
        if not slab:
            del g[k]
    g.bound = p - 1


def _scale(g, D):
    """Multiply every slice of a split, and its bound, by D."""
    for slab in g.values():
        for e in slab:
            slab[e] *= D
    g.bound *= D
