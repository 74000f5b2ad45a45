"""Realizing a generator sequence as the value semigroup of a valuation.

The pipeline: analyze the generators (indices, positivity, growth,
minimality), re-index them into a value table, build the key polynomials,
and verify that the value semigroup of the polynomial ring matches the
input: a ball of it is attained by explicit key-polynomial products, each
built from a smaller one by one factor, and the values of seeded random
polynomials are checked for exact membership.

Two re-indexing modes exist.  LITERAL opens a new block at every rationally
independent generator and maps the blocks to rows 1..B, leaving row 0 empty
(the construction's own indexing); for inputs whose independent generator is
followed by dependent ones this puts an infinite index at an interior
position and the table is rejected with that diagnostic.  CORRECTED instead
closes a block right after every independent generator, so independent
generators are block-final, and maps blocks to rows 0..B-1; the first
generator (always independent) then sits alone in row 0.
"""

import collections
import functools
import random

from .classify import inductive_invariants
from .errors import HypothesisViolatedError, InvalidTableError, VerificationFailedError
from .fields import QQ
from .expansion import least_value
from .ordgroup import analyze_chain, as_group_value, is_finite_index, semigroup_witness
from .poly import MultiPoly
from .skp import build_skp
from .valtable import enumerate_semigroup, table_from_chain, validate_table
from .valuation import SkpValuation

LITERAL = "literal"
CORRECTED = "corrected"

DEFAULT_COEFF_BOUND = 4
DEFAULT_DEGREE_BOUND = 8
DEFAULT_SAMPLES = 200


def _bound(name, value):
    """A verification bound, refused with ValueError unless it is a
    nonnegative int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, not {value!r}")
    return value


class SemigroupSpec:
    """A prescribed semigroup: ordered generators plus the bounds of its
    verification (the attainment ball's coefficient sum, the sampled
    polynomials' degree and their number).  ``chain`` is the generators'
    analysis, made once."""

    def __init__(
        self,
        generators,
        limit_labels=(),
        field=QQ,
        coeff_bound=DEFAULT_COEFF_BOUND,
        degree_bound=DEFAULT_DEGREE_BOUND,
        samples=DEFAULT_SAMPLES,
    ):
        self.generators = [as_group_value(g) for g in generators]
        if not self.generators:
            raise ValueError("need at least one generator")
        labels = list(limit_labels)
        for p in labels:
            if type(p) is not int:
                raise ValueError(f"limit label {p!r} is not an int")
            if not 1 <= p <= len(self.generators):
                raise ValueError(f"limit label {p} outside the generator range")
        self.limit_labels = sorted(set(labels))
        if len(self.limit_labels) != len(labels):
            repeated = next(p for p, count in collections.Counter(labels).items() if count > 1)
            raise ValueError(f"limit labels repeat a position: {repeated} more than once")
        self.field = field
        self.coeff_bound = _bound("coeff_bound", coeff_bound)
        self.degree_bound = _bound("degree_bound", degree_bound)
        self.samples = _bound("samples", samples)

    @functools.cached_property
    def chain(self):
        return analyze_chain(self.generators)


class GeneratorAnalysis:
    """Per-generator indices, relations, and hypothesis checks.

    The rational rank is read off the chain: it is the number of infinite
    indices, one for each generator outside the Q-span of the earlier ones.

    ``minimal[j]`` says whether gamma_j is outside the semigroup of the
    earlier generators.  Outside their group (n_j != 1) it is; inside
    (n_j == 1) its canonical relation decides, exactly while every earlier
    relation is nonnegative (``semigroup_witness``).  A negative relation
    after an earlier negative one leaves it undecided: None.
    """

    def __init__(self, spec):
        gens = spec.generators
        self.chain = spec.chain
        self.ns = [e.n for e in self.chain]
        self.positive = [all(m > 0 for m in e.relation.values()) for e in self.chain]
        self.increasing = []
        for j in range(len(gens) - 1):
            n = self.ns[j]
            if is_finite_index(n):
                self.increasing.append(gens[j + 1] > gens[j].scale(n))
            else:
                self.increasing.append(True)
        self.minimal = []
        for j, n in enumerate(self.ns):
            if n != 1:
                self.minimal.append(True)
            elif self.positive[j]:
                self.minimal.append(False)
            else:
                self.minimal.append(True if all(self.positive[:j]) else None)
        self.rational_rank = sum(1 for n in self.ns if not is_finite_index(n))

    @property
    def all_positive(self):
        return all(self.positive)

    @property
    def all_increasing(self):
        return all(self.increasing)

    @property
    def all_minimal(self):
        return all(self.minimal)

    @property
    def ok(self):
        return self.all_positive and self.all_increasing and self.all_minimal

    def to_json(self):
        return {
            "n": ["inf" if not is_finite_index(n) else n for n in self.ns],
            "positive": self.positive,
            "increasing": self.increasing,
            "minimal": self.minimal,
            "rational_rank": self.rational_rank,
            "ok": self.ok,
        }


class BlockAssignment:
    """Partition of generator positions into consecutive blocks.

    ``blocks`` holds 0-based generator positions; ``row_of_block[b]`` is the
    table row the block lands in.
    """

    def __init__(self, mode, blocks, row_of_block):
        self.mode = mode
        self.blocks = blocks
        self.row_of_block = row_of_block

    def table_index(self, position):
        """(i, j) of a 0-based generator position."""
        for b, block in enumerate(self.blocks):
            if position in block:
                return (self.row_of_block[b], block.index(position) + 1)
        raise KeyError(position)

    def to_json(self):
        return {
            "mode": self.mode,
            "blocks": [[p + 1 for p in block] for block in self.blocks],
            "rows": self.row_of_block,
        }


ReindexResult = collections.namedtuple(
    "ReindexResult", "blocks table validation analysis"
)


def reindex(spec, mode):
    """Partition the generators into blocks and emit the induced table."""
    if mode not in (LITERAL, CORRECTED):
        raise ValueError(f"unknown mode {mode!r}")
    analysis = GeneratorAnalysis(spec)
    ns = analysis.ns

    blocks = []
    if mode == LITERAL:
        for p, n in enumerate(ns):
            if not blocks or not is_finite_index(n):
                blocks.append([])
            blocks[-1].append(p)
    else:
        current = []
        for p, n in enumerate(ns):
            current.append(p)
            if not is_finite_index(n):
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)

    # literal mode leaves row 0 empty; the blocks are consecutive and fill
    # the rows in order, so the table read row by row is the generator order
    first_row = 1 if mode == LITERAL else 0
    row_of_block = [first_row + b for b in range(len(blocks))]
    row_lengths = [0] * first_row + [len(block) for block in blocks]

    assignment = BlockAssignment(mode, blocks, row_of_block)
    limit_labels = {}
    for t, pos in enumerate(spec.limit_labels, start=1):
        limit_labels[assignment.table_index(pos - 1)] = t
    table = table_from_chain(analysis.chain, row_lengths, limit_labels)
    validation = validate_table(table)
    return ReindexResult(assignment, table, validation, analysis)


RealizationResult = collections.namedtuple(
    "RealizationResult", "valuation blocks analysis report"
)


def realize(spec, mode=CORRECTED, thetas=None):
    """Build the valuation; raises InvalidTableError with diagnostics.

    The re-indexed table must be a sequence of values, so every canonical
    relation of an accepted input is nonnegative and the analysis's
    ``minimal`` flags are all decided.  A non-minimal generator does not
    stop the build; the analysis reports it (``ok`` false).
    """
    res = reindex(spec, mode)
    if not res.validation.is_sequence_of_values:
        failures = "; ".join(repr(c) for c in res.validation.failures)
        raise InvalidTableError(
            f"re-indexed table is not a sequence of values: {failures}",
            res.validation,
        )
    skp = build_skp(res.table, thetas=thetas, field=spec.field)
    valuation = SkpValuation(skp)
    num_vars = skp.nvars - len(skp.empty_rows)
    r_rk = res.analysis.rational_rank
    invariants = inductive_invariants(skp)
    # zero-dimensionality is backed by the equality case r.rk = dim R; when
    # the mode spends more variables than the rational rank the claim is
    # not backed and the torus count shows up as transcendence degree
    report = {
        "num_vars": num_vars,
        "r_rk": r_rk,
        "tr_deg": invariants.tr_deg,
        "abhyankar_equality": r_rk == num_vars,
        "zero_dimensional_backed": r_rk == num_vars,
    }
    return RealizationResult(valuation, res.blocks, res.analysis, report)


class VerificationVerdict:
    passed = True  # a failed check raises

    def __init__(self, attainment, containment_checked, seed):
        self.attainment = attainment
        self.containment_checked = containment_checked
        self.seed = seed

    def to_json(self):
        return {
            "passed": self.passed,
            "attainment": [
                {
                    "gamma": g.to_json(),
                    "witness": list(w),
                    "poly": s,
                }
                for g, w, s in self.attainment
            ],
            "containment_checked": self.containment_checked,
            "seed": self.seed,
        }


def random_polynomial(rng, nvars, max_degree, field=QQ, variables=None):
    """A random nonzero polynomial of up to 5 terms with small integer
    coefficients, over the given ``variables`` (default all).

    Each bounded integer r in [0, n) is drawn by rejection on
    ``rng.getrandbits(n.bit_length())``, redrawn while r >= n: the draw
    ``randint`` makes, so a seed gives the polynomials it gave through
    ``randint`` and leaves ``rng`` in the same state.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree {max_degree} is negative")
    if variables is None:
        variables = range(nvars)
    bits = rng.getrandbits
    span = max_degree + 1  # exponents in [0, span)
    k = span.bit_length()
    reduce = field.reduce
    while True:
        terms = {}
        count = bits(3)  # randint(1, 5): 1 + [0, 5)
        while count >= 5:
            count = bits(3)
        for _ in range(count + 1):
            while True:
                exps = [0] * nvars
                for v in variables:
                    e = bits(k)
                    while e >= span:
                        e = bits(k)
                    exps[v] = e
                if sum(exps) <= max_degree:
                    break
            c = bits(4)  # randint(-5, 5): -5 + [0, 11)
            while c >= 11:
                c = bits(4)
            terms[tuple(exps)] = c - 5 or 1
        terms = {e: c for e, c in zip(terms, map(reduce, terms.values())) if c}
        if terms:
            return MultiPoly.from_reduced(nvars, terms, field)


def verify_realization(
    valuation,
    spec,
    assignment,
    coeff_bound=None,
    degree_bound=None,
    samples=None,
    seed=0,
):
    """Check that the value semigroup matches the input.

    Attainment: every semigroup element within the coefficient window is the
    value of an explicit product of key polynomials, expanded to raw
    monomial form and re-valued through the adic expansion.  Each product
    comes from the table's ``products``, its key read from the witness: a
    product the build or an earlier call stored, or a smaller one times one
    key polynomial, truncated at the table's cutoff.  Containment: the value of
    every random polynomial is in the semigroup, decided exactly by
    ``semigroup_witness`` over nonnegative generator relations.  Values are
    compared as integer rows of the table's ``chain`` (``least_value``), the
    ball's mapped from the spec's chain by ``chain.value`` and ``chain.row``;
    a ball element off the table's grid is no value of the table and fails.

    The bounds default to the spec's; an override must be a nonnegative int
    (else ValueError).  Raises HypothesisViolatedError at the first negative
    relation and VerificationFailedError with the offending element, a
    GroupValue.
    """
    if coeff_bound is None:
        coeff_bound = spec.coeff_bound
    if degree_bound is None:
        degree_bound = spec.degree_bound
    if samples is None:
        samples = spec.samples
    _bound("coeff_bound", coeff_bound)
    _bound("degree_bound", degree_bound)
    _bound("samples", samples)
    skp = valuation.skp
    chain = spec.chain
    for pos, entry in enumerate(chain, start=1):
        if any(m < 0 for m in entry.relation.values()):
            raise HypothesisViolatedError(
                f"generator {pos} has a negative relation {entry.relation}"
            )

    attainment = []
    witnesses = {}  # membership witnesses by table row, seeded with the ball's
    # positions ascending are table indices ascending: a witness's key is sorted
    indices = [assignment.table_index(p) for p in range(len(chain))]
    for row, witness in enumerate_semigroup(chain, coeff_bound):
        gamma = chain.value(row)
        vector = skp.chain.row(gamma)
        if vector is None:
            raise VerificationFailedError(
                f"{gamma} is off the table's value grid (denominator {skp.chain.denom})",
                offending=gamma,
            )
        key = tuple([(indices[p], a) for p, a in enumerate(witness) if a])
        witness_poly = skp.products[key]
        got = None if witness_poly.is_zero() else least_value(witness_poly, valuation)
        if got != vector:
            shown = None if got is None else skp.chain.value(got)
            raise VerificationFailedError(
                f"witness for {gamma} evaluates to {shown}", offending=gamma
            )
        attainment.append((gamma, witness, str(witness_poly)))
        witnesses[vector] = witness

    used_vars = [i for i in range(skp.nvars) if i not in skp.empty_rows]
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        f = random_polynomial(rng, skp.nvars, degree_bound, skp.field, used_vars)
        vector = least_value(f, valuation)
        if vector not in witnesses:
            witnesses[vector] = semigroup_witness(skp.chain.value(vector), chain)
        if witnesses[vector] is None:
            val = skp.chain.value(vector)
            raise VerificationFailedError(
                f"value {val} of {f} is not in the semigroup", offending=val
            )
        checked += 1
    return VerificationVerdict(attainment, checked, seed)
