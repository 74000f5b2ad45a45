"""Acceptance suite: one test per criterion, all exact arithmetic.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s); a
criterion passes only if every one of its checks holds exactly.
"""

import functools
import random
from fractions import Fraction

import pytest

from skpval import (
    CORRECTED,
    GroupValue,
    InvalidTableError,
    LITERAL,
    SemigroupSpec,
    SkpValuation,
    abhyankar_check,
    build_skp,
    canonical_representation,
    classify_table1,
    compute_relations,
    delta_of,
    parse_poly,
    realize,
    value_of,
    value_via_euclidean,
    verify_realization,
)
from skpval.ordgroup import analyze_chain
from skpval.realize import random_polynomial

from conftest import corpus, example1_rows, top_cut
from oracles import representation_box_search, swap_variables
from test_classify import CONCRETE_CASES, DECLARED_CASES
from test_cross_checks import adic_form, adic_grouping_against_euclidean


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")

        return run

    return wrap


def P(text, nvars=2):
    return parse_poly(text, nvars)


def fixed_skps():
    """The three fixed tables the sampled criteria run over."""
    return [corpus(name) for name in ("remark_diffskp", "swapped_diffskp", "example2")]


@criterion(1, "golden plane-curve tables and the coordinate-change identity")
def test_criterion_1():
    u = build_skp(compute_relations([[2], [3, 9, 10]]))
    assert u.entries[(1, 2)].poly == P("X1^2 - X0^3")
    assert u.entries[(1, 3)].poly == u.entries[(1, 2)].poly - P("X0^3*X1")

    v = build_skp(compute_relations([[3], [2, 9, 10]]), thetas={(1, 2): -1})
    assert v.entries[(1, 2)].poly == P("X1^3 - X0^2")
    assert v.entries[(1, 3)].poly == v.entries[(1, 2)].poly + P("X0^3")

    u11, u12, u13 = (u.entries[(1, j)].poly for j in (1, 2, 3))
    v13_in_u_vars = swap_variables(v.entries[(1, 3)].poly, [1, 0])
    assert v13_in_u_vars == -u13 + u11 * u12


@criterion(2, "truncated three-variable tower: successor recurrence, interior n = 1")
def test_criterion_2():
    rows, labels = example1_rows()
    skp = build_skp(compute_relations(rows, limit_labels=labels))
    length = skp.row_length(2)
    assert length == 14  # blocks n = 0..2, j <= 4, plus two limit entries
    for j in range(1, length):
        cur = skp.entries[(2, j)]
        nxt = skp.entries[(2, j + 1)]
        assert cur.n == 1
        _, mid, last = cur.beta.coords
        correction = P("X0", 3) ** int(last) * P("X1", 3) ** int(mid)
        assert nxt.poly == cur.poly - correction


@criterion(3, "prime-exponent tower: binomials and indices")
def test_criterion_3():
    skp = build_skp(
        compute_relations([[1], [Fraction(1, 2), Fraction(4, 3)]])
    )
    assert skp.entries[(1, 2)].poly == P("X1^2 - X0")
    assert skp.entries[(1, 1)].n == 2
    full = build_skp(
        compute_relations([[1], [Fraction(1, 2), Fraction(4, 3), Fraction(21, 5)]])
    )
    assert full.entries[(1, 3)].poly == full.entries[(1, 2)].poly ** 3 - P("X0^4")
    assert full.entries[(1, 2)].n == 3
    assert full.entries[(1, 2)].relation == {(0, 1): 4}


def _axiom_samples():
    rng = random.Random(20240)
    for skp in fixed_skps():
        v = SkpValuation(skp)
        for _ in range(200):
            f = random_polynomial(rng, 2, 6)
            g = random_polynomial(rng, 2, 6)
            yield v, f, g


@criterion(4, "valuation axioms on 200 seeded pairs per fixed table")
def test_criterion_4():
    for v, f, g in _axiom_samples():
        vf, vg = value_of(f, v), value_of(g, v)
        assert value_of(f * g, v) == vf + vg
        if not (f + g).is_zero():
            vs = value_of(f + g, v)
            assert vs >= min(vf, vg)
            if vf != vg:
                assert vs == min(vf, vg)


@criterion(5, "expansions reconstruct, re-expand, and match the division route")
def test_criterion_5():
    rng = random.Random(555)
    for skp in fixed_skps():
        v = SkpValuation(skp)
        for _ in range(200):
            f = random_polynomial(rng, 2, 6)
            # the checks of the adic-evaluate and adic-grouping cross-checks
            adic_form(v, 1, f)
            adic_grouping_against_euclidean(v, 1, f)


@criterion(6, "adic and Euclidean value paths agree on the axiom samples")
def test_criterion_6():
    for v, f, g in _axiom_samples():
        assert value_of(f, v) == value_via_euclidean(f, v)
        assert value_of(g, v) == value_via_euclidean(g, v)


@criterion(7, "delta additivity on 100 seeded pairs per fixed table")
def test_criterion_7():
    rng = random.Random(777)
    for skp in fixed_skps():
        top = skp.nvars - 1
        for j in (2, skp.row_length(top)):
            v = top_cut(skp, j)
            for _ in range(50):
                f = random_polynomial(rng, 2, 5)
                g = random_polynomial(rng, 2, 5)
                assert delta_of(f * g, v) == delta_of(f, v) + delta_of(g, v)


@criterion(8, "cutoff monotonicity")
def test_criterion_8():
    skp = fixed_skps()[0]
    alphas = [(1, 1), (1, 2), (1, 3)]
    valuations = {a: SkpValuation(skp, a) for a in alphas}
    rng = random.Random(888)
    for _ in range(100):
        f = random_polynomial(rng, 2, 6)
        vals = {a: value_of(f, valuations[a]) for a in alphas}
        for a in alphas:
            for b in alphas:
                if all(x <= y for x, y in zip(a, b)):
                    assert vals[a] <= vals[b]


@criterion(9, "lookup-table classifier: one input per distinct triple")
def test_criterion_9():
    cases = CONCRETE_CASES + DECLARED_CASES
    triples = {triple for _, _, triple in cases}
    assert len(triples) == 10 and len(triples) >= 6
    for label, arith, triple in cases:
        rep = classify_table1(arith)
        assert rep.status == "CLASSIFIED"
        assert rep.table1_row == label
        assert (rep.rk, rep.r_rk, rep.tr_deg) == triple
        assert abhyankar_check(rep, 3)


@criterion(10, "realization end-to-end (corrected accepted, literal rejected)")
def test_criterion_10():
    s = SemigroupSpec([GroupValue(4), GroupValue(6), GroupValue(13)])
    result = realize(s, CORRECTED)
    verdict = verify_realization(
        result.valuation, s, result.blocks,
        coeff_bound=4, degree_bound=8, samples=200, seed=10,
    )
    assert verdict.passed

    free = SemigroupSpec([GroupValue((1, 0)), GroupValue((0, 1))])
    result = realize(free, CORRECTED)
    verdict = verify_realization(
        result.valuation, free, result.blocks,
        coeff_bound=4, degree_bound=8, samples=200, seed=11,
    )
    assert verdict.passed

    for gens in [(2, 3), (4, 6, 13)]:
        with pytest.raises(InvalidTableError) as exc:
            realize(SemigroupSpec([GroupValue(g) for g in gens]), LITERAL)
        bad = exc.value.report.failures_of("interior-finite")
        assert [c.index for c in bad] == [(1, 1)]


@criterion(11, "unique bounded representation on 50 seeded generator systems")
def test_criterion_11():
    from oracles import box_size

    rng = random.Random(1111)
    done = 0
    while done < 50:
        dim = rng.choice([1, 1, 2])
        count = rng.randint(1, 5)
        gens = [
            GroupValue([rng.randint(0, 20) for _ in range(dim)])
            for _ in range(count)
        ]
        if any(not any(g.coords) for g in gens):
            continue
        coeffs = [rng.randint(0, 3) for _ in gens]
        member = functools.reduce(
            lambda acc, pair: acc + pair[0].scale(pair[1]),
            zip(gens, coeffs),
            GroupValue([0] * dim),
        )
        if not any(member.coords):
            continue
        chain = analyze_chain(gens)
        ns = [e.n for e in chain]
        rep = canonical_representation(1, member, gens)
        bound = max([10] + [abs(m) + 3 for m in rep.values()])
        if box_size(ns, bound) > 50_000:
            # keep the exhaustive walk tractable; the instance is replaced
            continue
        hits = representation_box_search(1, member, gens, ns, int_bound=bound)
        assert len(hits) == 1
        assert {j: m for j, m in enumerate(hits[0]) if m} == rep
        done += 1
