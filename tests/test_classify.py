import random
from fractions import Fraction

import pytest

from skpval import (
    GroupValue,
    HypothesisViolatedError,
    InvalidTableError,
    PseudoSkpArithmetic,
    RowArithmetic,
    SkpValuation,
    abhyankar_check,
    build_skp,
    classify_table1,
    compute_relations,
    enumerate_semigroup,
    inductive_invariants,
    value_of,
)
from skpval.classify import InvariantReport

from conftest import corpus


def gv(*coords):
    return GroupValue(coords)


def arith(beta01, row1, row2):
    def row(spec):
        if spec == "inf":
            return RowArithmetic(True)
        return RowArithmetic(False, gv(*spec) if isinstance(spec, tuple) else gv(spec))

    return PseudoSkpArithmetic(beta01=gv(*beta01) if isinstance(beta01, tuple) else gv(beta01),
                               rows=[row(row1), row(row2)])


class TestInductive:
    def test_plane_curve(self, diffskp):
        rep = inductive_invariants(diffskp)
        assert rep.r_rk == 1 and rep.rk == 1
        assert rep.tr_deg == 1  # row 1 ends with finite index
        assert [g.coords[0] for g in rep.semigroup_generators] == [2, 3, 9, 10]

    def test_independent_rows(self, free2):
        rep = inductive_invariants(free2)
        assert rep.r_rk == 2 and rep.rk == 2
        assert rep.tr_deg == 0

    def test_single_row(self):
        skp = build_skp(compute_relations([[5]]))
        rep = inductive_invariants(skp)
        assert (rep.rk, rep.r_rk, rep.tr_deg) == (1, 1, 0)

    def test_declared_infinite_drops_torus(self, diffskp):
        rep = inductive_invariants(diffskp, declared_infinite_rows=[1])
        assert rep.tr_deg == 0
        assert rep.notes

    def test_semigroup_matches_key_poly_products(self, diffskp):
        # the enumerated semigroup ball is exactly the set of values of
        # bounded products of key polynomials
        v = SkpValuation(diffskp)
        chain = diffskp.chain
        ball = enumerate_semigroup(chain, 3)
        attained = set()
        for row, witness in ball:
            gamma = chain.value(row)
            exps = dict(zip(diffskp.order, witness))
            poly = diffskp.monomial_poly(exps)
            assert value_of(poly, v) == gamma
            attained.add(gamma.coords)
        assert attained == {chain.value(row).coords for row, _ in ball}


CONCRETE_CASES = [
    # one per distinct triple reachable with concrete lex-encoded values
    ("I", arith(2, 3, 5), (1, 1, 2)),
    ("III_1", arith(1, "inf", (7,)), (1, 1, 1)),
    ("VI", arith((0, 0, 1), (0, 1, 1), (0, 1, 0)), (2, 2, 1)),
    ("VII_1", arith((0, 0, 1), (0, 1, 0), (1, 0, 0)), (3, 3, 0)),
    ("VIII_1", arith((0, 0, 1), "inf", (0, 1, 0)), (2, 2, 0)),
    ("IX", arith((0, 0, 1), (0, 1, 0), (0, 0, 5)), (2, 3, 0)),
    ("X", arith(1, "inf", "inf"), (1, 1, 0)),
]

DECLARED_CASES = [
    # the remaining triples need an archimedean group of rational rank
    # above one, so their predicates are declared rather than computed
    (
        "II_1",
        PseudoSkpArithmetic(
            rows=[RowArithmetic(False, gv(1)), RowArithmetic(False, gv(1))],
            declared={"level0": 1, "level1": 1, "level2": 1,
                      "in_q1": True, "in_q2": False},
        ),
        (1, 2, 1),
    ),
    (
        "IV",
        PseudoSkpArithmetic(
            rows=[RowArithmetic(False, gv(1)), RowArithmetic(False, gv(1))],
            declared={"level0": 1, "level1": 1, "level2": 1,
                      "in_q1": False, "in_q2": False, "span2_in_01": False},
        ),
        (1, 3, 0),
    ),
    (
        "V_1",
        PseudoSkpArithmetic(
            rows=[RowArithmetic(True), RowArithmetic(False, gv(1))],
            declared={"level0": 1, "level2": 1, "in_q2": False},
        ),
        (1, 2, 0),
    ),
]


def span_leading_positions(values):
    """The distinct leading positions of the Q-span of the values (the
    isolated levels it reaches), by Fraction elimination."""
    basis = {}  # leading position -> row
    for v in values:
        row = [Fraction(c) for c in v.coords]
        for pos in sorted(basis):
            if row[pos]:
                factor = row[pos] / basis[pos][pos]
                row = [a - factor * b for a, b in zip(row, basis[pos])]
        lead = next((pos for pos, c in enumerate(row) if c), None)
        if lead is not None:
            basis[lead] = row
    return len(basis)


def assert_rk_counts_leading_positions(skp):
    per_row = inductive_invariants(skp).per_row
    for i in range(skp.nvars):
        prefix = [skp.entries[idx].beta for idx in skp.order if idx[0] <= i]
        assert per_row[i]["rk"] == span_leading_positions(prefix), (i, prefix)


class TestRank:
    @pytest.mark.parametrize(
        "name", ["remark_diffskp", "swapped_diffskp", "example2", "example1_tail"]
    )
    def test_per_row_rk_on_the_data_tables(self, name):
        assert_rk_counts_leading_positions(corpus(name))

    def test_per_row_rk_on_random_families(self, example1, free2):
        for skp in (example1, free2):
            assert_rk_counts_leading_positions(skp)
        rng = random.Random(11)
        built = 0
        for _ in range(300):
            dim = rng.randint(1, 3)
            rows = [
                [gv(*(rng.randint(0, 2) for _ in range(dim)))]
                for _ in range(rng.randint(1, 4))
            ]
            try:
                skp = build_skp(compute_relations(rows))
            except InvalidTableError:  # a value not > 0 or a negative relation
                continue
            assert_rk_counts_leading_positions(skp)
            built += 1
        assert built > 50


class TestTable1:
    @pytest.mark.parametrize("label,a,triple", CONCRETE_CASES + DECLARED_CASES,
                             ids=[c[0] for c in CONCRETE_CASES + DECLARED_CASES])
    def test_lookup(self, label, a, triple):
        rep = classify_table1(a)
        assert rep.status == "CLASSIFIED"
        assert rep.table1_row == label
        assert (rep.rk, rep.r_rk, rep.tr_deg) == triple
        assert abhyankar_check(rep, 3)

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolatedError):
            classify_table1(arith((0, 1, 0), (0, 0, 1), (0, 0, 2)))

    def test_unclassified_gap(self):
        # both rows finite, row-1 final dependent, row-2 final outside the
        # second isolated subgroup: no case covers this
        rep = classify_table1(arith((0, 0, 1), (0, 0, 2), (1, 0, 0)))
        assert rep.status == "UNCLASSIFIED"

    def test_agrees_with_inductive_when_concrete(self):
        # (VII): three independent levels, buildable as an actual table
        t = compute_relations([[(0, 0, 1)], [(0, 1, 0)], [(1, 0, 0)]])
        skp = build_skp(t)
        ind = inductive_invariants(skp)
        rows = [RowArithmetic(False, skp.entries[(i, 1)].beta) for i in (1, 2)]
        looked = classify_table1(
            PseudoSkpArithmetic(beta01=skp.entries[(0, 1)].beta, rows=rows)
        )
        assert ind.r_rk == looked.r_rk == 3
        assert ind.rk == looked.rk == 3
        assert ind.tr_deg == looked.tr_deg == 0


class TestAbhyankar:
    @pytest.mark.parametrize(
        "triple,num_vars,ok",
        [((1, 1, 2), 3, True), ((3, 3, 0), 3, True), ((2, 3, 1), 3, False)],
    )
    def test_inequalities(self, triple, num_vars, ok):
        rep = InvariantReport(*triple)
        assert abhyankar_check(rep, num_vars) is ok

    def test_every_table_row_passes(self):
        for label, a, triple in CONCRETE_CASES + DECLARED_CASES:
            assert abhyankar_check(classify_table1(a), 3)
