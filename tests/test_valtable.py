from fractions import Fraction
from math import inf

import pytest

from skpval import (
    DimensionMismatchError,
    GroupValue,
    compute_relations,
    enumerate_semigroup,
    validate_table,
)
from skpval.ordgroup import analyze_chain

from oracles import brute_semigroup, group_enumerate_semigroup


def gv(*coords):
    return GroupValue(coords)


def ball(values, coeff_bound):
    """``enumerate_semigroup`` over the values' chain, each integer row
    mapped back to its value by ``chain.value``."""
    chain = analyze_chain(values)
    return [(chain.value(row), w) for row, w in enumerate_semigroup(chain, coeff_bound)]


class TestComputeRelations:
    def test_plane_curve_values(self, diffskp_table):
        t = diffskp_table
        assert [t.entries[k].n for k in t.order] == [inf, 2, 1, 1]
        assert t.entries[(1, 1)].relation == {(0, 1): 3}
        assert t.entries[(1, 2)].relation == {(0, 1): 3, (1, 1): 1}
        # 10 = 5*2 is the unique representation with the (1,1) coefficient
        # below 2 and the (1,2) coefficient below 1
        assert t.entries[(1, 3)].relation == {(0, 1): 5}
        assert not t.entries[(1, 1)].s_neg

    def test_half_over_one(self):
        t = compute_relations([[1], [Fraction(1, 2)]])
        assert [t.entries[k].n for k in t.order] == [inf, 2]
        assert t.entries[(1, 1)].relation == {(0, 1): 1}

    def test_independent_rows(self):
        t = compute_relations([[(1, 0)], [(0, 1)]])
        assert [t.entries[k].n for k in t.order] == [inf, inf]
        assert all(not t.entries[k].relation for k in t.order)

    def test_relation_coefficients_stay_below_index(self, diffskp_table):
        t = diffskp_table
        for k in t.order:
            for k2, m in t.entries[k].relation.items():
                n2 = t.entries[k2].n
                if n2 != inf:
                    assert 0 <= m < n2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_relations([[], []])


class TestValidateTable:
    def test_all_pass(self, diffskp_table):
        report = validate_table(diffskp_table)
        assert report.ok
        assert report.is_sequence_of_values

    def test_increasing_pass(self):
        t = compute_relations([[4], [6, 13]])
        report = validate_table(t)
        assert report.ok  # 13 > 2*6

    def test_increasing_fail(self):
        t = compute_relations([[4], [6, 11]])
        report = validate_table(t)
        bad = report.failures_of("increasing")
        assert [c.index for c in bad] == [(1, 1)]

    def test_interior_infinity(self):
        # everything pushed to row 1 over an empty row 0
        t = compute_relations([[], [4, 6, 13]])
        report = validate_table(t)
        bad = report.failures_of("interior-finite")
        assert [c.index for c in bad] == [(1, 1)]
        assert not report.is_sequence_of_prevalues

    def test_row0_overfull_is_interior_infinity(self):
        t = compute_relations([[2, 3]])
        assert [c.index for c in validate_table(t).failures_of("interior-finite")] == [
            (0, 1)
        ]

    def test_negative_relation_reported(self):
        # (1,-1) = (1,0) - (0,1): the negative coefficient lands on the
        # row-final infinite-index entry of row 1
        t = compute_relations([[(1, 0)], [(0, 1)], [(1, -1)]])
        assert t.entries[(2, 1)].relation == {(0, 1): 1, (1, 1): -1}
        assert t.entries[(2, 1)].s_neg == {(1, 1)}
        report = validate_table(t)
        assert report.is_sequence_of_prevalues
        assert not report.is_sequence_of_values
        assert [c.index for c in report.failures_of("positive")] == [(2, 1)]

    def test_value_not_above_zero_fails_positive(self):
        report = validate_table(compute_relations([[0], [1]]))
        assert [(c.index, c.detail) for c in report.failures_of("positive")] == [
            ((0, 1), "beta = 0 is not > 0")
        ]
        report = validate_table(compute_relations([[(0, 1)], [(0, -1)]]))
        assert [(c.index, c.detail) for c in report.failures_of("positive")] == [
            ((1, 1), "beta = (0, -1) is not > 0; negative coefficients at 0,1")
        ]
        assert not report.is_sequence_of_values

    def test_limit_monotone(self, example1_table):
        report = validate_table(example1_table)
        assert report.ok
        checks = [c for c in report.checks if c.check == "limit-monotone"]
        assert len(checks) == 2
        assert all("truncated-limit" in c.detail for c in checks)

    def test_idempotent(self, diffskp_table):
        a = validate_table(diffskp_table).to_json()
        b = validate_table(diffskp_table).to_json()
        assert a == b


class TestEnumerateSemigroup:
    def test_against_brute_force(self):
        values = [gv(4), gv(6), gv(13)]
        got = [v.coords for v, _ in ball(values, 3)]
        assert got == brute_semigroup(values, 3)
        # frozen from the oracle above
        assert [c[0] for c in got] == [
            0, 4, 6, 8, 10, 12, 13, 14, 16, 17, 18, 19, 21, 23, 25, 26, 30, 32, 39,
        ]

    def test_single_generator(self):
        got = ball([gv(1)], 2)
        assert got == [(gv(0), (0,)), (gv(1), (1,)), (gv(2), (2,))]

    def test_vector_generators(self):
        got = ball([gv(1, 0), gv(0, 1)], 1)
        assert [v.coords for v, _ in got] == [(0, 0), (0, 1), (1, 0)]

    def test_from_table(self, diffskp_table):
        values = [diffskp_table.entries[k].beta for k in diffskp_table.order]
        got = [v.coords for v, _ in ball(values, 2)]
        assert got == brute_semigroup([gv(2), gv(3), gv(9), gv(10)], 2)

    def test_closed_under_addition_within_bound(self):
        values = [gv(4), gv(6), gv(13)]
        got = ball(values, 4)
        members = {v.coords for v, _ in got}
        for v1, w1 in got:
            for v2, w2 in got:
                if sum(w1) + sum(w2) <= 4:
                    assert (v1 + v2).coords in members

    @pytest.mark.parametrize(
        "values",
        [
            [gv(4), gv(6), gv(13)],
            [gv(2), gv(3), gv(9), gv(10)],
            [gv(Fraction(3, 2)), gv(Fraction(5, 3)), gv(7)],
            [gv(1, 0), gv(0, 1)],
            [gv(1, 0), gv(0, 1), gv(1, 1), gv(2, Fraction(1, 2))],
            [gv(Fraction(1, 2), Fraction(3, 2)), gv(Fraction(1, 3), 0), gv(0, 1)],
            [gv(0, 1), gv(Fraction(1, 3), 0), gv(Fraction(1, 2), Fraction(3, 2))],
        ],
        ids=["rank1", "rank1-table", "rank1-mixed", "rank2", "rank2-dependent",
             "rank2-mixed", "rank2-mixed-reversed"],
    )
    @pytest.mark.parametrize("bound", range(5))
    def test_integer_rows_match_group_value_recursion(self, values, bound):
        # values, their order and the first-found witness of each value
        got = ball(values, bound)
        want = group_enumerate_semigroup(values, bound)
        assert [(v.coords, w) for v, w in got] == [(v.coords, w) for v, w in want]
        assert all(type(c) is Fraction for v, _ in got for c in v.coords)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ball([gv(1), gv(1, 0)], 2)

    def test_no_values(self):
        assert enumerate_semigroup(analyze_chain([]), 3) == []
