import collections
import itertools
import random
import re
from fractions import Fraction
from math import inf

import pytest

from skpval import (
    INFINITY,
    GroupValue,
    InvalidTableError,
    LimitTail,
    NoCutoffError,
    NonStabilizingError,
    SkpValuation,
    ThetaZeroError,
    ZeroPolyError,
    build_skp,
    compute_relations,
    minimal_pseudo_skp,
    parse_poly,
    unroll_limit,
)
from skpval.jsonio import build_from_problem
from skpval.skp import KeyProducts, rewrite_rules, u_order

from conftest import corpus, is_acceptable, problem
import oracles


def P(text, nvars=2):
    return parse_poly(text, nvars)


class TestBuild:
    def test_plane_curve_golden(self, diffskp):
        assert diffskp.entries[(0, 1)].poly == P("X0")
        assert diffskp.entries[(1, 1)].poly == P("X1")
        assert diffskp.entries[(1, 2)].poly == P("X1^2 - X0^3")
        assert diffskp.entries[(1, 3)].poly == P("X1^2 - X0^3 - X0^3*X1")
        assert [diffskp.entries[k].d for k in diffskp.order] == [1, 1, 2, 2]

    def test_swapped_coordinates_golden(self, diffskp_swapped):
        v = diffskp_swapped
        assert v.entries[(1, 2)].poly == P("X1^3 - X0^2")
        # theta = -1 at (1,2) flips the sign of the correction term
        assert v.entries[(1, 3)].poly == P("X1^3 - X0^2 + X0^3")

    def test_prime_tower_golden(self, example2):
        assert example2.entries[(1, 2)].poly == P("X1^2 - X0")
        assert example2.entries[(1, 3)].poly == P("(X1^2 - X0)^3 - X0^4")
        t = example2
        assert t.entries[(1, 1)].n == 2
        assert t.entries[(1, 2)].n == 3
        assert t.entries[(1, 2)].relation == {(0, 1): 4}
        assert t.entries[(1, 3)].relation == {(0, 1): 21}

    def test_monic_degree_support_invariants(self, diffskp, example2, example1):
        for skp in (diffskp, example2, example1):
            for (i, j), e in skp.entries.items():
                assert e.poly.is_monic_in(i)
                assert e.poly.deg_in(i) == e.d
                assert all(v <= i for v in e.poly.support_variables())
                if j > 1:
                    prev = skp.entries[(i, j - 1)]
                    assert e.d == prev.n * prev.d

    def test_rejects_invalid_table(self):
        t = compute_relations([[], [4, 6, 13]])
        with pytest.raises(InvalidTableError):
            build_skp(t)

    def test_rejects_zero_theta(self, diffskp_table):
        with pytest.raises(ThetaZeroError):
            build_skp(diffskp_table, thetas={(1, 1): 0})

    def test_rejects_negative_cutoff(self, diffskp_table):
        with pytest.raises(ValueError, match="cutoff must be nonnegative"):
            build_skp(diffskp_table, cutoff=-1)

    def test_empty_row_zero_allowed_when_valid(self):
        skp = build_skp(compute_relations([[], [(1, 0)], [(0, 1)]]))
        assert (0, 1) not in skp.entries
        assert skp.entries[(1, 1)].poly == parse_poly("X1", 3)
        SkpValuation(skp, (0, 1, 1))
        with pytest.raises(ValueError, match="^nonzero cutoff on an empty row$"):
            SkpValuation(skp, (1, 1, 1))


class TestExample1:
    def test_successor_recurrence(self, example1):
        # U_next = U_cur - X0^j * X1^(n+2) across the whole truncated row
        row_len = example1.row_length(2)
        for j in range(1, row_len):
            cur = example1.entries[(2, j)]
            nxt = example1.entries[(2, j + 1)]
            _, mid, last = cur.beta.coords
            correction = parse_poly("X0", 3) ** int(last) * parse_poly("X1", 3) ** int(mid)
            assert nxt.poly == cur.poly - correction

    def test_all_interior_n_one(self, example1):
        for j in range(1, example1.row_length(2)):
            assert example1.entries[(2, j)].n == 1

    def test_truncated_limit_flagged(self, example1):
        assert example1.entries[(2, 5)].truncated_limit
        assert example1.entries[(2, 10)].truncated_limit


class TestTruncatedSuccessors:
    def test_rewrite_identity_under_truncation(self, example1):
        # U_{i,j}^n = U_{i,j+1} + sum theta * prod U^m, modulo the cutoff
        tail_skp = corpus("example1_tail")
        for skp in (example1, tail_skp):
            assert skp.cutoff is not None
            for (i, j), entry in skp.entries.items():
                if j == 1:
                    continue
                prev = skp.entries[(i, j - 1)]
                expected = prev.poly ** prev.n
                for theta, m in prev.rewrite_terms:
                    expected = expected - theta * skp.monomial_poly(dict(m))
                assert entry.poly == expected.truncate(skp.cutoff), (i, j)


SKP_FILES = (
    "example1_tail.json", "example2.json", "remark_diffskp.json", "swapped_diffskp.json"
)


class TestKeyProduct:
    @pytest.mark.parametrize(
        "name, changes",
        [(name, {}) for name in SKP_FILES]
        + [("remark_diffskp.json", {"cutoff": c}) for c in range(4)]
        + [("swapped_diffskp.json", {"field": {"prime": 7}})],
        ids=[*SKP_FILES, *(f"remark-cutoff-{c}" for c in range(4)), "swapped-gf7"],
    )
    def test_every_key_up_to_three_through_one_store(self, name, changes):
        # the keys are asked for in a seeded order, so a product is built
        # from whatever smaller one the store already holds, the build's
        # powers and summands among them
        skp = build_from_problem(problem(name, **changes))
        keys = [
            tuple(sorted(collections.Counter(combo).items()))
            for t in range(4)
            for combo in itertools.combinations_with_replacement(skp.order, t)
        ]
        random.Random(len(keys)).shuffle(keys)
        for key in keys:
            want = oracles.multiplied_out(skp.entries, key, skp.cutoff)
            assert skp.products[key] == want, key
        assert set(keys) <= set(skp.products)
        for key, product in skp.products.items():
            assert product == oracles.multiplied_out(skp.entries, key, skp.cutoff), key

    @pytest.mark.parametrize("name", SKP_FILES)
    @pytest.mark.parametrize("cutoff", ["file", 0, 1, 2, 3])
    def test_each_successor_is_its_own_product(self, name, cutoff):
        # the build stores U_{i,j}, j > 1, under its own key; U_{i,1} = X_i
        # is left to the store, which truncates it under cutoff 0
        skp = build_from_problem(problem(name, **({} if cutoff == "file" else {"cutoff": cutoff})))
        for (i, j), entry in skp.entries.items():
            product = skp.products[(((i, j), 1),)]
            if j > 1:
                assert product is entry.poly
            else:
                assert product == entry.poly.truncate(skp.cutoff)

    def test_minimal_pseudo_skp_has_its_own_store(self, diffskp):
        reduced = minimal_pseudo_skp(diffskp)
        assert reduced.products is not diffskp.products
        assert reduced.products.entries is reduced.entries
        assert reduced.monomial_poly({(1, 2): 1}) == diffskp.entries[(1, 3)].poly

    @pytest.mark.parametrize(
        "key",
        [(((0, 1), 0),), (((0, 1), -1),), (((0, 1), 1), ((1, 1), 0)), (((1, 2), -2),)],
    )
    def test_exponent_below_one_refused(self, diffskp, key):
        with pytest.raises(ValueError, match="below 1"):
            diffskp.products[key]
        assert key not in diffskp.products

    def test_product_past_the_cutoff_is_zero_at_once(self, diffskp_table, monkeypatch):
        # sum e * ord U above the cutoff, or a factor truncated to 0, gives 0
        # without lowering an exponent of 10**30 one step at a time
        lookups = [0]
        contains = KeyProducts.__contains__

        def counting(store, key):
            lookups[0] += 1
            assert lookups[0] < 100, "the store was searched step by step"
            return contains(store, key)

        skp = build_skp(diffskp_table, cutoff=1)
        assert skp.entries[(1, 2)].order == INFINITY
        monkeypatch.setattr(KeyProducts, "__contains__", counting)
        for key in [(((0, 1), 10**30),), (((0, 1), 1), ((1, 2), 1)), (((1, 1), 2),)]:
            assert skp.products[key].is_zero()
            assert skp.products.get(key).is_zero()
        assert skp.products[(((1, 1), 1),)] == P("X1")
        assert 0 < lookups[0] < 100

    def test_monomial_poly_skips_zero_and_refuses_negative_exponents(self, diffskp):
        assert diffskp.monomial_poly({(0, 1): 1, (1, 1): 0}) == P("X0")
        with pytest.raises(ValueError, match="below 1"):
            diffskp.monomial_poly({(0, 1): 1, (1, 2): -1})


class TestEntryOrders:
    @pytest.mark.parametrize("cutoff", [None, 0, 1, 2, 3, 5, 8])
    def test_none_exactly_for_a_zero_polynomial(self, diffskp_table, example1, cutoff):
        skp = build_skp(diffskp_table, cutoff=cutoff)
        tail_skp = corpus("example1_tail")
        for table in (skp, minimal_pseudo_skp(skp), example1, tail_skp):
            for entry in table.entries.values():
                assert (entry.order == INFINITY) == entry.poly.is_zero()
                if entry.order != INFINITY:
                    assert entry.order == entry.poly.order()

    def test_u_order_refuses_a_zero_polynomial(self, diffskp_table):
        skp = build_skp(diffskp_table, cutoff=1)
        assert skp.entries[(1, 2)].order == INFINITY
        assert u_order([((0, 1), 2), ((1, 1), 1)], skp.entries) == 3
        assert u_order([((0, 1), 1), ((1, 2), 1)], skp.entries) == INFINITY
        # a tail summand holding the zero U_{1,2} is refused, not skipped
        tail = LimitTail(1, 3, {(0, 1): (1, 0), (1, 2): (1, 0)})
        with pytest.raises(ZeroPolyError, match="^order of the zero polynomial$"):
            unroll_limit(skp.products, tail)

    @pytest.mark.parametrize("name", SKP_FILES)
    def test_position_is_the_place_in_the_order(self, name):
        skp = build_from_problem(problem(name))
        for table in (skp, minimal_pseudo_skp(skp)):
            assert table.position == {idx: table.order.index(idx) for idx in table.order}


class TestUnrollLimit:
    @pytest.mark.parametrize(
        "args, kw",
        [
            ((2, 2, {(0, 1): (1.9, 0.5)}), {}),
            ((2, 2.5, {}), {}),
            ((2.0, 2, {}), {}),
            ((2, 2, {(0.0, 1): (1, 0)}), {}),
            ((2, 2, {(0, 1): (True, 0)}), {}),
            ((2, 2, {}), {"depth": 3.5}),
            ((2, 2, {}), {"depth": False}),
        ],
    )
    def test_tail_number_that_is_no_int_refused(self, args, kw):
        # a row, position, exponent or depth is never truncated
        with pytest.raises(ValueError, match="is not an int"):
            LimitTail(*args, **kw)

    def test_negative_depth_refused(self):
        # depth 0 is the one spelling of "no unrolling"
        with pytest.raises(ValueError, match="^limit tail depth -3 is negative$"):
            LimitTail(2, 2, {}, depth=-3)

    def test_tail_at_a_first_position_refused(self):
        # U_{row,1} = X_row has no predecessor to unroll from
        with pytest.raises(ValueError, match="^a tail must target a successor position$"):
            LimitTail(2, 1, {})

    def tail_table(self, cutoff=5):
        rows = [[GroupValue((0, 0, 1))], [GroupValue((0, 1, 0))], [GroupValue((0, 2, 1))]]
        return build_skp(compute_relations(rows), cutoff=cutoff)

    def test_block_zero_truncation(self):
        skp = self.tail_table()
        tail = LimitTail(2, 2, {(0, 1): (1, 1), (1, 1): (2, 0)}, depth=10)
        poly, summands, report = unroll_limit(skp.products, tail)
        assert poly == parse_poly("X2 - X0*X1^2 - X0^2*X1^2 - X0^3*X1^2", 3)
        assert report["stabilized"]
        assert report["summands_used"] == 3
        assert len(summands) == 3

    def test_depth_zero_unchanged(self):
        skp = self.tail_table()
        tail = LimitTail(2, 2, {(0, 1): (1, 1), (1, 1): (2, 0)}, depth=0)
        poly, summands, report = unroll_limit(skp.products, tail)
        assert poly == parse_poly("X2", 3)
        assert summands == []
        assert not report["stabilized"]

    def test_constant_order_never_stabilizes(self):
        skp = self.tail_table()
        tail = LimitTail(2, 2, {(0, 1): (2, 0)}, depth=8)
        with pytest.raises(NonStabilizingError):
            unroll_limit(skp.products, tail)

    def test_requires_cutoff(self):
        skp = self.tail_table(cutoff=None)
        tail = LimitTail(2, 2, {(0, 1): (1, 1)}, depth=4)
        with pytest.raises(NoCutoffError):
            unroll_limit(skp.products, tail)

    def test_build_with_declared_tail(self):
        rows = [
            [GroupValue((0, 0, 1))],
            [GroupValue((0, 1, 0))],
            [GroupValue((0, 2, 1)), GroupValue((0, 3, 0))],
        ]
        table = compute_relations(rows, limit_labels={(2, 2): 1})
        # at depth 3 the tail stabilises at its last allowed summand, k = 2
        for depth in (20, 3):
            tail = LimitTail(2, 2, {(0, 1): (1, 1), (1, 1): (2, 0)}, depth=depth)
            skp = build_skp(table, cutoff=5, limit_tails=[tail])
            assert skp.entries[(2, 2)].poly == parse_poly(
                "X2 - X0*X1^2 - X0^2*X1^2 - X0^3*X1^2", 3
            )
            assert not skp.entries[(2, 2)].truncated_limit
            report = skp.entries[(2, 2)].unroll_report
            assert report == {"stabilized": True, "summands_used": 3, "cutoff": 5}
            # the predecessor's rewrite carries the whole accumulated tail
            assert len(skp.entries[(2, 1)].rewrite_terms) == 3


class TestMinimalPseudo:
    def test_drops_interior_n_one(self, diffskp):
        reduced = minimal_pseudo_skp(diffskp)
        assert reduced.rows[0] == [GroupValue(2)]
        assert reduced.rows[1] == [GroupValue(3), GroupValue(10)]
        # the kept final keeps its original polynomial
        assert reduced.entries[(1, 2)].poly == diffskp.entries[(1, 3)].poly
        assert reduced.entries[(1, 2)].d == 2

    def test_unchanged_when_all_n_above_one(self, example2):
        reduced = minimal_pseudo_skp(example2)
        assert reduced.row_lengths() == example2.row_lengths()

    def test_example1_row2_reduces_to_first_and_final(self, example1):
        reduced = minimal_pseudo_skp(example1)
        assert reduced.row_length(2) == 2
        assert reduced.entries[(2, 1)].poly == example1.entries[(2, 1)].poly
        final = example1.row_length(2)
        assert reduced.entries[(2, 2)].poly == example1.entries[(2, final)].poly

    def test_rewrite_chain_collapses(self, diffskp):
        reduced = minimal_pseudo_skp(diffskp)
        entry = reduced.entries[(1, 1)]
        assert rewrite_rules(reduced, reduced.row_lengths())[(1, 1)][1] == (1, 2)
        # U11^2 = U12' + theta*X0^3 + theta*X0^3*U11 across the dropped chain
        assert entry.rewrite_terms == [
            (Fraction(1), (((0, 1), 3),)),
            (Fraction(1), (((0, 1), 3), ((1, 1), 1))),
        ]


class TestAcceptableVectors:
    """``SkpValuation`` is the one gate of a cutoff vector: it refuses one
    whose rewrite rules use a relation outside it."""

    def test_full_vector_passes(self, diffskp):
        assert is_acceptable(diffskp, diffskp.row_lengths())

    def test_all_ones_passes(self, diffskp, example2, example1):
        for skp in (diffskp, example2, example1):
            assert is_acceptable(skp, (1,) * skp.nvars)

    def test_intermediate(self, diffskp):
        assert is_acceptable(diffskp, (1, 2))

    def test_closure_violation(self):
        # the interior row-2 entry (1,1) = (0,1) + (1,0) references the
        # row-final (1,2); keeping it interior while cutting row 1 at its
        # first entry breaks closure
        t = compute_relations([[(0, 1)], [(0, 2), (1, 0)], [(1, 1), (2, 2)]])
        assert t.entries[(2, 1)].relation == {(0, 1): 1, (1, 2): 1}
        skp = build_skp(t)
        assert is_acceptable(skp, (1, 2, 2))
        with pytest.raises(ValueError, match=r"^\(1, 1, 2\) is not an acceptable vector$"):
            SkpValuation(skp, (1, 1, 2))
        # with row 2 cut at its first entry that relation is out of scope
        assert is_acceptable(skp, (1, 1, 1))

    @pytest.mark.parametrize(
        "alpha, named",
        [((1.9, 3), "1.9"), ((1, 2.7), "2.7"), ((True, 3), "True"), (("1", 3), "'1'")],
    )
    def test_component_that_is_not_an_int_is_refused(self, diffskp, alpha, named):
        # each component is taken as given: 1.9 is not read as 1, nor True
        # or "1" as 1, by the valuation (the context every expansion takes)
        message = rf"^cutoff component {re.escape(named)} is not an int$"
        with pytest.raises(ValueError, match=message):
            SkpValuation(diffskp, alpha)


class TestDegreeInequality:
    def test_bounded_products_stay_below(self, diffskp, example2):
        # sum p_j' * d_j' < d_j for every exponent box below the indices
        for skp in (diffskp, example2):
            for i in range(skp.nvars):
                length = skp.row_length(i)
                for j in range(2, length + 1):
                    dj = skp.entries[(i, j)].d
                    ranges = []
                    for j2 in range(1, j):
                        n = skp.entries[(i, j2)].n
                        ranges.append(range(0, int(n) if n != inf else 3))
                    for combo in itertools.product(*ranges):
                        total = sum(
                            p * skp.entries[(i, j2 + 1)].d
                            for j2, p in enumerate(combo)
                        )
                        assert total < dj
