import random
import re
from fractions import Fraction

import pytest

from skpval import (
    GF,
    GroupValue,
    IterationCapError,
    MultiPoly,
    NotMonicError,
    SkpValuation,
    ZeroPolyError,
    adic_expand,
    build_skp,
    compute_relations,
    euclidean_expand,
    parse_poly,
    value_of,
    value_via_euclidean,
)
from skpval import expansion
from skpval.expansion import sparse_key, vp
from skpval.skp import weigh

from conftest import at_rewrite_cap, sample_polynomials, top_cut
from oracles import long_euclidean_expand, rescan_adic_expand
from test_cross_checks import adic_against_rescan, run_check


def P(text, nvars=2):
    return parse_poly(text, nvars)


def exp_map(expansion):
    return {m.key: m.coeff for m in expansion}


def vdeg(key, skp):
    """Vdeg as adic_expand weighs it."""
    return weigh(key, skp.degree_weights, (0,) * skp.nvars)


class TestAdicExpand:
    def test_square_at_middle_cutoff(self, diffskp):
        e = adic_expand(P("X1^2"), SkpValuation(diffskp, (1, 2)))
        assert exp_map(e) == {
            (((1, 2), 1),): Fraction(1),
            (((0, 1), 3),): Fraction(1),
        }

    def test_square_at_full_cutoff_skips_n_one_entry(self, diffskp):
        e = adic_expand(P("X1^2"), SkpValuation(diffskp, (1, 3)))
        assert exp_map(e) == {
            (((1, 3), 1),): Fraction(1),
            (((0, 1), 3), ((1, 1), 1)): Fraction(1),
            (((0, 1), 3),): Fraction(1),
        }
        assert all((1, 2) not in dict(m.key) for m in e)

    def test_monomial_already_adic(self, vdiff):
        e = adic_expand(P("X0^4"), vdiff)
        assert exp_map(e) == {(((0, 1), 4),): Fraction(1)}

    def test_zero_rejected(self, vdiff):
        with pytest.raises(ZeroPolyError):
            adic_expand(MultiPoly.zero(2), vdiff)

    def test_well_order_comparator(self, diffskp, vdiff):
        # distinct adic monomials have distinct Vdeg, so the comparator is a
        # total order on every expansion
        for f in sample_polynomials(random.Random(13), diffskp, vdiff.alpha, 30):
            degs = [vdeg(m.key, diffskp) for m in adic_expand(f, vdiff)]
            assert len(set(degs)) == len(degs), str(f)


class TestRewriteOrder:
    """The priority queue rewrites in the order of the rescanning loop."""

    @pytest.mark.parametrize("k, rewrites", [(6, 29), (10, 145)])
    def test_pinned_rewrite_counts(self, diffskp, vdiff, k, rewrites):
        f = P(f"(X0+X1)^{k}")
        got = at_rewrite_cap(rewrites, lambda: adic_expand(f, vdiff))
        reference, count = rescan_adic_expand(f, diffskp)
        assert count == rewrites
        assert got.to_json() == reference.to_json()

    def test_each_key_rewritten_once(self, vdiff):
        # (X0+X1)^20 makes 1240 distinct violating keys; an order that pops
        # a key before one of its parents rewrites it again and exceeds the cap
        at_rewrite_cap(1240, lambda: adic_expand(P("(X0+X1)^20"), vdiff))

    def test_agrees_with_rescan_reference(self):
        # the full table and the top row cut at its second entry, each
        # expansion in exactly the rewrites of the rescanning loop
        for name, polys in (("remark_diffskp", 40), ("example2", 40), ("example1", 20)):
            run_check(adic_against_rescan, name, [((name,), "top", polys)], f"rewrite order {name}")


class TestSparseKey:
    """Inside the rewrite loop a key is dense, its exponent tuple over
    ``skp.order``; ``sparse_key`` turns it into the ((i, j), e) key that
    expansions report and order by after Vdeg."""

    def test_random_pairs_convert_and_order_as_sparse_keys(self, example1):
        rng = random.Random(47)
        order = example1.order

        def reference(key):
            return tuple(sorted((idx, e) for idx, e in dict(zip(order, key)).items() if e))

        for _ in range(3000):
            a = [rng.choice((0, 0, 0, 1, 2, 5)) for _ in order]
            b = list(a)
            # b shares a prefix with a, then differs at one position or
            # loses its tail
            k = rng.randrange(len(order))
            if rng.random() < 0.5:
                b[k] = rng.choice((0, 0, 1, 2, 5))
            else:
                b[k:] = [0] * (len(order) - k)
            if rng.random() < 0.5:
                a, b = b, a
            sa, sb = sparse_key(a, example1), sparse_key(b, example1)
            assert (sa, sb) == (reference(a), reference(b))
            assert (sa < sb) == (reference(a) < reference(b)), (a, b)

    def test_zero_key(self, diffskp):
        assert sparse_key((0, 0, 0, 0), diffskp) == ()


class TestVdegVp:
    def test_mixed_monomial(self, diffskp):
        key = (((0, 1), 3), ((1, 1), 1), ((1, 2), 1))
        assert vdeg(key, diffskp) == (3, 3)
        assert vp(key, diffskp.row_lengths()) == (0, 3)  # row-final exponents, top row first

    def test_constant(self, diffskp):
        assert vdeg((), diffskp) == (0, 0)
        assert vp((), diffskp.row_lengths()) == (0, 0)

    def test_final_squared(self, diffskp):
        key = (((1, 3), 2),)
        assert vdeg(key, diffskp) == (0, 4)
        assert vp(key, diffskp.row_lengths()) == (2, 0)


class TestEuclidean:
    def test_worked_example(self, diffskp):
        got = euclidean_expand(P("X1^3 + X0*X1"), top_cut(diffskp, 2))
        want = {
            ((1, 1),): P("X0^3 + X0"),
            ((1, 1), (2, 1)): P("1"),
        }
        assert {tuple(sorted(k.items())): c for k, c in got} == want

    def test_low_degree_single_term(self, diffskp):
        got = euclidean_expand(P("X0^7 + X1"), top_cut(diffskp, 2))
        assert {tuple(sorted(k.items())): c for k, c in got} == {
            (): P("X0^7"),
            ((1, 1),): P("1"),
        }

    def test_zero_and_an_empty_row(self, diffskp):
        # 0 is the empty expansion; a row with no key polynomials is refused
        assert euclidean_expand(MultiPoly.zero(2), top_cut(diffskp, 2)) == []
        v = SkpValuation(build_skp(compute_relations([[], [(1, 0)], [(0, 1)]])))
        with pytest.raises(ValueError, match="^row 0 has no key polynomials$"):
            euclidean_expand(parse_poly("X1", 3), v, row=0)


class TestEuclideanOracle:
    def test_truncated_divisor_is_refused(self, diffskp_table):
        # at cutoff 1 X1^2 - X0^3 truncates to 0: dividing by it is refused,
        # while the adic entries, which read only the rules, expand and value
        # past it; swapped, at cutoff 2 X1^3 - X0^2 truncates to -X0^2, not
        # monic in X1
        v = SkpValuation(build_skp(diffskp_table, cutoff=1))
        assert [key for key, _ in euclidean_expand(P("X1^2"), top_cut(v.skp, 1))] == [{1: 2}]
        with pytest.raises(NotMonicError):
            euclidean_expand(P("X1^2"), top_cut(v.skp, 2))
        with pytest.raises(NotMonicError):
            value_via_euclidean(P("X1^2"), v)
        assert [m.key for m in adic_expand(P("X1^2 - X0^3"), top_cut(v.skp, 2))] == [(((1, 2), 1),)]
        for text, value in (("X1^2", 6), ("X1^2 - X0^3", 9)):
            assert value_of(P(text), v) == GroupValue((value,))
        swapped = build_skp(compute_relations([[3], [2, 9, 10]]), thetas={(1, 2): -1}, cutoff=2)
        with pytest.raises(NotMonicError):
            long_euclidean_expand(P("X1^3"), swapped, 2)
        with pytest.raises(NotMonicError):
            euclidean_expand(P("X1^3"), top_cut(swapped, 2))


class TestEuclideanEntryChecks:
    @pytest.mark.parametrize("row", [2, 5, -1, True, False, 1.0, "1"])
    def test_row_outside_the_table(self, vdiff, row):
        with pytest.raises(ValueError, match=re.escape(f"row {row!r} is not a row")):
            euclidean_expand(P("X1^3 + X0"), vdiff, row=row)

    @pytest.mark.parametrize("j", [0, 4, True, 1.5, "1"])
    def test_cutoff_outside_the_row(self, diffskp, j):
        # a row's cutoff reaches euclidean_expand only as the context's,
        # so the context's gate refuses one outside the row
        if type(j) is int:
            message = f"cutoff {j!r} outside 1..3"
        else:
            message = f"cutoff component {j!r} is not an int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SkpValuation(diffskp, (1, j))

    def test_ring_refused(self, vdiff):
        for f in (parse_poly("X0", 3), parse_poly("X1", 2, GF(7))):
            with pytest.raises(ValueError, match="^polynomial ring does not match the table$"):
                euclidean_expand(f, vdiff)


class TestGuards:
    def test_iteration_cap(self, vdiff, monkeypatch):
        monkeypatch.setattr(expansion, "DEFAULT_REWRITE_CAP", 1)
        with pytest.raises(IterationCapError):
            adic_expand(P("X1^8"), vdiff)

    def test_rewrite_degree_measure(self, diffskp, example2):
        # the successor branch keeps the row degree, every relation branch
        # strictly drops it
        from skpval.skp import rewrite_rules

        for skp in (diffskp, example2):
            alpha = skp.row_lengths()
            for (i, j) in skp.order:
                if j >= alpha[i]:
                    continue
                _, nxt, terms = rewrite_rules(skp, alpha)[(i, j)]
                n = skp.entries[(i, j)].n
                assert skp.entries[nxt].d == n * skp.entries[(i, j)].d
                for _, m in terms:
                    same_row = sum(
                        e * skp.entries[idx].d for idx, e in m if idx[0] == i
                    )
                    assert same_row < n * skp.entries[(i, j)].d
