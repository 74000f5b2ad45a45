import random
from fractions import Fraction

import pytest

from skpval import (
    GF,
    GroupValue,
    MultiPoly,
    SkpValuation,
    ZeroPolyError,
    build_skp,
    compute_relations,
    delta_of,
    graded_normal_form,
    initial_form,
    minimal_pseudo_skp,
    parse_poly,
    value_of,
    value_via_euclidean,
)
from skpval import SemigroupSpec, adic_expand, expansion, jsonio, realize, valuation
from skpval import skp as skp_module
from skpval.expansion import euclidean_expand
from skpval.ordgroup import analyze_chain
from skpval.realize import random_polynomial
from skpval.skp import KeyProducts, SkpTable
from skpval.valtable import table_from_chain

from conftest import (
    CORPUS,
    VALUE_ENTRIES,
    acceptable_vectors,
    attainment_products,
    corpus,
    count_calls,
    doubling_chain,
    nonpositive_beta_table,
    problem,
    top_cut,
)
from oracles import group_euclid_value


def P(text, nvars=2):
    return parse_poly(text, nvars)


def gv(*coords):
    return GroupValue(coords)


class TestValueOf:
    @pytest.mark.parametrize("route", [value_of, value_via_euclidean])
    def test_key_polynomials_of_accepted_tables(self, route):
        # what the valuation's rule check guarantees: both routes value each
        # key polynomial at its beta on every table of the corpus but
        # remark_diffskp at cutoffs 1, 2 and 3, which cut U_{1,2} or U_{1,3}
        # to a polynomial of another value (0, X1^2, X1^2 - X0^3)
        for name in CORPUS:
            if name in ("remark_diffskp_cutoff1", "remark_diffskp_cutoff2", "remark_diffskp_cutoff3"):
                continue
            skp = corpus(name)
            v = SkpValuation(skp)
            for idx in skp.order:
                assert route(skp.entries[idx].poly, v) == skp.entries[idx].beta, idx

    def test_golden_cusp_values(self, vdiff):
        assert value_of(P("X1^2 - X0^3"), vdiff) == gv(9)
        assert value_of(P("X1^2"), vdiff) == gv(6)
        assert value_of(P("7"), vdiff) == gv(0)

    def test_zero_rejected(self, vdiff):
        with pytest.raises(ZeroPolyError):
            value_of(P("0"), vdiff)
        with pytest.raises(ZeroPolyError, match="^value of the zero polynomial$"):
            value_via_euclidean(P("0"), vdiff)

    def test_term_past_the_cutoff_still_cancels(self):
        # at cutoff 2 the products drop X1^3, but the adic expansion keeps
        # it: X0^2 - X1^3 is -U_{1,2}, of value 9, not X0^2, of value 6
        skp = jsonio.build_from_problem(problem("swapped_diffskp.json", cutoff=2))
        assert value_of(P("X0^2 - X1^3"), SkpValuation(skp)) == gv(9)

    @pytest.mark.parametrize("route", [value_of, value_via_euclidean])
    def test_truncated_key_polynomial_refused(self, route):
        # at cutoff 1, U_{1,2} = X1^2 - X0^3 is 0, which both routes refuse
        # to value, while the table is not refused: both value X1, which
        # needs no division by U_{1,2}, at every acceptable vector
        skp = corpus("remark_diffskp_cutoff1")
        for alpha in acceptable_vectors(skp):
            v = SkpValuation(skp, alpha)
            with pytest.raises(ZeroPolyError, match="zero polynomial$"):
                route(skp.entries[(1, 2)].poly, v)
            assert route(P("X1"), v) == gv(3)


class TestEuclideanAgreement:
    def test_golden_examples(self, vdiff):
        for text in ("X1^2 - X0^3", "X1^2", "5"):
            f = P(text)
            assert value_of(f, vdiff) == value_via_euclidean(f, vdiff)

    def test_single_row(self):
        skp = build_skp(compute_relations([[3]]))
        v = SkpValuation(skp)
        assert value_via_euclidean(parse_poly("X0^4", 1), v) == gv(12)


class TestEuclideanValueOracle:
    """The Euclidean route reads values as integer rows of the table's chain."""

    def test_chain_rows_give_back_every_beta(self):
        for skp in map(corpus, CORPUS):
            for idx, row in zip(skp.order, skp.chain.rows):
                assert skp.chain.value(row).coords == skp.entries[idx].beta.coords
                assert skp.chain.row(skp.entries[idx].beta) == row


class TestEuclideanWideExponents:
    """The routes agree with the reference past any machine word: the
    Euclidean walk packs at the width its bound needs."""

    def test_plane_curve(self, diffskp):
        v = SkpValuation(diffskp)
        for text in (
            f"X0^{2**64 + 1}*X1^3 + X1^2",
            f"X0^{2**64}*(X1^2 - X0^3)^2 + X0^{2**65}*X1",
            f"(X1^2 - X0^3)*X0^{2**70} + X1^4*X0^{2**70 - 3}",
        ):
            f = P(text)
            want = group_euclid_value(f, v, 1)
            assert value_of(f, v) == value_via_euclidean(f, v) == want, text

    def test_random_polynomials(self, diffskp, example1):
        rng = random.Random(64)
        for skp in (diffskp, example1):
            v = SkpValuation(skp)
            for _ in range(6):
                exps = [2**64 + rng.randint(-3, 3) for _ in range(skp.nvars - 1)] + [0]
                big = MultiPoly(skp.nvars, {tuple(exps): 1})
                f = random_polynomial(rng, skp.nvars, 4) * big
                f = f + random_polynomial(rng, skp.nvars, 4)
                want = group_euclid_value(f, v, skp.nvars - 1)
                assert value_of(f, v) == value_via_euclidean(f, v) == want


class TestEuclideanEntryChecks:
    @pytest.mark.parametrize(
        "f",
        [parse_poly("X0", 1), parse_poly("1", 1), parse_poly("X0", 3), parse_poly("X0", 2, GF(7))],
        ids=["one-var", "one-var-constant", "three-vars", "gf7"],
    )
    def test_ring_refused_as_value_of_refuses_it(self, diffskp, f):
        v = SkpValuation(diffskp)
        for route in (value_of, value_via_euclidean):
            with pytest.raises(ValueError, match="^polynomial ring does not match the table$"):
                route(f, v)


class TestEuclideanWork:
    """The Euclidean route divides out a power of a key polynomial, and
    values a piece's coefficient, only while the key-polynomial part can
    still win, and reads an expansion in U_{i,1} = X_i off the degree split,
    so a silent return to the whole expansion or to dividing by X_i fails."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"divisions": 0, "coefficients": 0}
        divide_split = expansion.divide_split
        euclidean_walk = valuation.euclidean_walk

        def counted_division(*args):
            counts["divisions"] += 1
            return divide_split(*args)

        def counted_walk(g, splits, steps, row, j, w, piece):
            def counted_piece(w, terms, row):
                # the coefficient of a row-1 piece is valued on row 0
                counts["coefficients"] += row == 1
                return piece(w, terms, row)

            return euclidean_walk(g, splits, steps, row, j, w, counted_piece)

        monkeypatch.setattr(expansion, "divide_split", counted_division)
        monkeypatch.setattr(valuation, "euclidean_walk", counted_walk)
        return counts

    @pytest.mark.parametrize(
        "text, value, pieces, coefficients, divisions",
        [
            ("X0^5 + 3*X0^2", 4, 1, 1, 0),
            ("(X0+X1)^6", 12, 7, 3, 2),
            # a tie: the remainder of one division by U_{1,3} values 10, which
            # U_{1,3} itself weighs, so the walk divides no further
            ("X1^4 + 4*X0^5", 10, 5, 2, 1),
        ],
    )
    def test_pinned_work(self, diffskp, counts, text, value, pieces, coefficients, divisions):
        f = P(text)
        v = SkpValuation(diffskp)
        assert len(euclidean_expand(f, v, row=1)) == pieces
        counts["divisions"] = 0
        assert value_via_euclidean(f, v) == gv(value)
        assert counts == {"divisions": divisions, "coefficients": coefficients}

    def test_walk_stops_dividing(self, example1, counts):
        # X0*X1 values (0, 1, 1) at once, so no power U_{2,j}^t, t >= 1, can
        # win: one division reads the remainder, the whole expansion takes 4
        f = parse_poly("X2^4 + X0*X1", 3)
        assert value_via_euclidean(f, SkpValuation(example1)) == gv(0, 1, 1)
        assert counts["divisions"] == 1

    @pytest.mark.parametrize(
        "generators, size, divisions, coefficients",
        [
            (doubling_chain(6), 210, 981, 305),
            (((8,), (12,), (26,), (53,)), 65, 197, 90),
            (((1, 0), (0, 1), (Fraction(1, 2), Fraction(3, 2))), 34, 0, 29),
            (doubling_chain(7), 330, 1733, 472),
        ],
    )
    def test_realized_attainment_work(self, counts, generators, size, divisions, coefficients):
        # every attainment product of a realized table values to its gamma;
        # the divisions and the coefficients valued on row 0 are pinned
        v, products = attainment_products(generators)
        assert len(products) == size
        for gamma, _, f in products:
            assert value_via_euclidean(f, v) == gamma
        assert counts == {"divisions": divisions, "coefficients": coefficients}

    @pytest.mark.parametrize("index, beta", [((1, 2), 0), ((0, 1), -2)])
    def test_nonpositive_beta_refused(self, diffskp, index, beta):
        # only a table built without validation can carry one; the gate
        # reads the betas from the table's chain
        table = nonpositive_beta_table(diffskp, index, beta)
        # a context holds the table: the gate trips on the first value call
        message = rf"^beta at \({index[0]}, {index[1]}\) is not positive$"
        for entry in VALUE_ENTRIES:
            with pytest.raises(ValueError, match=message):
                entry(P("X1"), SkpValuation(table))

    def test_entry_with_another_beta_refused(self, diffskp):
        # diffskp's entries under a chain whose beta at (0, 1) is -2: the
        # table would weigh by one beta and value by another
        betas = [gv(-2)] + [diffskp.entries[k].beta for k in diffskp.order[1:]]
        values = table_from_chain(analyze_chain(betas), diffskp.row_lengths())
        products = KeyProducts(diffskp.entries, diffskp.nvars, diffskp.field, diffskp.cutoff)
        with pytest.raises(ValueError, match=r"^the entry at \(0, 1\) has a beta other than"):
            SkpTable(values, products)


class TestContext:
    """One ``SkpValuation`` per table and cutoff vector: each object it
    derives is built once, on first use, and only when used."""

    def test_expansions_share_one_rule_set(self, diffskp, monkeypatch):
        built, lifted = [], []
        init, lift = expansion.RuleSet.__init__, expansion.RuleSet.__missing__

        def counted_init(rules, *args):
            built.append(args)
            init(rules, *args)

        def counted_lift(rules, exps):
            lifted.append(exps)
            return lift(rules, exps)

        monkeypatch.setattr(expansion.RuleSet, "__init__", counted_init)
        monkeypatch.setattr(expansion.RuleSet, "__missing__", counted_lift)
        v = SkpValuation(diffskp)
        f = P("(X0+X1)^6")
        first = adic_expand(f, v).to_json()
        assert (len(built), len(lifted)) == (1, len(f.terms))
        assert adic_expand(f, v).to_json() == first
        adic_expand(P("X0*X1^5 + 2*X1^6"), v)  # terms of f: their lifts are reused
        value_of(f, v)  # the value loop reads the same rule set
        assert (len(built), len(lifted)) == (1, len(f.terms))

    def test_each_context_derives_its_rules_once(self, diffskp, monkeypatch):
        # the constructor normalizes the vector and derives its rules; the
        # gate, the rule set and every entry reuse them
        calls = count_calls(monkeypatch, "rewrite_rules", "normalize_alpha")
        for alpha in (None, (1, 2)):
            v = SkpValuation(diffskp, alpha)
            for f in (P("(X0+X1)^6"), P("X1^2 - X0^3")):
                adic_expand(f, v)
                value_of(f, v)
                value_via_euclidean(f, v)
                graded_normal_form(f, v)
        assert calls == {"rewrite_rules": 2, "normalize_alpha": 2}

    def test_contexts_share_the_tables_euclidean_stores(self, diffskp_table, monkeypatch):
        # the steps, bounds and divisor splits are the table's: a second
        # context on it, with the top row cut, splits no divisor again
        split_divisor, calls = skp_module.split_divisor, []

        def counted(g, i, width):
            calls.append((str(g), i, width))
            return split_divisor(g, i, width)

        monkeypatch.setattr(skp_module, "split_divisor", counted)
        polys = [P("(X0+X1)^6"), P("X1^7 - 2*X0^4*X1 + X0"), P("X1^2*X0")]

        def run(*contexts):
            for v in contexts:
                for f in polys:
                    value_via_euclidean(f, v)
                    euclidean_expand(f, v)
                    euclidean_expand(f, top_cut(v.skp, 1))

        skp = build_skp(diffskp_table)
        full, cut = SkpValuation(skp), top_cut(skp, 2)
        run(full)
        after_full = len(calls)
        run(cut, full, cut)
        assert len(calls) == len(set(calls))
        assert sorted({w for _, _, w in calls}) == sorted(skp.splits)
        # on a table of its own the cut context splits what it shared here
        added, calls[:] = len(calls) - after_full, []
        run(top_cut(build_skp(diffskp_table), 2))
        assert len(calls) > added
        for v in (full, cut):
            assert not any(hasattr(v, a) for a in ("splits", "bounds", "steps", "divisor_splits"))

    def test_realize_leaves_the_value_rules_unbuilt(self):
        v = realize(SemigroupSpec([[4], [6], [13]])).valuation
        assert "rule_set" not in vars(v)
        assert value_of(parse_poly("X0", v.skp.nvars), v) == gv(4)
        assert "rule_set" in vars(v)


class TestRestriction:
    def test_lower_variable_polynomials(self, diffskp, example1):
        # the value of a polynomial in the lower variables is computed by
        # the sub-table alone
        rng = random.Random(19)
        for skp in (diffskp, example1):
            sub_rows = skp.rows[:-1]
            sub = build_skp(compute_relations(sub_rows))
            vfull = SkpValuation(skp)
            vsub = SkpValuation(sub)
            for _ in range(30):
                f = random_polynomial(rng, skp.nvars, 4, variables=list(range(skp.nvars - 1)))
                g = parse_poly(str(f) if str(f) != "0" else "1", sub.nvars)
                assert value_of(f, vfull) == value_of(g, vsub)

    def test_reduced_table_same_valuation(self, diffskp, example1):
        rng = random.Random(31)
        for skp in (diffskp, example1):
            reduced = minimal_pseudo_skp(skp)
            v1, v2 = SkpValuation(skp), SkpValuation(reduced)
            for _ in range(30):
                f = random_polynomial(rng, skp.nvars, 4)
                assert value_of(f, v1) == value_of(f, v2)


class TestMonotonicity:
    def test_cutoff_pairs(self, diffskp):
        rng = random.Random(11)
        alphas = [(1, 1), (1, 2), (1, 3)]
        vals = {a: SkpValuation(diffskp, a) for a in alphas}
        for _ in range(50):
            f = random_polynomial(rng, 2, 5)
            for a in alphas:
                for b in alphas:
                    if all(x <= y for x, y in zip(a, b)):
                        assert value_of(f, vals[a]) <= value_of(f, vals[b])


class TestInitialForm:
    def test_unique_min(self, vdiff):
        form = initial_form(P("X1^2"), vdiff)
        assert len(form) == 1
        assert form.monomials[0].key == (((0, 1), 3),)

    def test_variable(self, vdiff):
        form = initial_form(P("X0"), vdiff)
        assert form.monomials[0].key == (((0, 1), 1),)

    def test_tie_keeps_both(self):
        skp = build_skp(compute_relations([[2], [3]]))
        v = SkpValuation(skp)
        form = initial_form(P("X1^2 - 5*X0^3"), v)
        assert {m.key for m in form} == {
            (((1, 1), 2),),
            (((0, 1), 3),),
        }

    def test_single_monomial_keeps_top_final_exponent(self, diffskp):
        # the initial form of one monomial is one monomial with the same
        # exponent at the top-row cutoff entry
        import itertools

        v = SkpValuation(diffskp)
        for e11, e12, e13, e01 in itertools.product(range(4), repeat=4):
            exps = {(1, 1): e11, (1, 2): e12, (1, 3): e13, (0, 1): e01}
            f = diffskp.monomial_poly(exps)
            if f.degree() == 0:
                continue
            form = initial_form(f, v)
            assert len(form) == 1
            assert dict(form.monomials[0].key).get((1, 3), 0) == e13


class TestDelta:
    def test_distinguished_entry(self, diffskp):
        assert delta_of(P("X1^2 - X0^3"), top_cut(diffskp, 2)) == 1

    def test_lower_variable(self, diffskp):
        assert delta_of(P("X0"), top_cut(diffskp, 2)) == 0

    def test_product_with_unit(self, diffskp):
        assert delta_of(P("(X1^2 - X0^3)^2 * X1"), top_cut(diffskp, 2)) == 2

    def test_additivity(self, diffskp, example2):
        rng = random.Random(17)
        for skp in (diffskp, example2):
            for j in range(1, skp.row_length(1) + 1):
                v = top_cut(skp, j)
                for _ in range(40):
                    f = random_polynomial(rng, 2, 4)
                    g = random_polynomial(rng, 2, 4)
                    assert delta_of(f * g, v) == delta_of(f, v) + delta_of(g, v)


class TestGradedNormalForm:
    def test_two_term_tie(self):
        skp = build_skp(compute_relations([[2], [3]]))
        v = SkpValuation(skp)
        nf = graded_normal_form(P("X1^2 - 5*X0^3"), v)
        assert nf.A == (1,)
        assert nf.J == {(0, 1): 3}
        assert nf.torus == {(1,): Fraction(1), (0,): Fraction(-5)}

    def test_plain_variable(self, vdiff):
        nf = graded_normal_form(P("X0"), vdiff)
        assert nf.J == {(0, 1): 1}
        assert list(nf.torus.values()) == [Fraction(1)]

    def test_power_extraction(self):
        skp = build_skp(compute_relations([[2], [3]]))
        v = SkpValuation(skp)
        nf = graded_normal_form(P("X1^5"), v)
        assert nf.J == {(0, 1): 6, (1, 1): 1}
        assert nf.torus == {(2,): Fraction(1)}

    def test_value_preserved_and_theta_tracked(self):
        skp = build_skp(compute_relations([[2], [3]]), thetas={(1, 1): 2})
        v = SkpValuation(skp)
        nf = graded_normal_form(P("X1^4"), v)
        # U11^4 = (2 X0^3 T)^2, so the torus coefficient carries theta^2
        assert nf.torus == {(2,): Fraction(4)}
        assert nf.value == gv(12)

    def test_unconstrained_row(self, free2):
        v = SkpValuation(free2)
        nf = graded_normal_form(parse_poly("X0^3*X1^2", 2), v)
        assert nf.A == ()
        assert nf.J == {(0, 1): 3, (1, 1): 2}


def top_cut_values(f, skp, cutoffs):
    """Values of f with row 0 in full (one entry) and row 1 cut at each
    cutoff."""
    return [value_of(f, SkpValuation(skp, (1, j))) for j in cutoffs]


class TestStabilization:
    def test_square_stable_from_start(self, example2):
        values = top_cut_values(parse_poly("X1^2", 2), example2, [1, 2])
        assert [v.coords[0] for v in values] == [1, 1]

    def test_key_poly_strictly_increases_then_stabilizes(self, example2):
        f = example2.entries[(1, 2)].poly  # X1^2 - X0
        values = top_cut_values(f, example2, [1, 2, 3])
        assert [str(v) for v in values] == ["1", "4/3", "4/3"]

    def test_lower_variable_constant(self, example2):
        values = top_cut_values(parse_poly("X0", 2), example2, [1, 2, 3])
        assert len(set(values)) == 1

    def test_nondecreasing_random(self, diffskp, example2):
        rng = random.Random(29)
        for skp in (diffskp, example2):
            cutoffs = list(range(1, skp.row_length(1) + 1))
            for _ in range(40):
                values = top_cut_values(random_polynomial(rng, 2, 5), skp, cutoffs)
                for a, b in zip(values, values[1:]):
                    assert a <= b


class TestPrimeField:
    def test_build_and_value_over_gf7(self):
        from skpval import GF

        F7 = GF(7)
        skp = build_skp(compute_relations([[2], [3, 9, 10]]), field=F7)
        assert skp.entries[(1, 2)].poly == parse_poly("X1^2 - X0^3", 2, F7)
        v = SkpValuation(skp)
        # values live in the rational group regardless of the scalar field
        assert value_of(parse_poly("X1^2", 2, F7), v) == gv(6)

    def test_characteristic_cancellation(self):
        from skpval import GF

        F3 = GF(3)
        skp = build_skp(compute_relations([[2], [3, 9, 10]]), field=F3)
        v = SkpValuation(skp)
        # 3*X0^3 vanishes mod 3, so only the later monomials survive
        f = parse_poly("X1^2 + 2*X0^3", 2, F3)
        assert value_of(f, v) == gv(9)

