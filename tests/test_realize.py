import random
import time
from fractions import Fraction
from math import inf

import pytest

from skpval import (
    CORRECTED,
    GroupValue,
    HypothesisViolatedError,
    InvalidTableError,
    LITERAL,
    GeneratorAnalysis,
    SemigroupSpec,
    rational_rank,
    realize,
    reindex,
    value_of,
    verify_realization,
)
from skpval import intlattice
from skpval.fields import GF, QQ
from skpval.poly import MultiPoly, parse_poly
from skpval.realize import random_polynomial

import oracles
from oracles import positive_chain, semigroup_member


def gv(*coords):
    return GroupValue(coords)


def spec(*gens, **kw):
    return SemigroupSpec([gv(*g) if isinstance(g, tuple) else gv(g) for g in gens], **kw)


class TestAnalyze:
    def test_three_numbers(self):
        a = GeneratorAnalysis(spec(4, 6, 13))
        assert a.ns == [inf, 2, 2]
        assert a.all_positive and a.all_increasing and a.all_minimal
        assert a.rational_rank == 1
        # 12 = 3*4 and 26 = 5*4 + 6 behind the positivity flags
        assert a.chain[1].relation == {0: 3}
        assert a.chain[2].relation == {0: 5, 1: 1}

    def test_free_pair(self):
        a = GeneratorAnalysis(spec((1, 0), (0, 1)))
        assert a.ns == [inf, inf]
        assert a.all_minimal and a.rational_rank == 2

    def test_minimality_failure(self):
        a = GeneratorAnalysis(spec((1, 0), (0, 1), (1, 1)))
        assert a.minimal == [True, True, False]
        assert not a.ok

    def test_increasing_failure(self):
        a = GeneratorAnalysis(spec(4, 6, 11))
        assert a.increasing == [True, False]

    def test_multiple_of_an_earlier_generator(self):
        # n = 1 and the relation 10 = 10*1 is nonnegative: it is the witness
        a = GeneratorAnalysis(spec(1, 10))
        assert a.minimal == [True, False]
        assert not a.ok

    def test_undecided_after_a_negative_relation(self):
        # 1 = -3*3 + 2*5 is outside <3, 5>; 7 = 7*1 is in <3, 5, 1>, but
        # its canonical form -1*3 + 2*5 cannot tell after that negative relation
        a = GeneratorAnalysis(spec(3, 5, 1, 7))
        assert a.minimal == [True, True, True, None]
        assert not a.ok

    @pytest.mark.parametrize("dim", [1, 2])
    def test_minimal_matches_exact_oracle(self, dim):
        rng = random.Random(30 + dim)
        decided = 0
        for _ in range(150):
            gens = positive_chain(rng, dim, rng.randint(1, 5))
            a = GeneratorAnalysis(SemigroupSpec(gens))
            for j, flag in enumerate(a.minimal):
                if flag is None:
                    assert not all(a.positive[:j])
                    continue
                decided += 1
                assert flag == (not semigroup_member(gens[j], gens[:j]))
        assert decided >= 300

    def test_doubling_chain(self):
        # gamma_1 = 1, gamma_{k+1} = 2 gamma_k + 2^-k, twelve generators
        gens = [gv(1)]
        for k in range(1, 12):
            gens.append(gens[-1].scale(2) + gv(Fraction(1, 2 ** k)))
        start = time.perf_counter()
        a = GeneratorAnalysis(SemigroupSpec(gens))
        assert time.perf_counter() - start < 0.5
        assert a.ns == [inf] + [2] * 11
        assert a.minimal == [True] * 12
        assert a.ok


class TestReindex:
    def test_literal_single_block(self):
        res = reindex(spec(4, 6, 13), LITERAL)
        assert res.blocks.to_json()["blocks"] == [[1, 2, 3]]
        assert res.table.rows[0] == []
        bad = res.validation.failures_of("interior-finite")
        assert [c.index for c in bad] == [(1, 1)]

    def test_corrected_splits_after_independent(self):
        res = reindex(spec(4, 6, 13), CORRECTED)
        assert res.blocks.to_json()["blocks"] == [[1], [2, 3]]
        assert [[v.coords[0] for v in row] for row in res.table.rows] == [[4], [6, 13]]
        assert res.validation.is_sequence_of_values

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="^unknown mode 'lazy'$"):
            reindex(spec(4, 6, 13), "lazy")

    def test_free_pair_both_modes(self):
        for mode in (LITERAL, CORRECTED):
            res = reindex(spec((1, 0), (0, 1)), mode)
            assert len(res.blocks.blocks) == 2
            assert res.validation.is_sequence_of_values

    def test_corrected_infinite_only_block_final(self):
        # structural invariant of the corrected mode
        for gens in [(4, 6, 13), ((1, 0), (0, 1)), ((2, 0), (3, 0), (0, 1))]:
            res = reindex(spec(*gens), CORRECTED)
            ns = GeneratorAnalysis(spec(*gens)).ns
            for block in res.blocks.blocks:
                for p in block[:-1]:
                    assert ns[p] != inf


class TestRealize:
    def test_three_numbers_corrected(self):
        result = realize(spec(4, 6, 13), CORRECTED)
        v = result.valuation
        assert value_of(parse_poly("X0", 2), v) == gv(4)
        assert value_of(parse_poly("X1", 2), v) == gv(6)
        assert value_of(v.skp.entries[(1, 2)].poly, v) == gv(13)
        assert result.report["num_vars"] == 2
        # two variables carry a rational-rank-one semigroup, so the
        # equality case backing zero-dimensionality does not apply
        assert result.report["r_rk"] == 1
        assert result.report["tr_deg"] == 1
        assert not result.report["abhyankar_equality"]

    def test_free_pair_monomial_valuation(self):
        result = realize(spec((1, 0), (0, 1)), CORRECTED)
        v = result.valuation
        f = parse_poly("X0^3*X1^2", 2)
        assert value_of(f, v) == gv(3, 2)
        assert result.report["abhyankar_equality"]
        assert result.report["zero_dimensional_backed"]

    def test_literal_rejection_pinpoints_entry(self):
        for gens in [(2, 3), (4, 6, 13)]:
            with pytest.raises(InvalidTableError) as exc:
                realize(spec(*gens), LITERAL)
            bad = exc.value.report.failures_of("interior-finite")
            assert [c.index for c in bad] == [(1, 1)]

    def test_corrupted_values_rejected_before_verification(self):
        with pytest.raises(InvalidTableError) as exc:
            realize(spec(4, 6, 11), CORRECTED)
        assert exc.value.report.failures_of("increasing")

    def test_rational_rank_preserved(self):
        for gens in [(4, 6, 13), ((1, 0), (0, 1)), (2, 3)]:
            result = realize(spec(*gens), CORRECTED)
            values = [result.valuation.skp.entries[k].beta
                      for k in result.valuation.skp.order]
            assert rational_rank(values) == rational_rank(list(spec(*gens).generators))


class TestVerify:
    def test_three_numbers(self):
        s = spec(4, 6, 13)
        result = realize(s, CORRECTED)
        verdict = verify_realization(
            result.valuation, s, result.blocks, coeff_bound=3, degree_bound=6,
            samples=60, seed=5,
        )
        assert verdict.passed
        attained = {g.coords[0] for g, _, _ in verdict.attainment}
        assert attained == {
            0, 4, 6, 8, 10, 12, 13, 14, 16, 17, 18, 19, 21, 23, 25, 26, 30, 32, 39,
        }

    def test_free_pair(self):
        s = spec((1, 0), (0, 1))
        result = realize(s, CORRECTED)
        verdict = verify_realization(
            result.valuation, s, result.blocks, coeff_bound=2, degree_bound=5,
            samples=40, seed=1,
        )
        assert verdict.passed

    def test_literal_free_pair(self):
        s = spec((1, 0), (0, 1))
        result = realize(s, LITERAL)
        verdict = verify_realization(
            result.valuation, s, result.blocks, coeff_bound=2, degree_bound=5,
            samples=40, seed=2,
        )
        assert verdict.passed

    def test_echelon_count_does_not_grow_with_samples(self, monkeypatch):
        s = spec(4, 6, 13)
        result = realize(s, CORRECTED)
        row_echelon = intlattice.row_echelon

        def calls(samples):
            count = [0]

            def counting(rows):
                count[0] += 1
                return row_echelon(rows)

            monkeypatch.setattr(intlattice, "row_echelon", counting)
            verify_realization(result.valuation, s, result.blocks, samples=samples)
            return count[0]

        assert calls(20) == calls(200)

    def test_one_lattice_per_spec(self, monkeypatch):
        # the table keeps the spec's one analysis, and verification reads
        # it instead of echeloning the generators again
        s = spec(4, 6, 13)
        result = realize(s, CORRECTED)
        assert result.valuation.skp.chain is s.chain
        assert result.analysis.chain is s.chain
        count = [0]
        row_echelon = intlattice.row_echelon

        def counting(rows):
            count[0] += 1
            return row_echelon(rows)

        monkeypatch.setattr(intlattice, "row_echelon", counting)
        verify_realization(result.valuation, s, result.blocks, samples=20)
        assert count == [0]

    @pytest.mark.parametrize(
        "gens, labels",
        [((4, 6, 13), ()), (((1, 0), (0, 1), (Fraction(1, 2), Fraction(3, 2))), (3,))],
        ids=["4,6,13", "limit-label-cutoff"],
    )
    def test_witness_products_are_the_monomial_products(self, gens, labels):
        # each product is built from a smaller one by one factor; it must be
        # the product multiplied out by powers and truncated once
        s = spec(*gens, limit_labels=labels)
        result = realize(s, CORRECTED)
        skp = result.valuation.skp
        assert (skp.cutoff is not None) == bool(labels)
        verdict = verify_realization(result.valuation, s, result.blocks, samples=0)
        assert len(verdict.attainment) > 20
        for _, witness, poly in verdict.attainment:
            key = [(result.blocks.table_index(p), a) for p, a in enumerate(witness) if a]
            assert poly == str(oracles.multiplied_out(skp.entries, key, skp.cutoff))

    def test_one_multiplication_per_stored_product(self, monkeypatch):
        s = spec(4, 6, 13)
        result = realize(s, CORRECTED)
        built = set(result.valuation.skp.products)
        calls = [0]
        mul = MultiPoly.__mul__

        def counting(self, other):
            calls[0] += 1
            return mul(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        verdict = verify_realization(result.valuation, s, result.blocks, samples=0)
        # the table's store gains every witness of the ball and each one it
        # is built from, the witness with its last nonzero coefficient
        # lowered by one, down to a product the build stored
        index = result.blocks.table_index
        stored, reused = set(), set()
        for _, witness, _ in verdict.attainment:
            w = list(witness)
            while any(w) and tuple(w) not in stored | reused:
                key = tuple((index(p), a) for p, a in enumerate(w) if a)
                if key in built:
                    reused.add(tuple(w))
                    break
                stored.add(tuple(w))
                w[max(p for p, a in enumerate(w) if a)] -= 1
        assert set(result.valuation.skp.products) - built == {
            tuple((index(p), a) for p, a in enumerate(w) if a) for w in stored
        }
        assert (len(stored), len(reused)) == (25, 5)
        assert calls == [len(stored)]

    def test_ball_deeper_than_the_recursion_limit(self):
        s = spec(1)
        result = realize(s, CORRECTED)
        verdict = verify_realization(
            result.valuation, s, result.blocks, coeff_bound=1500, samples=0
        )
        assert verdict.passed
        assert len(verdict.attainment) == 1501
        assert verdict.attainment[-1][2] == "X0^1500"

    def test_negative_relation_refused(self):
        # (5, 3, 2) generates the semigroup of (2, 3), but 2 = -2*5 + 4*3 is a
        # negative relation, over which membership cannot be read
        result = realize(spec(2, 3), CORRECTED)
        with pytest.raises(HypothesisViolatedError, match="generator 3 "):
            verify_realization(
                result.valuation, spec(5, 3, 2), result.blocks,
                coeff_bound=0, samples=20,
            )


class TestVerificationFailure:
    def test_offending_element_reported(self):
        from skpval import VerificationFailedError

        built = spec(4, 6)
        result = realize(built, CORRECTED)
        wrong = spec(4, 5)
        with pytest.raises(VerificationFailedError) as exc:
            verify_realization(
                result.valuation, wrong, result.blocks,
                coeff_bound=2, degree_bound=4, samples=10, seed=3,
            )
        assert exc.value.offending is not None

    def test_sample_outside_the_semigroup(self):
        from skpval import VerificationFailedError

        # the valuation of (2, 3) takes the value 3, which is not in <2, 5>;
        # with an attainment ball of {0} only the containment check sees it
        result = realize(spec(2, 3), CORRECTED)
        wrong = spec(2, 5)
        with pytest.raises(VerificationFailedError) as exc:
            verify_realization(
                result.valuation, wrong, result.blocks,
                coeff_bound=0, degree_bound=4, samples=40, seed=3,
            )
        assert "is not in the semigroup" in str(exc.value)
        assert not semigroup_member(exc.value.offending, wrong.generators)

    @staticmethod
    def _failure(built, checked, **bounds):
        from skpval import VerificationFailedError

        result = realize(built, CORRECTED)
        with pytest.raises(VerificationFailedError) as exc:
            verify_realization(result.valuation, checked, result.blocks, **bounds)
        offending = exc.value.offending
        assert isinstance(offending, GroupValue)
        return offending, str(exc.value)

    def test_generator_not_the_tables(self):
        # 14 is first found as the third generator alone, whose key
        # polynomial has the value 13
        offending, message = self._failure(spec(4, 6, 13), spec(4, 6, 14))
        assert offending == gv(14)
        assert message == "witness for 14 evaluates to 13"

    def test_generator_off_the_table_grid(self):
        # 13/2 is no value of a table over the integers: it fails, and is
        # never rounded onto the grid
        offending, message = self._failure(spec(4, 6, 13), spec(4, 6, Fraction(13, 2)))
        assert offending == gv(Fraction(13, 2))
        assert message == "13/2 is off the table's value grid (denominator 1)"

    def test_rank_two_value_off_the_grid(self):
        offending, message = self._failure(
            spec((1, 0), (0, 1)), spec((1, 0), (0, Fraction(1, 3))), coeff_bound=2
        )
        assert offending == gv(0, Fraction(1, 3))
        assert "(0, 1/3)" in message

    def test_sample_offending_is_a_group_value(self):
        # a sample's value is kept as an integer vector until it fails
        offending, message = self._failure(
            spec(2, 3), spec(2, 5), coeff_bound=0, degree_bound=4, samples=40, seed=3
        )
        assert offending == gv(3)
        assert message.startswith("value 3 of ")


class TestBounds:
    """Verification bounds are nonnegative ints, in the spec and in the
    overrides of ``verify_realization``; anything else is a named
    ValueError, never an empty pass or a raw TypeError."""

    CASES = [
        ("coeff_bound", -1),
        ("samples", -3),
        ("samples", 2.5),
        ("degree_bound", -1),
        ("degree_bound", "8"),
        ("coeff_bound", True),
    ]

    @pytest.mark.parametrize("key, value", CASES)
    def test_spec_refuses(self, key, value):
        with pytest.raises(ValueError, match=key):
            spec(4, 6, 13, **{key: value})

    @pytest.mark.parametrize("key, value", CASES)
    def test_override_refuses(self, key, value):
        s = spec(4, 6, 13)
        result = realize(s, CORRECTED)
        with pytest.raises(ValueError, match=key):
            verify_realization(result.valuation, s, result.blocks, **{key: value})

    def test_zero_bounds_pass(self):
        s = spec(4, 6, 13, coeff_bound=0, degree_bound=0, samples=0)
        result = realize(s, CORRECTED)
        verdict = verify_realization(result.valuation, s, result.blocks)
        assert verdict.passed
        assert len(verdict.attainment) == 1 and verdict.containment_checked == 0

    @pytest.mark.parametrize("labels", [[2.7], [2.0], [True], ["2"]])
    def test_limit_label_that_is_no_int_refused(self, labels):
        with pytest.raises(ValueError, match="is not an int"):
            spec(4, 6, 13, limit_labels=labels)

    def test_repeated_limit_label_refused(self):
        with pytest.raises(ValueError, match="repeat a position"):
            spec(4, 6, 13, limit_labels=[3, 3])
        assert spec(4, 6, 13, limit_labels=[3, 2]).limit_labels == [2, 3]

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError, match="max_degree"):
            random_polynomial(random.Random(0), 2, -1)


class TestRandomPolynomial:
    def test_the_randint_stream(self):
        # the getrandbits draw must give randint's polynomials and leave the
        # generator where randint leaves it; GF(2) zeroes many coefficient
        # draws, so whole polynomials are redrawn
        fields = [QQ, GF(2), GF(3), GF(7)]
        draws = 0
        for seed in range(600):
            rng = random.Random(seed)
            ref = random.Random(seed)
            field = fields[seed % 4]
            for nvars in range(1, 5):
                for max_degree in range(11):
                    for variables in (None, list(range(0, nvars, 2))):
                        want = oracles.random_polynomial(ref, nvars, max_degree, field, variables)
                        got = random_polynomial(rng, nvars, max_degree, field, variables)
                        assert got == want, (seed, nvars, max_degree, variables)
                        draws += 1
            assert rng.random() == ref.random()
        assert draws >= 50_000
