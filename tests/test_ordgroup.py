import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from skpval import (
    DimensionMismatchError,
    GroupValue,
    NotInGroupError,
    canonical_representation,
    isolated_level,
    rational_rank,
    semigroup_witness,
    subgroup_index,
)
from skpval import intlattice
from skpval.ordgroup import analyze_chain

import oracles
from oracles import (
    positive_chain,
    representation_box_search,
    scan_subgroup_index,
    semigroup_member,
)


def gv(*coords):
    return GroupValue(coords)


class TestLexCompare:
    def test_first_coordinate_dominates(self):
        assert gv(1, 0, 0) > gv(0, 1, 0)
        assert gv(0, 5) < gv(1, 0)

    def test_equal(self):
        assert gv(2, 3) == gv(2, 3)
        assert not gv(2, 3) < gv(2, 3) and not gv(2, 3) > gv(2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gv(1) < gv(1, 2)

    @given(
        st.lists(st.fractions(max_denominator=20), min_size=3, max_size=3),
        st.lists(st.fractions(max_denominator=20), min_size=3, max_size=3),
        st.lists(st.fractions(max_denominator=20), min_size=3, max_size=3),
    )
    def test_total_order_compatible_with_addition(self, a, b, c):
        a, b, c = gv(*a), gv(*b), gv(*c)
        assert (a < b) == (b > a) and (a == b) == (b == a)
        assert sum([a < b, a == b, a > b]) == 1
        if a <= b and b <= c:
            assert a <= c
        if a < b:
            assert a + c < b + c


class TestCoordinates:
    """Every coordinate is exactly a Fraction, however the value was made."""

    class Half(Fraction):
        pass

    @pytest.mark.parametrize(
        "coords, want",
        [
            (3, (Fraction(3),)),
            ("-7/2", (Fraction(-7, 2),)),
            (Fraction(5, 3), (Fraction(5, 3),)),
            ((1, "2/3", Fraction(-1, 4)), (Fraction(1), Fraction(2, 3), Fraction(-1, 4))),
            ((True, Half(1, 2)), (Fraction(1), Fraction(1, 2))),
        ],
        ids=["int", "str", "Fraction", "mixed", "bool-and-subclass"],
    )
    def test_construction(self, coords, want):
        v = GroupValue(coords)
        assert v.coords == want
        assert all(type(c) is Fraction for c in v.coords)

    def test_arithmetic(self):
        a, b = gv(1, "1/2", Fraction(2, 3)), gv(-4, 0, "5/6")
        for v in (a + b, a - b, -a, a.scale(3), a.scale("2/5"), a.scale(Fraction(1, 7)), 2 * b):
            assert all(type(c) is Fraction for c in v.coords), v
        assert (a + b).coords == (Fraction(-3), Fraction(1, 2), Fraction(3, 2))
        assert a.scale("2/5").coords == (Fraction(2, 5), Fraction(1, 5), Fraction(4, 15))


class TestSubgroupIndex:
    def test_doubling(self):
        assert subgroup_index(gv(3), [gv(2)]) == 2

    def test_member(self):
        assert subgroup_index(gv(4), [gv(2)]) == 1

    def test_pair(self):
        # least r with 13r in 4Z + 6Z = 2Z
        assert subgroup_index(gv(13), [gv(4), gv(6)]) == 2

    def test_independent(self):
        assert subgroup_index(gv(0, 1), [gv(1, 0)]) == inf

    def test_empty_previous(self):
        assert subgroup_index(gv(5), []) == inf
        assert subgroup_index(gv(0), []) == 1

    def test_matches_bounded_scan(self):
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.choice([1, 2])
            prev = [
                gv(*[Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(dim)])
                for _ in range(rng.randint(0, 3))
            ]
            gamma = gv(*[Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(dim)])
            got = subgroup_index(gamma, prev)
            want = scan_subgroup_index(gamma, prev, rmax=50)
            if want == inf:
                assert got == inf or got > 50
            else:
                assert got == want

    def test_minimality_via_lattice(self):
        # r*gamma in the span, s*gamma not, for s < r
        from oracles import lattice_member

        gamma, prev = gv(13), [gv(4), gv(6)]
        r = subgroup_index(gamma, prev)
        assert lattice_member(gamma.scale(r), prev)
        for s in range(1, r):
            assert not lattice_member(gamma.scale(s), prev)


class TestCanonicalRepresentation:
    def test_nine_over_two_three(self):
        rep = canonical_representation(1, gv(9), [gv(2), gv(3)])
        assert rep == {0: 3, 1: 1}

    def test_two_thirteen_over_four_six(self):
        rep = canonical_representation(2, gv(13), [gv(4), gv(6)])
        assert rep == {0: 5, 1: 1}
        # frozen from the box-search oracle: the unique hit in the box
        hits = representation_box_search(2, gv(13), [gv(4), gv(6)], [inf, 2])
        assert hits == [(5, 1)]

    def test_zero_element(self):
        rep = canonical_representation(1, gv(0), [gv(2), gv(3)])
        assert rep == {}

    def test_not_in_group(self):
        with pytest.raises(NotInGroupError):
            canonical_representation(1, gv(0, 1), [gv(1, 0)])

    def test_off_the_denominator_grid(self):
        with pytest.raises(NotInGroupError):
            canonical_representation(1, gv(Fraction(1, 3)), [gv(Fraction(1, 2))])

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            canonical_representation(1, gv(5, 1), [gv(2), gv(3)])

    def test_evaluates_back(self):
        rng = random.Random(3)
        for _ in range(40):
            prev = [gv(rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
            chain = analyze_chain(prev)
            member = sum(
                (v.scale(rng.randint(0, 4)) for v in prev), start=gv(0)
            )
            if member == gv(0):
                continue
            n = subgroup_index(member, prev)
            assert n == 1
            rep = canonical_representation(1, member, prev)
            assert oracles.evaluate(rep, prev) == member

    def test_uniqueness_in_box(self):
        rng = random.Random(11)
        for _ in range(30):
            k = rng.randint(1, 4)
            prev = [gv(rng.randint(1, 12)) for _ in range(k)]
            chain = analyze_chain(prev)
            ns = [e.n for e in chain]
            coeffs = [rng.randint(0, 3) for _ in prev]
            member = sum(
                (v.scale(a) for v, a in zip(prev, coeffs)), start=gv(0)
            )
            if member == gv(0):
                continue
            rep = canonical_representation(1, member, prev)
            bound = max([12] + [abs(m) + 3 for m in rep.values()])
            hits = representation_box_search(1, member, prev, ns, int_bound=bound)
            assert len(hits) == 1
            want = {j: m for j, m in enumerate(hits[0]) if m}
            assert rep == want

    def test_reduction_bounds(self):
        # coefficients at finite-index positions stay inside [0, n)
        prev = [gv(2), gv(3), gv(9)]
        chain = analyze_chain(prev)
        rep = canonical_representation(1, gv(10), prev)
        for j, m in rep.items():
            n = chain[j].n
            if n != inf:
                assert 0 <= m < n


# families of dimension 1-3 with small rational entries, zeros and negatives
families = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=dim,
            max_size=dim,
        ).map(GroupValue),
        max_size=6,
    )
)


class TestChainAgainstReference:
    """One lattice step per position against the reference in oracles.py,
    which takes a left kernel and a second solve at every position."""

    @settings(max_examples=300, deadline=None)
    @given(families)
    def test_indices_relations_and_rational_rank(self, family):
        got = analyze_chain(family)
        want = oracles.analyze_chain(family)
        assert [(e.n, e.relation) for e in got] == [(e.n, e.relation) for e in want]
        for k in range(len(family) + 1):
            infinite = sum(1 for e in got[:k] if e.n == inf)
            assert infinite == rational_rank(family[:k])

    @settings(max_examples=150, deadline=None)
    @given(families.filter(bool), st.integers(1, 3))
    def test_single_position(self, family, multiple):
        *previous, gamma = family
        n = subgroup_index(gamma, previous)
        assert n == oracles.subgroup_index(gamma, previous)
        if n != inf:
            got = canonical_representation(multiple * n, gamma, previous)
            want = oracles.canonical_representation(multiple * n, gamma, previous)
            assert got == want


class TestSemigroupWitness:
    def test_gaps_of_four_ten_twenty_one(self):
        chain = analyze_chain([gv(4), gv(10), gv(21)])
        assert semigroup_witness(gv(23), chain) is None
        assert semigroup_witness(gv(27), chain) is None
        assert semigroup_witness(gv(25), chain) == (1, 0, 1)
        assert semigroup_witness(gv(0), chain) == (0, 0, 0)

    def test_outside_the_group(self):
        assert semigroup_witness(gv(5), analyze_chain([gv(4), gv(6)])) is None
        assert semigroup_witness(gv(0, 1), analyze_chain([gv(1, 0)])) is None

    def test_off_the_denominator_grid(self):
        chain = analyze_chain([gv(2), gv(3)])
        assert semigroup_witness(gv(Fraction(1, 2)), chain) is None

    def test_empty_chain(self):
        chain = analyze_chain([])
        assert semigroup_witness(gv(0), chain) == ()
        assert semigroup_witness(gv(5), chain) is None

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            semigroup_witness(gv(5, 1), analyze_chain([gv(2), gv(3)]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_exact_oracle(self, dim):
        # a witness always sums to gamma; with nonnegative relations it
        # exists exactly for the members
        rng = random.Random(20 + dim)
        exact = 0
        for _ in range(40):
            gens = positive_chain(rng, dim, rng.randint(1, 5))
            chain = analyze_chain(gens)
            nonnegative = all(m > 0 for e in chain for m in e.relation.values())
            exact += nonnegative
            for _ in range(30):
                if dim == 1:
                    gamma = gv(Fraction(rng.randint(0, 40), rng.choice((1, 2, 3))))
                else:
                    second = Fraction(rng.randint(-6, 8), rng.choice((1, 2)))
                    gamma = gv(rng.randint(0, 3), second)
                witness = semigroup_witness(gamma, chain)
                if witness is not None:
                    assert min(witness) >= 0
                    total = sum((g.scale(m) for g, m in zip(gens, witness)), gv(*[0] * dim))
                    assert total == gamma
                if nonnegative:
                    assert (witness is not None) == semigroup_member(gamma, gens)
        assert exact >= 10


class TestEchelonCount:
    """The chain is echeloned a fixed number of times, whatever its length,
    and values are solved against the stored echelon."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        row_echelon = intlattice.row_echelon

        def counting(rows):
            count[0] += 1
            return row_echelon(rows)

        monkeypatch.setattr(intlattice, "row_echelon", counting)
        return count

    def test_doubling_chain(self, calls):
        # gamma_1 = 1, gamma_{k+1} = 2 gamma_k + 2^-k, twelve generators
        gens = [gv(1)]
        for k in range(1, 12):
            gens.append(gens[-1].scale(2) + gv(Fraction(1, 2 ** k)))
        chain = analyze_chain(gens)
        assert calls[0] <= 2
        assert [e.n for e in chain] == [inf] + [2] * 11

    def test_doubling_chain_transform_stays_small(self):
        # sixty generators: unfolded, the kept transform rows reach 1056 digits
        gens = [gv(1)]
        for k in range(1, 60):
            gens.append(gens[-1].scale(2) + gv(Fraction(1, 2 ** k)))
        chain = analyze_chain(gens)
        for _, h, u in chain.basis:
            assert max(len(str(abs(a))) for a in u) < 40
            total = [sum(a * row[c] for a, row in zip(u, chain.rows)) for c in range(len(h))]
            assert total == list(h)
        rng = random.Random(11)
        for _ in range(20):
            coeffs = {j: rng.randint(0, 3) for j in rng.sample(range(60), 5)}
            target = oracles.evaluate(coeffs, gens)
            witness = semigroup_witness(target, chain)
            assert witness is not None
            assert oracles.evaluate(dict(enumerate(witness)), gens) == target

    def test_witness_makes_no_echelon(self, calls):
        chain = analyze_chain([gv(4), gv(10), gv(21)])
        before = calls[0]
        for k in range(60):
            semigroup_witness(gv(k), chain)
        assert calls[0] == before


class TestRationalRank:
    def test_standard_basis(self):
        assert rational_rank([gv(1, 0), gv(0, 1)]) == 2

    def test_all_dependent(self):
        assert rational_rank([gv(4), gv(6), gv(13)]) == 1

    def test_empty(self):
        assert rational_rank([]) == 0


class TestIsolatedLevel:
    @pytest.mark.parametrize(
        "coords,level",
        [((0, 0, 1), 1), ((0, 2, 5), 2), ((1, 0, 0), 3), ((0, 0, 0), 0)],
    )
    def test_levels(self, coords, level):
        assert isolated_level(gv(*coords)) == level
