"""Labelled posets, layer-count polynomials, and the construction DSL."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realroots import (
    EMPTY_POSET,
    ElementNotFoundError,
    InputFormatError,
    LabelledPoset,
    OutOfRangeError,
    Partition,
    Polynomial,
    SPExpression,
    count_surjective_partitions,
    delete_element,
    diamond,
    disjoint_union,
    e_inverse,
    e_operator,
    e_polynomial,
    ferrers_e_poly,
    ferrers_poset,
    order_polynomial,
    ordinal_sum,
    parse_sp,
    poset_from_json_dict,
    poset_to_json_dict,
    relabel,
    singleton,
    sp_build,
)
from realroots.generators import (
    all_labellings,
    random_labelled_poset,
    random_sp_expression,
)
from realroots.posets import LEAF


def P(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


def chain2_natural() -> LabelledPoset:
    return LabelledPoset(["a", "b"], [("a", "b")], {"a": 1, "b": 2})


def chain2_reversed() -> LabelledPoset:
    return LabelledPoset(["a", "b"], [("a", "b")], {"a": 2, "b": 1})


def antichain2() -> LabelledPoset:
    return LabelledPoset(["a", "b"], [], {"a": 1, "b": 2})


class TestConstruction:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(InputFormatError):
            LabelledPoset(["a", "a"], [], {"a": 1})

    def test_unknown_cover_rejected(self):
        with pytest.raises(InputFormatError):
            LabelledPoset(["a"], [("a", "b")], {"a": 1})

    def test_cycle_rejected(self):
        with pytest.raises(InputFormatError):
            LabelledPoset(
                ["a", "b"], [("a", "b"), ("b", "a")], {"a": 1, "b": 2}
            )

    def test_labels_must_cover_exactly(self):
        with pytest.raises(InputFormatError):
            LabelledPoset(["a"], [], {})
        with pytest.raises(InputFormatError):
            LabelledPoset(["a"], [], {"a": 1, "b": 2})

    def test_labels_must_be_injective(self):
        with pytest.raises(InputFormatError):
            LabelledPoset(["a", "b"], [], {"a": 1, "b": 1})

    def test_covers_must_be_a_reduction(self):
        with pytest.raises(InputFormatError):
            LabelledPoset(
                ["a", "b", "c"],
                [("a", "b"), ("b", "c"), ("a", "c")],
                {"a": 1, "b": 2, "c": 3},
            )

    def test_order_queries(self):
        p = chain2_natural()
        assert p.less("a", "b") and not p.less("b", "a")
        assert p.minimal_elements() == ("a",)
        assert p.maximal_elements() == ("b",)


class TestCombination:
    def test_stack_label_low_variant(self):
        p = ordinal_sum(singleton(), singleton(), 1)
        (bottom,) = p.minimal_elements()
        (top,) = p.maximal_elements()
        assert p.less(bottom, top)
        assert p.label(top) < p.label(bottom)

    def test_stack_label_high_variant(self):
        p = ordinal_sum(singleton(), singleton(), 0)
        (bottom,) = p.minimal_elements()
        (top,) = p.maximal_elements()
        assert p.label(bottom) < p.label(top)

    def test_stack_with_empty_is_identity_up_to_labels(self):
        p = chain2_natural()
        assert ordinal_sum(p, EMPTY_POSET, 0) == p
        assert ordinal_sum(EMPTY_POSET, p, 1) == p

    def test_bad_variant(self):
        with pytest.raises(OutOfRangeError):
            ordinal_sum(singleton(), singleton(), 2)

    def test_side_by_side(self):
        p = disjoint_union(singleton(), singleton())
        assert len(p) == 2 and not p.covers

    def test_side_by_side_with_empty(self):
        p = antichain2()
        assert disjoint_union(p, EMPTY_POSET) == p

    def test_chain_plus_point(self):
        p = disjoint_union(chain2_natural(), singleton())
        assert len(p) == 3 and len(p.covers) == 1


class TestDeletion:
    def test_middle_of_three_chain(self):
        p = LabelledPoset(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c")],
            {"a": 1, "b": 2, "c": 3},
        )
        q = delete_element(p, "b")
        assert q.covers == (("a", "c"),)

    def test_isolated_point(self):
        p = disjoint_union(chain2_natural(), singleton())
        isolated = [
            x
            for x in p.elements
            if all(x not in cover for cover in p.covers)
        ]
        q = delete_element(p, isolated[0])
        assert len(q) == 2 and len(q.covers) == 1

    def test_top_of_chain(self):
        q = delete_element(chain2_natural(), "b")
        assert len(q) == 1 and not q.covers

    def test_missing_element(self):
        with pytest.raises(ElementNotFoundError):
            delete_element(chain2_natural(), "zz")


class TestLayerCounts:
    def test_antichain_counts(self):
        p = antichain2()
        assert count_surjective_partitions(p, 1) == 1
        assert count_surjective_partitions(p, 2) == 2

    def test_natural_chain_counts(self):
        assert count_surjective_partitions(chain2_natural(), 2) == 1

    def test_reversed_chain_needs_strict_drop(self):
        assert count_surjective_partitions(chain2_reversed(), 1) == 0
        assert count_surjective_partitions(chain2_reversed(), 2) == 1

    def test_k_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            count_surjective_partitions(singleton(), 0)
        with pytest.raises(OutOfRangeError):
            count_surjective_partitions(singleton(), 2)

    def test_polynomials(self):
        assert e_polynomial(singleton()) == P(0, 1)
        assert e_polynomial(antichain2()) == P(0, 1, 2)
        assert e_polynomial(chain2_natural()) == P(0, 1, 1)
        assert e_polynomial(chain2_reversed()) == P(0, 0, 1)
        assert e_polynomial(EMPTY_POSET) == P(1)

    def test_order_polynomials(self):
        assert order_polynomial(antichain2()) == P(0, 0, 1)
        assert order_polynomial(chain2_natural()) == P(0, Fraction(1, 2), Fraction(1, 2))
        assert order_polynomial(EMPTY_POSET) == P(1)

    def test_order_polynomial_counts_bounded_maps(self):
        rng = random.Random(9)
        for _ in range(12):
            p = random_labelled_poset(rng, 5)
            omega = order_polynomial(p)
            for m in range(0, 4):
                total = sum(
                    count_surjective_partitions(p, k)
                    * _binomial(m, k)
                    for k in range(1, len(p) + 1)
                )
                assert omega(m) == total

    def test_dp_matches_enumeration(self):
        rng = random.Random(10)
        n_poset = LabelledPoset(
            "abcd", [("a", "c"), ("b", "c"), ("b", "d")], {"a": 1, "b": 2, "c": 3, "d": 4}
        )
        enumerated = [random_labelled_poset(rng, 7) for _ in range(25)]
        enumerated += list(all_labellings(n_poset))
        for p in enumerated:
            e = e_polynomial(p)
            for k in range(1, len(p) + 1):
                assert e.coefficient(k) == count_surjective_partitions(p, k)
        # antichains fill the packed descent slots most: E counts surjections
        for n in range(1, 9):
            antichain = LabelledPoset(
                [f"a{i}" for i in range(n)], [], {f"a{i}": i for i in range(n)}
            )
            surjections = [_surjections(n, k) for k in range(1, n + 1)]
            assert e_polynomial(antichain) == P(0, *surjections)
        chain = [f"c{i}" for i in range(22)]
        covers = list(zip(chain, chain[1:]))
        natural = LabelledPoset(chain, covers, {c: i for i, c in enumerate(chain)})
        reversed_ = relabel(natural, {c: -i for i, c in enumerate(chain)})
        assert e_polynomial(natural) == P(0, 1) * P(1, 1) ** 21
        assert e_polynomial(reversed_) == P(0, 1) ** 22
        for shape in [(6, 5, 4, 3, 2, 1), (10, 8, 6, 4, 2), (8, 7, 6, 5, 4, 3, 2, 1)]:
            lam = Partition(shape)
            assert e_polynomial(ferrers_poset(lam)) == ferrers_e_poly(lam)

    def test_relabelling_by_order_isomorphism_preserves_counts(self):
        p = chain2_natural()
        q = relabel(p, {"a": 5, "b": 9})
        # counts only depend on relative label order
        assert count_surjective_partitions(q, 2) == 1


def _binomial(m: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (m - i) // (i + 1)
    return out


def _surjections(n: int, k: int) -> int:
    """k! S(n, k) by inclusion-exclusion over the missed values."""
    return sum((-1) ** j * _binomial(k, j) * (k - j) ** n for j in range(k + 1))


class TestBasisChange:
    def test_monomial_image(self):
        assert e_operator(P(0, 0, 1)) == P(0, 1, 2)

    def test_inverse_pair(self):
        rng = random.Random(12)
        polys = [Polynomial()] + [
            Polynomial(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1))
            for deg in range(13)
            for _ in range(3)
        ]
        for f in polys:
            assert e_operator(e_inverse(f)) == f
            assert e_inverse(e_operator(f)) == f

    def test_connects_the_two_polynomials(self):
        rng = random.Random(13)
        for _ in range(15):
            p = random_labelled_poset(rng, 6)
            assert e_operator(order_polynomial(p)) == e_polynomial(p)


class TestIdentities:
    def test_stack_product_identity(self):
        rng = random.Random(14)
        x, x1 = P(0, 1), P(1, 1)
        for _ in range(15):
            p = random_labelled_poset(rng, 5)
            q = random_labelled_poset(rng, 5)
            assert e_polynomial(ordinal_sum(p, q, 1)) == e_polynomial(p) * e_polynomial(q)
            assert x * e_polynomial(ordinal_sum(p, q, 0)) == x1 * e_polynomial(
                p
            ) * e_polynomial(q)

    def test_side_by_side_diamond_identity(self):
        rng = random.Random(15)
        for _ in range(15):
            p = random_labelled_poset(rng, 5)
            q = random_labelled_poset(rng, 5)
            assert e_polynomial(disjoint_union(p, q)) == diamond(
                e_polynomial(p), e_polynomial(q)
            )
            assert order_polynomial(disjoint_union(p, q)) == order_polynomial(
                p
            ) * order_polynomial(q)


class TestDSL:
    def test_leaf(self):
        assert parse_sp("L") == LEAF

    def test_nested(self):
        expr = parse_sp("s0(L,du(L,s1(L,L)))")
        assert expr.kind == "s0"
        assert expr.size == 4
        assert expr.to_dsl() == "s0(L,du(L,s1(L,L)))"

    def test_whitespace_tolerated(self):
        assert parse_sp(" du( L , L ) ") == SPExpression("du", LEAF, LEAF)

    def test_malformed_reports_position(self):
        with pytest.raises(InputFormatError, match="position"):
            parse_sp("s0(L,L")
        with pytest.raises(InputFormatError, match="position"):
            parse_sp("sx(L,L)")
        with pytest.raises(InputFormatError, match="position"):
            parse_sp("L)")

    def test_build_examples(self):
        built_du = sp_build(SPExpression("du", LEAF, LEAF))
        assert len(built_du) == 2 and not built_du.covers
        assert e_polynomial(built_du) == P(0, 1, 2)
        built_s1 = sp_build(SPExpression("s1", LEAF, LEAF))
        assert e_polynomial(built_s1) == P(0, 0, 1)
        built_s0 = sp_build(SPExpression("s0", LEAF, LEAF))
        assert e_polynomial(built_s0) == P(0, 1, 1)

    def test_roundtrip_random(self):
        rng = random.Random(16)
        for _ in range(20):
            expr = random_sp_expression(rng, rng.randint(1, 7))
            assert parse_sp(expr.to_dsl()) == expr


class TestJSON:
    def test_roundtrip(self):
        p = disjoint_union(chain2_natural(), singleton())
        data = poset_to_json_dict(p)
        assert poset_from_json_dict(json.loads(json.dumps(data))) == p

    def test_example_document(self):
        p = poset_from_json_dict(
            {
                "elements": ["a", "b"],
                "covers": [["a", "b"]],
                "labels": {"a": 1, "b": 2},
            }
        )
        assert p == chain2_natural()

    def test_malformed_documents(self):
        with pytest.raises(InputFormatError):
            poset_from_json_dict([])
        with pytest.raises(InputFormatError):
            poset_from_json_dict({"elements": ["a"]})
        with pytest.raises(InputFormatError):
            poset_from_json_dict(
                {
                    "elements": ["a", "b"],
                    "covers": [["a", "b"], ["b", "a"]],
                    "labels": {"a": 1, "b": 2},
                }
            )


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_deletion_interlacing_on_sp_posets(rng):
    from realroots import interlaces

    expr = random_sp_expression(rng, rng.randint(1, 6))
    p = sp_build(expr)
    big = e_polynomial(p)
    for x in p.elements:
        small = e_polynomial(delete_element(p, x))
        assert interlaces(small, big), (expr.to_dsl(), x)
