"""Instance builders: determinism and the properties they advertise."""

import random
from fractions import Fraction

from realroots import (
    Rootedness,
    e_polynomial,
    interlaces,
    is_real_rooted,
    roots_in_interval,
    sp_build,
)
from realroots.generators import (
    all_labellings,
    all_posets_on,
    distinct_rationals,
    random_interlacing_pair,
    random_interval_rooted,
    random_labelled_poset,
    random_non_real_rooted,
    random_one_signed,
    random_partition,
    random_rational,
    random_real_rooted,
    random_sp_expression,
)


def test_determinism_from_seed():
    def draw(seed):
        rng = random.Random(seed)
        return (
            str(random_real_rooted(rng, 6)),
            str(random_labelled_poset(rng, 5).labels),
            random_sp_expression(rng, 5).to_dsl(),
            random_partition(rng, 6).parts,
        )

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)  # astronomically unlikely to collide


def test_random_rational_respects_bounds():
    rng = random.Random(0)
    for _ in range(300):
        v = random_rational(rng, Fraction(-3, 2), Fraction(5, 7))
        assert Fraction(-3, 2) <= v <= Fraction(5, 7)


def test_distinct_rationals_sorted_unique():
    rng = random.Random(1)
    vals = distinct_rationals(rng, 12, Fraction(0), Fraction(1))
    assert vals == sorted(set(vals)) and len(vals) == 12


def test_real_rooted_flavors():
    rng = random.Random(2)
    for _ in range(30):
        assert (
            is_real_rooted(random_real_rooted(rng, 6))
            is not Rootedness.NOT_REAL_ROOTED
        )
        assert (
            is_real_rooted(random_real_rooted(rng, 6, simple=True))
            is Rootedness.REAL_SIMPLE
        )
        f = random_real_rooted(rng, 6, avoid_zero_root=True)
        assert f(0) != 0
        assert random_real_rooted(rng, 6).is_standard


def test_one_signed_roots():
    rng = random.Random(3)
    for _ in range(30):
        g = random_one_signed(rng, 6)
        assert g(0) != 0
        from realroots import isolate_roots

        points = [
            loc.point if loc.is_exact else loc.lo for loc in isolate_roots(g)
        ]
        assert all(p > 0 for p in points) or all(p < 0 for p in points)


def test_interval_rooted():
    rng = random.Random(4)
    for _ in range(30):
        assert roots_in_interval(
            random_interval_rooted(rng, 6), Fraction(-1), Fraction(0)
        )
        assert roots_in_interval(
            random_interval_rooted(rng, 6, open_interval=True, simple=True),
            Fraction(-1),
            Fraction(0),
            closed=False,
        )


def test_non_real_rooted():
    rng = random.Random(5)
    for _ in range(30):
        assert (
            is_real_rooted(random_non_real_rooted(rng, 6))
            is Rootedness.NOT_REAL_ROOTED
        )


def test_interlacing_pairs():
    rng = random.Random(6)
    for _ in range(30):
        g, f = random_interlacing_pair(rng, 5)
        assert f.degree == g.degree + 1
        assert interlaces(g, f)
        g, f = random_interlacing_pair(rng, 5, strict=True)
        assert interlaces(g, f, strict=True)


def test_random_posets_are_valid_and_usable():
    rng = random.Random(8)
    sizes = set()
    for _ in range(40):
        p = random_labelled_poset(rng, 6)
        sizes.add(len(p))
        e_polynomial(p)  # construction validated the order; this must not raise
    assert len(sizes) > 2


def test_random_sp_expressions_have_requested_size():
    rng = random.Random(9)
    for n in range(1, 9):
        expr = random_sp_expression(rng, n)
        assert expr.size == n
        assert len(sp_build(expr)) == n


def test_random_partitions_bounded():
    rng = random.Random(10)
    for _ in range(50):
        lam = random_partition(rng, 8)
        assert 1 <= lam.size <= 8


def test_exhaustive_poset_counts():
    # partial orders on n labelled points: 1, 1, 3, 19, 219
    assert [sum(1 for _ in all_posets_on(n)) for n in range(5)] == [
        1,
        1,
        3,
        19,
        219,
    ]


def test_all_labellings_are_permutations():
    p = next(iter(all_posets_on(3)))
    seen = {tuple(sorted(q.labels.items())) for q in all_labellings(p)}
    assert len(seen) == 6
