"""Seeded random and exhaustive instance builders for the verification
suites and property tests.

Random real-rooted polynomials are built as products of linear factors with
rational roots, so every downstream check stays exact; nothing here does
root finding.  All functions take an explicit random.Random so runs are
reproducible from a seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

from .polynomial import Polynomial, from_roots
from .posets import LabelledPoset, SPExpression, LEAF
from .ferrers import Partition


def random_rational(
    rng: random.Random,
    lo: Fraction,
    hi: Fraction,
    max_den: int = 6,
) -> Fraction:
    """Uniform-ish rational in the closed interval [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, max_den)
    n_lo = -((-lo.numerator * den) // lo.denominator)  # ceil(lo * den)
    n_hi = (hi.numerator * den) // hi.denominator  # floor(hi * den)
    if n_lo > n_hi:
        return lo
    return Fraction(rng.randint(n_lo, n_hi), den)


def distinct_rationals(
    rng: random.Random,
    count: int,
    lo: Fraction,
    hi: Fraction,
    max_den: int = 6,
) -> list[Fraction]:
    """count distinct rationals in [lo, hi], sorted increasing."""
    got: set[Fraction] = set()
    attempts = 0
    while len(got) < count:
        got.add(random_rational(rng, lo, hi, max_den + attempts // 50))
        attempts += 1
    return sorted(got)


def random_lead(rng: random.Random, standard: bool = True) -> Fraction:
    c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    if not standard and rng.random() < 0.5:
        return -c
    return c


def random_real_rooted(
    rng: random.Random,
    max_deg: int,
    lo: Fraction = Fraction(-8),
    hi: Fraction = Fraction(8),
    simple: bool = False,
    standard: bool = True,
    min_deg: int = 1,
    avoid_zero_root: bool = False,
) -> Polynomial:
    """Product of linear factors with rational roots drawn from [lo, hi]."""
    deg = rng.randint(min_deg, max_deg)
    if simple:
        roots = distinct_rationals(rng, deg, lo, hi)
    else:
        pool = [random_rational(rng, lo, hi) for _ in range(deg)]
        for i in range(1, len(pool)):
            if rng.random() < 0.25:
                pool[i] = pool[i - 1]  # occasional multiple roots
        roots = pool
    if avoid_zero_root:
        roots = [r if r != 0 else Fraction(rng.choice([-1, 1]), rng.randint(1, 6)) for r in roots]
    return from_roots(roots, lead=random_lead(rng, standard))


def random_one_signed(
    rng: random.Random, max_deg: int, max_abs: Fraction = Fraction(8)
) -> Polynomial:
    """Real-rooted with all roots nonzero and of one sign."""
    sign = rng.choice([-1, 1])
    deg = rng.randint(1, max_deg)
    roots = [
        sign * abs(random_rational(rng, Fraction(1, 6), max_abs))
        for _ in range(deg)
    ]
    return from_roots(roots, lead=random_lead(rng))


def random_interval_rooted(
    rng: random.Random,
    max_deg: int,
    open_interval: bool = False,
    simple: bool = False,
    min_deg: int = 1,
) -> Polynomial:
    """Roots inside [-1, 0], or strictly inside (-1, 0) when open_interval."""
    lo = Fraction(-11, 12) if open_interval else Fraction(-1)
    hi = Fraction(-1, 12) if open_interval else Fraction(0)
    return random_real_rooted(
        rng, max_deg, lo=lo, hi=hi, simple=simple, min_deg=min_deg
    )


def random_interlacing_pair(
    rng: random.Random, max_deg: int, strict: bool = False
) -> tuple[Polynomial, Polynomial]:
    """(g, f) with deg f = deg g + 1 and g's roots separating f's.

    strict builds fully distinct, strictly interleaved roots; the weak
    variant allows shared roots and multiplicities.
    """
    d = rng.randint(1, max_deg)
    if strict:
        values = distinct_rationals(rng, 2 * d - 1, Fraction(-8), Fraction(8))
        f_roots = values[0::2]
        g_roots = values[1::2]
    else:
        f_roots = sorted(random_rational(rng, Fraction(-8), Fraction(8)) for _ in range(d))
        g_roots = []
        for a, b in zip(f_roots, f_roots[1:]):
            pick = rng.random()
            if pick < 0.3:
                g_roots.append(a)
            elif pick < 0.6:
                g_roots.append(b)
            else:
                g_roots.append(a + (b - a) * Fraction(rng.randint(0, 4), 4))
    f = from_roots(f_roots, lead=random_lead(rng))
    g = from_roots(g_roots, lead=random_lead(rng))
    return g, f


def random_non_real_rooted(rng: random.Random, max_deg: int) -> Polynomial:
    """Guaranteed to have a non-real conjugate pair: a positive-definite
    quadratic factor times a random real-rooted part."""
    b = random_rational(rng, Fraction(-3), Fraction(3))
    c = b * b / 4 + Fraction(rng.randint(1, 9), rng.randint(1, 3))
    quad = Polynomial([c, b, 1])
    rest_deg = rng.randint(0, max(0, max_deg - 2))
    if rest_deg:
        return quad * random_real_rooted(rng, rest_deg)
    return quad


def random_labelled_poset(rng: random.Random, max_n: int, min_n: int = 1) -> LabelledPoset:
    """Random order on v0..v{n-1} via a random comparability sprinkle closed
    under transitivity, with a random injective labelling."""
    n = rng.randint(min_n, max_n)
    less = [[False] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                less[perm[a]][perm[b]] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                for j in range(n):
                    if less[k][j]:
                        less[i][j] = True
    ids = [f"v{i}" for i in range(n)]
    covers = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(n)
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n))
    ]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return LabelledPoset(ids, covers, dict(zip(ids, labels)))


def random_sp_expression(rng: random.Random, n_elements: int) -> SPExpression:
    """Random construction tree with exactly n_elements leaves."""
    if n_elements <= 1:
        return LEAF
    left = rng.randint(1, n_elements - 1)
    op = rng.choice(["s0", "s1", "du"])
    return SPExpression(
        op,
        random_sp_expression(rng, left),
        random_sp_expression(rng, n_elements - left),
    )


def random_partition(rng: random.Random, max_size: int) -> Partition:
    n = rng.randint(1, max_size)
    parts = []
    cap = n
    while n > 0:
        part = rng.randint(1, min(cap, n))
        parts.append(part)
        cap = part
        n -= part
    return Partition(tuple(parts))


# -- exhaustive enumeration ----------------------------------------------------


def all_posets_on(n: int) -> Iterator[LabelledPoset]:
    """Every partial order on n named elements (unlabelled covers; the
    identity labelling), by filtering all strict relations for transitivity.

    Feasible only for small n; n = 4 yields 219 orders.
    """
    ids = [f"v{i}" for i in range(n)]
    if n == 0:
        yield LabelledPoset((), (), {})
        return
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product([False, True], repeat=len(pairs)):
        rel = set(p for p, c in zip(pairs, chosen) if c)
        if any((j, i) in rel for i, j in rel):
            continue
        if any(
            (i, k) in rel and (k, j) in rel and (i, j) not in rel
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        covers = [
            (ids[i], ids[j])
            for i, j in rel
            if not any((i, k) in rel and (k, j) in rel for k in range(n))
        ]
        yield LabelledPoset(ids, covers, {e: i + 1 for i, e in enumerate(ids)})


def all_labellings(p: LabelledPoset) -> Iterator[LabelledPoset]:
    """Every labelling with values 1..n; one representative per relative
    label order."""
    n = len(p)
    for perm in itertools.permutations(range(1, n + 1)):
        yield LabelledPoset(p.elements, p.covers, dict(zip(p.elements, perm)))
