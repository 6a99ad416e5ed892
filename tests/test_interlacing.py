"""Interleaving relation decisions, cross-checked against an independent
exact-root oracle."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from realroots import (
    InterlaceVerdict,
    Polynomial,
    PreconditionFailedError,
    Relation,
    ZeroPolynomialError,
    alternates,
    chain_check,
    from_roots,
    interlaces,
    obreschkoff_probe,
)
from realroots import interlacing, roots
from realroots.generators import (
    random_interlacing_pair,
    random_non_real_rooted,
    random_rational,
    random_real_rooted,
    random_sp_expression,
)
from realroots.interlacing import _check_order, _Profile, merged_profile
from realroots.posets import delete_element, e_polynomial, sp_build
from realroots.roots import Rootedness, is_real_rooted

_X = sympy.Symbol("x")


def P(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


class TestAlternates:
    def test_shifted_quadratics_alternate_strictly(self):
        f = from_roots([0, 3])
        g = from_roots([1, 4])
        verdict = alternates(f, g)
        assert verdict.relation is Relation.STRICTLY_ALTERNATE
        assert not verdict.swapped

    def test_orientation_is_reported(self):
        f = from_roots([1, 4])
        g = from_roots([0, 3])
        verdict = alternates(f, g)
        assert verdict.relation is Relation.STRICTLY_ALTERNATE
        assert verdict.swapped

    def test_shared_root_weakens(self):
        f = from_roots([0, 2])
        g = from_roots([0, 3])
        verdict = alternates(f, g)
        assert verdict.relation is Relation.ALTERNATE
        assert not verdict.strict

    def test_nested_roots_fail(self):
        # roots -2 < -1 < 1 < 2 are nested, not interleaved; the combination
        # -3f + g = -2x^2 - 1 has no real root, which certifies the verdict
        verdict = alternates(P(-1, 0, 1), P(-4, 0, 1))
        assert verdict.relation is Relation.NONE
        assert verdict.witness is not None

    def test_degree_step_reports_interlacing(self):
        verdict = alternates(P(-1, 0, 1), P(0, 1))
        assert verdict.relation is Relation.STRICTLY_INTERLACES
        assert not verdict.swapped  # second argument interlaces the first

    def test_degree_step_swapped_orientation(self):
        verdict = alternates(P(0, 1), P(-1, 0, 1))
        assert verdict.relation is Relation.STRICTLY_INTERLACES
        assert verdict.swapped

    def test_degree_gap_of_two_fails(self):
        assert not alternates(P(0, 0, 0, 1) + P(0, -1), P(1)).holds

    def test_non_real_rooted_fails(self):
        assert alternates(P(1, 0, 1), P(0, 1)).relation is Relation.NONE

    def test_equal_polynomials_alternate_weakly(self):
        f = from_roots([-2, 5])
        assert alternates(f, f).relation is Relation.ALTERNATE

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            alternates(Polynomial([]), P(0, 1))


class TestInterlaces:
    def test_weak_example(self):
        assert interlaces(P(0, 1), P(0, 1, 1))

    def test_shared_root_blocks_strict(self):
        assert not interlaces(P(0, 1), P(0, 1, 1), strict=True)

    def test_constant_below_linear(self):
        assert interlaces(P(1), P(0, 1))
        assert interlaces(P(1), P(0, 1), strict=True)

    def test_strictly_separated(self):
        assert interlaces(P(0, 1), P(-1, 0, 1), strict=True)

    def test_wrong_degree_direction(self):
        assert not interlaces(P(-1, 0, 1), P(0, 1))

    def test_multiplicity_blocks_strictness(self):
        f = from_roots([0, 0, 1])
        g = from_roots([0, Fraction(1, 2)])
        assert interlaces(g, f)
        assert not interlaces(g, f, strict=True)


class TestChain:
    def test_derivative_chain(self):
        assert chain_check([P(2), P(0, 2), P(-1, 0, 1)])

    def test_shared_root_breaks_chain(self):
        assert not chain_check([P(1), P(0, 1), P(0, 0, 1)])

    def test_single_entry_vacuous(self):
        assert chain_check([P(0, 1)])

    def test_rolle_chains(self):
        rng = random.Random(11)
        for _ in range(15):
            f = random_real_rooted(rng, 5, simple=True)
            tower = [f]
            while tower[-1].degree > 0:
                tower.append(tower[-1].derivative())
            assert chain_check(list(reversed(tower)))


class TestProbe:
    def test_symmetric_pair_passes(self):
        report = obreschkoff_probe(P(-1, 0, 1), P(0, 1), samples=50, rng_seed=0)
        assert report.passed and report.strict
        assert report.samples_run == 50

    def test_scaled_copies_pass_weakly(self):
        f = P(1, 1)
        report = obreschkoff_probe(f, f * 3, samples=30, rng_seed=1)
        assert report.passed and not report.strict
        assert report.samples_run == 30

    def test_non_alternating_rejected(self):
        with pytest.raises(PreconditionFailedError):
            obreschkoff_probe(P(1, 0, 1), P(0, 1), samples=5, rng_seed=0)

    def test_deterministic_given_seed(self):
        f, g = P(-1, 0, 1), P(0, 1)
        a = obreschkoff_probe(f, g, samples=25, rng_seed=7)
        b = obreschkoff_probe(f, g, samples=25, rng_seed=7)
        assert a == b


class TestMergedProfile:
    def test_shared_roots_detected_exactly(self):
        f = from_roots([0, 1, Fraction(5, 3)])
        g = from_roots([1, 2])
        profile = merged_profile(f, g)
        both = [
            i
            for i in range(len(profile.locations))
            if profile.mult_first[i] and profile.mult_second[i]
        ]
        assert len(both) == 1
        assert profile.locations[both[0]].point == 1

    def test_irrational_shared_root(self):
        base = P(-2, 0, 1)  # irreducible over the rationals
        f = base * from_roots([5])
        g = base * from_roots([-9])
        profile = merged_profile(f, g)
        shared = [
            loc
            for loc, mf, mg in zip(
                profile.locations, profile.mult_first, profile.mult_second
            )
            if mf and mg
        ]
        assert len(shared) == 2
        assert all(not loc.is_exact for loc in shared)


def _sympy_roots(f: Polynomial):
    poly = sympy.Poly(
        list(reversed([sympy.Rational(c) for c in f.coeffs])), _X
    )
    out = []
    for root, mult in sympy.roots(poly.as_expr(), _X, multiple=False).items():
        if sympy.im(root) != 0:
            return None
        out.extend([root] * mult)
    if len(out) != f.degree:
        return None  # roots() failed to certify everything; skip
    return sorted(out)


def _oracle_relation(f: Polynomial, g: Polynomial) -> Relation:
    fr, gr = _sympy_roots(f), _sympy_roots(g)
    if fr is None or gr is None:
        return Relation.NONE
    df, dg = len(fr), len(gr)

    def chain_ok(a, b, strict):
        # a has len(b) + 1 or len(b) entries; weave and compare
        pairs = list(zip(a, b)) + list(zip(b, a[1:]))
        if strict:
            return all(x < y for x, y in pairs)
        return all(x <= y for x, y in pairs)

    if df == dg:
        if chain_ok(fr, gr, True) or chain_ok(gr, fr, True):
            return Relation.STRICTLY_ALTERNATE
        if chain_ok(fr, gr, False) or chain_ok(gr, fr, False):
            return Relation.ALTERNATE
        return Relation.NONE
    if abs(df - dg) != 1:
        return Relation.NONE
    big, small = (fr, gr) if df > dg else (gr, fr)
    if chain_ok(big, small, True):
        return Relation.STRICTLY_INTERLACES
    if chain_ok(big, small, False):
        return Relation.INTERLACES
    return Relation.NONE


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_alternates_matches_oracle(rng):
    # biased generator: half arbitrary pairs, half genuinely interlacing
    if rng.random() < 0.5:
        f = random_real_rooted(rng, 4, lo=Fraction(-4), hi=Fraction(4))
        g = random_real_rooted(rng, 4, lo=Fraction(-4), hi=Fraction(4))
    else:
        g, f = random_interlacing_pair(rng, 4, strict=rng.random() < 0.5)
        if rng.random() < 0.5:
            f, g = g, f
    got = alternates(f, g).relation
    expected = _oracle_relation(f, g)
    assert got == expected, (f, g)


def test_alternate_chain_definition_on_equal_degrees():
    # exhaustive small integer-root quadruples: verdict matches the sorted
    # interleaving definition directly
    values = range(-2, 3)
    for a1 in values:
        for a2 in values:
            for b1 in values:
                for b2 in values:
                    f = from_roots([a1, a2])
                    g = from_roots([b1, b2])
                    fr, gr = sorted([a1, a2]), sorted([b1, b2])
                    weakly = (
                        fr[0] <= gr[0] <= fr[1] <= gr[1]
                        or gr[0] <= fr[0] <= gr[1] <= fr[1]
                    )
                    assert alternates(f, g).holds == weakly, (fr, gr)


# -- the remainder-sequence verdicts against the isolation path --------------


def _isolation_alternates(
    f: Polynomial, g: Polynomial, profile: _Profile
) -> InterlaceVerdict:
    """alternates decided by locating every root: the chain read on
    profile = merged_profile(f, g), in each orientation the degrees allow."""
    for which, p in (("first", f), ("second", g)):
        if is_real_rooted(p) is Rootedness.NOT_REAL_ROOTED:
            return InterlaceVerdict(Relation.NONE, reason=f"{which} input is not real-rooted")
    df, dg = int(f.degree), int(g.degree)
    if abs(df - dg) > 1:
        return InterlaceVerdict(Relation.NONE, reason="degrees differ by more than one")
    base = Relation.ALTERNATE if df == dg else Relation.INTERLACES
    for first_is_a in [True, False] if df == dg else [df > dg]:
        ok, witness, reason = _check_order(profile, first_is_a, strict=False)
        if ok:
            strict, _, _ = _check_order(profile, first_is_a, strict=True)
            relation = interlacing._STRICT_OF[base] if strict else base
            swapped = not first_is_a if df == dg else df < dg
            return InterlaceVerdict(relation, swapped=swapped)
    return InterlaceVerdict(
        Relation.NONE, witness=witness, reason=f"root ordering violated: {reason}"
    )


def _isolation_interlaces(
    g: Polynomial, f: Polynomial, strict: bool, profile: _Profile
) -> bool:
    if f.degree != g.degree + 1 or any(
        is_real_rooted(p) is Rootedness.NOT_REAL_ROOTED for p in (f, g)
    ):
        return False
    return _check_order(profile, True, strict)[0]


def _sweep_pairs(seed: int):
    """Seeded (g, f) pairs, mostly with deg f = deg g + 1, reaching shared,
    repeated and irrational roots, sign flips, equal degrees, poset
    deletions and non-real-rooted inputs."""
    rng = random.Random(seed)
    x = P(0, 1)
    sqrt2 = P(-2, 0, 1)
    pairs = []
    for k in range(160):
        g, f = random_interlacing_pair(rng, 4, strict=k % 2 == 0)
        r = random_rational(rng, Fraction(-9), Fraction(9))
        s = x - random_rational(rng, Fraction(-9), Fraction(9))
        pairs += [(g, f), (-g, f), (g, -f), (g * (x - r), f), (f, g * (x - r))]
        pairs += [(g * s, f * s), (g * s * s, f * s * s), (g * s * s, f * s)]
        h = f * sqrt2
        pairs += [(g * sqrt2, h), (h.derivative(), h), (g * sqrt2, f * (x - r))]
        q = random_non_real_rooted(rng, 3)
        pairs += [(g * q, f * q), (q.derivative(), q), (q, q * (x - r))]
    while len(pairs) < 2200:
        p = sp_build(random_sp_expression(rng, rng.randint(1, 6)))
        big = e_polynomial(p)
        pairs += [(e_polynomial(delete_element(p, e)), big) for e in p.elements]
        pairs.append((random_real_rooted(rng, 3), random_real_rooted(rng, 4)))
    return pairs


def test_sequence_verdicts_match_isolation_oracle():
    pairs = _sweep_pairs(20)
    assert len(pairs) >= 2000
    for g, f in pairs:
        # one isolation per pair; the reversed pair reads it mirrored
        profile = merged_profile(f, g)
        mirrored = _Profile(profile.locations, profile.mult_second, profile.mult_first)
        for strict in (False, True):
            assert interlaces(g, f, strict=strict) == _isolation_interlaces(
                g, f, strict, profile
            ), (g, f, strict)
        assert alternates(f, g) == _isolation_alternates(f, g, profile), (f, g)
        assert alternates(g, f) == _isolation_alternates(g, f, mirrored), (g, f)


class TestSequenceEdgeCases:
    def test_proportional_inputs_alternate_unswapped(self):
        f = from_roots([-1, 2, Fraction(7, 3)])
        for scale in (1, 3, Fraction(-1, 2)):
            verdict = alternates(f, f * scale)
            assert verdict.relation is Relation.ALTERNATE
            assert not verdict.swapped

    def test_constant_below_linear(self):
        assert alternates(P(0, 1), P(-5)).relation is Relation.STRICTLY_INTERLACES
        assert interlaces(P(-5), P(3, -1), strict=True)

    def test_non_real_factor_in_the_gcd(self):
        g = P(1, 0, 1)
        f = g * P(-1, 1)
        assert not interlaces(g, f)
        assert not interlaces(g, f, strict=True)
        assert alternates(f, g).reason == "first input is not real-rooted"

    def test_double_root_in_the_gcd(self):
        shared = from_roots([1, 1])
        g, f = shared * P(-3, 1), shared * from_roots([2, 4])
        assert interlaces(g, f)
        assert not interlaces(g, f, strict=True)
        assert alternates(f, g).relation is Relation.INTERLACES
        # a triple root of f against a single one of g breaks the chain
        assert not interlaces(P(-1, 1) * P(-3, 1), from_roots([1, 1, 1]) * P(-4, 1))

    def test_verdicts_never_isolate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a yes/no verdict isolated roots")

        for module in (roots, interlacing):
            monkeypatch.setattr(module, "isolate_roots", refuse)
        monkeypatch.setattr(interlacing, "merged_profile", refuse)
        g, f = from_roots([0, 2]), from_roots([-1, 1, 3])
        assert interlaces(g, f, strict=True)
        assert not interlaces(from_roots([0, 4]), f)
        assert chain_check([P(1), P(-1, 1), g, f])
        assert not chain_check([P(1), P(-3, 1), g, f])
        assert alternates(f, g).relation is Relation.STRICTLY_INTERLACES
        assert alternates(g, g * P(0, 1) - f).holds
