"""Exact polynomial code the benchmark uses to build the `locate` inputs and
to check the program's outputs after timing.

Deliberately independent of realroots: coefficient lists of Fractions,
lowest degree first, a plain Euclidean gcd and a Sturm sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Coeffs = list[Fraction]


def trim(cs: Sequence) -> Coeffs:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def evaluate(cs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def derivative(cs: Sequence[Fraction]) -> Coeffs:
    return [k * c for k, c in enumerate(cs)][1:]


def multiply(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    return trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def diamond(f: Sequence[Fraction], g: Sequence[Fraction]) -> Coeffs:
    """sum_n f^(n) g^(n) x^n (x+1)^n / (n!)^2, the graded derivative product."""
    out: Coeffs = []
    power: Coeffs = [Fraction(1)]
    fn, gn = trim(f), trim(g)
    n, fact = 0, 1
    while fn and gn:
        term = multiply(multiply(fn, gn), power)
        out = add(out, [c / (fact * fact) for c in term])
        fn, gn = derivative(fn), derivative(gn)
        power = multiply(power, [Fraction(0), Fraction(1), Fraction(1)])
        n += 1
        fact *= n
    return out


def from_roots(roots: Sequence[Fraction], lead: Fraction) -> Coeffs:
    out: Coeffs = [Fraction(lead)]
    for r in roots:
        out = multiply(out, [-r, Fraction(1)])
    return out


def divide(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Coeffs, Coeffs]:
    rem = list(a)
    if len(rem) < len(b):
        return [], trim(rem)
    quo = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return quo, trim(rem[: len(b) - 1])


def gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divide(a, b)[1]
    return [c / a[-1] for c in a]


def squarefree(cs: Sequence[Fraction]) -> Coeffs:
    cs = trim(cs)
    return divide(cs, gcd(cs, derivative(cs)))[0]


def _variations(chain: list[Coeffs], x: Fraction) -> int:
    signs = [v for v in (evaluate(p, x) for p in chain) if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u < 0) != (v < 0))


def sturm_chain(cs: Sequence[Fraction]) -> list[Coeffs]:
    chain = [trim(cs), derivative(trim(cs))]
    while chain[-1]:
        chain.append([-c for c in divide(chain[-2], chain[-1])[1]])
    return chain[:-1]


def count_distinct(chain: list[Coeffs], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of the square-free head of `chain`."""
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(cs: Sequence[Fraction]) -> Fraction:
    lead = abs(cs[-1])
    return 1 + max(abs(c) for c in cs[:-1]) / lead if len(cs) > 1 else Fraction(1)


def all_roots_in(cs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> bool:
    """Every complex root of cs is real and lies in [lo, hi]."""
    sq = squarefree(cs)
    degree = len(sq) - 1
    if degree < 1:
        return True
    chain = sturm_chain(sq)
    inside = count_distinct(chain, lo, hi) + (1 if evaluate(sq, lo) == 0 else 0)
    return inside == degree


def isolation_errors(cs: Sequence[Fraction], locations: list[dict]) -> list[str]:
    """Problems with a `roots isolate` answer for a real-rooted input."""
    cs = trim(cs)
    errors = []
    sq = squarefree(cs)
    chain = sturm_chain(sq)
    bound = root_bound(sq)
    if count_distinct(chain, -bound, bound) != len(locations):
        errors.append("number of locations differs from the distinct real roots")
    if sum(loc["multiplicity"] for loc in locations) != len(cs) - 1:
        errors.append("multiplicities do not sum to the degree")
    previous = None
    for loc in locations:
        lo, hi, mult = Fraction(loc["lo"]), Fraction(loc["hi"]), loc["multiplicity"]
        if loc["exact"]:
            if lo != hi or Fraction(loc["point"]) != lo:
                errors.append(f"exact location {loc} is not a point")
            derivs = [cs]
            for _ in range(mult):
                derivs.append(derivative(derivs[-1]))
            if any(evaluate(d, lo) != 0 for d in derivs[:-1]) or evaluate(derivs[-1], lo) == 0:
                errors.append(f"point {lo} is not a root of multiplicity {mult}")
        else:
            if not lo < hi:
                errors.append(f"interval {loc} is empty")
            if evaluate(cs, lo) == 0 or evaluate(cs, hi) == 0:
                errors.append(f"interval {loc} has a root as an endpoint")
            elif count_distinct(chain, lo, hi) != 1:
                errors.append(f"interval {loc} does not isolate one root")
        if previous is not None and not (
            previous[1] < lo or (previous[1] == lo and not (previous[2] and loc["exact"]))
        ):
            errors.append(f"location {loc} overlaps or precedes the one before")
        previous = (lo, hi, loc["exact"])
    return errors


# -- deciding what the library decides ----------------------------------------


def real_root_count(cs: Sequence[Fraction]) -> tuple[int, int]:
    """(distinct real roots, degree of the square-free part) of cs."""
    sq = squarefree(cs)
    if len(sq) < 2:
        return 0, 0
    bound = root_bound(sq)
    return count_distinct(sturm_chain(sq), -bound, bound), len(sq) - 1


def rootedness(cs: Sequence[Fraction]) -> str:
    """"real_simple", "real_with_multiplicity" or "not_real_rooted"."""
    cs = trim(cs)
    distinct, degree = real_root_count(cs)
    if distinct < degree:
        return "not_real_rooted"
    return "real_simple" if degree == len(cs) - 1 else "real_with_multiplicity"


def roots_within(cs: Sequence[Fraction], lo: Fraction, hi: Fraction, closed: bool) -> bool:
    """Every complex root of cs is real and lies in [lo, hi], or in (lo, hi)
    when not closed."""
    sq = squarefree(cs)
    if len(sq) < 2:
        return True
    inside = count_distinct(sturm_chain(sq), lo, hi)
    if closed:
        inside += 1 if evaluate(sq, lo) == 0 else 0
    else:
        inside -= 1 if evaluate(sq, hi) == 0 else 0
    return inside == len(sq) - 1


def isolating_intervals(sq: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Half-open intervals (lo, hi], in increasing order, each holding exactly
    one real root of the square-free polynomial sq, found by bisection."""
    chain = sturm_chain(sq)
    bound = root_bound(sq)
    out: list[tuple[Fraction, Fraction]] = []
    todo = [(-bound, bound, count_distinct(chain, -bound, bound))]
    while todo:
        lo, hi, n = todo.pop()
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            todo += [(lo, mid, count_distinct(chain, lo, mid)),
                     (mid, hi, count_distinct(chain, mid, hi))]
    return sorted(out)


def _multiplicities(cs: Coeffs, sq: Coeffs, intervals) -> list[int]:
    """Multiplicity of cs at the one root of sq in each interval: the first
    derivative of cs that does not vanish there."""
    mults = [0] * len(intervals)
    deriv, k = cs, 0
    while True:
        common = gcd(sq, deriv)
        if len(common) < 2:
            return mults
        chain = sturm_chain(common)
        for i, (lo, hi) in enumerate(intervals):
            if mults[i] == k and count_distinct(chain, lo, hi):
                mults[i] = k + 1
        deriv, k = derivative(deriv), k + 1


def interlaces(g: Sequence[Fraction], f: Sequence[Fraction], strict: bool = False) -> bool:
    """deg f = deg g + 1, both real-rooted, and the sorted roots (with
    multiplicity) satisfy f_1 <= g_1 <= f_2 <= ... <= g_{n-1} <= f_n; with
    < throughout when strict."""
    f, g = trim(f), trim(g)
    if len(f) != len(g) + 1:
        return False
    if rootedness(f) == "not_real_rooted" or rootedness(g) == "not_real_rooted":
        return False
    sq = squarefree(multiply(f, g))
    if len(sq) < 2:
        return True
    intervals = isolating_intervals(sq)
    a = [i for i, m in enumerate(_multiplicities(f, sq, intervals)) for _ in range(m)]
    b = [i for i, m in enumerate(_multiplicities(g, sq, intervals)) for _ in range(m)]
    merged = [x for pair in zip(a, b) for x in pair] + a[len(b):]
    return all(u < v if strict else u <= v for u, v in zip(merged, merged[1:]))


def locates_root_of(cs: Sequence[Fraction], loc: dict) -> bool:
    """The output location `loc` is an exact root of cs, or an interval with
    non-root endpoints holding exactly one distinct root of cs."""
    lo, hi = Fraction(loc["lo"]), Fraction(loc["hi"])
    if loc["exact"]:
        return lo == hi and evaluate(cs, lo) == 0
    if not lo < hi or evaluate(cs, lo) == 0 or evaluate(cs, hi) == 0:
        return False
    return count_distinct(sturm_chain(squarefree(cs)), lo, hi) == 1
