"""Labelled posets, strict order-reversing partition counting, and the two
stacking constructions under which the counting polynomials factor.

A labelled poset pairs a finite poset (given by its cover relation) with an
injective integer labelling.  The central counts: a partition of the poset
into k nonempty "layers" numbered k down to 1 along the order, where a
comparable pair may share a layer only if its labels increase with the
order.  The layer-count generating polynomial (coefficient of x^k counts
surjective layerings onto [k]) and its binomial-basis companion are what
the rest of the package manipulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

from .errors import (
    ElementNotFoundError,
    InputFormatError,
    OutOfRangeError,
)
from .polynomial import ONE, Polynomial, X, _cleared

Element = str
Cover = tuple[Element, Element]


class LabelledPoset:
    """Finite poset with an injective integer labelling.

    covers lists (lower, upper) pairs and must be the transitive reduction
    of an acyclic relation; labels maps every element to a distinct integer.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        covers: Iterable[Sequence[Element]],
        labels: Mapping[Element, int],
    ):
        self._elements = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise InputFormatError("duplicate element ids")
        index = {e: i for i, e in enumerate(self._elements)}
        cover_pairs = []
        for pair in covers:
            lo, hi = pair
            if lo not in index or hi not in index:
                raise InputFormatError(f"cover ({lo!r}, {hi!r}) references unknown element")
            if lo == hi:
                raise InputFormatError(f"cover ({lo!r}, {hi!r}) is a self-loop")
            cover_pairs.append((lo, hi))
        self._covers = tuple(sorted(set(cover_pairs)))
        if set(labels) != set(self._elements):
            raise InputFormatError("labels must cover exactly the element set")
        values = [int(labels[e]) for e in self._elements]
        if len(set(values)) != len(values):
            raise InputFormatError("labels must be injective")
        self._labels = {e: int(labels[e]) for e in self._elements}
        self._index = index
        self._up = [[] for _ in self._elements]
        self._downcov = [[] for _ in self._elements]
        for lo, hi in self._covers:
            self._up[index[lo]].append(index[hi])
            self._downcov[index[hi]].append(index[lo])
        self._above = self._reachability()
        for lo, hi in self._covers:
            i, j = index[lo], index[hi]
            if any(self._above[k] >> j & 1 for k in self._up[i] if k != j):
                raise InputFormatError(
                    f"cover ({lo!r}, {hi!r}) is implied by other covers; "
                    "covers must be transitively reduced"
                )

    def _reachability(self) -> list[int]:
        """above[i] = bitmask of j strictly above i; rejects cycles."""
        n = len(self._elements)
        order: list[int] = []
        pending = [len(self._up[i]) for i in range(n)]
        stack = [i for i in range(n) if pending[i] == 0]
        while stack:
            i = stack.pop()
            order.append(i)
            for j in self._downcov[i]:
                pending[j] -= 1
                if pending[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise InputFormatError("cover relation contains a cycle")
        above = [0] * n
        for i in order:  # processed tops-first
            for j in self._up[i]:
                above[i] |= 1 << j | above[j]
        return above

    # -- basic views --------------------------------------------------------

    @property
    def elements(self) -> tuple[Element, ...]:
        return self._elements

    @property
    def covers(self) -> tuple[Cover, ...]:
        return self._covers

    @property
    def labels(self) -> dict[Element, int]:
        return dict(self._labels)

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def is_empty(self) -> bool:
        return not self._elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledPoset):
            return NotImplemented
        return (
            set(self._elements) == set(other._elements)
            and set(self._covers) == set(other._covers)
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return (
            f"LabelledPoset({list(self._elements)!r}, "
            f"{[list(c) for c in self._covers]!r}, {self._labels!r})"
        )

    def label(self, x: Element) -> int:
        if x not in self._index:
            raise ElementNotFoundError(f"unknown element {x!r}")
        return self._labels[x]

    def less(self, x: Element, y: Element) -> bool:
        """Strict order comparison."""
        if x not in self._index or y not in self._index:
            raise ElementNotFoundError(f"unknown element in ({x!r}, {y!r})")
        return bool(self._above[self._index[x]] >> self._index[y] & 1)

    def maximal_elements(self) -> tuple[Element, ...]:
        return tuple(e for i, e in enumerate(self._elements) if not self._up[i])

    def minimal_elements(self) -> tuple[Element, ...]:
        return tuple(e for i, e in enumerate(self._elements) if not self._downcov[i])

    def linear_extension(self) -> tuple[Element, ...]:
        """Elements ordered so every element comes after everything below it."""
        n = len(self._elements)
        pending = [len(self._downcov[i]) for i in range(n)]
        ready = sorted((i for i in range(n) if pending[i] == 0), reverse=True)
        out = []
        while ready:
            i = ready.pop()
            out.append(self._elements[i])
            for j in self._up[i]:
                pending[j] -= 1
                if pending[j] == 0:
                    ready.append(j)
            ready.sort(reverse=True)
        return tuple(out)


EMPTY_POSET = LabelledPoset((), (), {})


def singleton(name: Element = "e1", label: int = 1) -> LabelledPoset:
    return LabelledPoset((name,), (), {name: label})


# -- constructions -----------------------------------------------------------


def _merge_ids(
    p: LabelledPoset, q: LabelledPoset
) -> tuple[dict[Element, Element], dict[Element, Element]]:
    """Injective id maps for the two blocks; renames only on collision."""
    if set(p.elements) & set(q.elements):
        return (
            {e: f"L:{e}" for e in p.elements},
            {e: f"R:{e}" for e in q.elements},
        )
    return {e: e for e in p.elements}, {e: e for e in q.elements}


def _stacked_labels(
    lower: LabelledPoset,
    upper: LabelledPoset,
    lower_map: Mapping[Element, Element],
    upper_map: Mapping[Element, Element],
) -> dict[Element, int]:
    """Labels 1..n with the first block's labels all below the second's,
    preserving each block's internal label order."""
    out: dict[Element, int] = {}
    next_label = 1
    for block, rename in ((lower, lower_map), (upper, upper_map)):
        for e in sorted(block.elements, key=block.label):
            out[rename[e]] = next_label
            next_label += 1
    return out


def ordinal_sum(p: LabelledPoset, q: LabelledPoset, variant: int) -> LabelledPoset:
    """Stack p below q: every p-element sits below every q-element.

    variant 0 places all p-labels below all q-labels; variant 1 places all
    q-labels below all p-labels.  Each block keeps its internal label order.
    """
    if variant not in (0, 1):
        raise OutOfRangeError(f"variant must be 0 or 1, got {variant}")
    pm, qm = _merge_ids(p, q)
    elements = [pm[e] for e in p.elements] + [qm[e] for e in q.elements]
    covers = [(pm[a], pm[b]) for a, b in p.covers] + [
        (qm[a], qm[b]) for a, b in q.covers
    ]
    covers += [
        (pm[m], qm[n]) for m in p.maximal_elements() for n in q.minimal_elements()
    ]
    if variant == 0:
        labels = _stacked_labels(p, q, pm, qm)
    else:
        labels = _stacked_labels(q, p, qm, pm)
    return LabelledPoset(elements, covers, labels)


def disjoint_union(p: LabelledPoset, q: LabelledPoset) -> LabelledPoset:
    """Side-by-side union with no relations between the blocks; labels are
    canonicalised with the first block below the second."""
    pm, qm = _merge_ids(p, q)
    elements = [pm[e] for e in p.elements] + [qm[e] for e in q.elements]
    covers = [(pm[a], pm[b]) for a, b in p.covers] + [
        (qm[a], qm[b]) for a, b in q.covers
    ]
    labels = _stacked_labels(p, q, pm, qm)
    return LabelledPoset(elements, covers, labels)


def delete_element(p: LabelledPoset, x: Element) -> LabelledPoset:
    """Induced order on the remaining elements, labels restricted."""
    if x not in p.elements:
        raise ElementNotFoundError(f"unknown element {x!r}")
    keep = [e for e in p.elements if e != x]
    pairs = [(a, b) for a in keep for b in keep if p.less(a, b)]
    pair_set = set(pairs)
    covers = [
        (a, b)
        for a, b in pairs
        if not any((a, c) in pair_set and (c, b) in pair_set for c in keep)
    ]
    labels = {e: p.label(e) for e in keep}
    return LabelledPoset(keep, covers, labels)


def relabel(p: LabelledPoset, labels: Mapping[Element, int]) -> LabelledPoset:
    """Same order, different labelling."""
    return LabelledPoset(p.elements, p.covers, labels)


# -- partition counting -------------------------------------------------------


def _strict_pair(p: LabelledPoset, lower: Element, upper: Element) -> bool:
    return p.label(lower) > p.label(upper)


def count_surjective_partitions(p: LabelledPoset, k: int) -> int:
    """Number of surjective maps onto [k] that weakly decrease along the
    order and strictly decrease on comparable pairs whose labels increase.

    Counts by exhaustive assignment along a linear extension: the value at
    an element is capped by the values already placed on the elements it
    covers, with a cap one lower across label-increasing covers, and a used-
    value bitmask enforces surjectivity.  Decrease on covers is enough: any
    comparable pair is joined by a saturated chain, and a label-increasing
    pair forces a strict drop somewhere on it.
    """
    n = len(p)
    if not 1 <= k <= n:
        raise OutOfRangeError(f"need 1 <= k <= {n}, got k={k}")
    order = p.linear_extension()
    position = {e: i for i, e in enumerate(order)}
    below: list[list[tuple[int, int]]] = [[] for _ in order]
    for lo, hi in p.covers:
        below[position[hi]].append(
            (position[lo], 1 if _strict_pair(p, lo, hi) else 0)
        )
    values = [0] * n
    full = (1 << k) - 1

    def count_from(idx: int, used: int, used_count: int) -> int:
        if idx == n:
            return 1 if used == full else 0
        cap = k
        for j, drop in below[idx]:
            cap = min(cap, values[j] - drop)
        remaining = n - idx
        total = 0
        for v in range(1, cap + 1):
            bit = 1 << (v - 1)
            new_count = used_count + (0 if used & bit else 1)
            if k - new_count > remaining - 1:
                continue
            values[idx] = v
            total += count_from(idx + 1, used | bit, new_count)
        return total

    return count_from(0, 0, 0)


def e_polynomial(p: LabelledPoset) -> Polynomial:
    """Layer-count generating polynomial: coefficient of x^k is the number
    of surjective valid layerings onto [k]; the empty poset gives 1.

    Computed from Stanley's fundamental lemma on (P, omega)-partitions: listing
    each layer's elements in increasing label order, bottom layer first,
    turns a layering into a linear extension, and a linear extension with d
    descents (consecutive elements whose labels drop) comes from exactly
    C(n-1-d, k-1-d) layerings onto [k], which must cut at each descent and
    may cut anywhere else.  So E(x) = sum_d w_d x^(d+1) (1+x)^(n-1-d), where
    w_d counts the linear extensions with d descents.

    The w_d are counted by dynamic programming over states (order ideal I,
    element added last), building the ideals level by level from the empty
    one; an element may be added once all of its lower covers are in I.  The
    cost is about sum_I |max I| * |min(P minus I)| state updates, so it
    follows the number of order ideals: n + 1 for a chain, 2^n for an
    antichain.
    `count_surjective_partitions` counts by direct enumeration and is the
    independent oracle the tests compare this with.
    """
    n = len(p)
    if n == 0:
        return ONE
    labels = [p._labels[e] for e in p._elements]
    down = [sum(1 << j for j in below) for below in p._downcov]
    drops = [sum(1 << m for m in range(n) if labels[m] < lab) for lab in labels]
    # Each state's counts w_0, w_1, ... are packed into one int, w_d in bits
    # [d*width, (d+1)*width).  Every count is at most n!, so a slot never
    # carries into the next: a descent step is a shift and a merge a sum.
    width = factorial(n).bit_length() + 1
    full = (1 << n) - 1
    # level[last] maps each ideal whose element added last is `last` to its
    # packed counts; a consumed dict is dropped at once to bound peak memory.
    level: list[dict[int, int] | None] = [
        None if down[m] else {1 << m: 1} for m in range(n)
    ]
    for _ in range(n - 1):
        nxt: list[dict[int, int] | None] = [None] * n
        for last in range(n):
            states, level[last] = level[last], None
            if not states:
                continue
            drop = drops[last]
            for ideal, w in states.items():
                shifted = w << width
                free = full & ~ideal
                while free:
                    bit = free & -free
                    free ^= bit
                    m = bit.bit_length() - 1
                    if down[m] & ~ideal:
                        continue
                    target = nxt[m]
                    if target is None:
                        target = nxt[m] = {}
                    key = ideal | bit
                    target[key] = target.get(key, 0) + (shifted if drop & bit else w)
        level = nxt
    packed = sum(states[full] for states in level if states)
    slot = (1 << width) - 1
    w = [packed >> (d * width) & slot for d in range(n)]
    coeffs = [0] + [
        sum(w[d] * comb(n - 1 - d, k - 1 - d) for d in range(k)) for k in range(1, n + 1)
    ]
    return Polynomial(Fraction(c) for c in coeffs)


def order_polynomial(p: LabelledPoset) -> Polynomial:
    """Polynomial whose value at integer m >= 0 counts valid layerings with
    values in [m] (no surjectivity): sum of e_k times x-choose-k."""
    return e_inverse(e_polynomial(p))


# -- basis change -------------------------------------------------------------


def _binomial_values(cs: Sequence[int], m: int) -> list[int]:
    """Values of sum_k cs[k] x-choose-k at x = 0..m, for integer cs: the
    table of D * e_inverse(f) when cs is f's coefficients cleared by D."""
    return [
        sum(c * comb(x, k) for k, c in enumerate(cs[: x + 1])) for x in range(m + 1)
    ]


def _differences(values: Sequence[int], scale: int) -> Polynomial:
    """sum_k (D^k / scale) x^k, where D^k is the k-th forward difference at 0
    of the integer table values[x], x = 0, 1, ...: the image under e_operator
    of the polynomial of degree < len(values) taking the values / scale."""
    row = list(values)
    coeffs = []
    while row:
        coeffs.append(Fraction(row[0], scale))
        row = [b - a for a, b in zip(row, row[1:])]
    return Polynomial(coeffs)


def e_operator(f: Polynomial) -> Polynomial:
    """Basis change sending x-choose-k to x^k.

    The coefficient of x-choose-k in f is the k-th forward difference of f
    at 0, so the image is read off the difference table of f(0..deg f),
    taken on the integer values of D * f and divided by D at the end.
    """
    cs, den = _cleared(f)
    values = [sum(c * x**k for k, c in enumerate(cs)) for x in range(len(cs))]
    return _differences(values, den)


def e_inverse(f: Polynomial) -> Polynomial:
    """Inverse basis change: substitute x-choose-k for each monomial x^k."""
    out = Polynomial()
    binomial = ONE
    for k, c in enumerate(f.coeffs):
        out = out + binomial * c
        binomial = binomial * (X - k) * Fraction(1, k + 1)
    return out


# -- series-parallel expressions ----------------------------------------------


@dataclass(frozen=True)
class SPExpression:
    """Construction tree: a leaf is a singleton; s0/s1 stack the left block
    below the right with labels increasing (s0) or decreasing (s1) across
    the blocks; du places the blocks side by side."""

    kind: str
    left: "SPExpression | None" = None
    right: "SPExpression | None" = None

    def __post_init__(self):
        if self.kind == "leaf":
            if self.left is not None or self.right is not None:
                raise InputFormatError("leaf nodes take no operands")
        elif self.kind in ("s0", "s1", "du"):
            if self.left is None or self.right is None:
                raise InputFormatError(f"{self.kind} needs two operands")
        else:
            raise InputFormatError(f"unknown node kind {self.kind!r}")

    @property
    def size(self) -> int:
        if self.kind == "leaf":
            return 1
        return self.left.size + self.right.size

    def to_dsl(self) -> str:
        if self.kind == "leaf":
            return "L"
        return f"{self.kind}({self.left.to_dsl()},{self.right.to_dsl()})"


LEAF = SPExpression("leaf")


def parse_sp(text: str) -> SPExpression:
    """Parse the expression language: `L`, `s0(e,e)`, `s1(e,e)`, `du(e,e)`.

    Raises InputFormatError with a character position on malformed input.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def fail(message: str):
        raise InputFormatError(f"{message} at position {pos}")

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            fail(f"expected {ch!r}")
        pos += 1

    def expr() -> SPExpression:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            fail("expected expression")
        if text[pos] == "L":
            pos += 1
            return LEAF
        op = text[pos : pos + 2]
        if op in ("s0", "s1", "du"):
            pos += 2
            expect("(")
            left = expr()
            expect(",")
            right = expr()
            expect(")")
            return SPExpression(op, left, right)
        fail("expected 'L', 's0', 's1' or 'du'")

    out = expr()
    skip_ws()
    if pos != len(text):
        fail("unexpected trailing input")
    return out


def sp_build(expr: SPExpression) -> LabelledPoset:
    """Realize a construction tree as a labelled poset.

    Leaves get ids e1, e2, ... in left-to-right order, so every deletion
    and report can refer to them stably.
    """
    counter = [0]

    def build(node: SPExpression) -> LabelledPoset:
        if node.kind == "leaf":
            counter[0] += 1
            return singleton(f"e{counter[0]}")
        left = build(node.left)
        right = build(node.right)
        if node.kind == "s0":
            return ordinal_sum(left, right, 0)
        if node.kind == "s1":
            return ordinal_sum(left, right, 1)
        return disjoint_union(left, right)

    return build(expr)


# -- serialization ------------------------------------------------------------


def poset_to_json_dict(p: LabelledPoset) -> dict:
    return {
        "elements": list(p.elements),
        "covers": [list(c) for c in p.covers],
        "labels": p.labels,
    }


def poset_from_json_dict(data: object) -> LabelledPoset:
    if not isinstance(data, dict):
        raise InputFormatError("poset JSON must be an object")
    missing = {"elements", "covers", "labels"} - set(data)
    if missing:
        raise InputFormatError(f"poset JSON missing keys: {sorted(missing)}")
    elements = data["elements"]
    covers = data["covers"]
    labels = data["labels"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputFormatError("elements must be a list of strings")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in covers
    ):
        raise InputFormatError("covers must be a list of [lower, upper] pairs")
    if not isinstance(labels, dict):
        raise InputFormatError("labels must be an object")
    return LabelledPoset(elements, [tuple(c) for c in covers], labels)
