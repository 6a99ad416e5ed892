"""Partitions, their cell posets, and the closed product formula for the
layer-counting polynomials of column-strictly labelled cell posets.

The cells (row, column) of a partition, ordered componentwise, form a poset
whose column-strict labellings (labels increase along rows, decrease down
columns) make every valid layering strictly decreasing down columns and
weakly decreasing along rows.  Counting those layerings by largest value is
a product over cells of (x + content)/hook, which this module evaluates
exactly and cross-checks against a direct grid count and a corner-peeling
recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Sequence

from .errors import EmptyPartitionError, InputFormatError
from .interlacing import interlaces
from .polynomial import ONE, Polynomial, X
from .posets import LabelledPoset, count_surjective_partitions, e_operator
from .roots import Rootedness, is_real_rooted
from .transforms import diamond

Cell = tuple[int, int]


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; () is the empty partition."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        cleaned = tuple(int(v) for v in parts)
        if any(v <= 0 for v in cleaned):
            raise InputFormatError(f"parts must be positive, got {list(parts)}")
        if any(a < b for a, b in zip(cleaned, cleaned[1:])):
            raise InputFormatError(f"parts must be weakly decreasing, got {list(parts)}")
        object.__setattr__(self, "parts", cleaned)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def cells(self) -> Iterator[Cell]:
        """(row, column) pairs, both 1-based, row-major."""
        for i, length in enumerate(self.parts, start=1):
            for j in range(1, length + 1):
                yield (i, j)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.parts) + ")"


def _column_height(shape: Partition, j: int) -> int:
    return sum(1 for length in shape.parts if length >= j)


def ferrers_poset(shape: Partition) -> LabelledPoset:
    """Cell poset under the componentwise order with the canonical
    column-strict labelling: rows are labelled bottom row first, left to
    right, so labels increase along rows and decrease down columns."""
    ids = {cell: f"r{i}c{j}" for cell in shape.cells() for i, j in [cell]}
    covers = []
    for i, j in shape.cells():
        if (i, j + 1) in ids:
            covers.append((ids[(i, j)], ids[(i, j + 1)]))
        if (i + 1, j) in ids:
            covers.append((ids[(i, j)], ids[(i + 1, j)]))
    labels = {}
    next_label = 1
    for i in range(len(shape.parts), 0, -1):
        for j in range(1, shape.parts[i - 1] + 1):
            labels[ids[(i, j)]] = next_label
            next_label += 1
    return LabelledPoset(
        [ids[c] for c in shape.cells()], covers, labels
    )


def hooks_and_contents(shape: Partition) -> dict[Cell, tuple[int, int]]:
    """Per cell (row i, column j): the hook length (cells to the right in
    the row plus cells below in the column, counting the cell once) and the
    content j - i."""
    out: dict[Cell, tuple[int, int]] = {}
    for i, j in shape.cells():
        arm = shape.parts[i - 1] - j + 1
        leg = _column_height(shape, j) - i + 1
        out[(i, j)] = (arm + leg - 1, j - i)
    return out


def hook_product(shape: Partition) -> int:
    return prod(h for h, _ in hooks_and_contents(shape).values())


def hook_content_order_poly(shape: Partition) -> Polynomial:
    """Product over cells of (x + content)/hook; exact coefficients."""
    out = ONE
    for hook, content in hooks_and_contents(shape).values():
        out = out * (X + content) * Fraction(1, hook)
    return out


def corner_cells(shape: Partition) -> list[Cell]:
    """Removable corners, one per cover below, in row order."""
    parts = shape.parts
    return [
        (i + 1, length)
        for i, length in enumerate(parts)
        if i + 1 == len(parts) or parts[i + 1] < length
    ]


def young_covers_down(shape: Partition) -> list[Partition]:
    """All partitions obtained by removing one removable corner cell, in the
    row order of `corner_cells`."""
    if shape.is_empty:
        raise EmptyPartitionError("the empty partition has no covers below")
    parts = shape.parts
    return [
        Partition(tuple(v for v in parts[: i - 1] + (j - 1,) + parts[i:] if v))
        for i, j in corner_cells(shape)
    ]


def ferrers_e_poly(shape: Partition, method: str = "hook_content") -> Polynomial:
    """Layer-count generating polynomial of the labelled cell poset.

    hook_content: basis-change image of the closed product formula.
    recursion: peel a corner cell m and combine with the derivative product,
      E(shape) = C (x + content(m)) diamond E(smaller), where C is the ratio
      of the hook products.
    enumeration: direct surjective-layering counts on the cell poset.
    """
    if method == "hook_content":
        return e_operator(hook_content_order_poly(shape))
    if method == "recursion":
        if shape.is_empty:
            return ONE
        corner = corner_cells(shape)[-1]
        smaller = young_covers_down(shape)[-1]
        scale = Fraction(hook_product(smaller), hook_product(shape))
        content = corner[1] - corner[0]
        linear = (X + content) * scale
        return diamond(linear, ferrers_e_poly(smaller, "recursion"))
    if method == "enumeration":
        poset = ferrers_poset(shape)
        if poset.is_empty:
            return ONE
        return Polynomial(
            [Fraction(0)]
            + [
                Fraction(count_surjective_partitions(poset, k))
                for k in range(1, len(poset) + 1)
            ]
        )
    raise InputFormatError(f"unknown method {method!r}")


def count_reverse_ssyt(shape: Partition, max_part: int) -> int:
    """Grid fillings with entries in [max_part], weakly decreasing along
    rows and strictly decreasing down columns; the independent oracle for
    the product formula."""
    cells = list(shape.cells())
    values: dict[Cell, int] = {}

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        hi = max_part
        if (i, j - 1) in values:
            hi = min(hi, values[(i, j - 1)])
        if (i - 1, j) in values:
            hi = min(hi, values[(i - 1, j)] - 1)
        total = 0
        for v in range(1, hi + 1):
            values[(i, j)] = v
            total += fill(idx + 1)
        values.pop((i, j), None)
        return total

    return fill(0)


@dataclass(frozen=True)
class CoverCheck:
    smaller: Partition
    real_rooted: bool
    interlaces_ok: bool

    @property
    def passed(self) -> bool:
        return self.real_rooted and self.interlaces_ok


@dataclass(frozen=True)
class CoverReport:
    shape: Partition
    shape_real_rooted: bool
    checks: tuple[CoverCheck, ...]

    @property
    def passed(self) -> bool:
        return self.shape_real_rooted and all(c.passed for c in self.checks)


def verify_cover_interlacing(shape: Partition) -> CoverReport:
    """For every partition covered by the shape, check that both layer-count
    polynomials are real-rooted and the smaller one interlaces the larger."""
    if shape.is_empty:
        raise EmptyPartitionError("the empty partition has no covers below")
    big = ferrers_e_poly(shape)
    big_ok = is_real_rooted(big) is not Rootedness.NOT_REAL_ROOTED
    checks = []
    for smaller in young_covers_down(shape):
        small_poly = ferrers_e_poly(smaller)
        ok_rooted = is_real_rooted(small_poly) is not Rootedness.NOT_REAL_ROOTED
        ok_inter = interlaces(small_poly, big)
        checks.append(CoverCheck(smaller, ok_rooted, ok_inter))
    return CoverReport(shape, big_ok, tuple(checks))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographic order."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())
