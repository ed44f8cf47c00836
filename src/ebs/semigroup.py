"""Exact arithmetic for finite cyclic semigroups and their direct products.

A finite cyclic semigroup of index k and period n is generated by a single
element x subject to (k+n)x = kx.  Its k+n-1 elements are x, 2x, ...,
(k+n-1)x, and every element is named by its canonical index: the least t
with t*x equal to it.  A direct product of such semigroups is described by a
ProductSpec, and a product element by the tuple of its coordinates' canonical
indices (1-based).

Addition reduces raw index sums coordinate-wise: a raw sum within [1, k+n-1]
is already canonical, anything larger wraps into the cyclic tail [k, k+n-1]
by its residue mod n.  The product has exactly one idempotent, whose
canonical index in each coordinate is the least multiple of the period at or
above the index.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterator

from .config import _Frozen
from .errors import SpecError

Element = tuple[int, ...]


class CyclicSpec(_Frozen):
    """One cyclic semigroup, given by index ``k >= 1`` and period ``n >= 1``."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        if not isinstance(k, int) or k < 1:
            raise SpecError(f"index must be a positive integer, got {k!r}")
        if not isinstance(n, int) or n < 1:
            raise SpecError(f"period must be a positive integer, got {n!r}")
        super().__init__(k, n)

    @property
    def size(self) -> int:
        """Number of elements, k + n - 1."""
        return self.k + self.n - 1

    @property
    def cap(self) -> int:
        """Least multiple of the period at or above the index.

        This is both the canonical index of the unique idempotent and the
        saturation point of running sums: above it only the residue mod n
        matters.
        """
        return -(-self.k // self.n) * self.n

    def canonical(self, raw: int) -> int:
        """Reduce a raw generator count to the canonical index."""
        if raw < 1:
            raise SpecError(f"raw index must be >= 1, got {raw}")
        if raw <= self.size:
            return raw
        return self.k + (raw - self.k) % self.n

    def as_product(self) -> "ProductSpec":
        return ProductSpec((self,))


class ProductSpec(_Frozen):
    """A finite direct product of cyclic semigroups, in coordinate order."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[CyclicSpec, ...]):
        coords = tuple(coords)
        if not coords:
            raise SpecError("a product spec needs at least one coordinate")
        for c in coords:
            if not isinstance(c, CyclicSpec):
                raise SpecError(f"coordinate is not a CyclicSpec: {c!r}")
        super().__init__(coords)

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "ProductSpec":
        return cls(tuple(CyclicSpec(k, n) for k, n in pairs))

    @property
    def arity(self) -> int:
        return len(self.coords)

    @property
    def caps(self) -> tuple[int, ...]:
        return tuple(c.cap for c in self.coords)

    @property
    def nontrivial_positions(self) -> tuple[int, ...]:
        """Positions whose coordinate has period > 1."""
        return tuple(i for i, c in enumerate(self.coords) if c.n > 1)

    def elements(self) -> Iterator[Element]:
        """All elements, lexicographically by index vector."""
        return itertools.product(*(range(1, c.size + 1) for c in self.coords))


class GroupSpec(_Frozen):
    """The abelian group prod Z_{n_i} attached to a product spec."""

    __slots__ = ("periods",)

    def __init__(self, periods: tuple[int, ...]):
        periods = tuple(periods)
        if not periods:
            raise SpecError("a group spec needs at least one modulus")
        for n in periods:
            if not isinstance(n, int) or n < 1:
                raise SpecError(f"modulus must be a positive integer, got {n!r}")
        super().__init__(periods)

    @property
    def order(self) -> int:
        return math.prod(self.periods)

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(n) for n in self.periods))


def group_of(s: ProductSpec) -> GroupSpec:
    return GroupSpec(tuple(c.n for c in s.coords))


_TERM = re.compile(r"C\(\s*(-?\d+)\s*;\s*(-?\d+)\s*\)")


def parse_spec(text: str) -> ProductSpec:
    """Parse a spec string like ``C(3;2)xC(1;4)``.

    Whitespace around the ``x`` separators (and inside parentheses) is
    allowed; format_spec emits the canonical form without any.
    """
    coords: list[CyclicSpec] = []
    i, end = 0, len(text)
    while True:
        while i < end and text[i].isspace():
            i += 1
        m = _TERM.match(text, i)
        if m is None:
            raise SpecError(f"expected C(<k>;<n>) at position {i} in {text!r}")
        k, n = int(m.group(1)), int(m.group(2))
        if k < 1:
            raise SpecError(f"position {i}: index must be >= 1, got {k}")
        if n < 1:
            raise SpecError(f"position {i}: period must be >= 1, got {n}")
        coords.append(CyclicSpec(k, n))
        i = m.end()
        while i < end and text[i].isspace():
            i += 1
        if i == end:
            return ProductSpec(tuple(coords))
        if text[i] != "x":
            raise SpecError(f"expected 'x' or end of input at position {i} in {text!r}")
        i += 1


def format_spec(s: ProductSpec) -> str:
    """Canonical spec string; round-trips through parse_spec."""
    return "x".join(f"C({c.k};{c.n})" for c in s.coords)


def check_element(s: ProductSpec, a: Element) -> None:
    if len(a) != s.arity:
        raise SpecError(f"element arity {len(a)} does not match spec arity {s.arity}")
    for i, (v, c) in enumerate(zip(a, s.coords)):
        if not isinstance(v, int) or not 1 <= v <= c.size:
            raise SpecError(
                f"coordinate {i}: index {v!r} outside [1, {c.size}] for C({c.k};{c.n})"
            )


def canonical_index(c: CyclicSpec, raw: int) -> int:
    """Canonical index of raw*x in C(k;n): raw itself if raw <= k+n-1, else
    the unique t in [k, k+n-1] with t = raw (mod n)."""
    return c.canonical(raw)


def add(s: ProductSpec, a: Element, b: Element) -> Element:
    check_element(s, a)
    check_element(s, b)
    return tuple(c.canonical(x + y) for c, x, y in zip(s.coords, a, b))


def idempotent(s: ProductSpec) -> Element:
    """The unique idempotent: per coordinate the least multiple of n in
    [k, k+n-1], which is exactly cap = ceil(k/n)*n."""
    return s.caps


def element_count(s: ProductSpec) -> int:
    """Product of coordinate sizes.  Python integers are arbitrary
    precision, so this never wraps; it is exact for any representable spec."""
    return math.prod(c.size for c in s.coords)
