"""Countable-universal-graph constructions on the naturals.

Two concrete models: the BIT graph (m and n adjacent when one indexes a set
bit of the other's binary expansion) and membership on hereditarily finite
sets.  The classical bijection A(a) = sum over members b of 2^A(b) carries
one onto the other while preserving edges.  `extension_witness` produces, for
any disjoint finite sets of required neighbours and non-neighbours, a vertex
adjacent to exactly the required ones - the extension property that
characterizes this graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import DepthLimitError, InvalidInputError
from .rng import Xoshiro256StarStar

MAX_DEPTH = 6  # codes of deeper sets form power towers no machine can hold
RANDOM_SET_BREADTH = 3  # most members per level of random_set


def bit_adjacent(a: int, b: int) -> bool:
    """BIT adjacency: bit a of b is set, or bit b of a is set."""
    if a < 0 or b < 0:
        raise InvalidInputError("vertices are natural numbers")
    if a == b:
        raise InvalidInputError("adjacency is only defined for distinct vertices")
    return bool((b >> a) & 1) or bool((a >> b) & 1)


class HereditarilyFiniteSet:
    """Finite set whose elements are hereditarily finite sets.

    Members are deduplicated and kept sorted by their code, so equal sets
    have identical representations; equality and hashing go through the code,
    which determines the set completely.
    """

    __slots__ = ("members", "code", "depth")

    def __init__(self, members: Iterable["HereditarilyFiniteSet"] = ()):
        uniq: dict[int, HereditarilyFiniteSet] = {}
        for s in members:
            if not isinstance(s, HereditarilyFiniteSet):
                raise InvalidInputError("members must be hereditarily finite sets")
            uniq[s.code] = s
        ordered = tuple(uniq[c] for c in sorted(uniq))
        depth = 1 + max((s.depth for s in ordered), default=-1)
        if depth > MAX_DEPTH:
            raise DepthLimitError(f"set depth {depth} exceeds the supported {MAX_DEPTH}")
        self.members = ordered
        self.depth = depth
        self.code = sum(1 << s.code for s in ordered)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HereditarilyFiniteSet) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return "{" + ",".join(repr(s) for s in self.members) + "}"


EMPTY_SET = HereditarilyFiniteSet()


def ackermann_encode(s: HereditarilyFiniteSet) -> int:
    """Code of a hereditarily finite set: sum of 2^code over its members."""
    if s.depth > MAX_DEPTH:
        raise DepthLimitError(f"set depth {s.depth} exceeds the supported {MAX_DEPTH}")
    return s.code


@lru_cache(maxsize=None)
def ackermann_decode(n: int) -> HereditarilyFiniteSet:
    """Inverse of the encoding: bit positions of n are the members' codes."""
    if n < 0:
        raise InvalidInputError("codes are natural numbers")
    members = []
    pos = 0
    x = n
    while x:
        if x & 1:
            members.append(ackermann_decode(pos))
        x >>= 1
        pos += 1
    return HereditarilyFiniteSet(members)


def extension_witness(u_set: Iterable[int], v_set: Iterable[int]) -> int:
    """A vertex adjacent to everything in u_set and nothing in v_set.

    z carries one bit per required neighbour plus a fresh top bit above every
    constraint vertex, so z is new, large, and decided purely by its own bits.
    """
    us = set(u_set)
    vs = set(v_set)
    if us & vs:
        raise InvalidInputError("required and forbidden sets must be disjoint")
    if any(v < 0 for v in us | vs):
        raise InvalidInputError("vertices are natural numbers")
    top = 1 + max(us | vs) if us | vs else 0
    return sum(1 << u for u in us) + (1 << top)


def random_set(stream: Xoshiro256StarStar, max_depth: int = 4) -> HereditarilyFiniteSet:
    """Random hereditarily finite set with depth at most max_depth."""
    if max_depth <= 0:
        return EMPTY_SET
    size = stream.randint_below(RANDOM_SET_BREADTH + 1)
    return HereditarilyFiniteSet(random_set(stream, max_depth - 1) for _ in range(size))


def parse_set_literal(text: str) -> HereditarilyFiniteSet:
    """Parse braces notation like {{},{{}}} into a set."""
    text = "".join(text.split())
    pos = 0

    def parse() -> HereditarilyFiniteSet:
        nonlocal pos
        if pos >= len(text) or text[pos] != "{":
            raise InvalidInputError(f"expected '{{' at position {pos}")
        pos += 1
        members = []
        while pos < len(text) and text[pos] != "}":
            members.append(parse())
            if pos < len(text) and text[pos] == ",":
                pos += 1
        if pos >= len(text):
            raise InvalidInputError("unterminated set literal")
        pos += 1
        return HereditarilyFiniteSet(members)

    out = parse()
    if pos != len(text):
        raise InvalidInputError(f"trailing characters at position {pos}")
    return out
