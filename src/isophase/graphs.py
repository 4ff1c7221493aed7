"""Simple undirected graphs on 0..n-1 with bitset adjacency rows.

Graphs are immutable once built: `adj` is a tuple of n integers, bit j of
`adj[i]` meaning the edge {i, j} is present.  Sampling of G(n, p) consumes one
uniform draw per unordered pair in lexicographic order, so a given
(n, p, seed) triple always yields bit-identical adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvalidMapError, InvalidSubsetError, ParameterError, SizeError
from .rng import MASK64, Xoshiro256StarStar

MAX_VERTICES = 4096


class Graph:
    """Loop-free undirected graph with symmetric bitrow adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        if n < 0:
            raise SizeError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise SizeError(f"vertex count {n} exceeds the configured cap {MAX_VERTICES}")
        self.n = n
        if rows is None:
            self.adj = (0,) * n
        else:
            if len(rows) != n:
                raise InvalidSubsetError("adjacency must have one row per vertex")
            full = (1 << n) - 1
            for i, row in enumerate(rows):
                if row & ~full:
                    raise InvalidSubsetError(f"row {i} references vertices outside 0..{n - 1}")
                if (row >> i) & 1:
                    raise InvalidSubsetError(f"self-loop at vertex {i}")
            for i, row in enumerate(rows):
                for j in _bits(row):
                    if not (rows[j] >> i) & 1:
                        raise InvalidSubsetError(f"adjacency not symmetric at ({i}, {j})")
            self.adj = tuple(rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = list(cls(n).adj)  # checks n against the cap before allocating
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InvalidSubsetError(f"bad edge ({i}, {j}) for n={n}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    yield (i, j)
                row >>= 1
                j += 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


@dataclass(frozen=True)
class EdgeLaw:
    """Parameters of a G(n, p) sample: size, edge probability, stream seed."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"edge probability {self.p} outside [0, 1]")
        if self.n < 0 or self.n > MAX_VERTICES:
            raise SizeError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")


def sample_gnp(law: EdgeLaw) -> Graph:
    """Draw one G(n, p) graph.

    Pairs {i, j}, i < j, are visited in lexicographic order and each consumes
    exactly one uniform draw; the edge is present iff the draw is < p.  The
    xoshiro256** step is inlined on local state words, and the draw
    (u >> 11) * 2^-53 < p is tested as u < ceil(p * 2^53) << 11 on the raw
    64-bit output u, which is exact because scaling by 2^53 is.
    """
    n = law.n
    below = math.ceil(law.p * 9007199254740992.0) << 11  # 2^53
    stream = Xoshiro256StarStar(law.seed)
    s0, s1, s2, s3 = stream.s0, stream.s1, stream.s2, stream.s3
    rows = [0] * n
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            x = s1 * 5 & MASK64
            u = ((x << 7 | x >> 57) & MASK64) * 9 & MASK64
            t = s1 << 17 & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & MASK64
            if u < below:
                row_i |= 1 << j
                rows[j] |= 1 << i
        rows[i] = row_i
    g = Graph(n)
    g.adj = tuple(rows)  # rows built symmetric and loop-free by construction
    return g


def induced_subgraph(g: Graph, subset: Sequence[int]) -> Graph:
    """Restriction of g to a strictly increasing vertex subset.

    Vertices are relabeled by rank in the subset: rank a and rank b are
    adjacent iff g has the edge {subset[a], subset[b]}.
    """
    k = len(subset)
    prev = -1
    for v in subset:
        if v <= prev or not 0 <= v < g.n:
            raise InvalidSubsetError("subset must be strictly increasing within 0..n-1")
        prev = v
    rows = [0] * k
    for a in range(k):
        ga = g.adj[subset[a]]
        row = 0
        for b in range(k):
            if (ga >> subset[b]) & 1:
                row |= 1 << b
        rows[a] = row
    h = Graph(k)
    h.adj = tuple(rows)
    return h


def is_isomorphism(g: Graph, h: Graph, f: Sequence[int]) -> bool:
    """True iff the bijection f maps edges of g exactly onto edges of h."""
    n = g.n
    if h.n != n:
        raise InvalidMapError("graphs must have equal sizes")
    if len(f) != n or set(f) != set(range(n)):
        raise InvalidMapError("f must be a permutation of 0..n-1")
    for i in range(n):
        gi = g.adj[i]
        fi = f[i]
        hrow = h.adj[fi]
        for j in range(i + 1, n):
            if ((gi >> j) & 1) != ((hrow >> f[j]) & 1):
                return False
    return True


def to_text(g: Graph) -> str:
    """Fixture text format: first line n, then one 'i j' line per edge, i < j."""
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Graph:
    """Parse the fixture format; a malformed, reversed or repeated line raises."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InvalidSubsetError("empty graph text")
    first = _line_ints(lines[0])
    if len(first) != 1:
        raise InvalidSubsetError(f"first line must be the vertex count, got {lines[0]!r}")
    edges = set()
    for ln in lines[1:]:
        ends = _line_ints(ln)
        if len(ends) != 2:
            raise InvalidSubsetError(f"bad edge line: {ln!r}")
        i, j = ends
        if not i < j:
            raise InvalidSubsetError(f"edge lines must have i < j, got {ln!r}")
        if (i, j) in edges:
            raise InvalidSubsetError(f"repeated edge line: {ln!r}")
        edges.add((i, j))
    return Graph.from_edges(first[0], edges)


def _line_ints(line: str) -> list[int]:
    try:
        return [int(token) for token in line.split()]
    except ValueError:
        raise InvalidSubsetError(f"non-integer token in line {line!r}") from None


def read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidSubsetError(f"{path} is not UTF-8 text: {exc}") from None
    return from_text(text)


def write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(g))


def _bits(x: int) -> Iterator[int]:
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb
