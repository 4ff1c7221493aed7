"""Simple undirected graphs on 0..n-1 with bitset adjacency rows.

Graphs are immutable once built: `adj` is a tuple of n integers, bit j of
`adj[i]` meaning the edge {i, j} is present.  Sampling of G(n, p) consumes one
uniform draw per unordered pair in lexicographic order, so a given
(n, p, seed) triple always yields bit-identical adjacency.

`sample_gnp_many` draws many laws on one n in one pass: their xoshiro256**
streams step together in one Python int, a 72-bit lane each, 64 state bits
under 8 guard bits, and write their flags row by row.  A pass holds at most
`_BATCH_PAIRS` pairs over its lanes, so large n draw one lane per pass, and
`sample_gnp` is the one-lane case.  A graph's non-adjacency rows, which the
search reads, are built once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvalidMapError, InvalidSubsetError, ParameterError, SizeError
from .rng import MASK64, Xoshiro256StarStar

MAX_VERTICES = 4096
# Pairs drawn in one lane-parallel pass of `sample_gnp_many`, over all lanes;
# its flag buffer holds 9 bytes per lane for each row chunk from the diagonal on.
_BATCH_PAIRS = 1 << 18


class Graph:
    """Loop-free undirected graph with symmetric bitrow adjacency."""

    __slots__ = ("n", "adj", "_non")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        if n < 0:
            raise SizeError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise SizeError(f"vertex count {n} exceeds the configured cap {MAX_VERTICES}")
        self.n = n
        self._non = None
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

    @property
    def non(self) -> tuple[int, ...]:
        """Non-adjacency rows, built on first use: bit j of non[i] means j != i
        and {i, j} is no edge."""
        if self._non is None:
            full = (1 << self.n) - 1
            self._non = tuple(full & ~row & ~(1 << v) for v, row in enumerate(self.adj))
        return self._non

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
    """Draw one G(n, p) graph: the one-lane case of `sample_gnp_many`.

    Pairs {i, j}, i < j, are visited in lexicographic order and each consumes
    exactly one uniform draw of the law's xoshiro256** stream; the edge is
    present iff the draw is < p.  The stream steps in one 72-bit lane, its
    64 state bits under 8 guard bits, so a single draw costs what the plain
    stream loop does; a batch of laws on one n is cheaper per graph.
    """
    return sample_gnp_many([law])[0]


def sample_gnp_many(laws: Sequence[EdgeLaw]) -> list[Graph]:
    """Draw one G(n, p) graph per law, every law on the same n; each graph is
    `sample_gnp` of its law, bit for bit.

    The laws' xoshiro256** streams step together inside one Python int, one
    72-bit lane per law: 64 state bits and 8 guard bits.  The guard bits take
    the carries of the *5 and *9 and the flag at bit 64; per-lane masks drop
    the bits that the shift by 17 and the rotations by 7 and 45 would move
    past a lane's top or bottom, before or as they move, so no lane reads
    another's.  The draw (u >> 11) * 2^-53 < p is tested as
    u < ceil(p * 2^53) << 11 on the raw 64-bit output u, which is exact
    because scaling by 2^53 is; all lanes test it in one subtraction, as bit
    64 of (below - 1 + 2^64) - u, which borrows from no other lane, p = 0 and
    p = 1 included.  Row i's flags fill a 9-byte word per lane for each chunk
    of min(64, stride) columns from column i's on, so a lane's words, less
    guard bytes, are its padded upper triangle; strided copies place them, and
    a bit-matrix transpose gives the symmetric half.
    A pass draws at most `batch_lanes(n)` laws, which keeps its memory flat
    in n: at n = 4096 each pass draws one.
    """
    if not laws:
        return []
    n = laws[0].n
    if any(law.n != n for law in laws):
        raise SizeError(f"a batch draws one vertex count, got {sorted({law.n for law in laws})}")
    step = batch_lanes(n)
    graphs = []
    for first in range(0, len(laws), step):
        graphs.extend(_draw_pass(n, laws[first:first + step]))
    return graphs


def batch_lanes(n: int) -> int:
    """How many laws on n vertices `sample_gnp_many` draws in one pass: at
    most `_BATCH_PAIRS` pairs in all, a lane counting at least one word."""
    return max(1, _BATCH_PAIRS // max(64, n * (n - 1) // 2))


def _lanes(values: Iterable[int]) -> int:
    """One int holding each value in a 72-bit lane of its own, the first lowest."""
    return int.from_bytes(b"".join(v.to_bytes(9, "little") for v in values), "little")


def _draw_pass(n: int, laws: Sequence[EdgeLaw]) -> list[Graph]:
    count = len(laws)
    stride = max(8, 1 << (n - 1).bit_length())  # a power of two >= n, in whole bytes
    chunk = min(64, stride)  # the columns of one flag word
    rowbytes = stride // 8
    matrices = _upper_matrices(_pair_flags(n, laws, chunk), n, count, stride, chunk)
    symmetric = matrices | _transpose(matrices, stride, count)
    whole = symmetric.to_bytes(count * stride * rowbytes, "little")
    graphs = []
    for k in range(count):
        g = Graph(n)
        base = k * stride * rowbytes
        g.adj = tuple(  # rows built symmetric and loop-free by construction
            int.from_bytes(whole[base + i * rowbytes:base + (i + 1) * rowbytes], "little")
            for i in range(n)
        )
        graphs.append(g)
    return graphs


def _pair_flags(n: int, laws: Sequence[EdgeLaw], chunk: int) -> bytearray:
    """Every law's edge flags: a word of 9-byte lanes for each row i and each
    chunk c..c + chunk - 1 of columns from i's on, {i, j}'s flag at bit j - c."""
    count = len(laws)
    streams = [Xoshiro256StarStar(law.seed) for law in laws]
    s0 = _lanes(s.s0 for s in streams)
    s1 = _lanes(s.s1 for s in streams)
    s2 = _lanes(s.s2 for s in streams)
    s3 = _lanes(s.s3 for s in streams)
    # each lane's low b bits, for the bits a shift or rotation keeps in it
    lo, m7, m19, m45, m47, m57 = (_lanes([(1 << b) - 1] * count) for b in (64, 7, 19, 45, 47, 57))
    flag = _lanes([1 << 64] * count)
    # law k's lane holds below - 1 + 2^64, for below = ceil(p * 2^53) << 11
    cut = _lanes((math.ceil(law.p * 9007199254740992.0) << 11) + MASK64 for law in laws)
    width = 9 * count
    bits = bytearray()
    for i in range(n):  # the pairs {i, j}, j > i, in lexicographic order
        for c in range(i - i % chunk, n, chunk):
            word = 0
            for shift in range(64 + c - max(i + 1, c), 64 + c - min(n, c + chunk), -1):
                x = s1 * 5  # below 2^67: the carry stays in the guard bits
                u = ((x & m57) << 7 | x >> 57 & m7) * 9 & lo
                t = (s1 & m47) << 17
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = (s3 & m19) << 45 | s3 >> 19 & m45
                word |= (cut - u & flag) >> shift  # the flag of column c + 64 - shift
            bits += word.to_bytes(width, "little")
    return bits


def _upper_matrices(bits: bytearray, n: int, count: int, stride: int, chunk: int) -> int:
    """Law k's upper triangle as a stride x stride bit matrix from bit
    k * stride^2 on, its row i from i * stride bits further."""
    width = 9 * count  # bytes per word of all lanes; a lane's ninth byte is its guard
    rowbytes = stride // 8
    upper = bytearray(count * stride * rowbytes)
    at = 0  # where the words of rows c.. start in `bits`
    for c in range(0, n, chunk):  # rows c to c + chunk - 1 all start at chunk c
        rows = min(n, c + chunk) - c
        words = len(range(c, n, chunk))  # per row: chunk c's and those after it
        end = at + rows * words * width
        for k in range(count):
            first = (k * stride + c) * rowbytes + c // 8  # lane k's row c at column c
            for b in range(words * chunk // 8):  # byte b of each of these rows
                src = at + 9 * k + b // 8 * width + b % 8  # in row c's word b // 8
                upper[first + b:first + rows * rowbytes:rowbytes] = bits[src:end:words * width]
        at = end
    return int.from_bytes(upper, "little")


def _transpose(matrices: int, stride: int, count: int) -> int:
    """Transpose `count` stacked stride x stride bit matrices by delta swaps.

    For each block size s, bit (r, c) of a matrix with bit s clear in r and
    set in c trades places with (r + s, c - s), s * (stride - 1) bits higher.
    One mask is built at a time, so memory stays a few matrices' worth.
    """
    rowbytes = stride // 8
    s = stride // 2
    while s:
        if s >= 8:
            row = (bytes(s // 8) + b"\xff" * (s // 8)) * (stride // (2 * s))
        else:
            row = bytes([sum(1 << c for c in range(8) if c & s)]) * rowbytes
        blocks = stride // (2 * s) * count
        mask = int.from_bytes((row * s + bytes(rowbytes * s)) * blocks, "little")
        d = s * (stride - 1)
        swap = (matrices ^ matrices >> d) & mask
        matrices ^= swap ^ swap << d
        s //= 2
    return matrices


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


def induced_prefix(g: Graph, m: int) -> Graph:
    """`induced_subgraph(g, range(m))` in O(m): rows 0..m-1 masked to 0..m-1."""
    if not 0 <= m <= g.n:
        raise InvalidSubsetError(f"prefix size {m} outside 0..{g.n}")
    mask = (1 << m) - 1
    h = Graph(m)
    h.adj = tuple(row & mask for row in g.adj[:m])
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
