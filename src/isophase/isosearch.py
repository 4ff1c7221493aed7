"""Exact solvers for induced embedding and common induced subgraphs.

One depth-first backtracking core answers every query.  It searches partial
injections from x into y whose domain is a sorted m-subset of x, branching
on which vertex of x joins the domain next and on its image, with candidate
images kept as host bitmasks.  Matching is induced: a candidate must be
adjacent to the images of the domain vertex's neighbours and non-adjacent to
the images of its non-neighbours.  Embedding x into y is the full-domain
case m = x.n, run on x relabeled into a most-constrained-first order; the
common-subgraph existence, count and maximum-size queries run the core on
x and y as given.

Search effort is metered in expanded nodes (assignments tried), and a query
whose count of nodes passes its budget stops there.  Existence queries
return a three-valued outcome; counting queries raise `BudgetExceededError`
carrying the partial count, so a complete count is never confused with a
truncated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, InvalidMapError, SizeError
from .graphs import Graph

DEFAULT_BUDGET = 10**8

FOUND = "found"
EXHAUSTED = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Injection:
    """Total injection 0..m-1 -> 0..n-1; image[u] is the image of u."""

    m: int
    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.m > self.n:
            raise InvalidMapError("injection domain larger than codomain")
        if len(self.image) != self.m:
            raise InvalidMapError("image must list one value per domain element")
        if len(set(self.image)) != self.m:
            raise InvalidMapError("image values must be distinct")
        for v in self.image:
            if not 0 <= v < self.n:
                raise InvalidMapError(f"image value {v} outside 0..{self.n - 1}")


@dataclass(frozen=True)
class PartialInjection:
    """Injective map defined on a sorted size-m subset of 0..n-1."""

    domain: tuple[int, ...]
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.image):
            raise InvalidMapError("domain and image must have equal lengths")
        prev = -1
        for u in self.domain:
            if u <= prev:
                raise InvalidMapError("domain must be strictly increasing, nonnegative")
            prev = u
        if len(set(self.image)) != len(self.image):
            raise InvalidMapError("image values must be distinct")
        if any(v < 0 for v in self.image):
            raise InvalidMapError("image values must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: Optional[object]
    nodes: int


@dataclass(frozen=True)
class CountResult:
    value: int
    nodes: int


def is_partial_isomorphism(x: Graph, y: Graph, f: PartialInjection) -> bool:
    """True iff f maps the restriction of x on its domain onto that of y."""
    dom, img = f.domain, f.image
    for u in dom:
        if u >= x.n:
            raise InvalidMapError(f"domain vertex {u} outside the first graph")
    for v in img:
        if v >= y.n or v < 0:
            raise InvalidMapError(f"image vertex {v} outside the second graph")
    k = len(dom)
    for a in range(k):
        xa = x.adj[dom[a]]
        ya = y.adj[img[a]]
        for b in range(a + 1, k):
            if ((xa >> dom[b]) & 1) != ((ya >> img[b]) & 1):
                return False
    return True


def _pattern_order(x: Graph) -> list[int]:
    # Static most-constrained-first order: descending degree, index tiebreak.
    return sorted(range(x.n), key=lambda v: (-x.adj[v].bit_count(), v))


def _search(xrows, yrows, m: int, budget: int, count_all: bool):
    """DFS over size-m partial injections from x into y with sorted domains.

    Level k assigns the k-th domain vertex cu[k] an image.  cu[k] scans
    upward from cu[k-1] + 1 while enough vertices remain for the levels
    below it, and for each cu[k] the images are taken lowest first from a
    bitmask of host vertices consistent with every assigned level.  The rows
    (non-adjacency, adjacency) of each assigned image are cached per level,
    and pre[k] holds the consistency mask of the domain vertex cu[k] + 1
    against levels 0..k-1.  It gives a node its child's candidates with one
    AND, and it is level k's candidate set once cu[k] moves up.  Both rows
    of an image exclude the image itself, so no used-vertex mask is needed.
    The last level is settled in one step: its candidates are the witnesses,
    or are counted all at once.  When m equals both vertex counts, graphs
    whose sorted degree sequences differ are refuted before any node.

    Nodes count assignments tried, and every counted node is checked against
    the budget.  Returns (count, (domain, image) or None, nodes, exceeded).
    """
    n, ny = len(xrows), len(yrows)
    if m < 0:
        raise SizeError("subgraph size must be nonnegative")
    if m > n or m > ny:
        raise SizeError(f"subgraph size {m} exceeds a graph's vertex count")
    if m == 0:
        return 1, ((), ()), 0, False
    if m == ny == n and sorted(map(int.bit_count, xrows)) != sorted(map(int.bit_count, yrows)):
        return 0, None, 0, False  # an isomorphism keeps the degree sequence
    fully = (1 << ny) - 1
    rows = [(~row & fully & ~(1 << w), row) for w, row in enumerate(yrows)]
    last = m - 1
    slack = n - m      # level k's domain vertex ranges over k..k + slack
    cu = [0] * m       # domain vertex at each level
    cand = [0] * m     # images still to try for cu[level]
    img = [0] * m
    yr = [None] * m    # rows of img[level], indexed by x-adjacency
    pre = [0] * m
    nodes = 0
    count = 0
    cand[0] = pre[0] = fully
    depth = 0
    while depth >= 0:
        c = cand[depth]
        if c:
            if depth == last:
                if not count_all:
                    nodes += 1
                    if nodes > budget:
                        return count, None, nodes, True
                    img[last] = (c & -c).bit_length() - 1
                    return count, (tuple(cu), tuple(img)), nodes, False
                cand[last] = 0
                k = c.bit_count()
                nodes += k
                count += k
                if nodes > budget:
                    return count, None, nodes, True
                continue
            yv = (c & -c).bit_length() - 1
            cand[depth] = c & (c - 1)
            nodes += 1
            if nodes > budget:
                return count, None, nodes, True
            r = rows[yv]
            u = cu[depth] + 1
            nc = pre[depth] & r[(xrows[u] >> cu[depth]) & 1]
            nxt = depth + 1
            if nc == 0 and u == nxt + slack:
                continue  # the next level has nothing to try
            img[depth] = yv
            yr[depth] = r
            depth = nxt
        else:
            # Move this level's domain vertex up to the one pre[] was
            # computed for, or backtrack.
            u = cu[depth] + 1
            if u > depth + slack:
                depth -= 1
                continue
            nc = pre[depth]
        cu[depth] = u
        cand[depth] = nc
        if u < depth + slack or (nc and depth < last):
            xu = xrows[u + 1]
            nc = fully
            i = 0
            while nc and i < depth:
                nc &= yr[i][(xu >> cu[i]) & 1]
                i += 1
            pre[depth] = nc
    return count, None, nodes, False


def _embed(x: Graph, y: Graph, budget: int, count_all: bool):
    """Embedding is the common subgraph of size x.n, whose domain is all of x.

    The pattern is relabeled so that its vertex k is order[k]; with m = x.n
    the domain cannot advance, so level k always holds pattern vertex
    order[k].  Returns (count, image_or_None, nodes, exceeded).
    """
    order = _pattern_order(x)
    xrows = [
        sum(1 << i for i, w in enumerate(order) if (x.adj[v] >> w) & 1) for v in order
    ]
    count, pair, nodes, exceeded = _search(xrows, y.adj, x.n, budget, count_all)
    if pair is None:
        return count, None, nodes, exceeded
    image = [0] * x.n
    for k, v in enumerate(order):
        image[v] = pair[1][k]
    return count, tuple(image), nodes, exceeded


def embed_exists(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Is x isomorphic to an induced subgraph of y?"""
    _, image, nodes, exceeded = _embed(x, y, budget, count_all=False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if image is not None:
        return SearchOutcome(FOUND, Injection(x.n, y.n, image), nodes)
    return SearchOutcome(EXHAUSTED, None, nodes)


def embed_count(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Number of injections mapping x onto an induced subgraph of y."""
    count, _, nodes, exceeded = _embed(x, y, budget, count_all=True)
    if exceeded:
        raise BudgetExceededError("embedding count hit the node budget", count, nodes)
    return CountResult(count, nodes)


def common_exists(x: Graph, y: Graph, m: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Do x and y contain isomorphic induced subgraphs on m vertices?"""
    _, pair, nodes, exceeded = _search(x.adj, y.adj, m, budget, count_all=False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if pair is not None:
        return SearchOutcome(FOUND, PartialInjection(*pair), nodes)
    return SearchOutcome(EXHAUSTED, None, nodes)


def common_count(x: Graph, y: Graph, m: int, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Number of size-m partial injections matching x and y exactly."""
    count, _, nodes, exceeded = _search(x.adj, y.adj, m, budget, count_all=True)
    if exceeded:
        raise BudgetExceededError("common-subgraph count hit the node budget", count, nodes)
    return CountResult(count, nodes)


@dataclass(frozen=True)
class MaxCommonResult:
    """Outcome of the maximum common-subgraph scan.

    best_m is the largest size with a verified witness; smallest_refuted is
    the least size proven impossible (n + 1 when nothing was refuted).  When
    conclusive, smallest_refuted == best_m + 1.  Sizes strictly between the
    two are inconclusive after a budget stop.
    """

    best_m: int
    witness: Optional[PartialInjection]
    smallest_refuted: int
    conclusive: bool
    nodes: int


def max_common_size(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> MaxCommonResult:
    """Largest m such that x and y have a common induced subgraph of size m.

    Binary scan over m: feasibility is monotone (restricting a witness gives
    a witness one size down), each level runs an exhaustive search.  The node
    budget is shared across levels; on exhaustion the result reports the best
    verified lower bound and the smallest refuted size.
    """
    if x.n != y.n:
        raise SizeError("maximum common subgraph expects graphs of equal size")
    n = x.n
    lo = 0                      # largest m with a witness
    hi = n + 1                  # smallest refuted m
    best_witness: Optional[PartialInjection] = None
    if n > 0:
        best_witness = PartialInjection((0,), (0,))
        lo = 1
    else:
        return MaxCommonResult(0, None, 1, True, 0)
    total_nodes = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        remaining = budget - total_nodes
        if remaining <= 0:
            return MaxCommonResult(lo, best_witness, hi, False, total_nodes)
        outcome = common_exists(x, y, mid, remaining)
        total_nodes += outcome.nodes
        if outcome.status == FOUND:
            lo = mid
            best_witness = outcome.witness
        elif outcome.status == EXHAUSTED:
            hi = mid
        else:
            return MaxCommonResult(lo, best_witness, hi, False, total_nodes)
    return MaxCommonResult(lo, best_witness, hi, True, total_nodes)
