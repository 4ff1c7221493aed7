"""Exact solvers for induced embedding and common induced subgraphs.

Both problems are solved by depth-first backtracking over pattern vertices
with candidate sets kept as host bitmasks.  Matching is induced: a candidate
must be adjacent to the images of the pattern vertex's neighbours and
non-adjacent to the images of its non-neighbours.  The common-subgraph solver
branches over which vertex joins the domain next, so existence, counting and
maximum-size queries all share one search core.

Search effort is metered in expanded nodes (assignments tried).  Existence
queries return a three-valued outcome; counting queries raise
`BudgetExceededError` carrying the partial count, so a complete count is never
confused with a truncated one.
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


def _prepare_embed(x: Graph, y: Graph):
    m, n = x.n, y.n
    order = _pattern_order(x)
    prow = []
    for k in range(m):
        row = 0
        xk = x.adj[order[k]]
        for i in range(k):
            if (xk >> order[i]) & 1:
                row |= 1 << i
        prow.append(row)
    full = (1 << n) - 1
    adj = y.adj
    nav = [(~adj[w]) & full & ~(1 << w) for w in range(n)]
    return order, prow, adj, nav, full


def _embed_search(x: Graph, y: Graph, budget: int, count_all: bool):
    """Core DFS.  Returns (count, witness_image_or_None, nodes, exceeded)."""
    m, n = x.n, y.n
    if m > n:
        raise SizeError("pattern larger than host")
    if m == 0:
        return 1, (), 0, False
    if m == 1:
        # Any single host vertex is an induced copy of the one-vertex pattern.
        if count_all:
            if n > budget:
                return budget, None, budget, True
            return n, None, n, False
        if budget < 1:
            return 0, None, 0, True
        return 0, (0,), 1, False
    order, prow, adj, nav, full = _prepare_embed(x, y)
    last = m - 1
    cand = [0] * m
    img = [0] * m
    cand[0] = full
    used = 0
    depth = 0
    nodes = 0
    count = 0
    witness: Optional[tuple[int, ...]] = None
    while depth >= 0:
        c = cand[depth]
        if c == 0:
            depth -= 1
            if depth >= 0:
                used &= ~(1 << img[depth])
            continue
        yv = (c & -c).bit_length() - 1
        cand[depth] = c & (c - 1)
        nodes += 1
        if nodes > budget:
            return count, None, nodes, True
        img[depth] = yv
        nxt = depth + 1
        # Candidates for the next position: unused hosts consistent with
        # every assigned position (edges to edges, non-edges to non-edges).
        nc = full & ~(used | (1 << yv))
        row = prow[nxt]
        i = 0
        while nc and i <= depth:
            nc &= adj[img[i]] if (row >> i) & 1 else nav[img[i]]
            i += 1
        if nxt == last:
            if nc:
                if not count_all:
                    nodes += 1
                    img[last] = (nc & -nc).bit_length() - 1
                    witness = tuple(img)
                    break
                k = nc.bit_count()
                nodes += k
                count += k
                if nodes > budget:
                    return count, None, nodes, True
            continue
        if nc == 0:
            continue
        used |= 1 << yv
        depth = nxt
        cand[depth] = nc
    if witness is not None:
        image = [0] * m
        for pos, v in enumerate(order):
            image[v] = witness[pos]
        return count, tuple(image), nodes, False
    return count, None, nodes, False


def embed_exists(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Is x isomorphic to an induced subgraph of y?"""
    count, image, nodes, exceeded = _embed_search(x, y, budget, count_all=False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if image is not None:
        return SearchOutcome(FOUND, Injection(x.n, y.n, image), nodes)
    return SearchOutcome(EXHAUSTED, None, nodes)


def embed_count(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Number of injections mapping x onto an induced subgraph of y."""
    count, _, nodes, exceeded = _embed_search(x, y, budget, count_all=True)
    if exceeded:
        raise BudgetExceededError("embedding count hit the node budget", count, nodes)
    return CountResult(count, nodes)


def _common_search(x: Graph, y: Graph, m: int, budget: int, count_all: bool):
    """DFS over partial injections with sorted domains.

    Level k holds the k-th domain vertex; at each level the domain vertex u
    scans upward and for each u the candidate images are enumerated from a
    bitmask.  Returns (count, witness_pair_or_None, nodes, exceeded).
    """
    n = x.n
    if m > n or m > y.n:
        raise SizeError("requested common subgraph larger than a graph")
    if m < 0:
        raise SizeError("subgraph size must be nonnegative")
    if m == 0:
        return 1, ((), ()), 0, False
    ny = y.n
    fully = (1 << ny) - 1
    adjx, adjy = x.adj, y.adj
    navy = [(~adjy[w]) & fully & ~(1 << w) for w in range(ny)]
    last = m - 1
    cu = [0] * m      # current domain vertex at each level
    cand = [0] * m    # remaining image candidates for cu[level]
    dom = [0] * m
    img = [0] * m
    used = 0
    nodes = 0
    count = 0
    witness = None

    def image_cands(u: int, k: int) -> int:
        nc = fully & ~used
        xu = adjx[u]
        i = 0
        while nc and i < k:
            nc &= adjy[img[i]] if (xu >> dom[i]) & 1 else navy[img[i]]
            i += 1
        return nc

    depth = 0
    cu[0] = 0
    cand[0] = image_cands(0, 0)
    while depth >= 0:
        c = cand[depth]
        if c == 0:
            u = cu[depth] + 1
            if n - u >= m - depth:  # enough vertices left to fill the domain
                cu[depth] = u
                cand[depth] = image_cands(u, depth)
                continue
            depth -= 1
            if depth >= 0:
                used &= ~(1 << img[depth])
            continue
        if depth == last:
            cand[depth] = 0
            if not count_all:
                nodes += 1
                dom[last] = cu[last]
                img[last] = (c & -c).bit_length() - 1
                witness = (tuple(dom), tuple(img))
                break
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
        dom[depth] = cu[depth]
        img[depth] = yv
        used |= 1 << yv
        nxt = depth + 1
        cu[nxt] = cu[depth] + 1
        cand[nxt] = image_cands(cu[nxt], nxt)
        depth = nxt
    return count, witness, nodes, False


def common_exists(x: Graph, y: Graph, m: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Do x and y contain isomorphic induced subgraphs on m vertices?"""
    count, pair, nodes, exceeded = _common_search(x, y, m, budget, count_all=False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if pair is not None:
        witness = PartialInjection(pair[0], pair[1])
        return SearchOutcome(FOUND, witness, nodes)
    return SearchOutcome(EXHAUSTED, None, nodes)


def common_count(x: Graph, y: Graph, m: int, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Number of size-m partial injections matching x and y exactly."""
    count, _, nodes, exceeded = _common_search(x, y, m, budget, count_all=True)
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
