"""Exact solvers for induced embedding and common induced subgraphs.

One depth-first search core answers every query.  It builds partial
injections from x into y with the undecided vertices kept in label classes,
as in McSplit (McCreesh, Prosser & Trimble, IJCAI 2017): the vertices of a
class, pattern and host alike, have the same adjacency to every matched
pair, so a pattern vertex takes an image only from its own class and every
match is induced by construction.  Embedding x into y is the full-domain
case m = x.n; the common-subgraph existence, count and maximum-size queries
run the core on the size m they are given.

Search effort is metered in expanded nodes (assignments tried), and a query
whose count of nodes passes its budget stops there.  Existence queries
return a three-valued outcome; counting queries raise `BudgetExceededError`
carrying the partial count, so a complete count is never confused with a
truncated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, InvalidMapError, ParameterError, SizeError
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


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ParameterError(f"node budget must be nonnegative, got {budget}")


def _search(x: Graph, y: Graph, m: int, budget: int, count_all: bool):
    """DFS over size-m partial injections from x into y, in label classes.

    A state is a list of classes (P, H), bitmasks of undecided pattern
    vertices and unused host vertices.  It branches on the first class with
    the fewest host vertices and on that class's lowest pattern vertex v:
    v -> w for each w of the class, lowest first, then one uncounted branch
    that leaves v out.  Assigning v -> w removes v and w and splits every
    class into the vertices adjacent to both and those adjacent to neither;
    a part with no host vertices leaves its pattern vertices out.  A state
    of size s is pruned unless s + sum(min(|P|, |H|)) >= m: the split adds
    up the class deficits max(0, |P| - |H|) and the vertices it leaves out,
    and stops once they pass slack, the undecided pattern vertices that may
    still go unmatched.  Embedding is m = x.n, where slack is 0: the bound
    is Hall's condition per class and no vertex is left out.  The last level
    is settled in one step: its first assignment is the witness, or its
    sum(|P| * |H|) assignments are counted at once.  When m equals both
    vertex counts, graphs whose sorted degree sequences differ are refuted
    before any node.

    Nodes count assignments tried, and every counted node is checked against
    the budget.  Returns (count, (domain, image) or None, nodes, exceeded).
    """
    _check_budget(budget)
    xrows, yrows = x.adj, y.adj
    nx, ny = x.n, y.n
    if m < 0:
        raise SizeError("subgraph size must be nonnegative")
    if m > nx or m > ny:
        raise SizeError(f"subgraph size {m} exceeds a graph's vertex count")
    if m == 0:
        return 1, ((), ()), 0, False
    if m == ny == nx and sorted(map(int.bit_count, xrows)) != sorted(map(int.bit_count, yrows)):
        return 0, None, 0, False  # an isomorphism keeps the degree sequence
    xfull, yfull = (1 << nx) - 1, (1 << ny) - 1
    xnon, ynon = x.non, y.non
    nodes = count = 0
    # A frame is [classes, slack, deficit, branch class, v, images left, w].
    stack = []
    classes, slack, deficit, best = [(xfull, yfull)], nx - m, max(0, nx - ny), 0
    while True:
        if count_all and len(stack) == m - 1:
            k = sum(P.bit_count() * H.bit_count() for P, H in classes)
            nodes += k
            count += k
            if nodes > budget:
                return count, None, nodes, True
        else:
            P, H = classes[best]
            stack.append([classes, slack, deficit, best, (P & -P).bit_length() - 1, H, 0])
        while stack:
            f = stack[-1]
            classes, slack, deficit, best, v, cand, _ = f
            if cand:
                w = (cand & -cand).bit_length() - 1
                f[5] = cand & (cand - 1)
                f[6] = w
                nodes += 1
                if nodes > budget:
                    return count, None, nodes, True
                if len(stack) == m:
                    domain, image = zip(*sorted((g[4], g[6]) for g in stack))
                    return count, (domain, image), nodes, False
                xa, xb, ya, yb = xrows[v], xnon[v], yrows[w], ynon[w]
                split = []
                lost = dropped = 0  # lost: deficits plus vertices left out
                fewest = ny + 1
                for P, H in classes:  # both parts written out: a loop costs ~30%
                    p = P & xa
                    if p:
                        h = H & ya
                        pc = p.bit_count()
                        if h:
                            hc = h.bit_count()
                            if hc < fewest:
                                fewest, best = hc, len(split)
                            split.append((p, h))
                            lost += pc - hc if pc > hc else 0
                        else:
                            lost += pc
                            dropped += pc
                    p = P & xb
                    if p:
                        h = H & yb
                        pc = p.bit_count()
                        if h:
                            hc = h.bit_count()
                            if hc < fewest:
                                fewest, best = hc, len(split)
                            split.append((p, h))
                            lost += pc - hc if pc > hc else 0
                        else:
                            lost += pc
                            dropped += pc
                    if lost > slack:
                        break
                else:
                    classes, slack, deficit = split, slack - dropped, lost - dropped
                    break
            else:
                P, H = classes[best]
                deficit -= P.bit_count() > H.bit_count()
                slack -= 1
                if deficit > slack:
                    stack.pop()
                    continue
                P &= P - 1
                if P:
                    classes[best] = (P, H)
                else:
                    del classes[best]  # deficit <= slack leaves a class
                    best = min(range(len(classes)), key=lambda i: classes[i][1].bit_count())
                    P, H = classes[best]
                f[:6] = classes, slack, deficit, best, (P & -P).bit_length() - 1, H
        else:
            return count, None, nodes, False


def embed_exists(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Is x isomorphic to an induced subgraph of y?"""
    _, pair, nodes, exceeded = _search(x, y, x.n, budget, count_all=False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if pair is not None:
        return SearchOutcome(FOUND, Injection(x.n, y.n, pair[1]), nodes)
    return SearchOutcome(EXHAUSTED, None, nodes)


def embed_count(x: Graph, y: Graph, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Number of injections mapping x onto an induced subgraph of y."""
    count, _, nodes, exceeded = _search(x, y, x.n, budget, count_all=True)
    if exceeded:
        raise BudgetExceededError("embedding count hit the node budget", count, nodes)
    return CountResult(count, nodes)


def common_exists(x: Graph, y: Graph, m: int, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Do x and y contain isomorphic induced subgraphs on m vertices?"""
    _, pair, nodes, exceeded = _search(x, y, m, budget, count_all=False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if pair is not None:
        return SearchOutcome(FOUND, PartialInjection(*pair), nodes)
    return SearchOutcome(EXHAUSTED, None, nodes)


def common_count(x: Graph, y: Graph, m: int, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Number of size-m partial injections matching x and y exactly."""
    count, _, nodes, exceeded = _search(x, y, m, budget, count_all=True)
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
    _check_budget(budget)
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
