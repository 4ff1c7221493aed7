"""Auxiliary bipartite pair graph of two injections and its component census.

For injections f, g the pair graph links each vertex pair e of the domain
side to its images f(e) and g(e) on the range side.  Because an injection
sends distinct pairs to distinct pairs, every Vertex of this graph has degree
at most 2, so its connected components are paths and cycles.  The census of
components by (left size j, right size k) factorizes the probability that
both maps match two independent random graphs simultaneously:

    E J_f J_g  =  prod over components  tau_{j,k},

with tau_{j,k} the probability that j + k linked edge indicators agree.
Capitalised Vertex/Edge in docstrings refers to this derived graph, whose
Vertices are themselves vertex pairs of the underlying graphs.

One builder serves both problems: an embedding is a common induced subgraph
whose domain is the whole pattern, so two total injections have the pair
graph of the partial injections they define on the domain 0..m-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidMapError, ParameterError, ScaleError, StructuralError
from .isosearch import Injection, PartialInjection
from .thresholds import ModelParams

EMBEDDING = "embedding"
COMMON = "common"

Pair = tuple[int, int]
Sig = tuple[tuple[int, int, int], ...]  # census signature: sorted (j, k, count)


@dataclass(frozen=True)
class EdgeGraph:
    """Bipartite pair graph: left/right Vertices are sorted vertex pairs.

    Overlap statistics of the generating maps ride along so that the census
    can relate component counts to them:

    * d: common domain vertices, r: common range vertices;
    * ell: domain vertices where the two maps agree pointwise;
    * zcal: domain pairs mapped to the same range pair by both maps.
    """

    left: tuple[Pair, ...]
    right: tuple[Pair, ...]
    edges: tuple[tuple[int, int], ...]
    d: int
    r: int
    ell: int
    zcal: int
    m: int


@dataclass(frozen=True)
class ComponentProfile:
    """Census of connected components of an EdgeGraph.

    c maps (j, k) -> number of components with j left and k right Vertices;
    cycles and j == k paths are tallied separately in c_cycles / c_paths_jj.
    """

    c: dict[Pair, int]
    c_cycles: dict[int, int]
    c_paths_jj: dict[int, int]
    d: int
    r: int
    ell: int
    zcal: int
    n_components: int
    m: int

    def census_signature(self) -> Sig:
        """Canonical hashable form of c, for caching moment evaluations."""
        return tuple(sorted((j, k, cnt) for (j, k), cnt in self.c.items()))


def build_embedding_edge_graph(f: Injection, g: Injection, m: int, n: int) -> EdgeGraph:
    """Pair graph of two total injections on the same (m, n): the common
    pair graph of the two maps as partial injections on all of 0..m-1."""
    if f.m != m or g.m != m or f.n != n or g.n != n:
        raise InvalidMapError("injections do not match the stated sizes")
    dom = tuple(range(m))
    return build_common_edge_graph(PartialInjection(dom, f.image), PartialInjection(dom, g.image))


def build_common_edge_graph(f: PartialInjection, g: PartialInjection) -> EdgeGraph:
    """Pair graph of two partial injections with equal domain sizes.

    Each map adds C(m, 2) Edges, and an Edge of f coincides with one of g
    exactly when both send a common domain pair to the same range pair, so
    zcal is the number of coinciding Edges.
    """
    if f.m != g.m:
        raise InvalidMapError("partial injections must have equal domain sizes")
    m = f.m
    left: dict[Pair, int] = {}
    right: dict[Pair, int] = {}
    edges: set[tuple[int, int]] = set()
    for h in (f, g):
        dom, img = h.domain, h.image
        for a in range(m):
            u, x = dom[a], img[a]
            for b in range(a + 1, m):
                y = img[b]
                li = left.setdefault((u, dom[b]), len(left))  # domains are sorted
                ri = right.setdefault((x, y) if x < y else (y, x), len(right))
                edges.add((li, ri))
    gmap = dict(zip(g.domain, g.image))
    d = len(set(f.domain) & set(g.domain))
    r = len(set(f.image) & set(g.image))
    ell = sum(1 for u, x in zip(f.domain, f.image) if gmap.get(u) == x)
    zcal = m * (m - 1) - len(edges)
    return EdgeGraph(tuple(left), tuple(right), tuple(edges), d, r, ell, zcal, m)


def classify_components(t: EdgeGraph) -> ComponentProfile:
    """Census of t's components via union-find, tagging paths and cycles.

    A component with v Vertices is a cycle iff it has v Edges (equivalently,
    every Degree is 2), otherwise a path.
    """
    nl, nr = len(t.left), len(t.right)
    size = nl + nr
    parent = list(range(size))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    degree = [0] * size
    edge_count: dict[int, int] = {}
    for li, ri in t.edges:
        a, b = li, nl + ri
        if not 0 <= li < nl or not 0 <= ri < nr:
            raise StructuralError("edge references a missing Vertex")
        degree[a] += 1
        degree[b] += 1
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    if any(dv == 0 for dv in degree):
        raise StructuralError("isolated Vertex: constructors never produce one")
    if any(dv > 2 for dv in degree):
        raise StructuralError("Vertex of Degree > 2: not a valid pair graph")

    members: dict[int, tuple[int, int, int]] = {}  # root -> (j, k, edges)
    for v in range(size):
        root = find(v)
        j, k, e = members.get(root, (0, 0, 0))
        if v < nl:
            j += 1
        else:
            k += 1
        members[root] = (j, k, e)
    for li, ri in t.edges:
        root = find(li)
        j, k, e = members[root]
        members[root] = (j, k, e + 1)

    c: dict[Pair, int] = {}
    c_cycles: dict[int, int] = {}
    c_paths_jj: dict[int, int] = {}
    for j, k, e in members.values():
        c[(j, k)] = c.get((j, k), 0) + 1
        if j == k:
            if e == j + k:
                c_cycles[j] = c_cycles.get(j, 0) + 1
            else:
                c_paths_jj[j] = c_paths_jj.get(j, 0) + 1
        elif e != j + k - 1:
            raise StructuralError("unbalanced component that is not a path")
    return ComponentProfile(c, c_cycles, c_paths_jj, t.d, t.r, t.ell, t.zcal, len(members), t.m)


def check_variant(variant: str, q: float = 0.5) -> None:
    """Reject an unknown variant, and a host law other than q = 1/2 for the
    embedding variant, whose host graph is G(n, 1/2); without q, only the
    variant's name is checked."""
    if variant not in (EMBEDDING, COMMON):
        raise ParameterError(f"unknown variant {variant!r}")
    if variant == EMBEDDING and q != 0.5:
        raise ParameterError("embedding moments are defined for q = 1/2")


def _log_tau(params: ModelParams, j: int, k: int) -> float:
    tau = params.tau_jk(j, k)
    if tau == 0.0:
        raise ScaleError(f"tau_{{{j},{k}}} underflows to 0 at p={params.p!r}, q={params.q!r}")
    return math.log(tau)


def log_pair_moment(sig: Sig, params: ModelParams) -> float:
    """log of the product over a census signature (j, k, count) of
    tau_{j,k}^count; a ScaleError when a tau_{j,k} underflows to 0."""
    return math.fsum(cnt * _log_tau(params, j, k) for j, k, cnt in sig)


def pair_moment(profile: ComponentProfile, params: ModelParams, variant: str = COMMON) -> float:
    """Probability that both generating maps match the two random graphs:
    the product over the census of tau_{j,k}^count."""
    check_variant(variant, params.q)
    return math.exp(log_pair_moment(profile.census_signature(), params))
