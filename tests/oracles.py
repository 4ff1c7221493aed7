"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles - enumerating
graphs, injections or subset pairs directly - and never touches the pair
graph census, the closed-form cardinalities, or the solvers' pruning logic,
so agreement with the library is meaningful evidence.  The exceptions,
`census_all_pairs` and `identity_census`, use the library's pair classifier
and check only its use of relabeling symmetry: the first sweeps every
ordered pair, the second pairs the identity with every map.  Through the
same builder and classifier, `representative` gives each orbit class of
the census one partner of the identity whose pair graph is built and
classified, to check the entry the census reads off the class.
The pair-graph references build an EdgeGraph straight from two total
injections and count zcal pair by pair, without the library's builder.  The
sampler and sweep references are the plain loops that the library's
inlined sampler and coupled sweep replace, and `search_reference` at the end
is the static-order search core that the label-class core replaced.
Last come helpers that only the tests call: the exact-rational pair moment,
the pair-graph text dump, the sweep CSV reader and the von Neumann ordinals.
"""

from __future__ import annotations

import importlib.util
import math
import os
from functools import lru_cache
from itertools import combinations, permutations
from typing import get_type_hints

import numpy as np

from isophase.edgegraph import (
    EMBEDDING,
    EdgeGraph,
    build_common_edge_graph,
    classify_components,
)
from isophase.errors import InvalidInputError, SizeError
from isophase.experiments import CSV_COLUMNS, PROBLEM_EMBED, CellResult
from isophase.graphs import EdgeLaw, Graph, induced_subgraph
from isophase.isosearch import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    Injection,
    PartialInjection,
    SearchOutcome,
    common_exists,
    embed_exists,
)
from isophase.rado import HereditarilyFiniteSet
from isophase.rng import Xoshiro256StarStar, fold_seed


def pair_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_weights(n_pairs: int, p: float) -> np.ndarray:
    """Probability of each of the 2^n_pairs graphs under edge probability p."""
    codes = np.arange(1 << n_pairs, dtype=np.uint32)
    pop = np.zeros(1 << n_pairs, dtype=np.int32)
    for b in range(n_pairs):
        pop += ((codes >> b) & 1).astype(np.int32)
    return (p**pop) * ((1.0 - p) ** (n_pairs - pop))


def _bit_gather(codes: np.ndarray, positions: list[int]) -> np.ndarray:
    out = np.zeros(codes.shape, dtype=np.uint32)
    for t, pos in enumerate(positions):
        out |= (((codes >> pos) & 1) << t).astype(np.uint32)
    return out


@lru_cache(maxsize=None)
def common_count_matrix(n: int, m: int) -> np.ndarray:
    """N[X, Y] = number of size-m partial injections matching graphs X and Y.

    Graphs are encoded as edge bitmaps over the lexicographic pair order.
    """
    pairs = pair_positions(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    G = 1 << len(pairs)
    codes = np.arange(G, dtype=np.uint32)
    doms = list(combinations(range(n), m))
    imgs = list(permutations(range(n), m))
    ycodes = {}
    for img in imgs:
        pos = []
        for a in range(m):
            for b in range(a + 1, m):
                u, v = img[a], img[b]
                pos.append(index[(u, v) if u < v else (v, u)])
        ycodes[img] = _bit_gather(codes, pos)
    N = np.zeros((G, G), dtype=np.int32)
    for dom in doms:
        pos = [index[(dom[a], dom[b])] for a in range(m) for b in range(a + 1, m)]
        xcode = _bit_gather(codes, pos)
        for img in imgs:
            N += xcode[:, None] == ycodes[img][None, :]
    return N


@lru_cache(maxsize=None)
def embed_count_matrix(m: int, n: int) -> np.ndarray:
    """N[X, Y] = number of injections embedding pattern X into host Y."""
    host_pairs = pair_positions(n)
    index = {pair: k for k, pair in enumerate(host_pairs)}
    GX = 1 << (m * (m - 1) // 2)
    GY = 1 << len(host_pairs)
    ycodes_all = np.arange(GY, dtype=np.uint32)
    xcode = np.arange(GX, dtype=np.uint32)  # pattern pairs in lex order are the bits
    N = np.zeros((GX, GY), dtype=np.int32)
    for img in permutations(range(n), m):
        pos = []
        for a in range(m):
            for b in range(a + 1, m):
                u, v = img[a], img[b]
                pos.append(index[(u, v) if u < v else (v, u)])
        ycode = _bit_gather(ycodes_all, pos)
        N += xcode[:, None] == ycode[None, :]
    return N


def first_moment(N: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> float:
    return float(wx @ N.astype(np.float64) @ wy)


def second_moment(N: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> float:
    Nf = N.astype(np.float64)
    return float(wx @ (Nf * Nf) @ wy)


# ---------------------------------------------------------------------------
# overlap histograms over map pairs (for the cardinality identities)

@lru_cache(maxsize=None)
def overlap_histogram_embedding(n: int, m: int) -> dict[tuple[int, int], int]:
    """(r, ell) -> number of ordered pairs of total injections."""
    imgs = list(permutations(range(n), m))
    masks = np.array([sum(1 << v for v in img) for img in imgs], dtype=np.int64)
    F = np.array(imgs, dtype=np.int16) if m else np.zeros((len(imgs), 0), np.int16)
    pop = np.array([bin(x).count("1") for x in range(1 << n)], dtype=np.int8)
    r_mat = pop[(masks[:, None] & masks[None, :])]
    ell_mat = (F[:, None, :] == F[None, :, :]).sum(axis=2).astype(np.int16)
    key = r_mat.astype(np.int32) * (m + 1) + ell_mat
    counts = np.bincount(key.ravel(), minlength=(m + 1) * (m + 1))
    hist = {}
    for r in range(m + 1):
        for ell in range(m + 1):
            c = int(counts[r * (m + 1) + ell])
            if c:
                hist[(r, ell)] = c
    return hist


@lru_cache(maxsize=None)
def overlap_histogram_common(n: int, m: int) -> dict[tuple[int, int, int], int]:
    """(d, r, ell) -> number of ordered pairs of partial injections."""
    maps = [
        (dom, img)
        for dom in combinations(range(n), m)
        for img in permutations(range(n), m)
    ]
    M = len(maps)
    dmask = np.zeros(M, dtype=np.int64)
    rmask = np.zeros(M, dtype=np.int64)
    F = np.full((M, n), -1, dtype=np.int16)
    for k, (dom, img) in enumerate(maps):
        dmask[k] = sum(1 << u for u in dom)
        rmask[k] = sum(1 << v for v in img)
        for u, v in zip(dom, img):
            F[k, u] = v
    pop = np.array([bin(x).count("1") for x in range(1 << n)], dtype=np.int8)
    d_mat = pop[(dmask[:, None] & dmask[None, :])]
    r_mat = pop[(rmask[:, None] & rmask[None, :])]
    eq = (F[:, None, :] == F[None, :, :]) & (F[:, None, :] >= 0)
    ell_mat = eq.sum(axis=2).astype(np.int16)
    base = m + 1
    key = (d_mat.astype(np.int32) * base + r_mat) * base + ell_mat
    counts = np.bincount(key.ravel(), minlength=base**3)
    hist = {}
    for d in range(base):
        for r in range(base):
            for ell in range(base):
                c = int(counts[(d * base + r) * base + ell])
                if c:
                    hist[(d, r, ell)] = c
    return hist


# ---------------------------------------------------------------------------
# censuses over every ordered map pair and over every partner of the identity
# (references for the orbit census)

def census_all_pairs(maps: list, classify) -> dict:
    """key -> {entry: count} over all ordered pairs (f, g) of maps, where
    classify(f, g) returns (key, entry)."""
    buckets: dict = {}
    for f in maps:
        for g in maps:
            key, entry = classify(f, g)
            inner = buckets.setdefault(key, {})
            inner[entry] = inner.get(entry, 0) + 1
    return buckets


def identity_census(n: int, m: int, variant: str) -> dict:
    """The census of `variant` from the pairs (identity, g) over every map g,
    scaled by the number of maps: key -> {(signature, components): count},
    keyed by (r, ell) for embedding and (d, r) for common.

    Exact because relabeling acts transitively on the maps and carries each
    pair graph to an isomorphic one.  Its cost grows as C(n, m) (n)_m.
    """
    domains = ([tuple(range(m))] if variant == EMBEDDING
               else list(combinations(range(n), m)))
    identity = PartialInjection(tuple(range(m)), tuple(range(m)))
    buckets: dict = {}
    for dom in domains:
        for img in permutations(range(n), m):
            prof = classify_components(build_common_edge_graph(identity, PartialInjection(dom, img)))
            key = (prof.r, prof.ell) if variant == EMBEDDING else (prof.d, prof.r)
            inner = buckets.setdefault(key, {})
            entry = (prof.census_signature(), prof.n_components)
            inner[entry] = inner.get(entry, 0) + 1
    maps = len(domains) * math.perm(n, m)
    return {key: {entry: cnt * maps for entry, cnt in inner.items()}
            for key, inner in buckets.items()}


def representative(m: int, cls: tuple) -> PartialInjection:
    """A partner map of an orbit class of `moments._classes`: cycles and
    chains laid on 0..m-1 in turn, with fresh points from m on for the
    domain and range outside [m]."""
    image_of: dict[int, int] = {}
    pos, out_dom, out_img = 0, m, m
    for (length, tag), mult in cls:
        for _ in range(mult):
            last = pos + length - 1
            for u in range(pos, last):
                image_of[u] = u + 1
            if tag is None:
                image_of[last] = pos
            else:
                hit, unmapped = tag
                if hit:
                    image_of[out_dom] = pos
                    out_dom += 1
                if not unmapped:
                    image_of[last] = out_img
                    out_img += 1
            pos += length
    while len(image_of) < m:  # domain points outside [m] sent outside [m]
        image_of[out_dom] = out_img
        out_dom += 1
        out_img += 1
    domain = tuple(sorted(image_of))
    return PartialInjection(domain, tuple(image_of[u] for u in domain))


# ---------------------------------------------------------------------------
# plain per-graph brute force (slow, tiny instances only)

def brute_embed_count(x, y) -> int:
    count = 0
    for img in permutations(range(y.n), x.n):
        ok = True
        for a in range(x.n):
            for b in range(a + 1, x.n):
                if x.has_edge(a, b) != y.has_edge(img[a], img[b]):
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def brute_common_count(x, y, m: int) -> int:
    count = 0
    for dom in combinations(range(x.n), m):
        for img in permutations(range(y.n), m):
            ok = True
            for a in range(m):
                for b in range(a + 1, m):
                    if x.has_edge(dom[a], dom[b]) != y.has_edge(img[a], img[b]):
                        ok = False
                        break
                if not ok:
                    break
            count += ok
    return count


def brute_max_common(x, y) -> int:
    """Largest m admitting a common induced subgraph, by subset-pair scan."""
    for m in range(x.n, 0, -1):
        for sub_x in combinations(range(x.n), m):
            for sub_y in combinations(range(y.n), m):
                for perm in permutations(sub_y):
                    ok = True
                    for a in range(m):
                        for b in range(a + 1, m):
                            if x.has_edge(sub_x[a], sub_x[b]) != y.has_edge(perm[a], perm[b]):
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        return m
    return 0


# ---------------------------------------------------------------------------
# pair-graph references (direct constructions the builder is checked against)

def _sorted_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def embedding_edge_graph_reference(f, g, m: int, n: int) -> EdgeGraph:
    """Pair graph of two total injections, built directly: left Vertices are
    all pattern pairs, right Vertices the images under f and g, deduplicated;
    Edges {e, f(e)} and {e, g(e)} collapse to one when f(e) = g(e)."""
    fi, gi = f.image, g.image
    left: list = []
    right: list = []
    right_index: dict = {}
    edges: list = []
    ell = sum(1 for u in range(m) if fi[u] == gi[u])
    zcal = 0
    for a in range(m):
        for b in range(a + 1, m):
            li = len(left)
            left.append((a, b))
            ef = _sorted_pair(fi[a], fi[b])
            eg = _sorted_pair(gi[a], gi[b])
            for e in (ef, eg) if ef != eg else (ef,):
                ri = right_index.get(e)
                if ri is None:
                    ri = len(right)
                    right_index[e] = ri
                    right.append(e)
                edges.append((li, ri))
            if ef == eg:
                zcal += 1
    r = len(set(fi) & set(gi))
    return EdgeGraph(tuple(left), tuple(right), tuple(edges), m, r, ell, zcal, m)


def zcal_reference(f, g) -> int:
    """Common domain pairs that f and g send to the same range pair."""
    fmap = dict(zip(f.domain, f.image))
    gmap = dict(zip(g.domain, g.image))
    common = [u for u in f.domain if u in gmap]
    return sum(
        1
        for i, a in enumerate(common)
        for b in common[i + 1:]
        if _sorted_pair(fmap[a], fmap[b]) == _sorted_pair(gmap[a], gmap[b])
    )


# ---------------------------------------------------------------------------
# the sampler and the per-cell sweep (references for the inlined sampler and
# the coupled sweep)

def sample_gnp_reference(law: EdgeLaw) -> Graph:
    """G(n, p) drawn through the stream's methods: one random() per pair
    {i, j}, i < j, in lexicographic order, the edge present iff it is < p."""
    stream = Xoshiro256StarStar(law.seed)
    rows = [0] * law.n
    for i in range(law.n):
        for j in range(i + 1, law.n):
            if stream.random() < law.p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(law.n, rows)


def perfbench_workloads():
    """The benchmark's `perfbench/workloads.py`, loaded as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_cell_outcomes(config, reference: bool = False) -> dict:
    """(n, m) -> the SearchOutcome of every trial, each cell searched on its
    own: trial t's graphs are the coupled sweep's (one pattern on n's
    largest m, whose prefixes are the cells' patterns, or two graphs on n
    vertices), but no cell is settled by another.  With `reference` the
    searches run on `search_reference`, and as in the sweep, the cells above
    a trial's first outcome that is not FOUND repeat that outcome unsearched."""
    out: dict = {}
    for n in config.n_values:
        sizes = config.resolve_m_values(n)
        embed = config.problem == PROBLEM_EMBED
        for t in range(config.trials):
            x = sample_gnp_reference(EdgeLaw(
                sizes[-1] if embed else n, config.p, fold_seed(config.master_seed, n, t, 0)))
            y = sample_gnp_reference(EdgeLaw(n, config.q, fold_seed(config.master_seed, n, t, 1)))
            settled = None
            for m in sizes:
                if settled is not None:
                    outcome = settled
                elif embed:
                    pattern = induced_subgraph(x, range(m))
                    outcome = (reference_outcome(pattern, y, None, config.node_budget) if reference
                               else embed_exists(pattern, y, config.node_budget))
                elif reference:
                    outcome = reference_outcome(x, y, m, config.node_budget)
                else:
                    outcome = common_exists(x, y, m, config.node_budget)
                if reference and outcome.status != FOUND:
                    settled = outcome
                out.setdefault((n, m), []).append(outcome)
    return out


# ---------------------------------------------------------------------------
# the previous search core (reference for the label-class core)

def _pattern_order(x: Graph) -> list[int]:
    # Static most-constrained-first order: descending degree, index tiebreak.
    return sorted(range(x.n), key=lambda v: (-x.adj[v].bit_count(), v))


def _reference_core(xrows, yrows, m: int, budget: int, count_all: bool):
    """The static-order DFS over size-m partial injections with sorted domains.

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


def search_reference(x, y, m, budget: int, count_all: bool):
    """The search core that the label-class core of `isosearch` replaced.

    It visits domain vertices in a fixed order and filters candidates one
    level ahead.  m = None is the embedding query, run on x relabeled into a
    most-constrained-first order: with m = x.n the domain cannot advance,
    so level k always holds pattern vertex order[k].  Returns (count,
    (domain, image) or None, nodes, exceeded), the image in x's own labels.
    """
    if m is not None:
        return _reference_core(x.adj, y.adj, m, budget, count_all)
    order = _pattern_order(x)
    xrows = [
        sum(1 << i for i, w in enumerate(order) if (x.adj[v] >> w) & 1) for v in order
    ]
    count, pair, nodes, exceeded = _reference_core(xrows, y.adj, x.n, budget, count_all)
    if pair is None:
        return count, None, nodes, exceeded
    image = [0] * x.n
    for k, v in enumerate(order):
        image[v] = pair[1][k]
    return count, (tuple(range(x.n)), tuple(image)), nodes, exceeded


def reference_outcome(x, y, m, budget: int) -> SearchOutcome:
    """`search_reference`'s answer to embed_exists (m = None) or to
    common_exists, as the library reports it."""
    _, pair, nodes, exceeded = search_reference(x, y, m, budget, False)
    if exceeded:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if pair is None:
        return SearchOutcome(EXHAUSTED, None, nodes)
    witness = Injection(x.n, y.n, pair[1]) if m is None else PartialInjection(*pair)
    return SearchOutcome(FOUND, witness, nodes)


def pair_moment_exact(profile, p, q):
    """The pair moment in exact rationals: p and q are Fractions, and so is
    the product over the census of tau_{j,k}^count."""
    total = 1
    for (j, k), cnt in profile.c.items():
        tau = p**j * q**k + (1 - p) ** j * (1 - q) ** k
        total *= tau**cnt
    return total


def dump_edge_graph(t: EdgeGraph) -> str:
    """Text dump (left list, right list, edge list) of a pair graph."""
    lines = [f"left {len(t.left)}"]
    lines.extend(f"{a} {b}" for a, b in t.left)
    lines.append(f"right {len(t.right)}")
    lines.extend(f"{a} {b}" for a, b in t.right)
    lines.append(f"edges {len(t.edges)}")
    lines.extend(f"{li} {ri}" for li, ri in sorted(t.edges))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict]:
    """Inverse of the sweep's CSV export, for round-trip checks."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_COLUMNS:
        raise InvalidInputError("unexpected CSV header")
    casts = get_type_hints(CellResult)  # each column's str, int or float
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(casts):
            raise InvalidInputError(f"bad CSV row: {ln!r}")
        out.append({key: casts[key](value) for key, value in zip(casts, parts)})
    return out


def von_neumann(k: int) -> HereditarilyFiniteSet:
    """The finite ordinal k as a set: 0 = {} and k = {0, ..., k-1}."""
    if k < 0:
        raise InvalidInputError("ordinals are natural numbers")
    out = []
    for _ in range(k):
        out.append(HereditarilyFiniteSet(out))
    return HereditarilyFiniteSet(out)
