"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles - enumerating
graphs, injections or subset pairs directly - and never touches the pair
graph census, the closed-form cardinalities, or the solvers' pruning logic,
so agreement with the library is meaningful evidence.  The exceptions,
`census_all_pairs` and `identity_census`, use the library's pair classifier
and check only its use of relabeling symmetry: the first sweeps every
ordered pair, the second pairs the identity with every map.
The pair-graph references build an EdgeGraph straight from two total
injections and count zcal pair by pair, without the library's builder.  The
sampler and sweep references at the end are the plain loops that the
library's inlined sampler and coupled sweep replace.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from isophase.edgegraph import (
    EMBEDDING,
    EdgeGraph,
    build_common_edge_graph,
    classify_components,
)
from isophase.experiments import PROBLEM_EMBED
from isophase.graphs import EdgeLaw, Graph, induced_subgraph
from isophase.isosearch import PartialInjection, common_exists, embed_exists
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


def per_cell_outcomes(config) -> dict:
    """(n, m) -> the SearchOutcome of every trial, each cell searched on its
    own: trial t's graphs are the coupled sweep's (one pattern on n's
    largest m, whose prefixes are the cells' patterns, or two graphs on n
    vertices), but no cell is settled by another."""
    out: dict = {}
    for n in config.n_values:
        sizes = config.resolve_m_values(n)
        embed = config.problem == PROBLEM_EMBED
        for t in range(config.trials):
            x = sample_gnp_reference(EdgeLaw(
                sizes[-1] if embed else n, config.p, fold_seed(config.master_seed, n, t, 0)))
            y = sample_gnp_reference(EdgeLaw(n, config.q, fold_seed(config.master_seed, n, t, 1)))
            for m in sizes:
                if embed:
                    outcome = embed_exists(induced_subgraph(x, range(m)), y, config.node_budget)
                else:
                    outcome = common_exists(x, y, m, config.node_budget)
                out.setdefault((n, m), []).append(outcome)
    return out
