import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sample_gnp_reference

from isophase import graphs
from isophase.errors import InvalidMapError, InvalidSubsetError, SizeError
from isophase.graphs import (
    EdgeLaw,
    Graph,
    from_text,
    induced_prefix,
    induced_subgraph,
    is_isomorphism,
    read_graph,
    sample_gnp,
    sample_gnp_many,
    to_text,
)
from isophase.rng import Xoshiro256StarStar

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_sample_p_zero_is_edgeless():
    for seed in (0, 1, 77):
        g = sample_gnp(EdgeLaw(5, 0.0, seed))
        assert g.edge_count() == 0


def test_sample_p_one_is_complete():
    for seed in (0, 1, 77):
        g = sample_gnp(EdgeLaw(5, 1.0, seed))
        assert g.edge_count() == 10


def test_sample_mean_edge_count_matches_binomial():
    # 435 pairs at p = 1/2: mean 217.5, sd of the mean 10.43/sqrt(trials).
    trials = 10_000
    drawn = sample_gnp_many([EdgeLaw(30, 0.5, seed) for seed in range(trials)])
    total = sum(g.edge_count() for g in drawn)
    mean = total / trials
    sigma = math.sqrt(435 * 0.25) / math.sqrt(trials)
    assert abs(mean - 217.5) < 3 * sigma


def test_sample_deterministic_and_seed_sensitive():
    a = sample_gnp(EdgeLaw(30, 0.37, 123456))
    b = sample_gnp(EdgeLaw(30, 0.37, 123456))
    c = sample_gnp(EdgeLaw(30, 0.37, 123457))
    assert a.adj == b.adj
    assert a.adj != c.adj


def test_sample_equals_the_stream_loop():
    # Edge cases of the integer threshold: the smallest subnormal, one ulp
    # from each end, and draws that land on it; seeds outside 0..2^64 - 1.
    ps = (0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 2.0**-1022, 0.5, 0.37, 1.0 / 3.0, 0.99)
    seeds = (0, 1, -1, -(2**70), 2**64, 2**64 + 5, 2**100 + 3, 123456789)
    for n in (*range(0, 12), 31, 64):
        for p in ps:
            for seed in seeds:
                law = EdgeLaw(n, p, seed)
                assert sample_gnp(law).adj == sample_gnp_reference(law).adj, (n, p, seed)
    # Rows from 64 on start at a later word of the row layout; n = 192 to 256
    # have stride 256, and n = 257 (stride 512) has a block of one row, its
    # last, which holds no pair.
    for n in (128, 192, 255, 256, 257):
        for seed in range(4):
            law = EdgeLaw(n, 0.5, seed)
            assert sample_gnp(law).adj == sample_gnp_reference(law).adj, (n, seed)


def _edge_p(n: int, seed: int) -> float:
    """The p one step of the 53-bit grid above the draw of the law's stream
    whose 11 low bits are largest: that draw is an edge, and any change to
    its low bits that carries past them removes the edge."""
    stream = Xoshiro256StarStar(seed)
    draws = (stream.next_u64() for _ in range(n * (n - 1) // 2))
    return ((max(draws, key=lambda u: u & 2047, default=0) >> 11) + 1) * 2.0**-53


def test_many_equals_the_stream_loop_lane_by_lane():
    # Each lane has its own p and seed; n crosses the smallest row stride of
    # 8 bits, the 64 columns of a row's word and the padding of n to a power
    # of two.  A lane is 72 bits wide, so every bit that the state's shifts
    # and rotations move past its top or bottom lands in a neighbour unless
    # its mask drops it.  Every other lane draws at an edge p (`_edge_p`), so
    # that even a change to a draw's low bits, which the comparison with p
    # reads only through their carry, flips an edge; the others take the
    # edge-case p values.  The reference costs most at n = 129 and 257, so
    # fewer lanes.
    ps = (0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 0.37, 0.5)
    seeds = (0, 1, -1, -(2**70), 2**64, 2**100 + 3, 123456789)
    sizes = {n: 130 for n in range(13)}
    sizes.update({63: 65, 64: 65, 65: 65, 128: 65, 129: 2, 257: 2})
    for n, most in sizes.items():
        laws = []
        for k in range(most):
            seed = seeds[k % len(seeds)] + k
            laws.append(EdgeLaw(n, ps[k // 2 % len(ps)] if k % 2 else _edge_p(n, seed), seed))
        expected = [sample_gnp_reference(law).adj for law in laws]
        for lanes in (0, 1, 2, 64, 65, 130):
            if lanes <= most:
                got = [g.adj for g in sample_gnp_many(laws[:lanes])]
                assert got == expected[:lanes], (n, lanes)


def test_many_splits_into_passes_of_the_batch_bound(monkeypatch):
    laws = [EdgeLaw(12, 0.5, seed) for seed in range(20)]
    whole = [g.adj for g in sample_gnp_many(laws)]
    monkeypatch.setattr(graphs, "_BATCH_PAIRS", 200)
    assert graphs.batch_lanes(12) == 3 and graphs.batch_lanes(4096) == 1
    assert [g.adj for g in sample_gnp_many(laws)] == whole


def test_many_rejects_mixed_vertex_counts():
    with pytest.raises(SizeError) as info:
        sample_gnp_many([EdgeLaw(5, 0.5, 1), EdgeLaw(6, 0.5, 2)])
    assert str(info.value) == "a batch draws one vertex count, got [5, 6]"


def test_symmetry_and_no_loops_after_sampling():
    g = sample_gnp(EdgeLaw(20, 0.5, 9))
    for i in range(20):
        assert not (g.adj[i] >> i) & 1
        for j in range(20):
            assert ((g.adj[i] >> j) & 1) == ((g.adj[j] >> i) & 1)


def test_vertex_cap():
    with pytest.raises(SizeError):
        Graph(4097)
    with pytest.raises(SizeError):
        EdgeLaw(5000, 0.5, 0)


def test_constructor_rejects_asymmetry_and_loops():
    with pytest.raises(InvalidSubsetError):
        Graph(2, [0b10, 0b00])
    with pytest.raises(InvalidSubsetError):
        Graph(2, [0b01, 0b01])


def test_induced_full_subset_is_identity():
    g = sample_gnp(EdgeLaw(8, 0.5, 3))
    assert induced_subgraph(g, list(range(8))) == g


def test_induced_path_endpoints():
    h = induced_subgraph(P3, [0, 2])
    assert h.n == 2 and h.edge_count() == 0


def test_induced_complete_graph():
    h = induced_subgraph(K4, [1, 3])
    assert h.n == 2 and h.has_edge(0, 1)


def test_induced_rejects_bad_subsets():
    with pytest.raises(InvalidSubsetError):
        induced_subgraph(P3, [0, 0])
    with pytest.raises(InvalidSubsetError):
        induced_subgraph(P3, [2, 1])
    with pytest.raises(InvalidSubsetError):
        induced_subgraph(P3, [0, 3])


def test_induced_prefix_equals_the_induced_subgraph():
    for g in (*sample_gnp_many([EdgeLaw(13, p, 5) for p in (0.0, 0.37, 1.0)]), P3, Graph(0)):
        for m in range(g.n + 1):
            assert induced_prefix(g, m) == induced_subgraph(g, range(m)), (g, m)
    for m in (-1, 4):
        with pytest.raises(InvalidSubsetError):
            induced_prefix(P3, m)


def test_cached_non_adjacency_rows_equal_fresh_ones():
    drawn = sample_gnp_many([EdgeLaw(65, p, 7) for p in (0.0, 0.37, 1.0)])
    built = (
        *drawn,
        induced_subgraph(drawn[1], [0, 3, 4, 9, 17, 64]),
        induced_prefix(drawn[1], 20),
        Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
        Graph(4, [0b0110, 0b0001, 0b0001, 0]),
        Graph(0),
    )
    for g in built:
        fresh = tuple(sum(1 << j for j in range(g.n) if j != i and not g.has_edge(i, j))
                      for i in range(g.n))
        assert g.non == fresh, g
        assert g.non is g.non  # built once


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1), st.data())
def test_induced_composition(seed, data):
    g = sample_gnp(EdgeLaw(10, 0.5, seed))
    s = sorted(data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=8)))
    t_rel = sorted(data.draw(st.sets(st.integers(0, len(s) - 1), min_size=1, max_size=len(s))))
    once = induced_subgraph(induced_subgraph(g, s), t_rel)
    direct = induced_subgraph(g, [s[i] for i in t_rel])
    assert once == direct


def test_is_isomorphism_identity_and_symmetry():
    g = sample_gnp(EdgeLaw(7, 0.4, 11))
    assert is_isomorphism(g, g, list(range(7)))
    perm = [3, 1, 4, 0, 6, 5, 2]
    h = Graph.from_edges(7, [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges()])
    assert is_isomorphism(g, h, perm)
    inverse = [0] * 7
    for i, v in enumerate(perm):
        inverse[v] = i
    assert is_isomorphism(h, g, inverse)


def test_is_isomorphism_triangle_any_permutation():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]):
        assert is_isomorphism(k3, k3, perm)


def test_is_isomorphism_degree_mismatch():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for perm in ([0, 1, 2, 3], [1, 0, 2, 3], [3, 2, 1, 0]):
        assert not is_isomorphism(p4, star, perm)


def test_is_isomorphism_rejects_bad_maps():
    with pytest.raises(InvalidMapError):
        is_isomorphism(P3, P3, [0, 1, 1])
    with pytest.raises(InvalidMapError):
        is_isomorphism(P3, K4, [0, 1, 2])


def test_text_round_trip():
    g = sample_gnp(EdgeLaw(9, 0.5, 21))
    assert from_text(to_text(g)) == g
    assert to_text(Graph(3)) == "3\n"


def test_text_rejects_unsorted_edges():
    with pytest.raises(InvalidSubsetError):
        from_text("3\n2 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n0 1\n1 2\n0 1\n", "repeated edge line: '0 1'"),
        ("3\n0  1\n0 1\n", "repeated edge line: '0 1'"),
        ("3\n0 x\n", "non-integer token in line '0 x'"),
        ("3\n0 1.5\n", "non-integer token in line '0 1.5'"),
        ("three\n", "non-integer token in line 'three'"),
        ("3 4\n", "first line must be the vertex count"),
    ],
)
def test_text_rejects_malformed_lines(text, message):
    with pytest.raises(InvalidSubsetError, match=re.escape(message)):
        from_text(text)


def test_read_graph_rejects_non_utf8(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"3\n\xff\xfe\n")
    with pytest.raises(InvalidSubsetError, match="is not UTF-8 text"):
        read_graph(str(path))


def test_from_edges_checks_the_cap_before_allocating():
    with pytest.raises(SizeError):
        Graph.from_edges(10**12, [])
    with pytest.raises(SizeError):
        from_text("1000000000000\n")
