from fractions import Fraction

import pytest

from isophase import edgegraph
from isophase.edgegraph import (
    build_common_edge_graph,
    build_embedding_edge_graph,
    classify_components,
    pair_moment,
)
from isophase.errors import InvalidMapError, ParameterError
from isophase.isosearch import Injection, PartialInjection
from isophase.rng import Xoshiro256StarStar
from isophase.thresholds import derive_params
from oracles import (
    dump_edge_graph,
    embedding_edge_graph_reference,
    pair_moment_exact,
    zcal_reference,
)


def test_equal_total_maps_collapse_to_singletons():
    f = Injection(4, 6, (0, 1, 2, 3))
    prof = classify_components(build_embedding_edge_graph(f, f, 4, 6))
    assert prof.c == {(1, 1): 6}
    assert prof.n_components == 6
    assert prof.zcal == 6 and prof.ell == 4 and prof.r == 4


def test_disjoint_ranges_give_one_left_two_right():
    f = Injection(3, 6, (0, 1, 2))
    g = Injection(3, 6, (3, 4, 5))
    prof = classify_components(build_embedding_edge_graph(f, g, 3, 6))
    assert prof.c == {(1, 2): 3}
    assert prof.r == 0 and prof.ell == 0 and prof.zcal == 0


def test_total_degrees_at_most_two():
    stream = Xoshiro256StarStar(3)
    for _ in range(200):
        m = 2 + stream.randint_below(4)
        n = m + stream.randint_below(6)
        f = Injection(m, n, tuple(stream.sample_distinct(n, m)))
        g = Injection(m, n, tuple(stream.sample_distinct(n, m)))
        t = build_embedding_edge_graph(f, g, m, n)
        deg = [0] * (len(t.left) + len(t.right))
        for li, ri in t.edges:
            deg[li] += 1
            deg[len(t.left) + ri] += 1
        assert max(deg) <= 2
        # left degree is 1 exactly when both maps send the pair to the same place
        fi, gi = f.image, g.image
        for idx, (a, b) in enumerate(t.left):
            same = {fi[a], fi[b]} == {gi[a], gi[b]}
            assert deg[idx] == (1 if same else 2)


def test_embedding_size_mismatch():
    f = Injection(3, 6, (0, 1, 2))
    g = Injection(3, 7, (0, 1, 2))
    with pytest.raises(InvalidMapError):
        build_embedding_edge_graph(f, g, 3, 6)


def test_embedding_builder_matches_reference():
    # The embedding pair graph is the common builder's on the domain 0..m-1;
    # it must classify exactly like the direct total-injection construction.
    stream = Xoshiro256StarStar(11)
    for _ in range(400):
        m = stream.randint_below(8)
        n = m + stream.randint_below(15 - m)
        f = Injection(m, n, tuple(stream.sample_distinct(n, m)))
        g = Injection(m, n, tuple(stream.sample_distinct(n, m)))
        t = build_embedding_edge_graph(f, g, m, n)
        ref = embedding_edge_graph_reference(f, g, m, n)
        assert t.left == ref.left
        got, want = classify_components(t), classify_components(ref)
        for field in ("c", "c_cycles", "c_paths_jj", "d", "r", "ell", "zcal", "n_components"):
            assert getattr(got, field) == getattr(want, field), (field, f, g)


def test_zcal_counts_common_pairs_sent_alike():
    # zcal comes from the edge count; it must equal the direct pair count.
    stream = Xoshiro256StarStar(12)
    for _ in range(400):
        m = stream.randint_below(8)
        n = m + stream.randint_below(15 - m)
        f = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        g = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        assert build_common_edge_graph(f, g).zcal == zcal_reference(f, g), (f, g)


def test_equal_partial_maps():
    f = PartialInjection((0, 2, 3), (1, 4, 0))
    prof = classify_components(build_common_edge_graph(f, f))
    assert prof.c == {(1, 1): 3}
    assert prof.d == 3 and prof.r == 3 and prof.ell == 3 and prof.zcal == 3


def test_cyclic_shift_makes_one_six_cycle():
    f = PartialInjection((0, 1, 2), (0, 1, 2))
    g = PartialInjection((0, 1, 2), (1, 2, 0))
    prof = classify_components(build_common_edge_graph(f, g))
    assert prof.c == {(3, 3): 1}
    assert prof.c_cycles == {3: 1}
    assert prof.c_paths_jj == {}
    assert prof.d == 3 and prof.r == 3 and prof.ell == 0 and prof.zcal == 0


def test_disjoint_partial_pairs_split_into_singleton_edges():
    f = PartialInjection((0, 1, 2), (0, 1, 2))
    g = PartialInjection((3, 4, 5), (3, 4, 5))
    prof = classify_components(build_common_edge_graph(f, g))
    assert prof.c == {(1, 1): 6}
    assert prof.d == 0 and prof.r == 0


def test_partial_size_mismatch():
    with pytest.raises(InvalidMapError):
        build_common_edge_graph(PartialInjection((0,), (0,)), PartialInjection((0, 1), (0, 1)))


def test_pair_moment_single_component_cases():
    params = derive_params(0.3, 0.6)
    f = PartialInjection((0, 1), (0, 1))
    prof = classify_components(build_common_edge_graph(f, f))
    assert prof.c == {(1, 1): 1}
    assert pair_moment(prof, params) == pytest.approx(params.tau, rel=1e-15)

    fc = PartialInjection((0, 1, 2), (0, 1, 2))
    gc = PartialInjection((0, 1, 2), (1, 2, 0))
    prof_c = classify_components(build_common_edge_graph(fc, gc))
    want = 0.3**3 * 0.6**3 + 0.7**3 * 0.4**3
    assert pair_moment(prof_c, params) == pytest.approx(want, rel=1e-12)


def test_pair_moment_embedding_requires_half():
    f = Injection(3, 5, (0, 1, 2))
    prof = classify_components(build_embedding_edge_graph(f, f, 3, 5))
    with pytest.raises(ParameterError):
        pair_moment(prof, derive_params(0.3, 0.6), edgegraph.EMBEDDING)
    val = pair_moment(prof, derive_params(0.3, 0.5), edgegraph.EMBEDDING)
    assert val == pytest.approx(0.5**3, rel=1e-12)


def test_pair_moment_matches_exact_rational():
    # Log-domain evaluation vs exact fractions, well within 1e-12 relative.
    stream = Xoshiro256StarStar(8)
    params = derive_params(0.25, 0.625)
    pf, qf = Fraction(1, 4), Fraction(5, 8)
    for _ in range(100):
        m = 2 + stream.randint_below(4)
        n = m + stream.randint_below(5)
        f = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        g = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        prof = classify_components(build_common_edge_graph(f, g))
        log_val = pair_moment(prof, params)
        exact = pair_moment_exact(prof, pf, qf)
        assert abs(log_val - float(exact)) <= 1e-12 * float(exact)


def test_dump_format_round_shape():
    f = PartialInjection((0, 1), (2, 3))
    g = PartialInjection((1, 2), (3, 4))
    text = dump_edge_graph(build_common_edge_graph(f, g))
    lines = text.splitlines()
    assert lines[0] == "left 2"
    assert "right 2" in lines
    assert lines[-1].count(" ") == 1
