import pytest

import oracles
from isophase.errors import BudgetExceededError, InvalidMapError, ParameterError, SizeError
from isophase.experiments import ExperimentConfig
from isophase.graphs import EdgeLaw, Graph, induced_subgraph, sample_gnp
from isophase.isosearch import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    Injection,
    PartialInjection,
    common_count,
    common_exists,
    embed_count,
    embed_exists,
    is_partial_isomorphism,
    max_common_size,
)
from isophase.rng import fold_seed

E2 = Graph(2)
E3 = Graph(3)
EDGE = Graph.from_edges(2, [(0, 1)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def verify_embedding(x, y, witness):
    sub = induced_subgraph(y, sorted(witness.image))
    rank = {v: i for i, v in enumerate(sorted(witness.image))}
    return all(
        x.has_edge(a, b) == sub.has_edge(rank[witness.image[a]], rank[witness.image[b]])
        for a in range(x.n)
        for b in range(a + 1, x.n)
    )


def test_partial_isomorphism_examples():
    assert is_partial_isomorphism(K3, P3, PartialInjection((0,), (2,)))
    assert is_partial_isomorphism(K3, K3, PartialInjection((0, 1, 2), (0, 1, 2)))
    assert not is_partial_isomorphism(K3, P3, PartialInjection((0, 1, 2), (0, 1, 2)))


def test_partial_injection_validation():
    with pytest.raises(InvalidMapError):
        PartialInjection((1, 0), (0, 1))
    with pytest.raises(InvalidMapError):
        PartialInjection((0, 1), (1, 1))
    with pytest.raises(InvalidMapError):
        Injection(3, 2, (0, 1, 2))


def test_embed_exists_examples():
    assert embed_exists(E2, E3).status == FOUND
    assert embed_exists(K3, P3).status == EXHAUSTED
    out = embed_exists(EDGE, P3)
    assert out.status == FOUND
    assert verify_embedding(EDGE, P3, out.witness)


def test_embed_count_examples():
    assert embed_count(E2, E3).value == 6
    assert embed_count(EDGE, K3).value == 6
    assert embed_count(EDGE, P3).value == 4
    assert embed_count(Graph(0), E3).value == 1


def test_embed_size_error():
    with pytest.raises(SizeError):
        embed_exists(E3, E2)


def test_common_examples():
    assert common_exists(K3, E3, 1).status == FOUND
    assert common_exists(K3, E3, 2).status == EXHAUSTED
    out = common_exists(K3, K3, 3)
    assert out.status == FOUND
    assert common_count(K3, K3, 3).value == 6
    assert common_count(K3, E3, 2).value == 0
    assert common_count(E2, EDGE, 1).value == 4
    assert common_count(K3, K3, 0).value == 1
    assert common_exists(K3, E3, 0).status == FOUND


def test_common_size_error():
    with pytest.raises(SizeError):
        common_exists(K3, E3, 4)


def test_found_witnesses_reverify():
    for seed in range(30):
        x = sample_gnp(EdgeLaw(4, 0.5, 2 * seed))
        y = sample_gnp(EdgeLaw(8, 0.5, 2 * seed + 1))
        out = embed_exists(x, y)
        if out.status == FOUND:
            assert verify_embedding(x, y, out.witness)
        res = common_exists(x, sample_gnp(EdgeLaw(4, 0.5, 1000 + seed)), 3)
        if res.status == FOUND:
            assert is_partial_isomorphism(
                x, sample_gnp(EdgeLaw(4, 0.5, 1000 + seed)), res.witness
            )


def test_count_matches_exists():
    for seed in range(40):
        x = sample_gnp(EdgeLaw(3, 0.6, 3 * seed))
        y = sample_gnp(EdgeLaw(6, 0.4, 3 * seed + 1))
        assert (embed_count(x, y).value > 0) == (embed_exists(x, y).status == FOUND)
        z = sample_gnp(EdgeLaw(6, 0.5, 3 * seed + 2))
        m = seed % 5
        assert (common_count(z, y, m).value > 0) == (common_exists(z, y, m).status == FOUND)


def test_oracle_equivalence_small_grid():
    # All graph pairs, via the vectorized count matrices, on a seeded sample.
    for m, n in [(2, 4), (3, 4), (3, 5)]:
        N = oracles.embed_count_matrix(m, n)
        pairs_x = m * (m - 1) // 2
        pairs_y = n * (n - 1) // 2
        for seed in range(25):
            xc = fold_seed(seed, 0) % (1 << pairs_x)
            yc = fold_seed(seed, 1) % (1 << pairs_y)
            x = _graph_from_code(m, xc)
            y = _graph_from_code(n, yc)
            assert embed_count(x, y).value == int(N[xc, yc])
    for n, m in [(4, 2), (5, 3)]:
        N = oracles.common_count_matrix(n, m)
        pairs = n * (n - 1) // 2
        for seed in range(25):
            xc = fold_seed(seed, 2) % (1 << pairs)
            yc = fold_seed(seed, 3) % (1 << pairs)
            assert common_count(_graph_from_code(n, xc), _graph_from_code(n, yc), m).value == int(
                N[xc, yc]
            )


def _graph_from_code(n, code):
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (code >> k) & 1:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def test_monotone_in_pattern_restriction():
    for seed in range(25):
        x = sample_gnp(EdgeLaw(5, 0.5, 7 * seed))
        y = sample_gnp(EdgeLaw(9, 0.5, 7 * seed + 1))
        if embed_exists(x, y).status == FOUND:
            assert embed_exists(induced_subgraph(x, [0, 1, 2, 3]), y).status == FOUND


def test_label_invariance():
    import random

    rng = random.Random(4)
    for seed in range(15):
        x = sample_gnp(EdgeLaw(4, 0.5, 11 * seed))
        y = sample_gnp(EdgeLaw(7, 0.5, 11 * seed + 1))
        base_exists = embed_exists(x, y).status
        base_count = embed_count(x, y).value
        perm_x = list(range(4))
        perm_y = list(range(7))
        rng.shuffle(perm_x)
        rng.shuffle(perm_y)
        rx = _relabel(x, perm_x)
        ry = _relabel(y, perm_y)
        assert embed_exists(rx, ry).status == base_exists
        assert embed_count(rx, ry).value == base_count


def _relabel(g, perm):
    return Graph.from_edges(
        g.n, [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges()]
    )


def test_budget_exceeded_paths():
    x = sample_gnp(EdgeLaw(8, 0.5, 1))
    y = sample_gnp(EdgeLaw(16, 0.5, 2))
    out = embed_exists(x, y, budget=3)
    assert out.status == BUDGET_EXCEEDED and out.witness is None
    with pytest.raises(BudgetExceededError) as err:
        embed_count(x, y, budget=3)
    assert err.value.partial_count >= 0
    assert err.value.nodes > 3 - 2
    with pytest.raises(BudgetExceededError):
        common_count(y, y, 8, budget=3)
    one = Graph(1)
    assert embed_exists(one, y, budget=0).status == BUDGET_EXCEEDED
    with pytest.raises(BudgetExceededError):
        embed_count(one, y, budget=2)


def test_negative_budget_is_rejected():
    # A budget of -1 is malformed, not a budget stop at the first node.
    y = sample_gnp(EdgeLaw(8, 0.5, 2))
    for search in (lambda: embed_exists(K3, y, -1), lambda: embed_count(K3, y, -1),
                   lambda: common_exists(y, y, 4, -1), lambda: common_count(y, y, 0, -1),
                   lambda: max_common_size(y, y, -1)):
        with pytest.raises(ParameterError, match=r"^node budget must be nonnegative, got -1$"):
            search()


def test_max_common_equals_subset_oracle():
    xs = sample_gnp(EdgeLaw(8, 0.5, 101))
    ys = sample_gnp(EdgeLaw(8, 0.5, 202))
    res = max_common_size(xs, ys)
    assert res.conclusive
    assert res.best_m == oracles.brute_max_common(xs, ys)
    assert res.smallest_refuted == res.best_m + 1
    assert is_partial_isomorphism(xs, ys, res.witness)


def test_max_common_trivial_cases():
    g = sample_gnp(EdgeLaw(6, 0.5, 5))
    res = max_common_size(g, g)
    assert res.best_m == 6 and res.conclusive
    res2 = max_common_size(K3, E3)
    assert res2.best_m == 1
    with pytest.raises(SizeError):
        max_common_size(K3, E2)


def test_max_common_budget_reports_bounds():
    xs = sample_gnp(EdgeLaw(10, 0.5, 31))
    ys = sample_gnp(EdgeLaw(10, 0.5, 32))
    res = max_common_size(xs, ys, budget=40)
    assert not res.conclusive
    assert 1 <= res.best_m < res.smallest_refuted


def _seeded_pairs(count, x_sizes, y_extra):
    for seed in range(count):
        nx = x_sizes[seed % len(x_sizes)]
        ny = nx + y_extra[seed % len(y_extra)]
        p = (0.3, 0.5, 0.7)[seed % 3]
        yield (sample_gnp(EdgeLaw(nx, p, fold_seed(seed, 10))),
               sample_gnp(EdgeLaw(ny, 0.5, fold_seed(seed, 11))))


def test_counts_equal_brute_force_oracles():
    # One core serves both counts: embedding is the full-domain common count.
    for x, y in _seeded_pairs(40, (0, 1, 2, 3, 4, 5), (0, 1, 2)):
        assert embed_count(x, y).value == oracles.brute_embed_count(x, y)
        for m in range(min(x.n, y.n) + 1):
            assert common_count(x, y, m).value == oracles.brute_common_count(x, y, m)
            assert common_count(y, x, m).value == oracles.brute_common_count(y, x, m)


def test_found_never_exceeds_the_budget():
    # Every counted node is checked, the witness leaf included: below the
    # unbounded run's node count the search stops one node past the budget.
    cases = []
    for x, y in _seeded_pairs(24, (1, 2, 3, 4, 5, 6), (0, 2, 5)):
        cases.append((lambda b, x=x, y=y: embed_exists(x, y, b)))
        m = min(x.n, 4)
        cases.append((lambda b, x=x, y=y, m=m: common_exists(y, y, m, b)))
        cases.append((lambda b, x=x, y=y, m=m: common_exists(x, y, m, b)))
    for search in cases:
        full = search(DEFAULT_BUDGET)
        for budget in range(51):
            out = search(budget)
            if out.status == FOUND:
                assert out.nodes <= budget
            if full.nodes <= budget:
                assert out == full
            else:
                assert out.status == BUDGET_EXCEEDED and out.nodes == budget + 1


def test_embed_exists_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    for seed in range(60):
        n = 9 + seed % 8                    # hosts on 9..16 vertices
        m = 3 + seed % 7                    # patterns on 3..9 vertices
        x = sample_gnp(EdgeLaw(m, 0.5, fold_seed(seed, 20)))
        y = sample_gnp(EdgeLaw(n, 0.5, fold_seed(seed, 21)))
        out = embed_exists(x, y)
        # GraphMatcher's subgraph isomorphism is node-induced.
        assert (out.status == FOUND) == GraphMatcher(to_nx(y), to_nx(x)).subgraph_is_isomorphic()
        if out.status == FOUND:
            assert verify_embedding(x, y, out.witness)


def test_full_size_queries_agree_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    # C6 and two triangles share a degree sequence, so the search decides them.
    pairs = [(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
              Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))]
    for seed in range(40):
        n = 4 + seed % 7
        x = sample_gnp(EdgeLaw(n, 0.5, fold_seed(seed, 30)))
        perm = sorted(range(n), key=lambda v: fold_seed(seed, 31, v))
        relabeled = Graph.from_edges(n, [(perm[i], perm[j]) for i, j in x.edges()])
        pairs += [(x, relabeled), (x, sample_gnp(EdgeLaw(n, 0.5, fold_seed(seed, 32))))]
    for x, y in pairs:
        iso = nx.is_isomorphic(to_nx(x), to_nx(y))
        degrees_differ = sorted(map(x.degree, range(x.n))) != sorted(map(y.degree, range(y.n)))
        for out in (embed_exists(x, y), common_exists(x, y, x.n)):
            assert (out.status == FOUND) == iso
            assert out.status in (FOUND, EXHAUSTED)
            if degrees_differ:
                assert out.nodes == 0
        assert (embed_count(x, y).value > 0) == iso
        assert (common_count(x, y, x.n).value > 0) == iso
    assert sum(nx.is_isomorphic(to_nx(x), to_nx(y)) for x, y in pairs) >= 40


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 30])
def test_search_core_equals_the_reference_core(budget):
    # Sizes 0..10 of common subgraphs and embeddings, x.n != y.n both ways.
    for seed in range(48):
        nx = 2 + seed % 11
        ny = max(1, nx + (0, 2, -1, 4)[seed % 4])
        x = sample_gnp(EdgeLaw(nx, (0.3, 0.5, 0.7)[seed % 3], fold_seed(seed, 40)))
        y = sample_gnp(EdgeLaw(ny, 0.5, fold_seed(seed, 41)))
        queries = [(m, common_exists(x, y, m, budget)) for m in range(min(nx, ny, 10) + 1)]
        if nx <= ny:
            queries.append((None, embed_exists(x, y, budget)))
        for m, got in queries:
            want = oracles.reference_outcome(x, y, m, budget)
            if BUDGET_EXCEEDED not in (got.status, want.status):
                assert got.status == want.status, (seed, m)
            assert (got.nodes <= budget) == (got.status != BUDGET_EXCEEDED)
            if got.status == FOUND:
                w = got.witness
                if m is None:  # an embedding's witness is total on x
                    w = PartialInjection(tuple(range(nx)), w.image)
                assert is_partial_isomorphism(x, y, w)
        if budget == DEFAULT_BUDGET:
            assert BUDGET_EXCEEDED not in [got.status for _, got in queries]
            if max(nx, ny) <= 8:
                for m in range(min(nx, ny) + 1):
                    assert common_count(x, y, m).value == oracles.search_reference(
                        x, y, m, budget, True)[0]
                if nx <= ny:
                    assert embed_count(x, y).value == oracles.search_reference(
                        x, y, None, budget, True)[0]


@pytest.mark.parametrize("name", ["embed-refute", "common-window"])
@pytest.mark.parametrize("master_seed", [1000, 2000])
def test_benchmark_sweeps_decide_as_the_reference_core(name, master_seed):
    config = ExperimentConfig(master_seed=master_seed,
                              **oracles.perfbench_workloads().SWEEPS[name])
    got = oracles.per_cell_outcomes(config)
    want = oracles.per_cell_outcomes(config, reference=True)
    assert {cell: [out.status for out in outs] for cell, outs in got.items()} == {
        cell: [out.status for out in outs] for cell, outs in want.items()}


def test_deep_searches_need_no_recursion():
    # The core keeps its own stack: 2000 levels, far past the recursion limit.
    out = embed_exists(Graph(2000), Graph(2001))
    assert out.status == FOUND and out.nodes == 2000
    assert out.witness.image == tuple(range(2000))
    with pytest.raises(BudgetExceededError) as err:
        common_count(Graph(2000), Graph(2001), 2000, budget=2500)
    assert err.value.partial_count > 0  # it counted leaves at depth 2000
