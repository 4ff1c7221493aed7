import math
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

import oracles
from isophase import moments
from isophase.edgegraph import (
    build_common_edge_graph,
    build_embedding_edge_graph,
    classify_components,
    pair_moment,
)
from isophase.errors import ParameterError, RegionError, ScaleError, SymmetryError
from isophase.isosearch import Injection, PartialInjection
from isophase.moments import (
    bound_H_drl,
    bound_H_r_ell,
    binom,
    correlation_bound,
    count_H_dr,
    count_H_r,
    expected_common,
    expected_embeddings,
    falling_factorial,
    multinomial,
    pair_space,
    partial_space,
    ratio_decomposition,
    s_bound,
    second_moment_exact,
    second_moment_ratio,
    t_dr,
)
from isophase.rng import Xoshiro256StarStar
from isophase.thresholds import derive_params, in_admissible_region

GRID_P = (0.2, 0.5, 0.8)


def test_falling_factorial_basics():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(2, 5) == 0
    assert falling_factorial(1, 2) == 0
    assert falling_factorial(-3, 0) == 1
    assert falling_factorial(-3, 2) == 0
    assert falling_factorial(10**6, 3) == 10**6 * (10**6 - 1) * (10**6 - 2)
    with pytest.raises(ParameterError):
        falling_factorial(3, -1)


def test_partial_space_example():
    # C(3,2) * (3)_2 = (3)_2^2 / 2! = 18 partial injections at n=3, m=2.
    assert partial_space(3, 2) == 18
    assert falling_factorial(3, 2) ** 2 // math.factorial(2) == 18


def test_multinomial():
    assert multinomial(4, (2, 2, 0, 0)) == 6
    assert multinomial(4, (2, 2, -1, 1)) == 0
    with pytest.raises(ParameterError):
        multinomial(4, (2, 1))


def test_expected_embeddings_examples():
    assert expected_embeddings(4, 2) == pytest.approx(6.0, rel=1e-12)
    assert expected_embeddings(5, 0) == 1.0
    assert expected_embeddings(3, 2) == pytest.approx(3.0, rel=1e-12)


def test_expected_common_examples():
    assert expected_common(3, 2, derive_params(0.5, 0.5)) == pytest.approx(9.0, rel=1e-12)
    assert expected_common(6, 1, derive_params(0.3, 0.9)) == pytest.approx(36.0, rel=1e-12)
    params = derive_params(0.3, 0.6)
    assert params.tau == pytest.approx(0.46, rel=1e-15)
    assert expected_common(3, 2, params) == pytest.approx(18 * 0.46, rel=1e-12)


def test_expected_common_matches_exact_rational():
    params = derive_params(0.25, 0.625)
    tau = Fraction(1, 4) * Fraction(5, 8) + Fraction(3, 4) * Fraction(3, 8)
    for n, m in [(4, 2), (6, 3), (8, 5)]:
        exact = binom(n, m) * falling_factorial(n, m) * tau ** binom(m, 2)
        assert expected_common(n, m, params) == pytest.approx(float(exact), rel=1e-12)


def test_count_H_r_examples_and_partition():
    assert [count_H_r(3, 2, r) for r in (0, 1, 2)] == [0, 24, 12]
    for n, m in [(3, 2), (5, 3), (6, 4)]:
        assert sum(count_H_r(n, m, r) for r in range(m + 1)) == falling_factorial(n, m) ** 2


def test_count_H_r_matches_enumeration():
    for n, m in [(4, 2), (5, 3), (6, 4)]:
        hist = oracles.overlap_histogram_embedding(n, m)
        for r in range(m + 1):
            enum = sum(c for (rr, _), c in hist.items() if rr == r)
            assert enum == count_H_r(n, m, r)


def test_bound_H_r_ell_equals_count_at_ell_zero():
    for n, m in [(4, 2), (5, 3), (6, 4)]:
        for r in range(m + 1):
            assert bound_H_r_ell(n, m, r, 0) == count_H_r(n, m, r)


def test_bound_H_r_ell_dominates_enumeration():
    # At (3,2,r=2): 12 same-range pairs, 6 of them pointwise equal; the
    # ell = 2 bound is 6 (tight), the ell = 1 bound is 12.
    hist = oracles.overlap_histogram_embedding(3, 2)
    same_range = sum(c for (r, _), c in hist.items() if r == 2)
    pointwise_equal = hist.get((2, 2), 0)
    assert same_range == 12 and pointwise_equal == 6
    assert bound_H_r_ell(3, 2, 2, 2) == 6
    assert bound_H_r_ell(3, 2, 2, 1) == 12
    for n, m in [(4, 2), (5, 3), (4, 3)]:
        hist = oracles.overlap_histogram_embedding(n, m)
        for r in range(m + 1):
            for ell in range(r + 1):
                enum = sum(c for (rr, ll), c in hist.items() if rr == r and ll >= ell)
                assert enum <= bound_H_r_ell(n, m, r, ell)


def test_count_H_dr_examples_and_partition():
    assert count_H_dr(3, 2, 2, 2) == 36
    total = sum(count_H_dr(3, 2, d, r) for d in range(3) for r in range(3))
    assert total == 18**2 == partial_space(3, 2) ** 2
    assert count_H_dr(4, 2, 0, 0) == 144


def test_count_H_dr_matches_enumeration():
    for n, m in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        hist = oracles.overlap_histogram_common(n, m)
        for d in range(m + 1):
            for r in range(m + 1):
                enum = sum(c for (dd, rr, _), c in hist.items() if dd == d and rr == r)
                assert enum == count_H_dr(n, m, d, r), (n, m, d, r)


def test_bound_H_drl_examples():
    assert bound_H_drl(3, 2, 2, 2, 0) == count_H_dr(3, 2, 2, 2)
    assert bound_H_drl(3, 2, 2, 2, 2) == 18
    hist = oracles.overlap_histogram_common(3, 2)
    pointwise_equal = sum(c for (d, r, ll), c in hist.items() if d == r == 2 and ll >= 2)
    assert pointwise_equal == 18


def test_bound_H_drl_dominates_enumeration():
    for n, m in [(4, 2), (5, 3)]:
        hist = oracles.overlap_histogram_common(n, m)
        for d in range(m + 1):
            for r in range(m + 1):
                for ell in range(min(d, r) + 1):
                    enum = sum(
                        c for (dd, rr, ll), c in hist.items() if dd == d and rr == r and ll >= ell
                    )
                    assert enum <= bound_H_drl(n, m, d, r, ell)
                    if ell == 0:
                        assert enum == bound_H_drl(n, m, d, r, ell)


def test_first_moments_match_graph_pair_oracle():
    for m, n in [(2, 3), (2, 4), (3, 4)]:
        N = oracles.embed_count_matrix(m, n)
        wy = oracles.graph_weights(n * (n - 1) // 2, 0.5)
        for p in GRID_P:
            wx = oracles.graph_weights(m * (m - 1) // 2, p)
            want = oracles.first_moment(N, wx, wy)
            assert expected_embeddings(n, m) == pytest.approx(want, rel=1e-9)
    for n, m in [(3, 2), (4, 2), (4, 3)]:
        N = oracles.common_count_matrix(n, m)
        for p in GRID_P:
            for q in GRID_P:
                wx = oracles.graph_weights(n * (n - 1) // 2, p)
                wy = oracles.graph_weights(n * (n - 1) // 2, q)
                want = oracles.first_moment(N, wx, wy)
                got = expected_common(n, m, derive_params(p, q))
                assert got == pytest.approx(want, rel=1e-9)


def test_second_moment_m1_is_squared_space():
    for n in (2, 3, 4):
        for (p, q) in [(0.5, 0.5), (0.3, 0.8)]:
            got = second_moment_exact(n, 1, derive_params(p, q), "common")
            assert got == pytest.approx(float(n**4), rel=1e-12)


def test_second_moment_matches_graph_pair_oracle():
    cases = [(3, 2, 0.5, 0.5), (3, 2, 0.3, 0.6), (4, 2, 0.2, 0.8), (4, 3, 0.8, 0.5)]
    for n, m, p, q in cases:
        N = oracles.common_count_matrix(n, m)
        wx = oracles.graph_weights(n * (n - 1) // 2, p)
        wy = oracles.graph_weights(n * (n - 1) // 2, q)
        want = oracles.second_moment(N, wx, wy)
        got = second_moment_exact(n, m, derive_params(p, q), "common")
        assert got == pytest.approx(want, rel=1e-9)
    N = oracles.embed_count_matrix(2, 4)
    wx = oracles.graph_weights(1, 0.3)
    wy = oracles.graph_weights(6, 0.5)
    want = oracles.second_moment(N, wx, wy)
    got = second_moment_exact(4, 2, derive_params(0.3, 0.5), "embedding")
    assert got == pytest.approx(want, rel=1e-9)


def test_second_moment_guard_and_variant_checks(monkeypatch):
    moments._census.cache_clear()
    monkeypatch.setattr(moments, "CLASS_BOUND", 100)
    with pytest.raises(ScaleError):
        second_moment_exact(12, 6, derive_params(0.5, 0.5), "common")
    with pytest.raises(ParameterError):
        second_moment_exact(4, 2, derive_params(0.5, 0.6), "embedding")
    with pytest.raises(ParameterError):
        second_moment_exact(4, 2, derive_params(0.5, 0.5), "nope")


HALF = derive_params(0.5, 0.5)


@pytest.mark.parametrize(
    "consumer",
    [
        lambda: second_moment_exact(3, 5, HALF, "embedding"),
        lambda: second_moment_exact(3, 5, HALF, "common"),
        lambda: second_moment_ratio(3, 5, HALF, "embedding"),
        lambda: second_moment_ratio(3, 5, HALF, "common"),
        lambda: s_bound(3, 5, 0.5),
        lambda: s_bound(3, 5, 0.5, mode="relaxed"),
        lambda: t_dr(3, 5, HALF, 0, 0, "exact"),
        lambda: t_dr(3, 5, HALF, 0, 0, "bound1"),
        lambda: t_dr(3, 5, HALF, 0, 0, "bound2"),
        lambda: ratio_decomposition(3, 5, HALF),
        lambda: pair_space(3, 5, "embedding"),
        lambda: pair_space(3, 5, "common"),
        lambda: expected_embeddings(3, 5),
        lambda: expected_common(3, 5, HALF),
    ],
    ids=["exact-embedding", "exact-common", "ratio-embedding", "ratio-common", "s_bound",
         "s_bound-relaxed", "t_dr", "t_dr-bound1", "t_dr-bound2", "ratio_decomposition",
         "pair_space-embedding",
         "pair_space-common", "expected-embedding", "expected-common"],
)
def test_census_consumers_reject_m_above_n(consumer):
    # One size rule for E N, the pair space and E N^2: m > n is a
    # ParameterError with one message in every variant and mode, not
    # E N^2 = 0 for one variant, a pair space of 0 or another message.
    with pytest.raises(ParameterError, match=r"needs 0 <= m <= n, got n=3, m=5"):
        consumer()


@pytest.mark.parametrize("n, m", [(3, -1), (-3, -5)])
@pytest.mark.parametrize(
    "consumer",
    [
        expected_embeddings,
        lambda n, m: expected_common(n, m, HALF),
        lambda n, m: pair_space(n, m, "embedding"),
        lambda n, m: pair_space(n, m, "common"),
        lambda n, m: t_dr(n, m, HALF, 0, 0, "exact"),
        lambda n, m: t_dr(n, m, HALF, 0, 0, "bound1"),
        lambda n, m: t_dr(n, m, HALF, 0, 0, "bound2"),
    ],
    ids=["expected-embedding", "expected-common", "pair_space-embedding", "pair_space-common",
         "t_dr", "t_dr-bound1", "t_dr-bound2"],
)
def test_moments_reject_negative_sizes(consumer, n, m):
    # Below 0 the same rule holds: E N is not an empty product of 1, and the
    # message is not that of a binomial or falling factorial inside it.
    with pytest.raises(ParameterError, match=rf"needs 0 <= m <= n, got n={n}, m={m}$"):
        consumer(n, m)


def test_s_bound_dominates_ratio_and_relaxed_dominates_exact():
    for m, n in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        for p in GRID_P:
            params = derive_params(p, 0.5)
            ratio = second_moment_ratio(n, m, params, "embedding")
            exact = s_bound(n, m, p, mode="exact")
            relaxed = s_bound(n, m, p, mode="relaxed")
            assert ratio <= exact.s_total * (1 + 1e-12), (m, n, p)
            assert exact.s_total <= relaxed.s_total * (1 + 1e-12), (m, n, p)
            assert exact.s_total == pytest.approx(exact.s_one + exact.s_two, rel=1e-12)


def test_s_bound_relaxed_value_example():
    # 1 + (2^0 * |H_1| + 2^1 * |H_2|) / (3)_2^2 = 1 + (24 + 24)/36 = 7/3.
    got = s_bound(3, 2, 0.5, mode="relaxed")
    assert got.s_total == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_s_bound_relaxed_out_of_range_is_a_scale_error():
    # 2^C(r, 2) |H_r| passes the largest float from r = 45 on.
    message = r"^the relaxed S of n=100, m=50 = inf leaves the float range$"
    with pytest.raises(ScaleError, match=message):
        s_bound(100, 50, 0.5, mode="relaxed")
    assert s_bound(100, 20, 0.5, mode="relaxed").s_total > 1.0


def test_s_bound_split_constant_range():
    with pytest.raises(ParameterError):
        s_bound(4, 2, 0.5, c=0.4)
    with pytest.raises(ParameterError):
        s_bound(4, 2, 0.5, c=1.0)
    # the common-subgraph decomposition accepts any c in (0, 1)
    dec = ratio_decomposition(4, 2, derive_params(0.5, 0.5), c=0.4)
    assert dec.total >= 1.0


def test_correlation_bound_trivial_and_tight_cases():
    params = derive_params(0.5, 0.5)
    assert correlation_bound(0, 0, 0, 4, params) == pytest.approx(1.0)
    m = 4
    want = (1.0 / params.tau) ** binom(m, 2)
    assert correlation_bound(m, m, m, m, params) == pytest.approx(want, rel=1e-12)
    # f = g attains it: E J_f J_f / (E J_f)^2 = tau^{-C(m,2)}.
    f = PartialInjection((0, 1, 2, 3), (0, 1, 2, 3))
    prof = classify_components(build_common_edge_graph(f, f))
    attained = pair_moment(prof, params) / params.tau ** (2 * binom(m, 2))
    assert attained == pytest.approx(want, rel=1e-12)


def test_correlation_bound_errors():
    with pytest.raises(RegionError):
        correlation_bound(2, 1, 0, 3, derive_params(0.1, 0.9))
    with pytest.raises(SymmetryError):
        correlation_bound(1, 2, 0, 3, derive_params(0.5, 0.5))


def test_correlation_bound_dominates_random_pairs():
    stream = Xoshiro256StarStar(17)
    checked = 0
    for p, q in [(0.5, 0.5), (0.4, 0.6)]:
        params = derive_params(p, q)
        assert in_admissible_region(p, q)
        mirror = params.mirrored()
        for _ in range(2500):
            m = 2 + stream.randint_below(4)
            n = max(m + stream.randint_below(7), m)
            f = PartialInjection(
                tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
            )
            g = PartialInjection(
                tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
            )
            prof = classify_components(build_common_edge_graph(f, g))
            lhs = pair_moment(prof, params) / params.tau ** (2 * binom(m, 2))
            if prof.r <= prof.d:
                bound = correlation_bound(prof.d, prof.r, prof.ell, m, params)
            else:
                bound = correlation_bound(prof.r, prof.d, prof.ell, m, mirror)
            assert lhs <= bound * (1 + 1e-9), (m, n, prof.d, prof.r, prof.ell)
            checked += 1
    assert checked == 5000


def test_t_dr_exact_disjoint_class():
    # Disjoint domains and ranges: each pair contributes ratio exactly 1.
    params = derive_params(0.5, 0.5)
    got = t_dr(4, 2, params, 0, 0, "exact")
    assert got == pytest.approx(count_H_dr(4, 2, 0, 0) / partial_space(4, 2) ** 2, rel=1e-12)


def test_t_dr_bound1_dominates_exact():
    for n, m in [(4, 2), (5, 2), (5, 3)]:
        for p, q in [(0.5, 0.5), (0.4, 0.6), (0.2, 0.2)]:
            if not in_admissible_region(p, q):
                continue
            params = derive_params(p, q)
            for d in range(m + 1):
                for r in range(d + 1):
                    exact = t_dr(n, m, params, d, r, "exact")
                    bound1 = t_dr(n, m, params, d, r, "bound1")
                    assert exact <= bound1 * (1 + 1e-9), (n, m, p, q, d, r)


def test_t_dr_bound2_structure():
    params = derive_params(0.5, 0.5)
    n, m, c = 5, 3, 0.6
    for d in range(m + 1):
        for r in range(d + 1):
            if r < c * m:
                continue
            b1 = t_dr(n, m, params, d, r, "bound1", c)
            b2 = t_dr(n, m, params, d, r, "bound2", c)
            psi = moments.psi_factor(m, params, c)
            assert b2 == pytest.approx(b1 * psi / falling_factorial(m, r), rel=1e-12)
    with pytest.raises(SymmetryError):
        t_dr(5, 3, params, 1, 2, "bound1")
    with pytest.raises(ParameterError):
        t_dr(5, 3, params, 3, 0, "bound2", 0.6)


def test_t_dr_bounds_past_the_float_range_of_their_factors():
    # At n = 10^6, m = d = r = 60 the cardinality ratio, 1/C(n, m)^2, is
    # about 1e-556 and the correlation factor 2^C(60, 2) about 1e533: each
    # leaves the float range, their product does not.
    n, m = 10**6, 60
    exact = Fraction(count_H_dr(n, m, m, m) * 2 ** binom(m, 2), partial_space(n, m) ** 2)
    bound1 = t_dr(n, m, HALF, m, m, "bound1")
    assert bound1 == pytest.approx(float(exact), rel=1e-12)
    bound2 = t_dr(n, m, HALF, m, m, "bound2")
    psi = moments.psi_factor(m, HALF, 0.75)
    assert bound2 == pytest.approx(float(exact * Fraction(psi) / falling_factorial(m, m)),
                                   rel=1e-12)
    # With n = m the ratio is 1, so the bound itself is 2^1770: one line.
    for mode in ("bound1", "bound2"):
        with pytest.raises(ScaleError, match=rf"^t_dr {mode} = exp\(.*\) overflows a float$"):
            t_dr(m, m, HALF, m, m, mode)


def test_t_dr_sums_to_ratio():
    for n, m, p, q in [(4, 2, 0.5, 0.5), (5, 2, 0.3, 0.6), (5, 3, 0.4, 0.6)]:
        params = derive_params(p, q)
        total = math.fsum(
            t_dr(n, m, params, d, r, "exact") for d in range(m + 1) for r in range(m + 1)
        )
        ratio = second_moment_ratio(n, m, params, "common")
        assert total == pytest.approx(ratio, rel=1e-9)


def test_ratio_decomposition_consistency():
    params = derive_params(0.4, 0.6)
    dec = ratio_decomposition(4, 2, params)
    ratio = second_moment_ratio(4, 2, params, "common")
    assert dec.total == pytest.approx(ratio, rel=1e-9)
    grouped = dec.disjoint + dec.full + dec.low_overlap + dec.high_overlap + dec.swapped
    assert grouped == pytest.approx(dec.total, rel=1e-12)
    assert dec.total >= 1.0 - 1e-12


def test_ratio_decomposition_lower_bound_term():
    # The lower-bound term is one nonnegative summand of the full ratio.
    params = derive_params(0.1, 0.9)
    dec = ratio_decomposition(5, 2, params)
    assert 0.0 <= dec.lower_bound_term <= dec.total * (1 + 1e-12)
    share = dec.by_dr.get((2, 0), 0.0)
    assert dec.lower_bound_term == pytest.approx(share, rel=1e-9)


def test_ratio_at_least_one_everywhere():
    for n, m in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        for p in GRID_P:
            for q in GRID_P:
                ratio = second_moment_ratio(n, m, derive_params(p, q), "common")
                assert ratio >= 1.0 - 1e-10, (n, m, p, q)


def _classify_embedding(f, g):
    prof = classify_components(build_embedding_edge_graph(f, g, f.m, f.n))
    return (prof.r, prof.ell), (prof.census_signature(), prof.n_components)


def _classify_common(f, g):
    prof = classify_components(build_common_edge_graph(f, g))
    return (prof.d, prof.r), (prof.census_signature(), prof.n_components)


def test_census_equals_all_pairs_oracle():
    # The orbit census must equal the sweep over every ordered pair, bucket
    # for bucket and count for count.
    for n, m in [(3, 2), (4, 2), (4, 3)]:
        maps = [
            PartialInjection(dom, img)
            for dom in combinations(range(n), m)
            for img in permutations(range(n), m)
        ]
        moments._census.cache_clear()
        assert moments._census(n, m, "common") == oracles.census_all_pairs(
            maps, _classify_common
        ), (n, m)
    for n, m in [(4, 3), (5, 3)]:
        maps = [Injection(m, n, img) for img in permutations(range(n), m)]
        moments._census.cache_clear()
        assert moments._census(n, m, "embedding") == oracles.census_all_pairs(
            maps, _classify_embedding
        ), (n, m)


@pytest.mark.parametrize(
    "variant, n, m",
    [("embedding", n, m) for n, m in [(0, 0), (3, 0), (4, 4), (6, 3), (7, 4), (8, 4), (7, 5),
                                      (10, 4)]]
    + [("common", n, m) for n, m in [(0, 0), (3, 0), (4, 4), (5, 4), (6, 4), (7, 3), (7, 4)]],
)
def test_census_equals_identity_census(variant, n, m):
    # One partner per orbit class, weighted by the class size, against the
    # identity paired with every map: m = 0, m = n, and n on both sides of
    # 2m, below which some classes have no partners.
    moments._census.cache_clear()
    assert moments._census(n, m, variant) == oracles.identity_census(n, m, variant)


@pytest.mark.parametrize(
    "m, sizes, step",
    [(m, (m, m + 1, 2 * m - 1, 2 * m + 3), 1) for m in range(9)]
    + [(m, (m, m + 3, 3 * m), 37) for m in range(9, 13)],
    ids=[f"m={m}" for m in range(13)],
)
def test_class_entry_equals_pair_graph_census(m, sizes, step):
    # Each class's entry, read off its cycles and chains, against the pair
    # graph of the identity and one partner of the class, built and
    # classified: every class at m <= 8, every `step`-th one above.
    classes = dict.fromkeys(
        cls
        for variant in ("embedding", "common")
        for n in sizes if n >= m
        for cls, _ in islice(moments._classes(n, m, variant), 0, None, step)
    )
    identity = PartialInjection(tuple(range(m)), tuple(range(m)))
    for cls in classes:
        prof = classify_components(build_common_edge_graph(identity, oracles.representative(m, cls)))
        want = (prof.d, prof.r, prof.ell, prof.census_signature(), prof.n_components)
        assert moments._class_entry(m, cls) == want, cls


@pytest.mark.parametrize("variant, m", [("embedding", 6), ("common", 4)])
def test_census_cost_does_not_depend_on_n(monkeypatch, variant, m):
    calls = []
    entry = moments._class_entry
    monkeypatch.setattr(moments, "_class_entry", lambda *args: calls.append(1) or entry(*args))
    built = []
    for n in (2 * m, 10**6):
        moments._census.cache_clear()
        calls.clear()
        moments._census(n, m, variant)
        built.append(len(calls))
    assert built[0] == built[1] > 0


@pytest.mark.parametrize(
    "variant, n, m, ratio",
    [("embedding", 32, 9, 1.185), ("embedding", 32, 10, 1.592), ("embedding", 32, 11, 11.94),
     ("embedding", 32, 12, 836.6), ("embedding", 1024, 14, 1.0002), ("common", 12, 7, 1.211),
     ("common", 12, 9, 14.62)],
)
def test_second_moment_ratio_at_the_threshold(variant, n, m, ratio):
    # E N^2/(E N)^2 where no reference census can run, at p = q = 1/2.
    assert second_moment_ratio(n, m, HALF, variant) == pytest.approx(ratio, rel=1e-3)


def test_census_class_bound_stops_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(moments, "_class_entry", lambda *args: calls.append(1))
    moments._census.cache_clear()
    with pytest.raises(ScaleError, match="orbit classes"):
        second_moment_exact(10**6, 14, HALF, "common")
    assert calls == []


@pytest.mark.parametrize(
    "consumer",
    [
        lambda: second_moment_exact(12, 12, derive_params(1e-300, 0.9999999999999999)),
        lambda: second_moment_ratio(12, 12, derive_params(1e-300, 0.9999999999999999)),
        lambda: ratio_decomposition(12, 12, derive_params(1e-300, 0.9999999999999999)),
        lambda: second_moment_ratio(12, 12, derive_params(0.001, 0.999)),
        lambda: s_bound(10**16, 10, 0.5),
        lambda: pair_moment(
            classify_components(build_common_edge_graph(
                PartialInjection(tuple(range(10)), tuple(range(10))),
                PartialInjection(tuple(range(10)), (1, 2, 0, 4, 5, 6, 7, 8, 9, 3)),
            )),
            derive_params(1e-170, 0.9999999999999999),
        ),
    ],
    ids=["tau-underflow-exact", "tau-underflow-ratio", "tau-underflow-decomposition",
         "ratio-overflow", "pair-space-overflow", "tau-underflow-pair-moment"],
)
def test_float_range_is_a_scale_error(consumer):
    # tau_{j,k} = 0 in floats at p = 1e-300, q = 1 - 2^-53; at p = 0.001,
    # q = 0.999, log E N is about -390, so (E N)^-2 overflows; (10^16)_10
    # squared, about 10^320, would overflow each census term.  A 3-cycle and
    # a 7-cycle against the identity on 10 points give a (21, 21) component,
    # whose tau is 0 in floats at p = 1e-170.
    with pytest.raises(ScaleError):
        consumer()


def test_tau_power_inequalities():
    # tau^2 <= tau_{1,2} and tau^2 <= tau_{2,1} on a grid.
    for p in [0.05 + 0.09 * k for k in range(11)]:
        for q in [0.05 + 0.09 * k for k in range(11)]:
            params = derive_params(p, q)
            assert params.tau**2 <= params.tau_jk(1, 2) + 1e-15
            assert params.tau**2 <= params.tau_jk(2, 1) + 1e-15
