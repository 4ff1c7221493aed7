import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isophase.errors import NTooSmallError, ParameterError
from isophase.moments import expected_common
from isophase.thresholds import (
    ModelParams,
    region_margin,
    ThresholdConfig,
    common_thresholds,
    derive_params,
    embed_thresholds,
    in_admissible_region,
    m_star,
    m_star_approx,
    region_corner,
    threshold_report,
    w_eval,
)

HALF = derive_params(0.5, 0.5)


def test_derive_params_half():
    assert HALF.tau == pytest.approx(0.5, rel=1e-15)
    assert HALF.lam == pytest.approx(1.4426950408889634, rel=1e-12)
    assert HALF.gamma == pytest.approx(1.0, rel=1e-12)
    assert HALF.phat == 0.5


def test_derive_params_symmetry_and_bounds():
    for p, q in [(0.2, 0.7), (0.35, 0.35), (0.9, 0.1)]:
        a = derive_params(p, q)
        b = derive_params(1 - p, 1 - q)
        assert a.tau == pytest.approx(b.tau, rel=1e-12)
    with pytest.raises(ParameterError):
        derive_params(0.0, 0.5)
    with pytest.raises(ParameterError):
        derive_params(0.5, 1.0)


@pytest.mark.parametrize("p, q", [(1e-300, 1e-300), (1e-17, 1e-300)])
def test_derive_params_rejects_tau_rounding_to_one(p, q):
    with pytest.raises(ParameterError, match="tau rounds to 1"):
        derive_params(p, q)


@pytest.mark.parametrize("cn", [0.0, -1.0, math.inf, math.nan])
def test_thresholds_reject_nonpositive_or_nonfinite_cn(cn):
    with pytest.raises(ParameterError, match="cn must be positive and finite"):
        embed_thresholds(1024, cn)
    with pytest.raises(ParameterError, match="cn must be positive and finite"):
        common_thresholds(1024, HALF, cn)


@pytest.mark.parametrize("cn", [None, 1.0])
def test_thresholds_reject_n_below_two(cn):
    # The slack cn / log n would divide by log 1 = 0.
    with pytest.raises(NTooSmallError):
        embed_thresholds(1, cn)
    with pytest.raises(NTooSmallError):
        common_thresholds(1, HALF, cn)


@pytest.mark.parametrize(
    "call",
    [lambda cn: embed_thresholds(1, cn), lambda cn: common_thresholds(1, HALF, cn),
     lambda cn: threshold_report(1, HALF, cn), lambda cn: ThresholdConfig.of(1, cn)],
    ids=["embed", "common", "report", "config"],
)
def test_threshold_domain_has_one_message(call):
    # n >= 2 is one rule with one message, checked after cn, so that an
    # invalid cn is reported first whichever threshold is asked for.
    for cn in (None, 1.0):
        with pytest.raises(NTooSmallError, match=r"^thresholds need n >= 2$"):
            call(cn)
    with pytest.raises(ParameterError, match="cn must be positive and finite"):
        call(0.0)


def test_region_membership_examples():
    assert in_admissible_region(0.5, 0.5)
    assert derive_params(0.5, 0.5).tau_jk(1, 2) == pytest.approx(0.25)
    assert not in_admissible_region(0.1, 0.9)
    p_star, q_star = region_corner()
    assert not in_admissible_region(p_star, q_star)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_region_symmetries(p, q):
    assume(abs(region_margin(p, q)) > 1e-9)  # off the boundary curve
    inside = in_admissible_region(p, q)
    assert inside == in_admissible_region(q, p)
    assert inside == in_admissible_region(1 - p, 1 - q)


def test_region_corner_values():
    p_star, q_star = region_corner()
    assert p_star == pytest.approx(0.1464466094, abs=1e-8)
    assert q_star == pytest.approx(0.8535533906, abs=1e-8)
    assert p_star == pytest.approx((2 - math.sqrt(2)) / 4, abs=1e-10)
    corner = derive_params(p_star, q_star)
    assert corner.tau == pytest.approx(0.25, abs=1e-9)
    assert corner.lam == pytest.approx(0.7213475205, abs=1e-8)
    assert corner.gamma == pytest.approx(0.5, abs=1e-8)


def test_gamma_extremes():
    # q = 1/2 forces gamma = 1 for any p.
    for p in (0.1, 0.37, 0.5, 0.93):
        assert derive_params(p, 0.5).gamma == pytest.approx(1.0, rel=1e-12)


def test_w_values_and_derivatives():
    lam = HALF.lam
    assert w_eval(1.0, lam, 0) == 1.0 + lam * math.log(2 * math.pi)
    floor_w1 = 2.0 - 2.0 * math.pi * math.exp(-2.0)
    xs = [1.0 + 0.37 * k for k in range(1, 2700)]
    prev = w_eval(1.0, lam, 0)
    prev_d = w_eval(1.0, lam, 1)
    for x in xs:
        val = w_eval(x, lam, 0)
        d1 = w_eval(x, lam, 1)
        d2 = w_eval(x, lam, 2)
        assert val > prev  # strictly increasing
        assert d1 >= 1.0 + (lam / x) * floor_w1 - 1e-12
        assert d1 >= 1.0
        assert d1 < prev_d or x == 1.0  # strictly concave => decreasing slope
        assert d2 < 0.0
        prev, prev_d = val, d1
    with pytest.raises(ParameterError):
        w_eval(0.5, lam, 0)
    with pytest.raises(ParameterError):
        w_eval(-1.0, lam, 1)


def test_m_star_at_1024():
    root, rn, residual = m_star(1024, HALF)
    assert rn == pytest.approx(40.0 + 2 * HALF.lam + 1.0, rel=1e-12)
    assert root == pytest.approx(33.52113437174371, abs=1e-6)
    assert residual <= 1e-10
    assert root < rn


def test_m_star_residual_sweep():
    for n in (10**2, 10**3, 10**6, 10**9):
        root, rn, residual = m_star(n, HALF)
        assert residual <= 1e-10
        assert w_eval(root, HALF.lam, 0) == pytest.approx(rn, abs=1e-9)
        assert root < rn


def test_m_star_defined_down_to_one():
    # R(1) = 1 + 2*lam exceeds W(1) = 1 + lam*log(2*pi), so the root exists
    # for every n >= 1; the too-small guard only fires below that.
    root, _, _ = m_star(1, HALF)
    assert root >= 1.0
    with pytest.raises(NTooSmallError):
        m_star(0.5, HALF)


@pytest.mark.parametrize("n", [0, -3, 0.0])
def test_root_equation_rejects_nonpositive_n(n):
    # log n is undefined there: a NTooSmallError, not a math domain error.
    with pytest.raises(NTooSmallError):
        m_star(n, HALF)
    with pytest.raises(NTooSmallError):
        m_star_approx(n, HALF)


def test_m_star_approx_gap_decreasing():
    gaps = []
    for n in (10**3, 10**6, 10**9):
        root, _, _ = m_star(n, HALF)
        tilde = m_star_approx(n, HALF)
        gaps.append(abs(root - tilde))
        assert tilde < root + 1.0
    # frozen from independent evaluation of both operations
    assert gaps[0] == pytest.approx(0.548282, abs=5e-4)
    assert gaps[1] == pytest.approx(0.340722, abs=5e-4)
    assert gaps[2] == pytest.approx(0.252006, abs=5e-4)
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(g < 1.0 for g in gaps)


def test_m_tilde_formula():
    lam = HALF.lam
    rn = 4 * lam * math.log(5000) + 2 * lam + 1
    assert m_star_approx(5000, HALF) == rn - 2 * lam * math.log(rn)


def test_embed_thresholds_at_1024():
    cn = 0.279 * math.log(1024)
    assert embed_thresholds(1024, cn) == (20, 22)


def test_embed_thresholds_gap_sweep():
    n = 10
    while n <= 10**6:
        m_minus, m_plus = embed_thresholds(n, ThresholdConfig.default(n).cn)
        assert m_plus - m_minus in (1, 2), n
        n = int(n * 2.3) + 1


def test_powers_of_two_gap_two():
    for k in range(5, 17):
        n = 2**k
        cn = ThresholdConfig.default(n).cn
        if cn / math.log(n) >= 1.0:
            continue
        m_minus, m_plus = embed_thresholds(n, cn)
        assert m_plus - m_minus == 2, n


def test_common_thresholds_examples():
    lo, hi, inside = common_thresholds(1024, HALF, 0.3 * math.log(1024))
    assert (lo, hi) == (33, 34)
    assert inside
    root, _, _ = m_star(1024, HALF)
    assert lo <= root <= hi


def test_common_thresholds_outside_region_still_computes():
    params = derive_params(0.1, 0.9)
    lo, hi, inside = common_thresholds(400, params)
    assert not inside
    assert lo < hi


def test_phase_two_monotone_expected_count():
    for n in (64, 256, 1024, 4096):
        lo, hi, _ = common_thresholds(n, HALF)
        assert expected_common(n, hi, HALF) < expected_common(n, lo, HALF)


def test_applem_sandwich():
    lam = HALF.lam
    for k in range(2, 10):
        n = 10**k
        root, _, _ = m_star(n, HALF)
        slack = ThresholdConfig.default(n).slack
        m = math.floor(root - slack)
        gap = w_eval(root, lam, 0) - w_eval(m, lam, 0)
        assert slack < gap < w_eval(1.0, lam, 1) * (1.0 + slack)


def test_log_n_tracking_bounded():
    # |log n - m/(4 lam)| / log m stays below 0.5 over the sweep (max ~0.397).
    lam = HALF.lam
    for k in range(2, 10):
        n = 10**k
        root, _, _ = m_star(n, HALF)
        m = math.floor(root - ThresholdConfig.default(n).slack)
        assert abs(math.log(n) - m / (4 * lam)) / math.log(m) < 0.5


def test_gamma_in_half_one_on_region_grid():
    steps = 60
    inside_count = 0
    for i in range(1, steps):
        for j in range(1, steps):
            p, q = i / steps, j / steps
            if in_admissible_region(p, q):
                inside_count += 1
                g = derive_params(p, q).gamma
                assert 0.5 < g <= 1.0 + 1e-12
    assert inside_count > 100


def test_lambda_minimum_near_corner():
    steps = 120
    best = (math.inf, (0.0, 0.0))
    for i in range(1, steps):
        for j in range(1, steps):
            p, q = i / steps, j / steps
            if in_admissible_region(p, q):
                lam = derive_params(p, q).lam
                if lam < best[0]:
                    best = (lam, (p, q))
    lam_min, (p_min, q_min) = best
    p_star, q_star = region_corner()
    assert lam_min > 0.7213475205 - 1e-9
    assert lam_min < 0.7213475205 + 0.02
    near_corner = min(
        math.hypot(p_min - p_star, q_min - q_star),
        math.hypot(p_min - q_star, q_min - p_star),
    )
    assert near_corner < 0.05


def test_threshold_report_bundle():
    rep = threshold_report(1024, HALF)
    assert rep.m_minus == 20 and rep.m_plus == 22
    assert rep.m_star == pytest.approx(33.52113437174371, abs=1e-6)
    assert rep.in_region
    assert rep.residual <= 1e-10


def test_model_params_is_frozen_dataclass():
    with pytest.raises(Exception):
        HALF.tau = 0.9  # type: ignore[misc]
    assert isinstance(HALF, ModelParams)
