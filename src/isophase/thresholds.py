"""Threshold calculus for the embedding and common-subgraph transitions.

All constants derive from the agreement probabilities

    tau_{j,k}(p, q) = p^j q^k + (1-p)^j (1-q)^k,    tau = tau_{1,1},

the chance that j edge indicators of one graph and k of the other, tied
together by a connected component of the pair graph, all coincide.  The
common-subgraph transition point m_*(n) is the root of

    W(x) = x + 2*lam*log(x) + (lam/x)*log(2*pi*x) = 4*lam*log(n) + 2*lam + 1,

with lam = 1/log(1/tau); W is strictly increasing and concave, so bisection
on [1, R(n)] pins the root to any tolerance.  Logarithms are natural
throughout; base-2 logs appear only in the embedding threshold formula and
are computed as ln/ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import NTooSmallError, ParameterError

_ROOT_TOL = 1e-10  # the largest |W(m_*) - R(n)| m_star accepts


@dataclass(frozen=True)
class ModelParams:
    """Edge probabilities (p, q) with every derived threshold constant.

    tau: agreement probability of one linked indicator pair.
    lam: 1/log(1/tau), the logarithmic scale of the transition.
    omega: share of the dominant agreement mode, max(pq, (1-p)(1-q))/tau.
    beta: correlation decay rate, sqrt(max(omega, tau_{1,2}tau_{2,1}/tau^3)).
    gamma: range-overlap weight, lam*log(tau/tau_{1,2}); in (1/2, 1] on the
        admissible region.
    phat: max(p, 1-p).
    """

    p: float
    q: float
    tau: float
    lam: float
    omega: float
    beta: float
    gamma: float
    phat: float

    def tau_jk(self, j: int, k: int) -> float:
        p, q = self.p, self.q
        return p**j * q**k + (1.0 - p) ** j * (1.0 - q) ** k

    def mirrored(self) -> "ModelParams":
        """Parameters with p and q swapped (swaps the roles of the graphs)."""
        return derive_params(self.q, self.p)


def derive_params(p: float, q: float) -> ModelParams:
    """Fill every derived constant for edge probabilities strictly in (0,1)."""
    if not (0.0 < p < 1.0) or not (0.0 < q < 1.0):
        raise ParameterError("p and q must lie strictly between 0 and 1")
    tau = p * q + (1.0 - p) * (1.0 - q)
    if tau >= 1.0:
        raise ParameterError(f"p = {p} and q = {q} agree too closely with 0 or 1: tau rounds to 1")
    lam = 1.0 / math.log(1.0 / tau)
    omega = max(p * q, (1.0 - p) * (1.0 - q)) / tau
    t12 = p * q * q + (1.0 - p) * (1.0 - q) * (1.0 - q)
    t21 = p * p * q + (1.0 - p) * (1.0 - p) * (1.0 - q)
    beta = math.sqrt(max(omega, t12 * t21 / tau**3))
    gamma = lam * math.log(tau / t12)
    phat = max(p, 1.0 - p)
    return ModelParams(p, q, tau, lam, omega, beta, gamma, phat)


def region_margin(p: float, q: float) -> float:
    """max(tau_{1,2}, tau_{2,1}) - tau^{3/2}: negative strictly inside the
    admissible region, positive strictly outside, zero on the boundary."""
    params = derive_params(p, q)
    return max(params.tau_jk(1, 2), params.tau_jk(2, 1)) - params.tau**1.5


def in_admissible_region(p: float, q: float) -> bool:
    """Strict test max(tau_{1,2}, tau_{2,1}) < tau^{3/2}.

    On this region the second-moment ratio tends to 1 and the common-subgraph
    transition is sharp; membership is symmetric in p <-> q and in
    (p, q) <-> (1-p, 1-q).
    """
    return region_margin(p, q) < 0.0


def _bisect(go_right: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """Bisect [lo, hi], keeping the right half while go_right(midpoint), until
    it is at most tol * max(1, hi) wide or halved 200 times; its midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if go_right(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def region_corner() -> tuple[float, float]:
    """Corner (p*, q*) of the admissible region with p* < q*.

    Both boundary curves tau_{1,2} = tau^{3/2} and tau_{2,1} = tau^{3/2}
    meet on the line q = 1 - p, where tau_{1,2} = tau_{2,1} = tau/2; bisection
    along that line finds the crossing.
    """

    def outside(p: float) -> bool:
        params = derive_params(p, 1.0 - p)
        return params.tau_jk(1, 2) - params.tau**1.5 > 0

    outside_lo = outside(1e-9)
    p_star = _bisect(lambda p: outside(p) == outside_lo, 1e-9, 0.5 - 1e-9, 1e-12)
    return p_star, 1.0 - p_star


def w_eval(x: float, lam: float, order: int = 0) -> float:
    """The threshold curve W or one of its first two derivatives.

    order 0 needs x >= 1 (W is used on [1, inf)); derivatives need x > 0.
    """
    if order == 0:
        if x < 1.0:
            raise ParameterError("W is evaluated on x >= 1")
        return x + 2.0 * lam * math.log(x) + (lam / x) * math.log(2.0 * math.pi * x)
    if x <= 0.0:
        raise ParameterError("derivatives of W need x > 0")
    if order == 1:
        return 1.0 + (lam / x) * (2.0 + 1.0 / x - math.log(2.0 * math.pi * x) / x)
    if order == 2:
        return (2.0 * lam / x**3) * (math.log(x) - x + math.log(math.pi**2) - 1.5)
    raise ParameterError("order must be 0, 1 or 2")


def r_of_n(n: float, lam: float) -> float:
    """Right-hand side R(n) = 4*lam*log(n) + 2*lam + 1 of the root equation."""
    if not n > 0:
        raise NTooSmallError(f"n={n} too small: the root equation needs n > 0")
    return 4.0 * lam * math.log(n) + 2.0 * lam + 1.0


def embed_center(n: float) -> float:
    """2*log2(n) + 1, the centre of the embedding transition."""
    return 2.0 * math.log(n) / math.log(2.0) + 1.0


@dataclass(frozen=True)
class ThresholdConfig:
    """Slack C_n used around the transition points.

    Default rule: C_n = log log n for n >= 16, else 1 (the slack only needs
    to grow, arbitrarily slowly); cn/log n should stay below 1.  Every
    threshold needs n >= 2, so that log n > 0.
    """

    n: int
    cn: float

    def __post_init__(self):
        if not 0 < self.cn < math.inf:
            raise ParameterError(f"cn must be positive and finite, got {self.cn}")
        if self.n < 2:
            raise NTooSmallError("thresholds need n >= 2")

    @classmethod
    def default(cls, n: int) -> "ThresholdConfig":
        cn = math.log(math.log(n)) if n >= 16 else 1.0
        return cls(n, cn)

    @classmethod
    def of(cls, n: int, cn: Optional[float] = None) -> "ThresholdConfig":
        """The given cn, or the default rule's when cn is None."""
        return cls.default(n) if cn is None else cls(n, cn)

    @property
    def slack(self) -> float:
        return self.cn / math.log(self.n)


@dataclass(frozen=True)
class ThresholdReport:
    """Transition sizes and the root diagnostics for one n."""

    n: int
    cn: float
    cn_over_log_n: float
    m_minus: int
    m_plus: int
    m_star: float
    m_tilde: float
    r_n: float
    residual: float
    in_region: bool


def _bracketed_r(n: float, lam: float) -> float:
    """R(n), once R(n) >= W(1): W(x) > x for x >= 1 puts the root of
    W(x) = R(n) below R(n), and W increases strictly, so [1, R(n)] brackets it."""
    rn = r_of_n(n, lam)
    w1 = w_eval(1.0, lam, 0)
    if rn < w1:
        raise NTooSmallError(f"n={n} too small: R(n)={rn} below W(1)={w1}")
    return rn


def m_star(n: float, params: ModelParams) -> tuple[float, float, float]:
    """Root m_* of W(x) = R(n), by bisection; returns (m_star, r_n, residual)."""
    lam = params.lam
    rn = _bracketed_r(n, lam)
    root = _bisect(lambda x: w_eval(x, lam, 0) < rn, 1.0, rn, 1e-14)
    residual = abs(w_eval(root, lam, 0) - rn)
    if residual > _ROOT_TOL:
        raise NTooSmallError(f"bisection residual {residual} above tolerance {_ROOT_TOL}")
    return root, rn, residual


def m_star_approx(n: float, params: ModelParams) -> float:
    """Explicit approximation m~ = R(n) - 2*lam*log(R(n)) of the root."""
    lam = params.lam
    rn = _bracketed_r(n, lam)
    return rn - 2.0 * lam * math.log(rn)


def embed_thresholds(n: int, cn: Optional[float] = None) -> tuple[int, int]:
    """Embedding transition pair (m_minus, m_plus) around 2*log2(n) + 1."""
    slack = ThresholdConfig.of(n, cn).slack
    center = embed_center(n)
    return math.floor(center - slack), math.ceil(center + slack)


def common_thresholds(
    n: int, params: ModelParams, cn: Optional[float] = None
) -> tuple[int, int, bool]:
    """Common-subgraph transition pair around m_*(n).

    Returns (m_low, m_high, in_region).  m_* is well defined for any (p, q),
    so the pair is computed even outside the admissible region; the flag
    tells the caller whether the sharp-transition hypothesis holds.
    """
    config = ThresholdConfig.of(n, cn)
    root, _, _ = m_star(n, params)
    inside = in_admissible_region(params.p, params.q)
    return math.floor(root - config.slack), math.ceil(root + config.slack), inside


def threshold_report(n: int, params: ModelParams, cn: Optional[float] = None) -> ThresholdReport:
    """Bundle of every threshold quantity for one n (CLI surface)."""
    config = ThresholdConfig.of(n, cn)
    m_minus, m_plus = embed_thresholds(n, config.cn)
    root, rn, residual = m_star(n, params)
    tilde = m_star_approx(n, params)
    inside = in_admissible_region(params.p, params.q)
    return ThresholdReport(
        n, config.cn, config.slack, m_minus, m_plus, root, tilde, rn, residual, inside
    )
