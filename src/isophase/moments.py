"""Exact moments, overlap-class cardinalities and finite-size bounds.

The first moment of the number of matchings has a closed form; the second
moment is evaluated exactly from the census of pair graphs (the component
decomposition), multiplying the census factors of each class.

The census is built from one map instead of all ordered pairs.  Relabeling
the host (S_n, for total injections) or both graphs (S_n x S_n, for partial
injections) acts transitively on the maps and carries every pair graph to an
isomorphic one with the same overlap statistics.  So each map f sees the same
multiset of censuses over its partners g as the identity map on {0..m-1}
does, and the census over all ordered pairs is |maps| times the identity's
census.  Counts stay exact integers, and the cache keyed by the overlap
statistics serves every (p, q).  A total injection is the partial injection
on the domain {0..m-1}, so both censuses come from one pair-graph builder:
the embedding census is the common census with that one domain.

Overlap classes:

* H_r            pairs of total injections whose ranges share r points;
* H_{r,l}        ... and agree pointwise on exactly l domain points;
* H_{d,r}        pairs of partial injections with d common domain points and
                 r common range points;
* H_{d,r,l}      ... agreeing pointwise on exactly l common points.

Closed-form counts exist for H_r and H_{d,r}; the l-refined classes only
admit upper bounds, tight at l = 0.

Everything downstream of the census is computed in the natural-log domain
and exponentiated once; big sums go through math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable

from . import edgegraph
from .errors import ParameterError, RegionError, ScaleError, StructuralError, SymmetryError
from .isosearch import PartialInjection
from .thresholds import ModelParams, derive_params, in_admissible_region

DEFAULT_PAIR_GUARD = 10**7

# ---------------------------------------------------------------------------
# integer combinatorics

def falling_factorial(n: int, m: int) -> int:
    """(n)_m = n(n-1)...(n-m+1); 1 for m = 0; 0 once a factor hits 0."""
    if m < 0:
        raise ParameterError("falling factorial needs m >= 0")
    if m == 0:
        return 1
    if n < m:
        return 0
    out = 1
    for i in range(m):
        out *= n - i
    return out


def binom(n: int, k: int) -> int:
    if n < 0:
        raise ParameterError("binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: tuple[int, ...]) -> int:
    """n! / prod(parts!) for a composition of n; 0 if any part is negative."""
    if n < 0:
        raise ParameterError("multinomial needs n >= 0")
    if any(p < 0 for p in parts):
        return 0
    if sum(parts) != n:
        raise ParameterError("multinomial parts must sum to n")
    out = 1
    rest = n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def injection_pair_space(n: int, m: int) -> int:
    """Number of ordered pairs of total injections, (n)_m squared."""
    return falling_factorial(n, m) ** 2


def partial_space(n: int, m: int) -> int:
    """Number of partial injections with domain size m: C(n,m) * (n)_m."""
    return binom(n, m) * falling_factorial(n, m)


# ---------------------------------------------------------------------------
# first moments

def _log_falling(n: int, m: int) -> float:
    return math.fsum(math.log(n - i) for i in range(m))


def expected_embeddings_log(n: int, m: int) -> float:
    if m > n:
        raise ParameterError("pattern size must not exceed host size")
    return _log_falling(n, m) - binom(m, 2) * math.log(2.0)


def expected_embeddings(n: int, m: int) -> float:
    """E N for the embedding problem: (n)_m * 2^{-C(m,2)}.

    The host's edge law is symmetric under edge/non-edge swap, so the value
    carries no dependence on the pattern's edge probability.
    """
    return math.exp(expected_embeddings_log(n, m))


def expected_common_log(n: int, m: int, params: ModelParams) -> float:
    if m > n:
        raise ParameterError("subgraph size must not exceed n")
    return (
        math.log(binom(n, m)) + _log_falling(n, m) + binom(m, 2) * math.log(params.tau)
        if m > 0
        else 0.0
    )


def expected_common(n: int, m: int, params: ModelParams) -> float:
    """E N for the common-subgraph problem: C(n,m) (n)_m tau^{C(m,2)}."""
    return math.exp(expected_common_log(n, m, params))


# ---------------------------------------------------------------------------
# overlap-class cardinalities

def count_H_r(n: int, m: int, r: int) -> int:
    """|H_r|: pick f, split g's domain into the part hitting f's range (r
    points) and the rest."""
    if not 0 <= r <= m <= n:
        raise ParameterError("need 0 <= r <= m <= n")
    return (
        falling_factorial(n, m)
        * binom(m, r)
        * falling_factorial(m, r)
        * falling_factorial(n - m, m - r)
    )


def bound_H_r_ell(n: int, m: int, r: int, ell: int) -> int:
    """Upper bound for |union over k >= ell of H_{r,k}|; exact at ell = 0."""
    if not 0 <= ell <= r <= m <= n:
        raise ParameterError("need 0 <= ell <= r <= m <= n")
    return (
        falling_factorial(n, m)
        * multinomial(m, (ell, r - ell, m - r))
        * falling_factorial(m - ell, r - ell)
        * falling_factorial(n - m, m - r)
    )


def count_H_dr(n: int, m: int, d: int, r: int) -> int:
    """|H_{d,r}|: domain split times range split times the m!^2 bijections."""
    if not (0 <= d <= m <= n and 0 <= r <= m):
        raise ParameterError("need 0 <= d, r <= m <= n")
    dom = multinomial(n, (m - d, m - d, d, n - 2 * m + d))
    rng = multinomial(n, (m - r, m - r, r, n - 2 * m + r))
    return dom * rng * math.factorial(m) ** 2


def bound_H_drl(n: int, m: int, d: int, r: int, ell: int) -> int:
    """Upper bound for |union over k >= ell of H_{d,r,k}|, exact at ell = 0.

    |H_{d,r}| C(min(d,r), ell) / (m)_ell, rounded up to keep an integer bound.
    """
    if not 0 <= ell <= min(d, r):
        raise ParameterError("need 0 <= ell <= min(d, r)")
    num = count_H_dr(n, m, d, r) * binom(min(d, r), ell)
    den = falling_factorial(m, ell)
    return -(-num // den)


# ---------------------------------------------------------------------------
# census of pair graphs over all ordered map pairs (shared, (p,q)-independent)

Sig = tuple[tuple[int, int, int], ...]


def _identity_census(n: int, m: int, domains: list, bucket_of: Callable) -> dict:
    """Census of all ordered pairs of maps with a domain in `domains`, from
    the pairs (identity, g): bucket_of(profile) -> {(signature, components):
    count}.

    Exact because relabeling acts transitively on the maps and preserves the
    pair graph up to isomorphism (see the module docstring).
    """
    identity = PartialInjection(tuple(range(m)), tuple(range(m)))
    buckets: dict = {}
    for dom in domains:
        for img in permutations(range(n), m):
            prof = edgegraph.classify_components(
                edgegraph.build_common_edge_graph(identity, PartialInjection(dom, img))
            )
            inner = buckets.setdefault(bucket_of(prof), {})
            entry = (prof.census_signature(), prof.n_components)
            inner[entry] = inner.get(entry, 0) + 1
    orbit = len(domains) * falling_factorial(n, m)
    return {key: {entry: cnt * orbit for entry, cnt in inner.items()}
            for key, inner in buckets.items()}


@lru_cache(maxsize=32)
def _embedding_census(n: int, m: int) -> dict[tuple[int, int], dict[tuple[Sig, int], int]]:
    """For every ordered pair of total injections, the partial injections on
    the domain 0..m-1: bucket by (r, ell)."""
    return _identity_census(n, m, [tuple(range(m))], lambda prof: (prof.r, prof.ell))


@lru_cache(maxsize=32)
def _common_census(n: int, m: int) -> dict[tuple[int, int], dict[tuple[Sig, int], int]]:
    """For every ordered pair of partial injections: bucket by (d, r)."""
    return _identity_census(n, m, list(combinations(range(n), m)), lambda prof: (prof.d, prof.r))


def _variant(variant: str) -> tuple[Callable, Callable, Callable]:
    """(log E N, number of ordered map pairs, census) of `variant`."""
    if variant == edgegraph.EMBEDDING:
        return (lambda n, m, _params: expected_embeddings_log(n, m),
                injection_pair_space, _embedding_census)
    if variant == edgegraph.COMMON:
        return expected_common_log, lambda n, m: partial_space(n, m) ** 2, _common_census
    raise ParameterError(f"unknown variant {variant!r}")


def expected_log(n: int, m: int, params: ModelParams, variant: str) -> float:
    """log E N of `variant`."""
    return _variant(variant)[0](n, m, params)


def pair_space(n: int, m: int, variant: str) -> int:
    """Number of ordered map pairs that the census of `variant` sums over."""
    return _variant(variant)[1](n, m)


def _census(n: int, m: int, variant: str, pair_guard: int) -> dict:
    """The cached census of `variant`, for 0 <= m <= n, once the ordered map
    pairs it represents pass the guard."""
    _, space, census = _variant(variant)
    if not 0 <= m <= n:
        raise ParameterError(f"the pair census needs 0 <= m <= n, got n={n}, m={m}")
    pairs = space(n, m)
    if pairs > pair_guard:
        raise ScaleError(f"{pairs} map pairs exceed the guard {pair_guard}; shrink the instance")
    return census(n, m)


def _sig_log_moment(sig: Sig, params: ModelParams) -> float:
    return math.fsum(cnt * math.log(params.tau_jk(j, k)) for j, k, cnt in sig)


def second_moment_exact(
    n: int,
    m: int,
    params: ModelParams,
    variant: str = edgegraph.COMMON,
    pair_guard: int = DEFAULT_PAIR_GUARD,
) -> float:
    """E N^2 summed exactly over all ordered map pairs via the census.

    variant 'embedding' sums over pairs of total injections (requires
    q = 1/2); 'common' sums over pairs of partial injections.
    """
    if variant == edgegraph.EMBEDDING and params.q != 0.5:
        raise ParameterError("embedding moments are defined for q = 1/2")
    buckets = _census(n, m, variant, pair_guard)
    return math.fsum(
        cnt * math.exp(_sig_log_moment(sig, params))
        for key in sorted(buckets)
        for (sig, _), cnt in sorted(buckets[key].items())
    )


def second_moment_ratio(
    n: int,
    m: int,
    params: ModelParams,
    variant: str = edgegraph.COMMON,
    pair_guard: int = DEFAULT_PAIR_GUARD,
) -> float:
    """Exact E N^2 / (E N)^2 on an enumerable instance."""
    en2 = second_moment_exact(n, m, params, variant, pair_guard)
    return en2 * math.exp(-2.0 * expected_log(n, m, params, variant))


# ---------------------------------------------------------------------------
# the embedding bound S

@dataclass(frozen=True)
class MomentBounds:
    """Values of the second-moment majorant S and its split at r <= c*m."""

    c: float
    s_total: float
    s_one: float
    s_two: float
    psi_m: float


def psi_factor(m: int, params: ModelParams, c: float) -> float:
    """(1 + m * beta^{(cm-2)/2})^m, the high-overlap correction factor."""
    return (1.0 + m * params.beta ** ((c * m - 2.0) / 2.0)) ** m


def s_bound(
    n: int,
    m: int,
    p: float,
    c: float = 0.75,
    mode: str = "exact",
    pair_guard: int = DEFAULT_PAIR_GUARD,
) -> MomentBounds:
    """Majorant S of E N^2/(E N)^2 for the embedding problem.

    exact mode sums the pair census:

        S = (n)_m^{-2} sum_r 2^{C(r,2)} sum_{H_r} phat^{C(m,2) - #components},

    split into S_one (r <= c*m) and S_two (the rest).  relaxed mode keeps
    only the cardinalities: 1 + sum_{r>=1} 2^{C(r,2)} |H_r| / (n)_m^2.
    The split is only informative for c above 1/2, so that range is required
    here (the common-subgraph decomposition accepts any c in (0, 1)).
    """
    if not 0.5 < c < 1.0:
        raise ParameterError("the embedding split needs c in (1/2, 1)")
    params = derive_params(p, 0.5)
    phat = params.phat
    pairs_m2 = binom(m, 2)
    space = injection_pair_space(n, m)
    psi = psi_factor(m, params, c)
    if mode == "relaxed":
        s_one_terms = [1.0]
        s_two_terms = [0.0]
        for r in range(1, m + 1):
            term = 2.0 ** binom(r, 2) * count_H_r(n, m, r) / space
            (s_one_terms if r <= c * m else s_two_terms).append(term)
        s_one = math.fsum(s_one_terms)
        s_two = math.fsum(s_two_terms)
        return MomentBounds(c, s_one + s_two, s_one, s_two, psi)
    if mode != "exact":
        raise ParameterError(f"unknown mode {mode!r}")
    buckets = _census(n, m, edgegraph.EMBEDDING, pair_guard)
    s_one_terms: list[float] = []
    s_two_terms: list[float] = []
    log_phat = math.log(phat) if phat < 1.0 else 0.0
    for (r, _ell) in sorted(buckets):
        weight = 2.0 ** binom(r, 2) / space
        for (sig, ncomp), cnt in sorted(buckets[(r, _ell)].items()):
            expo = pairs_m2 - ncomp
            if expo < 0:
                raise StructuralError(
                    "component count exceeded the number of left Vertices"
                )
            term = cnt * weight * math.exp(expo * log_phat)
            (s_one_terms if r <= c * m else s_two_terms).append(term)
    s_one = math.fsum(s_one_terms)
    s_two = math.fsum(s_two_terms)
    return MomentBounds(c, s_one + s_two, s_one, s_two, psi)


# ---------------------------------------------------------------------------
# correlation bound and the overlap-resolved ratio terms

def correlation_bound(d: int, r: int, ell: int, m: int, params: ModelParams) -> float:
    """Upper bound on E J_f J_g / (E J_f E J_g) over H_{d,r,ell}, r <= d:

        (1/tau)^{(1-gamma) C(d,2) + gamma C(r,2)} * beta^{(r-ell)(r-2)/2}.

    Requires (p, q) in the admissible region; for r > d swap the roles of the
    two graphs (mirror p and q) and call with (r, d) instead.
    """
    if not in_admissible_region(params.p, params.q):
        raise RegionError("correlation bound needs (p, q) in the admissible region")
    if r > d:
        raise SymmetryError("r > d: swap d and r and use mirrored parameters")
    if not 0 <= ell <= min(d, r) or d > m:
        raise ParameterError("need 0 <= ell <= min(d, r) <= d <= m")
    log_inv_tau = -math.log(params.tau)
    expo = (1.0 - params.gamma) * binom(d, 2) + params.gamma * binom(r, 2)
    log_val = expo * log_inv_tau + 0.5 * (r - ell) * (r - 2) * math.log(params.beta)
    return math.exp(log_val)


def t_dr(
    n: int,
    m: int,
    params: ModelParams,
    d: int,
    r: int,
    mode: str = "exact",
    c: float = 0.75,
    pair_guard: int = DEFAULT_PAIR_GUARD,
) -> float:
    """One overlap class's share of E N^2/(E N)^2 (common-subgraph problem).

    exact: |J|^{-2} sum over H_{d,r} of the pairwise ratio, via the census.
    bound1: cardinality ratio times the correlation bound at ell = r (no
        decay factor), valid for r <= d.
    bound2: bound1 times psi(m)/(m)_r, valid for c*m <= r <= d.
    """
    space = partial_space(n, m)
    if mode == "exact":
        inner = _census(n, m, edgegraph.COMMON, pair_guard).get((d, r))
        if not inner:
            return 0.0
        log_norm = 2.0 * binom(m, 2) * math.log(params.tau)
        total = math.fsum(
            cnt * math.exp(_sig_log_moment(sig, params) - log_norm)
            for (sig, _), cnt in sorted(inner.items())
        )
        return total / space**2
    if r > d:
        raise SymmetryError("bounds assume r <= d; swap and mirror parameters")
    if not in_admissible_region(params.p, params.q):
        raise RegionError("the t_dr bounds need (p, q) in the admissible region")
    card_ratio = count_H_dr(n, m, d, r) / space**2
    expo = (1.0 - params.gamma) * binom(d, 2) + params.gamma * binom(r, 2)
    base = card_ratio * math.exp(-expo * math.log(params.tau))
    if mode == "bound1":
        return base
    if mode == "bound2":
        if r < c * m:
            raise ParameterError("bound2 needs c*m <= r")
        return base * psi_factor(m, params, c) / falling_factorial(m, r)
    raise ParameterError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RatioDecomposition:
    """Exact second-moment ratio split into the five overlap groups.

    disjoint: d = r = 0 (independent-looking pairs).
    full: d = r = m.
    low_overlap: r <= d, r <= c*m, excluding (0, 0).
    high_overlap: c*m < r <= d, excluding (m, m).
    swapped: d < r.
    lower_bound_term: |H_{m,0}|/|J|^2 (tau_{1,2}/tau^2)^{C(m,2)}, one
        nonnegative summand of the total (diverges outside the region).
    """

    c: float
    disjoint: float
    full: float
    low_overlap: float
    high_overlap: float
    swapped: float
    total: float
    lower_bound_term: float
    by_dr: dict[tuple[int, int], float]


def ratio_decomposition(
    n: int,
    m: int,
    params: ModelParams,
    c: float = 0.75,
    pair_guard: int = DEFAULT_PAIR_GUARD,
) -> RatioDecomposition:
    """Exact t_dr for every overlap class plus the grouped five-term split."""
    if not 0.0 < c < 1.0:
        raise ParameterError("split constant c must lie in (0, 1)")
    _census(n, m, edgegraph.COMMON, pair_guard)  # the guard, once; t_dr reads the cache
    space = partial_space(n, m)
    by_dr: dict[tuple[int, int], float] = {}
    for d in range(m + 1):
        for r in range(m + 1):
            val = t_dr(n, m, params, d, r, "exact", c, pair_guard)
            if val:
                by_dr[(d, r)] = val
    disjoint = by_dr.get((0, 0), 0.0)
    full = by_dr.get((m, m), 0.0)
    low = math.fsum(
        v
        for (d, r), v in sorted(by_dr.items())
        if r <= d and r <= c * m and (d, r) != (0, 0)
    )
    high = math.fsum(
        v
        for (d, r), v in sorted(by_dr.items())
        if r <= d and r > c * m and (d, r) != (m, m)
    )
    swapped = math.fsum(v for (d, r), v in sorted(by_dr.items()) if d < r)
    total = math.fsum(v for _, v in sorted(by_dr.items()))
    t12 = params.tau_jk(1, 2)
    lower = (
        count_H_dr(n, m, m, 0)
        / space**2
        * math.exp(binom(m, 2) * (math.log(t12) - 2.0 * math.log(params.tau)))
    )
    return RatioDecomposition(c, disjoint, full, low, high, swapped, total, lower, by_dr)
