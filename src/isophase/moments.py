"""Exact moments, overlap-class cardinalities and finite-size bounds.

The first moment of the number of matchings has a closed form; the second
moment is evaluated exactly from the census of pair graphs (the component
decomposition), multiplying the census factors of each class.

The census is built from one partner map per orbit class instead of all
ordered pairs.  Relabeling both graphs (S_m x S_n for total injections,
S_n x S_n for partial ones) acts transitively on the maps and carries every
pair graph to an isomorphic one with the same overlap statistics, so the
census over all ordered pairs is |maps| times the census of the identity
map on [m] = {0..m-1} against every partner g.  The relabelings that fix the
identity conjugate g on [m] and relabel the points outside [m] freely, so a
partner's orbit is its class in the rook monoid with tagged chains: the
cycle lengths of g on [m], and its maximal chains in [m], each tagged at its
start (hit from a domain point outside [m], or not hit) and at its end
(outside g's domain, or sent outside [m]).  With z = prod_k k^{a_k} a_k!
over the a_k cycles of length k times prod c_t! over the c_t chains of each
length and tags, s starts hit, b ends outside the domain and e ends sent
outside, a class holds

    m!/z * C(n-m, b) * (b)_s * (n-m)_{b-s+e}

partners.  A total injection is the partial injection on the domain [m], so
the embedding classes are those whose chains all start free and end sent
outside (b = s = 0).  Each class's entry is read off its cycles and chains.
The number of classes depends on m alone; counts stay exact integers, and
the cache keyed by the overlap statistics serves every (p, q).

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
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable

from . import edgegraph
from .errors import ParameterError, RegionError, ScaleError, StructuralError, SymmetryError
from .thresholds import ModelParams, derive_params, in_admissible_region

# ---------------------------------------------------------------------------
# integer combinatorics

def falling_factorial(n: int, m: int) -> int:
    """(n)_m = n(n-1)...(n-m+1); 1 for m = 0; 0 once a factor hits 0."""
    if m < 0:
        raise ParameterError("falling factorial needs m >= 0")
    if m == 0:
        return 1
    return math.perm(n, m) if n >= m else 0


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
# float range

def float_exp(x: float, what: str) -> float:
    """exp(x); a ScaleError naming `what` when it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ScaleError(f"{what} = exp({x!r}) overflows a float") from None


def _in_float_range(value: float, what: str) -> float:
    """value when positive and finite, so that its log is too; else a ScaleError."""
    if not 0.0 < value < math.inf:
        raise ScaleError(f"{what} = {value!r} leaves the float range")
    return value


# ---------------------------------------------------------------------------
# first moments

def _log_falling(n: int, m: int) -> float:
    return math.fsum(math.log(n - i) for i in range(m))


def _check_sizes(n: int, m: int) -> None:
    """The size rule of every moment: maps of size m into n points are
    counted only for 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ParameterError(f"a moment needs 0 <= m <= n, got n={n}, m={m}")


def expected_embeddings_log(n: int, m: int) -> float:
    _check_sizes(n, m)
    return _log_falling(n, m) - binom(m, 2) * math.log(2.0)


def expected_embeddings(n: int, m: int) -> float:
    """E N for the embedding problem: (n)_m * 2^{-C(m,2)}.

    The host's edge law is symmetric under edge/non-edge swap, so the value
    carries no dependence on the pattern's edge probability.
    """
    return float_exp(expected_embeddings_log(n, m), "E N")


def expected_common_log(n: int, m: int, params: ModelParams) -> float:
    _check_sizes(n, m)
    return math.log(binom(n, m)) + _log_falling(n, m) + binom(m, 2) * math.log(params.tau)


def expected_common(n: int, m: int, params: ModelParams) -> float:
    """E N for the common-subgraph problem: C(n,m) (n)_m tau^{C(m,2)}."""
    return float_exp(expected_common_log(n, m, params), "E N")


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

# A census reads each orbit class's entry in about 40-70 us on a 2-core
# x86-64 host and admits at most CLASS_BOUND classes, whose number depends on
# m alone once n >= 2m.  The largest admitted censuses are embedding m = 25
# (129,512 classes, 8.5 s) and common n = 19, m = 13 (125,565, 7.2 s);
# embedding m = 26 (177,087) and common m = 13 at n >= 20 (137,750 and up)
# are refused.
CLASS_BOUND = 130_000

# Chain tags (start hit from outside [m], end outside g's domain).  A partner
# of a total injection has its whole domain in [m], so every chain starts
# free and sends its end outside [m].
_CHAIN_TAGS = {
    edgegraph.EMBEDDING: ((False, False),),
    edgegraph.COMMON: ((False, False), (False, True), (True, False), (True, True)),
}


def _classes(n: int, m: int, variant: str):
    """Orbit classes of partners of the identity, with their sizes, as
    (class, size); classes of size 0 are left out.

    A class is a tuple of ((length, tag), multiplicity): cycles have tag None,
    chains a pair of tags.  s chains hit from outside [m], b chain ends
    outside g's domain and e chain ends sent outside [m] give the size in the
    module docstring, which is 0 unless s <= b <= n - m and b - s + e, the
    chains that start free, is at most n - m.
    """
    kinds = [(length, tag) for length in range(m, 0, -1)
             for tag in (*_CHAIN_TAGS[variant], None) if (length, tag) != (1, None)]

    def multisets(total, start, free, hit, out):
        # Each call yields the class that fills `total` with fixed points, then
        # those that take kinds[start:] first, within the chains left to
        # start free, start hit and end outside the domain.
        yield (((1, None), total),)
        for i in range(start, len(kinds)):
            length, tag = kinds[i]
            most = total // length
            if tag is not None:
                most = min(most, hit if tag[0] else free, out if tag[1] else most)
            for mult in range(1, most + 1):
                left = total - mult * length
                if tag is None:
                    rests = multisets(left, i + 1, free, hit, out)
                else:
                    rests = multisets(left, i + 1, free - mult * (not tag[0]),
                                      hit - mult * tag[0], out - mult * tag[1])
                for rest in rests:
                    yield ((length, tag), mult), *rest

    for cls in multisets(m, 0, n - m, n - m, n - m):
        z, s, b, e = 1, 0, 0, 0
        for (length, tag), mult in cls:
            z *= math.factorial(mult)
            if tag is None:
                z *= length**mult
            else:
                s += mult * tag[0]
                b += mult * tag[1]
                e += mult * (not tag[1])
        if s <= b:
            yield cls, (math.factorial(m) // z * binom(n - m, b) * falling_factorial(b, s)
                        * falling_factorial(n - m, b - s + e))


def _class_entry(m: int, cls: tuple) -> tuple[int, int, int, edgegraph.Sig, int]:
    """(d, r, ell, census signature, components) of the pair graph of the
    identity and a partner in the class, read off its cycles and chains.  As
    in the cycle index of the pair group, a cycle c gives (c-1)//2 components
    (c, c) and one (c/2, c/2) if c is even, cycles a, b give gcd(a, b) of
    (lcm, lcm), a chain (a, hit, sent) and a cycle c give c of (a + hit,
    a + sent), two chains one per offset t, other pairs of g's domain (1, 1).
    """
    comps: Counter = Counter()
    cycles = [(c, mult) for (c, tag), mult in cls if tag is None]
    chains = [(a, tag[0], not tag[1], mult) for (a, tag), mult in cls if tag is not None]
    for i, (c, mult) in enumerate(cycles):
        comps[c, c] += mult * ((c - 1) // 2) + binom(mult, 2) * c
        if c % 2 == 0:
            comps[c // 2, c // 2] += mult
        for c2, mult2 in cycles[i + 1:]:
            comps[math.lcm(c, c2), math.lcm(c, c2)] += math.gcd(c, c2) * mult * mult2
    on_cycles = sum(c * mult for c, mult in cycles)
    for i, (a, hit_a, sent_a, mult) in enumerate(chains):
        comps[a + hit_a, a + sent_a] += on_cycles * mult
        for j, (b, hit_b, sent_b, mult_b) in enumerate(chains[i:]):
            for t in range(1 - a, b):  # j = 0: chains of A's kind, and A itself at t > 0
                ra, rb = a - max(0, -t), b - max(0, t)
                k = min(ra, rb)
                comps[k + ((hit_a or t < 0) and (hit_b or t > 0)),
                      k + ((k < ra or sent_a) and (k < rb or sent_b))] += (
                    mult * mult_b if j else binom(mult + (t > 0), 2))
    u = sum(mult for _, _, sent, mult in chains if not sent)
    s = sum(mult for _, hit, _, mult in chains if hit)
    n_chains = sum(mult for *_, mult in chains)
    comps[1, 1] += binom(m, 2) - binom(m - u, 2) - binom(s, 2) - s * (m - n_chains)
    sig = tuple(sorted((j, k, cnt) for (j, k), cnt in comps.items() if cnt))
    return m - u, m - n_chains + s, dict(cls)[(1, None)], sig, sum(comps.values())


@lru_cache(maxsize=32)
def _census(
    n: int, m: int, variant: str
) -> dict[tuple[int, int], dict[tuple[edgegraph.Sig, int], int]]:
    """Census of all ordered pairs of maps of `variant`: bucket by (r, ell)
    for embedding, (d, r) for common -> {(signature, components): count}.

    It needs 0 <= m <= n, at most CLASS_BOUND orbit classes, counted
    before any entry is read, and a pair space within the float
    range.  The pairs (identity, g) with g in one class have isomorphic
    pair graphs, so each class's entry counts its size times |maps|.
    """
    _, count_maps, _ = _variant(variant)
    _check_sizes(n, m)
    classes = list(islice(_classes(n, m, variant), CLASS_BOUND + 1))
    if len(classes) > CLASS_BOUND:
        raise ScaleError(f"the census of n={n}, m={m} has more than {CLASS_BOUND} orbit classes")
    maps = count_maps(n, m)
    if maps**2 > sys.float_info.max:
        raise ScaleError(f"the pair space of n={n}, m={m} exceeds the float range")
    buckets: dict = {}
    for cls, size in classes:
        d, r, ell, sig, n_components = _class_entry(m, cls)
        inner = buckets.setdefault((r, ell) if variant == edgegraph.EMBEDDING else (d, r), {})
        inner[(sig, n_components)] = inner.get((sig, n_components), 0) + size * maps
    return buckets


def _variant(variant: str) -> tuple[Callable, Callable, Callable]:
    """(log E N, number of maps, lgamma form of log |maps|) of `variant`."""
    edgegraph.check_variant(variant)
    if variant == edgegraph.EMBEDDING:
        return (lambda n, m, _params: expected_embeddings_log(n, m), falling_factorial,
                _lgamma_falling)
    return (expected_common_log, partial_space,
            lambda n, m: _lgamma_falling(n, m) + _lgamma_binom(n, m))


def _lgamma_falling(n: int, m: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(n - m + 1)


def _lgamma_binom(n: int, m: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def expected_log(n: int, m: int, params: ModelParams, variant: str) -> float:
    """log E N of `variant`; the embedding variant needs q = 1/2."""
    edgegraph.check_variant(variant, params.q)
    return _variant(variant)[0](n, m, params)


def pair_space(n: int, m: int, variant: str) -> int:
    """Number of ordered map pairs that the census of `variant` sums over."""
    count_maps = _variant(variant)[1]
    _check_sizes(n, m)
    return count_maps(n, m) ** 2


def pair_space_log10(n: int, m: int, variant: str) -> float:
    """A lower bound on log10 of the pair space, so that a huge instance is
    rejected before anything computes it exactly.

    Below 2^53 it comes from lgamma, less a slack far above lgamma's rounding
    error.  Above, lgamma's arguments would round, and with k = min(m, 2^52)
    the bound (n)_m >= (n)_k >= (n/2)^k serves instead.
    """
    log_maps = _variant(variant)[2]
    _check_sizes(n, m)
    if n >= 2**53:
        return 2.0 * min(m, 2**52) * (math.log10(n) - math.log10(2)) * (1.0 - 1e-12)
    slack = 1.0 + 1e-12 * n * math.log(n + 2)
    return (2.0 * log_maps(n, m) - slack) / math.log(10)


def second_moment_exact(
    n: int,
    m: int,
    params: ModelParams,
    variant: str = edgegraph.COMMON,
) -> float:
    """E N^2 summed exactly over all ordered map pairs via the census.

    variant 'embedding' sums over pairs of total injections (requires
    q = 1/2); 'common' sums over pairs of partial injections.
    """
    edgegraph.check_variant(variant, params.q)
    buckets = _census(n, m, variant)
    en2 = math.fsum(
        cnt * math.exp(edgegraph.log_pair_moment(sig, params))
        for key in sorted(buckets)
        for (sig, _), cnt in sorted(buckets[key].items())
    )
    return _in_float_range(en2, "E N^2")


def second_moment_ratio(
    n: int,
    m: int,
    params: ModelParams,
    variant: str = edgegraph.COMMON,
) -> float:
    """Exact E N^2 / (E N)^2 on an enumerable instance."""
    en2 = second_moment_exact(n, m, params, variant)
    log_en = expected_log(n, m, params, variant)
    return _in_float_range(en2 * float_exp(-2.0 * log_en, "(E N)^-2"), "E N^2/(E N)^2")


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
    _check_sizes(n, m)
    params = derive_params(p, 0.5)
    phat = params.phat
    pairs_m2 = binom(m, 2)
    space = injection_pair_space(n, m)
    psi = psi_factor(m, params, c)
    if mode == "relaxed":
        s_one_terms = [1.0]
        s_two_terms = [0.0]
        try:
            for r in range(1, m + 1):
                term = 2.0 ** binom(r, 2) * count_H_r(n, m, r) / space
                (s_one_terms if r <= c * m else s_two_terms).append(term)
            s_one = math.fsum(s_one_terms)
            s_two = math.fsum(s_two_terms)
        except OverflowError:
            s_one = s_two = math.inf
        s_total = _in_float_range(s_one + s_two, f"the relaxed S of n={n}, m={m}")
        return MomentBounds(c, s_total, s_one, s_two, psi)
    if mode != "exact":
        raise ParameterError(f"unknown mode {mode!r}")
    buckets = _census(n, m, edgegraph.EMBEDDING)
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
) -> float:
    """One overlap class's share of E N^2/(E N)^2 (common-subgraph problem).

    exact: |J|^{-2} sum over H_{d,r} of the pairwise ratio, via the census.
    bound1: cardinality ratio times the correlation bound at ell = r (no
        decay factor), valid for r <= d.
    bound2: bound1 times psi(m)/(m)_r, valid for c*m <= r <= d.
    """
    _check_sizes(n, m)
    space = partial_space(n, m)
    if mode == "exact":
        inner = _census(n, m, edgegraph.COMMON).get((d, r))
        if not inner:
            return 0.0
        log_norm = 2.0 * binom(m, 2) * math.log(params.tau)
        total = math.fsum(
            cnt * float_exp(edgegraph.log_pair_moment(sig, params) - log_norm,
                            "E J_f J_g / (E J)^2")
            for (sig, _), cnt in sorted(inner.items())
        )
        return total / space**2
    if r > d:
        raise SymmetryError("bounds assume r <= d; swap and mirror parameters")
    if not in_admissible_region(params.p, params.q):
        raise RegionError("the t_dr bounds need (p, q) in the admissible region")
    if mode not in ("bound1", "bound2"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "bound2" and r < c * m:
        raise ParameterError("bound2 needs c*m <= r")
    count = count_H_dr(n, m, d, r)
    if not count:
        return 0.0
    # Summed as logs: the cardinality ratio can underflow a float where the
    # correlation factor overflows one, though their product is in range.
    expo = (1.0 - params.gamma) * binom(d, 2) + params.gamma * binom(r, 2)
    logs = [math.log(count), -2.0 * math.log(space), -expo * math.log(params.tau)]
    if mode == "bound2":
        logs += [math.log(psi_factor(m, params, c)), -math.log(falling_factorial(m, r))]
    return float_exp(math.fsum(logs), f"t_dr {mode}")


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
) -> RatioDecomposition:
    """Exact t_dr for every overlap class plus the grouped five-term split."""
    if not 0.0 < c < 1.0:
        raise ParameterError("split constant c must lie in (0, 1)")
    by_dr: dict[tuple[int, int], float] = {}
    for d, r in sorted(_census(n, m, edgegraph.COMMON)):
        val = t_dr(n, m, params, d, r, "exact", c)
        if val:
            by_dr[(d, r)] = val
    space = partial_space(n, m)
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
        * float_exp(binom(m, 2) * (math.log(t12) - 2.0 * math.log(params.tau)),
                    "(tau_{1,2}/tau^2)^C(m,2)")
    )
    return RatioDecomposition(c, disjoint, full, low, high, swapped, total, lower, by_dr)
