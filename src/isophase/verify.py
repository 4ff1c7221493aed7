"""Randomized property suites for the component-census identities.

Each case draws a seeded random pair of (total or partial) injections,
builds the pair graph, and checks every counting identity the census must
satisfy: class shapes (which (j, k) occur, which are paths/cycles), Vertex
and Degree-1 tallies against closed forms in the overlap statistics, and the
inequalities bounding pointwise-agreement counts.  Used by the `verify` CLI
subcommand and by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import edgegraph, rado, thresholds
from .edgegraph import ComponentProfile, EdgeGraph
from .errors import ParameterError
from .isosearch import Injection, PartialInjection
from .rng import Xoshiro256StarStar


def _binom2(x: int) -> int:
    return x * (x - 1) // 2


def _degree_one_counts(t: EdgeGraph) -> tuple[int, int]:
    nl = len(t.left)
    deg = [0] * (nl + len(t.right))
    for li, ri in t.edges:
        deg[li] += 1
        deg[nl + ri] += 1
    left1 = sum(1 for v in range(nl) if deg[v] == 1)
    right1 = sum(1 for v in range(nl, len(deg)) if deg[v] == 1)
    return left1, right1


def check_total_pair(t: EdgeGraph, prof: ComponentProfile) -> list[str]:
    """Identity checks for a pair of total injections."""
    bad: list[str] = []
    m, r, ell = prof.m, prof.r, prof.ell
    c = prof.c
    if any(k not in (j, j + 1) for j, k in c):
        bad.append(f"class outside k in {{j, j+1}}: {sorted(c)}")
    if sum(c.values()) != prof.n_components:
        bad.append("census total != component count")
    if sum(j * cnt for (j, k), cnt in c.items()) != _binom2(m):
        bad.append("left Vertex tally != C(m,2)")
    if sum(k * cnt for (j, k), cnt in c.items()) != 2 * _binom2(m) - _binom2(r):
        bad.append("right Vertex tally != 2C(m,2) - C(r,2)")
    grow = sum(cnt for (j, k), cnt in c.items() if k == j + 1)
    if grow != _binom2(m) - _binom2(r):
        bad.append("path-class tally != C(m,2) - C(r,2)")
    c11 = c.get((1, 1), 0)
    if not (_binom2(ell) <= c11 <= _binom2(ell) + (r - ell) / 2.0):
        bad.append(f"c(1,1)={c11} outside [C(l,2), C(l,2)+(r-l)/2]")
    big_diag = sum(cnt for (j, k), cnt in c.items() if j == k and j >= 2)
    if big_diag > (_binom2(r) - _binom2(ell)) / 2.0:
        bad.append("diagonal classes j>=2 exceed (C(r,2)-C(l,2))/2")
    if any(j == 1 for j in prof.c_cycles):
        bad.append("single-pair cycle is impossible")
    for j in set(prof.c_cycles) | set(prof.c_paths_jj):
        if prof.c_cycles.get(j, 0) + prof.c_paths_jj.get(j, 0) != c.get((j, j), 0):
            bad.append("cycle/path split does not cover the diagonal class")
    if prof.d != m:
        bad.append("total pair must have full domain overlap")
    return bad


def check_partial_pair(t: EdgeGraph, prof: ComponentProfile) -> list[str]:
    """Identity checks for a pair of partial injections."""
    bad: list[str] = []
    m, d, r, ell, zc = prof.m, prof.d, prof.r, prof.ell, prof.zcal
    c = prof.c
    if any(abs(j - k) > 1 for j, k in c):
        bad.append(f"class with |j-k| > 1: {sorted(c)}")
    for j in set(prof.c_cycles) | set(prof.c_paths_jj):
        if prof.c_cycles.get(j, 0) + prof.c_paths_jj.get(j, 0) != c.get((j, j), 0):
            bad.append("cycle/path split does not cover the diagonal class")
    if any(j == 1 for j in prof.c_cycles):
        bad.append("single-pair cycle is impossible")

    left_total = sum(j * cnt for (j, k), cnt in c.items())
    right_total = sum(k * cnt for (j, k), cnt in c.items())
    if left_total != len(t.left) or left_total != 2 * _binom2(m) - _binom2(d):
        bad.append("left Vertex tally != 2C(m,2) - C(d,2)")
    if right_total != len(t.right) or right_total != 2 * _binom2(m) - _binom2(r):
        bad.append("right Vertex tally != 2C(m,2) - C(r,2)")

    paths_jj = sum(prof.c_paths_jj.values())
    up = sum(cnt for (j, k), cnt in c.items() if k == j + 1)
    down = sum(cnt for (j, k), cnt in c.items() if j == k + 1)
    left1, right1 = _degree_one_counts(t)
    if left1 != paths_jj + 2 * down:
        bad.append("Degree-1 left tally != paths_jj + 2*c(j+1,j)")
    if right1 != paths_jj + 2 * up:
        bad.append("Degree-1 right tally != paths_jj + 2*c(j,j+1)")
    if left1 != zc + 2 * _binom2(m) - 2 * _binom2(d):
        bad.append("Degree-1 left closed form failed")
    if right1 != zc + 2 * _binom2(m) - 2 * _binom2(r):
        bad.append("Degree-1 right closed form failed")

    if up - down != _binom2(d) - _binom2(r):
        bad.append("class asymmetry != C(d,2) - C(r,2)")
    # Weighted tallies: every component contributes its left count minus one,
    # cycles contribute one extra (their right count equals their left count).
    n_cycles = sum(prof.c_cycles.values())
    por2 = left_total - prof.n_components + n_cycles
    if por2 != _binom2(r) - zc:
        bad.append("weighted component tally != C(r,2) - |Z|")
    if n_cycles > (_binom2(r) - zc) / 2.0:
        bad.append("cycle count exceeds (C(r,2) - |Z|)/2")
    por4 = left_total - prof.n_components
    if por4 < (_binom2(r) - zc) / 2.0 - 1e-9:
        bad.append("path/cycle excess below (C(r,2) - |Z|)/2")
    if not (_binom2(ell) <= zc <= _binom2(ell) + (r - ell) / 2.0):
        bad.append(f"|Z|={zc} outside [C(l,2), C(l,2)+(r-l)/2]")
    return bad


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, case: str, bad: list[str], n_checks: int) -> None:
        self.cases += 1
        self.checks += n_checks
        for msg in bad:
            if len(self.violations) < 50:
                self.violations.append(f"{case}: {msg}")

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"suite {self.name}: {self.cases} cases, {self.checks} checks, {status}"


_TOTAL_CHECKS = 10
_PARTIAL_CHECKS = 14


def run_component_suite(
    pairs: int = 10_000, seed: int = 7, m_max: int = 6, n_max: int = 14
) -> SuiteReport:
    """Check the census identities on `pairs` random total and partial pairs."""
    report = SuiteReport("edgegraph")
    stream = Xoshiro256StarStar(seed)
    for case in range(pairs):
        m = 1 + stream.randint_below(m_max)
        n = m + stream.randint_below(n_max - m + 1)
        f = Injection(m, n, tuple(stream.sample_distinct(n, m)))
        g = Injection(m, n, tuple(stream.sample_distinct(n, m)))
        t = edgegraph.build_embedding_edge_graph(f, g, m, n)
        prof = edgegraph.classify_components(t)
        report.record(f"total#{case}(m={m},n={n})", check_total_pair(t, prof), _TOTAL_CHECKS)

        fp = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        gp = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        tp = edgegraph.build_common_edge_graph(fp, gp)
        profp = edgegraph.classify_components(tp)
        report.record(
            f"partial#{case}(m={m},n={n})", check_partial_pair(tp, profp), _PARTIAL_CHECKS
        )
    return report


def run_threshold_suite(samples: int = 400, seed: int = 7) -> SuiteReport:
    """Numeric sanity of the threshold curve and the derived constants."""
    report = SuiteReport("thresholds")
    stream = Xoshiro256StarStar(seed)
    lam = thresholds.derive_params(0.5, 0.5).lam
    xs = sorted(1.0 + stream.random() * 999.0 for _ in range(samples))
    for i, x in enumerate(xs):
        bad = []
        if thresholds.w_eval(x, lam, 1) < 1.0:
            bad.append(f"W'({x}) < 1")
        if thresholds.w_eval(x, lam, 2) >= 0.0:
            bad.append(f"W''({x}) >= 0")
        if i + 1 < len(xs) and not thresholds.w_eval(xs[i], lam, 0) < thresholds.w_eval(xs[i + 1], lam, 0):
            bad.append("W not strictly increasing")
        report.record(f"curve#{i}", bad, 3)
    for case in range(samples):
        p = 0.01 + 0.98 * stream.random()
        q = 0.01 + 0.98 * stream.random()
        bad = []
        inside = thresholds.in_admissible_region(p, q)
        # points within float noise of the boundary curve cannot be compared
        if abs(thresholds.region_margin(p, q)) > 1e-9:
            if inside != thresholds.in_admissible_region(q, p):
                bad.append("region not symmetric under p <-> q")
            if inside != thresholds.in_admissible_region(1.0 - p, 1.0 - q):
                bad.append("region not symmetric under complement")
        if inside:
            g = thresholds.derive_params(p, q).gamma
            if not 0.5 < g <= 1.0 + 1e-12:
                bad.append(f"gamma={g} outside (1/2, 1] inside the region")
        report.record(f"region#{case}(p={p:.3f},q={q:.3f})", bad, 3)
    return report


def run_rado_suite(cases: int = 1000, seed: int = 7) -> SuiteReport:
    """Round trips, witness properties and edge preservation."""
    report = SuiteReport("rado")
    stream = Xoshiro256StarStar(seed)
    for k in range(cases):
        n = stream.randint_below(1 << 16)
        bad = []
        if rado.ackermann_encode(rado.ackermann_decode(n)) != n:
            bad.append(f"decode/encode round trip failed at {n}")
        report.record(f"roundtrip#{k}", bad, 1)
    for k in range(cases):
        a = rado.random_set(stream, max_depth=4)
        b = rado.random_set(stream, max_depth=4)
        bad = []
        if rado.ackermann_decode(rado.ackermann_encode(a)) != a:
            bad.append("set round trip failed")
        if a != b:
            member = a in b.members or b in a.members
            if member != rado.bit_adjacent(rado.ackermann_encode(a), rado.ackermann_encode(b)):
                bad.append("membership and bit adjacency disagree")
        report.record(f"sets#{k}", bad, 2)
    for k in range(cases):
        size_u = stream.randint_below(6)
        size_v = stream.randint_below(6)
        chosen = stream.sample_distinct(31, size_u + size_v)
        u_set = set(chosen[:size_u])
        v_set = set(chosen[size_u:])
        z = rado.extension_witness(u_set, v_set)
        bad = []
        if any(not rado.bit_adjacent(z, u) for u in u_set):
            bad.append("witness misses a required neighbour")
        if any(rado.bit_adjacent(z, v) for v in v_set):
            bad.append("witness adjacent to a forbidden vertex")
        if z in u_set | v_set:
            bad.append("witness collides with the constraint sets")
        if u_set | v_set and z <= max(u_set | v_set):
            bad.append("witness does not exceed the constraint vertices")
        report.record(f"witness#{k}", bad, 4)
    return report


def run_suite(name: str, pairs: int = 10_000, seed: int = 7) -> list[SuiteReport]:
    if pairs < 1:
        raise ParameterError(f"the suites need at least 1 pair, got {pairs}")
    if name == "edgegraph":
        return [run_component_suite(pairs, seed)]
    if name == "thresholds":
        return [run_threshold_suite(max(10, pairs // 25), seed)]
    if name == "rado":
        return [run_rado_suite(max(10, min(pairs, 10_000)), seed)]
    if name == "all":
        return (
            run_suite("edgegraph", pairs, seed)
            + run_suite("thresholds", pairs, seed)
            + run_suite("rado", pairs, seed)
        )
    raise ValueError(f"unknown suite {name!r}")
