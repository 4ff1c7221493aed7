"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the stated requirements; the
oracles come from tests/oracles.py and recompute everything from first
principles.
"""

import json
import math

import oracles
from isophase import moments
from isophase.cli import main
from isophase.edgegraph import build_common_edge_graph, classify_components, pair_moment
from isophase.experiments import CSV_COLUMNS, ExperimentConfig, export, run_sweep
from isophase.isosearch import PartialInjection
from isophase.moments import (
    bound_H_drl,
    bound_H_r_ell,
    binom,
    correlation_bound,
    count_H_dr,
    count_H_r,
    expected_common,
    expected_embeddings,
    ratio_decomposition,
    s_bound,
    second_moment_exact,
    second_moment_ratio,
)
from isophase.rado import (
    ackermann_decode,
    ackermann_encode,
    bit_adjacent,
    extension_witness,
    random_set,
)
from isophase.rng import Xoshiro256StarStar
from isophase.thresholds import (
    derive_params,
    in_admissible_region,
    m_star,
    m_star_approx,
    region_corner,
    w_eval,
)
from isophase.verify import run_component_suite

GRID_PQ = (0.2, 0.5, 0.8)
REL_TOL = 1e-9


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}")
    for f in failures[:12]:
        print(f"    {f}")
    assert not failures, f"criterion {num} failed ({len(failures)} problems)"


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _grid_cells():
    return [(m, n) for m in (2, 3) for n in range(m, 6)]


def test_criterion_01_first_moment_oracle():
    failures = []
    for m, n in _grid_cells():
        nmat = oracles.embed_count_matrix(m, n)
        wy = oracles.graph_weights(n * (n - 1) // 2, 0.5)
        for p in GRID_PQ:
            wx = oracles.graph_weights(m * (m - 1) // 2, p)
            want = oracles.first_moment(nmat, wx, wy)
            got = expected_embeddings(n, m)
            if _rel_err(got, want) > REL_TOL:
                failures.append(f"embed (m={m},n={n},p={p}): {got} vs oracle {want}")
    for m, n in _grid_cells():
        nmat = oracles.common_count_matrix(n, m)
        for p in GRID_PQ:
            for q in GRID_PQ:
                wx = oracles.graph_weights(n * (n - 1) // 2, p)
                wy = oracles.graph_weights(n * (n - 1) // 2, q)
                want = oracles.first_moment(nmat, wx, wy)
                got = expected_common(n, m, derive_params(p, q))
                if _rel_err(got, want) > REL_TOL:
                    failures.append(f"common (m={m},n={n},p={p},q={q}): {got} vs {want}")
    _report(1, "first moments match graph-pair enumeration", failures)


def test_criterion_02_second_moment_oracle():
    failures = []
    for m, n in _grid_cells():
        nmat = oracles.embed_count_matrix(m, n)
        wy = oracles.graph_weights(n * (n - 1) // 2, 0.5)
        for p in GRID_PQ:
            wx = oracles.graph_weights(m * (m - 1) // 2, p)
            want = oracles.second_moment(nmat, wx, wy)
            got = second_moment_exact(n, m, derive_params(p, 0.5), "embedding")
            if _rel_err(got, want) > REL_TOL:
                failures.append(f"embed (m={m},n={n},p={p}): {got} vs oracle {want}")
    for m, n in _grid_cells():
        nmat = oracles.common_count_matrix(n, m)
        for p in GRID_PQ:
            for q in GRID_PQ:
                wx = oracles.graph_weights(n * (n - 1) // 2, p)
                wy = oracles.graph_weights(n * (n - 1) // 2, q)
                want = oracles.second_moment(nmat, wx, wy)
                got = second_moment_exact(n, m, derive_params(p, q), "common")
                if _rel_err(got, want) > REL_TOL:
                    failures.append(f"common (m={m},n={n},p={p},q={q}): {got} vs {want}")
    _report(2, "component-decomposition second moments match enumeration", failures)


def test_criterion_03_cardinality_identities():
    failures = []
    for m in range(1, 5):
        for n in range(m, 7):
            hist = oracles.overlap_histogram_embedding(n, m)
            for r in range(m + 1):
                enum = sum(c for (rr, _), c in hist.items() if rr == r)
                if enum != count_H_r(n, m, r):
                    failures.append(f"|H_r| (n={n},m={m},r={r}): {enum} != {count_H_r(n, m, r)}")
                for ell in range(r + 1):
                    union = sum(c for (rr, ll), c in hist.items() if rr == r and ll >= ell)
                    bound = bound_H_r_ell(n, m, r, ell)
                    if union > bound:
                        failures.append(f"H_r,l bound broken (n={n},m={m},r={r},l={ell})")
                    if ell == 0 and union != bound:
                        failures.append(f"H_r,0 bound not tight (n={n},m={m},r={r})")
    for m in range(1, 4):
        for n in range(m, 7):
            hist = oracles.overlap_histogram_common(n, m)
            for d in range(m + 1):
                for r in range(m + 1):
                    enum = sum(c for (dd, rr, _), c in hist.items() if dd == d and rr == r)
                    if enum != count_H_dr(n, m, d, r):
                        failures.append(
                            f"|H_d,r| (n={n},m={m},d={d},r={r}): {enum} != {count_H_dr(n, m, d, r)}"
                        )
                    for ell in range(min(d, r) + 1):
                        union = sum(
                            c
                            for (dd, rr, ll), c in hist.items()
                            if dd == d and rr == r and ll >= ell
                        )
                        bound = bound_H_drl(n, m, d, r, ell)
                        if union > bound:
                            failures.append(
                                f"H_d,r,l bound broken (n={n},m={m},d={d},r={r},l={ell})"
                            )
                        if ell == 0 and union != bound:
                            failures.append(f"H_d,r,0 not tight (n={n},m={m},d={d},r={r})")
    _report(3, "overlap-class cardinalities match enumeration", failures)


def test_criterion_04_component_law_suite():
    report = run_component_suite(pairs=10_000, seed=20260808, m_max=6, n_max=14)
    failures = list(report.violations)
    if report.cases != 20_000:
        failures.append(f"expected 20000 recorded cases, got {report.cases}")
    _report(4, f"component laws on 10^4 random pairs ({report.checks} checks)", failures)


def test_criterion_05_bound_verification():
    failures = []
    # ratio >= 1 and ratio <= exact S (embedding) on the grid
    for m, n in _grid_cells():
        for p in GRID_PQ:
            params = derive_params(p, 0.5)
            ratio = second_moment_ratio(n, m, params, "embedding")
            if ratio < 1.0 - 1e-10:
                failures.append(f"embed ratio < 1 at (m={m},n={n},p={p})")
            bound = s_bound(n, m, p, mode="exact").s_total
            if ratio > bound * (1 + 1e-12):
                failures.append(f"ratio {ratio} above S {bound} at (m={m},n={n},p={p})")
    region_grid = [
        (p, q) for p in GRID_PQ for q in GRID_PQ if in_admissible_region(p, q)
    ]
    for m, n in _grid_cells():
        for p, q in region_grid:
            params = derive_params(p, q)
            ratio = second_moment_ratio(n, m, params, "common")
            if ratio < 1.0 - 1e-10:
                failures.append(f"common ratio < 1 at (m={m},n={n},p={p},q={q})")
            dec = ratio_decomposition(n, m, params)
            if _rel_err(dec.total, ratio) > REL_TOL:
                failures.append(
                    f"t_dr total {dec.total} != ratio {ratio} at (m={m},n={n},p={p},q={q})"
                )
            for d in range(m + 1):
                for r in range(d + 1):
                    exact = moments.t_dr(n, m, params, d, r, "exact")
                    bound1 = moments.t_dr(n, m, params, d, r, "bound1")
                    if exact > bound1 * (1 + 1e-9):
                        failures.append(
                            f"t_dr exact {exact} above bound1 {bound1} "
                            f"at (m={m},n={n},p={p},q={q},d={d},r={r})"
                        )
    # correlation bound on 10^4 random pairs with r <= d
    stream = Xoshiro256StarStar(5)
    checked = 0
    while checked < 10_000:
        p, q = region_grid[stream.randint_below(len(region_grid))]
        params = derive_params(p, q)
        m = 2 + stream.randint_below(4)
        n = m + stream.randint_below(11 - m)
        f = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        g = PartialInjection(
            tuple(sorted(stream.sample_distinct(n, m))), tuple(stream.sample_distinct(n, m))
        )
        prof = classify_components(build_common_edge_graph(f, g))
        if prof.r > prof.d:
            continue
        lhs = pair_moment(prof, params) / params.tau ** (2 * binom(m, 2))
        bound = correlation_bound(prof.d, prof.r, prof.ell, m, params)
        if lhs > bound * (1 + 1e-9):
            failures.append(
                f"correlation bound broken at m={m},n={n},d={prof.d},r={prof.r},l={prof.ell}"
            )
        checked += 1
    _report(5, "second-moment bounds dominate exact values", failures)


def test_criterion_06_threshold_constants():
    failures = []
    p_star, q_star = region_corner()
    if abs(p_star - 0.1464466094) > 1e-8 or abs(q_star - 0.8535533906) > 1e-8:
        failures.append(f"corner ({p_star}, {q_star})")
    corner = derive_params(p_star, q_star)
    if abs(corner.lam - 0.7213475205) > 1e-8:
        failures.append(f"lambda at corner {corner.lam}")
    if abs(corner.gamma - 0.5) > 1e-8:
        failures.append(f"gamma at corner {corner.gamma}")
    half = derive_params(0.5, 0.5)
    if w_eval(1.0, half.lam, 0) != 1.0 + half.lam * math.log(2 * math.pi):
        failures.append("W(1) != 1 + lam*log(2*pi) exactly")
    for n in (10**2, 10**3, 10**6, 10**9):
        _, _, residual = m_star(n, half)
        if residual > 1e-10:
            failures.append(f"m_star residual {residual} at n={n}")
    gaps = []
    for n in (10**3, 10**6, 10**9):
        root, _, _ = m_star(n, half)
        gaps.append(abs(root - m_star_approx(n, half)))
    if not (gaps[0] > gaps[1] > gaps[2]):
        failures.append(f"approximation gaps not decreasing: {gaps}")
    if not all(g < 1.0 for g in gaps):
        failures.append(f"approximation gap >= 1: {gaps}")
    _report(6, "threshold constants and root behaviour", failures)


def test_criterion_07_embedding_phase_transition():
    config = ExperimentConfig(
        problem="embed",
        n_values=(32,),
        p=0.5,
        q=0.5,
        trials=200,
        master_seed=20260808,
        m_values=(5, 8, 9, 10, 11, 12, 13, 15),
    )
    result = run_sweep(config)
    rows = {row.m: row for row in result.rows}
    failures = []
    if rows[5].p_hat < 0.90:
        failures.append(f"p_hat(5) = {rows[5].p_hat}")
    if rows[15].p_hat > 0.05:
        failures.append(f"p_hat(15) = {rows[15].p_hat}")
    unknowns = sum(row.unknowns for row in result.rows)
    if unknowns != 0:
        failures.append(f"{unknowns} unknown trials")
    crossing = result.empirical_thresholds[32]
    if crossing is None or not 9.0 <= crossing <= 13.0:
        failures.append(f"crossing {crossing} outside [9, 13]")
    detail = {m: round(rows[m].p_hat, 3) for m in sorted(rows)}
    _report(7, f"embedding transition at n=32 (theory center 11, curve {detail}, "
               f"crossing {None if crossing is None else round(crossing, 2)})", failures)


def test_criterion_08_common_phase_transition():
    config = ExperimentConfig(
        problem="common",
        n_values=(12,),
        p=0.5,
        q=0.5,
        trials=200,
        master_seed=20260808,
        m_values=(7, 11, 12),
    )
    result = run_sweep(config)
    rows = {row.m: row for row in result.rows}
    failures = []
    if rows[7].p_hat < 0.80:
        failures.append(f"p_hat(7) = {rows[7].p_hat}")
    if rows[11].p_hat > 0.05:
        failures.append(f"p_hat(11) = {rows[11].p_hat}")
    if rows[12].p_hat != 0.0:
        failures.append(f"p_hat(12) = {rows[12].p_hat}")
    for row in result.rows:
        if row.unknowns > 0.05 * row.trials:
            failures.append(f"m={row.m}: {row.unknowns} unknowns")
    detail = {m: round(rows[m].p_hat, 3) for m in sorted(rows)}
    _report(8, f"common-subgraph transition at n=12 (m_star 10.80, curve {detail})", failures)


def test_criterion_09_determinism(tmp_path, capsys):
    base = dict(
        problem="embed", n_values=(16,), p=0.5, q=0.5, trials=30,
        master_seed=99, m_values=(3, 5, 7, 9, 11),
    )
    # Two independent runs of one config: one in-process, one through
    # `isophase experiment --config` writing its own CSV.
    direct = run_sweep(ExperimentConfig(**base))
    direct_path = tmp_path / "direct.csv"
    export(direct, "csv", str(direct_path))
    cli_path = tmp_path / "cli.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**base, "csv_path": str(cli_path)}))
    failures = []
    code = main(["experiment", "--config", str(config_path)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"isophase experiment exited {code}")
    texts = [_mask_wall_ms(path.read_text()) if path.exists() else None
             for path in (direct_path, cli_path)]
    if texts[0] != texts[1]:
        failures.append("CSV outputs of two runs differ beyond the wall_ms column")
    if len(texts[0].splitlines()) != 1 + len(base["m_values"]):
        failures.append("CSV does not hold one row per cell")
    _report(9, "sweep CSV identical across two independent runs, one through the CLI", failures)


def _mask_wall_ms(text: str) -> str:
    idx = CSV_COLUMNS.split(",").index("wall_ms")
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[idx] = "_"
        out.append(",".join(parts))
    return "\n".join(out)


def test_criterion_10_rado_suite():
    failures = []
    for n in range(1 << 16):
        if ackermann_encode(ackermann_decode(n)) != n:
            failures.append(f"round trip failed at {n}")
            break
    stream = Xoshiro256StarStar(20260808)
    for k in range(1000):
        s = random_set(stream, max_depth=4)
        if ackermann_decode(ackermann_encode(s)) != s:
            failures.append(f"set round trip failed at case {k}")
            break
    for k in range(1000):
        size_u = stream.randint_below(7)
        size_v = stream.randint_below(7)
        chosen = stream.sample_distinct(31, size_u + size_v)
        u_set, v_set = set(chosen[:size_u]), set(chosen[size_u:])
        z = extension_witness(u_set, v_set)
        ok = (
            all(bit_adjacent(z, u) for u in u_set)
            and not any(bit_adjacent(z, v) for v in v_set)
            and z not in u_set | v_set
        )
        if not ok:
            failures.append(f"witness property failed for {u_set} / {v_set}")
            break
    for k in range(1000):
        a = random_set(stream, max_depth=4)
        b = random_set(stream, max_depth=4)
        if a == b:
            continue
        member = a in b.members or b in a.members
        if member != bit_adjacent(ackermann_encode(a), ackermann_encode(b)):
            failures.append(f"edge preservation failed at case {k}")
            break
    _report(10, "universal-graph constructions", failures)
