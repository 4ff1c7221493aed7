"""The benchmark's workloads: inputs from a seed, one repetition of the work
through the library's public entry points, and the checks on its output.

Sweeps are what `isophase experiment` runs (`run_sweep`); the census is what
`isophase moments` runs for common (5, 3) with `--decompose` and for
embedding (6, 4) with its S bound.
"""

from __future__ import annotations

import json
import math
import os

from isophase import edgegraph, experiments, moments, thresholds

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_MOMENTS = os.path.join(HERE, "expected_moments.json")

# Keyword arguments of ExperimentConfig; master_seed comes from --seed and
# the repetition's index (rep_seed), and workers stays at its default.  Each
# is sized to run for about 7 s on the development host, so that a 30 s run
# holds several repetitions.
SWEEPS = {
    # m = 9 opens the curve: at m = 10 about 7% of trials are refuted, too
    # close to the 0.9 gate for a sweep of this size.
    "embed-refute": dict(problem="embed", n_values=(32,), p=0.5, q=0.5,
                         m_values=(9, 10, 11, 12, 13), trials=13),
    "embed-find": dict(problem="embed", n_values=(64, 128), p=0.5, q=0.5,
                       m_offsets=(-8, -7, -6, -5, -4), trials=70),
    "common-window": dict(problem="common", n_values=(14,), p=0.5, q=0.5,
                          m_values=(8, 9, 10, 11), trials=15),
}
ALL_FOUND = frozenset({"embed-find"})
CENSUS = "moments-census"
NAMES = (*SWEEPS, CENSUS)

START_GATE = 0.9   # p_hat at the smallest m
END_GATE = 0.05    # p_hat at the largest m
MOMENT_RTOL = 1e-9

# The census instances, with `isophase moments` defaults p = q = 1/2, c = 0.75.
# Common (4, 3) stands in for the (5, 3) of the ROADMAP baseline, whose cold
# census alone takes about 17 s on the development host.
CENSUS_P = 0.5
SPLIT_C = 0.75
COMMON_NM = (4, 3)
EMBED_NM = (6, 4)
REPS_PER_SEED = 1000


def rep_seed(seed: int, rep: int) -> int:
    """master_seed of repetition `rep` of a run on `seed`: each repetition
    of a run sweeps other trials, so that the run averages over more of them."""
    if not 0 <= rep < REPS_PER_SEED:
        raise ValueError(f"repetition {rep} out of range")
    return seed * REPS_PER_SEED + rep


def build(name: str, seed: int, rep: int = 0):
    """The inputs of one repetition.  The census has no random inputs, so
    the seed leaves it unchanged."""
    if name in SWEEPS:
        return experiments.ExperimentConfig(master_seed=rep_seed(seed, rep), **SWEEPS[name])
    if name == CENSUS:
        return thresholds.derive_params(CENSUS_P, CENSUS_P)
    raise KeyError(name)


def census_pairs() -> dict[str, int]:
    """Ordered map pairs each census instance represents, as pair_guard counts them."""
    return {
        "common": moments.partial_space(*COMMON_NM) ** 2,
        "embedding": moments.injection_pair_space(*EMBED_NM),
    }


def attempted(name: str, inputs) -> int:
    """Operations in one repetition: (cell, trial) outcomes, or map pairs."""
    if name == CENSUS:
        return sum(census_pairs().values())
    return inputs.trials * sum(len(inputs.resolve_m_values(n)) for n in inputs.n_values)


def run(name: str, inputs):
    """One repetition.  Library functions are looked up on their modules at
    call time, so the traced run sees its replacements."""
    if name != CENSUS:
        return experiments.run_sweep(inputs)
    en2 = moments.second_moment_exact(*COMMON_NM, inputs, edgegraph.COMMON)
    dec = moments.ratio_decomposition(*COMMON_NM, inputs, SPLIT_C)
    en2_embed = moments.second_moment_exact(*EMBED_NM, inputs, edgegraph.EMBEDDING)
    bounds = moments.s_bound(*EMBED_NM, inputs.p, SPLIT_C, "exact")
    return {
        "common": {
            "second_moment": en2,
            "disjoint": dec.disjoint,
            "full": dec.full,
            "low_overlap": dec.low_overlap,
            "high_overlap": dec.high_overlap,
            "swapped": dec.swapped,
            "total": dec.total,
            "lower_bound_term": dec.lower_bound_term,
        },
        "embedding": {
            "second_moment": en2_embed,
            "s_total": bounds.s_total,
            "s_one": bounds.s_one,
            "s_two": bounds.s_two,
            "psi_m": bounds.psi_m,
        },
    }


def digest(name: str, output) -> object:
    """The deterministic part of an output, compared across repetitions."""
    if name == CENSUS:
        return output
    return [[r.n, r.m, r.successes, r.unknowns, r.mean_nodes] for r in output.rows]


def check(name: str, inputs, output) -> tuple[int, list[str]]:
    """(operations failed, problems found) for one repetition's output."""
    if name == CENSUS:
        return _check_census(output)
    return _check_sweep(name, inputs, output)


def _check_sweep(name: str, config, result) -> tuple[int, list[str]]:
    total = attempted(name, config)
    unknowns = sum(row.unknowns for row in result.rows)
    curve: list[str] = []
    for n in config.n_values:
        rows = [row for row in result.rows if row.n == n]
        if name in ALL_FOUND:
            missed = [row.m for row in rows if row.successes != row.trials]
            if missed:
                curve.append(f"n={n}: not every trial found a witness at m={missed}")
            continue
        first, last = rows[0], rows[-1]
        if not first.p_hat >= START_GATE:
            curve.append(f"n={n}: p_hat={first.p_hat} < {START_GATE} at m={first.m}")
        if not last.p_hat <= END_GATE:
            curve.append(f"n={n}: p_hat={last.p_hat} > {END_GATE} at m={last.m}")
        crossing = result.empirical_thresholds.get(n)
        if crossing is None or not first.m <= crossing <= last.m:
            curve.append(f"n={n}: crossing {crossing} outside m={first.m}..{last.m}")
    problems = [f"{unknowns} budget-exceeded trials"] if unknowns else []
    failed = unknowns + (total - unknowns if curve else 0)
    return failed, problems + curve


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= MOMENT_RTOL * abs(want)


def _check_census(values: dict) -> tuple[int, list[str]]:
    with open(EXPECTED_MOMENTS, encoding="utf-8") as fh:
        expected = json.load(fh)["values"]
    failed, problems = 0, []
    for instance, pairs in census_pairs().items():
        wrong = [
            f"{key}={values[instance][key]!r} (want {want!r})"
            for key, want in expected[instance].items()
            if not _close(values[instance][key], want)
        ]
        if wrong:
            failed += pairs
            problems.append(f"{instance}: " + ", ".join(wrong))
    return failed, problems
