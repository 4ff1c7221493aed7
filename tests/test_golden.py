"""Golden outputs: exact values the benchmark compares, pinned bit for bit.

The census values are what `perfbench/workloads.run("moments-census", ...)`
returns, written as float.hex literals and compared with ==, whereas
`perfbench/expected_moments.json` checks them only to a relative 1e-9.  The
sweep rows are (m, successes, unknowns, mean_nodes) of one small seeded
sweep per problem across its transition.

These values change only in a change that says so, and why, in CHANGES.md.
"""

import oracles
from isophase.experiments import ExperimentConfig, run_sweep

CENSUS = {
    "common": {
        "second_moment": "0x1.8c00000000002p+7",
        "disjoint": "0x0.0p+0",
        "full": "0x1.ffffffffffffep-3",
        "low_overlap": "0x1.c000000000000p-1",
        "high_overlap": "0x0.0p+0",
        "swapped": "0x1.ffffffffffffep-3",
        "total": "0x1.5ffffffffffffp+0",
        "lower_bound_term": "0x0.0p+0",
    },
    "embedding": {
        "second_moment": "0x1.1ee0000000002p+6",
        "s_total": "0x1.2222222222222p+1",
        "s_one": "0x1.8888888888889p+0",
        "s_two": "0x1.7777777777778p-1",
        "psi_m": "0x1.6a8e1b51b8d60p+8",
    },
}

SWEEPS = {
    "embed": (
        dict(problem="embed", n_values=(16,), p=0.5, q=0.5, m_values=(7, 8, 9, 10, 11),
             trials=10, master_seed=7),
        [(7, 10, 0, 71.1), (8, 7, 0, 221.7), (9, 1, 0, 210.8), (10, 0, 0, 25.2),
         (11, 0, 0, 0.0)],
    ),
    "common": (
        dict(problem="common", n_values=(10,), p=0.5, q=0.5, m_values=(5, 6, 7, 8),
             trials=10, master_seed=7),
        [(5, 10, 0, 5.1), (6, 10, 0, 13.1), (7, 9, 0, 191.9), (8, 2, 0, 216.7)],
    ),
}


def test_moments_census_values_are_bit_identical():
    workloads = oracles.perfbench_workloads()
    got = workloads.run(workloads.CENSUS, workloads.build(workloads.CENSUS, 1))
    assert got == {
        instance: {key: float.fromhex(value) for key, value in values.items()}
        for instance, values in CENSUS.items()
    }


def test_sweep_rows_are_identical():
    for problem, (config, rows) in SWEEPS.items():
        result = run_sweep(ExperimentConfig(**config))
        got = [(r.m, r.successes, r.unknowns, r.mean_nodes) for r in result.rows]
        assert got == rows, problem
