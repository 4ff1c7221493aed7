"""Golden outputs: exact values the benchmark compares, pinned bit for bit.

The census values are what `perfbench/workloads.run("moments-census", ...)`
returns, written as float.hex literals and compared with ==, whereas
`perfbench/expected_moments.json` checks them only to a relative 1e-9.  The
sweep rows are (m, successes, unknowns, mean_nodes) of one small seeded
sweep per problem across its transition.

These values change only in a change that says so, and why, in CHANGES.md.
"""

import importlib.util
import os

from isophase.experiments import ExperimentConfig, run_sweep

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")

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
        [(7, 10, 0, 298.0), (8, 7, 0, 1159.7), (9, 1, 0, 1210.2), (10, 0, 0, 140.3),
         (11, 0, 0, 0.0)],
    ),
    "common": (
        dict(problem="common", n_values=(10,), p=0.5, q=0.5, m_values=(5, 6, 7, 8),
             trials=10, master_seed=7),
        [(5, 10, 0, 5.9), (6, 10, 0, 22.1), (7, 9, 0, 1099.1), (8, 2, 0, 2401.8)],
    ),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moments_census_values_are_bit_identical():
    workloads = _workloads()
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
