import json
import math
from dataclasses import replace

import pytest

import oracles
from isophase import experiments, graphs
from isophase.cli import main
from isophase.errors import InvalidInputError, ParameterError
from isophase.experiments import (
    CSV_COLUMNS,
    PROBLEM_EMBED,
    CellResult,
    ExperimentConfig,
    SweepResult,
    estimate_probability,
    export,
    locate_empirical_threshold,
    run_sweep,
)
from isophase.isosearch import BUDGET_EXCEEDED, FOUND
from isophase.rng import fold_seed


def _row(m, p_hat, n=16):
    return CellResult("embed", n, m, 0.5, 0.5, 10, int(10 * p_hat), 0, p_hat,
                      max(0.0, p_hat - 0.1), min(1.0, p_hat + 0.1), 1.0, 5, 0)


def test_wilson_examples():
    p_hat, lo, hi = estimate_probability(0, 100)
    assert p_hat == 0.0
    assert hi == pytest.approx(0.036998, abs=5e-4)
    p_hat2, lo2, hi2 = estimate_probability(100, 100)
    assert p_hat2 == 1.0
    assert lo2 == pytest.approx(1.0 - hi, abs=1e-12)
    p_hat3, lo3, hi3 = estimate_probability(50, 100)
    assert p_hat3 == 0.5
    assert (0.5 - lo3) == pytest.approx(hi3 - 0.5, abs=1e-12)
    with pytest.raises(ParameterError):
        estimate_probability(5, 4)


def test_threshold_interpolation_examples():
    rows = [_row(9, 1.0), _row(10, 0.0)]
    assert locate_empirical_threshold(rows) == pytest.approx(9.5)
    assert locate_empirical_threshold([_row(3, 1.0), _row(4, 1.0)]) is None
    rows2 = [_row(5, 1.0), _row(6, 0.8), _row(7, 0.2), _row(8, 0.0)]
    assert locate_empirical_threshold(rows2) == pytest.approx(6.5)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig("embed", (8,), 0.5, 0.5, trials=0, m_values=(2,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig("nope", (8,), 0.5, 0.5, m_values=(2,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig("embed", (8,), 0.5, 0.5)  # neither m rule
    with pytest.raises(InvalidInputError):
        ExperimentConfig("embed", (8,), 0.5, 0.5, m_values=(2,), m_offsets=(0,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_json('{"problem": "embed", "n_values": [8], "m_values": [2], "bogus": 1}')


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", "5"),
        ("trials", 5.0),
        ("trials", True),
        ("node_budget", True),
        ("master_seed", "2"),
        ("master_seed", None),
        ("node_budget", 1e6),
        ("n_values", ["8"]),
        ("n_values", [8, False]),
        ("n_values", 8),
        ("m_values", [2.0]),
        ("m_values", None),
        ("m_offsets", [True]),
        ("p", "0.5"),
        ("p", True),
        ("q", None),
        ("csv_path", 5),
        ("jsonl_path", ["out.jsonl"]),
    ],
)
def test_config_rejects_wrong_types(field, value):
    raw = {"problem": "embed", "n_values": [8], "m_values": [2], "p": 0.5}
    if field == "m_offsets":
        del raw["m_values"]
    raw[field] = value
    with pytest.raises(InvalidInputError, match=rf"^{field} "):
        ExperimentConfig.from_json(json.dumps(raw))


def test_config_rejects_integer_too_long_to_parse():
    text = '{"problem": "embed", "n_values": [%s], "m_values": [2]}' % ("9" * 5000)
    with pytest.raises(InvalidInputError, match="^config is not valid JSON"):
        ExperimentConfig.from_json(text)


def test_config_workers_key_is_unknown(tmp_path, capsys):
    raw = {"problem": "embed", "n_values": [8], "m_values": [2], "p": 0.5, "workers": 2}
    with pytest.raises(InvalidInputError, match=r"unknown config keys: \['workers'\]"):
        ExperimentConfig.from_json(json.dumps(raw))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 2
    assert "workers" in capsys.readouterr().err
    assert main(["experiment", "--config", str(path), "--workers", "2"]) == 2


def test_config_q_override_flag():
    cfg = ExperimentConfig.from_json(
        '{"problem": "embed", "n_values": [8], "m_values": [2], "p": 0.5, "q": 0.3}'
    )
    assert cfg.q_overridden
    cfg2 = ExperimentConfig.from_json(
        '{"problem": "embed", "n_values": [8], "m_values": [2], "p": 0.5}'
    )
    assert not cfg2.q_overridden and cfg2.q == 0.5


def test_q_overridden_is_derived_from_the_fields():
    assert ExperimentConfig("embed", (8,), 0.5, 0.7, m_values=(2,)).q_overridden
    assert not ExperimentConfig("embed", (8,), 0.5, 0.5, m_values=(2,)).q_overridden
    assert not ExperimentConfig("common", (8,), 0.5, 0.7, m_values=(2,)).q_overridden


def test_m_offsets_resolve_around_center():
    cfg = ExperimentConfig("embed", (32,), 0.5, 0.5, m_offsets=(-1, 0, 1), m_values=None)
    assert cfg.resolve_m_values(32) == [10, 11, 12]  # center 2*log2(32)+1 = 11
    cfg2 = ExperimentConfig("common", (12,), 0.5, 0.5, m_offsets=(0,), m_values=None)
    assert cfg2.resolve_m_values(12) == [11]  # round(m_star(12)) = round(10.797)


def test_small_embed_sweep_is_certain():
    cfg = ExperimentConfig("embed", (32,), 0.5, 0.5, trials=100, master_seed=5,
                           m_values=(2,))
    res = run_sweep(cfg)
    row = res.rows[0]
    assert row.p_hat == 1.0
    assert row.unknowns == 0
    assert not res.invalid


def test_common_m1_always_succeeds():
    cfg = ExperimentConfig("common", (9,), 0.4, 0.7, trials=60, master_seed=3,
                           m_values=(1,))
    row = run_sweep(cfg).rows[0]
    assert row.p_hat == 1.0 and row.unknowns == 0


def test_full_isomorphism_never_happens():
    cfg = ExperimentConfig("embed", (32,), 0.5, 0.5, trials=100, master_seed=11,
                           m_values=(32,))
    row = run_sweep(cfg).rows[0]
    assert row.p_hat == 0.0 and row.unknowns == 0


def test_success_curve_nonincreasing_up_to_ci():
    cfg = ExperimentConfig("embed", (16,), 0.5, 0.5, trials=80, master_seed=21,
                           m_values=(3, 5, 7, 9, 11))
    res = run_sweep(cfg)
    rows = res.rows
    for a, b in zip(rows, rows[1:]):
        width = (a.ci_high - a.ci_low) + (b.ci_high - b.ci_low)
        assert b.p_hat <= a.p_hat + width


def test_determinism_across_runs(tmp_path):
    base = dict(problem="embed", n_values=(16,), p=0.5, q=0.5, trials=25,
                master_seed=77, m_values=(3, 5, 7, 9))
    first = run_sweep(ExperimentConfig(**base))
    second = run_sweep(ExperimentConfig(**base))
    paths = tmp_path / "a.csv", tmp_path / "b.csv"
    export(first, "csv", str(paths[0]))
    export(second, "csv", str(paths[1]))
    assert _strip_wall_ms(paths[0].read_text()) == _strip_wall_ms(paths[1].read_text())
    # A cell's tallies depend on the trial graphs, drawn for the largest m,
    # not on which other cells are scanned; its mean_nodes does, since a
    # cell settled by a smaller one costs no search.
    subset = run_sweep(ExperimentConfig(**{**base, "m_values": (9, 5)}))
    tallies = {r.m: (r.successes, r.unknowns) for r in first.rows}
    assert [(r.m, (r.successes, r.unknowns)) for r in subset.rows] == [
        (m, tallies[m]) for m in (5, 9)
    ]


def _strip_wall_ms(text):
    wall_idx = CSV_COLUMNS.split(",").index("wall_ms")
    out = []
    for i, line in enumerate(text.splitlines()):
        if i == 0:
            out.append(line)
            continue
        parts = line.split(",")
        parts[wall_idx] = "_"
        out.append(",".join(parts))
    return "\n".join(out)


def test_export_round_trip(tmp_path):
    cfg = ExperimentConfig("common", (6,), 0.5, 0.5, trials=20, master_seed=1,
                           m_values=(1, 2, 3))
    res = run_sweep(cfg)
    csv_path = tmp_path / "out.csv"
    jsonl_path = tmp_path / "out.jsonl"
    export(res, "csv", str(csv_path))
    export(res, "jsonl", str(jsonl_path))
    parsed = oracles.parse_csv(csv_path.read_text())
    assert len(parsed) == len(res.rows)
    for row, raw in zip(res.rows, parsed):
        assert raw == row.as_dict()
    lines = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert lines == [row.as_dict() for row in res.rows]


def test_empty_sweep_header_only(tmp_path):
    cfg = ExperimentConfig("embed", (8,), 0.5, 0.5, m_values=(2,))
    empty = SweepResult((), {}, False, cfg)
    path = tmp_path / "empty.csv"
    export(empty, "csv", str(path))
    assert path.read_text() == CSV_COLUMNS + "\n"


def test_unknowns_surface_and_flag_invalid():
    cfg = ExperimentConfig("embed", (24,), 0.5, 0.5, trials=20, master_seed=9,
                           m_values=(8,), node_budget=10)
    res = run_sweep(cfg)
    row = res.rows[0]
    assert row.unknowns > 0
    assert row.successes + row.failures + row.unknowns == row.trials
    assert res.invalid


def test_budget_trials_excluded_from_p_hat():
    cfg = ExperimentConfig("embed", (24,), 0.5, 0.5, trials=30, master_seed=13,
                           m_values=(6,), node_budget=40)
    row = run_sweep(cfg).rows[0]
    determined = row.trials - row.unknowns
    if determined:
        assert row.p_hat == pytest.approx(row.successes / determined)
    else:
        assert math.isnan(row.p_hat)


COUPLED_CASES = [
    dict(problem="embed", n_values=(16,), m_values=(5, 7, 8, 9, 11)),
    dict(problem="embed", n_values=(12, 20), m_values=(4, 8, 9, 10)),
    dict(problem="embed", n_values=(24,), m_offsets=(-2, -1, 0, 1), p=0.3),
    dict(problem="common", n_values=(9,), m_values=(4, 6, 7, 8, 9)),
    dict(problem="common", n_values=(8, 10), m_values=(2, 5, 6, 7)),
]


def _spy_searches(monkeypatch) -> list:
    """Record the outcome of every search the sweep runs."""
    outcomes = []
    for name in ("embed_exists", "common_exists"):
        search = getattr(experiments, name)

        def spy(*args, _search=search):
            outcome = _search(*args)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(experiments, name, spy)
    return outcomes


@pytest.mark.parametrize("case", COUPLED_CASES)
@pytest.mark.parametrize("seed", [3, 40])
def test_coupled_sweep_equals_per_cell_searches(case, seed, monkeypatch):
    config = ExperimentConfig(**{"p": 0.5, "q": 0.5, **case}, trials=12, master_seed=seed)
    reference = oracles.per_cell_outcomes(config)
    searched = _spy_searches(monkeypatch)
    result = run_sweep(config)
    for row in result.rows:
        statuses = [out.status for out in reference[(row.n, row.m)]]
        assert BUDGET_EXCEEDED not in statuses
        assert (row.successes, row.unknowns) == (statuses.count(FOUND), 0), (row.n, row.m)
    # the nodes of the searches run, each counted in its own cell's row
    assert sum(row.mean_nodes * row.trials for row in result.rows) == pytest.approx(
        sum(out.nodes for out in searched), rel=1e-12)
    # each trial searches its FOUND cells and then its first refuted one
    refuting = sum(config.trials - row.successes for row in result.rows
                   if row.m == config.resolve_m_values(row.n)[-1])
    assert len(searched) == sum(row.successes for row in result.rows) + refuting


@pytest.mark.parametrize("problem, n, sizes, budget", [
    ("embed", 10, (3, 4, 5, 6, 7, 8), 37),
    ("common", 7, (3, 4, 5, 6, 7), 40),
])
def test_coupled_decisions_agree_with_per_cell_under_a_binding_budget(problem, n, sizes, budget):
    statuses = {}
    for seed in range(30):
        # One trial per sweep, so each row's tallies are that trial's outcome.
        config = ExperimentConfig(problem, (n,), trials=1, master_seed=seed,
                                  m_values=sizes, node_budget=budget)
        reference = oracles.per_cell_outcomes(config)
        for row in run_sweep(config).rows:
            coupled = "unknown" if row.unknowns else (FOUND if row.successes else "refuted")
            alone = reference[(n, row.m)][0].status
            statuses[coupled, alone] = statuses.get((coupled, alone), 0) + 1
            if coupled != "unknown" and alone != BUDGET_EXCEEDED:
                assert (coupled == FOUND) == (alone == FOUND), (seed, row.m)
    assert statuses.get(("unknown", BUDGET_EXCEEDED))  # the budget binds
    if problem == PROBLEM_EMBED:
        # A refutation within budget settles larger cells whose own search is
        # not.  The label-class core makes this rare, since a larger pattern
        # only adds pattern vertices to its classes: here one trial refutes
        # m = 5 in 37 nodes while a larger cell alone takes 38.  The common
        # cases here have none: a common search at m + 1 leaves its domain
        # less slack than one at m.
        assert statuses.get(("refuted", BUDGET_EXCEEDED))


def test_pattern_is_drawn_once_for_the_largest_m(monkeypatch):
    drawn = []
    sample = experiments.sample_gnp_many
    monkeypatch.setattr(experiments, "sample_gnp_many",
                        lambda laws: drawn.append(laws) or sample(laws))
    config = ExperimentConfig(PROBLEM_EMBED, (16,), trials=3, master_seed=1, m_values=(4, 9, 6))
    run_sweep(config)
    # One pass draws the trials' patterns on n's largest m, then their hosts.
    assert [[(law.n, law.p) for law in laws] for laws in drawn] == [[(9, 0.5)] * 3,
                                                                   [(16, 0.5)] * 3]
    assert [law.seed for law in drawn[0]] == [fold_seed(1, 16, t, 0) for t in range(3)]
    assert [law.seed for law in drawn[1]] == [fold_seed(1, 16, t, 1) for t in range(3)]


@pytest.mark.parametrize("problem, sizes", [(PROBLEM_EMBED, (4, 6, 8)), ("common", (5, 6, 7))])
def test_sweep_rows_do_not_depend_on_the_sampler_batch(problem, sizes, monkeypatch):
    config = ExperimentConfig(problem, (12, 16), trials=7, master_seed=3, m_values=sizes)
    whole = run_sweep(config).rows
    monkeypatch.setattr(graphs, "_BATCH_PAIRS", 256)
    assert graphs.batch_lanes(16) == 2 and graphs.batch_lanes(12) == 3  # passes of 2-3 trials
    split = run_sweep(config).rows
    assert [replace(row, wall_ms=0) for row in split] == [replace(row, wall_ms=0) for row in whole]
