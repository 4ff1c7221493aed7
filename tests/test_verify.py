import pytest

from isophase.edgegraph import build_common_edge_graph, build_embedding_edge_graph, classify_components
from isophase.errors import ParameterError
from isophase.isosearch import Injection, PartialInjection
from isophase.verify import (
    check_partial_pair,
    check_total_pair,
    run_component_suite,
    run_rado_suite,
    run_suite,
    run_threshold_suite,
)


def test_component_suite_clean():
    report = run_component_suite(pairs=1500, seed=7)
    assert report.ok
    assert report.cases == 3000


def test_threshold_and_rado_suites_clean():
    assert run_threshold_suite(150, seed=5).ok
    assert run_rado_suite(200, seed=5).ok


def test_run_suite_all():
    reports = run_suite("all", pairs=300, seed=2)
    assert all(rep.ok for rep in reports)
    names = {rep.name for rep in reports}
    assert names == {"edgegraph", "thresholds", "rado"}


@pytest.mark.parametrize("name", ["edgegraph", "thresholds", "rado", "all"])
@pytest.mark.parametrize("pairs", [0, -2])
def test_run_suite_rejects_fewer_than_one_pair(name, pairs):
    # Zero or negative pairs would run no edgegraph case and still report ok.
    with pytest.raises(ParameterError, match=f"at least 1 pair, got {pairs}$"):
        run_suite(name, pairs=pairs)


def test_checks_on_hand_built_pairs():
    f = Injection(4, 9, (0, 1, 2, 3))
    g = Injection(4, 9, (3, 4, 5, 6))
    t = build_embedding_edge_graph(f, g, 4, 9)
    assert check_total_pair(t, classify_components(t)) == []

    fp = PartialInjection((0, 1, 2, 5), (4, 2, 0, 7))
    gp = PartialInjection((1, 2, 3, 5), (2, 0, 4, 6))
    tp = build_common_edge_graph(fp, gp)
    assert check_partial_pair(tp, classify_components(tp)) == []
