import pytest

import spancomplex
from spancomplex import build_multigraph, kernels, run_analyze
from spancomplex.fvector import f_vector_bruteforce
from spancomplex.spanning import enumerate_spanning_trees_generic


def _cycle(n):
    vertices = [f"v{i}" for i in range(n)]
    return build_multigraph(
        vertices, [(f"e{i}", (vertices[i], vertices[(i + 1) % n])) for i in range(n)]
    )


def test_run_analyze_enumerates_forests_once(monkeypatch, fig1):
    calls = []
    forest_masks = kernels.forest_masks

    def counting(*args):
        calls.append(args)
        return forest_masks(*args)

    monkeypatch.setattr(kernels, "forest_masks", counting)
    report = run_analyze(fig1)
    assert len(calls) == 1
    assert not report.discrepancies


@pytest.mark.parametrize("name", ["fig1", "triangle", "c211", "theta"])
def test_one_pass_matches_separate_oracles(request, name):
    g = request.getfixturevalue(name)
    report = run_analyze(g)
    assert report.facets_generic == enumerate_spanning_trees_generic(g)
    assert report.f_bruteforce == f_vector_bruteforce(g)


@pytest.mark.parametrize("budget", [0, 100])
def test_run_analyze_rejects_budget_out_of_range(budget):
    with pytest.raises(ValueError, match=f"between 1 and 62, got {budget}"):
        run_analyze(_cycle(64), budget=budget)



def test_package_exports_resolve():
    assert len(set(spancomplex.__all__)) == len(spancomplex.__all__)
    for name in spancomplex.__all__:
        assert getattr(spancomplex, name) is not None, name
    namespace = {}
    exec("from spancomplex import *", namespace)
    assert set(spancomplex.__all__) <= set(namespace)
