import re
from pathlib import Path

import pytest

import spancomplex
from spancomplex import analysis, kernels, run_analyze
from spancomplex.spanning import enumerate_spanning_trees_generic

import bruteforce


def test_run_analyze_enumerates_forests_once(monkeypatch, fig1):
    calls = []
    forest_grades = kernels.forest_grades

    def counting(*args):
        calls.append(args)
        return forest_grades(*args)

    monkeypatch.setattr(kernels, "forest_grades", counting)
    report = run_analyze(fig1)
    assert len(calls) == 1
    assert not report.discrepancies


@pytest.mark.parametrize("name", ["fig1", "theta"])
def test_run_analyze_recognizes_once(request, monkeypatch, name):
    # theta is not uni-cyclic: recognizing it raises, and must not be retried
    g = request.getfixturevalue(name)
    calls = []
    recognize = analysis.recognize_unicyclic

    def counting(graph):
        calls.append(graph)
        return recognize(graph)

    monkeypatch.setattr(analysis, "recognize_unicyclic", counting)
    report = run_analyze(g)
    assert calls == [g]
    assert not report.discrepancies


@pytest.mark.parametrize("name", ["fig1", "triangle", "c211", "theta"])
def test_one_pass_matches_separate_oracles(request, name):
    g = request.getfixturevalue(name)
    report = run_analyze(g)
    assert report.routes["facets"]["generic"] == enumerate_spanning_trees_generic(g)
    assert report.routes["f_vector"]["bruteforce"].counts == bruteforce.forest_counts(g)



def test_package_exports_resolve():
    assert len(set(spancomplex.__all__)) == len(spancomplex.__all__)
    for name in spancomplex.__all__:
        assert getattr(spancomplex, name) is not None, name
    namespace = {}
    exec("from spancomplex import *", namespace)
    assert set(spancomplex.__all__) <= set(namespace)


def test_readme_lists_every_check():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert re.findall(r"^- `([a-z]+:[a-z-]+)`", readme, re.M) == list(analysis.CHECKS)
