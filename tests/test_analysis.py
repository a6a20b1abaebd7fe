import ast
import re
from pathlib import Path

import pytest

import spancomplex
from spancomplex import analysis, kernels, minimal_vertex_covers_generic, run_analyze
from spancomplex.spanning import enumerate_spanning_trees_generic

import bruteforce


def counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_run_analyze_enumerates_forests_once(monkeypatch, fig1):
    calls = counted(monkeypatch, kernels, "forest_grades")
    report = run_analyze(fig1)
    assert len(calls) == 1
    assert not report.discrepancies


@pytest.mark.parametrize("name", ["fig1", "theta"])
def test_run_analyze_recognizes_once(request, monkeypatch, name):
    # theta is not uni-cyclic: recognizing it raises, and must not be retried
    g = request.getfixturevalue(name)
    calls = counted(monkeypatch, analysis, "recognize_unicyclic")
    report = run_analyze(g)
    assert calls == [(g,)]
    assert not report.discrepancies


def test_run_analyze_certifies_the_closed_form_covers(monkeypatch, fig1):
    # no bond walk, and one class quotient: the face oracle's
    walks = counted(monkeypatch, analysis, "minimal_vertex_covers_generic")
    quotients = counted(monkeypatch, kernels, "_quotient")
    report = run_analyze(fig1)
    assert (len(walks), len(quotients)) == (0, 1)
    assert not report.discrepancies
    monkeypatch.undo()
    assert report.routes["covers"]["generic"] == minimal_vertex_covers_generic(fig1)


def test_run_analyze_walks_the_bonds_of_other_graphs(monkeypatch, theta):
    walks = counted(monkeypatch, analysis, "minimal_vertex_covers_generic")
    report = run_analyze(theta)
    assert walks == [(theta,)]
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


def test_readme_library_example_prints_its_comments(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    monkeypatch.chdir(root)  # the example reads a fixture by relative path
    namespace = {}
    checked = 0
    for statement in ast.parse(block).body:
        line = block.splitlines()[statement.end_lineno - 1]
        code = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        # an expression's comment starts with the value it evaluates to
        value = eval(code, namespace)
        assert line.partition("#")[2].strip().startswith(repr(value)), line
        checked += 1
    assert checked == 6
