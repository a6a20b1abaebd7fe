"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import spancomplex
from spancomplex import (
    boundary_matrix,
    build_multigraph,
    euler_characteristic,
    euler_from_betti,
    f_vector_bruteforce,
    f_vector_closed_form,
    graded_faces,
    recognize_unicyclic,
    run_analyze,
)
from spancomplex.fvector import binomial, closed_form_tail
from spancomplex.homology import betti_from_faces
from spancomplex.ideal import render_decomposition
from spancomplex.spanning import enumerate_spanning_trees_generic

import bruteforce
from conftest import FIXTURES
from test_spanning import FIG1_TREES

_timings: dict[str, float] = {}


@contextlib.contextmanager
def reported(criterion: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {criterion}: FAIL")
        raise
    _timings[criterion.split()[0]] = time.perf_counter() - start
    print(f"\nACCEPTANCE {criterion}: PASS ({_timings[criterion.split()[0]]:.2f}s)")


def test_criterion_1_golden_example(fig1):
    with reported("1 golden example"):
        start = time.perf_counter()
        report = run_analyze(fig1)
        elapsed = time.perf_counter() - start

        lay = report.layout
        assert (lay.n, lay.m, lay.r_prime, lay.r_dprime, lay.r) == (7, 3, 1, 1, 2)
        assert (lay.alpha, lay.beta, lay.v) == (3, 2, 0)
        assert report.dim == 2

        expected_trees = {frozenset(t) for t in FIG1_TREES}
        assert {frozenset(f) for f in report.facets_closed_form} == expected_trees
        assert {frozenset(f) for f in report.facets_generic} == expected_trees
        assert len(report.facets) == 14

        assert report.f_closed_form.counts == (7, 17, 14)
        assert report.f_bruteforce.counts == (7, 17, 14)
        assert report.euler_closed_form == report.euler_bruteforce == report.euler_betti == 4

        assert report.betti.ranks == (1, 0, 3)
        assert report.betti.boundary_ranks == (0, 6, 11)
        nullity_d2 = report.f_bruteforce.counts[2] - report.betti.boundary_ranks[2]
        assert nullity_d2 == 3

        assert {frozenset(c) for c in report.covers} == {
            frozenset({"e41", "e42"}),
            frozenset({"e21", "e31"}),
            frozenset({"e11", "e12", "e13", "e21"}),
            frozenset({"e11", "e12", "e13", "e31"}),
        }
        # the facet ideal is the two lists: 14 generators, one prime per cover
        text = report.render_text()
        assert "facet ideal generators: 14\n" in text
        assert "primary decomposition: " + render_decomposition(report.covers) + "\n" in text
        assert not report.discrepancies
        assert elapsed < 1.0


def test_criterion_2_simple_cycles():
    with reported("2 simple-cycle degeneracy"):
        start = time.perf_counter()
        for m in range(3, 9):
            verts = [f"v{i}" for i in range(m)]
            edges = [(f"e{i}", (verts[i], verts[(i + 1) % m])) for i in range(m)]
            g = build_multigraph(verts, edges)
            lay = recognize_unicyclic(g)

            facets = enumerate_spanning_trees_generic(g)
            assert len(facets) == m

            expected_f = tuple(binomial(m, i + 1) for i in range(m - 1))
            fv_formula = f_vector_closed_form(lay)
            fv_oracle = f_vector_bruteforce(g)
            assert fv_formula.counts == expected_f
            assert fv_oracle.counts == expected_f

            faces = graded_faces(g)
            profile = betti_from_faces(faces)
            chi_formula = euler_characteristic(fv_formula)
            chi_oracle = euler_characteristic(fv_oracle)
            chi_betti = euler_from_betti(profile)
            assert chi_formula == chi_oracle == chi_betti

            # sphere of dimension m-2: ones at both ends, zeros between
            d = m - 2
            assert profile.ranks == (1,) + (0,) * (d - 1) + (1,)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_formula_vs_oracle_suite(suite_graphs):
    with reported("3 formula-vs-oracle suite (200 graphs)"):
        assert len(suite_graphs) == 200
        assert all(g.n_edges <= 12 for g in suite_graphs)
        for g in suite_graphs:
            report = run_analyze(g)
            assert report.facets_closed_form == report.facets_generic
            assert report.f_closed_form.counts == report.f_bruteforce.counts
            assert report.covers_closed_form == report.covers_generic
            assert not any(closed_form_tail(report.layout))
            assert not report.discrepancies
    assert _timings["3"] < 60.0


def _compose(lower, upper):
    """Every entry of the product lower @ upper, from the sparse columns."""
    for col in upper.columns:
        acc = {}
        for mid, v in col.items():
            for r, w in lower.columns[mid].items():
                acc[r] = acc.get(r, 0) + v * w
        yield from acc.values()


def test_criterion_4_homology_properties(suite_graphs):
    with reported("4 homology property suite"):
        for g in suite_graphs:
            faces = graded_faces(g)
            sizes = faces.sizes()
            profile = betti_from_faces(faces)

            mats = [boundary_matrix(faces, i) for i in range(1, faces.dim + 1)]
            for lower, upper in zip(mats, mats[1:]):
                assert not any(_compose(lower, upper))  # boundary of boundary vanishes

            for i in range(1, faces.dim + 1):
                rank = profile.boundary_ranks[i]
                assert 0 <= rank <= min(sizes[i], sizes[i - 1])
                assert sizes[i] - rank >= 0  # nullity
            assert profile.ranks[0] >= 1
            assert all(b >= 0 for b in profile.ranks)
            assert euler_from_betti(profile) == euler_characteristic(f_vector_bruteforce(g))
    assert _timings.get("3", 0.0) + _timings["4"] < 60.0


def test_criterion_5_ideal_membership(suite_graphs):
    with reported("5 ideal membership oracle"):
        small = [g for g in suite_graphs if g.n_edges <= 10]
        assert small
        for g in small:
            facets = enumerate_spanning_trees_generic(g)
            # the facet ideal's generators are the spanning trees
            ids = g.edge_ids()
            index = {e: i for i, e in enumerate(ids)}
            gen_masks = [sum(1 << index[e] for e in gen) for gen in facets]
            for mask in range(1, 1 << g.n_edges):
                divisible = any(fm & mask == fm for fm in gen_masks)
                subset = [ids[i] for i in range(g.n_edges) if mask >> i & 1]
                assert divisible == bruteforce.spans(g, subset)

            facet_sets = [set(f) for f in facets]
            from spancomplex.ideal import minimal_vertex_covers_generic

            for cover in minimal_vertex_covers_generic(g):
                ids_set = set(cover)
                assert all(ids_set & fs for fs in facet_sets)
                for e in ids_set:
                    rest = ids_set - {e}
                    assert not all(rest & fs for fs in facet_sets)
    assert _timings["5"] < 30.0


def test_criterion_6_determinism():
    with reported("6 byte-identical reports"):
        cmd = [
            sys.executable,
            "-m",
            "spancomplex.cli",
            "analyze",
            str(FIXTURES / "u_7_3_2.json"),
            "--json",
        ]
        # the child imports the package this suite imported, installed or not
        paths = [str(Path(spancomplex.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout
        doc = json.loads(first.stdout)
        assert doc["discrepancies"] == []
