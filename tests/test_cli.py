import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from spancomplex import analysis, cli, kernels
from spancomplex.cli import main
from spancomplex.fvector import FVector
from spancomplex.multigraph import load_graph_file, multigraph_from_json
from spancomplex.randomgraphs import random_suite

from conftest import FIXTURES, SIX_PENDANTS, layout_graph, make_doubled_six_cycle

FIG1 = str(FIXTURES / "u_7_3_2.json")
TRIANGLE = str(FIXTURES / "triangle.json")
THETA = str(FIXTURES / "theta.json")
C211 = str(FIXTURES / "c211.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_graph_file_fig1():
    g = load_graph_file(FIG1)
    assert g.n_edges == 7
    assert g.edge_ids()[:3] == ("e11", "e12", "e13")


def test_parse_graph_file_missing(capsys):
    # a missing file, or a path that runs through a file, is an input error
    for command in ("analyze", "verify", "facets", "covers", "homology"):
        for path in ("/nonexistent/file.json", TRIANGLE + "/x.json"):
            assert run_cli(capsys, command, path) == (2, "", f"error: no such file: {path}\n")
    # the library raises the OS error itself
    with pytest.raises(FileNotFoundError):
        load_graph_file("/nonexistent/file.json")


def test_parse_graph_file_duplicate_id(tmp_path):
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "e1", "ends": ["a", "b"]},
            {"id": "e1", "ends": ["a", "b"]},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", str(path)])
    assert code == 2


def test_parse_graph_file_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    code = main(["analyze", str(path)])
    assert code == 2


def test_analyze_text(capsys):
    code, out, err = run_cli(capsys, "analyze", FIG1)
    assert code == 0
    assert "unicyclic layout: n=7 m=3 r'=1 r''=1 r=2 alpha=3 beta=2 v=0" in out
    assert "spanning trees: 14 (closed form 14)" in out
    assert "f-vector (closed form): 7 17 14" in out
    assert "betti numbers: 1 0 3" in out
    assert "discrepancies: none" in out
    assert err == ""


def test_analyze_json(capsys):
    code, out, err = run_cli(capsys, "analyze", FIG1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["layout"]["m"] == 3
    assert doc["dimension"] == 2
    assert doc["spanning_trees"]["count"] == "14"
    assert doc["f_vector"]["closed_form"] == ["7", "17", "14"]
    assert doc["f_vector"]["bruteforce"] == ["7", "17", "14"]
    assert doc["euler_characteristic"] == {
        "closed_form": "4",
        "bruteforce": "4",
        "betti": "4",
    }
    assert doc["homology"]["betti"] == ["1", "0", "3"]
    assert doc["homology"]["boundary_ranks"] == ["0", "6", "11"]
    assert len(doc["covers"]) == 4
    # the facet ideal is the facet list and the cover list, with no copy
    assert doc["schema"] == "spancomplex/analysis-v2"
    assert "ideal" not in doc
    assert doc["settings"] == {"budget": 24, "oracle": True}
    assert len(doc["spanning_trees"]["facets"]) == 14
    assert doc["discrepancies"] == []


def test_analyze_no_oracle(capsys):
    code, out, _ = run_cli(capsys, "analyze", FIG1, "--json", "--no-oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_vector"]["bruteforce"] is None
    assert doc["f_vector"]["closed_form"] == ["7", "17", "14"]
    assert doc["homology"] is None
    assert doc["settings"]["oracle"] is False


def test_analyze_no_oracle_runs_past_the_edge_budget(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", _cycle_file(tmp_path, 64), "--no-oracle", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["dimension"] == 62
    assert doc["spanning_trees"]["count_closed_form"] == "64"
    assert len(doc["covers"]) == 2016
    assert doc["euler_characteristic"]["closed_form"] == "2"
    assert doc["discrepancies"] == []


def test_analyze_budget_exceeded(capsys, tmp_path):
    # a uni-cyclic graph far past the budget: the oracles cannot run on it
    code, out, err = run_cli(capsys, "analyze", _cycle_file(tmp_path, 64))
    assert (code, out) == (3, "")
    assert err == (
        "error: spanning tree enumeration: instance has 64 edges, exceeding the "
        "enumeration budget of 24\n"
    )


def test_analyze_non_unicyclic_notes_skip(capsys):
    code, out, _ = run_cli(capsys, "analyze", THETA)
    assert code == 0
    assert "closed forms skipped" in out
    assert "spanning trees: 12" in out


def test_verify_pass(capsys):
    code, out, err = run_cli(capsys, "verify", FIG1)
    assert code == 0
    assert out == "verify: PASS\n"
    assert err == ""


def test_verify_non_unicyclic(capsys):
    code, out, _ = run_cli(capsys, "verify", THETA)
    assert code == 0
    assert out == "verify: PASS\n"


def test_verify_rejects_json_flag(capsys):
    # verify prints one PASS/FAIL line and has no JSON view to switch to
    with pytest.raises(SystemExit) as exc:
        main(["verify", FIG1, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].endswith("error: unrecognized arguments: --json")


def test_facets_json(capsys):
    code, out, _ = run_cli(capsys, "facets", FIG1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 14
    assert doc[0] == ["e11", "e21", "e41"]


def test_facets_text(capsys):
    code, out, _ = run_cli(capsys, "facets", TRIANGLE)
    assert code == 0
    assert out.splitlines() == ["e1 e2", "e1 e3", "e2 e3"]


def test_covers_json(capsys):
    code, out, _ = run_cli(capsys, "covers", FIG1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [
        ["e21", "e31"],
        ["e41", "e42"],
        ["e11", "e12", "e13", "e21"],
        ["e11", "e12", "e13", "e31"],
    ]
    assert len(doc["generators"]) == 14


def test_covers_text(capsys):
    code, out, _ = run_cli(capsys, "covers", FIG1)
    assert code == 0
    assert "e21 e31" in out
    assert "decomposition: (x_{e21},x_{e31})" in out


@pytest.mark.parametrize("reverse", [False, True], ids=["fig1", "reversed"])
def test_covers_text_and_json_list_what_analyze_reports(capsys, tmp_path, reverse):
    # fig1 lists its edges by ascending id and its reversed copy by
    # descending id, so masks built in input order but decoded in id order
    # give an unsorted list on one of the two
    doc = json.loads(Path(FIG1).read_text())
    if reverse:
        doc["edges"].reverse()
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "covers", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("decomposition: ")
    text_covers = [line.split(" ") for line in lines[:-1]]
    code, out, _ = run_cli(capsys, "covers", str(path), "--json")
    assert code == 0
    json_covers = json.loads(out)["components"]
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert text_covers == json_covers == json.loads(out)["covers"]
    assert len(text_covers) == 4


@pytest.mark.parametrize(
    "argv,tree_listings",
    [(("covers",), 0), (("covers", "--json"), 1), (("facets", "--json"), 1)],
    ids=["covers", "covers-json", "facets-json"],
)
def test_enum_commands_build_one_quotient(capsys, monkeypatch, argv, tree_listings):
    # covers --json lists the trees and the bonds from one class quotient;
    # only the JSON views list trees
    calls = {"_quotient": 0, "_tree_masks": 0}
    for name in calls:
        kernel = getattr(kernels, name)

        def counting(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(kernels, name, counting)
    code, out, _ = run_cli(capsys, argv[0], FIG1, *argv[1:])
    assert code == 0 and out
    assert calls == {"_quotient": 1, "_tree_masks": tree_listings}


def test_homology_text(capsys):
    code, out, _ = run_cli(capsys, "homology", FIG1)
    assert code == 0
    assert "grade sizes: 7 17 14" in out
    assert "boundary ranks: 0 6 11" in out
    assert "betti numbers: 1 0 3" in out
    assert "euler characteristic: 4" in out


def test_homology_dump_matrices(capsys, tmp_path):
    outdir = tmp_path / "mats"
    code, out, _ = run_cli(capsys, "homology", FIG1, "--dump-matrices", str(outdir))
    assert code == 0
    d1 = (outdir / "boundary_1.txt").read_text().splitlines()
    d2 = (outdir / "boundary_2.txt").read_text().splitlines()
    assert len(d1) == 2 * 17  # two signed entries per 1-face
    assert len(d2) == 3 * 14
    for line in d1 + d2:
        row, col, val = line.split()
        assert int(val) in (-1, 1)
    assert "wrote" not in out


def test_homology_dump_matrices_keeps_json_stdout(capsys, tmp_path):
    code, out, err = run_cli(capsys, "homology", FIG1, "--json", "--dump-matrices", str(tmp_path))
    assert code == 0
    _, plain, _ = run_cli(capsys, "homology", FIG1, "--json")
    assert json.loads(out) == json.loads(plain)
    assert out == plain
    assert err == "".join(f"wrote {tmp_path / f'boundary_{i}.txt'}\n" for i in (1, 2))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


FIG1_STDOUT_SHA256 = {
    ("analyze", "--json"): "11a1430ea6f9e731a4eab1bf6c04e9d3c1716c62deefc049e490645e5a9b79de",
    ("analyze",): "68070ec226ff8da0585550846363cf1a1be1bae39959ba3656d7bb1ca5260bfd",
    ("facets", "--json"): "7b1bb007df619cb1c52f290d6feb30dfd249339bf52d4da64d2fc1d9b82da834",
    ("covers", "--json"): "cae1fb6e69aef950234a5b702b57a9f90543bf257fb9d10d6454f1994ae87d4c",
    ("covers",): "b83e5cffaafb358bedeb0f0cb9d1a6c9b67aeeab2fcf1e6a7190e20edaeed40a",
    ("verify",): "b2bafb3974e046141485e677496df88bfb630f3fe2e29f6709195cbc2e9f61c9",
    ("homology", "--json"): "b384e45f44b49e74069d89accdedef4207d7b025466254a5995817e5f98c6c47",
}


DUMP_SHA256 = {
    FIG1: [
        "d0837df92dc90b5158670a9c464dbf5892d1dbf941e3ade2b73afde1412c5afb",
        "2b176fa01f14fbee79c41f88668fd3366c085d3c7a1056b1e22c7d1983035f08",
    ],
    # not uni-cyclic, so its faces follow the input edge order
    THETA: [
        "0be662095c3e5dcdc82f99b9dc09f1eeafb2f4f40e78999712f7029016f1548e",
        "fa1376b21d1d2ec67ad161965596d2ce4254d4658243a853795d1d05cac7cd8f",
        "ddfedc5df3203a04cb927dd823749e9d9d7753f93a10533cd95b2bb0e846a0ee",
    ],
    C211: ["701aee35a25690e832c1d82dd16af38953f0e05ca954f80db48fc2a187aeb144"],
}


def test_fig1_outputs_match_golden_bytes(capsys, tmp_path):
    # pins the face order, the signs and the report, not just repeatability
    for path, digests in DUMP_SHA256.items():
        outdir = tmp_path / Path(path).stem
        code, _, _ = run_cli(capsys, "homology", path, "--dump-matrices", str(outdir))
        assert code == 0
        # boundary_1.txt, boundary_2.txt, ...
        assert [_sha256(f.read_bytes()) for f in sorted(outdir.iterdir())] == digests, path
    for (command, *flags), digest in FIG1_STDOUT_SHA256.items():
        code, out, err = run_cli(capsys, command, FIG1, *flags)
        assert (code, err) == (0, ""), command
        # FIG1 is an absolute path, so the report's copy of it is masked
        assert out.count(FIG1) == (command == "analyze")
        assert _sha256(out.replace(FIG1, "<path>").encode()) == digest, (command, *flags)


# fig1 with its edge list reversed: the dump lists the faces in the canonical
# order e13 e12 e11 e21 e31 e42 e41, a relabelling of fig1's, so the bytes are
# fig1's
REVERSED_FIG1_DUMP_SHA256 = [
    "d0837df92dc90b5158670a9c464dbf5892d1dbf941e3ade2b73afde1412c5afb",
    "2b176fa01f14fbee79c41f88668fd3366c085d3c7a1056b1e22c7d1983035f08",
]


def test_reversed_fig1_dump_matches_golden_bytes(capsys, tmp_path):
    doc = json.loads(Path(FIG1).read_text())
    doc["edges"].reverse()
    path = tmp_path / "fig1_reversed.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "mats"
    code, _, _ = run_cli(capsys, "homology", str(path), "--dump-matrices", str(outdir))
    assert code == 0
    digests = [_sha256(f.read_bytes()) for f in sorted(outdir.iterdir())]
    assert digests == REVERSED_FIG1_DUMP_SHA256


# theta is not uni-cyclic, so its dump lists the faces in file order.  The
# reversed list is a relabelling of theta's (swap u and w), so its bytes
# are theta's; listing the u-side edges first (t1 t3 t5 t2 t4 t6) goes
# against the id order and changes d_3
REORDERED_THETA_DUMP_SHA256 = {
    "reversed": (
        [5, 4, 3, 2, 1, 0],
        [
            "0be662095c3e5dcdc82f99b9dc09f1eeafb2f4f40e78999712f7029016f1548e",
            "fa1376b21d1d2ec67ad161965596d2ce4254d4658243a853795d1d05cac7cd8f",
            "ddfedc5df3203a04cb927dd823749e9d9d7753f93a10533cd95b2bb0e846a0ee",
        ],
    ),
    "u-side-first": (
        [0, 2, 4, 1, 3, 5],
        [
            "0be662095c3e5dcdc82f99b9dc09f1eeafb2f4f40e78999712f7029016f1548e",
            "fa1376b21d1d2ec67ad161965596d2ce4254d4658243a853795d1d05cac7cd8f",
            "4adef01e87a4943844c58dd4086521146f06e4bffcc08abb393e2c875c8e30d7",
        ],
    ),
}


@pytest.mark.parametrize("order", REORDERED_THETA_DUMP_SHA256)
def test_reversed_theta_dump_matches_golden_bytes(capsys, tmp_path, order):
    perm, expected = REORDERED_THETA_DUMP_SHA256[order]
    doc = json.loads(Path(THETA).read_text())
    doc["edges"] = [doc["edges"][i] for i in perm]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "mats"
    code, _, _ = run_cli(capsys, "homology", str(path), "--dump-matrices", str(outdir))
    assert code == 0
    digests = [_sha256(f.read_bytes()) for f in sorted(outdir.iterdir())]
    assert digests == expected


# the 18-edge pendant layout's d_1..d_10; d_6 is 8925 x 10452
PENDANTS_DUMP_SHA256 = [
    "6cdd2c03f47dbef45deee2e28182e0fab0eb45cd2c95553cbf298b752ac3538f",
    "43fa66e77f1e533626725dd35177891a39debe2ca386719cf4f5b72ec62213a7",
    "40732b2109435a44b7a2f9ff32096e44948746324ca4e11cfd54622944e0cfce",
    "dd9bbeaa2a1f99cc57f98097722532424d7741bc1b5c8c5b9ddc282732035d4f",
    "1b3a822a1c946686c060cde0d602a6f91e958ad6e7ea0470f777e7545ef02240",
    "c8e01ff0202656a13a9c7273036afdb29a7d2ff39803135343d3f858a7bb7e34",
    "0edac44c9c37cb668e60b2e4262301d69820ff28469f6ee9587732dd0443a5e4",
    "b5a8c0269bea2372f271aa5a15942b4d611943b6504698655153a5bb46d755cd",
    "6a0033749b2366a2540781db19cdd511802db959cfad7b1dadc7e1db13e2d707",
    "723c9df4d4994e2abd3495cf6833e2c2e1494c1dd99fc78af54e53e61e615ecc",
]


def test_pendants_dump_matches_golden_bytes(capsys, tmp_path):
    # 18 edges, 42559 faces; two runs, so the dump is also repeatable
    path = tmp_path / "pendants.json"
    path.write_text(json.dumps(make_doubled_six_cycle(SIX_PENDANTS).to_json_dict()))
    for run in ("a", "b"):
        outdir = tmp_path / run
        code, _, _ = run_cli(capsys, "homology", str(path), "--dump-matrices", str(outdir))
        assert code == 0
        assert sorted(f.name for f in outdir.iterdir()) == sorted(
            f"boundary_{i}.txt" for i in range(1, 11)
        )
        digests = [_sha256((outdir / f"boundary_{i}.txt").read_bytes()) for i in range(1, 11)]
        assert digests == PENDANTS_DUMP_SHA256, run


# the report without the oracle routes, and the report of a graph that is not
# uni-cyclic: no closed-form route runs and the layout is null
REPORT_STDOUT_SHA256 = {
    (FIG1, "--no-oracle", "--json"): "3bccac58d3c5a8081189bad8f765af81ebb94bb546422a4e5a69ddc745728130",
    (FIG1, "--no-oracle"): "1d480a01a6f3e8156a1eeedffea1a73b18050ca9a7efd005525e88ce0402a9f8",
    (THETA, "--json"): "677c33ce33b7d31401d96c5f6c466828c952f96de6aaf7552ef986adefd43bde",
    (THETA,): "f7c54086a74e78c79d18f9a5556ba0968b048f49ed2e6796fff244d6446ec18c",
}


def test_report_paths_match_golden_bytes(capsys):
    for (path, *flags), digest in REPORT_STDOUT_SHA256.items():
        code, out, err = run_cli(capsys, "analyze", path, *flags)
        assert (code, err) == (0, ""), (path, *flags)
        assert out.count(path) == 1
        assert _sha256(out.replace(path, "<path>").encode()) == digest, (path, *flags)


# layout_graph([2, 1, 1], (2,), 3): the three pendant edges are bridges,
# which no fixture has
BRIDGED_STDOUT_SHA256 = {
    ("facets", "--json"): "e7115e9bbe41fd42fa2c1f49e2aa078667791054940eb60eca578ae3541dfce9",
    ("facets",): "ac76b01ebad5ad96400887c3699cafe74182a5aaa3e6a7770ac121a7c4fb526d",
    ("covers", "--json"): "5d2959355a9d7ce84c30034d922a337770f76cd8ded404e37792a3d575fe188a",
    ("covers",): "b58898a5ce688067f9e44059538ee41c8f26ec48a1b35376ca9ad01af67ec5e9",
}


def test_bridged_layout_outputs_match_golden_bytes(capsys, tmp_path):
    path = tmp_path / "bridged.json"
    path.write_text(json.dumps(layout_graph([2, 1, 1], (2,), 3).to_json_dict()))
    for (command, *flags), digest in BRIDGED_STDOUT_SHA256.items():
        code, out, err = run_cli(capsys, command, str(path), *flags)
        assert (code, err) == (0, ""), command
        assert _sha256(out.encode()) == digest, (command, *flags)


def _leaves(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return [leaf for item in x for leaf in _leaves(item)]
    return [x]


def _drop_last(route):
    return lambda *args: route(*args)[:-1]


def _plus_one(route):
    return lambda *args: route(*args) + 1


def _last_plus_one(route):
    return lambda *args: (terms := route(*args))[:-1] + [terms[-1] + 1]


def _first_two_plus_one(route):
    # f_0 and f_1 up by one each: the Euler characteristic stays the same
    return lambda *args: FVector(((f := route(*args).counts)[0] + 1, f[1] + 1) + f[2:])


# one wrong route in the analysis, and the one check that must catch it
PLANTS = [
    ("enumerate_spanning_trees_layout", _drop_last, "facets:closed-form-vs-generic"),
    ("count_spanning_trees_layout", _plus_one, "count:closed-form-vs-enumeration"),
    ("closed_form_tail", _last_plus_one, "fvector:tail-zero"),
    ("f_vector_closed_form", _first_two_plus_one, "fvector:closed-form-vs-bruteforce"),
    ("minimal_vertex_covers_closed_form", _drop_last, "covers:closed-form-vs-generic"),
    ("euler_from_betti", _plus_one, "euler:all-routes-agree"),
]


@pytest.mark.parametrize("route, plant, check", PLANTS, ids=[p[2] for p in PLANTS])
def test_planted_discrepancy_exits_1(capsys, monkeypatch, route, plant, check):
    real, outputs = getattr(analysis, route), []

    def recorded(*args):
        outputs.append(real(*args))
        return outputs[-1]

    monkeypatch.setattr(analysis, route, plant(recorded))
    code, out, err = run_cli(capsys, "verify", FIG1)
    assert (code, out) == (1, "verify: FAIL (1 discrepancies)\n")
    [record] = json.loads(err)
    assert record["check"] == check
    assert record["fingerprint"] == load_graph_file(FIG1).fingerprint()
    # counts are decimal strings, like every count in the report
    values = _leaves([record["expected"], record["actual"]])
    assert values and all(isinstance(v, str) for v in values)
    assert record["expected"] != record["actual"]
    if plant is _drop_last:
        # the record names the one dropped tree or cover, not both lists
        assert record["expected"] == [list(outputs[-1][-1])]
        assert record["actual"] == []
    if plant is _first_two_plus_one:
        assert (record["expected"], record["actual"]) == (["7", "17", "14"], ["8", "18", "14"])
    code, out, _ = run_cli(capsys, "analyze", FIG1)
    assert code == 1
    fail_line = f"  FAIL {check}: expected {record['expected']}, got {record['actual']}"
    assert out.endswith(f"discrepancies: 1\n{fail_line}\n")


def test_random_suite_writes_counterexample(capsys, monkeypatch, tmp_path):
    route = analysis.count_spanning_trees_layout
    monkeypatch.setattr(analysis, "count_spanning_trees_layout", _plus_one(route))
    monkeypatch.chdir(tmp_path)
    [g] = random_suite(42, 1, 12)
    target = f"counterexample-{g.fingerprint()}.json"
    code, out, err = run_cli(capsys, "random-suite", "--count", "1")
    assert code == 1
    assert out.startswith(f"FAIL {g.fingerprint()}: wrote {target}\n")
    assert [r["check"] for r in json.loads(err)] == ["count:closed-form-vs-enumeration"]
    assert [p.name for p in tmp_path.iterdir()] == [target]
    assert multigraph_from_json((tmp_path / target).read_text()).fingerprint() == g.fingerprint()


def test_random_suite_small(capsys):
    code, out, _ = run_cli(
        capsys, "random-suite", "--seed", "7", "--count", "8", "--max-edges", "10"
    )
    assert code == 0
    assert "checked 8 graphs" in out
    assert "all checks agree" in out


def test_random_suite_json(capsys):
    code, out, _ = run_cli(
        capsys, "random-suite", "--seed", "7", "--count", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"seed": 7, "count": 5, "max_edges": 12, "failures": 0}


@pytest.mark.parametrize(
    "flag, value, low",
    [("--max-edges", "2", 3), ("--max-edges", "0", 3), ("--count", "-1", 0), ("--count", "-3", 0)],
)
def test_random_suite_bad_arguments_are_input_errors(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["random-suite", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be at least {low}, got {value}"
    )


def test_random_suite_non_integer_count_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random-suite", "--count", "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --count: invalid int value: 'abc'"
    )


def test_random_suite_smallest_layouts(capsys):
    code, out, _ = run_cli(capsys, "random-suite", "--count", "3", "--max-edges", "3")
    assert code == 0
    assert "checked 3 graphs" in out
    assert run_cli(capsys, "random-suite", "--count", "0")[0] == 0


INVALID_GRAPHS = {
    "not_object": ([], "error: top level must be a JSON object"),
    "extra_key": (
        {"vertices": ["a", "b"], "edges": [{"id": "e1", "ends": ["a", "b"]}], "x": 1},
        "error: unexpected key 'x'",
    ),
    "vertex_not_string": (
        {"vertices": ["a", 2], "edges": []},
        "error: 'vertices' must be an array of strings",
    ),
    "edges_not_array": ({"vertices": ["a"], "edges": {}}, "error: 'edges' must be an array"),
    "edge_not_object": ({"vertices": ["a"], "edges": [1]}, "error: edges[0] must be an object"),
    "id_not_string": (
        {"vertices": ["a", "b"], "edges": [{"id": 1, "ends": ["a", "b"]}]},
        "error: edges[0].id must be a string",
    ),
    "duplicate_vertex": (
        {"vertices": ["a", "b", "a"], "edges": [{"id": "e1", "ends": ["a", "b"]}]},
        "error: duplicate vertex identifier 'a'",
    ),
    "unknown_vertex": (
        {"vertices": ["a", "b"], "edges": [{"id": "e1", "ends": ["a", "z"]}]},
        "error: edge 'e1' names unknown vertex 'z'",
    ),
    "loop": (
        {"vertices": ["a", "b"], "edges": [{"id": "e1", "ends": ["a", "b"]},
                                           {"id": "e2", "ends": ["b", "b"]}]},
        "error: edge 'e2' is a loop on vertex 'b'",
    ),
    "unreachable": (
        {"vertices": ["a", "b", "c"], "edges": [{"id": "e1", "ends": ["a", "b"]}]},
        "error: vertex 'c' is unreachable",
    ),
    # raw bytes are written to the file as they are
    "not_utf8": (b"\xff\xfe{}", "error: graph file is not UTF-8: invalid byte at offset 0"),
    "too_deep": (b"[" * 200000, "error: invalid JSON: nested too deeply"),
    # past Python's 4300-digit limit on parsing an int
    "long_int": (
        b'{"vertices": ["a", "b"], "edges": [], "x": ' + b"1" * 5000 + b"}",
        "error: invalid JSON: an integer literal has too many digits",
    ),
    "long_int_in_ends": (
        b'{"vertices": ["a", "b"], "edges": [{"id": "e1", "ends": ["a", ' + b"1" * 5000 + b"]}]}",
        "error: invalid JSON: an integer literal has too many digits",
    ),
}


@pytest.mark.parametrize("command", ["analyze", "covers", "homology"])
@pytest.mark.parametrize("defect", sorted(INVALID_GRAPHS))
def test_invalid_graph_file_is_input_error(capsys, tmp_path, command, defect):
    doc, message = INVALID_GRAPHS[defect]
    path = tmp_path / f"{defect}.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    assert run_cli(capsys, command, str(path)) == (2, "", message + "\n")


def test_analyze_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", FIG1, "--json")
    _, out2, _ = run_cli(capsys, "analyze", FIG1, "--json")
    assert out1 == out2


def _cycle_file(tmp_path, n):
    vertices = [f"v{i}" for i in range(n)]
    edges = [{"id": f"e{i}", "ends": [vertices[i], vertices[(i + 1) % n]]} for i in range(n)]
    path = tmp_path / f"cycle{n}.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    return str(path)


def _parallel_file(tmp_path, n):
    # n parallel edges on {a, b}: n faces, the single edges
    edges = [{"id": f"e{i}", "ends": ["a", "b"]} for i in range(n)]
    path = tmp_path / f"parallel{n}.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": edges}))
    return str(path)


FILE_COMMANDS = ["analyze", "verify", "facets", "covers", "homology"]


@pytest.mark.parametrize("command", FILE_COMMANDS + ["random-suite"])
def test_budget_is_not_an_option(capsys, tmp_path, command):
    path = [] if command == "random-suite" else [_parallel_file(tmp_path, 3)]
    with pytest.raises(SystemExit) as exc:
        main([command, *path, "--budget", "24"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --budget 24")


@pytest.mark.parametrize("command", ["analyze", "homology"])
@pytest.mark.parametrize("budget", ["0", "-5", "100"])
def test_budget_out_of_range_is_input_error(capsys, tmp_path, command, budget):
    # the budget is a constant: a value on the command line, in range or not,
    # is a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, _cycle_file(tmp_path, 64), "--budget", budget])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: --budget {budget}")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_enumeration_runs_at_the_edge_budget(capsys, tmp_path, command):
    code, _, err = run_cli(capsys, command, _parallel_file(tmp_path, kernels.EDGE_BUDGET))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_budget_at_limit_reports_budget_exceeded(capsys, tmp_path, command):
    path = _parallel_file(tmp_path, kernels.EDGE_BUDGET + 1)
    stage = "graded face" if command == "homology" else "spanning tree"
    assert run_cli(capsys, command, path) == (
        3,
        "",
        f"error: {stage} enumeration: instance has 25 edges, exceeding the enumeration "
        "budget of 24\n",
    )


def test_random_suite_over_budget_reports_budget_exceeded(capsys):
    # the thirteenth graph of seed 7 with at most 40 edges has 26
    assert run_cli(capsys, "random-suite", "--seed", "7", "--max-edges", "40") == (
        3,
        "",
        "error: spanning tree enumeration: instance has 26 edges, "
        "exceeding the enumeration budget of 24\n",
    )


def test_random_suite_checks_the_budget_before_verifying(capsys, monkeypatch):
    # the tenth graph of seed 42 with at most 30 edges has 25 edges
    calls = []
    verify = cli.run_verify

    def counting(g):
        calls.append(g.n_edges)
        return verify(g)

    monkeypatch.setattr(cli, "run_verify", counting)
    assert run_cli(capsys, "random-suite", "--max-edges", "30") == (
        3,
        "",
        "error: spanning tree enumeration: instance has 25 edges, "
        "exceeding the enumeration budget of 24\n",
    )
    assert calls == []


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    from spancomplex import cli

    builds = []
    build_parser = cli.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    first = run_cli(capsys, "analyze", FIG1, "--json")
    second = run_cli(capsys, "analyze", FIG1, "--json")
    assert run_cli(capsys, "verify", TRIANGLE) == (0, "verify: PASS\n", "")
    assert first == second
    assert len(builds) == 1


def test_dispatch_honours_replaced_command(capsys, monkeypatch):
    from spancomplex import cli

    assert run_cli(capsys, "verify", TRIANGLE)[0] == 0  # the parser is built by now
    calls = []

    def patched(args):
        calls.append(args.path)
        return 0

    monkeypatch.setattr(cli, "cmd_analyze", patched)
    assert run_cli(capsys, "analyze", FIG1, "--json") == (0, "", "")
    assert calls == [FIG1]


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from spancomplex import analysis

    def broken(layout):
        raise RuntimeError("stage broke")

    monkeypatch.setattr(analysis, "f_vector_closed_form", broken)
    code, out, err = run_cli(capsys, "analyze", FIG1, "--json")
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "internal",
        "type": "RuntimeError",
        "message": "stage broke",
    }
    assert run_cli(capsys, "verify", FIG1)[0] == 4


def test_benchmark_tracer_installs_and_restores(capsys):
    # perfbench --trace 1 wraps package functions by name; a rename or a
    # deletion that breaks it fails here rather than in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", FIXTURES.parent / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        code = cli.main(["analyze", FIG1, "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["homology"]["betti"] == ["1", "0", "3"]
    names = {span[0] for span in tracer.passes[0]}
    assert {"cli.main", "analysis.run_analyze", "homology.betti_from_faces"} <= names
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr}"
