import csv
import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import from_dot
from pagaudit import cli
from pagaudit.errors import KnowledgeInconsistencyError
from pagaudit.graph import Mark, from_json


def run(argv):
    return cli.main(argv)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_simulate_writes_csv_schema_manifest(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--n", "200", "--seed", "1", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "H,V,R,Yhat"
    assert len(out.read_text().splitlines()) == 201
    schema = Path(str(out) + ".schema").read_text()
    assert "H:cat:2" in schema and "Yhat:cat:2" in schema
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["parameters"]["n"] == 200
    assert str(out) in manifest["outputs"]


def test_simulate_include_c_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    run(["simulate", "--n", "100", "--seed", "2", "--include-c", "--out", str(a)])
    assert a.read_text().splitlines()[0] == "H,V,C,R,Yhat"
    run(["simulate", "--n", "100", "--seed", "2", "--include-c", "--out", str(b)])
    assert digest(a) == digest(b)
    run(["simulate", "--n", "100", "--seed", "3", "--include-c", "--out", str(c)])
    assert digest(a) != digest(c)


def _simulated(tmp_path, n=4000, seed=1):
    data = tmp_path / "d.csv"
    run(["simulate", "--n", str(n), "--seed", str(seed), "--out", str(data)])
    return data


def test_discover_dot_output_and_manifest(tmp_path):
    data = _simulated(tmp_path)
    out = tmp_path / "graph.dot"
    code = run(
        [
            "discover",
            "--data",
            str(data),
            "--target",
            "Yhat",
            "--alpha",
            "0.05",
            "--max-cond-size",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    g = from_dot(out.read_text())
    assert set(g.names) == {"H", "V", "R", "Yhat"}
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["parameters"]["alpha"] == 0.05
    assert manifest["parameters"]["max_cond_size"] == 4
    assert str(data) in manifest["inputs"]
    diags = json.loads(Path(str(out) + ".diagnostics.json").read_text())
    assert diags["tests_run"] > 0


def test_discover_with_knowledge_file(tmp_path):
    data = _simulated(tmp_path)
    know = tmp_path / "k.txt"
    know.write_text("nonancestor Yhat *\n")
    out = tmp_path / "graph.json"
    assert (
        run(
            [
                "discover",
                "--data",
                str(data),
                "--knowledge",
                str(know),
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    g = from_json(out.read_text())
    for feat in ("V", "R"):
        if g.adjacent(feat, "Yhat"):
            assert g.mark_at("Yhat", feat) is Mark.ARROW


def test_discover_malformed_csv_exits_2_without_output(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("H,V\n0,zap\n")
    Path(str(bad) + ".schema").write_text("H:cat:2\nV:cat:2\n")
    out = tmp_path / "never.dot"
    assert run(["discover", "--data", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_discover_missing_files_exit_2(tmp_path):
    out = tmp_path / "x.dot"
    assert run(["discover", "--data", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2
    data = _simulated(tmp_path)
    assert (
        run(
            [
                "discover",
                "--data",
                str(data),
                "--schema",
                str(tmp_path / "nope.schema"),
                "--out",
                str(out),
            ]
        )
        == 2
    )


def _quoted_names_data(tmp_path, header):
    # Y copies the first column with a tenth of its values flipped, so the
    # graph has one edge
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, 400)
    rows = np.stack([a, rng.integers(0, 2, 400), a ^ (rng.random(400) < 0.1)], axis=1)
    data = tmp_path / "q.csv"
    data.write_text(",".join(header) + "\n" + "".join(f"{x},{y},{z}\n" for x, y, z in rows))
    Path(str(data) + ".schema").write_text("".join(f"{name}:cat:2\n" for name in header))
    return data


def test_discover_dot_quotes_names_holding_quotes_and_backslashes(tmp_path):
    header = ['a"b', "c\\d", "Y"]
    data = _quoted_names_data(tmp_path, header)
    dot, js = tmp_path / "g.dot", tmp_path / "g.json"
    for out, fmt in ((dot, "dot"), (js, "json")):
        argv = ["discover", "--data", str(data), "--target", "Y", "--format", fmt]
        assert run([*argv, "--out", str(out)]) == 0
    g = from_dot(dot.read_text())
    assert list(g.names) == header
    assert g.same_structure(from_json(js.read_text())) and g.n_edges == 1


def test_discover_dot_rejects_a_name_ending_in_a_backslash(tmp_path, capsys):
    data = _quoted_names_data(tmp_path, ["a", "c\\", "Y"])
    out = tmp_path / "g.dot"
    assert run(["discover", "--data", str(data), "--target", "Y", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): ") and repr("c\\") in err
    assert not out.exists()


def test_discover_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    data = _simulated(tmp_path, n=300)
    out = tmp_path / "missing" / "dir" / "x.dot"
    assert run(["discover", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): ") and str(out) in err


def test_discover_data_directory_exits_2_naming_the_path(tmp_path, capsys):
    folder = tmp_path / "data.csv"
    folder.mkdir()
    Path(str(folder) + ".schema").write_text("H:cat:2\nV:cat:2\n")
    assert run(["discover", "--data", str(folder), "--out", str(tmp_path / "x.dot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): ") and str(folder) in err


def test_discover_non_utf8_csv_exits_2_naming_the_path(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes("H,V\n0,1\n1,0\n# caf\xe9\n".encode("latin-1"))
    Path(str(bad) + ".schema").write_text("H:cat:2\nV:cat:2\n")
    assert run(["discover", "--data", str(bad), "--out", str(tmp_path / "x.dot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): ") and str(bad) in err and "UTF-8" in err


def test_discover_oversized_csv_field_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text("H,V\n0,1\n0," + "1" * (csv.field_size_limit() + 1) + "\n")
    Path(str(bad) + ".schema").write_text("H:cat:2\nV:cat:2\n")
    assert run(["discover", "--data", str(bad), "--out", str(tmp_path / "x.dot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): ") and f"{bad} line 3: field larger" in err
    assert "Traceback" not in err


def test_discover_level_past_int64_exits_2_as_out_of_range(tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text("a,b\n99999999999999999999,0\n1,1\n")
    Path(str(bad) + ".schema").write_text("a:cat:2\nb:cat:2\n")
    assert run(["discover", "--data", str(bad), "--out", str(tmp_path / "x.dot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): ") and "column 'a': values outside [0, 2)" in err
    assert "Traceback" not in err


def test_discover_schema_arity_past_int64_exits_2_naming_the_line(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a,b\n0,1\n1,0\n0,0\n1,1\n")
    Path(str(data) + ".schema").write_text("b:cat:2\na:cat:99999999999999999999\n")
    assert run(["discover", "--data", str(data), "--out", str(tmp_path / "x.dot")]) == 2
    err = capsys.readouterr().err
    assert err == "error (input): schema line 2: arity 99999999999999999999 is past int64\n"


@pytest.mark.parametrize("arity", [2**62, 2**63 - 1])
def test_discover_takes_a_declared_arity_up_to_int64(tmp_path, arity):
    # count tables code the levels that occur, so the declared arity sizes
    # nothing
    data = tmp_path / "d.csv"
    data.write_text("a,b,c\n0,1,0\n1,0,1\n5,1,1\n0,0,0\n")
    Path(str(data) + ".schema").write_text(f"a:cat:{arity}\nb:cat:2\nc:cat:2\n")
    out = tmp_path / "g.json"
    assert run(["discover", "--data", str(data), "--format", "json", "--out", str(out)]) == 0
    assert from_json(out.read_text()).names == ("a", "b", "c")


def test_discover_reads_files_saved_with_a_byte_order_mark(tmp_path):
    data = _simulated(tmp_path, n=300)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    Path(str(marked) + ".schema").write_bytes(
        b"\xef\xbb\xbf" + Path(str(data) + ".schema").read_bytes()
    )
    for path, out in ((data, tmp_path / "plain.json"), (marked, tmp_path / "marked.json")):
        assert run(["discover", "--data", str(path), "--format", "json", "--out", str(out)]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "marked.json").read_bytes()
    manifest = json.loads(Path(str(tmp_path / "marked.json") + ".manifest.json").read_text())
    assert manifest["inputs"][str(marked)] == digest(marked)  # the raw bytes, mark included


def test_stability_cli_outputs_and_thread_invariance(tmp_path):
    data = _simulated(tmp_path, n=2000, seed=4)
    out1 = tmp_path / "rep1"
    args = [
        "stability",
        "--data",
        str(data),
        "--target",
        "Yhat",
        "--replicates",
        "6",
        "--base-seed",
        "11",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    first = {ext: digest(str(out1) + ext) for ext in (".json", ".csv")}
    # manifests written when stability took --threads still replay, byte for byte
    manifest = Path(str(out1) + ".json.manifest.json")
    obj = json.loads(manifest.read_text())
    obj["parameters"]["threads"] = 3
    manifest.write_text(json.dumps(obj))
    for ext in first:
        Path(str(out1) + ext).unlink()
    assert run(["rerun", str(manifest)]) == 0
    assert {ext: digest(str(out1) + ext) for ext in first} == first
    report = json.loads(Path(str(out1) + ".json").read_text())
    assert report["replicates"] == 6
    assert set(report["features"]) == {"H", "V", "R"}
    csv_text = Path(str(out1) + ".csv").read_text()
    assert csv_text.startswith("feature,def_cause,poss_cause,confounded,none,cause_frequency")


@pytest.mark.parametrize(
    "schema, test, problem",
    [
        ("a:cat:2\nb:cat:2\nt:cat:2\n", "fisherz",
         "fisher-z test needs continuous columns, 'a' is not"),
        ("a:cont\nb:cont\nt:cont\n", "chi2",
         "chi-square test needs categorical columns, 'a' is not"),
        ("a:cont\nb:cont\nt:cont\n", "g2",
         "chi-square test needs categorical columns, 'a' is not"),
        ("a:cat:2\nb:cont\nt:cat:2\n", "auto",
         "mixed column kinds: choose the test explicitly"),
    ],
    ids=["fisherz-on-cat", "chi2-on-cont", "g2-on-cont", "auto-on-mixed"],
)
@pytest.mark.parametrize("command", ["discover", "stability"])
def test_a_test_that_does_not_fit_the_columns_exits_2(
    tmp_path, capsys, command, schema, test, problem
):
    # stability used to exit 0 with every replicate failed and an all-zero report
    data = tmp_path / "d.csv"
    data.write_text("a,b,t\n" + "".join(f"{i % 2},{i // 2 % 2},{i // 4 % 2}\n" for i in range(40)))
    Path(str(data) + ".schema").write_text(schema)
    argv = [command, "--data", str(data), "--target", "t", "--test", test,
            "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error (input): {problem}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.schema"]


def test_stability_single_replicate_degenerate_frequencies(tmp_path):
    data = _simulated(tmp_path, n=2000, seed=5)
    out = tmp_path / "one"
    assert (
        run(
            [
                "stability",
                "--data",
                str(data),
                "--target",
                "Yhat",
                "--replicates",
                "1",
                "--base-seed",
                "0",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads(Path(str(out) + ".json").read_text())
    for entry in report["features"].values():
        for freq in entry["frequencies"].values():
            assert freq in (0.0, 1.0)


def test_oracle_builtin_truth_exact_graph(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(
        [
            "oracle",
            "--truth",
            "fig4a",
            "--observe",
            "H,V,R,Yhat",
            "--target",
            "Yhat",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    g = from_json(out.read_text())
    expected = {
        ("H", "V"): (Mark.CIRCLE, Mark.CIRCLE),
        ("H", "R"): (Mark.CIRCLE, Mark.ARROW),
        ("R", "Yhat"): (Mark.ARROW, Mark.ARROW),
        ("V", "Yhat"): (Mark.CIRCLE, Mark.ARROW),
    }
    got = {(e.a, e.b): (e.mark_a, e.mark_b) for e in g.edges()}
    assert got == expected


def test_oracle_fully_observed_dag_has_no_bidirected_edges(tmp_path):
    # with every node observed and no knowledge the class is a CPDAG: chain
    # and collider variants never produce arrow-arrow edges
    from pagaudit.graph import GraphKind, MixedGraph, to_json

    for edges in ([("A", "B"), ("B", "C")], [("A", "C"), ("B", "C")]):
        truth = MixedGraph(("A", "B", "C"), GraphKind.DAG)
        for a, b in edges:
            truth.add_directed_edge(a, b)
        tpath = tmp_path / "truth.json"
        tpath.write_text(to_json(truth))
        out = tmp_path / "out.json"
        assert (
            run(
                [
                    "oracle",
                    "--truth",
                    str(tpath),
                    "--observe",
                    "A,B,C",
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        g = from_json(out.read_text())
        for e in g.edges():
            assert not (e.mark_a is Mark.ARROW and e.mark_b is Mark.ARROW)


def test_oracle_unknown_observed_node_exits_2(tmp_path):
    out = tmp_path / "x.dot"
    assert (
        run(["oracle", "--truth", "fig4a", "--observe", "H,V,R,Zed", "--out", str(out)])
        == 2
    )


def test_oracle_truth_that_is_not_a_dag_exits_2(tmp_path, capsys):
    # kind "dag", but a directed cycle, or circle and bidirected marks
    directed = [("A", "B", "tail", "arrow"), ("B", "C", "tail", "arrow")]
    truths = {
        "directed cycle": directed + [("C", "A", "tail", "arrow")],
        "non-directed edge in DAG: A o-o B": [
            ("A", "B", "circle", "circle"), ("B", "C", "arrow", "arrow"),
        ],
    }
    for problem, edges in truths.items():
        tpath = tmp_path / "truth.json"
        tpath.write_text(json.dumps({
            "kind": "dag",
            "nodes": ["A", "B", "C"],
            "edges": [{"a": a, "b": b, "mark_a": ma, "mark_b": mb} for a, b, ma, mb in edges],
        }))
        out = tmp_path / "out.json"
        argv = ["oracle", "--truth", str(tpath), "--observe", "A,B,C", "--out", str(out)]
        assert run(argv) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "truth, problem",
    [
        ({"kind": "dag", "nodes": "AB", "edges": []}, "'nodes' must be a list of strings, got 'AB'"),
        ({"kind": "dag", "edges": []}, "'nodes' must be a list of strings, got no value"),
        ([{"kind": "dag", "nodes": ["A", "B"], "edges": []}], "not a JSON object"),
        ({"nodes": ["A", "B"], "edges": {}}, "'edges' must be a list of objects, got {}"),
        (
            {"nodes": ["A", "B"], "edges": [{"a": "A", "b": "B", "mark_a": "tail"}]},
            "edge 0 field 'mark_b' must be str, got no value",
        ),
    ],
)
def test_oracle_malformed_truth_json_exits_2_naming_the_field(tmp_path, capsys, truth, problem):
    tpath, out = tmp_path / "truth.json", tmp_path / "out.json"
    tpath.write_text(json.dumps(truth))
    assert run(["oracle", "--truth", str(tpath), "--observe", "A,B", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error (input): malformed graph JSON: {problem}\n"
    assert not out.exists()


def test_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    data = _simulated(tmp_path, n=1500, seed=6)
    out = tmp_path / "g.dot"
    run(["discover", "--data", str(data), "--target", "Yhat", "--out", str(out)])
    first = digest(out)
    out.unlink()
    assert run(["rerun", str(out) + ".manifest.json"]) == 0
    assert digest(out) == first


def test_rerun_bad_manifest_exits_2(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    assert run(["rerun", str(p)]) == 2
    assert run(["rerun", str(tmp_path / "missing.json")]) == 2


SIMULATE_PARAMS = {"n": 50, "seed": 1, "include_c": False, "mode": "logistic", "out": "s.csv"}


@pytest.mark.parametrize(
    "manifest, problem",
    [
        ([], "not a JSON object"),
        ({"parameters": {}}, "no 'command'"),
        ({"command": "discover", "parameters": {}}, "'data' must be str, got no value"),
        ({"command": "discover", "parameters": "x"}, "'parameters' is not a JSON object"),
        (
            {"command": "simulate", "parameters": {**SIMULATE_PARAMS, "n": "abc"}},
            "simulate parameter 'n' must be int, got 'abc'",
        ),
        (
            {"command": "simulate", "parameters": {**SIMULATE_PARAMS, "out": None}},
            "simulate parameter 'out' must be str, got None",
        ),
        # a JSON boolean is a Python int, yet no integer parameter takes one
        (
            {"command": "simulate", "parameters": {**SIMULATE_PARAMS, "seed": True}},
            "simulate parameter 'seed' must be int, got True",
        ),
        (
            {"command": "simulate", "parameters": {**SIMULATE_PARAMS, "n": True, "mode": "perfect"}},
            "simulate parameter 'n' must be int, got True",
        ),
    ],
)
def test_rerun_malformed_manifest_exits_2_naming_the_problem(
    tmp_path, monkeypatch, capsys, manifest, problem
):
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps(manifest))
    assert run(["rerun", "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (input): malformed manifest: ") and problem in err
    assert not Path("s.csv").exists()


def test_rerun_takes_a_bool_where_a_flag_is_expected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(
        json.dumps({"command": "simulate", "parameters": {**SIMULATE_PARAMS, "include_c": True}})
    )
    assert run(["rerun", "m.json"]) == 0
    assert Path("s.csv").read_text().splitlines()[0] == "H,V,C,R,Yhat"


def test_rerun_replays_a_manifest_with_extra_keys_and_absent_nullable_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(
        json.dumps({"command": "simulate", "parameters": {**SIMULATE_PARAMS, "threads": 3}})
    )
    assert run(["rerun", "m.json"]) == 0
    data = _simulated(tmp_path, n=500, seed=3)
    params = {"data": str(data), "alpha": 0.05, "test": "auto", "no_possible_dsep": False}
    Path("d.json").write_text(
        json.dumps({"command": "discover", "parameters": {**params, "format": "dot", "out": "g.dot"}})
    )
    assert run(["rerun", "d.json"]) == 0
    assert Path("g.dot").exists()


def test_env_overrides_defaults(tmp_path, monkeypatch):
    data = _simulated(tmp_path, n=1000, seed=7)
    out = tmp_path / "g.dot"
    monkeypatch.setenv("PAGAUDIT_ALPHA", "0.10")
    run(["discover", "--data", str(data), "--target", "Yhat", "--out", str(out)])
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["parameters"]["alpha"] == 0.10
    monkeypatch.setenv("PAGAUDIT_ALPHA", "zap")
    assert run(["discover", "--data", str(data), "--target", "Yhat", "--out", str(out)]) == 2


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PAGAUDIT_SEED", "77")
    out = tmp_path / "s.csv"
    run(["simulate", "--n", "50", "--out", str(out)])
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 77


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch, capsys):
    # the parser is built once, so nothing resolved for one call may stick to it
    assert cli.build_parser() is cli.build_parser()
    seeds = []
    for seed in ("11", "12"):
        monkeypatch.setenv("PAGAUDIT_SEED", seed)
        out = tmp_path / f"s{seed}.csv"
        assert run(["simulate", "--n", "50", "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        seeds.append(manifest["parameters"]["seed"])
    assert seeds == [11, 12]
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--n", "fifty", "--out", str(tmp_path / "bad.csv")])
    assert err.value.code == 2
    assert "invalid int value: 'fifty'" in capsys.readouterr().err
    out = tmp_path / "after.csv"
    assert run(["simulate", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 51


def test_knowledge_inconsistency_maps_to_exit_3(monkeypatch):
    def boom(params):
        raise KnowledgeInconsistencyError("conflicting orientation")

    monkeypatch.setitem(cli.HANDLERS, "discover", boom)
    assert run(["discover", "--data", "x", "--out", "y"]) == 3


def test_internal_error_maps_to_exit_4(monkeypatch):
    from pagaudit.errors import InternalConsistencyError

    def boom(params):
        raise InternalConsistencyError("stage precondition violated")

    monkeypatch.setitem(cli.HANDLERS, "oracle", boom)
    assert (
        run(["oracle", "--truth", "fig4a", "--observe", "H,V", "--out", "z"]) == 4
    )


def test_discover_continuous_data_fisherz(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.normal(size=600)
    z = 0.9 * x + rng.normal(size=600)
    y = 0.9 * z + rng.normal(size=600)
    data = tmp_path / "cont.csv"
    lines = ["x,z,y"] + [f"{a:.6f},{b:.6f},{c:.6f}" for a, b, c in zip(x, z, y)]
    data.write_text("\n".join(lines) + "\n")
    Path(str(data) + ".schema").write_text("x:cont\nz:cont\ny:cont\n")
    out = tmp_path / "cont.json"
    code = run(
        [
            "discover",
            "--data",
            str(data),
            "--test",
            "fisherz",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    g = from_json(out.read_text())
    assert g.adjacent("x", "z") and g.adjacent("z", "y")
    assert not g.adjacent("x", "y")


# -- any input files and flags: an exit code, never a traceback ------------------


@st.composite
def cli_inputs(draw):
    """Files and flags for every command, each of them sometimes invalid: a
    CSV of 1-30 rows over 2-5 columns, each categorical column with 1-4
    levels and a declared arity at, above or far above them; a schema; an
    optional knowledge file; a small truth DAG's JSON; and numeric flags."""

    def rarely(bad, good):  # one draw in five from ``bad``, the others from ``good``
        return st.sampled_from([good] * 4 + [bad]).flatmap(lambda strategy: strategy)

    n = draw(st.integers(1, 30))
    names = [f"v{j}" for j in range(draw(st.integers(2, 5)))]
    kinds = draw(st.sampled_from(["cat"] * 3 + ["cont", "mixed"]))
    cells, schema = [], []
    for name in names:
        if kinds == "cat" or kinds == "mixed" and draw(st.booleans()):
            k = draw(st.integers(1, 4))
            arity = draw(st.sampled_from([k, k + 3, 2**62, 2**63 - 1]))
            levels = draw(st.lists(st.integers(0, arity - 1), min_size=k, max_size=k, unique=True))
            cells.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
            schema.append(f"{name}:cat:{arity}")
        else:
            cells.append(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
            schema.append(f"{name}:cont")
    bad = st.sampled_from(["oops", "v0:cat:x", "v0:cont:3", "v0:cat:0", "v1:cat:-1"])
    schema.insert(draw(st.integers(0, len(schema))), draw(rarely(bad, st.just(""))))
    nodes = ["A", "B", "C", "D"]
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(nodes, 2))), unique=True))
    truth = json.dumps(
        {
            "kind": "dag",
            "nodes": nodes,
            "edges": [{"a": a, "b": b, "mark_a": "tail", "mark_b": "arrow"} for a, b in edges],
        }
    )
    observe = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=4, unique=True))
    knowledge = draw(
        rarely(
            st.just("forbid v0 ghost"),
            st.sampled_from([None, "forbid v0 v1", "require v0 v1", "nonancestor v1 *"]),
        )
    )
    return {
        "csv": "\n".join([",".join(names)] + [",".join(map(str, row)) for row in zip(*cells)]),
        "schema": "\n".join(schema) + "\n",
        "knowledge": knowledge,
        # the oracle's variables are A-D
        "oracle_knowledge": knowledge and knowledge.replace("v0", "A").replace("v1", "B"),
        "truth": draw(
            rarely(st.sampled_from([truth[:-1], '{"nodes": "AB", "edges": []}']), st.just(truth))
        ),
        "observe": ",".join(observe + draw(rarely(st.sampled_from([["Z"], ["A"]]), st.just([])))),
        "target": draw(rarely(st.just("ghost"), st.just(names[-1]))),
        "alpha": draw(rarely(st.sampled_from([0.0, 1.0, -0.1, 2.0]), st.floats(0.001, 0.5))),
        "max_cond_size": draw(rarely(st.integers(-2, -1), st.integers(0, 4))),
        "fraction": draw(rarely(st.sampled_from([0.0, 1.5]), st.none() | st.floats(0.1, 1.0))),
        "replicates": draw(st.integers(1, 3)),
    }


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=cli_inputs())
def test_every_command_exits_0_2_or_3_on_any_input(tmp_path, case):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    data, truth, knowledge = work / "d.csv", work / "truth.json", work / "k.txt"
    data.write_text(case["csv"])
    Path(str(data) + ".schema").write_text(case["schema"])
    truth.write_text(case["truth"])
    known, oracle_known = [], []
    if case["knowledge"] is not None:
        knowledge.write_text(case["knowledge"])
        (work / "ko.txt").write_text(case["oracle_knowledge"])
        known, oracle_known = ["--knowledge", str(knowledge)], ["--knowledge", str(work / "ko.txt")]
    flags = ["--alpha", repr(case["alpha"]), "--max-cond-size", str(case["max_cond_size"])]
    fraction = [] if case["fraction"] is None else ["--subsample-fraction", repr(case["fraction"])]
    commands = [
        ["discover", "--data", str(data), *known, *flags, "--out", str(work / "g.dot")],
        [
            "stability", "--data", str(data), *known, "--target", case["target"],
            "--replicates", str(case["replicates"]), *fraction, *flags, "--out", str(work / "s"),
        ],
        [
            "oracle", "--truth", str(truth), "--observe", case["observe"], *oracle_known,
            "--max-cond-size", str(case["max_cond_size"]), "--out", str(work / "o.dot"),
        ],
    ]
    for argv in commands:
        assert run(argv) in (0, 2, 3), argv
    for manifest in sorted(work.glob("*.manifest.json")):
        assert run(["rerun", str(manifest)]) in (0, 2, 3), manifest
