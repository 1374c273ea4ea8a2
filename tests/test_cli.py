import csv
import hashlib
import json
from pathlib import Path

import pytest

from pagaudit import cli
from pagaudit.errors import KnowledgeInconsistencyError
from pagaudit.graph import Mark, from_dot, from_json


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
    import numpy as np

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
