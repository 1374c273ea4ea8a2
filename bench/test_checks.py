"""Each checker in checks.py passes a correct output and rejects a broken one.

    python3 -m pytest -q bench/test_checks.py

The correct outputs come from pagaudit on small benchmark inputs; each broken
one differs by a single fault: a flipped mark, a dropped edge, a statistic off
by 1%, one changed prediction row, or one miscounted report entry.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from pagaudit import (  # noqa: E402
    CiOracle,
    Column,
    Dataset,
    FciConfig,
    GraphKind,
    MixedGraph,
    chi_square_test,
    fci_run,
    simulate,
)
from pagaudit.graph import to_json  # noqa: E402


def as_pag(result) -> checks.Pag:
    return checks.Pag.from_json_text(to_json(result.graph))


def dataset(columns) -> Dataset:
    return Dataset([Column(name, "cat", values, arity) for name, values, arity in columns])


@pytest.fixture(scope="module")
def xray():
    d = dataset(inputs.xray8_columns(seed=3, index=0))
    codes = {c.name: c.values for c in d.columns}
    arity = {c.name: c.arity for c in d.columns}
    result = fci_run(d, cfg=FciConfig(alpha=0.05, test="chi2"), target="label")
    sepsets = {frozenset(p): s for p, s in result.sepsets.as_names(d.names).items()}
    return d, codes, arity, as_pag(result), sepsets


def test_chi2_query_matches_and_rejects_statistic_off_by_one_percent(xray):
    d, codes, arity, _, _ = xray
    for x, y, s in (("cardiomegaly", "label", ()), ("infiltration", "cardiomegaly", ("label",)),
                    ("mass", "label", ("effusion", "atelectasis", "nodule"))):
        res = chi_square_test(d, x, y, s, 0.05)
        args = (codes, arity, x, y, s, 0.05)
        assert checks.check_chi2_query(*args, res.statistic, res.dof, res.p_value,
                                       res.independent) == []
        assert checks.check_chi2_query(*args, res.statistic * 1.01, res.dof, res.p_value,
                                       res.independent)
        assert checks.check_chi2_query(*args, res.statistic, res.dof, res.p_value,
                                       not res.independent)


def test_chi2_reference_handles_degenerate_strata():
    codes = {"a": np.array([0, 0, 1, 1]), "b": np.array([0, 0, 0, 0]), "c": np.array([0, 1, 0, 1])}
    arity = {"a": 2, "b": 2, "c": 2}
    assert checks.reference_chi2(codes, arity, "a", "b", ("c",)) == (0.0, 0, 1.0)


def test_sample_pag_passes(xray):
    _, codes, arity, pag, sepsets = xray
    assert pag.edges(), "the stand-in should keep some edges"
    assert checks.check_sample_pag(pag, sepsets, codes, arity, 0.05, None, "label") == []


def test_sample_pag_rejects_flipped_mark_at_target(xray):
    _, codes, arity, pag, sepsets = xray
    v = pag.adj("label")[0]
    broken = copy.deepcopy(pag)
    broken.mark[("label", v)] = checks.CIRCLE
    assert checks.check_sample_pag(broken, sepsets, codes, arity, 0.05, None, "label")


def test_sample_pag_rejects_dropped_edge(xray):
    _, codes, arity, pag, sepsets = xray
    for a, b in pag.edges():
        broken = copy.deepcopy(pag)
        del broken.mark[(a, b)], broken.mark[(b, a)]
        assert checks.check_sample_pag(broken, sepsets, codes, arity, 0.05, None, "label")


def test_sample_pag_rejects_edge_that_a_subset_separates(xray):
    _, codes, arity, pag, sepsets = xray
    (a, b), sep = next((tuple(sorted(p)), s) for p, s in sepsets.items() if not s)
    broken = copy.deepcopy(pag)
    broken.mark[(a, b)] = broken.mark[(b, a)] = checks.CIRCLE
    rest = {p: s for p, s in sepsets.items() if p != frozenset((a, b))}
    assert checks.check_sample_pag(broken, rest, codes, arity, 0.05, None, "label")


def test_sample_pag_rejects_wrong_separating_set(xray):
    _, codes, arity, pag, sepsets = xray
    x, y = pag.edges()[0]
    wrong = dict(sepsets)
    # a dependent pair claimed separated: drop the edge and record the empty set
    broken = copy.deepcopy(pag)
    del broken.mark[(x, y)], broken.mark[(y, x)]
    wrong[frozenset((x, y))] = set()
    assert checks.check_sample_pag(broken, wrong, codes, arity, 0.05, None, "label")


@pytest.fixture(scope="module")
def oracle_case():
    nodes, edges, observed = inputs.random_dag(seed=1, index=2)
    g = MixedGraph(nodes, GraphKind.DAG)
    for a, b in edges:
        g.add_directed_edge(a, b)
    pag = as_pag(fci_run(CiOracle(g, tuple(observed)), cfg=FciConfig(test="oracle")))
    return pag, checks.Dag(nodes, edges), observed


def test_own_d_separation_on_small_dags():
    dag = checks.Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert not dag.d_separated("a", "c", ())
    assert dag.d_separated("a", "c", ("b",))
    collider = checks.Dag(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("b", "d")])
    assert collider.d_separated("a", "c", ())
    assert not collider.d_separated("a", "c", ("b",))
    assert not collider.d_separated("a", "c", ("d",))


def test_oracle_pag_passes(oracle_case):
    pag, dag, observed = oracle_case
    assert pag.edges()
    assert checks.check_oracle_marks(pag, dag) == []
    assert checks.check_oracle_adjacencies(pag, dag, observed) == []


def test_oracle_pag_rejects_flipped_mark(oracle_case):
    pag, dag, _ = oracle_case
    fixed = [(ab, m) for ab, m in sorted(pag.mark.items()) if m != checks.CIRCLE]
    assert fixed, "the PAG should orient some marks"
    for ab, m in fixed:
        broken = copy.deepcopy(pag)
        broken.mark[ab] = checks.TAIL if m == checks.ARROW else checks.ARROW
        assert checks.check_oracle_marks(broken, dag)


def test_oracle_pag_rejects_dropped_edge(oracle_case):
    pag, dag, observed = oracle_case
    a, b = pag.edges()[0]
    broken = copy.deepcopy(pag)
    del broken.mark[(a, b)], broken.mark[(b, a)]
    assert checks.check_oracle_adjacencies(broken, dag, observed)


def test_simulation_passes_and_rejects_one_changed_prediction_row(tmp_path):
    from pagaudit import cli

    path = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--n", "20000", "--seed", "2", "--out", str(path)]) == 0
    codes = checks.read_csv_codes(path, {"H": 2, "V": 2, "R": 2, "Yhat": 2})
    lib = {c.name: c.values for c in simulate(20000, 2).columns}
    with_c = {c.name: c.values for c in simulate(20000, 2, include_c=True).columns}
    assert checks.check_simulation(codes, lib, with_c) == []

    changed = dict(codes, Yhat=codes["Yhat"].copy())
    changed["Yhat"][123] ^= 1
    assert checks.check_simulation(changed, lib, with_c)
    changed_c = dict(with_c, Yhat=with_c["Yhat"].copy())
    changed_c["Yhat"][7] ^= 1
    assert checks.check_simulation(codes, lib, changed_c)


def test_report_checks():
    report = {
        "replicates": 3,
        "successes": 3,
        "features": {
            "a": {"counts": {"definite_cause": 0, "possible_cause": 2, "confounded_only": 0,
                             "no_relation": 1}},
        },
    }
    expected = {"a": {"possible_cause": 2, "no_relation": 1}}
    assert checks.check_report(report, expected) == []
    short = copy.deepcopy(report)
    short["features"]["a"]["counts"]["no_relation"] = 0
    assert checks.check_report(short)
    failed = dict(report, successes=2)
    assert checks.check_report(failed)
    assert checks.check_report(report, {"a": {"possible_cause": 3}})
