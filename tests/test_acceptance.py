"""Acceptance suite: one test per pinned criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Criteria 2 and 3 are sample-level.  Across seeds of the simulation the only
CI decision that varies is the marginal test of R against the prediction,
whose two open routes almost cancel.  Both criteria therefore draw
``SAMPLE_N`` rows, the smallest n at which that test has power >= 0.99
rounded up, and first check that premise against the population table.
Criterion 2 compares each stated rate with an exact one-sided binomial test
over 200 seeds rather than a raw frequency over a handful.
"""

import hashlib
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CURATED_RULE_CASES,
    bird_like_standin,
    build_dag,
    class_pag,
    exactly_independent,
    independence_test_power,
    joint_distribution,
    mag_equivalence_class,
    population_r_yhat_table,
    random_binary_cpts,
    random_dag,
)
from pagaudit import cli
from pagaudit.citests import CiOracle, chi_square_test, fisher_z_test
from pagaudit.data import Column, Dataset, write_csv, schema_text
from pagaudit.fci import Diagnostics, FciConfig, apply_orientation_rules, fci_run
from pagaudit.graph import (
    EdgeClass,
    GraphKind,
    Mark,
    MixedGraph,
    classify_edge,
    d_separated,
    from_dot,
    from_json,
    to_dot,
    to_json,
)
from pagaudit.simgen import simulate, truth_dag
from pagaudit.stability import StabilityConfig, run_stability


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({desc}): {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _expected_pag() -> MixedGraph:
    g = MixedGraph(("H", "V", "R", "Yhat"), GraphKind.PAG)
    g.add_circle_edge("H", "V")
    g.add_edge("H", "R", Mark.CIRCLE, Mark.ARROW)
    g.add_edge("V", "Yhat", Mark.CIRCLE, Mark.ARROW)
    g.add_bidirected_edge("R", "Yhat")
    return g


def test_criterion_1_oracle_recovery(tmp_path):
    start = time.monotonic()
    out = tmp_path / "oracle.json"
    code = cli.main(
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
    elapsed = time.monotonic() - start
    got = from_json(out.read_text()) if code == 0 else None
    ok = (
        code == 0
        and got is not None
        and got.edge_mark_pairs() == _expected_pag().edge_mark_pairs()
        and elapsed < 1.0
    )
    _report(
        1,
        "oracle recovery of the target PAG",
        ok,
        f"exit={code}, exact_match={got is not None and got.edge_mark_pairs() == _expected_pag().edge_mark_pairs()}, "
        f"elapsed={elapsed:.2f}s (budget 1s)",
    )


# The smallest n at which R _||_ Yhat | {} has power >= 0.99 at alpha .05 is
# 19,752 rows (noncentrality 9.30e-4 per row); at n=5000 the power is 0.578.
SAMPLE_N = 20_000
ALPHA = 0.05


def _premise(num: int, r_yhat_counts: np.ndarray) -> str:
    """Assert the power premise behind ``SAMPLE_N``: the population table has
    power >= 0.99 there, and the R x Yhat counts the criterion drew fit it."""
    from scipy import stats

    table = population_r_yhat_table()
    power = independence_test_power(table, SAMPLE_N, ALPHA)
    assert power >= 0.99, (
        f"criterion {num} premise: power of R _||_ Yhat at n={SAMPLE_N} is {power:.3f} < 0.99"
    )
    fit = stats.chisquare(r_yhat_counts.ravel(), table.ravel() * r_yhat_counts.sum()).pvalue
    assert fit > 1e-3, (
        f"criterion {num} premise: simulated R x Yhat counts {r_yhat_counts.ravel().tolist()} "
        f"depart from the population table (goodness of fit p={fit:.2g}); "
        "the simulation no longer matches the structural equations n was derived from"
    )
    return f"n={SAMPLE_N}, power(R _||_ Yhat)={power:.3f}"


def _r_yhat_counts(d: Dataset) -> np.ndarray:
    cells = 2 * d.col("R").values + d.col("Yhat").values
    return np.bincount(cells, minlength=4).reshape(2, 2)


def test_criterion_2_sample_level_recovery():
    from scipy import stats

    start = time.monotonic()
    expected = _expected_pag()
    exact = r_conf = v_cause = 0
    counts = np.zeros((2, 2), dtype=np.int64)
    seeds = range(1, 201)
    for seed in seeds:
        d = simulate(SAMPLE_N, seed, include_c=False, mode="logistic")
        counts += _r_yhat_counts(d)
        res = fci_run(d, cfg=FciConfig(alpha=ALPHA, test="chi2"), target="Yhat")
        exact += res.graph.edge_mark_pairs() == expected.edge_mark_pairs()
        r_conf += classify_edge(res.graph, "R", "Yhat") is EdgeClass.CONFOUNDED_ONLY
        v_cause += classify_edge(res.graph, "V", "Yhat") in (
            EdgeClass.POSSIBLE_CAUSE,
            EdgeClass.DEFINITE_CAUSE,
        )
    premise = _premise(2, counts)
    elapsed = time.monotonic() - start
    trials = len(seeds)
    ok = elapsed < 60
    clauses = []
    # each clause fails when its count is significantly below the stated rate:
    # one-sided exact binomial test at level 0.01
    for name, count, rate in (
        ("exact", exact, 0.70),
        ("R confounded", r_conf, 0.95),
        ("V cause", v_cause, 0.95),
    ):
        p = stats.binomtest(count, trials, rate, alternative="less").pvalue
        ok &= p > 0.01
        clauses.append(f"{name} {count}/{trials} (rate {rate:.0%}, binomial p={p:.3g})")
    _report(
        2,
        f"sample-level recovery over {trials} seeds",
        ok,
        f"{premise}; " + ", ".join(clauses) + f", elapsed={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_stability_report():
    start = time.monotonic()
    d = simulate(SAMPLE_N, 1, include_c=False, mode="logistic")
    premise = _premise(3, _r_yhat_counts(d))
    rows = []
    ok = True
    for base_seed in (1, 2, 3):
        cfg = StabilityConfig(
            target="Yhat",
            replicates=50,
            base_seed=base_seed,
            fci=FciConfig(alpha=ALPHA, test="chi2"),
        )
        rep = run_stability(d, cfg)
        v = rep.features["V"].cause_frequency
        h = rep.features["H"].cause_frequency
        r_modal = rep.features["R"].modal_class
        rows.append(f"seed {base_seed}: V={v:.2f} H={h:.2f} R_modal={r_modal.value}")
        ok &= v >= 0.9 and h <= 0.2 and r_modal is EdgeClass.CONFOUNDED_ONLY
    elapsed = time.monotonic() - start
    ok &= elapsed < 120
    _report(
        3,
        "bootstrap stability thresholds over 3 base seeds",
        ok,
        f"{premise}; " + "; ".join(rows) + f"; elapsed={elapsed:.1f}s (budget 120s)",
    )


def test_criterion_4_dsep_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = violations = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        g = random_dag(rng, n, p_edge=float(rng.uniform(0.3, 0.8)))
        cpts = random_binary_cpts(g, rng)
        joint = joint_distribution(g, cpts)
        names = list(g.names)
        for xi, yi in itertools.combinations(range(n), 2):
            rest = [v for v in range(n) if v not in (xi, yi)]
            for k in range(len(rest) + 1):
                for zz in itertools.combinations(rest, k):
                    if d_separated(g, names[xi], names[yi], [names[v] for v in zz]):
                        checked += 1
                        if not exactly_independent(joint, n, xi, yi, zz, tol=1e-10):
                            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and checked > 0 and elapsed < 300
    _report(
        4,
        "d-separation implies exact conditional independence",
        ok,
        f"{checked} separated triples over 200 random DAGs, {violations} violations, "
        f"elapsed={elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_test_calibration():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    chi_rejects = 0
    for _ in range(1000):
        d = Dataset(
            [
                Column("x", "cat", rng.integers(0, 2, 1000), 2),
                Column("y", "cat", rng.integers(0, 2, 1000), 2),
            ]
        )
        chi_rejects += not chi_square_test(d, "x", "y", (), 0.05).independent
    chi_rate = chi_rejects / 1000
    fz_rejects = 0
    for _ in range(1000):
        d = Dataset(
            [
                Column("x", "cont", rng.normal(size=1000)),
                Column("y", "cont", rng.normal(size=1000)),
            ]
        )
        fz_rejects += not fisher_z_test(d, "x", "y", (), 0.05).independent
    fz_rate = fz_rejects / 1000
    elapsed = time.monotonic() - start
    ok = 0.032 <= chi_rate <= 0.068 and 0.032 <= fz_rate <= 0.068
    _report(
        5,
        "chi-square and fisher-z size calibration",
        ok,
        f"chi2 rate={chi_rate:.3f}, fisher-z rate={fz_rate:.3f} "
        f"(band [0.032, 0.068]), elapsed={elapsed:.1f}s",
    )


def test_criterion_6_rule_coverage():
    start = time.monotonic()
    fired: set[str] = set()
    mismatches = []
    for name, nodes, edges, observed, know_pairs, _expected in CURATED_RULE_CASES:
        dag = build_dag(nodes, edges)
        know = None
        if know_pairs:
            from pagaudit.graph import BackgroundKnowledge

            know = BackgroundKnowledge(non_ancestor_pairs=set(know_pairs))
        res = fci_run(
            CiOracle(dag, tuple(observed)), knowledge=know, cfg=FciConfig(test="oracle")
        )
        members = mag_equivalence_class(dag, observed, know_pairs)
        expected = class_pag(members)
        if res.graph.edge_mark_pairs() != expected.edge_mark_pairs():
            mismatches.append(name)
        fired |= set(res.diagnostics.rule_firings)
    # tail completion: the one rule with no oracle-reachable firing under the
    # fixed sweep order; exercised directly on its defining premise
    g = MixedGraph(("A", "B", "C"), GraphKind.PAG)
    g.add_directed_edge("A", "B")
    g.add_directed_edge("B", "C")
    g.add_edge("A", "C", Mark.CIRCLE, Mark.ARROW)
    diag = Diagnostics()
    closed = apply_orientation_rules(g, diagnostics=diag)
    r8_ok = closed.mark_at("A", "C") is Mark.TAIL and diag.rule_firings.get("R8") == 1
    fired |= set(diag.rule_firings)
    elapsed = time.monotonic() - start
    need = {"R0", "R1", "R2", "R3", "R4", "R8", "R9", "R10"}
    ok = not mismatches and need <= fired and r8_ok
    _report(
        6,
        "every orientation rule fires with enumerated expected outputs",
        ok,
        f"fired={sorted(fired & need)}, enumeration mismatches={mismatches or 'none'}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_7_determinism_and_serialization(tmp_path):
    start = time.monotonic()

    def digest(p):
        return hashlib.sha256(Path(p).read_bytes()).hexdigest()

    problems = []
    # simulate twice: identical CSV bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["simulate", "--n", "1500", "--seed", "9", "--out", str(a)])
    cli.main(["simulate", "--n", "1500", "--seed", "9", "--out", str(b)])
    if digest(a) != digest(b):
        problems.append("simulate CSV differs across runs")
    # discover twice in both formats: identical bytes
    for fmt in ("dot", "json"):
        g1, g2 = tmp_path / f"g1.{fmt}", tmp_path / f"g2.{fmt}"
        for out in (g1, g2):
            cli.main(
                [
                    "discover",
                    "--data",
                    str(a),
                    "--target",
                    "Yhat",
                    "--format",
                    fmt,
                    "--out",
                    str(out),
                ]
            )
        if digest(g1) != digest(g2):
            problems.append(f"discover {fmt} differs across runs")
    # stability run twice: identical bytes
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    base = [
        "stability",
        "--data",
        str(a),
        "--target",
        "Yhat",
        "--replicates",
        "8",
        "--base-seed",
        "2",
    ]
    cli.main(base + ["--out", str(s1)])
    cli.main(base + ["--out", str(s2)])
    for ext in (".json", ".csv"):
        if digest(str(s1) + ext) != digest(str(s2) + ext):
            problems.append(f"stability {ext} differs across runs")
    # graph serialization round-trips are lossless
    for g in (_expected_pag(), truth_dag(), truth_dag(outcome_name="Yhat")):
        if not from_dot(to_dot(g)).same_structure(g):
            problems.append("DOT round trip lossy")
        if not from_json(to_json(g)).same_structure(g):
            problems.append("JSON round trip lossy")
    elapsed = time.monotonic() - start
    _report(
        7,
        "byte-identical outputs and lossless round trips",
        not problems,
        (problems or ["all digests equal, round trips exact"])[0]
        + f"; elapsed={elapsed:.1f}s",
    )


def _xray_like_standin(n=239, seed=6):
    """Seven binary findings plus a binary prediction column."""
    rng = np.random.default_rng(seed)
    f = [rng.integers(0, 2, n) for _ in range(7)]
    f[3] = (f[0] | rng.integers(0, 2, n)) & 1
    p = 1 / (1 + np.exp(-(-1.0 + 2.0 * f[0] + 1.5 * f[1] + 1.0 * f[2])))
    label = (rng.random(n) < p).astype(int)
    names = [
        "cardiomegaly",
        "atelectasis",
        "effusion",
        "infiltration",
        "mass",
        "nodule",
        "pneumothorax",
    ]
    cols = [Column(nm, "cat", f[i], 2) for i, nm in enumerate(names)]
    cols.append(Column("label", "cat", label, 2))
    return Dataset(cols)


def test_criterion_8_protocol_scale(tmp_path):
    start = time.monotonic()
    problems = []
    # 27-column run: alpha .05, chi-square, max conditioning size 4, 50 replicates
    bird = bird_like_standin()
    bird_csv = tmp_path / "bird.csv"
    write_csv(bird, bird_csv)
    Path(str(bird_csv) + ".schema").write_text(schema_text(bird))
    out_b = tmp_path / "bird_rep"
    code = cli.main(
        [
            "stability",
            "--data",
            str(bird_csv),
            "--target",
            "label",
            "--alpha",
            "0.05",
            "--max-cond-size",
            "4",
            "--test",
            "chi2",
            "--replicates",
            "50",
            "--base-seed",
            "1",
            "--out",
            str(out_b),
        ]
    )
    if code != 0:
        problems.append(f"27-column run exited {code}")
    else:
        rep = json.loads(Path(str(out_b) + ".json").read_text())
        if rep["successes"] != 50 or len(rep["features"]) != 26:
            problems.append("27-column report incomplete")
        top = max(v["cause_frequency"] for v in rep["features"].values())
        if top <= 0.5:
            problems.append(f"no stable cause found in 27-column stand-in (max {top})")
    # 8-column run: alpha .05, chi-square, unlimited conditioning, 100 replicates
    xray = _xray_like_standin()
    xray_csv = tmp_path / "xray.csv"
    write_csv(xray, xray_csv)
    Path(str(xray_csv) + ".schema").write_text(schema_text(xray))
    out_x = tmp_path / "xray_rep"
    code = cli.main(
        [
            "stability",
            "--data",
            str(xray_csv),
            "--target",
            "label",
            "--alpha",
            "0.05",
            "--test",
            "chi2",
            "--replicates",
            "100",
            "--base-seed",
            "1",
            "--out",
            str(out_x),
        ]
    )
    if code != 0:
        problems.append(f"8-column run exited {code}")
    else:
        rep = json.loads(Path(str(out_x) + ".json").read_text())
        if rep["successes"] != 100 or len(rep["features"]) != 7:
            problems.append("8-column report incomplete")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 600
    _report(
        8,
        "protocol parameters on 27- and 8-column data",
        ok,
        (problems or ["both stand-ins completed"])[0] + f"; elapsed={elapsed:.1f}s (budget 600s)",
    )
