"""Correctness checks computed apart from pagaudit.

Each check takes plain data (numpy code arrays, PAGs as mark dictionaries
parsed from the JSON the CLI writes, DAG edge lists) and returns a list of
problems; an empty list means the output passed.  The references are scipy's
``chi2_contingency`` and ``chi2`` distribution, a d-separation routine
written here, and the simulation's known Bayes classifier.  None of them
calls into pagaudit, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np
from scipy.stats import chi2, chi2_contingency

TAIL, ARROW, CIRCLE = "tail", "arrow", "circle"

# the program's tail probabilities are accurate to about 1e-10 relative error
STAT_RTOL = 1e-9
P_RTOL = 1e-7
P_ATOL = 1e-12


# -- data ---------------------------------------------------------------------------


def read_csv_codes(path, schema: dict[str, int]) -> dict[str, np.ndarray]:
    """Integer columns of a header-first CSV of categorical codes."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    if list(schema) != header:
        raise ValueError(f"{path}: header {header} does not match schema {list(schema)}")
    return {name: body[:, i] for i, name in enumerate(header)}


# -- chi-square reference ------------------------------------------------------------


def reference_chi2(codes, arity, x, y, s=()):
    """Stratified Pearson chi-square of x against y given s, by scipy.

    Each stratum of s drops its empty rows and columns; a stratum left with
    at least two of each contributes ``chi2_contingency(correction=False)``
    and its (r'-1)(c'-1) degrees of freedom.  Returns (statistic, dof, p);
    zero total dof gives (0, 0, 1).
    """
    stratum = np.zeros(len(codes[x]), dtype=np.int64)
    n_strata = 1
    for v in s:
        stratum = stratum * arity[v] + codes[v]
        n_strata *= arity[v]
    rx, ry = arity[x], arity[y]
    flat = (stratum * rx + codes[x]) * ry + codes[y]
    tables = np.bincount(flat, minlength=n_strata * rx * ry).reshape(n_strata, rx, ry)
    rows_used = (tables.sum(axis=2) > 0).sum(axis=1)
    cols_used = (tables.sum(axis=1) > 0).sum(axis=1)
    statistic, dof = 0.0, 0
    for k in np.flatnonzero((rows_used >= 2) & (cols_used >= 2)):
        t = tables[k]
        t = t[t.sum(axis=1) > 0][:, t.sum(axis=0) > 0]
        res = chi2_contingency(t, correction=False)
        statistic += float(res.statistic)
        dof += int(res.dof)
    if dof == 0:
        return 0.0, 0, 1.0
    return statistic, dof, float(chi2.sf(statistic, dof))


def check_chi2_query(codes, arity, x, y, s, alpha, statistic, dof, p_value, independent):
    """The program's answer to one query against the scipy recomputation."""
    ref_stat, ref_dof, ref_p = reference_chi2(codes, arity, x, y, s)
    query = f"{x} _||_ {y} | {sorted(s)}"
    problems = []
    if dof != ref_dof:
        problems.append(f"{query}: dof {dof}, scipy {ref_dof}")
    if not math.isclose(statistic, ref_stat, rel_tol=STAT_RTOL, abs_tol=1e-9):
        problems.append(f"{query}: statistic {statistic!r}, scipy {ref_stat!r}")
    if not math.isclose(p_value, ref_p, rel_tol=P_RTOL, abs_tol=P_ATOL):
        problems.append(f"{query}: p {p_value!r}, scipy {ref_p!r}")
    if independent != (ref_p > alpha):
        problems.append(f"{query}: decided independent={independent}, scipy p={ref_p!r}")
    return problems


# -- PAGs -------------------------------------------------------------------------------


class Pag:
    """Nodes plus ``mark[(a, b)]``, the mark at ``a`` on the edge a--b."""

    def __init__(self, nodes, mark):
        self.nodes = list(nodes)
        self.mark = dict(mark)

    @classmethod
    def from_json_text(cls, text: str) -> "Pag":
        obj = json.loads(text)
        mark = {}
        for e in obj["edges"]:
            mark[(e["a"], e["b"])] = e["mark_a"]
            mark[(e["b"], e["a"])] = e["mark_b"]
        return cls(obj["nodes"], mark)

    def adjacent(self, a, b) -> bool:
        return (a, b) in self.mark

    def adj(self, a) -> list[str]:
        return [b for b in self.nodes if (a, b) in self.mark]

    def edges(self):
        return sorted((a, b) for (a, b) in self.mark if a < b)

    def __eq__(self, other) -> bool:
        return self.nodes == other.nodes and self.mark == other.mark


def classify(pag: Pag, feature: str, target: str) -> str:
    """Relation of a feature to the target read off the PAG's marks."""
    if not pag.adjacent(feature, target) or pag.mark[(target, feature)] == TAIL:
        return "no_relation"
    return {TAIL: "definite_cause", CIRCLE: "possible_cause", ARROW: "confounded_only"}[
        pag.mark[(feature, target)]
    ]


def check_target_arrowheads(pag: Pag, target: str) -> list[str]:
    """The prediction is a non-ancestor of every feature, so every edge at it
    carries an arrowhead there."""
    return [
        f"edge {v}--{target} has mark {pag.mark[(target, v)]!r} at the target"
        for v in pag.adj(target)
        if pag.mark[(target, v)] != ARROW
    ]


def check_sample_pag(pag: Pag, sepsets, codes, arity, alpha, max_cond, target):
    """A sample PAG against the scipy test on the data it was learned from.

    - every edge at the target has an arrowhead at the target;
    - every non-adjacent pair has a recorded separating set, and the pair is
      independent given it;
    - every edge x--y is dependent given every subset of adj(x)\\{y} and of
      adj(y)\\{x} of size at most ``max_cond`` (None: unlimited).
    ``sepsets`` maps unordered name pairs (as frozensets) to name sets.
    """
    problems = check_target_arrowheads(pag, target)
    memo: dict = {}

    def independent(x, y, s):
        key = (frozenset((x, y)), frozenset(s))
        if key not in memo:
            memo[key] = reference_chi2(codes, arity, x, y, tuple(sorted(s)))[2] > alpha
        return memo[key]

    for x, y in combinations(pag.nodes, 2):
        if pag.adjacent(x, y):
            continue
        sep = sepsets.get(frozenset((x, y)))
        if sep is None:
            problems.append(f"{x}, {y} not adjacent but no separating set recorded")
        elif not independent(x, y, sep):
            problems.append(f"{x}, {y} dependent given recorded set {sorted(sep)}")
    for x, y in pag.edges():
        for a, b in ((x, y), (y, x)):
            others = [v for v in pag.adj(a) if v != b]
            top = len(others) if max_cond is None else min(max_cond, len(others))
            for k in range(top + 1):
                for s in combinations(others, k):
                    if independent(x, y, s):
                        problems.append(f"edge {x}--{y} kept but independent given {list(s)}")
    return problems


# -- oracle PAGs -------------------------------------------------------------------------


class Dag:
    """A DAG as parent lists, with ancestor sets (each node included)."""

    def __init__(self, nodes, edges):
        self.nodes = list(nodes)
        self.parents = {v: [] for v in self.nodes}
        for a, b in edges:
            self.parents[b].append(a)
        self.anc = {v: self._ancestors(v) for v in self.nodes}

    def _ancestors(self, v) -> frozenset:
        seen, todo = {v}, [v]
        while todo:
            for p in self.parents[todo.pop()]:
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        return frozenset(seen)

    def d_separated(self, x, y, z) -> bool:
        """Lauritzen's criterion: x and y are disconnected in the moral graph of
        the ancestral set of {x, y} and z once z is removed."""
        keep = set(self.anc[x]) | self.anc[y]
        for v in z:
            keep |= self.anc[v]
        nbrs = {v: set() for v in keep}
        for v in keep:
            ps = self.parents[v]
            for p in ps:
                nbrs[v].add(p)
                nbrs[p].add(v)
            for p, q in combinations(ps, 2):
                nbrs[p].add(q)
                nbrs[q].add(p)
        blocked = set(z)
        seen, todo = {x}, [x]
        while todo:
            for w in nbrs[todo.pop()]:
                if w == y:
                    return False
                if w not in seen and w not in blocked:
                    seen.add(w)
                    todo.append(w)
        return True


def check_oracle_marks(pag: Pag, dag: Dag) -> list[str]:
    """Every arrowhead sits at a non-ancestor of the other end, every tail at
    an ancestor of it."""
    problems = []
    for (a, b), m in sorted(pag.mark.items()):
        ancestor = a in dag.anc[b]
        if m == ARROW and ancestor:
            problems.append(f"arrowhead at {a} on {a}--{b}, but {a} is an ancestor of {b}")
        if m == TAIL and not ancestor:
            problems.append(f"tail at {a} on {a}--{b}, but {a} is not an ancestor of {b}")
    return problems


def check_oracle_adjacencies(pag: Pag, dag: Dag, observed) -> list[str]:
    """Two observed nodes are adjacent exactly when no subset of the other
    observed nodes d-separates them in the truth DAG."""
    problems = []
    for x, y in combinations(observed, 2):
        rest = [v for v in observed if v not in (x, y)]
        separable = any(
            dag.d_separated(x, y, s)
            for k in range(len(rest) + 1)
            for s in combinations(rest, k)
        )
        if separable == pag.adjacent(x, y):
            problems.append(
                f"{x}, {y}: {'adjacent' if pag.adjacent(x, y) else 'not adjacent'} "
                f"but {'separable' if separable else 'inseparable'} in the truth"
            )
    return problems


# -- simulation and reports --------------------------------------------------------------


def check_simulation(csv_codes, library_codes, with_c) -> list[str]:
    """The CSV reads back equal to the library draw, and on the same draw with
    C exported the prediction is the Bayes classifier V or C, row by row."""
    problems = []
    if list(csv_codes) != list(library_codes):
        problems.append(f"CSV columns {list(csv_codes)} != simulate() {list(library_codes)}")
    else:
        for name, values in csv_codes.items():
            bad = int(np.count_nonzero(values != library_codes[name]))
            if bad:
                problems.append(f"column {name}: {bad} rows differ from simulate()")
    mismatch = int(np.count_nonzero(with_c["Yhat"] != (with_c["V"] | with_c["C"])))
    if mismatch:
        problems.append(f"Yhat != V | C on {mismatch} rows")
    return problems


def check_report(report: dict, expected_counts: dict | None = None) -> list[str]:
    """A stability report's counts are complete and consistent; when
    ``expected_counts`` (feature -> class -> count) is given, they match it."""
    problems = []
    if report["successes"] != report["replicates"]:
        problems.append(f"successes {report['successes']} != replicates {report['replicates']}")
    for name, feat in sorted(report["features"].items()):
        total = sum(feat["counts"].values())
        if total != report["successes"]:
            problems.append(f"{name}: counts sum to {total}, successes {report['successes']}")
    if expected_counts is not None:
        got = {name: feat["counts"] for name, feat in report["features"].items()}
        for name in sorted(expected_counts):
            want = {c: n for c, n in expected_counts[name].items() if n}
            have = {c: n for c, n in got.get(name, {}).items() if n}
            if want != have:
                problems.append(f"{name}: report counts {have}, re-learned replicates {want}")
    return problems
