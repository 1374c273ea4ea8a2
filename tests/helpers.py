"""Independent brute-force oracles the tests check the implementation against.

Everything here proceeds by exhaustive enumeration (simple paths, joint
distributions, graph orientations) and deliberately avoids the reachability
and rule machinery in the package.  It also holds a reader for the one
output no command reads back: DOT graphs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np

from pagaudit.data import CATEGORICAL, Column, Dataset
from pagaudit.errors import InputError, SchemaError
from pagaudit.graph import GraphKind, Mark, MixedGraph

ARROW, TAIL, CIRCLE = Mark.ARROW, Mark.TAIL, Mark.CIRCLE


# -- path-enumeration separation ------------------------------------------------


def all_simple_paths(g: MixedGraph, x: int, y: int):
    """Every simple path between x and y as a node-index list."""
    paths = []

    def extend(path):
        cur = path[-1]
        if cur == y:
            paths.append(list(path))
            return
        for nxt in g.neighbors(cur):
            if nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    extend([x])
    return paths


def _descendants_brute(g: MixedGraph, v: int) -> set[int]:
    out = {v}
    changed = True
    while changed:
        changed = False
        for (i, j), (mi, mj) in g.edge_mark_pairs().items():
            if mi is TAIL and mj is ARROW and i in out and j not in out:
                out.add(j)
                changed = True
            if mj is TAIL and mi is ARROW and j in out and i not in out:
                out.add(i)
                changed = True
    return out


def path_open(g: MixedGraph, path: list[int], z: set[int]) -> bool:
    """Blocking check straight from the definition, one inner node at a time."""
    for k in range(1, len(path) - 1):
        prev, v, nxt = path[k - 1], path[k], path[k + 1]
        collider = g.mark_at(v, prev) is ARROW and g.mark_at(v, nxt) is ARROW
        if collider:
            if not (_descendants_brute(g, v) & z):
                return False
        else:
            if v in z:
                return False
    return True


def separated_by_paths(g: MixedGraph, x, y, z=()) -> bool:
    xi, yi = g.index(x), g.index(y)
    zi = {g.index(v) for v in z}
    return not any(path_open(g, p, zi) for p in all_simple_paths(g, xi, yi))


# -- exact discrete joints ---------------------------------------------------------


def random_binary_cpts(dag: MixedGraph, rng: np.random.Generator) -> dict:
    """P(node=1 | parent assignment) tables, kept away from 0/1."""
    cpts = {}
    for i in range(dag.n_nodes):
        parents = tuple(
            j
            for j in dag.neighbors(i)
            if dag.mark_at(j, i) is TAIL and dag.mark_at(i, j) is ARROW
        )
        table = {
            assign: rng.uniform(0.1, 0.9)
            for assign in itertools.product((0, 1), repeat=len(parents))
        }
        cpts[i] = (parents, table)
    return cpts


def joint_distribution(dag: MixedGraph, cpts: dict) -> dict[tuple[int, ...], float]:
    n = dag.n_nodes
    joint = {}
    for assign in itertools.product((0, 1), repeat=n):
        p = 1.0
        for i in range(n):
            parents, table = cpts[i]
            p1 = table[tuple(assign[j] for j in parents)]
            p *= p1 if assign[i] == 1 else 1.0 - p1
        joint[assign] = p
    return joint


def exactly_independent(
    joint: dict, n: int, x: int, y: int, z: tuple[int, ...], tol: float = 1e-10
) -> bool:
    """P(x, y | z) factorizes for every conditioning cell with positive mass."""
    for z_assign in itertools.product((0, 1), repeat=len(z)):
        pz = sum(p for a, p in joint.items() if all(a[v] == w for v, w in zip(z, z_assign)))
        if pz <= 0:
            continue
        for xv, yv in itertools.product((0, 1), repeat=2):
            pxyz = sum(
                p
                for a, p in joint.items()
                if a[x] == xv and a[y] == yv and all(a[v] == w for v, w in zip(z, z_assign))
            )
            pxz = sum(
                p
                for a, p in joint.items()
                if a[x] == xv and all(a[v] == w for v, w in zip(z, z_assign))
            )
            pyz = sum(
                p
                for a, p in joint.items()
                if a[y] == yv and all(a[v] == w for v, w in zip(z, z_assign))
            )
            if abs(pxyz / pz - (pxz / pz) * (pyz / pz)) >= tol:
                return False
    return True


def random_dag(rng: np.random.Generator, n: int, p_edge: float = 0.5) -> MixedGraph:
    names = [f"X{i}" for i in range(n)]
    g = MixedGraph(names, GraphKind.DAG)
    order = rng.permutation(n)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p_edge:
                g.add_directed_edge(int(order[a]), int(order[b]))
    return g


def random_latent_dag(seed: int, n: int = 12, n_edges: int = 20, n_latent: int = 3):
    """A DAG over X0..X{n-1} with exactly ``n_edges`` edges and ``n_latent``
    hidden nodes; returns it with the observed names in node order.

    The edges are a uniform draw of node pairs, each directed along one
    random topological order.
    """
    rng = np.random.default_rng([7, seed])
    names = [f"X{i}" for i in range(n)]
    order = [int(v) for v in rng.permutation(n)]
    pairs = list(itertools.combinations(range(n), 2))
    g = MixedGraph(names, GraphKind.DAG)
    for k in sorted(rng.choice(len(pairs), n_edges, replace=False).tolist()):
        a, b = pairs[k]
        g.add_directed_edge(order[a], order[b])
    latent = set(rng.choice(n, n_latent, replace=False).tolist())
    return g, tuple(name for i, name in enumerate(names) if i not in latent)


# -- population premise of the simulation -----------------------------------------


def population_r_yhat_table() -> np.ndarray:
    """P(R = r, Yhat = y) under the structural equations in ``pagaudit.simgen``.

    H and V share U1 ~ Uniform(0, 1), so P(H = h, V = v) is E[U1 (1 - U1)] = 1/6
    when h = v and E[U1^2] = 1/3 otherwise; C ~ Bernoulli(1/2) independently.
    The logistic surrogate is well specified, so it converges to the Bayes
    classifier of Y, which is ``V or C`` (expit(-0.5) < 1/2 < expit(1.25)).
    """
    table = np.zeros((2, 2))
    for h, v, c in itertools.product((0, 1), repeat=3):
        p_hvc = (1 / 6 if h == v else 1 / 3) / 2
        p_r = 1 / (1 + math.exp(-(0.75 * h + 0.5 * c)))
        table[1, v | c] += p_hvc * p_r
        table[0, v | c] += p_hvc * (1 - p_r)
    return table


def independence_test_power(table: np.ndarray, n: int, alpha: float) -> float:
    """Power of the Pearson chi-square test of independence on n rows drawn
    from a two-way population table (noncentral chi-square approximation)."""
    from scipy import stats  # test-only dependency; only the sample-level criteria need it

    outer = np.outer(table.sum(axis=1), table.sum(axis=0))
    noncentrality = n * ((table - outer) ** 2 / outer).sum()
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return float(stats.ncx2.sf(stats.chi2.isf(alpha, dof), dof, noncentrality))


# -- MAG equivalence classes ---------------------------------------------------------


def _mag_msep_by_paths(mag: MixedGraph, x: int, y: int, z: set[int]) -> bool:
    return not any(path_open(mag, p, z) for p in all_simple_paths(mag, x, y))


def _is_valid_mag(mag: MixedGraph) -> bool:
    # ancestral: no directed cycle, no bidirected edge between a node and its
    # ancestor (checked by brute-force descendant sets)
    for (i, j), (mi, mj) in mag.edge_mark_pairs().items():
        if mi is ARROW and mj is ARROW:
            if j in _descendants_brute(mag, i) - {i} or i in _descendants_brute(mag, j) - {j}:
                return False
    for v in range(mag.n_nodes):
        if any(
            v in _descendants_brute(mag, w) - {w}
            for w in _descendants_brute(mag, v) - {v}
        ):
            return False
    return True


def observed_independence_facts(truth: MixedGraph, observed: list[str]):
    """(x, y, S) -> separated, by brute-force paths in the latent-variable DAG."""
    facts = {}
    for xn, yn in itertools.combinations(observed, 2):
        rest = [v for v in observed if v not in (xn, yn)]
        for k in range(len(rest) + 1):
            for s in itertools.combinations(rest, k):
                facts[(xn, yn, frozenset(s))] = separated_by_paths(truth, xn, yn, s)
    return facts


def mag_equivalence_class(
    truth: MixedGraph,
    observed: list[str],
    knowledge_non_ancestors: set[tuple[str, str]] = frozenset(),
) -> list[MixedGraph]:
    """All MAGs over the observed nodes with exactly the truth's independence
    facts, optionally filtered by non-ancestor constraints."""
    facts = observed_independence_facts(truth, observed)
    skeleton = [
        (x, y)
        for x, y in itertools.combinations(observed, 2)
        if not any(sep for (a, b, _), sep in facts.items() if {a, b} == {x, y})
    ]
    members = []
    for marks in itertools.product(
        ((TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW)), repeat=len(skeleton)
    ):
        cand = MixedGraph(observed, GraphKind.MAG)
        for (a, b), (ma, mb) in zip(skeleton, marks):
            cand.add_edge(a, b, ma, mb)
        if not _is_valid_mag(cand):
            continue
        ok = True
        for (a, b, s), sep in facts.items():
            got = _mag_msep_by_paths(cand, cand.index(a), cand.index(b), {cand.index(v) for v in s})
            if got != sep:
                ok = False
                break
        if not ok:
            continue
        violates = False
        for na, nb in knowledge_non_ancestors:
            if na in observed and nb in observed:
                if cand.index(nb) in _descendants_brute(cand, cand.index(na)) - {cand.index(na)}:
                    violates = True
                    break
        if violates:
            continue
        members.append(cand)
    return members


def class_pag(members: list[MixedGraph]) -> MixedGraph:
    """Endpoint-wise commonalities of an equivalence class."""
    if not members:
        raise ValueError("empty equivalence class")
    names = members[0].names
    pag = MixedGraph(names, GraphKind.PAG)
    first = members[0]
    for (i, j), _ in sorted(first.edge_mark_pairs().items()):
        marks = []
        for end in (i, j):
            other = j if end == i else i
            vals = {m.mark_at(end, other) for m in members}
            marks.append(vals.pop() if len(vals) == 1 else CIRCLE)
        pag.add_edge(i, j, marks[0], marks[1])
    return pag


# -- curated oracle cases for orientation-rule coverage ---------------------------
#
# Each case: (name, nodes, directed edges, observed, non-ancestor knowledge,
# rules expected to fire).  Expected output PAGs come from the equivalence-class
# enumeration above.  The tail-completion rule R8 has no known oracle-reachable
# firing under the fixed sweep order (the discriminating-path rule always
# resolves those states first); it is exercised by a direct orientation-stage
# test instead.

CURATED_RULE_CASES = [
    (
        "collider-chain",
        ("X", "Y", "Z", "W"),
        [("X", "Z"), ("Y", "Z"), ("Z", "W")],
        ["X", "Y", "Z", "W"],
        frozenset(),
        {"R0", "R1"},
    ),
    (
        "collider-chain-shield",
        ("X", "Y", "Z", "W"),
        [("X", "Z"), ("Y", "Z"), ("Z", "W"), ("X", "W")],
        ["X", "Y", "Z", "W"],
        frozenset(),
        {"R0", "R1", "R2"},
    ),
    (
        "double-cover",
        ("A", "B", "C", "D"),
        [("D", "A"), ("D", "C"), ("A", "B"), ("C", "B"), ("D", "B")],
        ["A", "B", "C", "D"],
        frozenset(),
        {"R0", "R3"},
    ),
    (
        "confounded-parents",
        ("T", "A", "B", "G", "L"),
        [("T", "A"), ("L", "A"), ("L", "B"), ("A", "G"), ("B", "G")],
        ["T", "A", "B", "G"],
        frozenset(),
        {"R0", "R1", "R4"},
    ),
    (
        "prediction-chain",
        ("V", "A", "B", "Y"),
        [("V", "A"), ("A", "B"), ("B", "Y"), ("V", "Y")],
        ["V", "A", "B", "Y"],
        frozenset({("Y", "V"), ("Y", "A"), ("Y", "B")}),
        {"R9"},
    ),
    (
        "layered-diamond",
        ("X0", "X1", "X2", "X3", "X4"),
        [
            ("X0", "X1"),
            ("X0", "X2"),
            ("X0", "X3"),
            ("X0", "X4"),
            ("X1", "X2"),
            ("X1", "X3"),
            ("X2", "X4"),
            ("X3", "X4"),
        ],
        ["X0", "X1", "X2", "X3", "X4"],
        frozenset(),
        {"R0", "R3", "R9", "R10"},
    ),
]

# Five observed nodes, two latent confounders: the X-Y edge survives the
# adjacency-based skeleton stage and is removable only against the
# Possible-D-SEP set, with separating set {A, B, Z}.
PDS_REQUIRED_CASE = {
    "nodes": ("X", "Y", "A", "B", "Z", "La", "Lb"),
    "edges": [
        ("La", "X"),
        ("La", "A"),
        ("Lb", "Y"),
        ("Lb", "B"),
        ("Z", "A"),
        ("Z", "B"),
        ("A", "Y"),
        ("B", "X"),
    ],
    "observed": ["X", "Y", "A", "B", "Z"],
    "pair": ("X", "Y"),
    "separator": {"A", "B", "Z"},
}


def build_dag(nodes, edges):
    g = MixedGraph(nodes, GraphKind.DAG)
    for a, b in edges:
        g.add_directed_edge(a, b)
    return g



# -- chi-square reference --------------------------------------------------------


def scipy_stratified_chi2(columns, arities, x, y, s, variant="pearson"):
    """Stratified chi-square of x against y given s, by scipy, one stratum at a time.

    Each stratum drops its empty rows and columns; one left with at least two
    of each adds ``chi2_contingency(correction=False)`` and its dof.  Returns
    (statistic, dof).
    """
    from scipy.stats import chi2_contingency

    lam = None if variant == "pearson" else "log-likelihood"
    levels = [range(arities[v]) for v in s]
    statistic, dof = 0.0, 0
    for stratum in itertools.product(*levels):
        rows = np.ones(len(columns[x]), dtype=bool)
        for v, level in zip(s, stratum):
            rows &= columns[v] == level
        table = np.zeros((arities[x], arities[y]))
        np.add.at(table, (columns[x][rows], columns[y][rows]), 1)
        table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        if min(table.shape) >= 2:
            res = chi2_contingency(table, correction=False, lambda_=lam)
            statistic += float(res.statistic)
            dof += int(res.dof)
    return statistic, dof


def reference_chi_square_batch(x, rx, y, ry, members, arities, variant="pearson", weights=None):
    """``chi_square_batch`` one set at a time, with the kernel's arithmetic.

    Each set's (stratum, x, y) table is filled by ``np.add.at``.  In each
    stratum with two nonzero rows and columns, expected counts are
    (row * col) / tot and the terms (n - e)**2 / e or log(n / e) * 2n, zero
    where e or (for G-squared) n is zero.  The set's terms are summed in the
    table's order by ``np.add.reduceat``, as the kernel sums each set's
    segment: its sum is not sequential, and ``np.add.reduce`` may differ in
    the last bits.  ``members[j]`` has shape (B, n).  Returns the statistics
    and dofs as lists.
    """
    stats, dofs = [], []
    for b, set_arity in enumerate(np.asarray(arities).tolist()):
        xb, yb = (np.asarray(v) if np.ndim(v) == 1 else np.asarray(v)[b] for v in (x, y))
        n = len(xb)
        w = np.ones(n) if weights is None else np.asarray(weights)[b * n:(b + 1) * n]
        stratum = np.ravel_multi_index([m[b] for m in members], set_arity) if set_arity else 0
        table = np.zeros((math.prod(set_arity), rx, ry))
        np.add.at(table, (stratum, xb, yb), w)
        terms, dof = np.zeros(table.shape), 0
        for s, t in enumerate(table):
            row, col = t.sum(axis=1), t.sum(axis=0)
            r_eff, c_eff = int((row > 0).sum()), int((col > 0).sum())
            if r_eff < 2 or c_eff < 2:
                continue
            dof += (r_eff - 1) * (c_eff - 1)
            e = np.outer(row, col) / t.sum()
            with np.errstate(divide="ignore", invalid="ignore"):
                if variant == "pearson":
                    term, keep = (t - e) * (t - e) / e, e > 0
                else:
                    term, keep = np.log(t / e) * (2.0 * t), (e > 0) & (t > 0)
            terms[s] = np.where(keep, term, 0.0)
        stats.append(float(np.add.reduceat(terms.ravel(), [0])[0]))
        dofs.append(dof)
    return stats, dofs


# -- protocol-scale stand-in ----------------------------------------------------


def bird_like_standin(n=1500, seed=5):
    """26 ordinal attribute columns plus a 9-class prediction column.

    Bootstrap resampling inflates the chi-square statistic of every pair (the
    replicate statistic concentrates around the original sample's value), so
    the stand-in keeps attribute arities low and the row count moderate; the
    column shape matches the published protocol exactly.
    """
    rng = np.random.default_rng(seed)
    arities = [3 if i < 4 else 2 for i in range(26)]
    feats = [rng.integers(0, a, n) for a in arities]
    # a few attribute-attribute dependencies
    feats[4] = np.minimum(feats[0] + rng.integers(0, 2, n), arities[4] - 1)
    feats[9] = (feats[1] + rng.integers(0, 2, n)) % arities[9]
    # the prediction tracks four attributes strongly
    logits = np.zeros((n, 9))
    for j, f in enumerate((0, 1, 2, 3)):
        for k in range(9):
            logits[:, k] += ((feats[f] + j) % 3 == k % 3) * 3.0
    logits += rng.gumbel(size=(n, 9))
    target = logits.argmax(axis=1)
    cols = [
        Column(f"attr{i:02d}", "cat", feats[i], arities[i]) for i in range(26)
    ]
    cols.append(Column("label", "cat", target, 9))
    return Dataset(cols)


def xray_like_standin(seed, n=239):
    """Seven binary findings and a binary label driven by three of them, the
    make-up of the 8-column protocol: at most 256 row patterns, so rows
    repeat."""
    rng = np.random.default_rng(seed)
    findings = [rng.integers(0, 2, n) for _ in range(7)]
    findings[3] = findings[0] | rng.integers(0, 2, n)
    logit = -1.0 + 2.0 * findings[0] + 1.5 * findings[1] + 1.0 * findings[2]
    label = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    cols = [Column(f"f{i}", "cat", v, 2) for i, v in enumerate(findings)]
    cols.append(Column("label", "cat", label, 2))
    return Dataset(cols)


# -- CSV reference ---------------------------------------------------------------


def reference_read_csv_text(text, schema, source="<csv>"):
    """CSV text to a Dataset one row and one cell at a time: CRLF and lone CR
    line ends become newlines, blank rows are skipped, every other row must
    have the header's width, cells are stripped and parsed with int or
    float, and the first fault raises."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise InputError(f"{source}: empty file or header")
        missing = [h for h in header if h not in schema]
        if missing:
            raise SchemaError(f"{source}: columns not in schema: {missing}")
        raw = [[] for _ in header]
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{source} line {ln}: expected {len(header)} fields, got {len(row)}"
                )
            for cell, bucket in zip(row, raw):
                bucket.append(cell.strip())
    except csv.Error as exc:
        raise InputError(f"{source} line {reader.line_num}: {exc}") from None
    if not raw[0]:
        raise InputError(f"{source}: no data rows")
    columns = []
    for name, cells in zip(header, raw):
        kind, arity = schema[name]
        if any(c == "" for c in cells):
            raise InputError(f"{source}: missing value in column {name!r}")
        try:
            if kind == CATEGORICAL:
                # a level past int64 is out of range, as -1 is
                values = [int(c) for c in cells]
                values = np.array([v if -(2**63) <= v < 2**63 else -1 for v in values], np.int64)
            else:
                values = np.array([float(c) for c in cells], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{source}: column {name!r}: {exc}") from None
        columns.append(Column(name, kind, values, arity))
    return Dataset(columns)


# -- DOT reader --------------------------------------------------------------------

_DOT_MARK_BACK = {"none": TAIL, "normal": ARROW, "odot": CIRCLE}
# a quoted DOT ID: \" is an escaped quote, and any other \ stands for itself
_DOT_ID = r'"((?:[^"\\]|\\"|\\(?!"))*)"'
_DOT_EDGE_RE = re.compile(
    rf"^{_DOT_ID}\s*->\s*{_DOT_ID}\s*"
    r"\[dir=both,\s*arrowtail=(\w+),\s*arrowhead=(\w+)\];$"
)
_DOT_NODE_RE = re.compile(rf"^{_DOT_ID};$")
_DOT_KIND_RE = re.compile(r'^graph \[kind="(\w+)"\];$')


def from_dot(text: str) -> MixedGraph:
    """Parse DOT as ``pagaudit.graph.to_dot`` writes it."""
    kind = GraphKind.PAG
    names: list[str] = []
    edges: list[tuple[str, str, Mark, Mark]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("digraph") or line == "}":
            continue
        if m := _DOT_KIND_RE.match(line):
            kind = GraphKind(m.group(1))
        elif m := _DOT_EDGE_RE.match(line):
            a, b, ta, hb = m.groups()
            try:
                ta, hb = _DOT_MARK_BACK[ta], _DOT_MARK_BACK[hb]
            except KeyError:
                raise InputError(f"unknown arrow style in DOT line: {line}") from None
            edges.append((_dot_unquote(a), _dot_unquote(b), ta, hb))
        elif m := _DOT_NODE_RE.match(line):
            names.append(_dot_unquote(m.group(1)))
        else:
            raise InputError(f"unparseable DOT line: {line}")
    g = MixedGraph(names, kind)
    for a, b, ma, mb in edges:
        g.add_edge(a, b, ma, mb)
    return g


def _dot_unquote(text: str) -> str:
    return text.replace('\\"', '"')
