"""FCI: constraint-based selection of a PAG under background knowledge.

Pipeline: skeleton search by level-wise conditional-independence testing,
collider orientation from separating sets, Possible-D-SEP edge pruning, and
the complete circle-resolving rule set (R1-R4, R8-R10; the selection-bias
rules R5-R7 never apply because undirected edges are out of scope).

Everything iterates in node order with subsets in lexicographic order, so a
run is a deterministic function of its inputs.  The stages work on the
``MixedGraph``'s own storage, its per-node adjacency bitmasks ``adj`` and its
mark table ``marks``, indexed by node without the checks of its public
methods; a neighbour set is the set bits of a mask, in node order.

Both pruning stages, each skeleton depth and Possible-D-SEP, go through one
stage runner, ``_run_stage``: it walks each adjacent pair (x, y) through the
subsets of a candidate mask of x minus y, and leaves out the later walk of a
pair when the earlier one, of (y, x), asked all its sets.  That rests on a
test answering (x, y, S) and (y, x, S) alike, which the tester's cache, keyed
by the unordered query, already assumes; only the left-out walk's cache hits
go.

Each CI walk, one ordered pair and its candidate sets, stops at the first
independence.  ``CiTester`` picks how it walks from its decider when it is
built: chi-square scores a walk's uncached sets in batches of a fixed size,
while the oracle and Fisher-z answer one query (x, y, z) at a time by column
index, in a plain loop, z being the bitmask of the conditioning set that the
query's cache key already holds.  The oracle's answer is Bayes-ball on its
own masks, which number the observed nodes by column.

A chi-square tester scores ahead: at the start of each skeleton depth, and
once before Possible-D-SEP, it is given every walk that stage may run (an
ordered pair and its sets, from the adjacency at the start of the depth, or
from the fixed Possible-D-SEP sets) and scores the sets of all the short
walks, those whose uncached sets fall short of a batch, in a few kernel
calls.  The results wait in the tester's one cache, keyed by the
unordered query like every answer, and count as a test only when a walk
first reads them.  The walks then run in order as before and stop at their
first independence, so the graph, the separating sets and every counter are
those of a run without the step.  As with any cached answer, a walk may read
a result scored with the pair the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, groupby

import numpy as np

# chi_square_test and oracle_test are not called here, but stay importable
# as pagaudit.fci.chi_square_test and pagaudit.fci.oracle_test, names the
# benchmark's tracer wraps
from .citests import (  # noqa: F401
    GSQUARED,
    PEARSON,
    CiOracle,
    chi_square_batch,
    chi_square_independent,
    chi_square_test,
    fisher_z_columns,
    oracle_test,
)
from .data import CATEGORICAL, CONTINUOUS, CountTable, Dataset, distinct_rows
from .errors import (
    InputError,
    InternalConsistencyError,
    KnowledgeInconsistencyError,
    require_number,
)
from .graph import BackgroundKnowledge, GraphKind, Mark, MixedGraph, bayes_ball_separated, bits

__all__ = [
    "FciConfig",
    "Diagnostics",
    "SepSetMap",
    "CiTester",
    "skeleton_search",
    "orient_colliders",
    "possible_dsep_prune",
    "apply_orientation_rules",
    "fci_run",
    "FciResult",
    "parse_knowledge",
    "select_test",
]

# the marks by module global: an enum member's attribute lookup costs several
# times a global's in the rules' inner loops
TAIL, ARROW, CIRCLE = Mark.TAIL, Mark.ARROW, Mark.CIRCLE


@dataclass
class FciConfig:
    """Tuning parameters for one FCI run.

    ``max_cond_size`` of None means unlimited; ``test`` selects the CI
    decider: auto (by column kinds), chi2, g2, fisherz, or oracle.
    """

    alpha: float = 0.05
    max_cond_size: int | None = None
    enable_possible_dsep: bool = True
    test: str = "auto"

    def __post_init__(self) -> None:
        require_number("alpha", self.alpha)
        if self.max_cond_size is not None:
            require_number("max_cond_size", self.max_cond_size, whole=True)
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_cond_size is not None and self.max_cond_size < 0:
            raise InputError("max_cond_size must be nonnegative or None")
        if self.test not in ("auto", "chi2", "g2", "fisherz", "oracle"):
            raise InputError(f"unknown test selector {self.test!r}")


@dataclass
class Diagnostics:
    """Counters accumulated across the stages of a run."""

    tests_run: int = 0
    cache_hits: int = 0
    dof_zero_warnings: int = 0
    stage_edge_counts: dict[str, int] = field(default_factory=dict)
    rule_firings: dict[str, int] = field(default_factory=dict)
    collider_conflicts: int = 0
    notes: list[str] = field(default_factory=list)

    def fired(self, rule: str) -> None:
        self.rule_firings[rule] = self.rule_firings.get(rule, 0) + 1


@dataclass(frozen=True)
class SepSet:
    nodes: frozenset[int]
    from_knowledge: bool = False


class SepSetMap:
    """Separating set recorded for each removed pair (indices, unordered)."""

    def __init__(self) -> None:
        self._map: dict[tuple[int, int], SepSet] = {}

    @staticmethod
    def _key(x: int, y: int) -> tuple[int, int]:
        return (x, y) if x < y else (y, x)

    def set(self, x: int, y: int, nodes, from_knowledge: bool = False) -> None:
        nodes = frozenset(nodes)
        if x in nodes or y in nodes:
            raise InternalConsistencyError("separating set contains a pair member")
        self._map[self._key(x, y)] = SepSet(nodes, from_knowledge)

    def get(self, x: int, y: int) -> SepSet | None:
        return self._map.get(self._key(x, y))

    def items(self):
        return sorted(self._map.items())

    def __len__(self) -> int:
        return len(self._map)

    def as_names(self, names) -> dict[tuple[str, str], set[str]]:
        return {
            (names[i], names[j]): {names[k] for k in entry.nodes}
            for (i, j), entry in self.items()
        }


# One cap sizes every kernel call, a walk's batch or a score-ahead call: it
# holds at most _BATCH_CAP rows x sets, where a count table's rows are its
# distinct rows that occur, and at most _BATCH_CAP cells.  At this cap a
# kernel call peaks near 2 MB, and the weights tiled for the longest call
# hold 0.5 MB.
_BATCH_CAP = 1 << 16


class CiTester:
    """Caching adapter from (x, y, S) index queries to a CI decision.

    Wraps a dataset-backed test or an oracle, chosen once at construction;
    counts evaluations, cache hits and zero-dof (uninformative) results.  A
    query's cache key is one integer: the bitmask of S above the pair.  The
    key does not say which way round the pair was asked, so an answer serves
    both orientations.

    The decider also picks the walk of ``first_independent``.  Chi-square,
    which scores many sets in one kernel call, walks in batches.  The oracle
    and Fisher-z answer one query at a time, by index, so their walk is a
    plain loop over the sets: a cache lookup, else one answer, then the
    counters, up to the first independence.  Each set is
    read once, to build its key; the answer is given the pair and the
    bitmask of S, the key shifted down past the pair.

    A chi-square tester scores ahead (``score_ahead``): the uncached sets of
    every walk of a stage that has fewer than ``_batch`` of them are scored
    before the walks run, each unordered query once, and cached as
    unused results, the decider's (independent, uninformative) pair.  An
    unused result counts as a test, and becomes a plain cached decision, the
    first time a walk reads it, in either orientation and in this stage or a
    later one; one that no walk reads is never counted.  So the counters see
    exactly the sets the walks use, and no query scored ahead is scored
    again.
    """

    def __init__(
        self,
        source: Dataset | CountTable | CiOracle,
        cfg: FciConfig,
        diagnostics: Diagnostics | None = None,
    ):
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        # a decision by cache key, or an unused (independent, uninformative)
        # result scored ahead
        self._cache: dict[int, bool | tuple[bool, bool]] = {}
        if isinstance(source, CiOracle):
            self.names = tuple(source.observed)
        elif isinstance(source, (Dataset, CountTable)):
            self.names = tuple(source.names)
        else:
            raise InputError(f"cannot test on source of type {type(source).__name__}")
        self._bits = len(self.names).bit_length()
        # the cache key bit of each node as a member of S, above the pair
        self._member = [1 << (v + 2 * self._bits) for v in range(len(self.names))]
        # the sets of one kernel call, or None for a decider that answers one
        # query at a time
        self._decide, self._batch = _decider(source, cfg)

    def __call__(self, x: int, y: int, s: tuple[int, ...]) -> bool:
        return self.first_independent(x, y, (tuple(s),)) is not None

    def score_ahead(self, walks) -> None:
        """Score the sets of the short walks of a stage before the walks run.

        ``walks`` yields (x, y, sets) for each walk the stage may run, in
        order.  A walk with fewer than ``_batch`` sets not in the cache
        would score them in a kernel call of its own that they under-fill;
        these sets are scored together, each unordered query once, in as few
        calls as their arities allow, and cached as unused results.  A longer
        walk is left to run in its own batches.  A tester that goes one set
        at a time returns at once, without reading ``walks``.
        """
        if not self._batch:
            return
        cache, member, width = self._cache, self._member, self._bits
        queries = {}  # cache key -> (x, y, set) of the first walk that asks
        for x, y, subsets in walks:
            pair = (x << width | y) if x < y else (y << width | x)
            first = {}
            for s in subsets:
                key = pair
                for v in s:
                    key |= member[v]
                if key not in cache:
                    first[key] = s
                    if len(first) == self._batch:
                        break
            else:
                # a short walk: on its own, its sets would under-fill a batch
                for key, s in first.items():
                    queries.setdefault(key, (x, y, s))
        if queries:
            xs, ys, sets = zip(*queries.values())
            cache.update(zip(queries, self._evaluate(xs, ys, sets)))

    def first_independent(self, x: int, y: int, subsets):
        """The first set S, in the order given, with x _||_ y | S, or None.

        The walk stops at the first independence: the counters see exactly
        the sets up to it, as in a one-at-a-time walk, and the cache holds no
        result past it but those scored ahead.
        """
        if self._batch:
            return self._walk_batches(x, y, subsets)
        diag, cache, answer = self.diagnostics, self._cache, self._decide
        member, shift = self._member, 2 * self._bits
        pair = (x << self._bits | y) if x < y else (y << self._bits | x)
        for s in subsets:
            key = pair
            for v in s:
                key |= member[v]
            known = cache.get(key)
            if known is None:
                try:
                    known = answer(x, y, key >> shift)
                except Exception as exc:
                    self._raise_naming(exc, x, y, [s])
                diag.tests_run += 1
                cache[key] = known
            else:
                diag.cache_hits += 1
            if known:
                return s
        return None

    def _walk_batches(self, x: int, y: int, subsets):
        """``first_independent`` for a decider that scores sets in batches.

        Sets are looked up in the cache in order; the others are evaluated in
        batches of ``_batch`` sets, then resolved in order, and results
        computed past the stop are dropped.  An unused result scored ahead is
        resolved like a new one.
        """
        diag, cache, member = self.diagnostics, self._cache, self._member
        pair = (x << self._bits | y) if x < y else (y << self._bits | x)
        size, subsets = self._batch, iter(subsets)
        while True:
            # (set, key, cache entry) per set
            block, pending = [], []
            for s in subsets:
                key = pair
                for v in s:
                    key |= member[v]
                known = cache.get(key)
                block.append((s, key, known))
                if known is None:
                    pending.append(s)
                    if len(pending) == size:
                        break
                elif known[0] if known.__class__ is tuple else known:
                    break
            if not block:
                return None
            results = iter(self._evaluate(x, y, pending) if pending else ())
            for s, key, known in block:
                if known is None or known.__class__ is tuple:
                    known, uninformative = known or next(results)
                    diag.tests_run += 1
                    diag.dof_zero_warnings += uninformative
                    cache[key] = known
                else:
                    diag.cache_hits += 1
                if known:
                    return s

    def _evaluate(self, x, y, subsets: list) -> list[tuple[bool, bool]]:
        """The decider's answers for one pair (int x, y) or for a pair per
        set (sequences x, y), with a failure naming the first query."""
        try:
            return self._decide(x, y, subsets)
        except Exception as exc:
            self._raise_naming(exc, x, y, subsets)

    def _raise_naming(self, exc: Exception, x, y, subsets: list):
        """Raise ``exc`` again, as its own type, with the first query named;
        if its type cannot be built from one message, raise it unchanged."""
        names = self.names
        if not isinstance(x, int):
            x, y = x[0], y[0]
        query = f"{names[x]} _||_ {names[y]} | {sorted(names[v] for v in subsets[0])}"
        if len(subsets) > 1:
            query += f" (or one of the {len(subsets) - 1} sets after it)"
        try:
            wrapped = type(exc)(f"{exc} [while testing {query}]")
        except TypeError:
            wrapped = None
        if wrapped is None:
            raise exc
        raise wrapped from exc


def select_test(source: Dataset | CountTable, selector: str) -> str:
    """The dataset test, chi2, g2 or fisherz, that ``selector`` picks for the
    source's columns, checked before any query runs.

    ``auto`` picks chi-square for all-categorical columns and Fisher-z for
    all-continuous ones; an explicit test must fit every column.  A count
    table's columns are categorical.
    """
    if selector == "oracle":
        raise InputError("oracle test selected but source is a dataset")
    if isinstance(source, CountTable):
        kinds = dict.fromkeys(source.names, CATEGORICAL)
    else:
        kinds = {c.name: c.kind for c in source.columns}
    if selector == "auto":
        found = set(kinds.values())
        if len(found) > 1:
            raise InputError("mixed column kinds: choose the test explicitly")
        return "chi2" if found == {CATEGORICAL} else "fisherz"
    if selector == "fisherz":
        need, problem = CONTINUOUS, "fisher-z test needs continuous columns"
    else:
        need, problem = CATEGORICAL, "chi-square test needs categorical columns"
    for name, kind in kinds.items():
        if kind != need:
            raise InputError(f"{problem}, {name!r} is not")
    return selector


def _decider(source: Dataset | CountTable | CiOracle, cfg: FciConfig):
    """The CI decision for this source and test selector, and its batch size.

    Chi-square runs on the source's count table: its decision maps indices
    (x, y, [S, ...]) to one (independent, uninformative) pair per set, scored
    in few kernel calls, and comes with the number of sets that fill one
    call, by which the tester sizes its batches and picks the walks to score
    ahead; it also takes sequences x, y with a pair per set, the queries of a
    score-ahead step.  The oracle and Fisher-z answer one query (x, y, z) of
    indices, z the bitmask of S, with a bool (batch size None): the oracle is
    Bayes-ball on its own masks.
    An oracle source always uses the oracle; a dataset's test is chosen by
    ``select_test``.
    """
    if isinstance(source, CiOracle):
        return partial(bayes_ball_separated, source.parents, source.children), None
    test = select_test(source, cfg.test)
    if test == "fisherz":
        values = [c.values for c in source.columns]

        def fisher_z(x: int, y: int, z: int) -> bool:
            columns = [values[x], values[y], *(values[v] for v in bits(z))]
            return fisher_z_columns(columns, cfg.alpha).independent

        return fisher_z, None
    table = source if isinstance(source, CountTable) else CountTable.of(source)
    return _chi_square_decider(table, GSQUARED if test == "g2" else PEARSON, cfg.alpha)


def _chi_square_decider(t: CountTable, variant: str, alpha: float):
    """Batch chi-square decisions on the distinct rows of a count table that
    occur, each weighted by its count, and the number of sets in one call.

    A walk's batch is scored by runs of equal-size sets; score-ahead queries
    by groups of equal (arity x, arity y, |S|), each set with its own pair's
    rows.  Either is split into kernel calls of at most _BATCH_CAP cells and
    _BATCH_CAP rows x sets; a set with more cells than that on its own is
    scored alone, on one column of the strata that occur in it, so its cells
    are bounded by the rows.  A call's weights
    are a slice of the counts tiled for the most sets a call has needed so
    far, so they are tiled only when a call needs more.
    """
    if t.n == 0:
        raise InputError("empty dataset")
    present = np.flatnonzero(t.counts)
    codes = t.codes[:, present]
    weights = t.counts[present].astype(np.float64)
    arity = t.arities
    arities = arity.tolist()
    rows = len(present)
    max_sets = max(1, _BATCH_CAP // rows)
    tiled = weights

    def score(x, y, subsets: list, k: int) -> list[tuple[bool, bool]]:
        # x, y: the pair's indices, or index arrays with a pair per set
        nonlocal tiled
        shared = isinstance(x, int)
        rx, ry = (arities[x], arities[y]) if shared else (arities[x[0]], arities[y[0]])
        sets = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
        set_arity = arity[sets]
        # cells per set, capped past the cap: a larger set is scored on its
        # own, and a product of many arities could pass int64
        cells = np.cumsum(np.minimum(rx * ry * set_arity.prod(axis=1, dtype=float), _BATCH_CAP + 1))
        out = []
        start = 0
        while start < len(sets):
            room = _BATCH_CAP + (cells[start - 1] if start else 0)
            stop = max(start + 1, int(np.searchsorted(cells, room, side="right")))
            stop = min(stop, start + max_sets)
            if len(tiled) < (stop - start) * rows:
                tiled = np.tile(weights, stop - start)
            chunk = sets[start:stop]
            members = [codes[chunk[:, j]] for j in range(k)]
            chunk_arity = set_arity[start:stop]
            if cells[start] > room:
                # a set too large for one call on its own: its members become
                # one column of the strata that occur, in the same order
                strata, stratum = distinct_rows(codes[chunk[0]], chunk_arity[0])
                members, chunk_arity = [stratum[None]], [[strata.shape[1]]]
            cx, cy = (x, y) if shared else (x[start:stop], y[start:stop])
            stats, dofs = chi_square_batch(
                codes[cx], rx, codes[cy], ry, members,
                chunk_arity, variant, tiled[: (stop - start) * rows],
            )
            out += [
                (chi_square_independent(stat, dof, alpha), dof == 0)
                for stat, dof in zip(stats.tolist(), dofs.tolist())
            ]
            start = stop
        return out

    def decide(x, y, subsets: list) -> list[tuple[bool, bool]]:
        if isinstance(x, int):
            out = []
            for k, run in groupby(subsets, len):
                out += score(x, y, list(run), k)
            return out

        def group(i):
            return arities[x[i]], arities[y[i]], len(subsets[i])

        out = [None] * len(subsets)
        for (_, _, k), run in groupby(sorted(range(len(subsets)), key=group), group):
            run = list(run)
            sets = [subsets[i] for i in run]
            results = score(np.take(x, run), np.take(y, run), sets, k)
            for i, result in zip(run, results):
                out[i] = result
        return out

    return decide, max_sets


def _first_independent(test, x: int, y: int, subsets):
    """``test.first_independent`` of a CiTester; any other callable test is
    asked one set at a time."""
    if isinstance(test, CiTester):
        return test.first_independent(x, y, subsets)
    return next((s for s in subsets if test(x, y, s)), None)


def _run_stage(test, g: MixedGraph, sepsets: SepSetMap, candidates, sizes: range, required) -> None:
    """Walk the adjacent pairs of ``g``, removing each edge at its walk's
    first independence and recording the set.

    In node order, each adjacent pair (x, y) that ``required`` (a bitmask
    per node) does not hold is walked through the subsets of candidates[x]
    minus y of each size in ``sizes``, in lexicographic order; the walk's
    sets are bound when it is made, from candidates[x] then.  A pair x > y
    is not walked when candidates[x] minus y lies within candidates[y], or
    when the empty set is the walk's only set: candidates only shrink within
    a stage, so the earlier walk of (y, x) asked all these sets and, the
    edge being still there, found every one of them dependent.  A CiTester
    is first given the walks made before any edge goes, to score ahead.
    """
    adj = g.adj

    def walks():
        for x in range(g.n_nodes):
            # only the walk of (x, y) removes the edge x--y
            for y in bits(adj[x] & ~required[x]):
                own = candidates[x] & ~(1 << y)
                if y < x and (not own & ~candidates[y] or not (own and sizes[-1])):
                    continue
                others = bits(own)
                if len(others) >= sizes.start:
                    yield x, y, chain.from_iterable(map(partial(combinations, others), sizes))

    if isinstance(test, CiTester):
        test.score_ahead(walks())
    for x, y, subsets in walks():
        s = _first_independent(test, x, y, subsets)
        if s is not None:
            g.remove_edge(x, y)
            sepsets.set(x, y, s)


# -- skeleton ------------------------------------------------------------------


def _adjacency_masks(g: MixedGraph, pairs) -> list[int]:
    """A bitmask per node of the nodes that ``pairs``, sets of two names,
    pair it with."""
    masks = [0] * g.n_nodes
    for a, b in (map(g.index, pair) for pair in pairs):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def skeleton_search(
    test,
    nodes,
    cfg: FciConfig | None = None,
    knowledge: BackgroundKnowledge | None = None,
    diagnostics: Diagnostics | None = None,
) -> tuple[MixedGraph, SepSetMap]:
    """Level-wise edge removal from the complete circle graph.

    For depth k = 0, 1, ... the stage runner walks each adjacent pair (x, y)
    through every size-k subset of adj(x) minus y, in lexicographic order;
    the first independence removes the edge and records the subset.  adj(x)
    is read when the pair's walk starts, after the removals before it.  The
    walk of (x, y), x > y, is left out when adj(x) minus y lies within
    adj(y), and at depth 0: the walk of (y, x) at this depth already asked
    all its sets.  That rests on a test answering (x, y, S) and (y, x, S)
    alike, as the tester's cache assumes.
    """
    cfg = cfg or FciConfig()
    names = tuple(nodes)
    if len(names) < 2:
        raise InputError("need at least two variables")
    diag = diagnostics if diagnostics is not None else Diagnostics()
    g = MixedGraph(names, GraphKind.PAG)
    n, adj = g.n_nodes, g.adj
    seps = SepSetMap()
    knowledge = knowledge or BackgroundKnowledge()
    forbidden = _adjacency_masks(g, knowledge.forbidden_adjacencies)
    required = _adjacency_masks(g, knowledge.required_adjacencies)
    for i in range(n):
        for j in range(i + 1, n):
            if forbidden[i] >> j & 1:
                seps.set(i, j, frozenset(), from_knowledge=True)
            else:
                g.add_circle_edge(i, j)
    diag.stage_edge_counts.setdefault("initial", g.n_edges)
    depth = 0
    while cfg.max_cond_size is None or depth <= cfg.max_cond_size:
        if max(mask.bit_count() for mask in adj) - 1 < depth:
            break
        _run_stage(test, g, seps, adj, range(depth, depth + 1), required)
        depth += 1
    diag.stage_edge_counts.setdefault("post_skeleton", g.n_edges)
    return g, seps


# -- collider orientation --------------------------------------------------------


def orient_colliders(
    g: MixedGraph,
    sepsets: SepSetMap,
    diagnostics: Diagnostics | None = None,
) -> MixedGraph:
    """Orient unshielded triples x-z-y as colliders when z is outside sepset(x, y).

    Marks become arrows at z on both edges; nothing else changes.  A mark
    already fixed to a tail is left alone (first orientation wins) and counted
    as a conflict.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    out = g.copy()
    _orient_colliders_inplace(out, sepsets, diag)
    return out


def _orient_colliders_inplace(g: MixedGraph, sepsets: SepSetMap, diag: Diagnostics) -> None:
    adj, marks = g.adj, g.marks
    for z in range(g.n_nodes):
        for x, y in combinations(bits(adj[z]), 2):
            if adj[x] >> y & 1:
                continue
            entry = sepsets.get(x, y)
            if entry is None:
                raise InternalConsistencyError(
                    f"no separating set recorded for non-adjacent pair "
                    f"({g.names[x]!r}, {g.names[y]!r})"
                )
            if entry.from_knowledge or z in entry.nodes:
                continue
            for other in (x, y):
                cur = marks[z][other]
                if cur is TAIL:
                    diag.collider_conflicts += 1
                elif cur is not ARROW:
                    marks[z][other] = ARROW
                    diag.fired("R0")


# -- possible-d-sep pruning --------------------------------------------------------


def _possible_dsep_set(g: MixedGraph, x: int) -> int:
    """The bitmask of the nodes reachable from x along paths whose every inner
    node is a collider there or adjacent to both its path neighbors."""
    adj, marks = g.adj, g.marks
    # a search over path steps (a, b): bit b of seen[a] once a step is queued
    seen = [0] * g.n_nodes
    seen[x] = found = adj[x]
    stack = [(x, w) for w in bits(adj[x])]
    while stack:
        a, b = stack.pop()
        into_b = marks[b][a] is ARROW
        for c in bits(adj[b] & ~seen[b] & ~(1 << a)):
            if adj[a] >> c & 1 or into_b and marks[b][c] is ARROW:
                seen[b] |= 1 << c
                found |= 1 << c
                stack.append((b, c))
    return found & ~(1 << x)


def possible_dsep_prune(
    g: MixedGraph,
    sepsets: SepSetMap,
    test,
    cfg: FciConfig | None = None,
    knowledge: BackgroundKnowledge | None = None,
    diagnostics: Diagnostics | None = None,
) -> tuple[MixedGraph, SepSetMap]:
    """Retest every remaining edge against subsets of Possible-D-SEP sets.

    Resets a copy of ``g`` to circles and orients its colliders, a
    provisional pass counted in ``diagnostics`` like any other, to define
    each node's set; the sets are then fixed for the stage.  The stage
    runner walks each adjacent pair (x, y) through the subsets of PDS(x)
    minus y of size 0, 1, ... up to the size limit, and removes the edge at
    the walk's first independence, recording the set.  The walk of (x, y),
    x > y, is left out when PDS(x) minus y lies within PDS(y), or is
    empty: the walk of (y, x) already asked all its sets, and a test
    answers (x, y, S) and (y, x, S) alike.  All marks are reset to circles
    at the end.
    """
    cfg = cfg or FciConfig()
    diag = diagnostics if diagnostics is not None else Diagnostics()
    work = g.copy()
    _reset_marks(work)
    _orient_colliders_inplace(work, sepsets, diag)
    required = _adjacency_masks(work, (knowledge or BackgroundKnowledge()).required_adjacencies)
    pds = [_possible_dsep_set(work, x) for x in range(work.n_nodes)]
    # no set has more members than there are nodes, whatever the limit
    limit = work.n_nodes if cfg.max_cond_size is None else min(cfg.max_cond_size, work.n_nodes)
    _run_stage(test, work, sepsets, pds, range(limit + 1), required)
    _reset_marks(work)
    diag.stage_edge_counts.setdefault("post_possible_dsep", work.n_edges)
    return work, sepsets


def _reset_marks(g: MixedGraph) -> None:
    for i, row in enumerate(g.marks):
        for j in bits(g.adj[i]):
            row[j] = CIRCLE


# -- orientation rules ---------------------------------------------------------------


def _orient(g: MixedGraph, at: int, other: int, mark: Mark, rule: str, diag: Diagnostics) -> bool:
    cur = g.marks[at][other]
    if cur is mark:
        return False
    if cur is not CIRCLE:
        raise KnowledgeInconsistencyError(
            f"rule {rule} wants {mark.value!r} at {g.names[at]!r} on edge "
            f"{g.names[at]!r}--{g.names[other]!r} but found {cur.value!r}"
        )
    g.marks[at][other] = mark
    diag.fired(rule)
    return True


def _apply_knowledge_marks(
    g: MixedGraph, knowledge: BackgroundKnowledge, diag: Diagnostics
) -> None:
    pairs = sorted(
        (g.index(a), g.index(b)) for (a, b) in knowledge.non_ancestor_pairs
    )
    for ai, bi in pairs:
        if not g.adj[ai] >> bi & 1:
            continue
        cur = g.marks[ai][bi]
        if cur is TAIL:
            raise KnowledgeInconsistencyError(
                f"{g.names[ai]!r} is declared a non-ancestor of {g.names[bi]!r} "
                f"but the edge carries a tail at {g.names[ai]!r}"
            )
        if cur is CIRCLE:
            g.marks[ai][bi] = ARROW
            diag.fired("knowledge")


def _rule_r1(g: MixedGraph, diag: Diagnostics) -> bool:
    # a *-> b o-* c with a, c non-adjacent  =>  a *-> b -> c
    adj, marks = g.adj, g.marks
    changed = False
    for b in range(g.n_nodes):
        nbrs = bits(adj[b])
        for a in nbrs:
            if marks[b][a] is not ARROW:
                continue
            for c in nbrs:
                if c == a or adj[a] >> c & 1 or marks[b][c] is not CIRCLE:
                    continue
                changed |= _orient(g, b, c, TAIL, "R1", diag)
                changed |= _orient(g, c, b, ARROW, "R1", diag)
    return changed


def _rule_r2(g: MixedGraph, diag: Diagnostics) -> bool:
    # a -> b *-> c  or  a *-> b -> c, with a *-o c  =>  a *-> c
    adj, marks = g.adj, g.marks
    changed = False
    for a in range(g.n_nodes):
        for c in bits(adj[a]):
            if marks[c][a] is not CIRCLE:
                continue
            for b in bits(adj[a] & adj[c]):
                a_to_b = marks[a][b] is TAIL and marks[b][a] is ARROW
                b_to_c = marks[b][c] is TAIL and marks[c][b] is ARROW
                if (a_to_b and marks[c][b] is ARROW) or (marks[b][a] is ARROW and b_to_c):
                    changed |= _orient(g, c, a, ARROW, "R2", diag)
                    break
    return changed


def _rule_r3(g: MixedGraph, diag: Diagnostics) -> bool:
    # a *-> b <-* c, a *-o d o-* c, a, c non-adjacent, d *-o b  =>  d *-> b
    adj, marks = g.adj, g.marks
    changed = False
    for b in range(g.n_nodes):
        for d in bits(adj[b]):
            if marks[b][d] is not CIRCLE:
                continue
            for a, c in combinations(bits(adj[b] & adj[d]), 2):
                if adj[a] >> c & 1:
                    continue
                if marks[b][a] is not ARROW or marks[b][c] is not ARROW:
                    continue
                if marks[d][a] is not CIRCLE or marks[d][c] is not CIRCLE:
                    continue
                changed |= _orient(g, b, d, ARROW, "R3", diag)
                break
    return changed


def _rule_r4(g: MixedGraph, sepsets: SepSetMap | None, diag: Diagnostics) -> bool:
    # Discriminating path <t, ..., a, b, c> for b: every node strictly between
    # t and b is a collider on the path and a parent of c; t, c non-adjacent.
    # If b lies in sepset(t, c): b -> c; otherwise a <-> b <-> c.
    changed = False
    for c in range(g.n_nodes):
        for b in bits(g.adj[c]):
            if g.marks[b][c] is not CIRCLE:
                continue
            found = _find_discriminating_path(g, b, c)
            if found is None:
                continue
            t, a = found
            if sepsets is None:
                raise InternalConsistencyError(
                    "rule R4 needs separating sets but none were supplied"
                )
            entry = sepsets.get(t, c)
            if entry is None or entry.from_knowledge:
                note = f"R4 skipped: no tested separating set for ({g.names[t]!r}, {g.names[c]!r})"
                if note not in diag.notes:  # once, not once per pass or per b
                    diag.notes.append(note)
                continue
            if b in entry.nodes:
                changed |= _orient(g, b, c, TAIL, "R4", diag)
                changed |= _orient(g, c, b, ARROW, "R4", diag)
            else:
                changed |= _orient(g, a, b, ARROW, "R4", diag)
                changed |= _orient(g, b, a, ARROW, "R4", diag)
                changed |= _orient(g, b, c, ARROW, "R4", diag)
                changed |= _orient(g, c, b, ARROW, "R4", diag)
    return changed


def _find_discriminating_path(g: MixedGraph, b: int, c: int) -> tuple[int, int] | None:
    """First (t, a) such that <t, ..., a, b, c> discriminates b against c."""
    # Depth-first over path suffixes <head, ..., b, c>; extending past a head
    # requires it to be a collider on the path and a parent of c.
    adj, marks = g.adj, g.marks
    stack = [(a, (a, b, c)) for a in bits(adj[b] & ~(1 << c))]
    while stack:
        head, path = stack.pop()
        if not adj[head] >> c & 1:
            if len(path) >= 4:
                return head, path[-3]
            continue
        # head must qualify as an inner collider-parent to extend further
        row = marks[head]
        if not (row[c] is TAIL and marks[c][head] is ARROW and row[path[1]] is ARROW):
            continue
        for p in bits(adj[head]):
            if p not in path and row[p] is ARROW:
                stack.append((p, (p,) + path))
    return None


def _pd_edge(marks, frm: int, to: int) -> bool:
    # potentially directed out of frm: no arrow back at frm, no tail at to
    return marks[frm][to] is not ARROW and marks[to][frm] is not TAIL


def _uncovered_pd_path_exists(g: MixedGraph, a: int, first: int, target: int) -> bool:
    """Uncovered potentially directed path <a, first, ..., target>."""
    adj, marks = g.adj, g.marks
    if not _pd_edge(marks, a, first):
        return False
    if first == target:
        return True
    # (node, previous node, the path's nodes as a bitmask)
    stack = [(first, a, 1 << a | 1 << first)]
    while stack:
        cur, prev, onpath = stack.pop()
        # skip nodes on the path and covered triples
        for nxt in bits(adj[cur] & ~onpath & ~adj[prev]):
            if not _pd_edge(marks, cur, nxt):
                continue
            if nxt == target:
                return True
            stack.append((nxt, cur, onpath | 1 << nxt))
    return False


def _rule_r8(g: MixedGraph, diag: Diagnostics) -> bool:
    # a -> b -> c  or  a -o b -> c, with a o-> c  =>  a -> c
    adj, marks = g.adj, g.marks
    changed = False
    for a in range(g.n_nodes):
        for c in bits(adj[a]):
            if not (marks[a][c] is CIRCLE and marks[c][a] is ARROW):
                continue
            for b in bits(adj[a] & adj[c]):
                if not (marks[b][c] is TAIL and marks[c][b] is ARROW):
                    continue
                if marks[a][b] is TAIL and marks[b][a] is not TAIL:
                    changed |= _orient(g, a, c, TAIL, "R8", diag)
                    break
    return changed


def _rule_r9(g: MixedGraph, diag: Diagnostics) -> bool:
    # a o-> c with an uncovered potentially directed path <a, b, ..., c>,
    # b not adjacent to c  =>  a -> c
    adj, marks = g.adj, g.marks
    changed = False
    for a in range(g.n_nodes):
        for c in bits(adj[a]):
            if not (marks[a][c] is CIRCLE and marks[c][a] is ARROW):
                continue
            for b in bits(adj[a] & ~adj[c] & ~(1 << c)):
                if _uncovered_pd_path_exists(g, a, b, c):
                    changed |= _orient(g, a, c, TAIL, "R9", diag)
                    break
    return changed


def _rule_r10(g: MixedGraph, diag: Diagnostics) -> bool:
    # a o-> c, b -> c <- t, uncovered pd paths p1: a..b and p2: a..t whose
    # first steps differ and are non-adjacent  =>  a -> c
    adj, marks = g.adj, g.marks
    changed = False
    for c in range(g.n_nodes):
        parents = [v for v in bits(adj[c]) if marks[v][c] is TAIL and marks[c][v] is ARROW]
        if len(parents) < 2:
            continue
        for a in bits(adj[c]):
            if not (marks[a][c] is CIRCLE and marks[c][a] is ARROW):
                continue
            firsts = bits(adj[a] & ~(1 << c))
            for b, t in combinations([p for p in parents if p != a], 2):
                first_b = [m for m in firsts if _uncovered_pd_path_exists(g, a, m, b)]
                first_t = [m for m in firsts if _uncovered_pd_path_exists(g, a, m, t)]
                if any(mu != om and not adj[mu] >> om & 1 for mu in first_b for om in first_t):
                    changed |= _orient(g, a, c, TAIL, "R10", diag)
                    break
    return changed


def apply_orientation_rules(
    g: MixedGraph,
    knowledge: BackgroundKnowledge | None = None,
    sepsets: SepSetMap | None = None,
    diagnostics: Diagnostics | None = None,
) -> MixedGraph:
    """Apply background knowledge, then rules R1-R4 and R8-R10 to a fixpoint.

    Marks only specialize circle -> tail/arrow; a rule whose conclusion would
    overwrite a fixed mark raises a knowledge inconsistency naming the edge.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    out = g.copy()
    if knowledge is not None:
        knowledge.check_names(out.names)
        _apply_knowledge_marks(out, knowledge, diag)
    changed = True
    while changed:
        changed = False
        changed |= _rule_r1(out, diag)
        changed |= _rule_r2(out, diag)
        changed |= _rule_r3(out, diag)
        changed |= _rule_r4(out, sepsets, diag)
        changed |= _rule_r8(out, diag)
        changed |= _rule_r9(out, diag)
        changed |= _rule_r10(out, diag)
    return out


# -- full run -----------------------------------------------------------------------


@dataclass
class FciResult:
    graph: MixedGraph
    sepsets: SepSetMap
    diagnostics: Diagnostics


def fci_run(
    source: Dataset | CountTable | CiOracle,
    knowledge: BackgroundKnowledge | None = None,
    cfg: FciConfig | None = None,
    target: str | None = None,
) -> FciResult:
    """Run the full pipeline on a dataset, a count table or an oracle and
    return the PAG.

    ``target`` is shorthand for declaring that variable a non-ancestor of all
    others (the prediction-column constraint); it merges with ``knowledge``.
    """
    cfg = cfg or FciConfig()
    diag = Diagnostics()
    tester = CiTester(source, cfg, diag)
    names = tester.names
    if target is not None:
        if target not in names:
            raise InputError(f"target {target!r} is not a variable")
        base = BackgroundKnowledge.non_ancestor_of_all(target, names)
        knowledge = base.merged_with(knowledge)
    if knowledge is not None:
        knowledge.check_names(names)

    g, seps = skeleton_search(tester, names, cfg, knowledge, diag)
    if cfg.enable_possible_dsep:
        # PDS orients the skeleton's colliders itself, counted in diag
        g, seps = possible_dsep_prune(g, seps, tester, cfg, knowledge, diag)
    g = orient_colliders(g, seps, diag)
    g = apply_orientation_rules(g, knowledge, seps, diag)
    diag.stage_edge_counts["final"] = g.n_edges
    return FciResult(g, seps, diag)


# -- knowledge files -------------------------------------------------------------------


def parse_knowledge(text: str, variables) -> BackgroundKnowledge:
    """Parse line-oriented knowledge: ``nonancestor a b|*``, ``forbid a b``,
    ``require a b``.  ``*`` expands to every other variable."""
    variables = list(variables)
    known = set(variables)
    non_anc: set[tuple[str, str]] = set()
    forbid: set[frozenset[str]] = set()
    require: set[frozenset[str]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"knowledge line {ln}: expected '<cmd> <node> <node>'")
        cmd, a, b = parts
        if a not in known:
            raise InputError(f"knowledge line {ln}: unknown variable {a!r}")
        if b != "*" and b not in known:
            raise InputError(f"knowledge line {ln}: unknown variable {b!r}")
        targets = [v for v in variables if v != a] if b == "*" else [b]
        for t in targets:
            if t == a:
                raise InputError(f"knowledge line {ln}: self-referential pair")
            if cmd == "nonancestor":
                non_anc.add((a, t))
            elif cmd == "forbid":
                forbid.add(frozenset((a, t)))
            elif cmd == "require":
                require.add(frozenset((a, t)))
            else:
                raise InputError(f"knowledge line {ln}: unknown command {cmd!r}")
    return BackgroundKnowledge(non_anc, forbid, require)
