"""FCI: constraint-based selection of a PAG under background knowledge.

Pipeline: skeleton search by level-wise conditional-independence testing,
collider orientation from separating sets, Possible-D-SEP edge pruning, and
the complete circle-resolving rule set (R1-R4, R8-R10; the selection-bias
rules R5-R7 never apply because undirected edges are out of scope).

Everything iterates in node order with subsets in lexicographic order, so a
run is a deterministic function of its inputs.

Each CI walk, one ordered pair and its candidate sets, stops at the first
independence.  ``CiTester`` picks how it walks from its decider when it is
built: chi-square scores a walk's uncached sets in batches of growing size,
while the oracle and Fisher-z answer one query at a time by column index (the
oracle by observed position, mapped to its truth DAG once), in a plain loop.

A chi-square tester scores ahead: at the start of each skeleton depth, and
once before Possible-D-SEP, it is given every walk that stage may run (an
ordered pair and its sets, from the adjacency at the start of the depth, or
from the fixed Possible-D-SEP sets) and scores the sets of all the short
walks, those too short to fill a batch, in a few kernel calls.  The walks
then run in order as before and stop at their first independence; a walk
takes a score-ahead result only for its own query in its own orientation, so
the graph, the separating sets and every counter are those of a run without
the step.
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
    fisher_z_test,
    oracle_test,
)
from .data import CATEGORICAL, CONTINUOUS, CountTable, Dataset
from .errors import (
    InputError,
    InternalConsistencyError,
    KnowledgeInconsistencyError,
)
from .graph import BackgroundKnowledge, GraphKind, Mark, MixedGraph

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

RULE_ORDER = ("R1", "R2", "R3", "R4", "R8", "R9", "R10")


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


# Batch sizes count rows x sets, where a count table's rows are its distinct
# rows that occur: a walk's first batch holds about _BATCH_START, each later
# one four times the last, up to _BATCH_CAP, which also bounds the cells of
# one kernel call.  At this cap a kernel call peaks near 2 MB, and the
# weights tiled for the longest call hold 0.5 MB.  A score-ahead kernel call
# holds at most _AHEAD_CAP: its sets come from many short walks, and at a
# quarter of _BATCH_START its temporaries are 4x smaller for 5% more calls
# on 8-column data.
_BATCH_START = 1 << 14
_BATCH_CAP = 1 << 16
_AHEAD_CAP = _BATCH_START // 4


class CiTester:
    """Caching adapter from (x, y, S) index queries to a CI decision.

    Wraps a dataset-backed test or an oracle, chosen once at construction;
    counts evaluations, cache hits and zero-dof (uninformative) results.  A
    query's cache key is one integer: the bitmask of S above the pair.

    The decider also picks the walk of ``first_independent``.  Chi-square,
    which scores many sets in one kernel call, walks in batches of growing
    size.  The oracle and Fisher-z answer one query at a time, by index, so
    their walk is a plain loop over the sets: a cache lookup, else one
    answer, then the counters, up to the first independence.

    A chi-square tester scores ahead (``score_ahead``): the uncached sets of
    every walk of a stage that has fewer than ``_first_batch`` of them are
    scored before the walks run, each unordered query once, in the
    orientation of the first walk that asks for it.  A walk uses such a
    result only for the same query in the same orientation, since reversing
    the pair can change the last bit of a statistic, and counts it then as a
    fresh test.  Results no walk used are dropped at the next stage, so the
    counters and the cache see exactly the sets the walks use.
    """

    def __init__(
        self,
        source: Dataset | CountTable | CiOracle,
        cfg: FciConfig,
        diagnostics: Diagnostics | None = None,
    ):
        self.cfg = cfg
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self._cache: dict[int, bool] = {}
        if isinstance(source, CiOracle):
            self.names = tuple(source.observed)
        elif isinstance(source, (Dataset, CountTable)):
            self.names = tuple(source.names)
        else:
            raise InputError(f"cannot test on source of type {type(source).__name__}")
        self._bits = len(self.names).bit_length()
        self._decide, rows = _decider(source, cfg)
        self._batched = rows is not None
        # this stage's score-ahead results: (independent, uninformative) by
        # cache key, shifted left one bit for the orientation (x > y)
        self._ahead: dict[int, tuple[bool, bool]] = {}
        self._first_batch = max(1, _BATCH_START // rows) if rows else 1
        self._max_batch = max(1, _BATCH_CAP // rows) if rows else 1

    def __call__(self, x: int, y: int, s: tuple[int, ...]) -> bool:
        return self.first_independent(x, y, (tuple(s),)) is not None

    def score_ahead(self, walks) -> None:
        """Score the sets of the short walks of a stage before the walks run.

        ``walks`` yields (x, y, sets) for each walk the stage may run, in
        order.  A walk with fewer than ``_first_batch`` sets not in the cache
        would score them in a kernel call of its own that they under-fill;
        these sets are scored together, in as few calls as their arities
        allow.  A longer walk fills its own first batch and is left to run.
        A query already taken from an earlier walk, in either orientation, is
        not taken again.  The last stage's unused results are dropped.  A
        tester that goes one set at a time returns at once, without reading
        ``walks``.
        """
        if not self._batched:
            return
        self._ahead = {}
        cache, bits = self._cache, self._bits
        shift = 2 * bits
        taken: dict[int, int] = {}  # cache key -> key with its orientation bit
        xs, ys, sets = [], [], []
        for x, y, subsets in walks:
            pair = (x << bits | y) if x < y else (y << bits | x)
            flip = x > y
            first, keys = [], []
            for s in subsets:
                key = pair
                for v in s:
                    key |= 1 << (v + shift)
                if key not in cache:
                    first.append(s)
                    keys.append(key)
                    if len(first) == self._first_batch:
                        break
            else:
                # a short walk: on its own, its sets would under-fill a batch
                for s, key in zip(first, keys):
                    if key not in taken:
                        taken[key] = key << 1 | flip
                        xs.append(x)
                        ys.append(y)
                        sets.append(s)
        if sets:
            self._ahead = dict(zip(taken.values(), self._evaluate(xs, ys, sets)))

    def first_independent(self, x: int, y: int, subsets):
        """The first set S, in the order given, with x _||_ y | S, or None.

        The walk stops at the first independence: the counters and the cache
        see exactly the sets up to it, as in a one-at-a-time walk.
        """
        if self._batched:
            return self._walk_batches(x, y, subsets)
        diag, cache, answer = self.diagnostics, self._cache, self._decide
        shift = 2 * self._bits
        pair = (x << self._bits | y) if x < y else (y << self._bits | x)
        for s in subsets:
            key = pair
            for v in s:
                key |= 1 << (v + shift)
            known = cache.get(key)
            if known is None:
                try:
                    known = answer(x, y, s)
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

        Sets are looked up in the cache, then among this stage's score-ahead
        results, in order; the others are evaluated in batches of growing
        size, then resolved in order, and results computed past the stop are
        dropped.
        """
        diag = self.diagnostics
        cache, ahead = self._cache, self._ahead
        shift = 2 * self._bits
        pair = (x << self._bits | y) if x < y else (y << self._bits | x)
        flip = x > y
        size = self._first_batch
        subsets = iter(subsets)
        while True:
            # (set, key, cached decision, score-ahead result) per set
            block, pending = [], []
            for s in subsets:
                key = pair
                for v in s:
                    key |= 1 << (v + shift)
                known = cache.get(key)
                if known is None:
                    scored = ahead.get(key << 1 | flip) if ahead else None
                    block.append((s, key, None, scored))
                    if scored is None:
                        pending.append(s)
                        if len(pending) == size:
                            break
                    elif scored[0]:
                        break
                else:
                    block.append((s, key, known, None))
                    if known:
                        break
            if not block:
                return None
            results = iter(self._evaluate(x, y, pending) if pending else ())
            for s, key, known, scored in block:
                if known is None:
                    known, uninformative = scored or next(results)
                    diag.tests_run += 1
                    diag.dof_zero_warnings += uninformative
                    cache[key] = known
                else:
                    diag.cache_hits += 1
                if known:
                    return s
            # score-ahead took only sets that the first block has read
            ahead = None
            size = min(4 * size, self._max_batch)

    def _evaluate(self, x, y, subsets: list) -> list[tuple[bool, bool]]:
        """The decider's answers for one pair (int x, y) or for a pair per
        set (lists x, y), with a failure naming the first query."""
        try:
            return self._decide(x, y, subsets)
        except Exception as exc:
            self._raise_naming(exc, x, y, subsets)

    def _raise_naming(self, exc: Exception, x, y, subsets: list):
        """Raise ``exc`` again, as its own type, with the first query named."""
        names = self.names
        if not isinstance(x, int):
            x, y = x[0], y[0]
        query = f"{names[x]} _||_ {names[y]} | {sorted(names[v] for v in subsets[0])}"
        if len(subsets) > 1:
            query += f" (or one of the {len(subsets) - 1} sets after it)"
        try:
            wrapped = type(exc)(f"{exc} [while testing {query}]")
        except TypeError:
            raise
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
    """The CI decision for this source and test selector, and its batch rows.

    Chi-square runs on the source's count table: its decision maps indices
    (x, y, [S, ...]) to one (independent, uninformative) pair per set, scored
    in few kernel calls, and comes with the number of distinct rows it
    counts, by which the tester sizes its batches; it also takes lists x, y
    with a pair per set, the queries of a score-ahead step.  The oracle and
    Fisher-z answer one query (x, y, S) of indices with a bool (rows None).
    An oracle source always uses the oracle; a dataset's test is chosen by
    ``select_test``.
    """
    if isinstance(source, CiOracle):
        return source.separated, None
    test = select_test(source, cfg.test)
    if test == "fisherz":
        names = tuple(source.names)

        def fisher_z(x: int, y: int, s) -> bool:
            s = tuple(names[v] for v in s)
            return fisher_z_test(source, names[x], names[y], s, cfg.alpha).independent

        return fisher_z, None
    table = source if isinstance(source, CountTable) else CountTable.of(source)
    return _chi_square_decider(table, GSQUARED if test == "g2" else PEARSON, cfg.alpha)


def _chi_square_decider(t: CountTable, variant: str, alpha: float):
    """Batch chi-square decisions on the distinct rows of a count table that
    occur, each weighted by its count, and their number.

    A walk's batch is scored by runs of equal-size sets; score-ahead queries
    by groups of equal (arity x, arity y, |S|), each set with its own pair's
    rows.  Either is split into kernel calls of at most _BATCH_CAP cells and
    _BATCH_CAP rows, or _AHEAD_CAP for score-ahead groups.  A call's weights
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
    tiled = weights

    def score(x, y, subsets: list, k: int, cap: int) -> list[tuple[bool, bool]]:
        # x, y: the pair's indices, or index arrays with a pair per set
        nonlocal tiled
        shared = isinstance(x, int)
        rx, ry = (arities[x], arities[y]) if shared else (arities[x[0]], arities[y[0]])
        sets = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
        set_arity = arity[sets]
        cells = np.cumsum(rx * ry * set_arity.prod(axis=1))
        max_sets = max(1, cap // rows)
        out = []
        start = 0
        while start < len(sets):
            room = cap + (cells[start - 1] if start else 0)
            stop = max(start + 1, int(np.searchsorted(cells, room, side="right")))
            stop = min(stop, start + max_sets)
            if len(tiled) < (stop - start) * rows:
                tiled = np.tile(weights, stop - start)
            chunk = sets[start:stop]
            cx, cy = (x, y) if shared else (x[start:stop], y[start:stop])
            stats, dofs = chi_square_batch(
                codes[cx], rx, codes[cy], ry,
                [codes[chunk[:, j]] for j in range(k)],
                set_arity[start:stop], variant, tiled[: (stop - start) * rows],
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
                out += score(x, y, list(run), k, _BATCH_CAP)
            return out

        def group(i):
            return arities[x[i]], arities[y[i]], len(subsets[i])

        out = [None] * len(subsets)
        for (_, _, k), run in groupby(sorted(range(len(subsets)), key=group), group):
            run = list(run)
            sets = [subsets[i] for i in run]
            results = score(np.take(x, run), np.take(y, run), sets, k, _AHEAD_CAP)
            for i, result in zip(run, results):
                out[i] = result
        return out

    return decide, rows


def _first_independent(test, x: int, y: int, subsets):
    """``test.first_independent`` of a CiTester; any other callable test is
    asked one set at a time."""
    if isinstance(test, CiTester):
        return test.first_independent(x, y, subsets)
    return next((s for s in subsets if test(x, y, s)), None)


def _walk_stage(test, walks, graph: MixedGraph, sepsets: SepSetMap) -> None:
    """Run a stage's walks in order, removing each edge at its walk's first
    independence and recording the set.

    ``walks`` is a function of no arguments giving a generator of
    (x, y, sets) that reads the graph as it goes.  A CiTester is first given
    the walks read before any edge goes, to score ahead.
    """
    if isinstance(test, CiTester):
        test.score_ahead(walks())
    for x, y, subsets in walks():
        s = _first_independent(test, x, y, subsets)
        if s is not None:
            graph.remove_edge(x, y)
            sepsets.set(x, y, s)


# -- skeleton ------------------------------------------------------------------


def _knowledge_index_sets(knowledge: BackgroundKnowledge | None, g: MixedGraph):
    forbidden: set[tuple[int, int]] = set()
    required: set[tuple[int, int]] = set()
    if knowledge is not None:
        for pair in knowledge.forbidden_adjacencies:
            a, b = sorted(g.index(n) for n in pair)
            forbidden.add((a, b))
        for pair in knowledge.required_adjacencies:
            a, b = sorted(g.index(n) for n in pair)
            required.add((a, b))
    return forbidden, required


def skeleton_search(
    test,
    nodes,
    cfg: FciConfig | None = None,
    knowledge: BackgroundKnowledge | None = None,
    diagnostics: Diagnostics | None = None,
) -> tuple[MixedGraph, SepSetMap]:
    """Level-wise edge removal from the complete circle graph.

    For depth k = 0, 1, ... each ordered adjacent pair (x, y) is tested
    against every size-k subset of adj(x) minus y, in lexicographic order; the
    first independence removes the edge and records the subset.  adj(x) is
    read when the pair's walk starts, after the removals before it.
    """
    cfg = cfg or FciConfig()
    names = tuple(nodes)
    if len(names) < 2:
        raise InputError("need at least two variables")
    diag = diagnostics if diagnostics is not None else Diagnostics()
    g = MixedGraph(names, GraphKind.PAG)
    n = g.n_nodes
    seps = SepSetMap()
    forbidden, required = _knowledge_index_sets(knowledge, g)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in forbidden:
                seps.set(i, j, frozenset(), from_knowledge=True)
            else:
                g.add_circle_edge(i, j)
    diag.stage_edge_counts.setdefault("initial", g.n_edges)

    def walks():
        for x in range(n):
            for y in list(g.neighbors(x)):
                if not g.adjacent(x, y) or SepSetMap._key(x, y) in required:
                    continue
                others = [v for v in g.neighbors(x) if v != y]
                if len(others) >= depth:
                    yield x, y, combinations(others, depth)

    depth = 0
    while True:
        if cfg.max_cond_size is not None and depth > cfg.max_cond_size:
            break
        degrees = [len(g.neighbors(i)) for i in range(n)]
        if max(degrees, default=0) - 1 < depth:
            break
        _walk_stage(test, walks, g, seps)
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
    for z in range(g.n_nodes):
        nbrs = g.neighbors(z)
        for x, y in combinations(nbrs, 2):
            if g.adjacent(x, y):
                continue
            entry = sepsets.get(x, y)
            if entry is None:
                raise InternalConsistencyError(
                    f"no separating set recorded for non-adjacent pair "
                    f"({g.names[x]!r}, {g.names[y]!r})"
                )
            if entry.from_knowledge:
                continue
            if z in entry.nodes:
                continue
            for other in (x, y):
                cur = g.mark_at(z, other)
                if cur is Mark.ARROW:
                    continue
                if cur is Mark.TAIL:
                    diag.collider_conflicts += 1
                    continue
                g.set_mark(z, other, Mark.ARROW)
                diag.fired("R0")


# -- possible-d-sep pruning --------------------------------------------------------


def _possible_dsep_set(g: MixedGraph, x: int) -> list[int]:
    """Nodes reachable from x along paths whose every inner node is a collider
    there or adjacent to both its path neighbors."""
    found: set[int] = set()
    seen: set[tuple[int, int]] = set()
    queue: list[tuple[int, int]] = []
    for w in g.neighbors(x):
        found.add(w)
        seen.add((x, w))
        queue.append((x, w))
    while queue:
        a, b = queue.pop(0)
        for c in g.neighbors(b):
            if c == a or (b, c) in seen:
                continue
            collider = g.mark_at(b, a) is Mark.ARROW and g.mark_at(b, c) is Mark.ARROW
            if collider or g.adjacent(a, c):
                seen.add((b, c))
                found.add(c)
                queue.append((b, c))
    found.discard(x)
    return sorted(found)


def possible_dsep_prune(
    g: MixedGraph,
    sepsets: SepSetMap,
    test,
    cfg: FciConfig | None = None,
    knowledge: BackgroundKnowledge | None = None,
    diagnostics: Diagnostics | None = None,
) -> tuple[MixedGraph, SepSetMap]:
    """Retest every remaining edge against subsets of Possible-D-SEP sets.

    Performs a provisional collider pass to define the sets, removes edges
    on newly found independencies (recording the sets), then resets all marks
    to circles.  Each ordered pair's subsets of its set, of size 0, 1, ... up
    to the size limit, are one walk, which stops at the first independence.
    """
    cfg = cfg or FciConfig()
    diag = diagnostics if diagnostics is not None else Diagnostics()
    work = g.copy()
    _reset_marks(work)
    _orient_colliders_inplace(work, sepsets, Diagnostics())
    _, required = _knowledge_index_sets(knowledge, work)
    pds = {x: _possible_dsep_set(work, x) for x in range(work.n_nodes)}

    def walks():
        for x in range(work.n_nodes):
            for y in list(work.neighbors(x)):
                if not work.adjacent(x, y) or SepSetMap._key(x, y) in required:
                    continue
                candidates = [v for v in pds[x] if v != y]
                limit = len(candidates)
                if cfg.max_cond_size is not None:
                    limit = min(limit, cfg.max_cond_size)
                # one walk through the subsets of size 0, 1, ..., limit
                yield x, y, chain.from_iterable(
                    map(partial(combinations, candidates), range(limit + 1))
                )

    _walk_stage(test, walks, work, sepsets)
    _reset_marks(work)
    diag.stage_edge_counts.setdefault("post_possible_dsep", work.n_edges)
    return work, sepsets


def _reset_marks(g: MixedGraph) -> None:
    for i, j in g.edge_mark_pairs():
        g.set_mark(i, j, Mark.CIRCLE)
        g.set_mark(j, i, Mark.CIRCLE)


# -- orientation rules ---------------------------------------------------------------


def _orient(g: MixedGraph, at: int, other: int, mark: Mark, rule: str, diag: Diagnostics) -> bool:
    cur = g.mark_at(at, other)
    if cur is mark:
        return False
    if cur is not Mark.CIRCLE:
        raise KnowledgeInconsistencyError(
            f"rule {rule} wants {mark.value!r} at {g.names[at]!r} on edge "
            f"{g.names[at]!r}--{g.names[other]!r} but found {cur.value!r}"
        )
    g.set_mark(at, other, mark)
    diag.fired(rule)
    return True


def _apply_knowledge_marks(
    g: MixedGraph, knowledge: BackgroundKnowledge, diag: Diagnostics
) -> None:
    pairs = sorted(
        (g.index(a), g.index(b)) for (a, b) in knowledge.non_ancestor_pairs
    )
    for ai, bi in pairs:
        if not g.adjacent(ai, bi):
            continue
        cur = g.mark_at(ai, bi)
        if cur is Mark.TAIL:
            raise KnowledgeInconsistencyError(
                f"{g.names[ai]!r} is declared a non-ancestor of {g.names[bi]!r} "
                f"but the edge carries a tail at {g.names[ai]!r}"
            )
        if cur is Mark.CIRCLE:
            g.set_mark(ai, bi, Mark.ARROW)
            diag.fired("knowledge")


def _rule_r1(g: MixedGraph, diag: Diagnostics) -> bool:
    # a *-> b o-* c with a, c non-adjacent  =>  a *-> b -> c
    changed = False
    for b in range(g.n_nodes):
        nbrs = g.neighbors(b)
        for a in nbrs:
            if g.mark_at(b, a) is not Mark.ARROW:
                continue
            for c in nbrs:
                if c == a or g.adjacent(a, c):
                    continue
                if g.mark_at(b, c) is not Mark.CIRCLE:
                    continue
                changed |= _orient(g, b, c, Mark.TAIL, "R1", diag)
                changed |= _orient(g, c, b, Mark.ARROW, "R1", diag)
    return changed


def _rule_r2(g: MixedGraph, diag: Diagnostics) -> bool:
    # a -> b *-> c  or  a *-> b -> c, with a *-o c  =>  a *-> c
    changed = False
    for a in range(g.n_nodes):
        for c in g.neighbors(a):
            if g.mark_at(c, a) is not Mark.CIRCLE:
                continue
            for b in g.neighbors(a):
                if b == c or not g.adjacent(b, c):
                    continue
                a_to_b = g.mark_at(a, b) is Mark.TAIL and g.mark_at(b, a) is Mark.ARROW
                b_into_c = g.mark_at(c, b) is Mark.ARROW
                b_to_c = g.mark_at(b, c) is Mark.TAIL and g.mark_at(c, b) is Mark.ARROW
                a_into_b = g.mark_at(b, a) is Mark.ARROW
                if (a_to_b and b_into_c) or (a_into_b and b_to_c):
                    changed |= _orient(g, c, a, Mark.ARROW, "R2", diag)
                    break
    return changed


def _rule_r3(g: MixedGraph, diag: Diagnostics) -> bool:
    # a *-> b <-* c, a *-o d o-* c, a, c non-adjacent, d *-o b  =>  d *-> b
    changed = False
    for b in range(g.n_nodes):
        for d in g.neighbors(b):
            if g.mark_at(b, d) is not Mark.CIRCLE:
                continue
            shared = [v for v in g.neighbors(b) if v != d and g.adjacent(d, v)]
            for a, c in combinations(shared, 2):
                if g.adjacent(a, c):
                    continue
                if g.mark_at(b, a) is not Mark.ARROW or g.mark_at(b, c) is not Mark.ARROW:
                    continue
                if g.mark_at(d, a) is not Mark.CIRCLE or g.mark_at(d, c) is not Mark.CIRCLE:
                    continue
                changed |= _orient(g, b, d, Mark.ARROW, "R3", diag)
                break
    return changed


def _rule_r4(g: MixedGraph, sepsets: SepSetMap | None, diag: Diagnostics) -> bool:
    # Discriminating path <t, ..., a, b, c> for b: every node strictly between
    # t and b is a collider on the path and a parent of c; t, c non-adjacent.
    # If b lies in sepset(t, c): b -> c; otherwise a <-> b <-> c.
    changed = False
    for c in range(g.n_nodes):
        for b in g.neighbors(c):
            if g.mark_at(b, c) is not Mark.CIRCLE:
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
                diag.notes.append(
                    f"R4 skipped: no tested separating set for "
                    f"({g.names[t]!r}, {g.names[c]!r})"
                )
                continue
            if b in entry.nodes:
                changed |= _orient(g, b, c, Mark.TAIL, "R4", diag)
                changed |= _orient(g, c, b, Mark.ARROW, "R4", diag)
            else:
                changed |= _orient(g, a, b, Mark.ARROW, "R4", diag)
                changed |= _orient(g, b, a, Mark.ARROW, "R4", diag)
                changed |= _orient(g, b, c, Mark.ARROW, "R4", diag)
                changed |= _orient(g, c, b, Mark.ARROW, "R4", diag)
    return changed


def _find_discriminating_path(g: MixedGraph, b: int, c: int) -> tuple[int, int] | None:
    """First (t, a) such that <t, ..., a, b, c> discriminates b against c."""
    # Depth-first over path suffixes <head, ..., b, c>; extending past a head
    # requires it to be a collider on the path and a parent of c.
    stack: list[tuple[int, tuple[int, ...]]] = []
    for a in sorted(g.neighbors(b)):
        if a == c:
            continue
        stack.append((a, (a, b, c)))
    while stack:
        head, path = stack.pop()
        nxt = path[1]  # node after head on the path
        if len(path) >= 4 and not g.adjacent(head, c):
            return head, path[-3]
        # head must qualify as an inner collider-parent to extend further
        if not (
            g.adjacent(head, c)
            and g.mark_at(head, c) is Mark.TAIL
            and g.mark_at(c, head) is Mark.ARROW
            and g.mark_at(head, nxt) is Mark.ARROW
        ):
            continue
        for p in sorted(g.neighbors(head)):
            if p in path:
                continue
            if g.mark_at(head, p) is not Mark.ARROW:
                continue
            stack.append((p, (p,) + path))
    return None


def _pd_edge(g: MixedGraph, frm: int, to: int) -> bool:
    # potentially directed out of frm: no arrow back at frm, no tail at to
    return g.mark_at(frm, to) is not Mark.ARROW and g.mark_at(to, frm) is not Mark.TAIL


def _uncovered_pd_path_exists(g: MixedGraph, a: int, first: int, target: int) -> bool:
    """Uncovered potentially directed path <a, first, ..., target>."""
    if not _pd_edge(g, a, first):
        return False
    if first == target:
        return True
    stack: list[tuple[int, int, frozenset[int]]] = [(first, a, frozenset((a, first)))]
    while stack:
        cur, prev, onpath = stack.pop()
        for nxt in g.neighbors(cur):
            if nxt in onpath:
                continue
            if g.adjacent(prev, nxt):  # covered triple
                continue
            if not _pd_edge(g, cur, nxt):
                continue
            if nxt == target:
                return True
            stack.append((nxt, cur, onpath | {nxt}))
    return False


def _rule_r8(g: MixedGraph, diag: Diagnostics) -> bool:
    # a -> b -> c  or  a -o b -> c, with a o-> c  =>  a -> c
    changed = False
    for a in range(g.n_nodes):
        for c in g.neighbors(a):
            if not (g.mark_at(a, c) is Mark.CIRCLE and g.mark_at(c, a) is Mark.ARROW):
                continue
            for b in g.neighbors(a):
                if b == c or not g.adjacent(b, c):
                    continue
                if not (g.mark_at(b, c) is Mark.TAIL and g.mark_at(c, b) is Mark.ARROW):
                    continue
                if g.mark_at(a, b) is Mark.TAIL and g.mark_at(b, a) in (
                    Mark.ARROW,
                    Mark.CIRCLE,
                ):
                    changed |= _orient(g, a, c, Mark.TAIL, "R8", diag)
                    break
    return changed


def _rule_r9(g: MixedGraph, diag: Diagnostics) -> bool:
    # a o-> c with an uncovered potentially directed path <a, b, ..., c>,
    # b not adjacent to c  =>  a -> c
    changed = False
    for a in range(g.n_nodes):
        for c in g.neighbors(a):
            if not (g.mark_at(a, c) is Mark.CIRCLE and g.mark_at(c, a) is Mark.ARROW):
                continue
            for b in g.neighbors(a):
                if b == c or g.adjacent(b, c):
                    continue
                if _uncovered_pd_path_exists(g, a, b, c):
                    changed |= _orient(g, a, c, Mark.TAIL, "R9", diag)
                    break
    return changed


def _rule_r10(g: MixedGraph, diag: Diagnostics) -> bool:
    # a o-> c, b -> c <- t, uncovered pd paths p1: a..b and p2: a..t whose
    # first steps differ and are non-adjacent  =>  a -> c
    changed = False
    for c in range(g.n_nodes):
        parents = [
            v
            for v in g.neighbors(c)
            if g.mark_at(v, c) is Mark.TAIL and g.mark_at(c, v) is Mark.ARROW
        ]
        if len(parents) < 2:
            continue
        for a in g.neighbors(c):
            if not (g.mark_at(a, c) is Mark.CIRCLE and g.mark_at(c, a) is Mark.ARROW):
                continue
            done = False
            for b, t in combinations([p for p in parents if p != a], 2):
                first_b = {
                    m for m in g.neighbors(a) if m != c and _uncovered_pd_path_exists(g, a, m, b)
                }
                first_t = {
                    m for m in g.neighbors(a) if m != c and _uncovered_pd_path_exists(g, a, m, t)
                }
                for mu in sorted(first_b):
                    for om in sorted(first_t):
                        if mu != om and not g.adjacent(mu, om):
                            changed |= _orient(g, a, c, Mark.TAIL, "R10", diag)
                            done = True
                            break
                    if done:
                        break
                if done:
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
    g = orient_colliders(g, seps, diag)
    if cfg.enable_possible_dsep:
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
