"""Conditional-independence tests behind one interface.

Three deciders: a stratified chi-square (or G-squared) test for categorical
columns, a Fisher-z partial-correlation test for continuous columns, and an
exact oracle that answers from a ground-truth DAG.  ``decider`` builds the
one that FCI's tester asks, by index, for a source and a test selector;
``select_test`` picks a dataset's test from its column kinds.  Each public
test by name, ``chi_square_test``, ``fisher_z_test`` and ``oracle_test``, is
that decider on one query, and all are pure functions of (data, query).
``d_separated`` is ``oracle_test`` on an oracle that observes every node of
a DAG.  Every one of these fronts checks its query with ``_query``, and the
two dataset tests check their columns' kinds with ``select_test``.

Every chi-square statistic comes from one kernel, ``chi_square_batch``, which
scores a batch of same-size conditioning sets, of one (x, y) pair or of a
pair per set, with a single ``np.bincount`` into cells laid out (x, y,
stratum): its work on cells runs along the long stratum axis, and it sums
each set's terms in the order (stratum, x, y), which keeps their bits.  One
scorer sizes and shapes its calls on a count table, for FCI's walks and
score-ahead steps and for ``chi_square_test`` alike, so a query's statistic
is the same to the bit by either road.  ``chi_square_independent`` turns a
statistic into the decision ``chi2_sf(statistic, dof) > alpha`` without the
tail function wherever the statistic clears the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, CountTable, Dataset, distinct_rows
from .errors import DegenerateInputError, InputError, require_alpha
from .graph import GraphKind, MixedGraph, _Unions, bayes_ball_separated, bits, directed_masks, validate
from .tails import chi2_sf, normal_sf

__all__ = [
    "CiTestResult",
    "chi_square_batch",
    "chi_square_independent",
    "chi_square_test",
    "fisher_z_test",
    "fisher_z_columns",
    "CiOracle",
    "oracle_test",
    "d_separated",
    "select_test",
    "decider",
]

PEARSON = "pearson"
GSQUARED = "gsquared"


@dataclass(frozen=True)
class CiTestResult:
    """Outcome of one conditional-independence test."""

    statistic: float
    dof: int
    p_value: float
    independent: bool
    alpha: float


def chi_square_batch(x, rx, y, ry, members, arities, variant: str = PEARSON, weights=None):
    """Statistic and dof of x _||_ y | S for each S in a batch of same-size sets.

    ``x`` and ``y`` hold the row codes of the tested pair, of arities ``rx``
    and ``ry``: one row (shape (n,)) for a pair shared by the whole batch, or
    one row per set (shape (B, n)) for sets of different pairs with those
    arities.  ``members[j]`` holds the row codes of the j-th member of every
    set, one row per set (shape (B, n), or (n,) for a batch of one), and
    ``arities`` (shape (B, k)) their arities.  A set's strata are the
    mixed-radix codes of its members' levels, first member most significant,
    and the sets' strata follow one another on the last axis of the cells
    (x, y, stratum), so one bincount counts the whole batch.  ``weights``
    (B * n, set by set), if given, is how many times each row counts:
    distinct rows weighted by their multiplicities give exactly the
    statistics of the repeated rows, since every count is a float sum of
    integers.  Returns the B statistics (float) and dofs (int), as defined
    in ``chi_square_test``.
    """
    # ufunc methods throughout: their numpy-function wrappers cost more than
    # the arithmetic on the small arrays of a short walk
    add, mul = np.add, np.multiply
    rx, ry = int(rx), int(ry)
    arities = np.asarray(arities, dtype=np.int64)
    rxy = rx * ry
    n_strata = mul.reduce(arities, axis=1)
    first_stratum = add.accumulate(n_strata) - n_strata
    total = int(add.reduce(n_strata))
    # cell (x * ry + y) * total + the set's first stratum + the stratum code
    xy = mul(x, ry, dtype=np.intp)
    xy += y
    xy *= total
    cell = add(xy, first_stratum[:, None], out=xy if xy.ndim == 2 else None)
    if len(members):
        # Horner's rule, in the narrowest type that holds every stratum and radix
        narrow = np.min_scalar_type(int(n_strata.max()))
        radix = arities.astype(narrow)
        stratum = np.array(members[0], narrow, ndmin=2)
        for j in range(1, len(members)):
            stratum *= radix[:, j, None]
            add(stratum, members[j], out=stratum, casting="unsafe")
        cell += stratum
    counts = np.bincount(cell.ravel(), weights, total * rxy).reshape(rx, ry, total)

    # weighted counts are float sums of integers, so every margin is exact
    row = add.reduce(counts, axis=1)  # (rx, strata)
    col = add.reduce(counts, axis=0)  # (ry, strata)
    tot = add.reduce(col, axis=0)
    r_eff = add.reduce(row > 0, axis=0)
    c_eff = add.reduce(col > 0, axis=0)
    informative = (r_eff >= 2) & (c_eff >= 2)
    dof = add.reduceat(np.where(informative, (r_eff - 1) * (c_eff - 1), 0), first_stratum)

    # uninformative strata divide by infinity; their cells, like empty ones, are zeroed below
    expected = mul(row[:, None, :], col[None, :, :], dtype=np.float64)
    expected /= np.where(informative, tot, np.inf)
    empty = expected == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if variant == PEARSON:
            terms = np.subtract(counts, expected)
            terms *= terms
            terms /= expected
        else:
            empty |= counts == 0
            terms = np.divide(counts, expected)
            np.log(terms, out=terms)
            terms *= 2.0 * counts
    terms[empty] = 0.0
    # summed in the order (stratum, x, y): reduceat's sum is not sequential,
    # so only that order keeps the bits; its copy takes the freed cells' memory
    del counts, expected
    return add.reduceat(terms.reshape(rxy, total).T.ravel(), first_stratum * rxy), dof


@lru_cache(maxsize=4096)
def _critical_band(dof: int, alpha: float) -> tuple[float, float]:
    """(lo, hi) about the statistic at which chi2_sf(., dof) falls to alpha.

    Newton steps on log chi2_sf, from the Wilson-Hilferty quantile, bracket
    the crossing to 1e-7 of its value, and the bracket is widened by 4e-7 of
    it on each side.  Outside the band the tail differs from alpha by far
    more than chi2_sf's rounding, so chi2_sf(s, dof) > alpha holds for every
    s <= lo and fails for every s >= hi.
    """
    half = 0.5 * dof
    log_norm = half * math.log(2.0) + math.lgamma(half)
    # z with P(Z > z) = alpha, to 4.5e-4 (Abramowitz & Stegun 26.2.23)
    t = math.sqrt(-2.0 * math.log(min(alpha, 1.0 - alpha)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    h = 2.0 / (9.0 * dof)
    s = dof * max(1.0 - h + math.copysign(z, 0.5 - alpha) * math.sqrt(h), 0.05) ** 3
    # every point is evaluated, so [lo, hi] always holds the crossing; a step
    # that would leave it, and every step after the eleventh, bisects (or
    # doubles while no point has fallen past the crossing)
    lo, hi = 0.0, math.inf
    newton_steps = 11
    while True:
        p = chi2_sf(s, dof)
        if p > alpha:
            lo = s
        else:
            hi = s
        if hi < math.inf and hi - lo <= 1e-7 * hi:
            return lo - 4e-7 * hi, hi + 4e-7 * hi
        nxt = math.nan
        if p > 0.0 and newton_steps:
            newton_steps -= 1
            # past the Newton point by 3e-8 of s, so that once the steps are
            # accurate the next point lies across the crossing
            log_pdf = (half - 1.0) * math.log(s) - 0.5 * s - log_norm
            step = math.log(p / alpha) * math.exp(min(math.log(p) - log_pdf, 700.0))
            nxt = s + step + math.copysign(3e-8 * s, step)
        s = nxt if lo < nxt < hi else (2.0 * lo if hi == math.inf else 0.5 * (lo + hi))


def chi_square_independent(statistic: float, dof: int, alpha: float) -> bool:
    """``chi2_sf(statistic, dof) > alpha``, with zero dof independent; the
    tail function runs only for a statistic inside the critical band."""
    if dof == 0:
        return True
    lo, hi = _critical_band(dof, alpha)
    if statistic <= lo:
        return True
    if statistic >= hi:
        return False
    return chi2_sf(statistic, dof) > alpha


# One cap sizes every kernel call, a walk's batch or a score-ahead call: it
# holds at most _BATCH_CAP rows x sets, where a count table's rows are its
# distinct rows that occur, and at most _BATCH_CAP cells.  At this cap a
# kernel call peaks near 2 MB, and the weights tiled for the longest call
# hold 0.5 MB.
_BATCH_CAP = 1 << 16


def _chi_square_scorer(t: CountTable, variant: str):
    """Batch chi-square scores on the distinct rows of a count table that
    occur, each weighted by its count, and the number of sets in one call.

    The scores map indices (x, y, [S, ...]) to one (statistic, dof) per set;
    they also take sequences x, y with a pair per set.  A batch of one pair
    is scored by runs of equal-size sets, and a pair per set by groups of
    equal (arity x, arity y, |S|), each set with its own pair's rows.
    Either is split into kernel calls of at most _BATCH_CAP cells and
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

    def score(x, y, subsets: list, k: int) -> list[tuple[float, int]]:
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
            out += zip(stats.tolist(), dofs.tolist())
            start = stop
        return out

    def scores(x, y, subsets: list) -> list[tuple[float, int]]:
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

    return scores, max_sets


def _query(x, y, s) -> tuple:
    """The one check every public front makes of its query: x and y are
    distinct and outside the conditioning set ``s``.  Returns ``s`` as a
    tuple that holds each member once, in order."""
    s = tuple(dict.fromkeys(s))
    if x == y:
        raise InputError("x and y must be distinct")
    if x in s or y in s:
        raise InputError("x and y must not appear in the conditioning set")
    return s


def chi_square_test(
    d: Dataset,
    x: str,
    y: str,
    s=(),
    alpha: float = 0.05,
    variant: str = PEARSON,
) -> CiTestResult:
    """Test x independent of y given the joint strata of s.

    The statistic sums the per-stratum Pearson (or likelihood-ratio) statistic
    over strata; each stratum contributes (r'-1)(c'-1) degrees of freedom,
    where r' and c' count rows/columns with nonzero marginals there, and
    strata with fewer than two nonzero rows or columns contribute nothing.
    Zero total degrees of freedom means the query was uninformative and is
    reported as independent.  The query is scored as FCI's chi-square
    decider scores it, on the count table of (x, y, s): the levels that
    occur, so declared arities size nothing, and the strata of s's members,
    first member most significant, or the strata that occur when those
    would pass a kernel call's cap.  ``alpha`` must lie in (0, 1).
    """
    require_alpha(alpha)
    s = _query(x, y, s)
    if variant not in (PEARSON, GSQUARED):
        raise InputError(f"unknown chi-square variant {variant!r}")
    query = Dataset([d.col(name) for name in (x, y, *s)])
    select_test(query, "chi2")
    score, _ = _chi_square_scorer(CountTable.of(query), variant)
    [(statistic, dof)] = score(0, 1, [tuple(range(2, 2 + len(s)))])
    if dof == 0:
        return CiTestResult(0.0, 0, 1.0, True, alpha)
    p = chi2_sf(statistic, dof)
    return CiTestResult(statistic, dof, p, p > alpha, alpha)


def fisher_z_test(d: Dataset, x: str, y: str, s=(), alpha: float = 0.05) -> CiTestResult:
    """Fisher-z test of zero partial correlation for continuous columns.

    The partial correlation comes from inverting the empirical correlation
    submatrix over (x, y, s); the statistic is
    sqrt(n - |s| - 3) * atanh(rho) referred to the standard normal.
    ``alpha`` must lie in (0, 1).
    """
    require_alpha(alpha)
    s = _query(x, y, s)
    query = Dataset([d.col(name) for name in (x, y, *s)])
    select_test(query, "fisherz")
    return fisher_z_columns([c.values for c in query.columns], alpha)


def fisher_z_columns(columns, alpha: float) -> CiTestResult:
    """``fisher_z_test`` on value arrays of equal length: x, y, then s.

    Only the row count is checked; FCI's Fisher-z decider calls this with
    the columns it indexes, whose kinds and alpha were checked once.
    """
    n, k = len(columns[0]), len(columns) - 2
    if n <= k + 3:
        raise InputError(f"need more than |s| + 3 = {k + 3} rows, have {n}")

    mat = np.column_stack(columns)
    sd = mat.std(axis=0)
    if np.any(sd == 0):
        raise DegenerateInputError("constant column in correlation submatrix")
    corr = np.corrcoef(mat, rowvar=False)
    if k:
        try:
            precision = np.linalg.inv(corr)
        except np.linalg.LinAlgError:
            raise DegenerateInputError("singular correlation submatrix") from None
        if not np.isfinite(precision).all() or precision[0, 0] <= 0 or precision[1, 1] <= 0:
            raise DegenerateInputError("singular correlation submatrix")
        rho = -precision[0, 1] / math.sqrt(precision[0, 0] * precision[1, 1])
    else:
        rho = corr[0, 1]
    rho = float(np.clip(rho, -1.0, 1.0))

    scale = math.sqrt(n - k - 3)
    if abs(rho) >= 1.0:
        statistic = math.inf
        p = 0.0
    else:
        statistic = abs(scale * 0.5 * math.log((1.0 + rho) / (1.0 - rho)))
        p = 2.0 * normal_sf(statistic)
    # dof records the effective sample size entering the z scale
    return CiTestResult(statistic, n - k - 3, p, p > alpha, alpha)


@dataclass(frozen=True)
class CiOracle:
    """Population-limit test: answers queries by d-separation in a true DAG.

    Only ``observed`` nodes, which must be distinct, may be queried; the rest
    act as latent variables.  The truth must pass ``graph.validate`` as a DAG
    (directed edges only, no directed cycle).  Its parent and child sets are
    compiled at construction to bitmasks, relabelled so that the node at
    position i of ``observed`` is node i, and the latent nodes follow in
    truth order: a set of observed positions is then its own conditioning
    mask.  ``parents`` and ``children`` map a node mask to the union of its
    nodes' parents (children), filled per mask as queries reach it and kept
    for the oracle's life, and ``graph.bayes_ball_separated`` on the two
    maps answers a query of positions.  The oracle answers from the truth as
    it was then: later edits to ``truth`` do not reach it.
    """

    truth: MixedGraph
    observed: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)
    parents: _Unions = field(init=False, repr=False, compare=False)
    children: _Unions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.truth.kind is not GraphKind.DAG:
            raise InputError("oracle truth must be a DAG")
        problems = validate(self.truth)
        if problems:
            raise InputError(f"oracle truth is not a valid DAG: {problems[0]}")
        observed = tuple(self.observed)
        order = [self.truth.index(name) for name in observed]
        if len(set(order)) != len(order):
            raise InputError(f"duplicate observed nodes: {sorted(observed)}")
        order += sorted(set(range(self.truth.n_nodes)) - set(order))
        label = {old: new for new, old in enumerate(order)}

        def relabel(mask: int) -> int:
            return sum(1 << label[v] for v in bits(mask))

        parents, children = directed_masks(self.truth)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "_position", {name: i for i, name in enumerate(observed)})
        object.__setattr__(self, "parents", _Unions([relabel(parents[old]) for old in order]))
        object.__setattr__(self, "children", _Unions([relabel(children[old]) for old in order]))


def oracle_test(o: CiOracle, x: str, y: str, s=()) -> bool:
    """True iff x and y are d-separated given s in the oracle's truth DAG."""
    s = _query(x, y, s)
    position = o._position
    for name in (x, y, *s):
        if name not in position:
            raise InputError(f"{name!r} is not an observed node of the oracle")
    z = sum(1 << position[name] for name in s)
    return bayes_ball_separated(o.parents, o.children, position[x], position[y], z)


def d_separated(g: MixedGraph, x: str | int, y: str | int, z=()) -> bool:
    """d-separation of ``x`` and ``y`` given ``z`` in a DAG, nodes named or
    indexed: ``oracle_test`` on an oracle that observes every node of ``g``.

    True iff every path between them is blocked: a non-collider blocks when it
    is in ``z``; a collider blocks unless it or one of its descendants is in
    ``z``.  ``g`` must pass ``CiOracle``'s checks.  The oracle, and so its
    masks, is built per call; build one ``CiOracle`` for many queries.
    """
    oracle = CiOracle(g, g.names)
    x, y, *z = (g.names[g.index(v)] for v in (x, y, *z))
    return oracle_test(oracle, x, y, z)


# the selectors a dataset takes; "oracle" selects a CiOracle source
_DATASET_TESTS = ("auto", "chi2", "g2", "fisherz")
_SELECTORS = (*_DATASET_TESTS, "oracle")


def _require_selector(selector, known: tuple[str, ...] = _SELECTORS) -> None:
    if selector not in known:
        raise InputError(f"unknown test selector {selector!r}: choose one of {', '.join(known)}")


def select_test(source: Dataset | CountTable, selector: str) -> str:
    """The dataset test, chi2, g2 or fisherz, that ``selector`` picks for the
    source's columns, checked before any query runs.

    ``auto`` picks chi-square for all-categorical columns and Fisher-z for
    all-continuous ones; an explicit test must fit every column.  A count
    table's columns are categorical.  Any other selector is an InputError.
    """
    if selector == "oracle":
        raise InputError("oracle test selected but source is a dataset")
    _require_selector(selector, _DATASET_TESTS)
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


def decider(source: Dataset | CountTable | CiOracle, selector: str, alpha: float):
    """The CI decision for this source and test selector, and its batch size.

    Chi-square runs on the source's count table: its decision maps indices
    (x, y, [S, ...]) to one (independent, uninformative) pair per set, the
    scores of ``_chi_square_scorer`` read at ``alpha``, and comes with the
    number of sets that fill one kernel call, by which FCI's tester sizes
    its batches and picks the walks to score ahead; it also takes sequences
    x, y with a pair per set, the queries of a score-ahead step.  The oracle
    and Fisher-z answer one query (x, y, z) of indices, z the bitmask of S,
    with a bool (batch size None): the oracle is Bayes-ball on its own
    masks.  An oracle source uses the oracle under any known selector; a
    dataset's test is chosen by ``select_test``.  An unknown selector is an
    InputError for either.
    """
    if isinstance(source, CiOracle):
        _require_selector(selector)
        return partial(bayes_ball_separated, source.parents, source.children), None
    test = select_test(source, selector)
    if test == "fisherz":
        values = [c.values for c in source.columns]

        def fisher_z(x: int, y: int, z: int) -> bool:
            columns = [values[x], values[y], *(values[v] for v in bits(z))]
            return fisher_z_columns(columns, alpha).independent

        return fisher_z, None
    table = source if isinstance(source, CountTable) else CountTable.of(source)
    score, max_sets = _chi_square_scorer(table, GSQUARED if test == "g2" else PEARSON)

    def decide(x, y, subsets: list) -> list[tuple[bool, bool]]:
        return [(chi_square_independent(stat, dof, alpha), dof == 0) for stat, dof in score(x, y, subsets)]

    return decide, max_sets
