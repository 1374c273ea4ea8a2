"""Conditional-independence tests behind one interface.

Three deciders: a stratified chi-square (or G-squared) test for categorical
columns, a Fisher-z partial-correlation test for continuous columns, and an
exact oracle that answers from a ground-truth DAG.  Tests are pure functions
of (dataset, query).

Every chi-square statistic comes from one kernel, ``chi_square_batch``, which
scores a batch of same-size conditioning sets, of one (x, y) pair or of a
pair per set, with a single ``np.bincount`` into cells laid out (x, y,
stratum): its work on cells runs along the long stratum axis, and it sums
each set's terms in the order (stratum, x, y), which keeps their bits.
``chi_square_test`` is that kernel on one query, scored on the levels and
strata that occur in its columns, and ``chi_square_independent``
turns a statistic into the decision ``chi2_sf(statistic, dof) > alpha``
without the tail function wherever the statistic clears the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, CountTable, Dataset, distinct_rows
from .errors import DegenerateInputError, InputError
# d_separated is not called here, but stays importable as
# pagaudit.citests.d_separated, a name the benchmark's tracer wraps
from .graph import (  # noqa: F401
    GraphKind,
    MixedGraph,
    bayes_ball_separated,
    bits,
    d_separated,
    directed_masks,
    validate,
)
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
    reported as independent.  The cells are those of the levels and strata
    that occur: the distinct rows of (x, y, s), weighted by their counts,
    with s's members as one column of the strata that occur, so declared
    arities, however large, size nothing.
    """
    s = tuple(s)
    if x == y:
        raise InputError("x and y must be distinct")
    if x in s or y in s:
        raise InputError("x and y must not appear in the conditioning set")
    if d.n == 0:
        raise InputError("empty dataset")
    if variant not in (PEARSON, GSQUARED):
        raise InputError(f"unknown chi-square variant {variant!r}")
    for name in (x, y, *s):
        if d.col(name).kind != CATEGORICAL:
            raise InputError(f"chi-square test needs categorical columns, {name!r} is not")
    # a member named twice splits no stratum further
    t = CountTable.of(Dataset([d.col(name) for name in dict.fromkeys((x, y, *s))]))
    strata, stratum = distinct_rows(t.codes[2:], t.arities[2:])
    stats, dofs = chi_square_batch(
        t.codes[0], t.arities[0], t.codes[1], t.arities[1],
        [stratum], [[strata.shape[1]]], variant, t.counts,
    )
    statistic, dof = float(stats[0]), int(dofs[0])
    if dof == 0:
        return CiTestResult(0.0, 0, 1.0, True, alpha)
    p = chi2_sf(statistic, dof)
    return CiTestResult(statistic, dof, p, p > alpha, alpha)


def fisher_z_test(d: Dataset, x: str, y: str, s=(), alpha: float = 0.05) -> CiTestResult:
    """Fisher-z test of zero partial correlation for continuous columns.

    The partial correlation comes from inverting the empirical correlation
    submatrix over (x, y, s); the statistic is
    sqrt(n - |s| - 3) * atanh(rho) referred to the standard normal.
    """
    s = tuple(s)
    if x == y:
        raise InputError("x and y must be distinct")
    if x in s or y in s:
        raise InputError("x and y must not appear in the conditioning set")
    for name in (x, y, *s):
        if d.col(name).kind != CONTINUOUS:
            raise InputError(f"fisher-z test needs continuous columns, {name!r} is not")
    return fisher_z_columns([d.col(name).values for name in (x, y, *s)], alpha)


def fisher_z_columns(columns, alpha: float) -> CiTestResult:
    """``fisher_z_test`` on value arrays of equal length: x, y, then s.

    Only the row count is checked; FCI's Fisher-z decider calls this with
    the columns it indexes, whose kinds were checked once.
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
    compiled at construction to the bitmasks ``parents`` and ``children``,
    relabelled so that the node at position i of ``observed`` is node i, and
    the latent nodes follow in truth order: a set of observed positions is
    then its own conditioning mask, and ``graph.bayes_ball_separated`` on the
    two lists answers a query of positions.  The oracle answers from the
    truth as it was then: later edits to ``truth`` do not reach it.
    """

    truth: MixedGraph
    observed: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)
    parents: list[int] = field(init=False, repr=False, compare=False)
    children: list[int] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "parents", [relabel(parents[old]) for old in order])
        object.__setattr__(self, "children", [relabel(children[old]) for old in order])


def oracle_test(o: CiOracle, x: str, y: str, s=()) -> bool:
    """True iff x and y are d-separated given s in the oracle's truth DAG."""
    s = tuple(s)
    position = o._position
    for name in (x, y, *s):
        if name not in position:
            raise InputError(f"{name!r} is not an observed node of the oracle")
    if x == y:
        raise InputError("x and y must be distinct")
    if x in s or y in s:
        raise InputError("x and y must not be in the conditioning set")
    z = 0
    for name in s:
        z |= 1 << position[name]
    return bayes_ball_separated(o.parents, o.children, position[x], position[y], z)
