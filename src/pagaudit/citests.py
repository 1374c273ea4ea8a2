"""Conditional-independence tests behind one interface.

Three deciders: a stratified chi-square (or G-squared) test for categorical
columns, a Fisher-z partial-correlation test for continuous columns, and an
exact oracle that answers from a ground-truth DAG.  Tests are pure functions
of (dataset, query).

Every chi-square statistic comes from one kernel, ``chi_square_batch``, which
scores a batch of same-size conditioning sets, of one (x, y) pair or of a
pair per set, with a single ``np.bincount``; ``chi_square_test`` is that
kernel on one set, and ``chi_square_independent`` turns a statistic into the
decision ``chi2_sf(statistic, dof) > alpha`` without the tail function
wherever the statistic is clear of the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, Dataset
from .errors import DegenerateInputError, InputError
# d_separated is not called here, but stays importable as
# pagaudit.citests.d_separated, a name the benchmark's tracer wraps
from .graph import (  # noqa: F401
    GraphKind,
    MixedGraph,
    bayes_ball_separated,
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
    mixed-radix codes of its members' levels, first member most significant;
    each set's cells start at their own offset, so one bincount counts the
    whole batch.  ``weights`` (B * n, set by set), if given, is how many
    times each row counts: distinct rows weighted by their multiplicities
    give exactly the statistics of the repeated rows, since every count is a
    float sum of integers.  Returns the B statistics (float) and dofs (int),
    as defined in ``chi_square_test``.
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
    # int32 cell codes, where they fit, halve the memory traffic of a batch
    code = np.int32 if total * rxy < 2**31 else np.int64
    # cell stride of member j in set b: rx * ry * the arities of the later members
    place = (rxy * mul.accumulate(arities[:, ::-1], axis=1)[:, ::-1] // arities).astype(code)
    # the pair's cell within a stratum, x * ry + y, cast once; rows per set
    # take their stratum offsets in place
    xy = mul(x, ry, dtype=code)
    xy += y
    offset = (first_stratum * rxy).astype(code)[:, None]
    cell = offset + xy if xy.ndim == 1 else add(xy, offset, out=xy)
    for j, codes in enumerate(members):
        cell += codes * place[:, j, None]
    counts = np.bincount(cell.ravel(), weights, total * rxy)
    # weighted counts are float sums of integers, so exact: as integers the
    # margins take numpy's integer matmul, which beats the float one on a stack
    counts = counts.astype(np.int64, copy=False).reshape(total, rx, ry)

    # margins by matmul: reductions over axes this short are slower
    row = counts @ _ones(ry)  # (strata, rx)
    col = _ones(rx) @ counts  # (strata, ry)
    tot = add.reduce(col, axis=1)
    r_eff = add.reduce(row > 0, axis=1)
    c_eff = add.reduce(col > 0, axis=1)
    informative = (r_eff >= 2) & (c_eff >= 2)
    dof = add.reduceat(np.where(informative, (r_eff - 1) * (c_eff - 1), 0), first_stratum)

    # uninformative strata divide by infinity: no expected counts, no terms;
    # in place, the statistic needs about three float arrays of the cells
    expected = mul(row[:, :, None], col[:, None, :], dtype=np.float64)
    expected /= np.where(informative, tot, np.inf)[:, None, None]
    mask = expected > 0
    if variant == PEARSON:
        terms = np.subtract(counts, expected, out=np.zeros(expected.shape), where=mask)
        terms *= terms
        np.divide(terms, expected, out=terms, where=mask)
    else:
        ratio = np.divide(counts, expected, out=np.ones(expected.shape), where=mask & (counts > 0))
        terms = np.log(ratio, out=ratio)
        terms *= 2.0 * counts
    return add.reduceat(terms.ravel(), first_stratum * rxy), dof


@lru_cache(maxsize=None)
def _ones(length: int) -> np.ndarray:
    """A read-only int64 vector of ones, shared by every kernel call."""
    ones = np.ones(length, np.int64)
    ones.flags.writeable = False
    return ones


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
    reported as independent.
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
    cx, cy, cs = d.col(x), d.col(y), [d.col(name) for name in s]
    stats, dofs = chi_square_batch(
        cx.values, cx.arity, cy.values, cy.arity,
        [c.values for c in cs], [[c.arity for c in cs]], variant,
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
    if d.n <= len(s) + 3:
        raise InputError(f"need more than |s| + 3 = {len(s) + 3} rows, have {d.n}")

    mat = np.column_stack([d.col(name).values for name in (x, y, *s)])
    sd = mat.std(axis=0)
    if np.any(sd == 0):
        raise DegenerateInputError("constant column in correlation submatrix")
    corr = np.corrcoef(mat, rowvar=False)
    if s:
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

    scale = math.sqrt(d.n - len(s) - 3)
    if abs(rho) >= 1.0:
        statistic = math.inf
        p = 0.0
    else:
        statistic = abs(scale * 0.5 * math.log((1.0 + rho) / (1.0 - rho)))
        p = 2.0 * normal_sf(statistic)
    # dof records the effective sample size entering the z scale
    return CiTestResult(statistic, d.n - len(s) - 3, p, p > alpha, alpha)


@dataclass(frozen=True)
class CiOracle:
    """Population-limit test: answers queries by d-separation in a true DAG.

    Only ``observed`` nodes may be queried; the rest act as latent variables.
    The truth must pass ``graph.validate`` as a DAG (directed edges only, no
    directed cycle).  Its parent and child sets are compiled to bitmasks at
    construction, with the truth index of each observed node, so the oracle
    answers from the truth as it was then: later edits to ``truth`` do not
    reach it.
    """

    truth: MixedGraph
    observed: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)
    _truth_index: list[int] = field(init=False, repr=False, compare=False)
    _parents: list[int] = field(init=False, repr=False, compare=False)
    _children: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.truth.kind is not GraphKind.DAG:
            raise InputError("oracle truth must be a DAG")
        problems = validate(self.truth)
        if problems:
            raise InputError(f"oracle truth is not a valid DAG: {problems[0]}")
        object.__setattr__(self, "observed", tuple(self.observed))
        truth_index = [self.truth.index(name) for name in self.observed]
        parents, children = directed_masks(self.truth)
        object.__setattr__(self, "_position", {name: i for i, name in enumerate(self.observed)})
        object.__setattr__(self, "_truth_index", truth_index)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

    def separated(self, x: int, y: int, s=()) -> bool:
        """True iff observed nodes x and y are d-separated given the observed
        nodes s, each given by its position in ``observed``; x, y and s must
        be distinct, which is not checked."""
        at = self._truth_index
        z = 0
        for v in s:
            z |= 1 << at[v]
        return bayes_ball_separated(self._parents, self._children, at[x], at[y], z)


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
    return o.separated(position[x], position[y], [position[name] for name in s])
