"""Ground-truth simulation: a fixed seven-node DAG, its structural-equation
sampler, and a surrogate predictor standing in for an image classifier.

Two latent uniforms drive four binary shape indicators and a binary outcome:

    U1, U2 ~ Uniform(0, 1)
    H ~ Bernoulli(U1)          V ~ Bernoulli(1 - U1)
    C ~ Bernoulli(U2)
    R ~ Bernoulli(expit(0.75 H + 0.5 C))
    Y ~ Bernoulli(expit(-0.5 + 2.5 V + 1.75 C))

The surrogate predictor replaces Y with a prediction column so the discovery
pipeline can be exercised end to end; C is typically withheld from the
exported feature set and then acts as an unmeasured confounder.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, Column, Dataset, keyed_rng
from .errors import FitError, InputError
from .graph import GraphKind, MixedGraph

__all__ = [
    "TRUTH_NODES",
    "TRUTH_EDGES",
    "truth_dag",
    "expit",
    "sample_dataset",
    "surrogate_predictor",
    "simulate",
    "fit_logistic",
]

TRUTH_NODES = ("U1", "U2", "H", "V", "C", "R", "Y")
TRUTH_EDGES = (
    ("U1", "H"),
    ("U1", "V"),
    ("U2", "C"),
    ("H", "R"),
    ("C", "R"),
    ("V", "Y"),
    ("C", "Y"),
)

DEFAULT_TARGET = "Yhat"
OUTCOME = "Y"
_FIT_TOL = 1e-8
_FIT_MAX_ITER = 200


def truth_dag(outcome_name: str = OUTCOME) -> MixedGraph:
    """The fixed 7-node generating DAG; the outcome node can be relabeled."""
    names = tuple(outcome_name if n == "Y" else n for n in TRUTH_NODES)
    g = MixedGraph(names, GraphKind.DAG)
    for a, b in TRUTH_EDGES:
        g.add_directed_edge(
            outcome_name if a == "Y" else a, outcome_name if b == "Y" else b
        )
    return g


def expit(t):
    """Numerically stable logistic function, elementwise on arrays."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def sample_dataset(n: int, seed: int, include_c: bool = True) -> Dataset:
    """Draw n independent rows from the structural equations.

    The latent uniforms are never exported; C is dropped when ``include_c``
    is false.
    """
    if n < 1:
        raise InputError("need at least one row")
    u = keyed_rng(seed, 0).random((n, 7))
    u1, u2 = u[:, 0], u[:, 1]
    h = (u[:, 2] < u1).astype(np.int64)
    v = (u[:, 3] < 1.0 - u1).astype(np.int64)
    c = (u[:, 4] < u2).astype(np.int64)
    r = (u[:, 5] < expit(0.75 * h + 0.5 * c)).astype(np.int64)
    y = (u[:, 6] < expit(-0.5 + 2.5 * v + 1.75 * c)).astype(np.int64)
    cols = [
        Column("H", CATEGORICAL, h, 2),
        Column("V", CATEGORICAL, v, 2),
    ]
    if include_c:
        cols.append(Column("C", CATEGORICAL, c, 2))
    cols.append(Column("R", CATEGORICAL, r, 2))
    cols.append(Column("Y", CATEGORICAL, y, 2))
    return Dataset(cols)


def fit_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients (intercept first).

    Newton ascent from zero on the log-likelihood until the gradient's
    max-norm falls below ``_FIT_TOL``, for at most ``_FIT_MAX_ITER`` steps.
    The problem is concave, so the optimum does not depend on the starting
    point once the iteration converges.
    """
    x = np.column_stack([np.ones(len(y)), x])
    beta = np.zeros(x.shape[1])
    for _ in range(_FIT_MAX_ITER):
        p = expit(x @ beta)
        grad = x.T @ (y - p)
        if np.max(np.abs(grad)) < _FIT_TOL:
            return beta
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = (x * w[:, None]).T @ x
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise FitError("singular Hessian in logistic fit") from None
        # dampen huge steps from quasi-separated data
        norm = np.max(np.abs(step))
        if norm > 10.0:
            step *= 10.0 / norm
        beta = beta + step
    return beta


SURROGATE_PREDICTORS = ("H", "V", "C", "R")


def surrogate_predictor(d: Dataset, mode: str = "perfect") -> Dataset:
    """Replace the outcome column Y with a prediction column Yhat.

    ``perfect`` copies the outcome; ``logistic`` fits an ML logistic model of
    the outcome on whichever of H, V, C, R are present and thresholds the
    fitted probability at one half.  The fit is deterministic (the likelihood
    is concave).
    """
    if mode not in ("perfect", "logistic"):
        raise InputError(f"unknown surrogate mode {mode!r}")
    ycol = d.col(OUTCOME)
    if ycol.kind != CATEGORICAL or ycol.arity != 2:
        raise InputError(f"outcome column {OUTCOME!r} must be binary categorical")
    y = ycol.values
    if mode == "perfect":
        yhat = y.copy()
    else:
        feats = [f for f in SURROGATE_PREDICTORS if d.has(f)]
        if not feats:
            raise InputError("logistic surrogate needs at least one of H, V, C, R")
        if y.min() == y.max():
            raise FitError(f"outcome {OUTCOME!r} is constant; nothing to fit")
        x = np.column_stack([d.col(f).values.astype(np.float64) for f in feats])
        beta = fit_logistic(x, y.astype(np.float64))
        prob = expit(np.column_stack([np.ones(d.n), x]) @ beta)
        yhat = (prob > 0.5).astype(np.int64)
    out = d.drop(OUTCOME)
    return out.with_column(Column(DEFAULT_TARGET, CATEGORICAL, yhat, 2))


def simulate(n: int, seed: int, include_c: bool = False, mode: str = "logistic") -> Dataset:
    """Sample the full system, predict with the surrogate, export features.

    The surrogate always sees all four shape indicators (the predictor
    consumes the whole scene, like the classifier it stands in for);
    ``include_c`` only controls whether C appears in the exported columns.
    Column order is H, V [, C], R, prediction.
    """
    full = sample_dataset(n, seed, include_c=True)
    pred = surrogate_predictor(full, mode=mode)
    return pred if include_c else pred.drop("C")
