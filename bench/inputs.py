"""Input generators for the four benchmark workloads.

Every input is built here from the workload seed, never from the test suite,
so an edit under ``tests/`` cannot move a benchmark figure.  The generators
return plain numpy arrays and edge lists; the runner writes them to disk with
pagaudit's own writers, the way a user of the library would.
"""

from __future__ import annotations

import numpy as np

# -- 27-column stand-in for the bird-attribute protocol -------------------------------

BIRD_N = 1500
BIRD_DATA_SEED = 5
BIRD_ARITIES = tuple(3 if i < 4 else 2 for i in range(26))
BIRD_TARGET = "label"
BIRD_TARGET_ARITY = 9


def bird27_columns(n: int = BIRD_N, seed: int = BIRD_DATA_SEED):
    """26 attributes of arity 2-3 and a 9-class prediction tracking four of them.

    Two attribute-attribute dependencies (attr04 on attr00, attr09 on attr01)
    and a prediction that is the argmax of attribute-driven logits plus Gumbel
    noise.  This is the make-up of acceptance criterion 8's stand-in.
    """
    rng = np.random.default_rng(seed)
    feats = [rng.integers(0, a, n) for a in BIRD_ARITIES]
    feats[4] = np.minimum(feats[0] + rng.integers(0, 2, n), BIRD_ARITIES[4] - 1)
    feats[9] = (feats[1] + rng.integers(0, 2, n)) % BIRD_ARITIES[9]
    logits = np.zeros((n, BIRD_TARGET_ARITY))
    for j, f in enumerate((0, 1, 2, 3)):
        for k in range(BIRD_TARGET_ARITY):
            logits[:, k] += ((feats[f] + j) % 3 == k % 3) * 3.0
    logits += rng.gumbel(size=(n, BIRD_TARGET_ARITY))
    cols = [(f"attr{i:02d}", feats[i], BIRD_ARITIES[i]) for i in range(26)]
    cols.append((BIRD_TARGET, logits.argmax(axis=1), BIRD_TARGET_ARITY))
    return cols


# -- 8-column stand-in for the chest x-ray protocol -------------------------------------

XRAY_N = 239
XRAY_TARGET = "label"
XRAY_FINDINGS = (
    "cardiomegaly",
    "atelectasis",
    "effusion",
    "infiltration",
    "mass",
    "nodule",
    "pneumothorax",
)


def xray8_columns(seed: int, index: int, n: int = XRAY_N):
    """Seven binary findings and a binary prediction driven by three of them.

    ``index`` numbers the datasets drawn from one workload seed.
    """
    rng = np.random.default_rng([seed, index])
    f = [rng.integers(0, 2, n) for _ in XRAY_FINDINGS]
    f[3] = (f[0] | rng.integers(0, 2, n)) & 1
    p = 1.0 / (1.0 + np.exp(-(-1.0 + 2.0 * f[0] + 1.5 * f[1] + 1.0 * f[2])))
    label = (rng.random(n) < p).astype(np.int64)
    cols = [(name, f[i], 2) for i, name in enumerate(XRAY_FINDINGS)]
    cols.append((XRAY_TARGET, label, 2))
    return cols


# -- random DAGs with latent nodes for the oracle workload --------------------------------

DAG_NODES = 12
DAG_EDGES = 20
DAG_LATENT = 3


def random_dag(seed: int, index: int):
    """A DAG over X0..X11 with 20 edges, drawn uniformly among the pairs and
    directed along a random order, and three nodes picked at random to stay
    latent.  A fixed edge count keeps the cost of one DAG from swinging with
    its density.

    Returns (nodes, directed edges as (parent, child), observed nodes in
    name order).
    """
    rng = np.random.default_rng([seed, index])
    nodes = [f"X{i}" for i in range(DAG_NODES)]
    order = rng.permutation(DAG_NODES)
    pairs = [(a, b) for a in range(DAG_NODES) for b in range(a + 1, DAG_NODES)]
    chosen = sorted(rng.choice(len(pairs), DAG_EDGES, replace=False).tolist())
    edges = [(nodes[order[pairs[k][0]]], nodes[order[pairs[k][1]]]) for k in chosen]
    latent = set(rng.choice(DAG_NODES, DAG_LATENT, replace=False).tolist())
    observed = [nodes[i] for i in range(DAG_NODES) if i not in latent]
    return nodes, edges, observed
