"""Bootstrap replication of discovery runs and edge-stability aggregation.

Each replicate resamples the rows with replacement, reruns FCI with the
target declared a non-ancestor of every feature, and classifies every
feature against the target.  The report tallies, per feature, how often each
classification occurred; the headline number is the combined frequency of
definite- and possible-cause edges.

A chi-square run codes the data once into a count table: its distinct rows
and a count for each.  A replicate draws the same rows as
``bootstrap_replicate`` on the dataset, but only recounts the distinct rows,
and the CI test weights each distinct row by its count, which gives exactly
the statistics of the resampled rows.  Fisher-z replicates copy the drawn
rows, in draw order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .citests import select_test
from .data import CountTable, Dataset, keyed_rng
from .errors import InputError, PagauditError, require_number
from .fci import FciConfig, fci_run
from .graph import BackgroundKnowledge, EdgeClass, classify_edge

__all__ = [
    "StabilityConfig",
    "FeatureStability",
    "StabilityReport",
    "bootstrap_replicate",
    "run_stability",
]

_CLASS_ORDER = (
    EdgeClass.DEFINITE_CAUSE,
    EdgeClass.POSSIBLE_CAUSE,
    EdgeClass.CONFOUNDED_ONLY,
    EdgeClass.NO_RELATION,
)


@dataclass
class StabilityConfig:
    """Replication settings: how many bootstrap replicates, the base seed the
    per-replicate generators derive from, the FCI settings, and the target."""

    target: str
    replicates: int = 50
    base_seed: int = 0
    fci: FciConfig = field(default_factory=FciConfig)
    subsample_fraction: float | None = None  # None: bootstrap with replacement, size n

    def __post_init__(self) -> None:
        require_number("replicates", self.replicates, whole=True)
        require_number("base_seed", self.base_seed, whole=True)
        if self.subsample_fraction is not None:
            require_number("subsample_fraction", self.subsample_fraction)
        if self.replicates < 1:
            raise InputError("need at least one replicate")
        if self.subsample_fraction is not None and not 0.0 < self.subsample_fraction <= 1.0:
            raise InputError("subsample fraction must be in (0, 1]")


@dataclass
class FeatureStability:
    """Classification counts for one feature over the successful replicates."""

    counts: dict[EdgeClass, int]
    denominator: int

    def frequency(self, cls: EdgeClass) -> float:
        return self.counts[cls] / self.denominator if self.denominator else 0.0

    @property
    def cause_frequency(self) -> float:
        return self.frequency(EdgeClass.DEFINITE_CAUSE) + self.frequency(
            EdgeClass.POSSIBLE_CAUSE
        )

    @property
    def modal_class(self) -> EdgeClass:
        return max(_CLASS_ORDER, key=lambda c: self.counts[c])


@dataclass
class StabilityReport:
    target: str
    replicates: int
    successes: int
    features: dict[str, FeatureStability]
    failures: list[tuple[int, str]] = field(default_factory=list)

    def to_json(self) -> str:
        obj = {
            "target": self.target,
            "replicates": self.replicates,
            "successes": self.successes,
            "failures": [{"replicate": i, "error": msg} for i, msg in self.failures],
            "features": {
                name: {
                    "counts": {c.value: fs.counts[c] for c in _CLASS_ORDER},
                    "frequencies": {
                        c.value: round(fs.frequency(c), 10) for c in _CLASS_ORDER
                    },
                    "cause_frequency": round(fs.cause_frequency, 10),
                }
                for name, fs in self.features.items()
            },
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["feature", "def_cause", "poss_cause", "confounded", "none", "cause_frequency"]
        )
        for name, fs in self.features.items():
            writer.writerow(
                [name]
                + [f"{fs.frequency(c):.6f}" for c in _CLASS_ORDER]
                + [f"{fs.cause_frequency:.6f}"]
            )
        return buf.getvalue()


def bootstrap_replicate(
    d: Dataset | CountTable, base_seed: int, index: int = 0, fraction: float | None = None
) -> Dataset | CountTable:
    """Resample the rows with a counter-based generator keyed by (base_seed,
    replicate index); the schema is unchanged.

    With ``fraction`` None, n rows are drawn with replacement; otherwise
    round(fraction * n) distinct rows (at least one) are kept in data order.
    A Dataset's replicate copies the drawn rows; a CountTable's replicate
    draws the same rows but only recounts its distinct rows.
    """
    if d.n < 1:
        raise InputError("cannot resample an empty dataset")
    rng = keyed_rng(base_seed, index)
    if fraction is None:
        return d.take_rows(rng.integers(0, d.n, size=d.n))
    m = max(1, int(round(fraction * d.n)))
    return d.take_rows(np.sort(rng.permutation(d.n)[:m]))


def _one_replicate(
    d: Dataset | CountTable,
    cfg: StabilityConfig,
    knowledge: BackgroundKnowledge | None,
    index: int,
) -> dict[str, EdgeClass]:
    rep = bootstrap_replicate(d, cfg.base_seed, index, cfg.subsample_fraction)
    result = fci_run(rep, knowledge=knowledge, cfg=cfg.fci, target=cfg.target)
    return {
        name: classify_edge(result.graph, name, cfg.target)
        for name in d.names
        if name != cfg.target
    }


def run_stability(
    d: Dataset,
    cfg: StabilityConfig,
    knowledge: BackgroundKnowledge | None = None,
) -> StabilityReport:
    """Aggregate per-feature edge classifications over bootstrap replicates.

    Replicates run one after another, and each depends only on the data, the
    base seed and its index, so the report is reproducible from the base
    seed.  The CI test is chosen once, and a test that does not fit the
    column kinds raises InputError before any replicate runs.  Replicates
    that fail on their data are recorded and excluded from the denominators.
    """
    if not d.has(cfg.target):
        raise InputError(f"target {cfg.target!r} is not a column")
    features = [n for n in d.names if n != cfg.target]
    if not features:
        raise InputError("no feature columns besides the target")

    # select_test raises on a test that does not fit the columns, which would
    # fail every replicate alike
    source = d if select_test(d, cfg.fci.test) == "fisherz" else CountTable.of(d)
    counts = {name: {c: 0 for c in _CLASS_ORDER} for name in features}
    failures: list[tuple[int, str]] = []
    for i in range(cfg.replicates):
        try:
            classes = _one_replicate(source, cfg, knowledge, i)
        except PagauditError as exc:
            failures.append((i, str(exc)))
            continue
        for name, cls in classes.items():
            counts[name][cls] += 1
    successes = cfg.replicates - len(failures)
    return StabilityReport(
        target=cfg.target,
        replicates=cfg.replicates,
        successes=successes,
        features={
            name: FeatureStability(counts[name], successes) for name in features
        },
        failures=failures,
    )
