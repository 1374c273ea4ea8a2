"""In-memory span tracer that wraps pagaudit's public functions from outside.

Each wrapped function is replaced, under the name its caller looks it up by
(``pagaudit.fci.chi_square_test`` is what ``fci_run``'s tester calls), with a
wrapper that records one span: name, parent span, start, end, the time its
child spans cover, the run phase, and one integer attribute chosen per
function.  Spans stay in memory until ``save`` writes them out; ``metrics``
turns them into the per-layer figures.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import random
import time
from importlib import import_module

import numpy as np

SETUP, ROUND = 0, 1

# (module, attribute): the caller-side names wrapped, one per layer boundary
WRAPPED = (
    ("pagaudit.cli", "main"),
    ("pagaudit.cli", "read_csv"),
    ("pagaudit.cli", "write_csv"),
    ("pagaudit.cli", "simulate"),
    ("pagaudit.simgen", "fit_logistic"),
    ("pagaudit.cli", "run_stability"),
    ("pagaudit.stability", "bootstrap_replicate"),
    ("pagaudit.cli", "fci_run"),
    ("pagaudit.stability", "fci_run"),
    ("pagaudit.fci", "skeleton_search"),
    ("pagaudit.fci", "possible_dsep_prune"),
    ("pagaudit.fci", "orient_colliders"),
    ("pagaudit.fci", "apply_orientation_rules"),
    ("pagaudit.fci", "chi_square_test"),
    ("pagaudit.fci", "oracle_test"),
    ("pagaudit.citests", "chi2_sf"),
    ("pagaudit.citests", "d_separated"),
)

SAMPLE_QUERIES = 40
CHUNK = 1 << 16
SPAN_DTYPE = np.dtype(
    [
        ("span", np.int64),
        ("parent", np.int64),
        ("name", np.int16),
        ("start", np.float64),
        ("end", np.float64),
        ("child", np.float64),
        ("phase", np.int8),
        ("extra", np.int64),
    ]
)


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals."""

    def __init__(self, seed: int):
        self.names = [f"{m}.{a}" for m, a in WRAPPED]
        self.phase = SETUP
        self.rounds = 0
        self.spans: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        # reservoir sample of chi-square queries, re-checked against scipy
        self._rng = random.Random(seed)
        self._seen_queries = 0
        self.queries: list[tuple] = []
        self.fci_diagnostics: list[tuple[int, int]] = []
        # (replicate dataset, FciResult) of the first stability command
        self.replicates: list[tuple] = []
        self._stability_calls = 0

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        for idx, (mod_name, attr) in enumerate(WRAPPED):
            mod = import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(idx, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, idx: int, orig):
        before, after = _ATTRIBUTES.get(self.names[idx], (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            mark = before(tracer, args, kwargs) if before else 0
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
            extra = after(tracer, args, kwargs, result, mark) if after else 0
            tracer.spans.append((span_id, parent, idx, start, end, frame[1], tracer.phase, extra))
            if len(tracer.spans) >= CHUNK:
                tracer._compact()
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _record_query(self, args, kwargs, result) -> None:
        self._seen_queries += 1
        item = (args, kwargs, result)
        if len(self.queries) < SAMPLE_QUERIES:
            self.queries.append(item)
        else:
            j = self._rng.randrange(self._seen_queries)
            if j < SAMPLE_QUERIES:
                self.queries[j] = item

    # -- output -----------------------------------------------------------------------

    def _compact(self) -> None:
        # a packed record is 51 bytes, several times less than a tuple of boxed values
        self._chunks.append(np.array(self.spans, dtype=SPAN_DTYPE))
        self.spans.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        self._compact()
        table = np.concatenate(self._chunks)
        self._chunks = [table]
        return {name: table[name] for name in SPAN_DTYPE.names}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures: counts and stage seconds per round, call costs as
        means over every call (set-up included), self times exclusive of the
        wrapped children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        rounds = max(self.rounds, 1)

        def sel(mod_attr, phase=None):
            m = a["name"] == self.names.index(mod_attr)
            if phase is not None:
                m &= a["phase"] == phase
            return m

        def mean(x):
            return float(x.mean()) if x.size else 0.0

        chi = sel("pagaudit.fci.chi_square_test")
        sf = sel("pagaudit.citests.chi2_sf")
        orc = sel("pagaudit.fci.oracle_test")
        dsep = sel("pagaudit.citests.d_separated")
        skel = sel("pagaudit.fci.skeleton_search", ROUND)
        pds = sel("pagaudit.fci.possible_dsep_prune", ROUND)
        rep_fci = sel("pagaudit.stability.fci_run")
        out: dict[str, tuple[float, str]] = {}

        out["citests.chi2_queries"] = (chi[a["phase"] == ROUND].sum() / rounds, "count")
        for k in range(5):
            size = a["extra"] == k if k < 4 else a["extra"] >= 4
            out[f"citests.chi2_query_us.s{k}"] = (mean(dur[chi & size]) * 1e6, "us")
        out["citests.chi2_self_us"] = (mean(dur[chi] - a["child"][chi]) * 1e6, "us")
        out["citests.oracle_queries"] = (orc[a["phase"] == ROUND].sum() / rounds, "count")
        out["citests.oracle_query_us"] = (mean(dur[orc]) * 1e6, "us")
        out["tails.chi2_sf_calls"] = (sf[a["phase"] == ROUND].sum() / rounds, "count")
        out["tails.chi2_sf_us"] = (mean(dur[sf]) * 1e6, "us")

        diag = np.asarray(self.fci_diagnostics, dtype=np.float64).reshape(-1, 2)
        tests, hits = diag[:, 0].sum(), diag[:, 1].sum()
        out["fci.tests_run"] = (tests / rounds, "count")
        out["fci.cache_hits"] = (hits / rounds, "count")
        out["fci.cache_hit_share"] = (hits / (hits + tests) if hits + tests else 0.0, "ratio")
        out["fci.skeleton_tests"] = (a["extra"][skel].sum() / rounds, "count")
        out["fci.pds_tests"] = (a["extra"][pds].sum() / rounds, "count")
        out["fci.skeleton_self_s"] = ((dur[skel] - a["child"][skel]).sum() / rounds, "s")
        out["fci.pds_self_s"] = ((dur[pds] - a["child"][pds]).sum() / rounds, "s")
        for key, attr in (("colliders", "orient_colliders"), ("rules", "apply_orientation_rules")):
            m = sel(f"pagaudit.fci.{attr}", ROUND)
            out[f"fci.{key}_s"] = (dur[m].sum() / rounds, "s")

        out["graph.d_separated_calls"] = (dsep[a["phase"] == ROUND].sum() / rounds, "count")
        out["graph.d_separated_us"] = (mean(dur[dsep]) * 1e6, "us")

        out["stability.resample_ms"] = (
            mean(dur[sel("pagaudit.stability.bootstrap_replicate")]) * 1e3,
            "ms",
        )
        rep_ms = np.sort(dur[rep_fci]) * 1e3
        out["stability.replicate_fci_ms.p50"] = (
            float(np.percentile(rep_ms, 50)) if rep_ms.size else 0.0,
            "ms",
        )
        out["stability.replicate_fci_ms.p90"] = (
            float(np.percentile(rep_ms, 90)) if rep_ms.size else 0.0,
            "ms",
        )
        stab = sel("pagaudit.cli.run_stability", ROUND)
        out["stability.self_s"] = ((dur[stab] - a["child"][stab]).sum() / rounds, "s")

        out["data.read_csv_s"] = (mean(dur[sel("pagaudit.cli.read_csv")]), "s")
        out["data.write_csv_s"] = (mean(dur[sel("pagaudit.cli.write_csv")]), "s")
        out["simgen.simulate_s"] = (mean(dur[sel("pagaudit.cli.simulate")]), "s")
        out["simgen.fit_logistic_s"] = (mean(dur[sel("pagaudit.simgen.fit_logistic")]), "s")
        cli = sel("pagaudit.cli.main")
        out["cli.self_s"] = (mean(dur[cli] - a["child"][cli]), "s")
        return {k: (float(v), u) for k, (v, u) in out.items()}


# -- per-function span attributes -------------------------------------------------------


def _cond_size(tracer, args, kwargs) -> int:
    s = args[3] if len(args) > 3 else kwargs.get("s", ())
    return len(tuple(s))


def _after_chi2(tracer, args, kwargs, result, size):
    tracer._record_query(args, kwargs, result)
    return size


# skeleton_search and possible_dsep_prune take the caching tester as their
# first and third argument; the span keeps the tests it ran
def _before_skeleton(tracer, args, kwargs):
    tester = args[0] if args else kwargs["test"]
    return tester, tester.diagnostics.tests_run


def _before_pds(tracer, args, kwargs):
    tester = args[2] if len(args) > 2 else kwargs["test"]
    return tester, tester.diagnostics.tests_run


def _after_stage(tracer, args, kwargs, result, before):
    tester, tests_before = before
    return tester.diagnostics.tests_run - tests_before


def _after_fci_run(tracer, args, kwargs, result, _):
    diag = result.diagnostics
    if tracer.phase == ROUND:
        tracer.fci_diagnostics.append((diag.tests_run, diag.cache_hits))
    return diag.tests_run


def _after_replicate_fci(tracer, args, kwargs, result, _):
    if tracer._stability_calls == 1:
        tracer.replicates.append((args[0], result))
    return _after_fci_run(tracer, args, kwargs, result, _)


def _count_stability(tracer, args, kwargs):
    tracer._stability_calls += 1
    return 0


# (before, after) hooks by wrapped name; before's value reaches after
_ATTRIBUTES = {
    "pagaudit.fci.chi_square_test": (_cond_size, _after_chi2),
    "pagaudit.fci.skeleton_search": (_before_skeleton, _after_stage),
    "pagaudit.fci.possible_dsep_prune": (_before_pds, _after_stage),
    "pagaudit.cli.run_stability": (_count_stability, None),
    "pagaudit.cli.fci_run": (None, _after_fci_run),
    "pagaudit.stability.fci_run": (None, _after_replicate_fci),
}
