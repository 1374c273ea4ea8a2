#!/usr/bin/env python3
"""Benchmark pagaudit end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 bench/run.py --workload bird27-pds --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports pagaudit from ``src/``.
It builds the workload's inputs from the seed (five times, to time set-up),
then runs whole rounds of pagaudit CLI commands in this one process until
``--seconds`` have passed, then checks every output against references
computed apart from the program (``checks.py``).  Untraced runs time the
commands in reference seconds (``refclock.py``), which follow the host's
speed; set-up is timed in wall seconds.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run files go to ``.bench_out/`` at the checkout root; the work
directory is removed at the end, the result and any trace are kept.

Workloads, metrics and their expected interactions are described in
``bench/README.md``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from refclock import RefClock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLOCK = RefClock()  # untraced runs start it for the timed part
SETUPS = 5
ALPHA = 0.05
CHI2_SAMPLE = 40


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


class Run:
    """Bookkeeping shared by every workload: timed commands and check results."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pag_times: list[float] = []  # reference time of each PAG-learning command
        self.pag_wall: list[float] = []  # and its wall time
        self.pag_counts: list[int] = []  # PAGs it learned
        self.single_times: list[float] = []  # single-PAG command wall times: discover, oracle

    def cli(self, argv) -> tuple[bool, float, float]:
        """Run one command; return whether it succeeded, its reference and wall time."""
        from pagaudit import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start, ref_start = time.perf_counter(), CLOCK.now()
            code = cli.main([str(a) for a in argv])
            ref, wall = CLOCK.now() - ref_start, time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"pagaudit {argv[0]} exited {code}: {buf.getvalue().strip()}")
        return code == 0, ref, wall

    def learned(self, count: int, ref: float, wall: float) -> None:
        self.pag_times.append(ref)
        self.pag_wall.append(wall)
        self.pag_counts.append(count)

    def check(self, label: str, fn, *args) -> None:
        """Count one check; any problem it returns or raises fails it."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as exc:  # a crashing check is a failed check
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])


# -- sample workloads ------------------------------------------------------------------------


def write_dataset(path: Path, columns) -> None:
    from pagaudit import Column, Dataset, write_csv
    from pagaudit.data import schema_text

    d = Dataset([Column(name, "cat", values, arity) for name, values, arity in columns])
    write_csv(d, path)
    Path(f"{path}.schema").write_text(schema_text(d), encoding="utf-8")


class Workload:
    """A workload's inputs, its rounds of commands, and the checks on their outputs."""

    def __init__(self, run: Run):
        self.run = run
        self.rounds_done = 0


class SampleWorkload(Workload):
    """Rounds of ``discover`` then ``stability`` on one dataset each.

    Subclasses set the FCI flags, the replicates per ``stability`` command and
    the datasets; round i uses dataset i modulo their number.
    """

    target = "label"
    fci_flags: list = []
    max_cond = None
    replicates = 1
    relearn_pags = 3  # replicate PAGs put through check_sample_pag
    relearn_untraced = True  # re-learn round 0's replicates after an untraced run

    def base_seed(self) -> int:
        return self.run.seed

    def round(self, i: int) -> None:
        r = self.run
        data = self.datasets[i % len(self.datasets)]
        ok, _, wall = r.cli(
            ["discover", "--data", data, "--target", self.target, *self.fci_flags,
             "--format", "json", "--out", r.work / f"r{i}.pag.json"]
        )
        if ok:
            r.single_times.append(wall)
        ok, ref, wall = r.cli(
            ["stability", "--data", data, "--target", self.target, *self.fci_flags,
             "--replicates", self.replicates, "--base-seed", self.base_seed(),
             "--out", r.work / f"r{i}.report"]
        )
        r.attempted += self.replicates
        if ok:
            r.learned(self.replicates, ref, wall)
        self.rounds_done += 1

    # -- checks --------------------------------------------------------------------

    def load(self, path: Path):
        """The dataset as pagaudit reads it, and as codes read apart from it."""
        import checks
        from pagaudit import parse_schema, read_csv

        schema = parse_schema(Path(f"{path}.schema").read_text(encoding="utf-8"))
        arity = {name: a for name, (_, a) in schema.items()}
        return read_csv(path, schema), checks.read_csv_codes(path, arity), arity

    def fci_cfg(self):
        from pagaudit import FciConfig

        return FciConfig(alpha=ALPHA, max_cond_size=self.max_cond, test="chi2")

    def check_all(self, tracer) -> None:
        import checks
        from pagaudit import citests, fci_run
        from pagaudit.stability import bootstrap_replicate

        r = self.run
        rng = random.Random(r.seed)
        first_text: dict[int, str] = {}
        for i in range(self.rounds_done):
            k = i % len(self.datasets)
            pag_path, report_path = r.work / f"r{i}.pag.json", r.work / f"r{i}.report.json"
            if not (pag_path.is_file() and report_path.is_file()):
                continue  # its command failed, and counted so
            text = pag_path.read_text(encoding="utf-8")
            first = first_text.setdefault(k, text)
            r.check(f"round {i} discover output", same, text, first,
                    "PAG differs from the first round on the same data")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            r.failed += report["replicates"] - report["successes"]
            r.check(f"round {i} report", checks.check_report, report)

        for k in sorted(first_text):
            d, codes, arity = self.load(self.datasets[k])
            lib = fci_run(d, cfg=self.fci_cfg(), target=self.target)
            pag = checks.Pag.from_json_text(first_text[k])
            sepsets = {
                frozenset(pair): nodes for pair, nodes in lib.sepsets.as_names(d.names).items()
            }
            r.check(f"dataset {k} CLI PAG", same, pag, lib_pag(lib),
                    "pagaudit discover and fci_run disagree")
            r.check(f"dataset {k} discover PAG", checks.check_sample_pag, pag, sepsets,
                    codes, arity, ALPHA, self.max_cond, self.target)

        # round 0's replicate PAGs: captured by the tracer, or re-learned
        d, codes, arity = self.load(self.datasets[0])
        if tracer is not None:
            replicates = tracer.replicates
        elif self.relearn_untraced:
            replicates = []
            for j in range(self.replicates):
                rep = bootstrap_replicate(d, self.base_seed(), j)
                replicates.append((rep, fci_run(rep, cfg=self.fci_cfg(), target=self.target)))
        else:
            replicates = []
        features = [n for n in d.names if n != self.target]
        expected = {f: {} for f in features}
        for j, (rep, result) in enumerate(replicates):
            pag = lib_pag(result)
            for f in features:
                cls = checks.classify(pag, f, self.target)
                expected[f][cls] = expected[f].get(cls, 0) + 1
            if j < self.relearn_pags:
                rep_codes = {c.name: c.values for c in rep.columns}
                sepsets = {
                    frozenset(p): s for p, s in result.sepsets.as_names(rep.names).items()
                }
                r.check(f"replicate {j} PAG", checks.check_sample_pag, pag, sepsets,
                        rep_codes, arity, ALPHA, self.max_cond, self.target)
        report_path = r.work / "r0.report.json"
        if replicates and report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            r.check("round 0 report matches its replicate PAGs", checks.check_report,
                    report, expected)

        # a seeded sample of chi-square queries against scipy
        queries = []
        names = d.names
        for _ in range(CHI2_SAMPLE):
            x, y = rng.sample(names, 2)
            rest = [v for v in names if v not in (x, y)]
            s = tuple(rng.sample(rest, rng.randint(0, min(4, len(rest)))))
            queries.append((d, x, y, s, citests.chi_square_test(d, x, y, s, ALPHA)))
        if tracer is not None:
            queries += [(args[0], args[1], args[2], tuple(args[3]), res)
                        for args, _, res in tracer.queries]
        for ds, x, y, s, res in queries:
            q_codes = {c.name: c.values for c in ds.columns}
            q_arity = {c.name: c.arity for c in ds.columns}
            r.check("chi-square query", checks.check_chi2_query, q_codes, q_arity, x, y, s,
                    ALPHA, res.statistic, res.dof, res.p_value, res.independent)


def same(a, b, problem: str) -> list[str]:
    return [] if a == b else [problem]


def lib_pag(result):
    """A pagaudit FciResult's graph as a checks.Pag."""
    import checks
    from pagaudit.graph import to_json

    return checks.Pag.from_json_text(to_json(result.graph))


class Bird27(SampleWorkload):
    """27-column stand-in at the protocol settings; pinned data and replicate."""

    fci_flags = ["--alpha", ALPHA, "--test", "chi2", "--max-cond-size", 4]
    max_cond = 4
    replicates = 1
    relearn_pags = 1
    relearn_untraced = False  # 11 s; the traced run checks the replicate it captured

    def base_seed(self) -> int:
        return 1

    def build(self) -> None:
        import inputs

        path = self.run.work / "bird27.csv"
        write_dataset(path, inputs.bird27_columns())
        self.datasets = [path]


class Xray8(SampleWorkload):
    """8-column stand-ins, a fresh dataset for each round, 20 replicates each."""

    fci_flags = ["--alpha", ALPHA, "--test", "chi2"]
    replicates = 20
    pool = 160

    def build(self) -> None:
        import inputs

        self.datasets = []
        for k in range(self.pool):
            path = self.run.work / f"xray8-{k}.csv"
            write_dataset(path, inputs.xray8_columns(self.run.seed, k))
            self.datasets.append(path)


class Sim100k(SampleWorkload):
    """``simulate`` writes 100,000 rows; discover and stability read the file."""

    target = "Yhat"
    fci_flags = ["--alpha", ALPHA, "--test", "chi2"]
    replicates = 20
    relearn_pags = 2
    n = 100_000

    def build(self) -> None:
        path = self.run.work / "sim.csv"
        self.run.cli(["simulate", "--n", self.n, "--seed", self.run.seed, "--out", path])
        self.datasets = [path]

    def check_all(self, tracer) -> None:
        import checks
        from pagaudit import simulate

        super().check_all(tracer)
        path = self.datasets[0]
        _, codes, _ = self.load(path)
        lib = {c.name: c.values for c in simulate(self.n, self.run.seed).columns}
        with_c = {c.name: c.values for c in simulate(self.n, self.run.seed, include_c=True).columns}
        self.run.check("simulation", checks.check_simulation, codes, lib, with_c)


# -- oracle workload ---------------------------------------------------------------------------


class OracleDags(Workload):
    """``oracle`` on seeded random 12-node DAGs with 3 latent nodes, one per round."""

    pool = 400
    adjacency_sample = 12

    def build(self) -> None:
        import inputs

        self.dags = []
        for k in range(self.pool):
            nodes, edges, observed = inputs.random_dag(self.run.seed, k)
            truth = {
                "kind": "dag",
                "nodes": nodes,
                "edges": [{"a": a, "b": b, "mark_a": "tail", "mark_b": "arrow"} for a, b in edges],
            }
            path = self.run.work / f"dag{k}.json"
            path.write_text(json.dumps(truth), encoding="utf-8")
            self.dags.append((path, nodes, edges, observed))

    def round(self, i: int) -> None:
        r = self.run
        path, _, _, observed = self.dags[i % self.pool]
        ok, ref, wall = r.cli(
            ["oracle", "--truth", path, "--observe", ",".join(observed),
             "--format", "json", "--out", r.work / f"o{i}.json"]
        )
        if ok:
            r.single_times.append(wall)
            r.learned(1, ref, wall)
        self.rounds_done += 1

    def check_all(self, tracer) -> None:
        import checks

        r = self.run
        sample = set(random.Random(r.seed).sample(
            range(self.rounds_done), min(self.adjacency_sample, self.rounds_done)))
        for i in range(self.rounds_done):
            _, nodes, edges, observed = self.dags[i % self.pool]
            out = r.work / f"o{i}.json"
            if not out.is_file():
                continue  # its command failed, and counted so
            dag = checks.Dag(nodes, edges)
            pag = checks.Pag.from_json_text(out.read_text(encoding="utf-8"))
            r.check(f"oracle PAG {i} marks", checks.check_oracle_marks, pag, dag)
            if i in sample:
                r.check(f"oracle PAG {i} adjacencies", checks.check_oracle_adjacencies,
                        pag, dag, observed)


WORKLOADS = {
    "bird27-pds": Bird27,
    "xray8-boot": Xray8,
    "sim100k-cli": Sim100k,
    "oracle-dags": OracleDags,
}


# -- driver -----------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pagaudit" / "__init__.py").is_file():
        return fail(f"no pagaudit sources under {SRC}; run from a source checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import pagaudit  # noqa: F401

    if Path(pagaudit.__file__).resolve().parent != (SRC / "pagaudit").resolve():
        return fail(f"imported pagaudit from {pagaudit.__file__}, not {SRC}")
    import numpy  # noqa: F401
    import pagaudit.cli  # noqa: F401
    import spans as tracing

    import_s = time.perf_counter() - T0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = Run(work, args.seed)
        wl = WORKLOADS[args.workload](run)
        tracer = tracing.Tracer(args.seed) if args.trace else None
        if tracer:
            tracer.install()

        builds = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(builds)

        if tracer:
            tracer.phase = tracing.ROUND
        else:
            CLOCK.start()  # traced runs leave it out: the handler would sit in their spans
        start = time.perf_counter()
        i = 0
        while True:
            wl.round(i)
            i += 1
            if time.perf_counter() - start >= args.seconds:
                break
        rounds_s = time.perf_counter() - start
        CLOCK.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.rounds = i
            tracer.uninstall()

        start = time.perf_counter()
        wl.check_all(tracer)
        checks_s = time.perf_counter() - start
        correct = run.failed == 0 and not run.problems

        if args.trace:
            layer = tracer.metrics()
            layer["cli.discover_s"] = (statistics.fmean(run.single_times), "s")
            names = [m["name"] for m in spec["per_layer"]]
            metrics = {n: {"value": layer[n][0], "unit": layer[n][1]} for n in names}
            tracer.save(OUT / f"{tag}.trace.npz")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pags_per_s": {"value": sum(run.pag_counts) / sum(run.pag_times), "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            names = [m["name"] for m in spec["end_to_end"]]
            if sorted(names) != sorted(metrics):
                return fail(f"BENCHMARK.json end_to_end {names} != measured {sorted(metrics)}")
    finally:
        CLOCK.stop()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {i} rounds in "
          f"{rounds_s:.3f} s ({rounds_s / i:.4f} s/round), checks {checks_s:.1f} s, attempted {run.attempted}, "
          f"failed {run.failed}, correct {correct}")
    print(f"  {len(run.single_times)} discover/oracle commands, mean "
          f"{statistics.fmean(run.single_times):.6g} s (reported as cli.discover_s when traced)")
    print(f"  set-up: import {import_s:.4g} s, builds " + ", ".join(f"{b:.4g}" for b in builds) + " s")
    if not args.trace:
        print(f"  wall time: {sum(run.pag_counts) / sum(run.pag_wall):.6g} PAGs/s; reference "
              f"clock: {len(CLOCK.task_s)} samples, median {CLOCK.speed():.4g} reference s per wall s")
    for p in run.problems[:20]:
        print(f"  problem: {p}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
