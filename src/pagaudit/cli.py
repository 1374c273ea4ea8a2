"""Command-line entry point.

Subcommands: ``simulate`` (synthetic data), ``discover`` (one FCI run),
``stability`` (bootstrap report), ``oracle`` (population-limit run against a
truth DAG) and ``rerun`` (repeat a run from its manifest).  Every command
writes a JSON manifest next to its outputs recording the resolved parameters
and input digests; rerunning a manifest reproduces the outputs byte for byte.

Exit codes: 0 success, 2 input error, 3 knowledge inconsistency, 4 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .data import (
    Dataset,
    parse_schema,
    read_csv,
    read_text,
    schema_text,
    write_csv,
    write_text,
)
from .errors import InputError, KnowledgeInconsistencyError, PagauditError
from .fci import FciConfig, fci_run, parse_knowledge
from .graph import BackgroundKnowledge, MixedGraph, from_json, to_dot, to_json
from .simgen import DEFAULT_TARGET, simulate, truth_dag
from .citests import CiOracle
from .stability import StabilityConfig, run_stability

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_KNOWLEDGE = 3
EXIT_INTERNAL = 4

BUILTIN_TRUTHS = ("fig4a", "shapes")


def _env_alpha() -> float:
    raw = os.environ.get("PAGAUDIT_ALPHA")
    if raw is None:
        return 0.05
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"PAGAUDIT_ALPHA is not a number: {raw!r}") from None


def _env_seed() -> int:
    raw = os.environ.get("PAGAUDIT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"PAGAUDIT_SEED is not an integer: {raw!r}") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(command: str, params: dict, inputs: list[Path], outputs: list[Path]) -> Path:
    manifest = {
        "tool": "pagaudit",
        "version": __version__,
        "command": command,
        "parameters": params,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    first_out = outputs[0]
    path = Path(str(first_out) + ".manifest.json")
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _load_dataset(data: str, schema: str | None) -> tuple[Dataset, list[Path]]:
    data_path = Path(data)
    if not data_path.exists():
        raise InputError(f"data file not found: {data}")
    schema_path = Path(schema) if schema else Path(str(data_path) + ".schema")
    if not schema_path.exists():
        raise InputError(f"schema file not found: {schema_path}")
    schema_map = parse_schema(read_text(schema_path))
    return read_csv(data_path, schema_map), [data_path, schema_path]


def _load_knowledge(knowledge: str | None, names) -> tuple[BackgroundKnowledge | None, list[Path]]:
    if not knowledge:
        return None, []
    kpath = Path(knowledge)
    if not kpath.exists():
        raise InputError(f"knowledge file not found: {knowledge}")
    return parse_knowledge(read_text(kpath), names), [kpath]


def _graph_text(g: MixedGraph, fmt: str) -> str:
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return to_json(g)
    raise InputError(f"unknown output format {fmt!r}")


# -- command handlers ----------------------------------------------------------


def cmd_simulate(params: dict) -> None:
    n = int(params["n"])
    seed = int(params["seed"])
    include_c = bool(params["include_c"])
    mode = params["mode"]
    out = Path(params["out"])
    d = simulate(n, seed, include_c=include_c, mode=mode)
    write_csv(d, out)
    schema_path = Path(str(out) + ".schema")
    write_text(schema_path, schema_text(d))
    _write_manifest("simulate", params, [], [out, schema_path])
    print(f"wrote {d.n} rows x {len(d.names)} columns to {out}")


def cmd_discover(params: dict) -> None:
    d, inputs = _load_dataset(params["data"], params.get("schema"))
    knowledge, kinputs = _load_knowledge(params.get("knowledge"), d.names)
    cfg = FciConfig(
        alpha=params["alpha"],
        max_cond_size=params["max_cond_size"],
        enable_possible_dsep=not params["no_possible_dsep"],
        test=params["test"],
    )
    result = fci_run(d, knowledge=knowledge, cfg=cfg, target=params.get("target"))
    out = Path(params["out"])
    write_text(out, _graph_text(result.graph, params["format"]))
    diag_path = Path(str(out) + ".diagnostics.json")
    diagnostics = json.dumps(asdict(result.diagnostics), indent=2, sort_keys=True)
    write_text(diag_path, diagnostics + "\n")
    _write_manifest("discover", params, inputs + kinputs, [out, diag_path])
    print(f"learned graph with {result.graph.n_edges} edges -> {out}")


def cmd_stability(params: dict) -> None:
    d, inputs = _load_dataset(params["data"], params.get("schema"))
    target = params["target"]
    knowledge, kinputs = _load_knowledge(params.get("knowledge"), d.names)
    cfg = StabilityConfig(
        target=target,
        replicates=int(params["replicates"]),
        base_seed=int(params["base_seed"]),
        fci=FciConfig(
            alpha=params["alpha"],
            max_cond_size=params["max_cond_size"],
            enable_possible_dsep=not params["no_possible_dsep"],
            test=params["test"],
        ),
        subsample_fraction=params.get("subsample_fraction"),
    )
    report = run_stability(d, cfg, knowledge=knowledge)
    prefix = Path(params["out"])
    json_path = Path(str(prefix) + ".json")
    csv_path = Path(str(prefix) + ".csv")
    write_text(json_path, report.to_json())
    write_text(csv_path, report.to_csv())
    _write_manifest("stability", params, inputs + kinputs, [json_path, csv_path])
    print(
        f"{report.successes}/{report.replicates} replicates succeeded; "
        f"report -> {json_path}, {csv_path}"
    )


def cmd_oracle(params: dict) -> None:
    truth_spec = params["truth"]
    inputs: list[Path] = []
    if truth_spec in BUILTIN_TRUTHS:
        truth = truth_dag(outcome_name=DEFAULT_TARGET)
    else:
        tpath = Path(truth_spec)
        if not tpath.exists():
            raise InputError(f"truth graph not found: {truth_spec}")
        truth = from_json(read_text(tpath))
        inputs.append(tpath)
    observed = [s for s in params["observe"].split(",") if s]
    if len(observed) < 2:
        raise InputError("need at least two observed nodes")
    oracle = CiOracle(truth, tuple(observed))
    knowledge, kinputs = _load_knowledge(params.get("knowledge"), observed)
    cfg = FciConfig(alpha=0.05, max_cond_size=params["max_cond_size"], test="oracle")
    result = fci_run(oracle, knowledge=knowledge, cfg=cfg, target=params.get("target"))
    out = Path(params["out"])
    write_text(out, _graph_text(result.graph, params["format"]))
    _write_manifest("oracle", params, inputs + kinputs, [out])
    print(f"oracle graph with {result.graph.n_edges} edges -> {out}")


HANDLERS = {
    "simulate": cmd_simulate,
    "discover": cmd_discover,
    "stability": cmd_stability,
    "oracle": cmd_oracle,
}


def cmd_rerun(manifest_path: str) -> None:
    path = Path(manifest_path)
    if not path.exists():
        raise InputError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(read_text(path))
        command = manifest["command"]
        params = manifest["parameters"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise InputError(f"malformed manifest: {exc}") from exc
    handler = HANDLERS.get(command)
    if handler is None:
        raise InputError(f"manifest names unknown command {command!r}")
    handler(params)


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagaudit",
        description="Explain black-box predictions by learning a causal PAG "
        "over interpretable features.",
    )
    parser.add_argument("--version", action="version", version=f"pagaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate data from the built-in simulation")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=None, help="default: PAGAUDIT_SEED or 0")
    p.add_argument("--include-c", action="store_true", dest="include_c")
    p.add_argument("--mode", choices=["perfect", "logistic"], default="logistic")
    p.add_argument("--out", required=True)

    def add_fci_flags(p):
        p.add_argument("--alpha", type=float, default=None, help="default: PAGAUDIT_ALPHA or 0.05")
        p.add_argument("--max-cond-size", type=int, default=None, dest="max_cond_size")
        p.add_argument("--test", choices=["auto", "chi2", "g2", "fisherz"], default="auto")
        p.add_argument("--no-possible-dsep", action="store_true", dest="no_possible_dsep")

    p = sub.add_parser("discover", help="one FCI run on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None, help="default: <data>.schema")
    p.add_argument("--knowledge", default=None)
    p.add_argument("--target", default=None, help="declare as non-ancestor of all others")
    add_fci_flags(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", required=True)

    p = sub.add_parser("stability", help="bootstrap edge-stability report")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--knowledge", default=None)
    p.add_argument("--target", required=True)
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--base-seed", type=int, default=None, dest="base_seed")
    p.add_argument("--subsample-fraction", type=float, default=None, dest="subsample_fraction")
    add_fci_flags(p)
    p.add_argument("--out", required=True, help="output prefix for .json and .csv")

    p = sub.add_parser("oracle", help="population-limit FCI against a truth DAG")
    p.add_argument("--truth", required=True, help="'fig4a' (builtin) or a graph JSON path")
    p.add_argument("--observe", required=True, help="comma-separated observed nodes")
    p.add_argument("--knowledge", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--max-cond-size", type=int, default=None, dest="max_cond_size")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerun", help="repeat a run from its manifest")
    p.add_argument("manifest")
    return parser


def _resolve_params(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in vars(args).items() if k != "command"}
    if "alpha" in params and params["alpha"] is None:
        params["alpha"] = _env_alpha()
    if "seed" in params and params["seed"] is None:
        params["seed"] = _env_seed()
    if "base_seed" in params and params["base_seed"] is None:
        params["base_seed"] = _env_seed()
    return params


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            cmd_rerun(args.manifest)
        else:
            HANDLERS[args.command](_resolve_params(args))
    except KnowledgeInconsistencyError as exc:
        print(f"error (knowledge): {exc}", file=sys.stderr)
        return EXIT_KNOWLEDGE
    except InputError as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PagauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
