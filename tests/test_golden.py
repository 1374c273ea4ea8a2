"""Byte-identity gate: sha256 digests of pinned CLI and library outputs.

The digests were captured from the code as it stood before the stability
pipeline was simplified, and every refactor must reproduce them exactly.  A
change that alters an output on purpose updates the digest here and says so.
Manifests are left out because they record the temporary paths of a run.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from helpers import bird_like_standin, random_latent_dag
from pagaudit import cli
from pagaudit.data import read_csv_text
from pagaudit.fci import FciConfig, fci_run
from pagaudit.graph import to_json
from pagaudit.stability import bootstrap_replicate

GOLDEN = {
    "simulate.csv": "76c9740bcfe20843895a49ef76a91e167e464098774e5338f04e4ad0a75c0f30",
    "simulate.csv.schema": "483708515872ae734a42cf9b10c94c72b769a60edfe6f724433bcf0255fb53e6",
    "discover-auto.json": "f5e21fced881346f99adeacaf0235d048a38b9063633489d688a08346b175588",
    "discover-auto.json.diagnostics.json": (
        "4229af8126e6d0a5eca880995d98becddcb26e0c986910016eb2700b5f369741"
    ),
    "discover-g2.json": "f5e21fced881346f99adeacaf0235d048a38b9063633489d688a08346b175588",
    "discover-g2.json.diagnostics.json": (
        "4229af8126e6d0a5eca880995d98becddcb26e0c986910016eb2700b5f369741"
    ),
    "stability-boot.json": "d87951c224e756ff283ae60d578b9f079370c40781b7041e00361648af78aec5",
    "stability-boot.csv": "929a2df4776d52f2a1f39f375163d5ffa50a829d9f9a68f418a6e8df9f6ef167",
    "stability-sub.json": "394d6edfcb5cb0c12b9127155ef4645237c40502a6977505bfa853552f088529",
    "stability-sub.csv": "2de0101566d140e18dad3e5fb499ca8585abf8ceccbd1071a988ed6f86828550",
    "oracle.dot": "4ab6b1bc8166432fcc61b84b5267b0db36773a6253f4e45348d951cae4463097",
    "fisherz.graph": "3aeaaa849628b8b3c73a65056146d7f402562c2e2cdf666c0951c03df1f3e9ad",
    "fisherz.diagnostics": "2fc48e27abea7d1d1494276aba12bb80785e5f58ff527a91127a33f35bc7945d",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fci_digests(result) -> dict[str, str]:
    """Digests of one FCI run's graph JSON, separating sets and diagnostics."""
    sepsets = [[i, j, sorted(e.nodes), e.from_knowledge] for (i, j), e in result.sepsets.items()]
    diag = json.dumps(asdict(result.diagnostics), sort_keys=True)
    return {
        "graph": sha256(to_json(result.graph).encode()),
        "sepsets": sha256(json.dumps(sepsets).encode()),
        "diagnostics": sha256(diag.encode()),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    data = tmp / "simulate.csv"

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    run("simulate", "--n", 2000, "--seed", 3, "--out", data)
    for test in ("auto", "g2"):
        out = tmp / f"discover-{test}.json"
        run("discover", "--data", data, "--target", "Yhat", "--test", test,
            "--format", "json", "--out", out)
    stability = ["stability", "--data", data, "--target", "Yhat",
                 "--replicates", 8, "--base-seed", 2]
    run(*stability, "--out", tmp / "stability-boot")
    run(*stability, "--subsample-fraction", 0.5, "--out", tmp / "stability-sub")
    run("oracle", "--truth", "fig4a", "--observe", "H,V,R,Yhat", "--target", "Yhat",
        "--out", tmp / "oracle.dot")
    got = {name: sha256((tmp / name).read_bytes()) for name in GOLDEN if (tmp / name).exists()}

    # the continuous data of test_cli.py::test_discover_continuous_data_fisherz
    rng = np.random.default_rng(8)
    x = rng.normal(size=600)
    z = 0.9 * x + rng.normal(size=600)
    y = 0.9 * z + rng.normal(size=600)
    text = "\n".join(["x,z,y"] + [f"{a:.6f},{b:.6f},{c:.6f}" for a, b, c in zip(x, z, y)])
    d = read_csv_text(text + "\n", {"x": ("cont", None), "z": ("cont", None), "y": ("cont", None)})
    fisherz = fci_digests(fci_run(d, cfg=FciConfig(test="fisherz")))
    got["fisherz.graph"] = fisherz["graph"]
    got["fisherz.diagnostics"] = fisherz["diagnostics"]
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(outputs, name):
    assert outputs.get(name) == GOLDEN[name]


# Bootstrap replicate 0 (base seed 1) of the 27-column criterion-8 stand-in,
# arities 2, 3 and 9, with Possible-D-SEP on: mixed arities, PDS walks and
# symmetric cache hits, which the pinned CLI outputs above do not reach.
# Captured before the chi-square queries were batched.
GOLDEN_BIRD27 = {
    "chi2": {
        "graph": "9bc418701b92bbe1d78194d1778c985cda594a3c0bfd2b65acdcd32e510dbdae",
        "sepsets": "3a7674de7ebb5a2cc8ed910fbba3ddc2a526dcfb815c05f03c51b07b007ce71b",
        "diagnostics": "819d6945cfc9307d8b0d9630adf6a629d10c0f32b279ba38b26fc75d7b9c0fd8",
    },
    "g2": {
        "graph": "50c62773141cb383f4bb539f762a26d4746748eb0cc25c4809d14b96ed009d99",
        "sepsets": "375b5b02b800b4a13ee81534facc915d77c688e30002139711cf73acc2895201",
        "diagnostics": "a29e7d8f2b1a3957fdea7b2c92b963e8ddf9e98b31888da7f38934387617d291",
    },
}


@pytest.mark.parametrize("test", sorted(GOLDEN_BIRD27))
def test_bird27_replicate_matches_golden_digest(test):
    rep = bootstrap_replicate(bird_like_standin(), 1, 0)
    cfg = FciConfig(alpha=0.05, max_cond_size=3, test=test)
    assert fci_digests(fci_run(rep, cfg=cfg, target="label")) == GOLDEN_BIRD27[test]


# The `oracle` command's PAG JSON on 40 seeded 12-node, 20-edge DAGs with 3
# latent nodes, concatenated in seed order: colliders, latent confounding and
# Possible-D-SEP on graphs the fig4a truth above is too small to reach.
# Captured before the oracle's d-separation moved to bitmasks.
GOLDEN_RANDOM_ORACLE = "2bb1d75413f1bed057ceb10e59edf67bb66c77f250ce3e50c949f7422defbd32"


def test_random_dag_oracle_pags_match_golden_digest(tmp_path):
    pags = []
    for seed in range(40):
        dag, observed = random_latent_dag(seed)
        truth, out = tmp_path / f"truth{seed}.json", tmp_path / f"pag{seed}.json"
        truth.write_text(to_json(dag))
        argv = ["oracle", "--truth", truth, "--observe", ",".join(observed),
                "--format", "json", "--out", out]
        assert cli.main([str(a) for a in argv]) == 0
        pags.append(out.read_bytes())
    assert sha256(b"".join(pags)) == GOLDEN_RANDOM_ORACLE
