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

from pagaudit import cli
from pagaudit.data import read_csv_text
from pagaudit.fci import FciConfig, fci_run
from pagaudit.graph import to_json

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
    result = fci_run(d, cfg=FciConfig(test="fisherz"))
    got["fisherz.graph"] = sha256(to_json(result.graph).encode())
    diag = json.dumps(asdict(result.diagnostics), sort_keys=True)
    got["fisherz.diagnostics"] = sha256(diag.encode())
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(outputs, name):
    assert outputs.get(name) == GOLDEN[name]
