"""Report bytes pinned to digests recorded before the batched sampling engine.

The batched engine (rng.streams, the stacked moving average in
fields.sample_block_batch and the companion draws of the coupling) must
draw exactly the numbers of one Philox stream per replicate, and the d = 1
prefix max-min of maximal_growth must round exactly as before.  A change in
any drawn value, in the draw order, in that rounding or in the
serialization changes these digests.  They were recorded with one
generator built per replicate and the prefix kept whole in longdouble.
"""

import hashlib
import json

from fieldlab.cli import main

CONFIG = {
    "seed": 7,
    "model": {"kind": "linear_ma", "d": 1, "innovation": "exponential",
              "coeffs": {"0": 1.0, "1": 0.5}},
    "verify": {
        "claims": ["dependence_bound", "moment_growth", "maximal_growth",
                   "clt_distance", "coupling_error_decay"],
        "overrides": {
            "dependence_bound": {"pairs": 4, "replicates": 700},
            "moment_growth": {"ladder": [16, 64, 256], "replicates": 300},
            "maximal_growth": {"ladder": [16, 64, 256], "replicates": 300},
            "clt_distance": {"ladder": [100, 1000], "replicates": 300},
            "coupling_error_decay": {"depths": [3, 5], "m_cdf": 300, "m_eval": 300},
        },
    },
}

DIGESTS = {
    "clt_distance.csv": "dc870385147b3febda0b9fd7fe0626b06d02e04d969f6ec679ec54c0e204c6ff",
    "coupling_error_decay.csv":
        "2b87ac92db3607cc1ffc38a9d8957cac1ea6f76cf31938e1ff71e9958f358511",
    "dependence_bound.csv": "f1e2a4a179eb1409dfe8f914999b78c82ce589fa6fa19000338f007ddce5a215",
    "maximal_growth.csv": "4775f51e3ed87b64be47a5ad345a71d368ece8de385e9a224373585bb9e6403c",
    "moment_growth.csv": "5c4e9745a2c894d3a9b071d02078523426dec90f5b9b69a531a2420ee3578766",
    "summary.json": "7f0ef8c5aea640634f1cc7ca33b5db1f0e01edde72de6bde874cc868dd231bf3",
}


def test_verify_reports_match_recorded_digests(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != "resolved_config.json"}
    assert got == DIGESTS
