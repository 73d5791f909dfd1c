"""The benchmark's traced run (perfbench/tracer.py) against the live package.

The tracer patches fieldlab functions by name, so a rename in `src/` breaks
the traced benchmark run; this test makes that show in the test suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

from fieldlab import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_and_plain(tmp_path, cfg):
    """Run one verify call untraced, then traced; check that the tracer restores.

    Returns the untraced and traced report bytes and the tracer's snapshot.
    """
    tracer = _load_tracer()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def verify(out):
        assert cli.main(["verify", "--config", str(path), "--output-dir", str(out)]) in (0, 1)
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "resolved_config.json"}

    namespaces = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
                  if name == "fieldlab" or name.startswith("fieldlab.")}
    verifiers = dict(cli.VERIFIERS)

    plain = verify(tmp_path / "plain")
    with tracer.Tracer() as tr:
        traced = verify(tmp_path / "traced")

    assert cli.VERIFIERS.keys() == verifiers.keys()
    assert all(cli.VERIFIERS[k] is fn for k, fn in verifiers.items())
    for name, before in namespaces.items():
        after = vars(sys.modules[name])
        assert [k for k, v in before.items() if after.get(k) is not v] == [], name
    return plain, traced, tr.snapshot()


def test_traced_verify_matches_untraced_and_restores(tmp_path):
    cfg = {
        "seed": 0,
        "model": {"kind": "linear_ma", "d": 1, "innovation": "exponential",
                  "coeffs": {"0": 1.0, "1": 0.5}},
        "verify": {"claims": ["coupling_error_decay"],
                   "overrides": {"coupling_error_decay": {
                       "depths": [3, 5], "m_cdf": 100, "m_eval": 100}}},
    }
    plain, traced, (counts, _, functions) = _traced_and_plain(tmp_path, cfg)

    assert sorted(plain) == ["coupling_error_decay.csv", "summary.json"]
    assert traced == plain
    assert counts["verify.claims"] == 1
    # one top-block shape per depth: two CDFs drawn through coupling._anchored_xi_batch
    assert functions["coupling.cdf_xi_batch"][0] == 2
    assert functions["coupling.estimate_cdf"][0] == 2


def test_traced_approximation_study_on_two_workers(tmp_path):
    cfg = {
        "seed": 1,
        "workers": 2,
        "model": {"kind": "iid", "d": 1},
        "verify": {"claims": ["approximation_error"],
                   "overrides": {"approximation_error": {
                       "depths": [8], "replicates": 7, "exact_phi": True,
                       "bootstrap": 20}}},
    }
    plain, traced, (counts, _, functions) = _traced_and_plain(tmp_path, cfg)

    assert sorted(plain) == ["approximation_error.csv", "summary.json"]
    assert traced == plain
    # the replicates are spread over the pool's threads; their sum is one per
    # replicate, each coupled slab by slab through corner_errors
    assert functions["coupling.corner_errors"][0] == 7
    assert functions["verify.kernel"][0] == 7
    assert functions["verify.map_replicate_chunks"][0] == 1
