"""Report bytes pinned to digests recorded at earlier commits.

The first config's digests were recorded before the batched sampling engine,
with one generator built per replicate and the prefix kept whole in
longdouble.  The batched engine (rng.streams, the stacked moving average in
fields.sample_block_batch and the companion draws of the coupling) must draw
exactly the numbers of one Philox stream per replicate, and the d = 1 prefix
max-min of maximal_growth must round exactly as before.

The other configs' digests were recorded while M(V) was still reduced one
SampleGrid per replicate in d >= 2 and check_lil summed its own prefix.  They
pin the stacked reduction sums.sum_and_max in d = 2 and d = 3, tail_bound's
d = 1 maxima, and the dyadic prefixes of iterated_logarithm on a block of
2^20 cells, whose prefix stays in longdouble.

The approximation_error configs' digests were recorded while the study
coupled its replicates one after another on one thread, with the longdouble
prefix copied into its zero-padded array.  They pin the S - sigma W study on
the thread workers: an exact-Phi call at depth 48, whose 1,421,000-cell
prefixes were then kept in longdouble, and an empirical-CDF call on the
exponential model, whose threads share one table of CDFs.

Since then replicates are mapped in tasks of at most 2^16 cells, and
check_lil no longer builds a SampleGrid per replicate: it draws each line
in segments through fields.line_segments and reads the dyadic net from
sums.prefix_at, rounded to float64 at the net.  The digests were kept
unchanged.

The last digests were recorded while every S - sigma W replicate was still
coupled on its whole domain through run_coupling, which has since moved out
of the package into tests/reference.py as the reference that
coupling.corner_errors is tested against.  They pin the d = 1 study
coupled over slabs through coupling.corner_errors, now in two passes, one
for the field and one for the Wiener increments: an empirical-CDF call
on a Rademacher kernel with a negative lag whose depth-24 domain spans two
slabs, and a `couple` run at alpha = 4 whose depth-16 top block is larger
than a slab.  A d = 2 `couple` run, recorded on the whole-domain path,
now pins the same slab path in d = 2, which reads the prefix at the
corners of each block through its carried column sums.  Every prefix
array is now stored rounded to float64.

A change in any drawn value, in the draw order, in the rounding of a prefix
or in the serialization changes these digests.
"""

import hashlib
import json

import pytest

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

# (config, exit code, digests); the d = 3 ladder fails its slope cap at
# this scale, and that verdict is part of the pinned bytes
STACKED = [
    (
        {"seed": 11,
         "model": {"kind": "linear_ma", "d": 2,
                   "coeffs": {"0,0": 1.0, "1,0": -0.3, "0,1": 0.2}},
         "verify": {"claims": ["maximal_growth"], "overrides": {"maximal_growth": {
             "ladder": [[3, 5], [8, 8], [16, 12]], "replicates": 300}}}},
        0,
        {"maximal_growth.csv":
             "f408b48c196195ae5b0d555060aefe5468066e4c62ef35e71e88698595a76711",
         "summary.json": "85220e6923fdfaee32957b035d7c16e74c11806169502565a5b0e6e0c1732ea4"},
    ),
    (
        {"seed": 2,
         "model": {"kind": "linear_ma", "d": 3, "coeffs": {"0,0,0": 1.0, "0,1,1": 0.3}},
         "verify": {"claims": ["maximal_growth"], "overrides": {"maximal_growth": {
             "ladder": [[2, 3, 2], [4, 5, 3]], "replicates": 300}}}},
        1,
        {"maximal_growth.csv":
             "1583ddb1d1a7bb08ec9639d32bf1703c9d95021517bba1f0ca2dbcd15c7774de",
         "summary.json": "b20fae2dd08dde85768eb8ff5bef0c338fad16fba1dd2e711fb1b08c9705efda"},
    ),
    (
        {"seed": 5,
         "model": {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": 0.5}},
         "verify": {"claims": ["tail_bound", "iterated_logarithm"], "overrides": {
             "tail_bound": {"V": 1000, "replicates": 300},
             "iterated_logarithm": {"depth": 20, "replicates": 3}}}},
        0,
        {"iterated_logarithm.csv":
             "8a120462d0ce0ed21c2a1b5352f1beddbb2f2290479c088c387cf60eb3480165",
         "summary.json": "b615e4360457b900ae29f364d575bba66dc8b6e76ceb21f24c7a1c5b18dfc5fd",
         "tail_bound.csv": "fa9052e006b2dbbac5c126d3b4a45b44a8216f15fe3519730f67b9bfc9d5f644"},
    ),
]


APPROXIMATION = [
    (
        {"seed": 3,
         "model": {"kind": "iid", "d": 1},
         "verify": {"claims": ["approximation_error"], "overrides": {"approximation_error": {
             "depths": [48], "replicates": 4, "exact_phi": True, "bootstrap": 50}}}},
        0,
        {"approximation_error.csv":
             "741ce559fe19c23f59cabde8a578fef5b4e33c4e74cfab821cf94418b55ff26a",
         "summary.json": "54ec798acbe28e345b86d1e06220e0a360e564bfed6bcd7431f51b2412847254"},
    ),
    (
        {"seed": 4,
         "model": {"kind": "linear_ma", "d": 1, "innovation": "exponential",
                   "coeffs": {"0": 1.0, "1": 0.5}},
         "verify": {"claims": ["approximation_error"], "overrides": {"approximation_error": {
             "depths": [5, 8], "replicates": 12, "m_cdf": 300, "bootstrap": 50}}}},
        1,
        {"approximation_error.csv":
             "e942964d9c514fab56e98633601b2b97987749506039f7ce1d81e36a1722c3ba",
         "summary.json": "5f7318c9a645131f5f74625230f7b87f3a2c267a8aff6a996da9d891671b68a0"},
    ),
    (
        {"seed": 9,
         "model": {"kind": "linear_ma", "d": 1, "innovation": "rademacher",
                   "coeffs": {"-1": 0.4, "0": 1.0, "2": -0.5}},
         "verify": {"claims": ["approximation_error"], "overrides": {"approximation_error": {
             "depths": [8, 24], "replicates": 8, "m_cdf": 200, "bootstrap": 30}}}},
        1,
        {"approximation_error.csv":
             "70ecbbdf40c648bc17779c1987576c1f79e64603cc84b138e041ec6e52c26b2f",
         "summary.json": "53c9f4cba0aee04820e15b9a81985749ad43ce8377c7ae772f400b1a6e1568d0"},
    ),
]

# `couple` configs and the digests of couple.json and couple.csv
COUPLE = [
    (
        {"seed": 6,
         "model": {"kind": "linear_ma", "d": 1, "coeffs": {"-2": 0.3, "0": 1.0, "1": 0.5}},
         "couple": {"depths": [6, 16], "replicates": 6, "exact_phi": True,
                    "alpha": 4, "bootstrap": 30}},
        {"couple.csv": "70b6d304969ca8c719a52705a1cec147e4ca0fb5441abdf32eeee1f6a739d2c0",
         "couple.json": "f735e3fa31f5d760a8fd498838063face8b5c962e3dbe5af1f46d3be058bce3e"},
    ),
    (
        {"seed": 8,
         "model": {"kind": "linear_ma", "d": 2, "coeffs": {"0,0": 1.0, "1,0": -0.3}},
         "couple": {"depths": [4, 6], "replicates": 6, "exact_phi": True,
                    "tau": 0.5, "bootstrap": 20}},
        {"couple.csv": "378f64c3f54d157dde244eb16ddabdaee697110bb43983153fd59556d34641e8",
         "couple.json": "24489fd315df12467c53f38156ea981b20d6b6a1b5495989e9011e0cd7cdb7af"},
    ),
]


def _digests(tmp_path, config, command="verify") -> tuple[int, dict]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--output-dir", str(out)])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in out.iterdir() if p.name != "resolved_config.json"}


def test_verify_reports_match_recorded_digests(tmp_path):
    assert _digests(tmp_path, CONFIG) == (0, DIGESTS)


@pytest.mark.parametrize("config, code, digests", STACKED,
                         ids=["maximal_d2", "maximal_d3", "tail_lil"])
def test_stacked_reductions_match_recorded_digests(tmp_path, config, code, digests):
    assert _digests(tmp_path, config) == (code, digests)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, code, digests", APPROXIMATION,
                         ids=["exact_phi_d48", "empirical_cdf", "rademacher_cdf"])
def test_approximation_study_matches_recorded_digests(tmp_path, config, code, digests,
                                                      workers):
    assert _digests(tmp_path, {**config, "workers": workers}) == (code, digests)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, digests", COUPLE, ids=["alpha4_d1", "exact_phi_d2"])
def test_couple_matches_recorded_digests(tmp_path, config, digests, workers):
    assert _digests(tmp_path, {**config, "workers": workers}, "couple") == (0, digests)


# The digests below were recorded before the canonical JSON and CSV format
# had one writer in verify (write_json, write_csv, write_summary).  They pin
# the files that no digest above pins: simulate.json, resolved_config.json,
# the table that `theory` prints and the summary that `report` merges.

# `simulate` configs and the digest of simulate.json: a d = 1 Rademacher
# kernel on a line longer than a prefix chunk (2^14 cells), and a d = 2 model
SIMULATE = [
    (
        {"seed": 12,
         "model": {"kind": "linear_ma", "d": 1, "innovation": "rademacher",
                   "coeffs": {"-1": 0.4, "0": 1.0, "2": -0.5}},
         "simulate": {"block": {"a": [-3], "b": [20000]}, "replicates": 3}},
        "5da22ef30be308597002ec8c8db7c16cc644fa61092488c19ab67f9fc3c54691",
    ),
    (
        {"seed": 13,
         "model": {"kind": "linear_ma", "d": 2, "innovation": "exponential",
                   "coeffs": {"0,0": 1.0, "1,0": -0.3, "0,1": 0.2}},
         "simulate": {"block": {"a": [0, -2], "b": [6, 5]}, "replicates": 4}},
        "77bfd477116d3e59aee824cc4da0624c4901d74fc5be97cb5b253e1030b8a310",
    ),
]

# two verify runs; the second fails its variance-defect check
MERGED = [
    {"seed": 11, "workers": 2,
     "model": {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": -0.5}},
     "verify": {"claims": ["variance_defect", "second_moment_bound"], "delta": 0.25,
                "overrides": {"second_moment_bound": {"sizes": [10, 100, 1000]}}}},
    {"seed": 2,
     "model": {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": -0.5}},
     "verify": {"claims": ["variance_defect"],
                "overrides": {"variance_defect": {"edges": [640, 10]}}}},
]
RESOLVED_DIGEST = "e3113230a8941ba2d3a358e4cd01f4e2517cc0d9fe20cff7bd2b275476c310b2"
MERGED_DIGEST = "d46714b77675f2864663dc2594022e06df0a6feacd495d9cf95364030fd2b3ac"
THEORY_DIGEST = "2fa7dd5211e9efd942079c7ac7d49570082f23c98a7fa87e7a8cb38750b68553"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("config, digest", SIMULATE, ids=["rademacher_d1", "exponential_d2"])
def test_simulate_matches_recorded_digest(tmp_path, config, digest):
    assert _digests(tmp_path, config, "simulate") == (0, {"simulate.json": digest})


def test_resolved_config_and_report_match_recorded_digests(tmp_path, monkeypatch):
    # the output directory comes from the environment, so that the resolved
    # config holds no path of this machine; the flags override the config
    outputs = []
    for i, config in enumerate(MERGED):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        outputs.append(tmp_path / f"out{i}")
        monkeypatch.setenv("FIELDLAB_OUT", str(outputs[-1]))
        flags = ["--seed", "17", "--claims", "second_moment_bound"] if i == 0 else []
        assert main(["verify", "--config", str(path), *flags]) == i
    assert _sha((outputs[0] / "resolved_config.json").read_bytes()) == RESOLVED_DIGEST
    merged = tmp_path / "merged"
    assert main(["report", "--inputs", *map(str, outputs), "--output-dir", str(merged)]) == 1
    assert [p.name for p in merged.iterdir()] == ["summary.json"]
    assert _sha((merged / "summary.json").read_bytes()) == MERGED_DIGEST


def test_theory_table_matches_recorded_digest(capsys):
    assert main(["theory", "--p", "5"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == THEORY_DIGEST
