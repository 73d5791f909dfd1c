import json
import math

import numpy as np
import pytest
from scipy.special import ndtri

from fieldlab.cli import VERIFIERS
from fieldlab.fields import linear_ma_model
from fieldlab.lattice import Block
from fieldlab.verify import (
    CLAIMS,
    check_clt_distance,
    check_coupling_error_decay,
    check_dependence,
    check_inverse_distance_sum,
    check_lil,
    check_maximal_inequality,
    check_moment_inequality,
    check_noise_stability,
    check_second_moment,
    check_tail_bound,
    check_variance_defect,
    check_variance_ratio,
    default_geometries,
    dkw_bound,
    emit_report,
    kolmogorov_distance,
    map_replicate_chunks,
    report_record,
)

ALL_CLAIM_IDS = {
    "dependence_bound",
    "noise_stability",
    "moment_growth",
    "maximal_growth",
    "variance_ratio",
    "second_moment_bound",
    "inverse_distance_sum",
    "variance_defect",
    "clt_distance",
    "coupling_error_decay",
    "tail_bound",
    "approximation_error",
    "iterated_logarithm",
}


class TestStatisticsHelpers:
    def test_ks_of_perfect_quantile_grid(self):
        m = 100
        sample = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert kolmogorov_distance(sample) == pytest.approx(0.5 / m, abs=1e-12)

    def test_ks_detects_shift(self):
        sample = ndtri((np.arange(1, 101) - 0.5) / 100) + 1.0
        assert kolmogorov_distance(sample) > 0.3

    def test_dkw_formula(self):
        assert dkw_bound(10_000, level=0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / 20_000.0)
        )

    def test_chunk_map_is_worker_invariant(self):
        def kernel(s, e):
            return np.arange(s, e, dtype=np.float64)

        a = map_replicate_chunks(kernel, 1000, workers=1)
        b = map_replicate_chunks(kernel, 1000, workers=3)
        assert np.array_equal(a, np.arange(1000.0))
        assert np.array_equal(a, b)


class TestCheckers:
    def test_moment_rejects_slow_decay(self, ma_model):
        degenerate = linear_ma_model(1, {(0,): 1.0, (1,): -1.0})
        with pytest.raises(ValueError):
            check_moment_inequality(degenerate, 0.367, ladder=(16,), replicates=50)

    def test_moment_degenerate_model_passes_with_honest_c0(self):
        degenerate = linear_ma_model(1, {(0,): 1.0, (1,): -1.0})
        rep = check_moment_inequality(
            degenerate, 0.367, ladder=(16, 64, 256), replicates=400, seed=1, c0=2.5
        )
        assert rep.passed

    def test_maximal_checks_constant_and_domination(self, assoc_model):
        # the ladder must reach past the small-block transient in E M^q / E|S|^q
        rep = check_maximal_inequality(
            assoc_model, 0.367, ladder=(16, 128, 1024, 8192), replicates=400, seed=2
        )
        assert rep.passed
        assert rep.statistics["pathwise_dominated"] is True
        assert rep.statistics["worst_max_to_s_ratio"] < rep.oracle["maximal_constant"]

    def test_variance_checks(self, ma_model):
        assert check_variance_ratio(ma_model, replicates=1500, seed=3).passed
        assert check_second_moment(ma_model).passed
        rep = check_variance_defect(ma_model)
        assert rep.passed
        assert [row["edge"] for row in rep.rows] == [10, 40, 160, 640]

    def test_second_moment_rows_bound(self, ma_model):
        rep = check_second_moment(ma_model, sizes=(10, 100))
        for row in rep.rows:
            assert row["var"] <= row["bound"]

    def test_inverse_distance_sum(self):
        rep = check_inverse_distance_sum(dims=(1, 2), seed=1, fit_blocks=8,
                                         validate_blocks=4)
        assert rep.passed
        assert rep.statistics["worst_transfer"] <= 1.25

    def test_clt_needs_variance(self):
        degenerate = linear_ma_model(1, {(0,): 1.0, (1,): -1.0})
        with pytest.raises(ValueError):
            check_clt_distance(degenerate, ladder=(16,), replicates=200)

    def test_clt_smoke(self, exp_model):
        rep = check_clt_distance(exp_model, ladder=(100, 400, 1600),
                                 replicates=2500, seed=4)
        assert rep.passed
        assert len(rep.rows) == 3

    def test_tail_bound_smoke(self, ma_model):
        rep = check_tail_bound(ma_model, 0.367, V=512, replicates=2000, seed=5)
        assert rep.passed
        probs = rep.statistics["tail_probabilities"]
        assert probs == sorted(probs, reverse=True)

    def test_coupling_decay_smoke(self, exp_model):
        rep = check_coupling_error_decay(exp_model, depths=(3, 5), m_cdf=1500,
                                         m_eval=1500, seed=6)
        assert rep.passed

    def test_lil_smoke(self, ma_model):
        rep = check_lil(ma_model, depth=14, replicates=40, seed=7)
        assert rep.passed
        assert rep.statistics["top_exceedance"] <= 0.05

    def test_dependence_smoke(self, ma_model):
        rep = check_dependence(ma_model, pairs=6, replicates=3000, seed=8)
        assert rep.passed
        assert len(rep.rows) == len(default_geometries(ma_model))
        noise = check_noise_stability(ma_model, pairs=6, replicates=3000, seed=8)
        assert noise.passed
        assert noise.claim_id == "noise_stability"

    def test_claim_ids_cover_the_contract(self, ma_model):
        assert set(CLAIMS) == ALL_CLAIM_IDS
        assert VERIFIERS is CLAIMS
        rep = check_variance_defect(ma_model)
        assert CLAIMS[rep.claim_id] is check_variance_defect
        assert rep.statement


class TestReports:
    def test_record_shape_and_null_seconds(self, ma_model):
        rep = check_variance_defect(ma_model)
        rec = report_record(rep)
        assert set(rec) == {
            "claim_id", "statement", "inputs", "statistics", "oracle",
            "tolerance", "passed", "seconds",
        }
        assert rec["seconds"] is None
        assert rep.seconds > 0  # wall clock stays on the dataclass
        json.dumps(rec)  # canonical-serializable

    def test_worker_count_leaves_record_unchanged(self, ma_model):
        a = check_moment_inequality(ma_model, 0.367, ladder=(16, 64),
                                    replicates=500, seed=5, workers=1)
        b = check_moment_inequality(ma_model, 0.367, ladder=(16, 64),
                                    replicates=500, seed=5, workers=4)
        assert json.dumps(report_record(a), sort_keys=True) == json.dumps(
            report_record(b), sort_keys=True
        )

    def test_emit_report_round_trip(self, tmp_path, ma_model):
        reports = [check_variance_defect(ma_model), check_second_moment(ma_model)]
        path = emit_report(reports, tmp_path / "out")
        data = json.loads(path.read_text())
        assert data["passed"] is True
        ids = [r["claim_id"] for r in data["reports"]]
        assert ids == sorted(ids)
        assert (tmp_path / "out" / "variance_defect.csv").exists()
        header = (tmp_path / "out" / "variance_defect.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "edge"

    def test_emit_report_byte_stable(self, tmp_path, ma_model):
        r1 = [check_variance_defect(ma_model)]
        r2 = [check_variance_defect(ma_model)]
        p1 = emit_report(r1, tmp_path / "a")
        p2 = emit_report(r2, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_emit_report_empty(self, tmp_path):
        path = emit_report([], tmp_path / "empty")
        data = json.loads(path.read_text())
        assert data == {"passed": True, "reports": []}

    def test_failed_report_aggregates(self, tmp_path, ma_model):
        # reversed edge order makes the monotonicity clause fail honestly
        bad = check_variance_defect(ma_model, edges=(640, 10))
        assert not bad.passed
        path = emit_report([bad], tmp_path / "fail")
        assert json.loads(path.read_text())["passed"] is False
