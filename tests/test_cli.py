import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldlab
from fieldlab.cli import main


def write_config(tmp_path, **extra):
    cfg = {
        "seed": 11,
        "model": {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": -0.5}},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


NORMAL = {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": -0.5}}
EXPONENTIAL = {**NORMAL, "innovation": "exponential"}
# sigma^2 = (1 - 1)^2 = 0, and theta_1 breaks the default decay envelope
DEGENERATE = {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": -1.0}}
PLANE = {"kind": "iid", "d": 2}

VERIFY_SECTION = {
    "claims": ["variance_defect", "second_moment_bound", "variance_ratio"],
    "overrides": {"variance_ratio": {"replicates": 1200}},
}


class TestTheory:
    def test_constant_table(self, capsys):
        assert main(["theory", "--p", "5", "--lambda", "2", "--d", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "t0", "psi", "delta", "lambda1", "lambda2", "tau0", "A",
            "alpha", "beta", "gamma0",
        }
        assert doc["psi"] == pytest.approx(1.265986, abs=1e-5)
        assert doc["delta"] == pytest.approx(0.367007, abs=1e-5)
        assert doc["t0"] == pytest.approx(2.141336, abs=1e-5)

    def test_rejects_p_at_most_two(self, capsys):
        assert main(["theory", "--p", "2"]) == 2
        assert capsys.readouterr().out == ""

    def test_rejects_infeasible_decay(self):
        assert main(["theory", "--p", "5", "--lambda", "1.2"]) == 2

    def test_rejects_infinite_tau(self, capsys):
        assert main(["theory", "--p", "5", "--tau", "inf"]) == 2
        assert "tau" in capsys.readouterr().err

    def test_missing_required_flag(self):
        assert main(["theory"]) == 2

    def test_module_entry_point(self):
        # the subprocess imports the package that this test imported
        src = str(Path(fieldlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fieldlab", "theory", "--p", "5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta"] == pytest.approx(0.367007, abs=1e-5)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, bogus=1)
        assert main(["verify", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"kind": "iid", "d": 1}}))
        assert main(["verify", "--config", str(path)]) == 2

    def test_unknown_claim(self, tmp_path):
        path = write_config(tmp_path, verify={"claims": ["not_a_claim"]})
        assert main(["verify", "--config", str(path)]) == 2

    def test_unknown_override_key(self, tmp_path):
        path = write_config(
            tmp_path,
            verify={"claims": ["variance_defect"],
                    "overrides": {"variance_defect": {"edgez": [10]}}},
        )
        assert main(["verify", "--config", str(path)]) == 2

    def test_unknown_override_claim(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            verify={"claims": ["variance_defect"],
                    "overrides": {"variance_defekt": {"edges": [10, 40]}}},
        )
        assert main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "variance_defekt" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"tau": "abc"}, {"tau": -1}, {"tau": 0}, {"tau": True},
        {"exact_phi": "false"}, {"exact_phi": 0}, {"replicates": 1},
        {"exact_phi": True}, {"m_cdf": 50},
        {"bootstrap": 0}, {"bootstrap": 20.5}, {"replicates": 2.5},
        {"m_cdf": 150.5}, {"depths": []},
    ], ids=["tau-string", "tau-negative", "tau-zero", "tau-bool",
            "exact_phi-string", "exact_phi-int", "replicates-one",
            "exact_phi-exponential", "m_cdf-50",
            "bootstrap-zero", "bootstrap-float", "replicates-float",
            "m_cdf-float", "depths-empty"])
    def test_bad_couple_values(self, tmp_path, capsys, bad):
        path = write_config(
            tmp_path,
            model={"kind": "linear_ma", "d": 1, "innovation": "exponential",
                   "coeffs": {"0": 1.0, "1": 0.5}},
            couple={"depths": [3], "replicates": 5, "m_cdf": 100, "bootstrap": 10,
                    **bad},
        )
        out = tmp_path / "out"
        assert main(["couple", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_couple_inputs_checked_before_output(self, tmp_path, capsys):
        # sigma^2 = (1 - 1)^2 = 0 leaves the study no scale to fit
        path = write_config(
            tmp_path,
            model={"kind": "linear_ma", "d": 1, "coeffs": {"0": 1, "1": -1}},
            couple={"depths": [4, 6], "replicates": 5, "exact_phi": True},
        )
        out = tmp_path / "out"
        assert main(["couple", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sigma^2" in err
        assert not out.exists()

    @pytest.mark.parametrize("claim, one_point", [
        ("moment_growth", {"ladder": [16]}),
        ("maximal_growth", {"ladder": [16]}),
        ("clt_distance", {"ladder": [10000]}),
        ("coupling_error_decay", {"depths": [3]}),
        ("variance_defect", {"edges": [10]}),
    ])
    def test_single_point_override(self, tmp_path, capsys, claim, one_point):
        # the valid claim listed first must not run either
        path = write_config(
            tmp_path,
            verify={"claims": ["second_moment_bound", claim],
                    "overrides": {claim: one_point}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "at least two points" in err
        assert "second_moment_bound" not in err
        assert not out.exists()

    @pytest.mark.parametrize("claim, bad, match, model", [
        ("approximation_error", {"depths": [1]}, "corner", NORMAL),
        ("approximation_error", {"depths": [6], "replicates": 1}, "two replicates",
         NORMAL),
        ("approximation_error", {"depths": [6], "exact_phi": "false"}, "true or false",
         NORMAL),
        ("approximation_error", {"depths": [6], "exact_phi": True}, "Gaussian",
         EXPONENTIAL),
        ("approximation_error", {"depths": [6], "m_cdf": 50}, "100 values", NORMAL),
        ("coupling_error_decay", {"m_cdf": 50}, "100 values", NORMAL),
        ("approximation_error",
         {"depths": [6], "replicates": 5, "exact_phi": True, "bootstrap": 0},
         "bootstrap", NORMAL),
        ("approximation_error",
         {"depths": [6], "replicates": 5, "exact_phi": True, "bootstrap": 20.5},
         "bootstrap must be an integer", NORMAL),
        ("approximation_error",
         {"depths": [6], "replicates": 2.5, "exact_phi": True, "bootstrap": 20},
         "replicates must be an integer", NORMAL),
        ("approximation_error",
         {"depths": [6], "replicates": 5, "m_cdf": 150.5, "bootstrap": 20},
         "m_cdf must be an integer", NORMAL),
        ("approximation_error",
         {"depths": [], "replicates": 5, "exact_phi": True, "bootstrap": 20},
         "depths", NORMAL),
        ("clt_distance", {"ladder": [16, 64], "replicates": 200}, "sigma^2", DEGENERATE),
        ("clt_distance", {"ladder": [16, 64], "replicates": 0}, "replicates", NORMAL),
        ("iterated_logarithm", {"depth": 6, "replicates": 20}, "sigma^2", DEGENERATE),
        ("iterated_logarithm", {"depth": 6, "replicates": 20}, "d = 1", PLANE),
        ("iterated_logarithm", {"depth": 6, "replicates": 0}, "replicates", NORMAL),
        ("moment_growth", {"ladder": [16, 64], "replicates": 50}, "decay envelope",
         DEGENERATE),
        ("maximal_growth", {"ladder": [16, 64], "replicates": 50}, "decay envelope",
         DEGENERATE),
        ("second_moment_bound", {}, "decay envelope", DEGENERATE),
        ("variance_ratio", {"replicates": 2}, "replicates", NORMAL),
        ("dependence_bound", {"pairs": 0, "replicates": 50}, "test pair", NORMAL),
        ("noise_stability", {"pairs": 2, "replicates": 1}, "two replicates", NORMAL),
        ("dependence_bound", {"geometries": [[[], [[3]]]], "replicates": 50}, "empty",
         NORMAL),
        ("noise_stability", {"geometries": [[[[1, 1]], [[3, 3]]]], "replicates": 50},
         "dimension 1", NORMAL),
        ("noise_stability", {"noise": "cauchy", "replicates": 50}, "innovation", NORMAL),
        ("moment_growth", {"ladder": [16, 64], "replicates": 0}, "two replicates", NORMAL),
        ("moment_growth", {"ladder": [16, 64], "replicates": 1}, "two replicates", NORMAL),
        ("maximal_growth", {"ladder": [16, 64], "replicates": 0}, "two replicates",
         NORMAL),
        ("maximal_growth", {"ladder": [16, 64], "replicates": 1}, "two replicates",
         NORMAL),
        ("tail_bound", {"V": 64, "replicates": 0}, "replicates", NORMAL),
        ("tail_bound", {"V": [32], "replicates": 50}, "dimensions", PLANE),
        ("coupling_error_decay", {"depths": [3, 5], "m_cdf": 100, "m_eval": 1}, "m_eval",
         NORMAL),
        ("coupling_error_decay", {"depths": [0, 3], "m_cdf": 100, "m_eval": 50},
         "depth", NORMAL),
        ("coupling_error_decay", {"depths": [3, 5], "m_cdf": 100, "m_eval": 50, "tau": 0},
         "tau", NORMAL),
        ("iterated_logarithm", {"depth": 0, "replicates": 20}, "depth", NORMAL),
        ("inverse_distance_sum", {"fit_blocks": 0}, "fit_blocks", NORMAL),
        ("inverse_distance_sum", {"validate_blocks": 0}, "validate_blocks", NORMAL),
    ], ids=["one_corner", "one_replicate", "exact_phi-string", "exact_phi-exponential",
            "m_cdf-50", "decay-m_cdf-50", "bootstrap-zero", "bootstrap-float",
            "replicates-float", "m_cdf-float", "depths-empty", "clt-sigma2-zero",
            "clt-replicates-zero", "lil-sigma2-zero", "lil-d2", "lil-replicates-zero",
            "moment-envelope", "maximal-envelope", "second_moment-envelope",
            "variance_ratio-two-replicates", "dependence-pairs-zero",
            "noise-replicates-one", "dependence-empty-geometry",
            "noise-geometry-dimension", "noise-kind", "moment-replicates-zero",
            "moment-replicates-one", "maximal-replicates-zero", "maximal-replicates-one",
            "tail-replicates-zero", "tail-V-dimension", "decay-m_eval-one",
            "decay-depth-zero", "decay-tau-zero", "lil-depth-zero",
            "invsum-fit-zero", "invsum-validate-zero"])
    def test_study_inputs_checked_before_any_claim(self, tmp_path, capsys, claim, bad,
                                                   match, model):
        path = write_config(
            tmp_path,
            model=model,
            verify={"claims": ["variance_defect", claim], "overrides": {claim: bad}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert "variance_defect" not in err
        assert not out.exists()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        assert main(["verify", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    def test_bad_model_kind(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 1, "model": {"kind": "arima"},
            "verify": {"claims": ["second_moment_bound"]},
        }))
        assert main(["verify", "--config", str(path)]) == 2


class TestVerify:
    def test_pass_run_writes_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, verify=VERIFY_SECTION)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays clean for non-theory commands
        assert "variance_defect: PASS" in captured.err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert [r["claim_id"] for r in summary["reports"]] == sorted(
            r["claim_id"] for r in summary["reports"]
        )
        assert all(r["seconds"] is None for r in summary["reports"])
        assert (out / "resolved_config.json").exists()
        assert (out / "variance_ratio.csv").exists()

    def test_reruns_are_byte_identical_across_workers(self, tmp_path):
        path = write_config(tmp_path, verify=VERIFY_SECTION)
        outs = []
        for name, workers in (("a", "1"), ("b", "3")):
            out = tmp_path / name
            code = main([
                "verify", "--config", str(path), "--output-dir", str(out),
                "--workers", workers,
            ])
            assert code == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_failing_claim_exits_one(self, tmp_path):
        path = write_config(
            tmp_path,
            verify={"claims": ["variance_defect"],
                    "overrides": {"variance_defect": {"edges": [640, 10]}}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 1
        assert json.loads((out / "summary.json").read_text())["passed"] is False

    def test_claims_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, verify=VERIFY_SECTION)
        out = tmp_path / "out"
        code = main([
            "verify", "--config", str(path), "--output-dir", str(out),
            "--claims", "second_moment_bound",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [r["claim_id"] for r in summary["reports"]] == ["second_moment_bound"]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["verify"]["claims"] == ["second_moment_bound"]

    def test_runtime_error_exits_three(self, tmp_path, capsys):
        # a d = 2 model reaches the checker, whose default geometries are d = 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 1,
            "model": {"kind": "iid", "d": 2},
            "verify": {"claims": ["dependence_bound"]},
        }))
        assert main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_seed_flag_changes_resolved_config(self, tmp_path):
        path = write_config(tmp_path, verify={"claims": ["second_moment_bound"]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out),
                     "--seed", "99"]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["seed"] == 99


class TestSimulate:
    def test_writes_summary(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            simulate={"block": {"a": [0], "b": [200]}, "replicates": 3},
        )
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads((out / "simulate.json").read_text())
        assert doc["card"] == 200
        assert len(doc["replicates"]) == 3
        for row in doc["replicates"]:
            assert row["max_sub_block"] >= abs(row["sum"]) - 1e-12

    def test_dimension_mismatch(self, tmp_path):
        path = write_config(
            tmp_path, simulate={"block": {"a": [0, 0], "b": [4, 4]}}
        )
        assert main(["simulate", "--config", str(path),
                     "--output-dir", str(tmp_path / "x")]) == 2


class TestCoupleAndReport:
    def test_couple_study(self, tmp_path):
        path = write_config(
            tmp_path,
            couple={"depths": [3], "replicates": 25, "m_cdf": 300,
                    "bootstrap": 100},
        )
        out = tmp_path / "cpl"
        assert main(["couple", "--config", str(path), "--output-dir", str(out)]) == 0
        doc = json.loads((out / "couple.json").read_text())
        assert doc["studies"][0]["depth"] == 3
        lines = (out / "couple.csv").read_text().splitlines()
        assert lines[0] == "depth,card,median_abs_err"
        assert len(lines) > 1

    def test_couple_exact_phi_ignores_m_cdf(self, tmp_path):
        # exact Phi estimates no CDF, so m_cdf is not checked, as in verify
        path = write_config(
            tmp_path,
            model={"kind": "iid", "d": 1},
            couple={"depths": [6], "replicates": 5, "exact_phi": True, "m_cdf": 50,
                    "bootstrap": 20},
        )
        out = tmp_path / "cpl"
        assert main(["couple", "--config", str(path), "--output-dir", str(out)]) == 0
        assert (out / "couple.json").exists()

    def test_couple_is_worker_invariant(self, tmp_path):
        written = []
        for workers in (1, 2):
            path = write_config(
                tmp_path, workers=workers,
                model={"kind": "linear_ma", "d": 1, "innovation": "exponential",
                       "coeffs": {"0": 1.0, "1": 0.5}},
                couple={"depths": [4, 6], "replicates": 9, "m_cdf": 200,
                        "bootstrap": 50},
            )
            out = tmp_path / f"w{workers}"
            assert main(["couple", "--config", str(path), "--output-dir", str(out)]) == 0
            written.append({name: (out / name).read_bytes()
                            for name in ("couple.json", "couple.csv")})
        assert written[0] == written[1]

    def test_report_merges_and_propagates_failure(self, tmp_path):
        ok_cfg = write_config(tmp_path, verify={"claims": ["second_moment_bound"]})
        a = tmp_path / "a"
        assert main(["verify", "--config", str(ok_cfg), "--output-dir", str(a)]) == 0
        assert main(["report", "--inputs", str(a),
                     "--output-dir", str(tmp_path / "m1")]) == 0

        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({
            "seed": 2,
            "model": {"kind": "linear_ma", "d": 1, "coeffs": {"0": 1.0, "1": -0.5}},
            "verify": {"claims": ["variance_defect"],
                       "overrides": {"variance_defect": {"edges": [640, 10]}}},
        }))
        b = tmp_path / "b"
        assert main(["verify", "--config", str(bad_cfg), "--output-dir", str(b)]) == 1
        code = main(["report", "--inputs", str(a), str(b),
                     "--output-dir", str(tmp_path / "m2")])
        assert code == 1
        merged = json.loads((tmp_path / "m2" / "summary.json").read_text())
        assert merged["passed"] is False
        assert len(merged["reports"]) == 2

    def test_report_missing_input(self, tmp_path):
        assert main(["report", "--inputs", str(tmp_path / "ghost"),
                     "--output-dir", str(tmp_path)]) == 2


class TestOutputDirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIELDLAB_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, verify={"claims": ["second_moment_bound"]})
        assert main(["verify", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()
