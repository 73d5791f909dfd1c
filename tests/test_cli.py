import json
import subprocess
import sys

import pytest

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

    def test_missing_required_flag(self):
        assert main(["theory"]) == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fieldlab", "theory", "--p", "5"],
            capture_output=True, text=True,
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
        {"exact_phi": "false"}, {"exact_phi": 0},
    ], ids=["tau-string", "tau-negative", "tau-zero", "tau-bool",
            "exact_phi-string", "exact_phi-int"])
    def test_bad_couple_values(self, tmp_path, capsys, bad):
        path = write_config(
            tmp_path,
            model={"kind": "linear_ma", "d": 1, "innovation": "exponential",
                   "coeffs": {"0": 1.0, "1": 0.5}},
            couple={"depths": [3], "replicates": 5, "m_cdf": 100, "bootstrap": 10,
                    **bad},
        )
        assert main(["couple", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

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
        # sigma^2 = 0 model reaches the checker, which raises mid-run
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 1,
            "model": {"kind": "linear_ma", "d": 1,
                      "coeffs": {"0": 1.0, "1": -1.0}},
            "verify": {"claims": ["clt_distance"],
                       "overrides": {"clt_distance": {"ladder": [16],
                                                      "replicates": 200}}},
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
