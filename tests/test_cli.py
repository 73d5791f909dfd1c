import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldlab
from fieldlab import coupling, domains
from fieldlab import verify as verify_mod
from fieldlab.cli import main
from fieldlab.domains import Count, Geometries, OneOf, Positive, Seq, Size
from fieldlab.lattice import Block


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
# summary.json files that hold no claim record
EMPTY_SUMMARIES = [{"reports": []}, {}]

VERIFY_SECTION = {
    "claims": ["variance_defect", "second_moment_bound", "variance_ratio"],
    "overrides": {"variance_ratio": {"replicates": 1200}},
}


def outside(domain) -> st.SearchStrategy:
    """JSON values outside a declared domain, for a d = 1 model: a wrong type,
    a bool, a value below the minimum or above a finite maximum, an empty or
    short list, NaN or +-inf, or a size or index set in the wrong dimension."""
    junk = st.one_of(st.text("ab", max_size=2), st.just({}))
    below = st.one_of(junk, st.none(), st.booleans(), st.floats())
    if isinstance(domain, Count):
        above = ([st.integers(min_value=domain.maximum + 1)]
                 if domain.maximum < math.inf else [])
        return st.one_of(below, st.integers(max_value=domain.minimum - 1),
                         st.just([domain.minimum]), *above)
    if isinstance(domain, Positive):
        above = ([st.floats(min_value=domain.maximum, exclude_min=True,
                            allow_infinity=False)] if domain.maximum < math.inf else [])
        return st.one_of(junk, st.none(), st.booleans(), st.integers(max_value=0),
                         st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]),
                         *above)
    if isinstance(domain, OneOf):
        return st.one_of(junk, st.none(), st.integers(), st.just([domain.values[0]]),
                         st.text("xyz", min_size=1, max_size=3))
    if isinstance(domain, Seq):
        fine = 1.0 if isinstance(domain.item, Positive) else 1
        return st.one_of(
            junk, st.none(), st.integers(),
            st.lists(st.just(fine), max_size=domain.points - 1),
            st.tuples(st.lists(st.just(fine), max_size=2), outside(domain.item)).map(
                lambda t: t[0] + [t[1]]),
        )
    if isinstance(domain, Size):
        wrong = [[], [4, 4], [4, 4, 4]] + ([[4]] if domain.scalar else [])
        return st.one_of(below, st.integers(max_value=0), st.sampled_from(wrong))
    assert isinstance(domain, Geometries)
    return st.one_of(junk, st.integers(), st.sampled_from([
        [], [[[1]]], [[[], [3]]], [[[[1, 1]], [[3, 3]]]], [[[1.5], [3]]], [[[True], [3]]],
        [[[[1], [2, 3]], [3]]],
    ]))


@pytest.mark.parametrize("claim, name", [
    (claim, name) for claim in sorted(verify_mod.CLAIMS)
    for name in verify_mod.CLAIMS[claim].domains
])
@settings(max_examples=12)
@given(data=st.data())
def test_values_outside_a_domain_exit_two(claim, name, data):
    """Every parameter of every claim rejects what lies outside its domain
    before any claim runs: exit 2, naming it, with no output directory."""
    bad = data.draw(outside(verify_mod.CLAIMS[claim].domains[name]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({
            "seed": 1, "model": {"kind": "iid", "d": 1},
            "verify": {"claims": [claim], "overrides": {claim: {name: bad}}},
        }))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["verify", "--config", str(path), "--output-dir", str(out)])
        assert code == 2
        assert f"{name} must be" in err.getvalue()
        assert not out.exists()


# (domain, value inside it, model dimension): one or more per domain class
PARSED = [
    (Count(1), 3, 1), (Positive(), 0.5, 1), (OneOf((False, True), "a flag"), True, 1),
    (Seq(Count(1)), [1, 2], 1), (Seq(Size(), 2), [[4, 4], Block((1, 1), (3, 3))], 2),
    (Size(), 16, 1), (Size(), [4, 8], 2), (Size(), Block((1, 1), (3, 4)), 2),
    (Size(scalar=True), 10, 1), (Geometries(), None, 1),
    (Geometries(), [[[1, 2], [4]]], 1),
    (Geometries(), [[[[0, 0], [1, 1]], Block((1, 2), (3, 4))]], 2),
]


def test_every_domain_class_is_parsed():
    classes = {c for c in vars(domains).values() if isinstance(c, type) and hasattr(c, "check")}
    assert {type(domain) for domain, _, _ in PARSED} == classes


@pytest.mark.parametrize("domain, value, d", PARSED,
                         ids=[type(domain).__name__ for domain, _, _ in PARSED])
def test_parsing_is_idempotent(domain, value, d):
    """A direct caller may pass a Block, which its domain keeps, and
    coupling.study_plans, the input rule of approximation_error, parses the
    planned values again, so a parsed value is its own parse."""
    parsed = domain.check(value, "x", d)
    assert parsed is not None
    again = domain.check(parsed, "x", d)
    assert type(again) is type(parsed)
    np.testing.assert_equal(again, parsed)


def test_parsed_forms():
    """A size is its Block at the origin, a list a tuple, an index set the
    int64 array of its points; None is the five default pairs."""
    assert Size().check([4, 8], "x", 2) == Block((0, 0), (4, 8))
    assert Size(scalar=True).check(10, "x", 1) == Block((0,), (10,))
    assert Seq(Count(1)).check([1, 2], "x", 1) == (1, 2)
    ((i, j),) = Geometries().check([[[1, 2], Block((2,), (4,))]], "x", 1)
    np.testing.assert_equal(i, [[1], [2]])
    np.testing.assert_equal(j, [[3], [4]])
    assert i.dtype == j.dtype == np.int64
    assert len(Geometries().check(None, "x", 1)) == 5


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

    def test_growth_cap_that_never_binds(self, capsys):
        # q = mu delta / (8 (1 + delta)) >= 1: beta > alpha (1 - q) always holds
        assert main(["theory", "--p", "5", "--mu", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["alpha"], doc["beta"], doc["gamma0"]) == (98, 49, 1.53125)

    # a non-finite --tau: test_rejects_infinite_tau
    @pytest.mark.parametrize("flag", ["--mu", "--gamma1"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_scheme_inputs(self, capsys, flag, value):
        assert main(["theory", "--p", "5", flag, value]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""

    # psi's (p - 2)^2 overflows, and A is about 10^863: both exited 3; at d = 100
    # A's product overflowed to inf, and the table was written with exit 0
    @pytest.mark.parametrize("argv", [["--p", "1e200"],
                                      ["--p", "5", "--d", "300", "--lambda", "2000"],
                                      ["--p", "5", "--d", "100", "--lambda", "2000"]])
    def test_overflowing_table(self, capsys, argv):
        assert main(["theory", *argv]) == 2
        captured = capsys.readouterr()
        assert f"--p {float(argv[1])}" in captured.err and captured.out == ""
        assert "overflows" in captured.err

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

    def test_seed_flag_supplies_a_missing_seed(self, tmp_path):
        # the config's seed was required even with --seed given: exit 2
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"kind": "iid", "d": 1},
                                    "simulate": {"block": {"a": [0], "b": [4]}}}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--seed", "3",
                     "--output-dir", str(out)]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--workers", "0")])
    def test_bad_flag_values(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, verify={"claims": ["variance_defect"]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out),
                     flag, value]) == 2
        assert f"{flag[2:]} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_claim(self, tmp_path):
        path = write_config(tmp_path, verify={"claims": ["not_a_claim"]})
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("claims", [[1], [{"a": 1}], [["clt_distance"]]],
                             ids=["int", "object", "list"])
    def test_non_string_claim_ids(self, tmp_path, capsys, claims):
        # each raised a TypeError in the claim set or its join, and exited 3
        path = write_config(tmp_path, verify={"claims": claims})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "verify.claims must be a nonempty list of claim ids" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_claim_id(self, tmp_path, capsys):
        # the claim ran twice, and both records were written
        path = write_config(tmp_path, verify={"claims": ["inverse_distance_sum",
                                                         "inverse_distance_sum"]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        assert ("verify.claims repeats claim id(s): inverse_distance_sum"
                in capsys.readouterr().err)
        assert not out.exists()

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
        {"m_cdf": 150.5}, {"depths": []}, {"alpha": 40, "depths": [8]},
        # these two ran past 15 s, or grew past 1.5 GB
        {"depths": [10**30]}, {"alpha": 10**21},
    ], ids=["tau-string", "tau-negative", "tau-zero", "tau-bool",
            "exact_phi-string", "exact_phi-int", "replicates-one",
            "exact_phi-exponential", "m_cdf-50",
            "bootstrap-zero", "bootstrap-float", "replicates-float",
            "m_cdf-float", "depths-empty", "alpha-overflow", "depths-huge", "alpha-huge"])
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

    def test_couple_d2_domain_out_of_range(self, tmp_path, capsys):
        # n_310^2 >= 2^62 cells: the plan ran past 15 s
        path = write_config(tmp_path, model=PLANE, couple={"depths": [310]})
        out = tmp_path / "out"
        assert main(["couple", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "cells or more" in capsys.readouterr().err
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
        ("inverse_distance_sum", {"dims": [0]}, "dims", NORMAL),
        ("clt_distance", {"replicates": 2.5}, "replicates", NORMAL),
        ("iterated_logarithm", {"replicates": 2.5}, "replicates", NORMAL),
        ("variance_ratio", {"replicates": 2.5}, "replicates", NORMAL),
        ("moment_growth", {"ladder": [0, 16]}, "ladder", NORMAL),
        ("variance_ratio", {"N": 0}, "N", NORMAL),
        ("second_moment_bound", {"sizes": [0, 10]}, "sizes", NORMAL),
        ("variance_defect", {"edges": [0, 10]}, "edges", NORMAL),
        ("second_moment_bound", {"sizes": []}, "sizes", NORMAL),
        ("inverse_distance_sum", {"dims": []}, "dims", NORMAL),
        ("tail_bound", {"xs": []}, "xs", NORMAL),
        ("moment_growth", {"delta": "abc"}, "delta", NORMAL),
        ("coupling_error_decay", {"depths": [1, 3]}, "top block", PLANE),
        ("dependence_bound", {}, "d = 1", PLANE),
        ("variance_defect", {"edges": [10.5, 20]}, "edges", NORMAL),
        ("maximal_growth", {"delta": -5.0}, "delta", NORMAL),
        ("clt_distance", {"replicates": True}, "replicates", NORMAL),
        ("variance_ratio", {"N_small": -3}, "N_small", NORMAL),
        ("coupling_error_decay", {"depths": [3, 5], "alpha": 40}, "alpha 40", NORMAL),
        # these three ran at r = 0, or counted a repeated point in min(|I|, |J|)
        ("dependence_bound", {"geometries": [[[1], [1]]], "replicates": 500}, "disjoint",
         NORMAL),
        ("dependence_bound", {"geometries": [[[0, 1, 2], [2, 3]]], "replicates": 500},
         "disjoint", NORMAL),
        ("dependence_bound", {"geometries": [[[1, 1], [3]]], "replicates": 500},
         "distinct points", NORMAL),
        # exited 3 when the checker built the block
        ("moment_growth", {"ladder": [16, 2**62]}, "fewer than 2^62 cells", NORMAL),
        # these ran past 15 s, or grew past 1.5 GB
        ("approximation_error", {"depths": [10**30]}, "index range", NORMAL),
        ("approximation_error", {"depths": [310]}, "cells or more", PLANE),
        ("coupling_error_decay", {"depths": [3, 10**30]}, "index range", NORMAL),
        ("coupling_error_decay", {"alpha": 10**21}, "index range", NORMAL),
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
            "invsum-fit-zero", "invsum-validate-zero", "invsum-dims-zero",
            "clt-replicates-float", "lil-replicates-float", "variance_ratio-replicates-float",
            "moment-ladder-zero", "variance_ratio-N-zero", "second_moment-sizes-zero",
            "variance_defect-edges-zero", "second_moment-sizes-empty", "invsum-dims-empty",
            "tail-xs-empty", "moment-delta-string", "decay-d2-top-block",
            "dependence-default-geometries-d2", "variance_defect-edges-float",
            "maximal-delta-negative", "clt-replicates-bool", "variance_ratio-N_small-negative",
            "decay-alpha-overflow", "dependence-shared-point", "dependence-overlap",
            "dependence-repeated-point", "moment-ladder-oversized", "approx-depth-huge",
            "approx-d2-depth-310", "decay-depth-huge", "decay-alpha-huge"])
    def test_study_inputs_checked_before_any_claim(self, tmp_path, capsys, claim, bad,
                                                   match, model):
        # the valid claim listed first takes no model, so it is valid on every one
        first = "variance_defect" if claim == "inverse_distance_sum" else "inverse_distance_sum"
        path = write_config(
            tmp_path,
            model=model,
            verify={"claims": [first, claim], "overrides": {claim: bad}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert first not in err
        assert not out.exists()

    @pytest.mark.parametrize("dims", [[0], [], [33]], ids=["zero", "empty", "33"])
    def test_inverse_distance_dims_rejected_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch, dims):
        # dims [0] drew random blocks forever, dims [] failed after the draws,
        # and dims [33] failed in numpy, whose arrays have at most 32 axes
        def drawn(*args, **kwargs):
            raise AssertionError("the checker drew blocks before rejecting its input")

        monkeypatch.setattr(verify_mod, "stream", drawn)
        path = write_config(tmp_path, verify={
            "claims": ["inverse_distance_sum"],
            "overrides": {"inverse_distance_sum": {"dims": dims}}})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "dims must be a" in capsys.readouterr().err
        assert not out.exists()

    def test_inverse_distance_dims_32_runs(self, tmp_path):
        path = write_config(tmp_path, verify={
            "claims": ["inverse_distance_sum"],
            "overrides": {"inverse_distance_sum": {
                "dims": [32], "fit_blocks": 1, "validate_blocks": 1}}})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) in (0, 1)
        assert (out / "summary.json").exists()

    # delta 1.5 failed in theory.moricz_a after sampling, and 1000 wrote NaN
    @pytest.mark.parametrize("delta", ["abc", -5.0, 0, float("nan"), True, 1.5, 1000])
    def test_bad_verify_delta(self, tmp_path, capsys, delta):
        path = write_config(tmp_path, verify={"claims": ["moment_growth"], "delta": delta})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "verify.delta must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("claim, overrides", [
        ("coupling_error_decay", {"depths": [3, 5], "m_cdf": 100, "m_eval": 50}),
        ("maximal_growth", {"ladder": [16, 64], "replicates": 50}),
        ("moment_growth", {"ladder": [16, 64], "replicates": 50}),
    ])
    def test_zero_kernel_rejected_before_any_work(self, tmp_path, capsys, claim,
                                                  overrides):
        # a zero kernel made coupling_error_decay and maximal_growth exit 3 and
        # moment_growth write NaN
        path = write_config(
            tmp_path, model={"kind": "linear_ma", "d": 1, "coeffs": {"0": 0.0}},
            verify={"claims": [claim], "overrides": {claim: overrides}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "all be zero" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("claim, model, message", [
        ("clt_distance", DEGENERATE, "CLT distance needs sigma^2 != 0"),
        ("iterated_logarithm", PLANE, "the dyadic net is implemented for d = 1"),
    ])
    def test_a_model_fault_names_the_claim(self, tmp_path, capsys, claim, model, message):
        # both named verify.overrides.<claim>, a section this config lacks
        path = write_config(tmp_path, model=model, verify={"claims": [claim]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {claim}: {message}" in err
        assert "overrides" not in err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("coeff", [[1], "1.5", True, None, {}])
    @pytest.mark.parametrize("command, section", [
        ("simulate", {"block": {"a": [0], "b": [8]}}),
        ("verify", {"claims": ["second_moment_bound"]}),
    ])
    def test_non_number_coefficient(self, tmp_path, capsys, command, section, coeff):
        # a list coefficient exited 3 with a TypeError; a string or a bool
        # was converted by float()
        path = write_config(
            tmp_path, model={"kind": "linear_ma", "d": 1, "coeffs": {"0": coeff}},
            **{command: section},
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--output-dir", str(out)]) == 2
        assert "coeff '0' must be a number" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("claim, overrides, schemes", [
        ("approximation_error",
         {"depths": [8], "replicates": 2, "exact_phi": True, "bootstrap": 10}, 1),
        ("coupling_error_decay", {"depths": [3, 5], "m_cdf": 100, "m_eval": 20}, 2),
    ])
    def test_each_claim_call_plans_once(self, tmp_path, monkeypatch, claim, overrides,
                                        schemes):
        # the CLI planned the call, the registered entry planned it again and
        # the checker rebuilt the plan: three schemes per depth
        built = []
        build_scheme = coupling.build_scheme
        monkeypatch.setattr(coupling, "build_scheme",
                            lambda *args: built.append(args) or build_scheme(*args))
        path = write_config(tmp_path, verify={"claims": [claim],
                                              "overrides": {claim: overrides}})
        assert main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) in (0, 1)
        assert len(built) == schemes

    def test_runtime_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # valid inputs reach the checker, whose inner study then fails
        def broken(*args, **kwargs):
            raise RuntimeError("study failed")

        monkeypatch.setattr(verify_mod, "variance_defect", broken)
        path = write_config(tmp_path, verify={"claims": ["variance_defect"]})
        assert main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert "runtime error: RuntimeError: study failed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("block", [
        {"a": [0.5], "b": [8]}, {"a": [True], "b": [8]}, {"a": ["5"], "b": [8]},
        {"a": [0], "b": [8.0]}, {"a": 0, "b": [8]}, {"a": [0]},
    ])
    def test_non_integer_corners(self, tmp_path, capsys, block):
        # Block's int() ran these on a different block, with exit 0
        path = write_config(tmp_path, simulate={"block": block})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "simulate.block needs integer lists a and b" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_block(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"kind": "iid", "d": 2},
                            simulate={"block": {"a": [0, 0], "b": [2**40, 2**40]}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "bad simulate.block" in capsys.readouterr().err
        assert not out.exists()


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

    def test_report_unreadable_summary(self, tmp_path, capsys):
        # a summary.json that is a directory exited 3 with IsADirectoryError
        (tmp_path / "in" / "summary.json").mkdir(parents=True)
        out = tmp_path / "out"
        assert main(["report", "--inputs", str(tmp_path / "in"),
                     "--output-dir", str(out)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("summary", [
        [1, 2], "text", 3, {"reports": [1]}, {"reports": [{}, "x"]}, {"reports": "ab"},
        {"reports": [{"claim_id": 1}, {"claim_id": "a"}]},
        {"reports": [{"passed": True}]}, {"reports": [{"claim_id": "x", "passed": "no"}]},
        *EMPTY_SUMMARIES,
    ])
    def test_report_rejects_a_summary_of_another_shape(self, tmp_path, capsys, summary):
        # a list summary, or a report that is not an object, exited 3 with an
        # AttributeError; claim ids of two types, with a TypeError.  A report
        # with no claim id, or with a verdict that is not a boolean, was merged
        # as a pass, and so was a summary with no reports
        folder = tmp_path / "in"
        folder.mkdir()
        (folder / "summary.json").write_text(json.dumps(summary))
        out = tmp_path / "out"
        assert main(["report", "--inputs", str(folder), "--output-dir", str(out)]) == 2
        message = ("report: the summary holds no claim records" if summary in EMPTY_SUMMARIES
                   else "is not a verify summary")
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_report_rejects_a_repeated_claim(self, tmp_path, capsys):
        # merging one folder twice wrote both copies of its claim and exited 0
        path = write_config(tmp_path, verify={"claims": ["second_moment_bound"]})
        a = tmp_path / "a"
        assert main(["verify", "--config", str(path), "--output-dir", str(a)]) == 0
        out = tmp_path / "out"
        assert main(["report", "--inputs", str(a), str(a), "--output-dir", str(out)]) == 2
        assert ("report: the summary repeats claim id(s): second_moment_bound"
                in capsys.readouterr().err)
        assert not out.exists()


class TestOutputDirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIELDLAB_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, verify={"claims": ["second_moment_bound"]})
        assert main(["verify", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()
