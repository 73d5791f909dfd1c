import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from fieldlab import coupling, fields
from fieldlab import verify as verify_mod
from fieldlab.cli import VERIFIERS
from fieldlab.coupling import block_coupling_samples
from fieldlab.fields import linear_ma_model, sample_block_batch
from fieldlab.lattice import Block
from fieldlab.verify import (
    CLAIMS,
    canonical_json,
    check_approximation_error,
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
        assert dkw_bound(10_000) == pytest.approx(
            math.sqrt(math.log(200.0) / 20_000.0)
        )

    def test_chunk_map_is_worker_invariant(self):
        # cells per replicate -> replicates per task, whatever the workers
        for cells, task in ((1, 256), (256, 256), (1024, 64), (16384, 4),
                            (65536, 1), (1 << 20, 1)):
            spans = []

            def kernel(s, e):
                spans.append((s, e))
                return np.arange(s, e, dtype=np.float64)

            a = map_replicate_chunks(kernel, 1000, cells, workers=1)
            b = map_replicate_chunks(kernel, 1000, cells, workers=3)
            assert np.array_equal(a, np.arange(1000.0))
            assert np.array_equal(a, b)
            expected = [(s, min(s + task, 1000)) for s in range(0, 1000, task)]
            assert spans[: len(expected)] == expected
            assert sorted(spans[len(expected) :]) == expected

    def test_threads_capped_by_cores_and_tasks(self, monkeypatch):
        # a task per replicate, and workers=10**6 started a thread per task
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def kernel(s, e):
            return np.arange(s, e, dtype=np.float64)

        monkeypatch.setattr(verify_mod, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 4)
        for replicates in (1000, 3, 1):
            out = map_replicate_chunks(kernel, replicates, 1 << 16, workers=10**6)
            assert np.array_equal(out, np.arange(float(replicates)))
        assert started == [4, 3, 1]

    @pytest.mark.parametrize("depth", [24, 48])
    def test_slope_fit_is_polyfit(self, depth):
        # the S - sigma W study's slope and bootstrap fits: one lstsq per
        # fit on polyfit's own scaled matrix gives polyfit's bits
        from fieldlab.coupling import study_plans
        from fieldlab.fields import iid_model

        ((_, scheme, _, corners),) = study_plans(iid_model(1), (depth,), 2, exact_phi=True).plans
        x = np.log([float(math.prod(scheme.corner(k))) for k in corners])
        fit = verify_mod._slope_fit(x)
        gen = np.random.default_rng(depth)
        for noise in gen.standard_normal((1000, len(x))):
            y = 0.25 * x + noise
            assert np.float64(fit(y)).tobytes() == np.polyfit(x, y, 1)[0].tobytes()


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
        with pytest.raises(ValueError, match="sigma"):
            check_clt_distance(degenerate, ladder=(16, 64), replicates=200)

    @pytest.mark.parametrize("check, one_point", [
        (check_moment_inequality, {"delta": 0.367, "ladder": (16,)}),
        (check_maximal_inequality, {"delta": 0.367, "ladder": (16,)}),
        (check_clt_distance, {"ladder": (10000,)}),
        (check_coupling_error_decay, {"depths": (3,)}),
        (check_variance_defect, {"edges": (10,)}),
    ], ids=["moment", "maximal", "clt", "coupling", "variance_defect"])
    def test_single_point_rejected_before_sampling(self, monkeypatch, exp_model,
                                                   check, one_point):
        def sampled(*args, **kwargs):
            raise AssertionError("the checker did work before rejecting its input")

        for name in ("sample_block_batch", "variance_defect", "block_var"):
            monkeypatch.setattr(verify_mod, name, sampled)
        monkeypatch.setattr(verify_mod.cpl, "block_coupling_samples", sampled)
        with pytest.raises(ValueError, match="at least two points"):
            check(exp_model, **one_point)

    @pytest.mark.parametrize("bad, match", [
        ({"depths": (6, 1)}, "corner"),
        ({"depths": (6,), "replicates": 1}, "two replicates"),
    ], ids=["one_corner", "one_replicate"])
    @pytest.mark.parametrize("exact_phi", [True, False], ids=["exact", "empirical"])
    def test_approximation_error_rejected_before_sampling(
        self, monkeypatch, gauss_model, bad, match, exact_phi
    ):
        def sampled(*args, **kwargs):
            raise AssertionError("the study drew samples before rejecting its input")

        for name in ("sample_block_batch", "corner_errors"):
            monkeypatch.setattr(verify_mod.cpl, name, sampled)
        with pytest.raises(ValueError, match=match):
            check_approximation_error(gauss_model, exact_phi=exact_phi, m_cdf=200,
                                      bootstrap=20, **bad)

    def test_approximation_error_keeps_a_single_depth(self, gauss_model):
        rep = check_approximation_error(gauss_model, depths=(6,), replicates=10,
                                        exact_phi=True, bootstrap=20)
        assert [r["depth"] for r in rep.rows] == [6]

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

    def test_tail_bound_takes_a_ladder_size_list(self):
        # a list, as a config override passes it, is the block (0, V]
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 0): 0.5})
        listed = check_tail_bound(model, 0.367, V=[8, 8], replicates=200, seed=5)
        block = check_tail_bound(model, 0.367, V=Block((0, 0), (8, 8)), replicates=200,
                                 seed=5)
        assert listed.inputs["card"] == 64
        assert listed.statistics == block.statistics

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
        assert len(rep.rows) == 5  # the default pairs
        noise = check_noise_stability(ma_model, pairs=6, replicates=3000, seed=8)
        assert noise.passed
        assert noise.claim_id == "noise_stability"

    def test_claim_ids_cover_the_contract(self, ma_model):
        assert set(CLAIMS) == ALL_CLAIM_IDS
        assert VERIFIERS is CLAIMS
        rep = check_variance_defect(ma_model)
        assert CLAIMS[rep.claim_id] is check_variance_defect
        assert rep.statement

    @pytest.mark.parametrize("claim", sorted(ALL_CLAIM_IDS))
    def test_every_parameter_declares_a_domain(self, claim):
        fn = CLAIMS[claim]
        assert set(fn.domains) == set(inspect.signature(fn).parameters) - {"model"}


MA_2D = linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3})

# checkers whose replicates map_replicate_chunks groups into tasks, at scales
# where the default budget gives tasks of 256, of a few and of one replicate
TASK_CALLS = {
    "moment_growth": lambda m, w: check_moment_inequality(
        m, 0.367, ladder=(16, 1024, 32768), replicates=40, seed=3, workers=w),
    "maximal_growth": lambda m, w: check_maximal_inequality(
        m, 0.367, ladder=(16, 1024, 32768), replicates=40, seed=3, workers=w),
    "maximal_growth_2d": lambda m, w: check_maximal_inequality(
        MA_2D, 0.367, ladder=((4, 4), (16, 16), (64, 64)), replicates=40, seed=3,
        workers=w),
    "clt_distance": lambda m, w: check_clt_distance(
        m, ladder=(100, 20000), replicates=40, seed=3, workers=w),
    "tail_bound": lambda m, w: check_tail_bound(
        m, 0.367, V=20000, xs=(1.5, 2.0, 2.5, 3.0), replicates=40, seed=3,
        workers=w),
    "iterated_logarithm": lambda m, w: check_lil(
        m, depth=15, replicates=12, seed=3, workers=w),
    "variance_ratio": lambda m, w: check_variance_ratio(  # one thread at any w
        m, N=20000, N_small=100, replicates=40, seed=3),
}


@pytest.mark.parametrize("call", sorted(TASK_CALLS))
def test_reports_do_not_depend_on_task_size(monkeypatch, assoc_model, call):
    records = []
    for budget in (verify_mod._BATCH_CELLS, 1):  # one cell: one replicate per task
        monkeypatch.setattr(verify_mod, "_BATCH_CELLS", budget)
        for workers in (1, 2):
            records.append(report_record(TASK_CALLS[call](assoc_model, workers)))
    assert all(r == records[0] for r in records[1:])


@pytest.mark.parametrize("cells", [1, 1000, 2**16])
def test_lil_reads_the_prefix_of_the_whole_line(monkeypatch, assoc_model, cells):
    # R at the net from segments of `cells` cells is, bit for bit, the
    # rounded longdouble prefix of the whole line over the normalization
    found = []
    chunks = verify_mod.map_replicate_chunks
    monkeypatch.setattr(verify_mod, "map_replicate_chunks",
                        lambda *args: found.append(chunks(*args)) or found[-1])
    monkeypatch.setattr(verify_mod, "_LINE_CELLS", cells)
    check_lil(assoc_model, depth=12, replicates=3, seed=3, workers=1)
    ns = 2 ** np.arange(1, 13)
    denom = np.sqrt(2.0 * 2.25 * ns * np.array([verify_mod._loglog_scale(n) for n in ns]))
    line = sample_block_batch(assoc_model, Block((0,), (4096,)), 3, range(3), tag="lil")
    prefix = np.cumsum(line.astype(np.longdouble), axis=1)
    expected = prefix[:, ns - 1].astype(np.float64) / denom
    assert found[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("model, ladder, replicates", [
    (None, (8192, 16384), 512),
    (MA_2D, ((32, 32), (64, 64)), 256),
], ids=["d1", "d2"])
def test_maximal_growth_memory_is_bounded(assoc_model, model, ladder, replicates):
    # a task holds at most _BATCH_CELLS cells, so the peak does not grow
    # with the replicate count (256 replicates per task peaked above 32 MiB)
    tracemalloc.start()
    try:
        check_maximal_inequality(model or assoc_model, 0.367, ladder=ladder,
                                 replicates=replicates, seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lil_memory_is_bounded(assoc_model):
    # each 262,144-cell line is drawn and summed in segments of at most
    # _BATCH_CELLS cells; the whole line with its longdouble prefix peaked
    # at 8.0 MiB
    peak = _peak_bytes(lambda: check_lil(assoc_model, depth=18, replicates=4, workers=1))
    assert peak < 4 * 2**20


def test_cdf_draws_memory_is_bounded(exp_model):
    # the head sums are taken one batch at a time; the whole 4000 x 576
    # stack of draws peaked at 19.2 MiB
    peak = _peak_bytes(lambda: block_coupling_samples(exp_model, (8,), (576,), 4000, 4000, 0))
    assert peak < 4 * 2**20


def test_variance_ratio_memory_is_bounded(ma_model):
    # the block sums are drawn task by task; drawing all 400 replicates of
    # the 20,000-cell block at once peaked at 62 MiB
    tracemalloc.start()
    try:
        check_variance_ratio(ma_model, N=20000, replicates=400, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_one_sampling_batch_per_task(monkeypatch, assoc_model):
    # tasks and batches are both sized by block cells, so each task of 8 and
    # 4 replicates is one batch: 64 + 128 evaluations
    calls = []
    evaluate = fields._field_from_innovations

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fields, "_field_from_innovations", counted)
    check_moment_inequality(assoc_model, 0.367, ladder=(8192, 16384), replicates=512,
                            seed=1, workers=1)
    assert len(calls) == 192


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

    @pytest.mark.parametrize("model, kwargs", [
        ("gauss_model", {"depths": (48,), "replicates": 4, "exact_phi": True}),
        ("exp_model", {"depths": (5, 8), "replicates": 12, "m_cdf": 300}),
    ], ids=["exact_phi_d48", "empirical_cdf"])
    def test_approximation_error_worker_invariant(self, request, model, kwargs):
        # depth 48 has 1,421,000 cells, coupled in slabs;
        # the empirical-CDF threads share one cdfs table
        model = request.getfixturevalue(model)
        records = {
            json.dumps(report_record(check_approximation_error(
                model, seed=3, bootstrap=50, workers=w, **kwargs)), sort_keys=True)
            for w in (1, 2, 3)
        }
        assert len(records) == 1

    def test_variance_ratio_records_sizes_as_cardinalities(self, tmp_path, ma_model):
        forms = [(200, 50), ([200], [50]), (Block((0,), (200,)), Block((3,), (53,)))]
        reports = [check_variance_ratio(ma_model, N=N, N_small=Ns, replicates=300, seed=2)
                   for N, Ns in forms]
        records = [json.dumps(report_record(r), sort_keys=True) for r in reports]
        assert records[0] == records[1] == records[2]
        assert json.loads(records[0])["inputs"]["N"] == 200
        written = [emit_report([r], tmp_path / str(i)) for i, r in enumerate(reports)]
        assert len({p.read_bytes() for p in written}) == 1
        csvs = {(p.parent / "variance_ratio.csv").read_bytes() for p in written}
        assert len(csvs) == 1

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
        # a summary of no claims was written as {"passed": true, "reports": []}
        with pytest.raises(ValueError, match="holds no claim records"):
            emit_report([], tmp_path / "empty")
        assert not (tmp_path / "empty").exists()

    def test_failed_report_aggregates(self, tmp_path, ma_model):
        # reversed edge order makes the monotonicity clause fail honestly
        bad = check_variance_defect(ma_model, edges=(640, 10))
        assert not bad.passed
        path = emit_report([bad], tmp_path / "fail")
        assert json.loads(path.read_text())["passed"] is False


# small settings of every claim, on the model of the assoc_model fixture
SMALL_CALLS = {
    "dependence_bound": dict(pairs=2, replicates=50),
    "noise_stability": dict(pairs=2, replicates=50, noise="rademacher"),
    "moment_growth": dict(delta=0.367, ladder=(16, [64]), replicates=20),
    "maximal_growth": dict(delta=0.367, ladder=(16, 64), replicates=20, workers=2),
    "variance_ratio": dict(N=40, N_small=10, replicates=20),
    "second_moment_bound": dict(sizes=(10, 20)),
    "variance_defect": dict(edges=(10, 20)),
    "inverse_distance_sum": dict(dims=(1,), fit_blocks=2, validate_blocks=1),
    "clt_distance": dict(ladder=(16, 64), replicates=20),
    "coupling_error_decay": dict(depths=(3, 4), m_cdf=100, m_eval=20),
    "tail_bound": dict(delta=0.367, V=64, xs=(1, 2.0), replicates=20),
    "approximation_error": dict(depths=(8,), replicates=2, m_cdf=100, bootstrap=10),
    "iterated_logarithm": dict(depth=6, replicates=4),
}

# the parameters that a report records under another key
REPORT_KEYS = {"lam": "lambda", "V": "card"}


@pytest.mark.parametrize("claim", sorted(ALL_CLAIM_IDS))
def test_reports_record_every_argument(assoc_model, claim):
    """The registration records each parsed argument but the worker count,
    under its report key; only dependence_bound adds an input of its own."""
    fn = CLAIMS[claim]
    params = inspect.signature(fn).parameters
    model = {"model": assoc_model} if "model" in params else {}
    report = fn(**model, **SMALL_CALLS[claim])
    expected = {REPORT_KEYS.get(name, name) for name in params} - {"workers"}
    assert set(report.inputs) == expected | ({"noise"} if claim == "dependence_bound" else set())
    if "model" in params:
        assert report.inputs["model"]["coeffs"] == {"0": 1.0, "1": 0.5}


def test_recorded_forms(assoc_model):
    """A block is recorded as its cardinality, a list item by item, index-set
    pairs as their count, tail_bound's xs as floats."""
    inputs = CLAIMS["moment_growth"](assoc_model, **SMALL_CALLS["moment_growth"]).inputs
    assert inputs["ladder"] == [16, 64] and inputs["lambda"] == 2.0
    inputs = CLAIMS["tail_bound"](assoc_model, **SMALL_CALLS["tail_bound"]).inputs
    assert inputs["card"] == 64 and inputs["xs"] == [1.0, 2.0]
    assert type(inputs["xs"][0]) is float
    inputs = CLAIMS["dependence_bound"](assoc_model, **SMALL_CALLS["dependence_bound"]).inputs
    assert inputs["geometries"] == 5 and inputs["noise"] is None


@pytest.mark.parametrize("claim", sorted(c for c in ALL_CLAIM_IDS if CLAIMS[c].inputs))
def test_input_rules_take_checker_parameters(claim):
    """A rule is called with the parsed arguments its parameters name; one
    that the checker lacks keeps its default."""
    fn = CLAIMS[claim]
    checker = inspect.signature(fn).parameters
    rule = inspect.signature(fn.inputs).parameters
    assert all(name in checker or p.default is not p.empty for name, p in rule.items())
    assert fn.input_names == [name for name in rule if name in checker]


@pytest.mark.parametrize("claim", sorted(ALL_CLAIM_IDS))
def test_a_plan_runs_to_the_direct_call_report(assoc_model, monkeypatch, claim):
    """CLAIMS[id] runs a Plan to the report of the call it plans, without
    calling the input rule again."""
    fn = CLAIMS[claim]
    args = {"model": assoc_model} if "model" in inspect.signature(fn).parameters else {}
    args.update(SMALL_CALLS[claim])
    direct = fn(**args)
    if fn.inputs:
        rule, calls = fn.inputs, []

        def once(**kwargs):
            calls.append(kwargs)
            assert len(calls) == 1, "the input rule ran again"
            return rule(**kwargs)

        monkeypatch.setattr(fn, "inputs", once)
    planned = fn(verify_mod.plan(fn, args))
    assert report_record(planned) == report_record(direct)
    assert canonical_json(list(planned.rows)) == canonical_json(list(direct.rows))


@pytest.mark.parametrize("claim", ["approximation_error", "coupling_error_decay"])
def test_a_direct_call_plans_once(assoc_model, monkeypatch, claim):
    """A direct call builds each depth's scheme once."""
    # the registered entry planned the call and the checker rebuilt the plan:
    # two schemes per depth
    built = []
    build_scheme = coupling.build_scheme
    monkeypatch.setattr(coupling, "build_scheme",
                        lambda *args: built.append(args) or build_scheme(*args))
    CLAIMS[claim](assoc_model, **SMALL_CALLS[claim])
    assert len(built) == len(SMALL_CALLS[claim]["depths"])


def test_a_rule_parameter_without_default_is_refused():
    def rule(model, missing):
        pass

    with pytest.raises(TypeError, match="missing"):
        verify_mod._claim("unregistered", "", inputs=rule)(check_variance_defect)
    assert "unregistered" not in CLAIMS
