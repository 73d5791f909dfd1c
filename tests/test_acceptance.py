"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single summary line and asserts a wall-clock budget on
top of the substantive checks.  Two clause families are marked strict
xfail because the exact arithmetic of the implementation contradicts
them; the surrounding tests pin the honest values instead, and the xfail
reasons carry the numbers.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fieldlab.coupling import block_coupling_samples, build_scheme
from fieldlab.fields import linear_ma_model
from fieldlab.lattice import Block, cardinality
from fieldlab.sums import (
    block_var,
    make_grid,
    max_sub_block,
    partial_sum,
    variance_defect,
)
from fieldlab.theory import (
    MomentParams,
    SchemeParams,
    choose_delta,
    lambda1,
    lambda2,
    psi,
    t0,
)
from fieldlab.verify import (
    check_approximation_error,
    check_clt_distance,
    check_coupling_error_decay,
    check_dependence,
    check_lil,
    check_maximal_inequality,
    check_moment_inequality,
    check_noise_stability,
    check_variance_defect,
    check_variance_ratio,
    dkw_bound,
    emit_report,
    kolmogorov_distance,
    report_record,
)

from conftest import couple_run
from reference import decomposition_terms, good_span, max_sub_block_naive

# frozen optimum of the moment-exponent problem at d=1, p=5, lam=2
_DELTA = 0.36700683814454804


def _announce(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")


# --------------------------------------------------------------------------
# 1. threshold function and moment exponents


def test_criterion_01_threshold_exponents():
    start = time.perf_counter()
    root = t0()
    root_gap = abs(root - 2.1413)

    breakpoints = (4.0, root * root)
    cont_gap = max(abs(psi(b - 1e-12) - psi(b + 1e-12)) for b in breakpoints)

    grid = np.linspace(2.001, 100.0, 4001)
    dominated = all(psi(p) <= (p - 1.0) / (p - 2.0) + 1e-12 for p in grid)

    pin_gap = 0.0
    eq_gap_high = 0.0
    for p in (4.2, 4.5, 5.0, 6.0, 10.0):
        delta = choose_delta(MomentParams(d=1, p=p, lam=2.0))
        l1, l2 = lambda1(1, delta, p), lambda2(1, delta, p)
        pin_gap = max(pin_gap, abs(max(l1, l2) - psi(p)))
        if p >= 5.0:
            eq_gap_high = max(eq_gap_high, abs(l1 - l2))

    elapsed = time.perf_counter() - start
    ok = (root_gap < 5e-5 and cont_gap < 1e-9 and dominated
          and pin_gap < 1e-6 and eq_gap_high < 1e-6)
    _announce(1, "threshold exponents", ok,
              f"root gap {root_gap:.1e}, continuity {cont_gap:.1e}, "
              f"pin {pin_gap:.1e}, equalization {eq_gap_high:.1e}, {elapsed:.2f}s")
    assert root_gap < 5e-5
    assert cont_gap < 1e-9
    assert dominated
    assert pin_gap < 1e-6
    assert eq_gap_high < 1e-6
    assert elapsed < 1.0


@pytest.mark.parametrize("p", [4.2, 4.5])
@pytest.mark.xfail(strict=True, reason=(
    "between the breakpoints 4 and t0^2 the optimal delta is p - sqrt(p) - 2, "
    "which minimizes the larger exponent without equalizing the pair; the gap "
    "is 0.334 at p=4.2 and 0.076 at p=4.5"))
def test_criterion_01_exponent_equalization_between_breakpoints(p):
    delta = choose_delta(MomentParams(d=1, p=p, lam=2.0))
    l1, l2 = lambda1(1, delta, p), lambda2(1, delta, p)
    gap = abs(l1 - l2)
    _announce(1, f"exponent equalization p={p}", gap < 1e-6, f"|l1-l2| = {gap:.4f}")
    assert gap < 1e-6


# --------------------------------------------------------------------------
# 2. exact summation engines


def test_criterion_02_exact_summation_engines():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    grids = []
    for lengths in ((4096,), (64, 64), (16, 16, 16)):
        V = Block((0,) * len(lengths), lengths)
        vals = rng.standard_normal(lengths)
        grids.append((V, vals, make_grid(V, vals)))

    worst_rel = 0.0
    for i in range(1000):
        V, vals, grid = grids[i % 3]
        a = tuple(int(rng.integers(0, n)) for n in V.lengths)
        b = tuple(int(rng.integers(ai + 1, n + 1)) for ai, n in zip(a, V.lengths))
        direct = math.fsum(
            vals[tuple(slice(ai, bi) for ai, bi in zip(a, b))].ravel().tolist())
        got = partial_sum(grid, Block(a, b))
        worst_rel = max(worst_rel, abs(got - direct) / max(1.0, abs(direct)))
    ok_sum = worst_rel <= 1e-9

    shapes = [(1,), (2,), (7,), (400,),
              (1, 1), (2, 3), (5, 5), (20, 20), (4, 100),
              (2, 2, 2), (3, 4, 5), (7, 7, 8)]
    while len(shapes) < 30:
        d = int(rng.integers(1, 4))
        lengths = tuple(int(rng.integers(1, 21)) for _ in range(d))
        if math.prod(lengths) <= 400:
            shapes.append(lengths)

    worst_gap = 0.0
    for j, lengths in enumerate(shapes):
        corner = tuple(int(rng.integers(-5, 6)) for _ in lengths)
        V = Block(corner, tuple(c + n for c, n in zip(corner, lengths)))
        vals = rng.standard_normal(lengths)
        if j % 5 == 4:
            vals = -np.abs(vals)  # forces the optimum onto a single cell
        grid = make_grid(V, vals)
        fast = max_sub_block(grid)
        naive = max_sub_block_naive(grid)
        worst_gap = max(worst_gap, abs(fast - naive) / max(1.0, abs(naive)))
    ok_max = worst_gap <= 1e-9

    elapsed = time.perf_counter() - start
    _announce(2, "exact summation engines", ok_sum and ok_max,
              f"1000 partial sums rel {worst_rel:.1e}, "
              f"{len(shapes)} maxima rel {worst_gap:.1e}, {elapsed:.1f}s")
    assert ok_sum
    assert ok_max
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 3. finite-size variance of the negatively associated moving average


def test_criterion_03_variance_shrinkage(ma_model):
    start = time.perf_counter()

    ratio_rep = check_variance_ratio(ma_model, N=200, replicates=2000, seed=5)
    est, se = ratio_rep.statistics["mc_ratio"], ratio_rep.statistics["se"]
    mc_gap = abs(est - 0.2525)
    ok_mc = mc_gap <= 3.0 * se

    # var(S_N) = 0.25 N + 1 exactly, so the per-cell ratio is 0.25 + 1/N
    # and the signed defect is -1/N
    exact_gap = 0.0
    defect_gap = 0.0
    scaled = []
    for N in (10, 40, 160, 640):
        V = Block((0,), (N,))
        exact_gap = max(exact_gap, abs(block_var(ma_model, V) / N - (0.25 + 1.0 / N)))
        d = variance_defect(ma_model, V)
        defect_gap = max(defect_gap, abs(d * N + 1.0))
        scaled.append(abs(d) * math.sqrt(N))
    ok_exact = exact_gap < 1e-12 and defect_gap < 1e-12
    ok_trend = all(x > y for x, y in zip(scaled, scaled[1:]))

    defect_rep = check_variance_defect(ma_model)

    elapsed = time.perf_counter() - start
    ok = ok_mc and ok_exact and ok_trend and ratio_rep.passed and defect_rep.passed
    _announce(3, "variance shrinkage", ok,
              f"mc gap {mc_gap:.4f} vs 3se {3 * se:.4f}, exact {exact_gap:.1e}, "
              f"scaled defects {', '.join(f'{x:.3f}' for x in scaled)}, {elapsed:.1f}s")
    assert ok_mc
    assert ok_exact
    assert ok_trend
    assert ratio_rep.passed
    assert defect_rep.passed
    assert elapsed < 60.0


@pytest.mark.xfail(strict=True, reason=(
    "the exact block variance is 0.25 N + 1, so var/N - 0.25 equals 1/N; "
    "the claimed 0.5/N correction is half the true one"))
def test_criterion_03_variance_formula_clause(ma_model):
    gap = max(abs(block_var(ma_model, Block((0,), (N,))) / N - (0.25 + 0.5 / N))
              for N in (10, 200, 640))
    _announce(3, "variance formula clause", gap < 1e-9, f"worst gap {gap:.2e}")
    assert gap < 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "|defect| decays like 1/l, so the sqrt(l)-scaled defect falls by a factor "
    "of 8 from l=10 to l=640, not within a factor of 2"))
def test_criterion_03_scaled_defect_flatness_clause(ma_model):
    scaled = [abs(variance_defect(ma_model, Block((0,), (l,)))) * math.sqrt(l)
              for l in (10, 40, 160, 640)]
    ratio = max(scaled) / min(scaled)
    _announce(3, "scaled defect flatness clause", ratio <= 2.0, f"ratio {ratio:.1f}")
    assert ratio <= 2.0


# --------------------------------------------------------------------------
# 4. moment and maximal inequalities along the dyadic ladder


def test_criterion_04_moment_and_maximal_growth(gauss_model, assoc_model, ma_model):
    start = time.perf_counter()
    details = []
    all_ok = True
    for name, model in (("iid", gauss_model), ("assoc", assoc_model), ("na", ma_model)):
        mom = check_moment_inequality(model, _DELTA, replicates=2000, seed=0, workers=4)
        sup = check_maximal_inequality(model, _DELTA, replicates=2000, seed=0, workers=4)
        all_ok = all_ok and mom.passed and sup.passed
        details.append(f"{name} {mom.statistics['slope']:.3f}/{sup.statistics['slope']:.3f}")
    elapsed = time.perf_counter() - start
    _announce(4, "moment and maximal growth", all_ok,
              f"slopes sum/max {', '.join(details)}, {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# 5. covariance bound for Lipschitz functionals, raw and noise-perturbed


def test_criterion_05_dependence_bound(ma_model):
    start = time.perf_counter()
    raw = check_dependence(ma_model)
    noisy = check_noise_stability(ma_model)
    elapsed = time.perf_counter() - start
    ok = raw.passed and noisy.passed
    _announce(5, "dependence bound", ok,
              f"max ratio raw {raw.statistics['max_ratio']:.3f}, "
              f"noisy {noisy.statistics['max_ratio']:.3f}, {elapsed:.1f}s")
    assert raw.passed
    assert noisy.passed
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# 6. distance to the normal law along a growing ladder


def test_criterion_06_normal_approximation(exp_model):
    start = time.perf_counter()
    rep = check_clt_distance(exp_model, workers=4)
    dists = rep.statistics["distances"]
    elapsed = time.perf_counter() - start
    ok = rep.passed and dists[-1] <= 0.05
    _announce(6, "normal approximation", ok,
              f"distances {', '.join(f'{d:.4f}' for d in dists)}, "
              f"fitted exponent {rep.statistics['fitted_decay_exponent']:.2f}, "
              f"{elapsed:.1f}s")
    assert rep.passed
    assert dists[-1] <= 0.05
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# 7. Gaussian coupling: exact decomposition, block marginals, error decay


def test_criterion_07_coupling_decomposition(exp_model, gauss_model):
    start = time.perf_counter()
    params = SchemeParams(alpha=3, beta=2, tau=1.0)

    worst_resid = 0.0
    worst_wiener = 0.0
    runs = []
    for K in (3, 5, 8):
        scheme = build_scheme(params, K=K, d=1)
        runs.append((scheme, couple_run(exp_model, scheme, 19, m_cdf=10_000)))
    scheme5 = build_scheme(params, K=5, d=1)
    exact_run = couple_run(gauss_model, scheme5, 23, exact_phi=True)
    runs.append((scheme5, exact_run))
    scheme2d = build_scheme(params, K=3, d=2)
    model2d = linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3})
    run2d = couple_run(model2d, scheme2d, 29, m_cdf=2000)
    runs.append((scheme2d, run2d))

    coupled_total = 0
    for scheme, run in runs:
        assert run.coupled, "every run must couple at least one block"
        for k in run.coupled:
            coupled_total += 1
            span = good_span(scheme, k)
            terms = decomposition_terms(run, k)
            s_val = partial_sum(run.field, span.region)
            worst_resid = max(
                worst_resid,
                abs(math.fsum(terms) - s_val) / max(1.0, abs(s_val)))
            B = scheme.block(k)
            target = math.sqrt(cardinality(B)) * run.eta[k]
            worst_wiener = max(
                worst_wiener,
                abs(partial_sum(run.wiener, B) - target) / max(1.0, abs(target)))
    ok_resid = worst_resid <= 1e-9 and worst_wiener <= 1e-9

    # an exact normal transform couples with zero error, so T1 vanishes
    t1_terms = [decomposition_terms(exact_run, k)[0] for k in exact_run.coupled]
    ok_exact = all(t == 0.0 for t in t1_terms)
    assert set(run2d.coupled) == {(2, 2), (2, 3), (3, 2), (3, 3)}

    ks_cap = 2.0 * dkw_bound(10_000)
    worst_ks = 0.0
    for k in range(1, 6):
        H, B = scheme5.head((k,)), scheme5.block((k,))
        bs = block_coupling_samples(exp_model, H.lengths, B.lengths,
                                    m_cdf=10_000, m_eval=10_000, seed=70)
        worst_ks = max(worst_ks, kolmogorov_distance(bs.eta))
    ok_ks = worst_ks <= ks_cap

    decay = check_coupling_error_decay(exp_model)
    vals = decay.statistics["mean_e2_per_cell"]

    elapsed = time.perf_counter() - start
    ok = ok_resid and ok_exact and ok_ks and decay.passed
    _announce(7, "coupling decomposition", ok,
              f"{coupled_total} blocks, residual {worst_resid:.1e}, "
              f"wiener {worst_wiener:.1e}, eta KS {worst_ks:.4f} vs {ks_cap:.4f}, "
              f"e2/cell {', '.join(f'{v:.4f}' for v in vals)}, {elapsed:.1f}s")
    assert ok_resid
    assert ok_exact
    assert ok_ks
    assert decay.passed
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert elapsed < 900.0


# --------------------------------------------------------------------------
# 8. strong approximation error growth on a deep prefix


def test_criterion_08_approximation_error(gauss_model):
    start = time.perf_counter()
    rep = check_approximation_error(gauss_model, exact_phi=True)
    row = rep.rows[0]
    elapsed = time.perf_counter() - start
    ok = rep.passed and row["top_volume"] >= 10_000 and row["ci_high"] < 0.5
    _announce(8, "approximation error", ok,
              f"volume {row['top_volume']}, slope {row['slope']:.3f}, "
              f"ci [{row['ci_low']:.3f}, {row['ci_high']:.3f}], {elapsed:.1f}s")
    assert rep.passed
    assert row["top_volume"] >= 10_000
    assert row["ci_high"] < 0.5
    assert elapsed < 1200.0


# --------------------------------------------------------------------------
# 9. iterated-logarithm bands on a dyadic net


def test_criterion_09_iterated_logarithm(gauss_model, ma_model):
    start = time.perf_counter()
    details = []
    all_ok = True
    for name, model in (("iid", gauss_model), ("na", ma_model)):
        rep = check_lil(model, workers=4)
        all_ok = all_ok and rep.passed
        details.append(
            f"{name} [{rep.statistics['median_min_R']:.2f}, "
            f"{rep.statistics['median_max_R']:.2f}] "
            f"exc {rep.statistics['top_exceedance']:.2f}")
        assert rep.statistics["top_exceedance"] <= 0.05
    elapsed = time.perf_counter() - start
    _announce(9, "iterated logarithm", all_ok, f"{'; '.join(details)}, {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 1200.0


# --------------------------------------------------------------------------
# 10. deterministic reports, independent of worker count


def test_criterion_10_deterministic_reports(ma_model, tmp_path):
    start = time.perf_counter()
    ladder = (16, 128, 1024, 8192)

    def bundle(workers):
        return [
            check_moment_inequality(ma_model, _DELTA, ladder=ladder,
                                    replicates=400, seed=9, workers=workers),
            check_variance_ratio(ma_model, seed=9),
        ]

    first = bundle(1)
    again = bundle(1)
    wide = bundle(3)
    records = [[report_record(r) for r in reps] for reps in (first, again, wide)]
    ok_records = records[0] == records[1] == records[2]

    paths = []
    for tag, reps in (("a", first), ("b", again), ("c", wide)):
        out = tmp_path / tag
        out.mkdir()
        emit_report(reps, out)
        paths.append(out)
    names = sorted(p.name for p in paths[0].iterdir())
    ok_files = names == ["moment_growth.csv", "summary.json", "variance_ratio.csv"]
    ok_bytes = all(
        (paths[0] / n).read_bytes() == (p / n).read_bytes()
        for n in names for p in paths[1:])

    elapsed = time.perf_counter() - start
    ok = ok_records and ok_files and ok_bytes
    _announce(10, "deterministic reports", ok,
              f"records match across rerun and workers 1 vs 3, "
              f"{len(names)} files byte-identical, {elapsed:.1f}s")
    assert ok_records
    assert ok_files
    assert ok_bytes
    assert elapsed < 600.0
