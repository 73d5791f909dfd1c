import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from fieldlab import coupling
from fieldlab.coupling import (
    EmpiricalCdf,
    block_coupling_samples,
    build_scheme,
    cdf_table,
    coupling_error,
    corner_errors,
    estimate_cdf,
    quantile_transform,
    scheme_variances,
    xi,
)
from fieldlab.fields import iid_model, linear_ma_model, sample_block
from fieldlab.lattice import Block, cardinality
from fieldlab.rng import stream
from fieldlab.sums import block_var, make_grid, partial_sum
from fieldlab.theory import SchemeParams
from fieldlab.verify import (
    approximation_error_study,
    check_coupling_error_decay,
    dkw_bound,
    kolmogorov_distance,
)

from conftest import couple_run
from reference import block_sums, build_wiener, decomposition_terms, good_span, run_coupling

PARAMS = SchemeParams(alpha=3, beta=2, tau=1.0)


class TestScheme:
    def test_boundaries(self):
        s = build_scheme(PARAMS, K=4, d=1)
        assert s.boundaries == (0, 2, 14, 50, 130)
        assert s.domain == Block((0,), (130,))
        assert s.block((3,)) == Block((14,), (50,))
        assert s.head((3,)) == Block((14,), (14 + 27,))

    def test_d1_all_blocks_good(self):
        s = build_scheme(PARAMS, K=5, d=1)
        assert s.good == frozenset((k,) for k in range(1, 6))

    def test_d2_good_set_frozen(self):
        s = build_scheme(PARAMS, K=3, d=2)
        assert s.good == frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})

    def test_good_span_d2(self):
        s = build_scheme(PARAMS, K=3, d=2)
        span = good_span(s, (3, 3))
        assert span.start == (2, 2)
        assert span.region == Block((2, 2), (50, 50))
        assert set(span.indices) == {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert good_span(s, (2, 2)).indices == ((2, 2),)

    def test_good_span_needs_good_block(self):
        s = build_scheme(PARAMS, K=3, d=2)
        with pytest.raises(ValueError):
            good_span(s, (1, 1))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_scheme(PARAMS, K=0, d=1)


class TestBlockBoundary:
    """n_l = sum_{i<=l} (i^alpha + i^beta), as build_scheme sums them."""

    def test_pinned_prefix(self):
        assert list(build_scheme(PARAMS, K=4, d=1).boundaries) == [0, 2, 14, 50, 130]

    @given(st.integers(3, 6), st.integers(2, 4), st.integers(1, 30))
    def test_partial_sums_of_powers(self, alpha, beta, K):
        if alpha <= beta:
            alpha = beta + 1
        scheme = build_scheme(SchemeParams(alpha=alpha, beta=beta), K=K, d=1)
        expected = [sum(i**alpha + i**beta for i in range(1, l + 1)) for l in range(K + 1)]
        assert list(scheme.boundaries) == expected

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="depth 1000000000 at alpha 10, beta 2"):
            build_scheme(SchemeParams(alpha=10, beta=2), K=10**9, d=1)

    @pytest.mark.parametrize("alpha, K, d, match", [
        (3, 10**30, 1, "block boundary exceeds"),
        (10**21, 3, 1, "block boundary exceeds"),
        (3, 310, 2, "cells or more"),
    ], ids=["depth-huge", "alpha-huge", "domain-d2"])
    def test_index_range_checked_before_any_power(self, alpha, K, d, match):
        # the first two summed for minutes, or formed a power of 10^21 bits
        with pytest.raises(ValueError, match=match):
            build_scheme(SchemeParams(alpha=alpha, beta=2), K=K, d=d)

    def test_last_depth_in_range(self):
        # d = 2: n_303^2 < 2^62 <= n_304^2
        assert build_scheme(PARAMS, K=303, d=2).boundaries[-1] ** 2 < 2**62
        with pytest.raises(ValueError, match="depth 304"):
            build_scheme(PARAMS, K=304, d=2)


class TestVariances:
    def test_d1_tail_variance_is_exact(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        var = scheme_variances(ma_model, s)
        for k in range(1, 4):
            B, H = s.block((k,)), s.head((k,))
            tail = Block((H.b[0],), B.b)
            assert var[(k,)].sigma2 == pytest.approx(block_var(ma_model, H), rel=1e-12)
            assert var[(k,)].tau2 == pytest.approx(block_var(ma_model, tail), rel=1e-12)

    def test_block_sums_identity(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        grid = make_grid(s.domain, sample_block(ma_model, s.domain, seed=1))
        u, v = block_sums(grid, s)
        for k in s.indices():
            assert u[k] + v[k] == pytest.approx(
                partial_sum(grid, s.block(k)), rel=1e-12, abs=1e-12
            )

    def test_block_sums_requires_coverage(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        small = Block((0,), (10,))
        grid = make_grid(small, sample_block(ma_model, small, seed=1))
        with pytest.raises(ValueError):
            block_sums(grid, s)


class TestTransforms:
    def test_xi_definition(self):
        assert xi(3.0, 1.0, 4.0, 12.0) == pytest.approx(1.0)

    def test_coupling_error_definition(self):
        assert coupling_error(1.5, 1.0, 4.0, 12.0) == pytest.approx(2.0)

    def test_empirical_cdf_midpoint_values(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        F = EmpiricalCdf(xs)
        assert F(1.0) == pytest.approx(1 / 8)
        assert F(4.0) == pytest.approx(7 / 8)
        assert F(2.5) == pytest.approx(0.5)
        # clamps keep the quantile transform finite beyond the sample range
        assert F(-100.0) == pytest.approx(1 / 8)
        assert F(100.0) == pytest.approx(7 / 8)

    def test_estimate_cdf_needs_mass(self):
        with pytest.raises(ValueError):
            estimate_cdf(np.zeros(99))

    def test_quantile_transform_normalizes(self):
        gen = stream(3, "qt", 0)
        sample = gen.standard_normal(10_000)
        F = estimate_cdf(sample)
        eta = quantile_transform(sample, F)
        assert kolmogorov_distance(eta) <= 2 * dkw_bound(10_000)

    def test_quantile_transform_identity_under_true_cdf(self):
        x = np.linspace(-2, 2, 41)
        assert np.allclose(quantile_transform(x, ndtr), x, atol=1e-9)

    @pytest.mark.parametrize("exact_phi", [False, True])
    def test_couple_blocks_equals_the_per_block_loop(self, ma_model, exact_phi):
        """The one kernel couples a replicate's blocks with the bits of the
        scalar loop, block by block, with scipy's Phi^-1 as the oracle."""
        scheme = build_scheme(PARAMS, K=6, d=1)
        variances = scheme_variances(ma_model, scheme)
        cdfs = cdf_table(ma_model, scheme, variances, 1000, 2, exact_phi)
        coupled = coupling._coupled(scheme, variances)
        bvs = [variances[k] for k in coupled]
        fs = [cdfs[coupling._shape_key(scheme.head(k), scheme.block(k))] for k in coupled]
        gen = stream(2, "kernel", 0)
        u, z = 3.0 * gen.standard_normal(len(coupled)), gen.standard_normal(len(coupled))
        got = coupling._couple_blocks(u.tolist(), z, bvs, fs)
        assert len(coupled) == 6 and all((f is None) == exact_phi for f in fs)
        for i, (bv, cdf) in enumerate(zip(bvs, fs)):
            w = float(z[i]) * math.sqrt(bv.tau2)
            x = (float(u[i]) + w) / math.sqrt(bv.sigma2 + bv.tau2)
            eta = x if cdf is None else float(ndtri(cdf(x)))
            e = math.sqrt(bv.sigma2 + bv.tau2) * (x - eta)
            assert [a[i] for a in got] == [w, x, eta, e]


class TestCouplingRun:
    def test_exact_phi_gaussian(self, gauss_model):
        s = build_scheme(PARAMS, K=4, d=1)
        run = couple_run(gauss_model, s, 5, exact_phi=True)
        assert run.coupled == tuple(sorted(s.good))
        for k in run.coupled:
            assert run.e[k] == 0.0
            assert run.eta[k] == run.xi[k]
            B = s.block(k)
            assert partial_sum(run.wiener, B) == pytest.approx(
                math.sqrt(cardinality(B)) * run.eta[k], rel=1e-12, abs=1e-12
            )

    def test_exact_phi_requires_normal(self, exp_model):
        # the one Gaussian guard below study_plans, for run_coupling and
        # corner_errors alike: both read their xi maps from this table
        s = build_scheme(PARAMS, K=3, d=1)
        with pytest.raises(ValueError, match="Gaussian"):
            cdf_table(exp_model, s, scheme_variances(exp_model, s), 500, 1, exact_phi=True)

    def test_deterministic(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        a = couple_run(ma_model, s, 9, m_cdf=500)
        b = couple_run(ma_model, s, 9, m_cdf=500)
        assert a.eta == b.eta and a.e == b.e
        c = couple_run(ma_model, s, 9, replicate=1, m_cdf=500)
        assert a.eta != c.eta

    def test_cdf_table_covers_coupled_shapes(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        var = scheme_variances(ma_model, s)
        cdfs = cdf_table(ma_model, s, var, m=500, seed=2)
        run = run_coupling(ma_model, s, 2, 0, var, cdfs)
        shapes = {(s.head(k).lengths, s.block(k).lengths) for k in run.coupled}
        assert shapes == set(cdfs)
        for F in cdfs.values():
            assert F.m == 500

    def test_cdf_table_skips_uncoupled_shapes(self):
        # at K = 3 in d = 2 five of the nine block shapes belong to no good block
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3})
        s = build_scheme(PARAMS, K=3, d=2)
        cdfs = cdf_table(model, s, scheme_variances(model, s), m=100, seed=2)
        assert set(cdfs) == {(s.head(k).lengths, s.block(k).lengths) for k in s.good}
        assert len(cdfs) == 4

    def test_exact_phi_table_draws_nothing(self, monkeypatch, gauss_model):
        s = build_scheme(PARAMS, K=4, d=1)
        var = scheme_variances(gauss_model, s)
        monkeypatch.setattr(coupling, "_shape_cdf", None)  # a draw would raise
        cdfs = cdf_table(gauss_model, s, var, m=1, seed=2, exact_phi=True)
        assert cdfs == {(s.head(k).lengths, s.block(k).lengths): None for k in s.good}

    def test_decomposition_identity_and_terms(self, ma_model, exp_model):
        for model in (ma_model, exp_model):
            s = build_scheme(PARAMS, K=4, d=1)
            run = couple_run(model, s, 13, m_cdf=800)
            for k in run.coupled:
                terms = decomposition_terms(run, k)  # raises if residual > 1e-9
                span = good_span(s, k)
                assert sum(terms) == pytest.approx(
                    partial_sum(run.field, span.region), rel=1e-9, abs=1e-9
                )

    def test_exact_phi_kills_t1(self, gauss_model):
        s = build_scheme(PARAMS, K=4, d=1)
        run = couple_run(gauss_model, s, 3, exact_phi=True)
        t1 = decomposition_terms(run, (4,))[0]
        assert t1 == 0.0

    def test_wiener_untouched_outside_good_blocks(self):
        model = linear_ma_model(2, {(0, 0): 1.0, (0, 1): 0.5})
        s = build_scheme(PARAMS, K=3, d=2)
        run = couple_run(model, s, 7, exact_phi=True)
        raw = stream(7, "wiener", 0).standard_normal(s.domain.lengths)
        Z = np.asarray(run.wiener.values)
        touched = np.zeros(s.domain.lengths, dtype=bool)
        for k in run.coupled:
            B = s.block(k)
            touched[tuple(slice(a, b) for a, b in zip(B.a, B.b))] = True
        assert np.array_equal(Z[~touched], raw[~touched])
        assert not np.array_equal(Z[touched], raw[touched])


class TestStudies:
    @pytest.mark.parametrize("budget", [1, 700])
    @pytest.mark.parametrize("model, head, block", [
        (linear_ma_model(1, {(0,): 1.0, (1,): 0.5}, "exponential"), (4,), (20,)),
        (linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3}), (2, 3), (4, 5)),
    ], ids=["d1", "d2"])
    def test_cdf_draws_do_not_depend_on_the_batch(self, monkeypatch, model, head, block,
                                                  budget):
        # the head sums are taken batch by batch; one replicate per batch
        # (budget 1) and uneven batches give the bits of one batch
        def draws():
            return coupling._anchored_xi_batch(model, head, block, 1.0, 0.5, 3, range(50),
                                               field_tag="f", companion_tag="c")

        whole = draws()
        monkeypatch.setattr(coupling, "_BATCH_CELLS", budget)
        assert draws().tobytes() == whole.tobytes()

    def test_block_coupling_samples_exact_phi(self, gauss_model):
        # the empirical-CDF path, which is the only one; eta = xi under exact
        # Phi is covered by TestCouplingRun.test_exact_phi_gaussian
        bs = block_coupling_samples(gauss_model, (8,), (27,), m_cdf=200, m_eval=300, seed=1)
        assert bs.card == 27
        assert bs.xi.shape == (300,)

    def test_error_decay(self, exp_model):
        rows = check_coupling_error_decay(
            exp_model, depths=(3, 5), m_cdf=2000, m_eval=2000, seed=4
        ).rows
        assert [r["depth"] for r in rows] == [3, 5]
        assert rows[0]["card"] < rows[1]["card"]
        assert rows[1]["mean_e2_per_cell"] < rows[0]["mean_e2_per_cell"]
        assert all(r["se_e2"] > 0 for r in rows)

    def test_approximation_error_structure(self, gauss_model):
        study = coupling.study_plans(gauss_model, depths=(16,), replicates=50,
                                     exact_phi=True, bootstrap=200)
        out = approximation_error_study(gauss_model, study, seed=6, workers=1)
        (row,) = out
        assert row["depth"] == 16
        assert row["cards"][-1] > 10_000
        assert row["ci_low"] <= row["slope"] <= row["ci_high"]
        assert row["slope"] < 0.6


class TestCornerErrors:
    """The slab-by-slab coupling against the whole-domain run, in every d."""

    MODELS = {
        "iid_exact": (iid_model(1), True),
        "negative_lag_exact": (linear_ma_model(1, {(-2,): 0.3, (0,): 1.0, (1,): 0.5}), True),
        "exponential_cdf": (linear_ma_model(1, {(0,): 1.0, (1,): 0.5}, "exponential"), False),
        "rademacher_cdf": (
            linear_ma_model(1, {(-1,): 0.4, (0,): 1.0, (2,): -0.5}, "rademacher"), False),
        "d2_exact": (linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3}), True),
        "d2_rademacher_cdf": (linear_ma_model(
            2, {(-1, 2): -0.4, (0, 0): 1.0, (0, 1): 0.5, (1, -1): 0.3}, "rademacher"), False),
        "d3_exact": (linear_ma_model(3, {(0, 0, 0): 1.0, (1, 0, -1): 0.3}), True),
    }
    DEPTHS = {1: 9, 2: 4, 3: 3}

    @staticmethod
    def _reference(model, scheme, seed, rep, variances, cdfs, corners):
        run = run_coupling(model, scheme, seed, rep, variances, cdfs)
        prefixes = [Block((0,) * model.d, scheme.corner(k)) for k in corners]
        return [partial_sum(run.field, V) - run.sigma * partial_sum(run.wiener, V)
                for V in prefixes]

    @pytest.mark.parametrize("budget", [2**16, 300, 1], ids=["one_slab", "slabs", "blocks"])
    @pytest.mark.parametrize("alpha", [3, 4])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_run_coupling(self, monkeypatch, name, alpha, budget):
        # a 300-cell budget splits the domain into slabs, with the top blocks
        # larger than a slab; a budget of one cell makes each block a slab
        model, exact_phi = self.MODELS[name]
        scheme = build_scheme(SchemeParams(alpha=alpha, beta=2, tau=1.0),
                              K=self.DEPTHS[model.d], d=model.d)
        variances = scheme_variances(model, scheme)
        cdfs = cdf_table(model, scheme, variances, 100, seed=2, exact_phi=exact_phi)
        corners = [k for k in sorted(scheme.good) if variances[k].tau2 > 0]
        monkeypatch.setattr(coupling, "_BATCH_CELLS", budget)
        for rep in (0, 5):
            args = (model, scheme, 2, rep, variances, cdfs, corners)
            assert corner_errors(*args) == self._reference(*args)

    # d = 1 at K = 12: blocks 1-3 hold 50 cells; d = 2 at K = 4: a row of
    # 130 cells, so block rows 1-2 hold 14 x 130 = 1820 cells
    @pytest.mark.parametrize("budget", [1, 49, 50, 300, 1819, 1820, 10_000, 2**16])
    def test_slabs_tile_the_blocks(self, budget):
        for d, K in ((1, 12), (2, 4)):
            scheme = build_scheme(PARAMS, K=K, d=d)
            bounds = scheme.boundaries

            def cells(first, last):
                return (bounds[last] - bounds[first - 1]) * bounds[-1] ** (d - 1)

            slabs = list(coupling._slabs(scheme, budget))
            assert [f for f, _ in slabs] == [1] + [last + 1 for _, last in slabs[:-1]]
            assert slabs[-1][1] == K
            for first, last in slabs:
                assert first == last or cells(first, last) <= budget
            for (first, _), (nxt, _) in zip(slabs, slabs[1:]):
                assert cells(first, nxt) > budget  # no slab could take more

    def test_wiener_slabs_are_slices_of_build_wiener(self):
        # the Wiener pass of corner_errors draws slab by slab what build_wiener
        # draws on the whole domain; blocks outside etas keep the raw stream.
        # In d = 2 at K = 5 a block row is a slab of its own.
        for d, K, budget in ((1, 9, 300), (2, 5, 2000)):
            scheme = build_scheme(PARAMS, K=K, d=d)
            blocks = sorted(scheme.good)
            etas = {k: 0.7 * i - 2.0 for i, k in enumerate(blocks) if i % 2}
            cuts = [scheme.boundaries[first - 1] for first, _ in coupling._slabs(scheme, budget)]
            cuts.append(scheme.boundaries[-1])
            assert len(cuts) >= 4
            buf = np.empty((max(b - a for a, b in zip(cuts, cuts[1:])),)
                           + scheme.domain.lengths[1:])
            conditioned = [(scheme.block(k), eta) for k, eta in etas.items()]
            slabs = [Z.copy() for Z in coupling._wiener_slabs(conditioned, 3, 1, cuts, buf)]
            whole = build_wiener(scheme, etas, 3, 1)
            assert np.concatenate(slabs).tobytes() == whole.tobytes()
            raw = stream(3, "wiener", 1).standard_normal(scheme.domain.lengths)
            for k in blocks:
                B = scheme.block(k)
                box = tuple(slice(a, b) for a, b in zip(B.a, B.b))
                if k in etas:
                    assert whole[box].sum() == pytest.approx(
                        math.sqrt(cardinality(B)) * etas[k], rel=1e-12, abs=1e-12)
                else:
                    assert np.array_equal(whole[box], raw[box])

    def test_study_memory_is_set_by_the_slab(self, gauss_model):
        # depth 48 has 1,421,000 cells; holding the whole domain, as
        # run_coupling does, peaked at 65 MiB
        tracemalloc.start()
        try:
            study = coupling.study_plans(gauss_model, depths=(48,), replicates=2,
                                         exact_phi=True, bootstrap=20)
            approximation_error_study(gauss_model, study, seed=1, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_d2_memory_is_set_by_the_slab(self):
        # K = 7 has 853,776 cells; holding the whole domain, as run_coupling
        # does, peaked at 52 MiB.  A fresh thread starts with an empty
        # workspace, so its buffers are counted.
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3})
        ((_, scheme, variances, corners),) = coupling.study_plans(
            model, depths=(7,), replicates=2, exact_phi=True).plans
        cdfs = cdf_table(model, scheme, variances, 100, seed=0, exact_phi=True)
        peak = []

        def replicate():
            tracemalloc.start()
            try:
                corner_errors(model, scheme, 0, 0, variances, cdfs, corners)
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=replicate)
        thread.start()
        thread.join()
        assert peak[0] < 24 * 2**20

    @staticmethod
    def _fresh_thread_peak(call) -> int:
        """The tracemalloc peak of call in a fresh thread, whose workspace
        starts empty, so that every buffer it keeps is counted."""
        peak = []

        def run():
            tracemalloc.start()
            try:
                call()
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        return peak[0]

    def test_study_buffers_hold_one_block_row(self, gauss_model):
        # the largest block row at depth 48 has 112,896 cells: only the
        # Wiener slab holds it.  Sizing every buffer to it, with a
        # longdouble prefix of the slab, peaked at 4.7 MiB
        peak = self._fresh_thread_peak(lambda: approximation_error_study(
            gauss_model, coupling.study_plans(gauss_model, depths=(48,), replicates=2,
                                              exact_phi=True, bootstrap=20),
            seed=1, workers=1))
        assert peak < 3.5 * 2**20

    def test_d2_buffers_hold_one_block_row(self):
        # K = 8 has 2,250,000 cells and block rows of up to 864,000; field
        # slabs of whole block rows with their longdouble column sums
        # peaked at 39.8 MiB
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3})
        ((_, scheme, variances, corners),) = coupling.study_plans(
            model, depths=(8,), replicates=2, exact_phi=True).plans
        cdfs = cdf_table(model, scheme, variances, 100, seed=0, exact_phi=True)
        peak = self._fresh_thread_peak(
            lambda: corner_errors(model, scheme, 0, 0, variances, cdfs, corners))
        assert peak < 39.8 / 2 * 2**20
