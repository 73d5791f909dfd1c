"""Statistical verification suite: finite-sample checks with explicit oracles.

Every checker runs one experiment and returns a VerificationReport holding
the inputs, the measured statistics, the oracle values, the tolerances, and
a pass flag that is a pure function of the stored numbers.  Asymptotic
claims are recast as slope or band tests with Monte Carlo error accounted
for explicitly; nothing is asserted beyond what the stored numbers show.

Reports serialize to canonical JSON (sorted keys, repr floats) with the
wall-clock field set to null, so a re-run with the same config and seed is
byte-identical regardless of worker count.  Real timings live on the
in-memory dataclass and in console logs only.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from . import coupling as cpl
from .fields import (
    FieldModel,
    cox_grimmett,
    empirical_dependence_test,
    sample_block_batch,
    sigma2,
    support_radius,
)
from .lattice import Block, cardinality, inv_norm_sum, inv_norm_sum_bound
from .rng import stream
from .sums import block_var, make_grid, max_sub_block, variance_defect
from .theory import moricz_a

__all__ = [
    "VerificationReport",
    "CLAIMS",
    "kolmogorov_distance",
    "dkw_bound",
    "map_replicate_chunks",
    "check_dependence",
    "check_noise_stability",
    "check_moment_inequality",
    "check_maximal_inequality",
    "check_variance_ratio",
    "check_second_moment",
    "check_inverse_distance_sum",
    "check_variance_defect",
    "check_clt_distance",
    "check_coupling_error_decay",
    "check_tail_bound",
    "check_approximation_error",
    "check_lil",
    "default_geometries",
    "report_record",
    "emit_report",
]

CHUNK = 256


@dataclass(frozen=True)
class VerificationReport:
    """One claim's verdict with everything needed to re-derive it.

    A checker fills in the evidence; its @_claim registration fills in
    claim_id, statement and seconds.
    """

    inputs: dict
    statistics: dict
    oracle: dict
    tolerance: dict
    passed: bool
    rows: tuple = ()
    claim_id: str = ""
    statement: str = ""
    seconds: float | None = None


# claim id -> checker: the one registry of verifiable claims
CLAIMS: dict[str, Callable[..., VerificationReport]] = {}


def _claim(claim_id: str, statement: str):
    """Register a checker in CLAIMS and stamp its reports with the claim.

    functools.wraps keeps the checker's signature visible to inspect, which
    the CLI uses to build the checker's arguments.
    """

    def register(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> VerificationReport:
            t0 = time.perf_counter()
            report = check(*args, **kwargs)
            return dataclasses.replace(
                report, passed=bool(report.passed), rows=tuple(report.rows),
                claim_id=claim_id, statement=statement,
                seconds=time.perf_counter() - t0,
            )

        CLAIMS[claim_id] = run
        return run

    return register


def kolmogorov_distance(sample: np.ndarray, cdf: Callable = ndtr) -> float:
    """sup |EDF - cdf| with the exact one-sided empirical envelopes."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    m = x.size
    F = np.asarray(cdf(x), dtype=np.float64)
    i = np.arange(1, m + 1)
    return float(max((F - (i - 1) / m).max(), (i / m - F).max()))


def dkw_bound(m: int, level: float = 0.01) -> float:
    """Empirical-CDF sup-error bound holding with probability 1 - level."""
    return math.sqrt(math.log(2.0 / level) / (2.0 * m))


def map_replicate_chunks(
    kernel: Callable[[int, int], np.ndarray],
    replicates: int,
    workers: int = 1,
) -> np.ndarray:
    """Evaluate kernel(start, stop) over fixed-size replicate chunks.

    Chunk boundaries never depend on the worker count and results are
    concatenated in chunk order, so the output is bitwise identical for any
    number of workers (kernels draw from per-replicate streams).
    """
    spans = [(s, min(s + CHUNK, replicates)) for s in range(0, replicates, CHUNK)]
    if workers <= 1:
        parts = [kernel(s, e) for s, e in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda span: kernel(*span), spans))
    return np.concatenate(parts, axis=0)


def _ladder_block(d: int, size) -> Block:
    if isinstance(size, (tuple, list)):
        return Block((0,) * d, tuple(int(x) for x in size))
    if d != 1:
        raise ValueError("scalar ladder sizes require d = 1")
    return Block((0,), (int(size),))


def _sum_max_samples(
    model: FieldModel,
    V: Block,
    replicates: int,
    seed: int,
    tag: str,
    workers: int,
    want_max: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Replicate block sums (and sub-block maxima) drawn chunk by chunk."""

    def kernel(s: int, e: int) -> np.ndarray:
        vals = sample_block_batch(model, V, seed, range(s, e), tag=tag)
        flat = vals.reshape(e - s, -1)
        if not want_max:
            return flat.sum(axis=1)[:, None]
        if model.d == 1:
            P = np.concatenate(
                [np.zeros((e - s, 1)), np.cumsum(vals, axis=1, dtype=np.longdouble)],
                axis=1,
            ).astype(np.float64)
            return np.stack([P[:, -1], P.max(axis=1) - P.min(axis=1)], axis=1)
        sums = flat.sum(axis=1)
        maxima = np.array([max_sub_block(make_grid(V, row)) for row in vals])
        return np.stack([sums, maxima], axis=1)

    out = map_replicate_chunks(kernel, replicates, workers)
    if want_max:
        return out[:, 0], out[:, 1]
    return out[:, 0], None


def _loglog_slope(sizes: np.ndarray, values: np.ndarray) -> float:
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def _model_inputs(model: FieldModel) -> dict:
    return {
        "kind": model.kind,
        "d": model.d,
        "innovation": model.innovation,
        "coeffs": None
        if model.coeffs is None
        else {",".join(str(x) for x in u): a for u, a in model.coeffs},
    }


def _require_power_decay(model: FieldModel, c0: float, lam: float) -> None:
    """Exact check theta_r <= c0 r^-lam for all r >= 1 (finite support)."""
    for r in range(1, support_radius(model) + 2):
        if cox_grimmett(model, r) > c0 * r ** (-lam) + 1e-12:
            raise ValueError(
                f"dependence coefficients violate the decay envelope at r={r}"
            )


# --------------------------------------------------------------------------
# dependence


def default_geometries(model: FieldModel) -> list[tuple[Block, Block]]:
    """Five standard block pairs at sup-norm distances 1 and 2 (d = 1)."""
    if model.d != 1:
        raise ValueError("default geometries are defined for d = 1")
    return [
        (Block((0,), (1,)), Block((1,), (2,))),
        (Block((0,), (3,)), Block((3,), (4,))),
        (Block((0,), (4,)), Block((4,), (8,))),
        (Block((0,), (4,)), Block((5,), (9,))),
        (Block((0,), (10,)), Block((10,), (13,))),
    ]


def _dependence_report(
    model: FieldModel,
    geometries,
    pairs: int,
    replicates: int,
    seed: int,
    noise: str | None,
) -> VerificationReport:
    geometries = default_geometries(model) if geometries is None else geometries
    rows = []
    all_pass = True
    worst = None
    for g, (I, J) in enumerate(geometries):
        rep = empirical_dependence_test(
            model, I, J, pairs=pairs, replicates=replicates, seed=seed + g,
            noise=noise,
        )
        all_pass &= rep.passed
        if rep.max_ratio is not None:
            worst = rep.max_ratio if worst is None else max(worst, rep.max_ratio)
        rows.append(
            {
                "geometry": g,
                "r": rep.r,
                "theta_r": rep.theta_r,
                "scale": rep.lip_product_scale,
                "max_ratio": rep.max_ratio if rep.max_ratio is not None else "",
                "passed": rep.passed,
            }
        )
    return VerificationReport(
        inputs={
            "model": _model_inputs(model), "geometries": len(geometries),
            "pairs": pairs, "replicates": replicates, "seed": seed,
            "noise": noise,
        },
        statistics={"max_ratio": worst, "all_geometries_pass": all_pass},
        oracle={"bound": "lip_f * lip_g * min(|I|,|J|) * theta_r"},
        tolerance={"ratio_allowance": "1 + 3 SE per pair"},
        passed=all_pass, rows=rows,
    )


@_claim(
    "dependence_bound",
    "Covariance of clamped-linear functionals on disjoint index sets is "
    "bounded by Lip(f) Lip(g) min(|I|,|J|) theta_r at r = dist(I, J).",
)
def check_dependence(
    model: FieldModel,
    geometries=None,
    pairs: int = 50,
    replicates: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Covariance bound for clamped-linear pairs across block geometries."""
    return _dependence_report(model, geometries, pairs, replicates, seed, noise=None)


@_claim(
    "noise_stability",
    "Adding an independent iid field leaves the covariance bound with "
    "the original field's theta coefficients intact.",
)
def check_noise_stability(
    model: FieldModel,
    geometries=None,
    pairs: int = 50,
    replicates: int = 100_000,
    seed: int = 0,
    noise: str = "normal",
) -> VerificationReport:
    """Same bound for the field plus an independent iid noise field."""
    return _dependence_report(model, geometries, pairs, replicates, seed, noise=noise)


# --------------------------------------------------------------------------
# moment growth


_DEFAULT_LADDER = tuple(16 * 2**j for j in range(11))


def _moment_rows(
    model, delta, ladder, replicates, seed, workers, want_max
) -> tuple[list[dict], bool]:
    q = 2.0 + delta
    rows = []
    dominated = True
    for size in ladder:
        V = _ladder_block(model.d, size)
        tag = f"moment:{cardinality(V)}"
        sums, maxima = _sum_max_samples(
            model, V, replicates, seed, tag, workers, want_max
        )
        card = cardinality(V)
        s_pow = np.abs(sums) ** q
        row = {
            "card": card,
            "mean_abs_s_pow": float(s_pow.mean()),
            "se_s_pow": float(s_pow.std(ddof=1) / math.sqrt(replicates)),
        }
        if want_max:
            m_pow = maxima**q
            dominated &= bool(np.all(maxima >= np.abs(sums) - 1e-12))
            row["mean_max_pow"] = float(m_pow.mean())
            row["se_max_pow"] = float(m_pow.std(ddof=1) / math.sqrt(replicates))
            row["max_to_s_ratio"] = row["mean_max_pow"] / row["mean_abs_s_pow"]
        rows.append(row)
    return rows, dominated


@_claim(
    "moment_growth",
    "E|S(U)|^(2+delta) grows no faster than |U|^(1+delta/2) along a "
    "geometric ladder of blocks.",
)
def check_moment_inequality(
    model: FieldModel,
    delta: float,
    ladder: Sequence = _DEFAULT_LADDER,
    replicates: int = 2000,
    seed: int = 0,
    c0: float = 1.5,
    lam: float = 2.0,
    workers: int = 1,
) -> VerificationReport:
    """Volume-growth cap on E|S(U)|^(2+delta) along a geometric ladder."""
    _require_power_decay(model, c0, lam)
    rows, _ = _moment_rows(model, delta, ladder, replicates, seed, workers, False)
    cards = np.array([r["card"] for r in rows], dtype=np.float64)
    means = np.array([r["mean_abs_s_pow"] for r in rows])
    slope = _loglog_slope(cards, means)
    ratios = means / cards ** (1.0 + delta / 2.0)
    growth = float((ratios / ratios[0]).max())
    cap = 1.0 + delta / 2.0 + 0.1
    passed = slope <= cap and growth <= 10.0
    for r, ratio in zip(rows, ratios):
        r["ratio_to_volume_power"] = float(ratio)
    return VerificationReport(
        inputs={
            "model": _model_inputs(model), "delta": delta,
            "ladder": [int(c) for c in cards], "replicates": replicates,
            "seed": seed, "c0": c0, "lambda": lam,
        },
        statistics={"slope": slope, "ratio_growth": growth},
        oracle={"slope_limit": 1.0 + delta / 2.0},
        tolerance={"slope_cap": cap, "ratio_growth_cap": 10.0},
        passed=passed, rows=rows,
    )


@_claim(
    "maximal_growth",
    "E M(U)^(2+delta) obeys the same volume growth with the sub-block "
    "maximal constant A(d, delta), and M >= |S| pathwise.",
)
def check_maximal_inequality(
    model: FieldModel,
    delta: float,
    ladder: Sequence = _DEFAULT_LADDER,
    replicates: int = 2000,
    seed: int = 0,
    c0: float = 1.5,
    lam: float = 2.0,
    workers: int = 1,
) -> VerificationReport:
    """Same growth cap for M(U), plus the maximal-constant ratio check."""
    _require_power_decay(model, c0, lam)
    rows, dominated = _moment_rows(model, delta, ladder, replicates, seed, workers, True)
    cards = np.array([r["card"] for r in rows], dtype=np.float64)
    means = np.array([r["mean_max_pow"] for r in rows])
    slope = _loglog_slope(cards, means)
    ratios = means / cards ** (1.0 + delta / 2.0)
    growth = float((ratios / ratios[0]).max())
    a_const = moricz_a(model.d, delta)
    worst_ratio = max(r["max_to_s_ratio"] for r in rows)
    cap = 1.0 + delta / 2.0 + 0.1
    passed = slope <= cap and growth <= 10.0 and worst_ratio <= a_const and dominated
    return VerificationReport(
        inputs={
            "model": _model_inputs(model), "delta": delta,
            "ladder": [int(c) for c in cards], "replicates": replicates,
            "seed": seed, "c0": c0, "lambda": lam,
        },
        statistics={
            "slope": slope, "ratio_growth": growth,
            "worst_max_to_s_ratio": worst_ratio, "pathwise_dominated": dominated,
        },
        oracle={"maximal_constant": a_const, "slope_limit": 1.0 + delta / 2.0},
        tolerance={"slope_cap": cap, "ratio_growth_cap": 10.0},
        passed=passed, rows=rows,
    )


# --------------------------------------------------------------------------
# variance


@_claim(
    "variance_ratio",
    "var(S_N)/[N] approaches sigma^2 = sum of covariances, and the "
    "Monte Carlo estimate matches the exact ratio.",
)
def check_variance_ratio(
    model: FieldModel,
    N: int = 200,
    N_small: int = 50,
    replicates: int = 2000,
    seed: int = 0,
) -> VerificationReport:
    """Monte Carlo var(S_N)/[N] against the exact ratio and its limit."""
    from .sums import variance_ratio as mc_ratio

    V = _ladder_block(model.d, N)
    Vs = _ladder_block(model.d, N_small)
    est, se = mc_ratio(model, V, replicates, seed)
    exact_big = block_var(model, V) / cardinality(V)
    exact_small = block_var(model, Vs) / cardinality(Vs)
    s2 = sigma2(model)
    agree = abs(est - exact_big) <= 3.0 * se
    approach = abs(exact_big - s2) <= abs(exact_small - s2) + 1e-12
    return VerificationReport(
        inputs={
            "model": _model_inputs(model), "N": N, "N_small": N_small,
            "replicates": replicates, "seed": seed,
        },
        statistics={"mc_ratio": est, "se": se},
        oracle={
            "exact_ratio": exact_big, "exact_ratio_small": exact_small,
            "sigma2": s2,
        },
        tolerance={"agreement": "3 SE", "approach": "monotone toward sigma^2"},
        passed=agree and approach,
        rows=[
            {"N": N_small, "exact_ratio": exact_small},
            {"N": N, "exact_ratio": exact_big, "mc_ratio": est, "se": se},
        ],
    )


@_claim(
    "second_moment_bound",
    "E S(U)^2 <= (c(0) + c0)|U| whenever the dependence coefficients "
    "satisfy theta_r <= c0 r^-lambda.",
)
def check_second_moment(
    model: FieldModel,
    c0: float = 1.5,
    lam: float = 2.0,
    sizes: Sequence[int] = (10, 100, 1000, 10000),
) -> VerificationReport:
    """Exact E S(U)^2 <= (c(0) + c0)|U| under the decay envelope."""
    _require_power_decay(model, c0, lam)
    from .fields import covariance

    d2 = covariance(model, (0,) * model.d)
    rows = []
    ok = True
    for n in sizes:
        V = _ladder_block(model.d, n)
        var = block_var(model, V)
        bound = (d2 + c0) * cardinality(V)
        ok &= var <= bound + 1e-9
        rows.append({"card": cardinality(V), "var": var, "bound": bound})
    return VerificationReport(
        inputs={"model": _model_inputs(model), "c0": c0, "lambda": lam,
                "sizes": [int(x) for x in sizes]},
        statistics={"max_var_to_bound": max(r["var"] / r["bound"] for r in rows)},
        oracle={"d2": d2},
        tolerance={"slack": 1e-9},
        passed=ok, rows=rows,
    )


@_claim(
    "variance_defect",
    "The per-cell variance defect sigma^2 - var(S(V))/|V| shrinks as "
    "the minimal block edge grows.",
)
def check_variance_defect(
    model: FieldModel,
    edges: Sequence[int] = (10, 40, 160, 640),
) -> VerificationReport:
    """Exact per-cell variance defect shrinking with the minimal edge."""
    rows = []
    scaled = []
    for l in edges:
        V = _ladder_block(model.d, l)
        defect = variance_defect(model, V)
        scaled.append(abs(defect) * math.sqrt(l))
        rows.append(
            {"edge": l, "defect": defect, "defect_sqrt_edge": scaled[-1],
             "defect_edge": defect * l}
        )
    nonincreasing = all(
        scaled[i + 1] <= scaled[i] + 1e-12 for i in range(len(scaled) - 1)
    )
    return VerificationReport(
        inputs={"model": _model_inputs(model), "edges": [int(x) for x in edges]},
        statistics={"scaled_defects": scaled},
        oracle={"sigma2": sigma2(model)},
        tolerance={"monotone": "defect*sqrt(edge) nonincreasing"},
        passed=nonincreasing, rows=rows,
    )


# --------------------------------------------------------------------------
# index geometry


@_claim(
    "inverse_distance_sum",
    "Sums of inverse sup-norm distances over a block obey the "
    "volume/log shape bound with one constant transferring from small "
    "to large blocks.",
)
def check_inverse_distance_sum(
    dims: Sequence[int] = (1, 2, 3),
    seed: int = 0,
    fit_blocks: int = 24,
    validate_blocks: int = 12,
) -> VerificationReport:
    """One fitted constant per (d, nu) transfers from small to large blocks.

    The constant is the max ratio of the exact inverse-distance sum to the
    shape bound over random blocks with at most 10^3 points; it must keep
    bounding random blocks an order of magnitude larger, with 25% headroom
    (a wrong growth exponent would drift past that within the decade).
    """
    gen = stream(seed, "invsum", 0)
    rows = []
    ok = True

    def random_block(d: int, max_card: int, min_card: int) -> Block:
        while True:
            lens = [int(gen.integers(1, int(max_card ** (1 / d)) + 2)) for _ in range(d)]
            if min_card <= math.prod(lens) <= max_card:
                a = [int(gen.integers(-20, 20)) for _ in range(d)]
                return Block(tuple(a), tuple(x + n for x, n in zip(a, lens)))

    def max_ratio(d: int, nu: float, blocks: int, lo: int, hi: int) -> float:
        worst = 0.0
        for _ in range(blocks):
            U = random_block(d, hi, lo)
            pts = U.points()
            picks = [0, len(pts) - 1, int(gen.integers(0, len(pts)))]
            for p in picks:
                s = inv_norm_sum(U, tuple(pts[p]), nu)
                if s == 0.0:
                    continue
                worst = max(worst, s / inv_norm_sum_bound(cardinality(U), d, nu))
        return worst

    for d in dims:
        for nu in (d / 2.0, float(d), d + 1.0):
            c_fit = max_ratio(d, nu, fit_blocks, 2, 1000)
            c_val = max_ratio(d, nu, validate_blocks, 1000, 10000)
            ok &= c_val <= 1.25 * c_fit
            rows.append({"d": d, "nu": nu, "c_fit": c_fit, "c_validate": c_val,
                         "transfer_ratio": c_val / c_fit})
    return VerificationReport(
        inputs={"dims": [int(x) for x in dims], "seed": seed,
                "fit_blocks": fit_blocks, "validate_blocks": validate_blocks},
        statistics={"worst_transfer": max(r["transfer_ratio"] for r in rows)},
        oracle={"bound": "card^(1-nu/d), log-corrected at integer nu <= d"},
        tolerance={"headroom": 1.25},
        passed=ok, rows=rows,
    )


# --------------------------------------------------------------------------
# distributional limits


@_claim(
    "clt_distance",
    "The Kolmogorov distance from standardized S_N to the standard "
    "normal shrinks along the ladder and is small at the top.",
)
def check_clt_distance(
    model: FieldModel,
    ladder: Sequence = (100, 1000, 10000),
    replicates: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> VerificationReport:
    """Kolmogorov distance of standardized S_N to the normal on a ladder."""
    if sigma2(model) == 0:
        raise ValueError("CLT distance needs sigma^2 != 0")
    rows = []
    for size in ladder:
        V = _ladder_block(model.d, size)
        sums, _ = _sum_max_samples(
            model, V, replicates, seed, f"clt:{cardinality(V)}", workers, False
        )
        dist = kolmogorov_distance(sums / math.sqrt(block_var(model, V)))
        rows.append({"card": cardinality(V), "distance": dist})
    floor = dkw_bound(replicates)
    dists = [r["distance"] for r in rows]
    decreasing = all(
        dists[i + 1] <= dists[i] + 2.0 * floor for i in range(len(dists) - 1)
    )
    top_ok = dists[-1] <= 0.05
    mu_hat = -_loglog_slope(
        np.array([r["card"] for r in rows], dtype=np.float64), np.array(dists)
    )
    return VerificationReport(
        inputs={"model": _model_inputs(model),
                "ladder": [int(r["card"]) for r in rows],
                "replicates": replicates, "seed": seed},
        statistics={"distances": dists, "fitted_decay_exponent": mu_hat},
        oracle={"noise_floor": floor},
        tolerance={"top_distance": 0.05, "decrease_allowance": 2.0 * floor},
        passed=decreasing and top_ok, rows=rows,
    )


@_claim(
    "coupling_error_decay",
    "The per-cell mean squared coupling error of the top scheme block "
    "falls as the scheme deepens.",
)
def check_coupling_error_decay(
    model: FieldModel,
    depths: Sequence[int] = (3, 5, 8),
    m_cdf: int = 10_000,
    m_eval: int = 10_000,
    seed: int = 0,
    alpha: int = 3,
    beta: int = 2,
    tau: float = 1.0,
) -> VerificationReport:
    """Per-cell E e^2 of the top scheme block falls as the scheme deepens."""
    rows = cpl.coupling_error_decay_study(
        model, depths, m_cdf, m_eval, seed, alpha=alpha, beta=beta, tau=tau
    )
    vals = [r["mean_e2_per_cell"] for r in rows]
    decreasing = all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    fitted = -_loglog_slope(
        np.array([r["card"] for r in rows], dtype=np.float64), np.array(vals)
    )
    return VerificationReport(
        inputs={"model": _model_inputs(model), "depths": [int(k) for k in depths],
                "m_cdf": m_cdf, "m_eval": m_eval, "seed": seed,
                "alpha": alpha, "beta": beta, "tau": tau},
        statistics={"mean_e2_per_cell": vals, "fitted_decay_exponent": fitted},
        oracle={"direction": "strictly decreasing in depth"},
        tolerance={"strict": True},
        passed=decreasing, rows=rows,
    )


@_claim(
    "tail_bound",
    "P(M(V) >= x sqrt|V|) decays at least like x^-(2+delta) over the "
    "tested grid.",
)
def check_tail_bound(
    model: FieldModel,
    delta: float,
    V: Block | int = 1024,
    xs: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    replicates: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> VerificationReport:
    """Empirical tail of M(V)/sqrt|V| against the power-law envelope."""
    if isinstance(V, int):
        V = _ladder_block(model.d, V)
    _, maxima = _sum_max_samples(model, V, replicates, seed, "tail", workers, True)
    scale = math.sqrt(cardinality(V))
    rows = []
    for x in xs:
        p = float(np.mean(maxima >= x * scale))
        rows.append({"x": x, "tail_probability": p})
    probs = np.array([r["tail_probability"] for r in rows])
    xs_arr = np.array(xs, dtype=np.float64)
    nonzero = probs > 0
    zero_at_top = not nonzero[-1]
    exponent = None
    if nonzero.sum() >= 2:
        exponent = _loglog_slope(xs_arr[nonzero], probs[nonzero])
    cap = -(2.0 + delta) + 0.3
    passed = zero_at_top or (exponent is not None and exponent <= cap)
    monotone = bool(np.all(np.diff(probs) <= 1e-12))
    return VerificationReport(
        inputs={"model": _model_inputs(model), "delta": delta,
                "card": cardinality(V), "xs": [float(x) for x in xs],
                "replicates": replicates, "seed": seed},
        statistics={"tail_probabilities": probs.tolist(),
                    "fitted_exponent": exponent, "monotone_in_x": monotone},
        oracle={"exponent_cap": cap},
        tolerance={"pass_rule": "zero tail at top x, or exponent <= cap"},
        passed=passed and monotone, rows=rows,
    )


@_claim(
    "approximation_error",
    "log median|S_N - sigma W_N| grows with log[N] at slope below 1/2.",
)
def check_approximation_error(
    model: FieldModel,
    depths: Sequence[int] = (24,),
    replicates: int = 200,
    seed: int = 0,
    exact_phi: bool = False,
    m_cdf: int = 10_000,
    bootstrap: int = 1000,
) -> VerificationReport:
    """Bootstrap CI of the S - sigma W decay slope stays below 1/2."""
    studies = cpl.approximation_error_study(
        model, depths, replicates, seed,
        exact_phi=exact_phi, m_cdf=m_cdf, bootstrap=bootstrap,
    )
    rows = [
        {"depth": s["depth"], "top_volume": s["cards"][-1], "slope": s["slope"],
         "ci_low": s["ci_low"], "ci_high": s["ci_high"]}
        for s in studies
    ]
    passed = all(r["ci_high"] < 0.5 for r in rows)
    return VerificationReport(
        inputs={"model": _model_inputs(model), "depths": [int(k) for k in depths],
                "replicates": replicates, "seed": seed,
                "exact_phi": exact_phi, "m_cdf": m_cdf, "bootstrap": bootstrap},
        statistics={"slopes": [r["slope"] for r in rows],
                    "ci_highs": [r["ci_high"] for r in rows]},
        oracle={"slope_limit": 0.5},
        tolerance={"ci_level": 0.90},
        passed=passed, rows=rows,
    )


def _loglog_scale(n: float) -> float:
    inner = max(math.log(max(n, math.e)), math.e)
    return math.log(inner)


@_claim(
    "iterated_logarithm",
    "Normalized partial sums R_N stay within the iterated-logarithm "
    "bands along a dyadic net.",
)
def check_lil(
    model: FieldModel,
    depth: int = 20,
    replicates: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> VerificationReport:
    """Iterated-logarithm bands for R_N along a dyadic net (d = 1)."""
    if model.d != 1:
        raise ValueError("the dyadic net is implemented for d = 1")
    s2 = sigma2(model)
    if s2 == 0:
        raise ValueError("the normalization needs sigma^2 != 0")
    ns = 2 ** np.arange(1, depth + 1)
    denom = np.sqrt(2.0 * s2 * ns * np.array([_loglog_scale(n) for n in ns]))
    V = Block((0,), (int(ns[-1]),))

    def kernel(s: int, e: int) -> np.ndarray:
        out = np.empty((e - s, depth))
        for i, rep in enumerate(range(s, e)):
            vals = sample_block_batch(model, V, seed, range(rep, rep + 1), tag="lil")[0]
            c = np.cumsum(vals, dtype=np.longdouble).astype(np.float64)
            out[i] = c[ns - 1] / denom
        return out

    R = map_replicate_chunks(kernel, replicates, workers)
    max_med = float(np.median(R.max(axis=1)))
    min_med = float(np.median(R.min(axis=1)))
    exceed = float(np.mean(np.abs(R[:, -1]) > 1.5))
    passed = 0.5 <= max_med <= 1.4 and -1.4 <= min_med <= -0.5 and exceed <= 0.05
    rows = [
        {"statistic": "median_max_R", "value": max_med},
        {"statistic": "median_min_R", "value": min_med},
        {"statistic": "top_exceedance", "value": exceed},
    ]
    return VerificationReport(
        inputs={"model": _model_inputs(model), "depth": depth,
                "replicates": replicates, "seed": seed},
        statistics={"median_max_R": max_med, "median_min_R": min_med,
                    "top_exceedance": exceed},
        oracle={"limsup": 1.0, "liminf": -1.0},
        tolerance={"max_band": [0.5, 1.4], "min_band": [-1.4, -0.5],
                   "exceedance_cap": 0.05},
        passed=passed, rows=rows,
    )


# --------------------------------------------------------------------------
# serialization


def _jsonable(x):
    if isinstance(x, Mapping):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if x is None or isinstance(x, str):
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


def report_record(report: VerificationReport) -> dict:
    """Canonical JSON record; wall clock is nulled to keep re-runs stable."""
    return {
        "claim_id": report.claim_id,
        "statement": report.statement,
        "inputs": _jsonable(report.inputs),
        "statistics": _jsonable(report.statistics),
        "oracle": _jsonable(report.oracle),
        "tolerance": _jsonable(report.tolerance),
        "passed": bool(report.passed),
        "seconds": None,
    }


def emit_report(reports: Sequence[VerificationReport], path) -> Path:
    """Write summary.json plus one CSV per claim; bit-stable per inputs."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    records = sorted((report_record(r) for r in reports), key=lambda r: r["claim_id"])
    summary = {
        "passed": all(r["passed"] for r in records),
        "reports": records,
    }
    jpath = out / "summary.json"
    jpath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for r in reports:
        if not r.rows:
            continue
        rows = [_jsonable(row) for row in r.rows]
        fieldnames = list(dict.fromkeys(k for row in rows for k in row))
        with open(out / f"{r.claim_id}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
            writer.writeheader()
            writer.writerows(rows)
    return jpath
