"""Statistical verification suite: finite-sample checks with explicit oracles.

Every checker runs one experiment and returns a VerificationReport holding
the inputs, the measured statistics, the oracle values, the tolerances, and
a pass flag that is a pure function of the stored numbers.  Asymptotic
claims are recast as slope or band tests with Monte Carlo error accounted
for explicitly; nothing is asserted beyond what the stored numbers show.

Every file the lab writes goes through write_json or write_csv, and
summary.json through write_summary: canonical JSON (sorted keys, repr
floats) with the wall-clock field set to null, so a re-run with the same
config and seed is byte-identical regardless of worker count.  Real timings
live on the in-memory dataclass and in console logs only.

The dependence claims check the covariance inequality

    |cov(f(X_I), g(X_J))| <= Lip(f) Lip(g) min(|I|, |J|) theta_r,

r = dist(I, J), for random clamped-linear Lipschitz pairs against Monte
Carlo error; the noise claim repeats it for X + Y with Y an independent iid
field, reusing the theta of X alone.

coupling builds the coupled samples; the statistics of its studies, the
top-block error rows of coupling_error_decay and the bootstrapped S - sigma W
slope of approximation_error_study, are computed here.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import inspect
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import coupling as cpl
from . import domains as dom
from .fields import (
    _BATCH_CELLS,
    FieldModel,
    covariance,
    cox_grimmett,
    iid_model,
    line_segments,
    sample_block_batch,
    sigma2,
    support_radius,
)
from .lattice import Block, cardinality, dist, inv_norm_sum, inv_norm_sum_bound
from .normal import ndtr
from .rng import stream
from .sums import block_var, prefix_at, sum_and_max, variance_defect
from .theory import moricz_a

__all__ = [
    "VerificationReport",
    "CLAIMS",
    "kolmogorov_distance",
    "dkw_bound",
    "map_replicate_chunks",
    "Plan",
    "plan",
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
    "approximation_error_study",
    "check_approximation_error",
    "check_lil",
    "canonical_json",
    "write_json",
    "write_csv",
    "report_record",
    "write_summary",
    "emit_report",
]

# the most replicates in one task of map_replicate_chunks: tasks of small
# blocks stay short enough to spread over the workers
CHUNK = 256

# cells per segment of a check_lil line: one fields batch, bound here once so
# that the segments stay that long whatever the task size
_LINE_CELLS = _BATCH_CELLS


@dataclass(frozen=True)
class VerificationReport:
    """One claim's verdict with everything needed to re-derive it.

    A checker fills in the evidence, and in `inputs` only what no argument
    says; its @_claim registration adds the parsed arguments to the inputs
    and fills in claim_id, statement and seconds.
    """

    statistics: dict
    oracle: dict
    tolerance: dict
    passed: bool
    rows: tuple = ()
    inputs: dict = dataclasses.field(default_factory=dict)
    claim_id: str = ""
    statement: str = ""
    seconds: float | None = None


# claim id -> checker: the one registry of verifiable claims
CLAIMS: dict[str, Callable[..., VerificationReport]] = {}

# the parameters that a report records under another key
_REPORT_KEYS = {"lam": "lambda", "V": "card"}


class Plan(NamedTuple):
    """What one claim call runs on: its arguments parsed by their domains, and
    what its input rule built from them (None for a rule that only checks)."""

    arguments: dict
    built: object


def _claim(claim_id: str, statement: str, inputs: Callable | None = None):
    """Register a checker in CLAIMS and stamp its reports with the claim.

    Every parameter but the model declares its domain (see domains),
    resolved here once.  `inputs` raises on the claim's own rules that no
    domain states; it takes the arguments that its parameters name, resolved
    here once (a parameter that the checker lacks keeps its default), and
    what it returns reaches the body's one keyword-only parameter, which the
    registered signature leaves out.  The entry takes the checker's
    arguments, which it plans (see plan) before any work, or a Plan, which
    it runs unchecked.  The body receives the parsed values: a size as its
    Block, a list as a tuple, index sets as point arrays.  The report
    records them as their domains do, the model as _model_inputs and no
    worker count, on which no report depends; the body's own inputs add
    what no argument says.
    """

    def register(check):
        sig = inspect.signature(check)
        kwonly = [p.name for p in sig.parameters.values() if p.kind is p.KEYWORD_ONLY]
        sig = sig.replace(parameters=[p for p in sig.parameters.values() if p.name not in kwonly])
        rule = inspect.signature(inputs).parameters if inputs else {}
        lacking = [n for n, p in rule.items() if n not in sig.parameters and p.default is p.empty]
        if lacking:
            raise TypeError(f"{claim_id}: its input rule needs {', '.join(lacking)}")

        @functools.wraps(check)
        def run(*args, **kwargs) -> VerificationReport:
            if not (len(args) == 1 and not kwargs and isinstance(args[0], Plan)):
                args = (plan(run, sig.bind(*args, **kwargs).arguments),)
            arguments, built = args[0]
            recorded = {_REPORT_KEYS.get(k, k): run.domains[k].record(v)
                        for k, v in arguments.items() if k in run.domains and k != "workers"}
            if "model" in arguments:
                recorded["model"] = _model_inputs(arguments["model"])
            t0 = time.perf_counter()
            report = check(**arguments, **dict(zip(kwonly, [built])))
            return dataclasses.replace(
                report, inputs={**recorded, **report.inputs}, passed=bool(report.passed),
                rows=tuple(report.rows), claim_id=claim_id, statement=statement,
                seconds=time.perf_counter() - t0,
            )

        run.__signature__ = sig
        run.domains = dom.domains(check)
        run.inputs = inputs
        run.input_names = [n for n in rule if n in sig.parameters]
        CLAIMS[claim_id] = run
        return run

    return register


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def plan(check: Callable, arguments: Mapping) -> Plan:
    """The checker's arguments and defaults parsed by their domains, and what
    its input rule returns on the parsed arguments it names, called once."""
    bound = inspect.signature(check).bind_partial(**arguments)
    bound.apply_defaults()
    parsed = dom.check_arguments(check.domains, bound.arguments)
    built = check.inputs(**{n: parsed[n] for n in check.input_names}) if check.inputs else None
    return Plan(parsed, built)


def kolmogorov_distance(sample: np.ndarray) -> float:
    """sup |EDF - Phi| with the exact one-sided empirical envelopes; Phi is
    normal.ndtr, the Cephes normal distribution function."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    m = x.size
    F = ndtr(x)
    i = np.arange(1, m + 1)
    return float(max((F - (i - 1) / m).max(), (i / m - F).max()))


def dkw_bound(m: int) -> float:
    """Empirical-CDF sup-error bound of m draws holding with probability 0.99."""
    return math.sqrt(math.log(2.0 / 0.01) / (2.0 * m))


def map_replicate_chunks(
    kernel: Callable[[int, int], np.ndarray],
    replicates: int,
    cells: int,
    workers: int = 1,
) -> np.ndarray:
    """Evaluate kernel(start, stop) over tasks of consecutive replicates.

    A task holds at most fields._BATCH_CELLS cells of `cells` per replicate
    and at most CHUNK replicates, and never less than one replicate, so each
    thread's stacked buffers stay that small whatever the block.  Those
    buffers are the thread's workspace (fields._workspace): the innovation
    grid, the moving-average temporary and the longdouble prefix chunks
    are allocated by a thread's first task and reused by the rest, and only
    the drawn stack and the task's result are new arrays.  The task length
    is a function of `cells` alone, never of the worker count, and kernels draw
    from per-replicate streams and reduce each replicate on its own; results
    are concatenated in replicate order, so the output is bitwise identical
    for any number of workers.  At most min(workers, os.cpu_count(), tasks)
    threads start.
    """
    chunk = min(CHUNK, max(1, _BATCH_CELLS // cells))
    spans = [(s, min(s + chunk, replicates)) for s in range(0, replicates, chunk)]
    if workers <= 1:
        parts = [kernel(s, e) for s, e in spans]
    else:
        threads = min(workers, os.cpu_count() or 1, len(spans))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda span: kernel(*span), spans))
    return np.concatenate(parts, axis=0)


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
        if not want_max:
            return vals.reshape(e - s, -1).sum(axis=1)[:, None]
        return np.stack(sum_and_max(vals), axis=1)

    out = map_replicate_chunks(kernel, replicates, cardinality(V), workers)
    return out[:, 0], (out[:, 1] if want_max else None)


def _jackknife_var_se(x: np.ndarray) -> float:
    """Jackknife standard error of the unbiased sample variance of x (m >= 3)."""
    m = x.size
    s1 = x.sum()
    s2 = (x * x).sum()
    mean_i = (s1 - x) / (m - 1)
    var_i = (s2 - x * x - (m - 1) * mean_i * mean_i) / (m - 2)
    vbar = var_i.mean()
    return float(math.sqrt((m - 1) / m * np.sum((var_i - vbar) ** 2)))


def _slope_fit(x: np.ndarray) -> Callable[[np.ndarray], float]:
    """y -> np.polyfit(x, y, 1)[0], bit for bit: polyfit's column-scaled
    Vandermonde matrix and rcond are built once, for many fits on one x."""
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(x) * np.finfo(x.dtype).eps
    return lambda y: np.linalg.lstsq(lhs, y, rcond)[0][0] / scale[0]


def _loglog_slope(sizes: np.ndarray, values: np.ndarray) -> float:
    return float(_slope_fit(np.log(sizes))(np.log(values)))


def _model_inputs(model: FieldModel) -> dict:
    return {
        "kind": model.kind,
        "d": model.d,
        "innovation": model.innovation,
        "coeffs": None
        if model.coeffs is None
        else {",".join(str(x) for x in u): a for u, a in model.coeffs},
    }


def _envelope_inputs(model: FieldModel, c0: float, lam: float) -> None:
    """Exact check theta_r <= c0 r^-lam for all r >= 1 (finite support)."""
    for r in range(1, support_radius(model) + 2):
        _require(cox_grimmett(model, r) <= c0 * r ** (-lam) + 1e-12,
                 f"dependence coefficients violate the decay envelope at r={r}")


# --------------------------------------------------------------------------
# dependence


def _draw_coefficients(gen: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """Uniform coefficients normalized to unit l1 mass; exact Lip = max |c_i|."""
    c = gen.uniform(-1.0, 1.0, n)
    s = np.abs(c).sum()
    if s == 0.0:
        c[0] = 1.0
        s = 1.0
    c = c / s
    return c, float(np.abs(c).max())


def _dependence_report(
    model: FieldModel,
    geometries,
    pairs: int,
    replicates: int,
    seed: int,
    noise: str | None,
) -> VerificationReport:
    """One row per geometry g = (I, J) of point arrays, drawn from seed + g.

    Draws `pairs` random clamped-linear (f, g) couples and estimates
    cov(f(X_I), g(X_J)) over `replicates` draws of X, plus the noise field
    when given.  A pair passes when |cov| is at most its bound plus 3
    standard errors, and its ratio |cov| / bound counts when the bound is
    positive.
    """
    rows = []
    for g, (pts_i, pts_j) in enumerate(geometries):
        r = dist(pts_i, pts_j)
        theta_r = cox_grimmett(model, r)
        both = np.concatenate([pts_i, pts_j], axis=0)
        low = both.min(axis=0)
        box = Block(tuple(low - 1), tuple(both.max(axis=0)))
        vals = sample_block_batch(model, box, seed + g, range(replicates), tag="dep-field")
        if noise is not None:
            vals = vals + sample_block_batch(
                iid_model(model.d, innovation=noise), box, seed + g, range(replicates),
                tag="dep-noise",
            )
        vals = vals[(slice(None),) + tuple(both.T - low[:, None])]
        xi, xj = vals[:, : len(pts_i)], vals[:, len(pts_i) :]
        scale = float(min(len(pts_i), len(pts_j))) * theta_r
        ratios = []
        passed = True
        for t in range(pairs):
            cf, lip_f = _draw_coefficients(stream(seed + g, "dep-lip", 2 * t), len(pts_i))
            cg, lip_g = _draw_coefficients(stream(seed + g, "dep-lip", 2 * t + 1), len(pts_j))
            f = np.clip(xi @ cf, -1.0, 1.0)
            h = np.clip(xj @ cg, -1.0, 1.0)
            prod = (f - f.mean()) * (h - h.mean())
            est = abs(float(prod.sum() / (replicates - 1)))
            se = float(prod.std(ddof=1) / math.sqrt(replicates))
            bound = lip_f * lip_g * scale
            passed &= est <= bound + 3 * se
            if bound > 0:
                ratios.append(est / bound)
        rows.append({"geometry": g, "r": r, "theta_r": theta_r, "scale": scale,
                     "max_ratio": max(ratios, default=""), "passed": passed})
    tops = [row["max_ratio"] for row in rows if row["max_ratio"] != ""]
    all_pass = all(row["passed"] for row in rows)
    return VerificationReport(
        statistics={"max_ratio": max(tops, default=None), "all_geometries_pass": all_pass},
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
    geometries: dom.IndexPairs = None,
    pairs: dom.Pairs = 50,
    replicates: dom.Replicates2 = 100_000,
    seed: dom.Seed = 0,
) -> VerificationReport:
    """Covariance bound for clamped-linear pairs across block geometries."""
    report = _dependence_report(model, geometries, pairs, replicates, seed, noise=None)
    return dataclasses.replace(report, inputs={"noise": None})


@_claim(
    "noise_stability",
    "Adding an independent iid field leaves the covariance bound with "
    "the original field's theta coefficients intact.",
)
def check_noise_stability(
    model: FieldModel,
    geometries: dom.IndexPairs = None,
    pairs: dom.Pairs = 50,
    replicates: dom.Replicates2 = 100_000,
    seed: dom.Seed = 0,
    noise: dom.Innovation = "normal",
) -> VerificationReport:
    """Same bound for the field plus an independent iid noise field."""
    return _dependence_report(model, geometries, pairs, replicates, seed, noise=noise)


# --------------------------------------------------------------------------
# moment growth


_DEFAULT_LADDER = tuple(16 * 2**j for j in range(11))


def _growth_report(model, delta, ladder, replicates, seed, workers,
                   want_max) -> VerificationReport:
    """Volume-growth cap on E|S|^q (q = 2 + delta), or with want_max on E M^q
    together with the maximal-constant ratio and pathwise M >= |S| checks."""
    q = 2.0 + delta
    rows = []
    dominated = True
    for V in ladder:
        card = cardinality(V)
        sums, maxima = _sum_max_samples(
            model, V, replicates, seed, f"moment:{card}", workers, want_max
        )
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
    cards = np.array([r["card"] for r in rows], dtype=np.float64)
    means = np.array([r["mean_max_pow" if want_max else "mean_abs_s_pow"] for r in rows])
    slope = _loglog_slope(cards, means)
    ratios = means / cards ** (1.0 + delta / 2.0)
    growth = float((ratios / ratios[0]).max())
    cap = 1.0 + delta / 2.0 + 0.1
    statistics = {"slope": slope, "ratio_growth": growth}
    oracle = {"slope_limit": 1.0 + delta / 2.0}
    passed = slope <= cap and growth <= 10.0
    if want_max:
        a_const = moricz_a(model.d, delta)
        worst_ratio = max(r["max_to_s_ratio"] for r in rows)
        statistics["worst_max_to_s_ratio"] = worst_ratio
        statistics["pathwise_dominated"] = dominated
        oracle["maximal_constant"] = a_const
        passed = passed and worst_ratio <= a_const and dominated
    else:
        for r, ratio in zip(rows, ratios):
            r["ratio_to_volume_power"] = float(ratio)
    return VerificationReport(
        statistics=statistics, oracle=oracle,
        tolerance={"slope_cap": cap, "ratio_growth_cap": 10.0},
        passed=passed, rows=rows,
    )


@_claim(
    "moment_growth",
    "E|S(U)|^(2+delta) grows no faster than |U|^(1+delta/2) along a "
    "geometric ladder of blocks.",
    inputs=_envelope_inputs,
)
def check_moment_inequality(
    model: FieldModel,
    delta: dom.Margin,
    ladder: dom.Ladder = _DEFAULT_LADDER,
    replicates: dom.Replicates2 = 2000,
    seed: dom.Seed = 0,
    c0: dom.PositiveReal = 1.5,
    lam: dom.PositiveReal = 2.0,
    workers: dom.Natural = 1,
) -> VerificationReport:
    """Volume-growth cap on E|S(U)|^(2+delta) along a geometric ladder."""
    return _growth_report(model, delta, ladder, replicates, seed, workers, want_max=False)


@_claim(
    "maximal_growth",
    "E M(U)^(2+delta) obeys the same volume growth with the sub-block "
    "maximal constant A(d, delta), and M >= |S| pathwise.",
    inputs=_envelope_inputs,
)
def check_maximal_inequality(
    model: FieldModel,
    delta: dom.Margin,
    ladder: dom.Ladder = _DEFAULT_LADDER,
    replicates: dom.Replicates2 = 2000,
    seed: dom.Seed = 0,
    c0: dom.PositiveReal = 1.5,
    lam: dom.PositiveReal = 2.0,
    workers: dom.Natural = 1,
) -> VerificationReport:
    """Same growth cap for M(U), plus the maximal-constant ratio check."""
    return _growth_report(model, delta, ladder, replicates, seed, workers, want_max=True)


# --------------------------------------------------------------------------
# variance


@_claim(
    "variance_ratio",
    "var(S_N)/[N] approaches sigma^2 = sum of covariances, and the "
    "Monte Carlo estimate matches the exact ratio.",
)
def check_variance_ratio(
    model: FieldModel,
    N: dom.BlockSize = 200,
    N_small: dom.BlockSize = 50,
    replicates: dom.Replicates3 = 2000,
    seed: dom.Seed = 0,
) -> VerificationReport:
    """Monte Carlo var(S_N)/[N] against the exact ratio and its limit."""
    sums, _ = _sum_max_samples(model, N, replicates, seed, "var-ratio", 1, False)
    card, card_small = cardinality(N), cardinality(N_small)
    est = float(np.var(sums, ddof=1) / card)
    se = _jackknife_var_se(sums) / card
    exact_big = block_var(model, N) / card
    exact_small = block_var(model, N_small) / card_small
    s2 = sigma2(model)
    agree = abs(est - exact_big) <= 3.0 * se
    approach = abs(exact_big - s2) <= abs(exact_small - s2) + 1e-12
    return VerificationReport(
        statistics={"mc_ratio": est, "se": se},
        oracle={
            "exact_ratio": exact_big, "exact_ratio_small": exact_small,
            "sigma2": s2,
        },
        tolerance={"agreement": "3 SE", "approach": "monotone toward sigma^2"},
        passed=agree and approach,
        rows=[
            {"N": card_small, "exact_ratio": exact_small},
            {"N": card, "exact_ratio": exact_big, "mc_ratio": est, "se": se},
        ],
    )


@_claim(
    "second_moment_bound",
    "E S(U)^2 <= (c(0) + c0)|U| whenever the dependence coefficients "
    "satisfy theta_r <= c0 r^-lambda.",
    inputs=_envelope_inputs,
)
def check_second_moment(
    model: FieldModel,
    c0: dom.PositiveReal = 1.5,
    lam: dom.PositiveReal = 2.0,
    sizes: dom.Sizes = (10, 100, 1000, 10000),
) -> VerificationReport:
    """Exact E S(U)^2 <= (c(0) + c0)|U| under the decay envelope."""
    d2 = covariance(model, (0,) * model.d)
    rows = []
    ok = True
    for V in sizes:
        var = block_var(model, V)
        bound = (d2 + c0) * cardinality(V)
        ok &= var <= bound + 1e-9
        rows.append({"card": cardinality(V), "var": var, "bound": bound})
    return VerificationReport(
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
    edges: dom.Edges = (10, 40, 160, 640),
) -> VerificationReport:
    """Exact per-cell variance defect shrinking with the minimal edge."""
    rows = []
    scaled = []
    for V in edges:
        (l,) = V.lengths
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
    dims: dom.Dimensions = (1, 2, 3),
    seed: dom.Seed = 0,
    fit_blocks: dom.Natural = 24,
    validate_blocks: dom.Natural = 12,
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
        statistics={"worst_transfer": max(r["transfer_ratio"] for r in rows)},
        oracle={"bound": "card^(1-nu/d), log-corrected at integer nu <= d"},
        tolerance={"headroom": 1.25},
        passed=ok, rows=rows,
    )


# --------------------------------------------------------------------------
# distributional limits


def _clt_inputs(model: FieldModel) -> None:
    """sigma^2 != 0 to standardize by."""
    _require(sigma2(model) != 0, "CLT distance needs sigma^2 != 0")


@_claim(
    "clt_distance",
    "The Kolmogorov distance from standardized S_N to the standard "
    "normal shrinks along the ladder and is small at the top.",
    inputs=_clt_inputs,
)
def check_clt_distance(
    model: FieldModel,
    ladder: dom.Ladder = (100, 1000, 10000),
    replicates: dom.Natural = 10_000,
    seed: dom.Seed = 0,
    workers: dom.Natural = 1,
) -> VerificationReport:
    """Kolmogorov distance of standardized S_N to the normal on a ladder."""
    rows = []
    for V in ladder:
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
        statistics={"distances": dists, "fitted_decay_exponent": mu_hat},
        oracle={"noise_floor": floor},
        tolerance={"top_distance": 0.05, "decrease_allowance": 2.0 * floor},
        passed=decreasing and top_ok, rows=rows,
    )


@_claim(
    "coupling_error_decay",
    "The per-cell mean squared coupling error of the top scheme block "
    "falls as the scheme deepens.",
    inputs=cpl.top_blocks,
)
def check_coupling_error_decay(
    model: FieldModel,
    depths: dom.FittedDepths = (3, 5, 8),
    m_cdf: dom.CdfDraws = 10_000,
    m_eval: dom.Replicates2 = 10_000,
    seed: dom.Seed = 0,
    alpha: dom.Exponent = 3,
    beta: dom.Exponent = 2,
    tau: dom.PositiveReal = 1.0,
    *,
    blocks: list,
) -> VerificationReport:
    """Per-cell E e^2 of the top scheme block falls as the scheme deepens.

    One row per depth: the top block's coupling errors on m_eval fresh draws
    against a CDF of m_cdf draws, E e^2 normalized by the block volume.
    """
    rows = []
    for K, head, block in blocks:
        sample = cpl.block_coupling_samples(model, head, block, m_cdf, m_eval, seed)
        e2 = sample.e**2
        mean_e2 = float(e2.mean())
        rows.append({
            "depth": K, "card": sample.card, "sigma2": sample.sigma2, "tau2": sample.tau2,
            "mean_e2": mean_e2, "se_e2": float(e2.std(ddof=1) / math.sqrt(m_eval)),
            "mean_e2_per_cell": mean_e2 / sample.card,
        })
    vals = [r["mean_e2_per_cell"] for r in rows]
    decreasing = all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    fitted = -_loglog_slope(
        np.array([r["card"] for r in rows], dtype=np.float64), np.array(vals)
    )
    return VerificationReport(
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
    delta: dom.Margin,
    V: dom.BlockSize = 1024,
    xs: dom.PositiveReals = (1.0, 2.0, 4.0, 8.0),
    replicates: dom.Natural = 10_000,
    seed: dom.Seed = 0,
    workers: dom.Natural = 1,
) -> VerificationReport:
    """Empirical tail of M(V)/sqrt|V| against the power-law envelope."""
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
        inputs={"xs": [float(x) for x in xs]},
        statistics={"tail_probabilities": probs.tolist(),
                    "fitted_exponent": exponent, "monotone_in_x": monotone},
        oracle={"exponent_cap": cap},
        tolerance={"pass_rule": "zero tail at top x, or exponent <= cap"},
        passed=passed and monotone, rows=rows,
    )


# coverage of the bootstrap confidence interval of each fitted slope
_CI_LEVEL = 0.90


def approximation_error_study(
    model: FieldModel, study: cpl.Study, seed: int, workers: int
) -> list[dict]:
    """Log-log decay rate of the partial-sum vs Wiener discrepancy.

    For each depth of the checked study (coupling.study_plans), couples
    study.replicates independent runs, measures err = S(0, N] - sigma W(0, N]
    at every good in-cone corner N, and regresses log median|err| on log
    volume.  The slope's bootstrap confidence interval (over replicates) is
    attached per depth.

    Replicates are coupled one per task on `workers` threads through
    coupling.corner_errors, so each thread holds one axis-0 slab of one
    coupled replicate at a time.  The result does not depend on the worker
    count.
    """
    replicates, bootstrap = study.replicates, study.bootstrap
    out = []
    for K, scheme, variances, corners in study.plans:
        cdfs = cpl.cdf_table(model, scheme, variances, study.m_cdf, seed, study.exact_phi)
        cards = np.array([math.prod(scheme.corner(k)) for k in corners], dtype=np.float64)

        # a coupled replicate runs on its own, so a task of several would
        # stack nothing and only idle the other threads: each one claims a
        # whole task's cells, which makes it one task at every depth
        errs = np.abs(map_replicate_chunks(
            lambda s, e: np.array([
                cpl.corner_errors(model, scheme, seed, rep, variances, cdfs, corners)
                for rep in range(s, e)
            ]),
            replicates, _BATCH_CELLS, workers,
        ))

        fit = _slope_fit(np.log(cards))
        med = np.median(errs, axis=0)
        slope = float(fit(np.log(med)))

        gen = stream(seed, "bootstrap", 0)
        draws = gen.integers(0, replicates, size=(bootstrap, replicates))
        slopes = np.empty(bootstrap)
        # medians of 100 draws at a time, bitwise those of one draw at a time,
        # gathered into one buffer and partitioned in place; the fits stay one
        # lstsq per draw, as a stacked fit rounds differently
        picked = np.empty((min(100, bootstrap),) + errs.shape)
        for b0 in range(0, bootstrap, 100):
            idx = draws[b0 : b0 + 100]
            rows = np.take(errs, idx, axis=0, out=picked[: len(idx)], mode="clip")
            meds = np.median(rows, axis=1, overwrite_input=True)
            for b, m_b in enumerate(meds, b0):
                slopes[b] = fit(np.log(m_b))
        lo, hi = np.quantile(slopes, [(1 - _CI_LEVEL) / 2, (1 + _CI_LEVEL) / 2])
        out.append(
            {
                "depth": K,
                "corners": [scheme.corner(k) for k in corners],
                "cards": cards.tolist(),
                "median_abs_err": med.tolist(),
                "slope": slope,
                "ci_low": float(lo),
                "ci_high": float(hi),
                "level": _CI_LEVEL,
                "replicates": replicates,
            }
        )
    return out


@_claim(
    "approximation_error",
    "log median|S_N - sigma W_N| grows with log[N] at slope below 1/2.",
    inputs=cpl.study_plans,
)
def check_approximation_error(
    model: FieldModel,
    depths: dom.Naturals = (24,),
    replicates: dom.Replicates2 = 200,
    seed: dom.Seed = 0,
    exact_phi: dom.Flag = False,
    m_cdf: dom.Natural = 10_000,
    bootstrap: dom.Resamples = 1000,
    workers: dom.Natural = 1,
    *,
    study: cpl.Study,
) -> VerificationReport:
    """Bootstrap CI of the S - sigma W decay slope stays below 1/2."""
    studies = approximation_error_study(model, study, seed, workers)
    rows = [
        {"depth": s["depth"], "top_volume": s["cards"][-1], "slope": s["slope"],
         "ci_low": s["ci_low"], "ci_high": s["ci_high"]}
        for s in studies
    ]
    passed = all(r["ci_high"] < 0.5 for r in rows)
    return VerificationReport(
        statistics={"slopes": [r["slope"] for r in rows],
                    "ci_highs": [r["ci_high"] for r in rows]},
        oracle={"slope_limit": 0.5},
        tolerance={"ci_level": _CI_LEVEL},
        passed=passed, rows=rows,
    )


def _loglog_scale(n: float) -> float:
    inner = max(math.log(max(n, math.e)), math.e)
    return math.log(inner)


def _lil_inputs(model: FieldModel) -> None:
    """A d = 1 model with sigma^2 != 0 to normalize by."""
    _require(model.d == 1, "the dyadic net is implemented for d = 1")
    _require(sigma2(model) != 0, "the LIL normalization needs sigma^2 != 0")


@_claim(
    "iterated_logarithm",
    "Normalized partial sums R_N stay within the iterated-logarithm "
    "bands along a dyadic net.",
    inputs=_lil_inputs,
)
def check_lil(
    model: FieldModel,
    depth: dom.Natural = 20,
    replicates: dom.Natural = 100,
    seed: dom.Seed = 0,
    workers: dom.Natural = 1,
) -> VerificationReport:
    """Iterated-logarithm bands for R_N along a dyadic net (d = 1)."""
    s2 = sigma2(model)
    ns = 2 ** np.arange(1, depth + 1)
    denom = np.sqrt(2.0 * s2 * ns * np.array([_loglog_scale(n) for n in ns]))
    top = int(ns[-1])
    cuts, line = [*range(0, top, _LINE_CELLS), top], Block((0,), (top,))

    def kernel(s: int, e: int) -> np.ndarray:
        # each line is drawn and summed segment by segment; only the prefix
        # entries at the net are kept
        return np.array([
            prefix_at(line_segments(model, line, seed, rep, cuts, tag="lil"), cuts, ns)
            for rep in range(s, e)
        ]) / denom

    R = map_replicate_chunks(kernel, replicates, top, workers)
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


def canonical_json(doc) -> str:
    """doc as canonical JSON: sorted keys, two-space indent, final newline."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def write_json(path: Path, doc) -> Path:
    """Write doc to path as canonical JSON, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(doc))
    return path


def write_csv(path, rows: Sequence[Mapping]) -> None:
    """Write rows to path (creating its directory) as CSV, one column per key in
    the order of first appearance; a row that lacks a key leaves its cell empty."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    rows = _jsonable(rows)
    fieldnames = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)


def report_record(report: VerificationReport) -> dict:
    """Canonical JSON record; wall clock is nulled to keep re-runs stable."""
    return _jsonable({
        "claim_id": report.claim_id,
        "statement": report.statement,
        "inputs": report.inputs,
        "statistics": report.statistics,
        "oracle": report.oracle,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "seconds": None,
    })


def write_summary(records: Sequence[Mapping], path) -> tuple[Path, dict]:
    """Write summary.json under path, of verify's reports or report's merge, and
    return its path and document: the records by claim id, passed if all pass.
    With no record, or a claim id held twice, it raises ValueError and writes nothing."""
    records = sorted(records, key=lambda r: r["claim_id"])
    ids = [r["claim_id"] for r in records]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated or not ids:
        raise ValueError(f"the summary repeats claim id(s): {', '.join(repeated)}"
                         if repeated else "the summary holds no claim records")
    summary = {"passed": all(r["passed"] for r in records), "reports": records}
    return write_json(Path(path) / "summary.json", summary), summary


def emit_report(reports: Sequence[VerificationReport], path) -> Path:
    """Write summary.json plus one CSV per claim; bit-stable per inputs."""
    out = write_summary([report_record(r) for r in reports], path)[0]
    for r in reports:
        if r.rows:
            write_csv(out.parent / f"{r.claim_id}.csv", r.rows)
    return out
