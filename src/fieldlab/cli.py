"""Configuration-driven command line front end.

Five subcommands: `theory` prints the constant table for given moment and
decay parameters, `simulate` summarizes sampled grids, `verify` runs a
selection of statistical checkers and emits their reports, `couple` runs
the partial-sum vs Wiener approximation study, and `report` merges earlier
verify outputs into one summary.

Exit codes: 0 success (all selected checks pass), 1 verifier failure,
2 configuration error (bad flags, unknown config keys, missing seed,
out-of-domain parameters), 3 runtime error.  Only `theory` writes to
stdout; everything else logs to stderr and writes files under the output
directory, along with a resolved-config copy for reproducibility.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .coupling import approximation_error_study
from .fields import FieldModel, iid_model, linear_ma_model
from .lattice import Block, cardinality
from .sums import anchored_abs_max, make_grid, max_sub_block, partial_sum
from .theory import (
    MomentParams,
    choose_delta,
    choose_scheme,
    lambda1,
    lambda2,
    moricz_a,
    psi,
    t0,
    tau0,
)

__all__ = ["main", "ConfigError"]

OUTPUT_ENV = "FIELDLAB_OUT"

# claim id -> checker: verify.CLAIMS itself, filled by each checker's @_claim
VERIFIERS = verify_mod.CLAIMS


class ConfigError(ValueError):
    """Any defect in flags or config that precedes actual computation."""


# --------------------------------------------------------------------------
# config parsing

_TOP_KEYS = {"seed", "output_dir", "workers", "model", "simulate", "verify", "couple"}
_MODEL_KEYS = {"kind", "d", "innovation", "coeffs"}
_SIM_KEYS = {"block", "replicates"}
_BLOCK_KEYS = {"a", "b"}
_VERIFY_KEYS = {"claims", "delta", "overrides"}
_COUPLE_KEYS = {
    "depths", "replicates", "exact_phi", "m_cdf", "bootstrap",
    "alpha", "beta", "tau",
}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _as_int(value, name: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "seed" not in cfg:
        raise ConfigError("config must set a seed")
    _as_int(cfg["seed"], "seed", 0)
    if "workers" in cfg:
        _as_int(cfg["workers"], "workers", 1)
    if "model" in cfg:
        _check_keys(cfg["model"], _MODEL_KEYS, "model")
    if "simulate" in cfg:
        _check_keys(cfg["simulate"], _SIM_KEYS, "simulate")
        _check_keys(cfg["simulate"].get("block", {}), _BLOCK_KEYS, "simulate.block")
    if "verify" in cfg:
        _check_keys(cfg["verify"], _VERIFY_KEYS, "verify")
        _check_keys(cfg["verify"].get("overrides") or {}, set(VERIFIERS),
                    "verify.overrides")
    if "couple" in cfg:
        _check_keys(cfg["couple"], _COUPLE_KEYS, "couple")
    return cfg


def build_model(cfg: dict) -> FieldModel:
    section = cfg.get("model")
    if section is None:
        raise ConfigError("this subcommand needs a model section")
    kind = section.get("kind")
    d = _as_int(section.get("d", 1), "model.d", 1)
    innovation = section.get("innovation", "normal")
    try:
        if kind == "iid":
            return iid_model(d, innovation)
        if kind == "linear_ma":
            raw = section.get("coeffs")
            if not isinstance(raw, dict) or not raw:
                raise ConfigError("linear_ma needs a nonempty coeffs map")
            coeffs = {}
            for key, a in raw.items():
                lag = tuple(int(t) for t in str(key).split(","))
                if len(lag) != d:
                    raise ConfigError(f"coeff lag '{key}' does not have {d} entries")
                coeffs[lag] = float(a)
            return linear_ma_model(d, coeffs, innovation)
    except ValueError as e:
        raise ConfigError(str(e))
    raise ConfigError(f"unknown model kind: {kind!r}")


def _resolve_outdir(args, cfg: dict) -> Path:
    out = args.output_dir or cfg.get("output_dir") or os.environ.get(OUTPUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(cfg: dict, outdir: Path) -> None:
    outdir.joinpath("resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n"
    )


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands


def _cmd_theory(args) -> int:
    try:
        params = MomentParams(d=args.d, p=args.p, lam=args.lam, c0=args.c0)
        delta = choose_delta(params)
        scheme = choose_scheme(args.d, args.tau, mu=args.mu, delta=delta,
                               gamma1=args.gamma1)
    except ValueError as e:
        raise ConfigError(str(e))
    doc = {
        "t0": t0(),
        "psi": psi(args.p),
        "delta": delta,
        "lambda1": lambda1(args.d, delta, args.p),
        "lambda2": lambda2(args.d, delta, args.p),
        "tau0": tau0(delta),
        "A": moricz_a(args.d, delta),
        "alpha": scheme.alpha,
        "beta": scheme.beta,
        "gamma0": scheme.gamma0,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _apply_common_flags(args, cfg)
    section = cfg.get("simulate")
    if section is None:
        raise ConfigError("config needs a simulate section")
    block_cfg = section.get("block")
    if block_cfg is None or "a" not in block_cfg or "b" not in block_cfg:
        raise ConfigError("simulate.block needs integer lists a and b")
    model = build_model(cfg)
    try:
        block = Block(tuple(block_cfg["a"]), tuple(block_cfg["b"]))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad simulate.block: {e}")
    if block.d != model.d:
        raise ConfigError("simulate.block dimension differs from the model")
    replicates = _as_int(section.get("replicates", 1), "simulate.replicates", 1)
    outdir = _resolve_outdir(args, cfg)

    from .fields import sample_block

    rows = []
    for r in range(replicates):
        values = sample_block(model, block, cfg["seed"], replicate=r)
        grid = make_grid(block, values)
        rows.append(
            {
                "replicate": r,
                "sum": float(partial_sum(grid, block)),
                "max_sub_block": float(max_sub_block(grid)),
                "anchored_abs_max": float(anchored_abs_max(grid)),
                "mean": float(values.mean()),
                "var": float(values.var(ddof=1)) if values.size > 1 else 0.0,
            }
        )
    doc = {
        "model": verify_mod._model_inputs(model),
        "block": {"a": list(block.a), "b": list(block.b)},
        "card": cardinality(block),
        "seed": cfg["seed"],
        "replicates": rows,
    }
    out = outdir / "simulate.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_resolved(cfg, outdir)
    _log(f"wrote {out}")
    return 0


def _verifier_kwargs(claim: str, fn, cfg: dict, model_cache: dict, workers: int):
    sig = inspect.signature(fn)
    kwargs = {}
    if "model" in sig.parameters:
        if "model" not in model_cache:
            model_cache["model"] = build_model(cfg)
        kwargs["model"] = model_cache["model"]
    if "seed" in sig.parameters:
        kwargs["seed"] = cfg["seed"]
    if "workers" in sig.parameters:
        kwargs["workers"] = workers
    if "delta" in sig.parameters and sig.parameters["delta"].default is inspect.Parameter.empty:
        kwargs["delta"] = cfg.get("verify", {}).get("delta", 0.367)
    overrides = cfg.get("verify", {}).get("overrides", {}) or {}
    extra = overrides.get(claim, {})
    _check_keys(extra, set(sig.parameters) - {"model"}, f"verify.overrides.{claim}")
    for key, value in extra.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return kwargs


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    _apply_common_flags(args, cfg)
    section = cfg.get("verify")
    if section is None:
        raise ConfigError("config needs a verify section")
    claims = section.get("claims")
    if args.claims:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        cfg.setdefault("verify", {})["claims"] = claims
    if not claims or not isinstance(claims, list):
        raise ConfigError("verify.claims must be a nonempty list")
    unknown = sorted(set(claims) - set(VERIFIERS))
    if unknown:
        raise ConfigError(f"unknown claim id(s): {', '.join(unknown)}")
    workers = cfg.get("workers") or os.cpu_count() or 1
    outdir = _resolve_outdir(args, cfg)

    model_cache: dict = {}
    plans = [
        (claim, VERIFIERS[claim],
         _verifier_kwargs(claim, VERIFIERS[claim], cfg, model_cache, workers))
        for claim in claims
    ]
    reports = []
    for claim, fn, kwargs in plans:
        report = fn(**kwargs)
        reports.append(report)
        verdict = "PASS" if report.passed else "FAIL"
        _log(f"{claim}: {verdict} ({report.seconds:.2f}s)")
    path = verify_mod.emit_report(reports, outdir)
    _write_resolved(cfg, outdir)
    _log(f"wrote {path}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_couple(args) -> int:
    cfg = load_config(args.config)
    _apply_common_flags(args, cfg)
    section = cfg.get("couple")
    if section is None:
        raise ConfigError("config needs a couple section")
    model = build_model(cfg)
    depths = section.get("depths", [8])
    if not isinstance(depths, list) or not depths:
        raise ConfigError("couple.depths must be a nonempty list")
    tau = section.get("tau", 1.0)
    if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not 0 < tau < math.inf:
        raise ConfigError("couple.tau must be a positive number")
    exact_phi = section.get("exact_phi", False)
    if not isinstance(exact_phi, bool):
        raise ConfigError("couple.exact_phi must be true or false")
    outdir = _resolve_outdir(args, cfg)
    studies = approximation_error_study(
        model,
        tuple(_as_int(k, "couple.depths[…]", 2) for k in depths),
        _as_int(section.get("replicates", 100), "couple.replicates", 2),
        cfg["seed"],
        alpha=_as_int(section.get("alpha", 3), "couple.alpha", 2),
        beta=_as_int(section.get("beta", 2), "couple.beta", 2),
        tau=float(tau),
        exact_phi=exact_phi,
        m_cdf=_as_int(section.get("m_cdf", 10_000), "couple.m_cdf", 100),
        bootstrap=_as_int(section.get("bootstrap", 1000), "couple.bootstrap", 10),
    )
    doc = {"model": verify_mod._model_inputs(model), "seed": cfg["seed"],
           "studies": verify_mod._jsonable(studies)}
    out = outdir / "couple.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    with open(outdir / "couple.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "card", "median_abs_err"])
        for study in studies:
            for card, med in zip(study["cards"], study["median_abs_err"]):
                writer.writerow([study["depth"], card, med])
    _write_resolved(cfg, outdir)
    _log(f"wrote {out}")
    return 0


def _cmd_report(args) -> int:
    records = []
    for folder in args.inputs:
        path = Path(folder) / "summary.json"
        if not path.exists():
            raise ConfigError(f"no summary.json under {folder}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}")
        records.extend(data.get("reports", []))
    records.sort(key=lambda r: r.get("claim_id", ""))
    passed = all(r.get("passed") for r in records)
    outdir = _resolve_outdir(args, {})
    out = outdir / "summary.json"
    out.write_text(
        json.dumps({"passed": passed, "reports": records}, indent=2, sort_keys=True)
        + "\n"
    )
    for r in records:
        _log(f"{r.get('claim_id')}: {'PASS' if r.get('passed') else 'FAIL'}")
    _log(f"wrote {out}")
    return 0 if passed else 1


def _apply_common_flags(args, cfg: dict) -> None:
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        cfg["workers"] = _as_int(args.workers, "workers", 1)
    if getattr(args, "output_dir", None):
        cfg["output_dir"] = args.output_dir


# --------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldlab",
        description="Simulation and verification lab for lattice random field partial sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="print the constant table as JSON")
    p_theory.add_argument("--p", type=float, required=True, help="moment order, p > 2")
    p_theory.add_argument("--lambda", dest="lam", type=float, default=2.0,
                          help="dependence decay exponent")
    p_theory.add_argument("--d", type=int, default=1, help="lattice dimension")
    p_theory.add_argument("--c0", type=float, default=1.5, help="decay constant")
    p_theory.add_argument("--tau", type=float, default=1.0, help="cone parameter")
    p_theory.add_argument("--mu", type=float, default=0.05, help="growth margin")
    p_theory.add_argument("--gamma1", type=float, default=0.05,
                          help="boundary exponent margin")
    p_theory.set_defaults(func=_cmd_theory)

    for name, func in (
        ("simulate", _cmd_simulate), ("verify", _cmd_verify), ("couple", _cmd_couple),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel worker cap (results are worker-independent)")
        p.add_argument("--output-dir", default=None, help="output directory")
        if name == "verify":
            p.add_argument("--claims", default=None,
                           help="comma-separated claim ids overriding the config list")
        p.set_defaults(func=func)

    p_report = sub.add_parser("report", help="merge verify outputs")
    p_report.add_argument("--inputs", nargs="+", required=True,
                          help="directories holding summary.json files")
    p_report.add_argument("--output-dir", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as e:
        _log(f"config error: {e}")
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        _log(f"runtime error: {type(e).__name__}: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
