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
directory, along with a resolved-config copy for reproducibility, all
through verify's canonical writers, as is the table that `theory` prints.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from . import verify as verify_mod
from .coupling import study_plans
from .domains import Margin, Natural, Seed, check_value, domains
from .fields import FieldModel, iid_model, linear_ma_model, sample_block
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
_COUPLE_KEYS = set(domains(study_plans))


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _config_value(kind, value, name: str):
    """value as parsed by the domain that the Annotated type kind declares."""
    try:
        return check_value(kind, value, name)
    except ValueError as e:
        raise ConfigError(str(e))


def load_config(path: str, flags: dict) -> dict:
    """The config at path, checked once the flag values in `flags` replace its own."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    _check_keys(cfg, _TOP_KEYS, "config")
    cfg.update(flags)
    if "seed" not in cfg:
        raise ConfigError("config must set a seed")
    _config_value(Seed, cfg["seed"], "seed")
    if "workers" in cfg:
        _config_value(Natural, cfg["workers"], "workers")
    if "model" in cfg:
        _check_keys(cfg["model"], _MODEL_KEYS, "model")
    if "simulate" in cfg:
        _check_keys(cfg["simulate"], _SIM_KEYS, "simulate")
        _check_keys(cfg["simulate"].get("block", {}), _BLOCK_KEYS, "simulate.block")
    if "verify" in cfg:
        _check_keys(cfg["verify"], _VERIFY_KEYS, "verify")
        if "delta" in cfg["verify"]:
            _config_value(Margin, cfg["verify"]["delta"], "verify.delta")
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
    d = _config_value(Natural, section.get("d", 1), "model.d")
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
                if isinstance(a, bool) or not isinstance(a, (int, float)):
                    raise ConfigError(f"coeff '{key}' must be a number")
                coeffs[lag] = float(a)
            return linear_ma_model(d, coeffs, innovation)
    except ValueError as e:
        raise ConfigError(str(e))
    raise ConfigError(f"unknown model kind: {kind!r}")


def _resolve_outdir(args, cfg: dict) -> Path:
    """The output directory; the canonical writers create it with their first file."""
    return Path(args.output_dir or cfg.get("output_dir") or os.environ.get(OUTPUT_ENV) or ".")


def _workers(cfg: dict) -> int:
    """The thread count of the replicate loops: the config's, else one per core."""
    return cfg.get("workers") or os.cpu_count() or 1


def _write_resolved(cfg: dict, out: Path) -> None:
    """Write the resolved config next to the output file out, and log out."""
    verify_mod.write_json(out.parent / "resolved_config.json", cfg)
    _log(f"wrote {out}")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands


def _cmd_theory(args) -> int:
    try:
        params = MomentParams(d=args.d, p=args.p, lam=args.lam)
        delta = choose_delta(params)
        scheme = choose_scheme(args.d, args.tau, mu=args.mu, delta=delta,
                               gamma1=args.gamma1)
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
    except ValueError as e:
        raise ConfigError(str(e))
    except OverflowError:
        raise ConfigError(f"--p {args.p}, --d {args.d}, --lambda {args.lam}: a constant "
                          "of the table overflows a float")
    sys.stdout.write(verify_mod.canonical_json(doc))
    return 0


def _load(args, name: str) -> tuple[dict, dict]:
    """The config with the command-line flags applied, and its `name` section."""
    flags = {"seed": args.seed, "workers": getattr(args, "workers", None),
             "output_dir": args.output_dir or None}
    cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
    section = cfg.get(name)
    if section is None:
        raise ConfigError(f"config needs a {name} section")
    return cfg, section


def _cmd_simulate(args) -> int:
    cfg, section = _load(args, "simulate")
    block_cfg = section.get("block") or {}
    if not all(isinstance(block_cfg.get(c), list)
               and all(type(x) is int for x in block_cfg[c]) for c in "ab"):
        raise ConfigError("simulate.block needs integer lists a and b")
    model = build_model(cfg)
    try:
        block = Block(tuple(block_cfg["a"]), tuple(block_cfg["b"]))
    except (OverflowError, ValueError) as e:
        raise ConfigError(f"bad simulate.block: {e}")
    if block.d != model.d:
        raise ConfigError("simulate.block dimension differs from the model")
    replicates = _config_value(Natural, section.get("replicates", 1), "simulate.replicates")
    outdir = _resolve_outdir(args, cfg)
    rows = []
    for r in range(replicates):
        values = sample_block(model, block, cfg["seed"], replicate=r)
        grid = make_grid(block, values)
        rows.append({
            "replicate": r,
            "sum": partial_sum(grid, block),
            "max_sub_block": max_sub_block(grid),
            "anchored_abs_max": anchored_abs_max(grid),
            "mean": values.mean(),
            "var": values.var(ddof=1) if values.size > 1 else 0.0,
        })
    doc = {
        "model": verify_mod._model_inputs(model),
        "block": {"a": list(block.a), "b": list(block.b)},
        "card": cardinality(block),
        "seed": cfg["seed"],
        "replicates": rows,
    }
    _write_resolved(cfg, verify_mod.write_json(outdir / "simulate.json", doc))
    return 0


def _verifier_kwargs(claim: str, fn, cfg: dict, model_cache: dict, workers: int):
    settings = {"seed": cfg["seed"], "workers": workers,
                "delta": cfg.get("verify", {}).get("delta", 0.367)}
    kwargs = {k: v for k, v in settings.items() if k in fn.domains}
    if "model" in inspect.signature(fn).parameters:
        if "model" not in model_cache:
            model_cache["model"] = build_model(cfg)
        kwargs["model"] = model_cache["model"]
    overrides = cfg.get("verify", {}).get("overrides", {}) or {}
    extra = overrides.get(claim, {})
    _check_keys(extra, set(fn.domains), f"verify.overrides.{claim}")
    try:
        return verify_mod.require_inputs(fn, {**kwargs, **extra})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"verify.overrides.{claim}: {e}")


def _cmd_verify(args) -> int:
    cfg, section = _load(args, "verify")
    claims = section.get("claims")
    if args.claims:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        section["claims"] = claims
    if not claims or not isinstance(claims, list) or not all(type(c) is str for c in claims):
        raise ConfigError("verify.claims must be a nonempty list of claim ids")
    repeated = sorted({c for c in claims if claims.count(c) > 1})
    if repeated:
        raise ConfigError(f"verify.claims repeats claim id(s): {', '.join(repeated)}")
    unknown = sorted(set(claims) - set(VERIFIERS))
    if unknown:
        raise ConfigError(f"unknown claim id(s): {', '.join(unknown)}")
    workers = _workers(cfg)

    model_cache: dict = {}
    plans = [
        (claim, VERIFIERS[claim],
         _verifier_kwargs(claim, VERIFIERS[claim], cfg, model_cache, workers))
        for claim in claims
    ]
    outdir = _resolve_outdir(args, cfg)
    reports = []
    for claim, fn, kwargs in plans:
        report = fn(**kwargs)
        reports.append(report)
        verdict = "PASS" if report.passed else "FAIL"
        _log(f"{claim}: {verdict} ({report.seconds:.2f}s)")
    _write_resolved(cfg, verify_mod.emit_report(reports, outdir))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_couple(args) -> int:
    """The S - sigma W study on the couple section: load_config checks its keys,
    and coupling.study_plans alone declares their defaults and checks their
    values, before the output directory."""
    cfg, section = _load(args, "couple")
    model = build_model(cfg)
    try:
        study = study_plans(model, **section)
    except ValueError as e:
        raise ConfigError(f"couple: {e}")
    outdir = _resolve_outdir(args, cfg)
    studies = verify_mod.approximation_error_study(model, study, cfg["seed"], _workers(cfg))
    verify_mod.write_csv(outdir / "couple.csv", [
        {"depth": s["depth"], "card": card, "median_abs_err": med}
        for s in studies for card, med in zip(s["cards"], s["median_abs_err"])])
    doc = {"model": verify_mod._model_inputs(model), "seed": cfg["seed"], "studies": studies}
    _write_resolved(cfg, verify_mod.write_json(outdir / "couple.json", doc))
    return 0


def _cmd_report(args) -> int:
    records = []
    for folder in args.inputs:
        path = Path(folder) / "summary.json"
        try:
            data = json.loads(path.read_text())
        except OSError as e:
            raise ConfigError(f"cannot read {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}")
        reports = data.get("reports", []) if isinstance(data, dict) else None
        if not isinstance(reports, list) or not all(
                type(r) is dict and type(r.get("claim_id")) is str
                and type(r.get("passed")) is bool for r in reports):
            raise ConfigError(f"{path} is not a verify summary: reports with string "
                              "claim ids and boolean verdicts")
        records.extend(reports)
    try:
        out, summary = verify_mod.write_summary(records, _resolve_outdir(args, {}))
    except ValueError as e:
        raise ConfigError(f"report: {e}")
    for r in summary["reports"]:
        _log(f"{r['claim_id']}: {'PASS' if r['passed'] else 'FAIL'}")
    _log(f"wrote {out}")
    return 0 if summary["passed"] else 1


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
        p.add_argument("--output-dir", default=None, help="output directory")
        if name == "verify":
            p.add_argument("--workers", type=int, default=None,
                           help="parallel worker cap (results are worker-independent)")
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
