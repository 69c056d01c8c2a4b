"""Command-line interface.

Subcommands: validate, estimate, simulate, truth. Options resolve as
defaults < config file (--config, JSON) < explicit flags, and every run
writes a run_manifest.json with the fully resolved configuration; that
manifest is itself a valid --config, so a run can be reproduced
bit-identically from its own output directory.

Exit codes: 0 success, otherwise the exit_code of the EstimationError
class raised (errors.py: 2 configuration, 3 data, 4 solver); a raw
numpy LinAlgError is a solver failure too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import METHODS, run_method
from .data_model import read_csv, validate
from .errors import ConfigError, EstimationError
from .gamma_solver import GammaOptions
from .simulation import DgpConfig, McSettings, run_monte_carlo, true_effects

EXIT_OK = 0
EXIT_SOLVER = 4

_DEFAULTS = {
    "data": None,
    "descriptor": None,
    "method": "sri",
    "methods": None,  # simulate only; falls back to [method]
    "estimands": None,
    "profile_a": None,
    "profile_b": None,
    "level": 0.95,
    "degree": 3,
    "include_interactions": True,
    "mu_degree": 2,
    "mu_interactions": False,
    "seed": 0,
    "reps": 1000,
    "n": 1000,
    "threads": 1,
    "mi_m": 20,
    "big_n": 1000000,
    "alpha": 0.6,
    "out": None,
    "gamma_max_iter": 500,
    "gamma_grad_tol": 1e-6,
    "gamma_linear_cap": 10.0,
    "gamma_restarts": 0,
    "gamma_penalty": 1.0,
}


def _load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "config" in doc and "command" in doc:
        doc = doc["config"]  # a manifest is a valid config source
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if args.no_interactions:
        cfg["include_interactions"] = False
    if args.mu_interactions_flag:
        cfg["mu_interactions"] = True
    if isinstance(cfg["estimands"], str):
        cfg["estimands"] = [s for s in cfg["estimands"].split(",") if s]
    if isinstance(cfg["methods"], str):
        cfg["methods"] = [s for s in cfg["methods"].split(",") if s]
    return cfg


def _parse_profile(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    s = str(text).replace(",", "").strip()
    if not s or any(ch not in "01" for ch in s):
        raise ConfigError(f"profile must be a 0/1 string like 101, got {text!r}")
    return tuple(int(ch) for ch in s)


def _gamma_options(cfg: dict) -> GammaOptions:
    return GammaOptions(
        max_iter=int(cfg["gamma_max_iter"]),
        grad_tol=float(cfg["gamma_grad_tol"]),
        linear_cap=float(cfg["gamma_linear_cap"]),
        restarts=int(cfg["gamma_restarts"]),
        penalty=float(cfg["gamma_penalty"]),
        seed=int(cfg["seed"]),
    )


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _write_manifest(command: str, cfg: dict, directory: str) -> None:
    manifest = {"command": command, "version": __version__, "config": cfg}
    path = os.path.join(directory, "run_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_dir(cfg: dict) -> str | None:
    out = cfg.get("out")
    if not out:
        return None
    if os.path.isdir(out):
        return out
    parent = os.path.dirname(os.path.abspath(out))
    return parent if os.path.isdir(parent) else None


def _load_dataset(cfg: dict):
    for key in ("data", "descriptor"):
        if not cfg[key]:
            raise ConfigError(f"--{key} is required")
        if not os.path.exists(cfg[key]):
            raise ConfigError(f"{key} file not found: {cfg[key]}")
    return read_csv(cfg["data"], cfg["descriptor"])


def cmd_validate(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    report = validate(ds)
    doc = {"command": "validate", "report": report.to_dict()}
    _write_json(doc, cfg["out"])
    directory = _manifest_dir(cfg)
    if directory:
        _write_manifest("validate", cfg, directory)
    return EXIT_OK


def cmd_estimate(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    vreport = validate(ds) if cfg["method"] != "oracle" else None

    estimands: list = list(cfg["estimands"]) if cfg["estimands"] else []
    if cfg["profile_a"] is not None or cfg["profile_b"] is not None:
        if cfg["profile_a"] is None or cfg["profile_b"] is None:
            raise ConfigError("--profile-a and --profile-b must be given together")
        pa = _parse_profile(cfg["profile_a"])
        pb = _parse_profile(cfg["profile_b"])
        if len(pa) != ds.k + 1 or len(pb) != ds.k + 1:
            raise ConfigError(f"profiles must have length K+1={ds.k + 1}")
        estimands.append((pa, pb))
    if not estimands:
        estimands = None  # default contrast set for the dataset's K

    method = cfg["method"]
    result = run_method(
        method, ds, estimands, gamma_options=_gamma_options(cfg),
        mi_m=int(cfg["mi_m"]), seed=int(cfg["seed"]), level=float(cfg["level"]),
        degree=int(cfg["degree"]), include_interactions=bool(cfg["include_interactions"]),
        mu_degree=int(cfg["mu_degree"]), mu_interactions=bool(cfg["mu_interactions"]),
    )

    doc = {
        "command": "estimate",
        "method": method,
        "estimands": {name: rep.to_dict() for name, rep in result.estimands.items()},
        "profiles": {"".join(map(str, k)): v for k, v in result.profiles.items()},
        "warnings": result.extras,
    }
    if vreport is not None:
        doc["validation"] = vreport.to_dict()
    _write_json(doc, cfg["out"])
    directory = _manifest_dir(cfg)
    if directory:
        _write_manifest("estimate", cfg, directory)
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    out = cfg["out"]
    if not out:
        raise ConfigError("simulate requires --out DIRECTORY")
    os.makedirs(out, exist_ok=True)
    methods = cfg["methods"] or [cfg["method"]]
    estimands = cfg["estimands"] or ["nde", "nie_1", "nie_2", "te"]
    config = DgpConfig(n=int(cfg["n"]), seed=int(cfg["seed"]), alpha=float(cfg["alpha"]))
    settings = McSettings(
        config=config, methods=tuple(methods), estimands=tuple(estimands),
        level=float(cfg["level"]), degree=int(cfg["degree"]),
        include_interactions=bool(cfg["include_interactions"]),
        mu_degree=int(cfg["mu_degree"]),
        mu_interactions=bool(cfg["mu_interactions"]),
        gamma_options=_gamma_options(cfg), mi_m=int(cfg["mi_m"]),
    )
    result = run_monte_carlo(
        config, reps=int(cfg["reps"]), methods=methods, estimands=estimands,
        master_seed=int(cfg["seed"]), workers=int(cfg["threads"]),
        settings=settings, truth_big_n=int(cfg["big_n"]),
    )
    result.to_csv(os.path.join(out, "mc_table.csv"))
    with open(os.path.join(out, "mc_summary.json"), "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest("simulate", cfg, out)
    print(f"wrote {os.path.join(out, 'mc_table.csv')}")
    return EXIT_OK


def cmd_truth(cfg: dict) -> int:
    config = DgpConfig(n=int(cfg["n"]), seed=int(cfg["seed"]), alpha=float(cfg["alpha"]))
    table = true_effects(config, big_n=int(cfg["big_n"]), seed=int(cfg["seed"]))
    doc = {"command": "truth", "table": table.to_dict()}
    _write_json(doc, cfg["out"])
    directory = _manifest_dir(cfg)
    if directory:
        _write_manifest("truth", cfg, directory)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowpse",
        description="Path-specific effects with nonignorably missing covariates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (or a prior run manifest)")
        p.add_argument("--data", help="dataset CSV")
        p.add_argument("--descriptor", help="dataset descriptor JSON")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--methods", help="comma-separated list (simulate)")
        p.add_argument("--estimand", dest="estimands", action="append",
                       help="nde, nie_<k>, te; repeatable")
        p.add_argument("--profile-a", dest="profile_a", help="0/1 string, e.g. 101")
        p.add_argument("--profile-b", dest="profile_b")
        p.add_argument("--level", type=float)
        p.add_argument("--degree", type=int)
        p.add_argument("--no-interactions", action="store_true", default=False)
        p.add_argument("--mu-degree", dest="mu_degree", type=int)
        p.add_argument("--mu-interactions", dest="mu_interactions_flag",
                       action="store_true", default=False,
                       help="use pairwise interactions in the outcome-chain bases")
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--mi-m", dest="mi_m", type=int)
        p.add_argument("--big-n", dest="big_n", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--out")
        p.add_argument("--gamma-max-iter", dest="gamma_max_iter", type=int)
        p.add_argument("--gamma-grad-tol", dest="gamma_grad_tol", type=float)
        p.add_argument("--gamma-linear-cap", dest="gamma_linear_cap", type=float)
        p.add_argument("--gamma-restarts", dest="gamma_restarts", type=int)
        p.add_argument("--gamma-penalty", dest="gamma_penalty", type=float)

    for name in ("validate", "estimate", "simulate", "truth"):
        add_common(sub.add_parser(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        handler = {
            "validate": cmd_validate,
            "estimate": cmd_estimate,
            "simulate": cmd_simulate,
            "truth": cmd_truth,
        }[args.command]
        return handler(cfg)
    except EstimationError as exc:
        name = "" if isinstance(exc, ConfigError) else f"{type(exc).__name__}: "
        print(f"{exc.category}: {name}{exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
