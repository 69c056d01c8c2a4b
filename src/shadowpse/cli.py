"""Command-line interface.

Subcommands: validate, estimate, simulate, truth. Options resolve as
defaults < config file (--config, JSON) < explicit flags, and every run
writes a run_manifest.json with the fully resolved configuration; that
manifest is itself a valid --config, so a run can be reproduced
bit-identically from its own output directory.

Exit codes: 0 success, otherwise the exit_code of the EstimationError
class raised (errors.py: 2 configuration, 3 data, 4 solver).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from .baselines import METHODS, MethodOptions, run_method
from .data_model import read_csv, validate
from .errors import ConfigError, EstimationError
from .gamma_solver import GammaOptions
from .sieve_basis import SieveOptions
from .simulation import STANDARD_ESTIMANDS, DgpConfig, run_monte_carlo, true_effects

EXIT_OK = 0

# GammaOptions fields exposed as gamma_<name>; its seed is the run's seed
_GAMMA_FIELDS = [f for f in fields(GammaOptions) if f.name != "seed"]

_DEFAULTS = {
    "data": None,
    "descriptor": None,
    "method": "sri",
    "methods": None,  # simulate only; falls back to [method]
    "estimands": None,
    "profile_a": None,
    "profile_b": None,
    "level": MethodOptions.level,
    **asdict(SieveOptions()),
    "seed": DgpConfig.seed,
    "reps": 1000,
    "n": DgpConfig.n,
    "threads": 1,
    "mi_m": MethodOptions.mi_m,
    "big_n": 1000000,
    "alpha": DgpConfig.alpha,
    "out": None,
    **{f"gamma_{f.name}": f.default for f in _GAMMA_FIELDS},
}
# the type of each key whose null default does not show it; the
# profiles are parsed by _parse_profile
_KINDS = {"data": str, "descriptor": str, "out": str, "methods": list, "estimands": list}


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


def _typed(key: str, value):
    """value checked against key's type, that of its default or else
    _KINDS's: a JSON value of that type, or null where the default is
    null. An int is read as a float for a float key, and a list key
    takes a list of strings or one comma-separated string, read as the
    list of its non-empty items."""
    kind = _KINDS.get(key, type(_DEFAULTS[key]))
    if kind is type(None) or value is None and _DEFAULTS[key] is None:
        return value
    if kind is float and type(value) is int:
        return float(value)
    if kind is list and isinstance(value, str):
        return [s for s in value.split(",") if s]
    if type(value) is kind and (kind is not list or all(type(s) is str for s in value)):
        return value
    wanted = "a list of strings" if kind is list else kind.__name__
    raise ConfigError(f"config key {key!r} must be {wanted}, got {value!r}")


def _resolve(args: argparse.Namespace) -> tuple[dict, MethodOptions]:
    """The run's configuration and the estimator options built from it,
    for every subcommand: building them range-checks each option, used
    by the subcommand or not, in the record that holds it."""
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    cfg = {key: _typed(key, value) for key, value in cfg.items()}
    for key, least in (("n", 1), ("reps", 1), ("big_n", 2)):
        if cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}, got {cfg[key]}")
    return cfg, MethodOptions(
        level=cfg["level"],
        sieve=SieveOptions(**{f.name: cfg[f.name] for f in fields(SieveOptions)}),
        gamma_options=GammaOptions(
            seed=cfg["seed"], **{f.name: cfg[f"gamma_{f.name}"] for f in _GAMMA_FIELDS}),
        mi_m=cfg["mi_m"],
    )


def _parse_profile(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    s = str(text).replace(",", "").strip()
    if not s or any(ch not in "01" for ch in s):
        raise ConfigError(f"profile must be a 0/1 string like 101, got {text!r}")
    return tuple(int(ch) for ch in s)


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc.strerror}")
        with fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _check_out_file(out: str) -> None:
    """Raise ConfigError unless --out names a file that can be written,
    so a run that could not save its result fails before the work."""
    if os.path.isdir(out):
        raise ConfigError(f"cannot write --out {out}: it is a directory")
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write --out {out}: no directory {parent}")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write --out {out}: directory {parent} is not writable")


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


def cmd_validate(cfg: dict, options: MethodOptions) -> int:
    ds = _load_dataset(cfg)
    report = validate(ds)
    doc = {"command": "validate", "report": report.to_dict()}
    _write_json(doc, cfg["out"])
    return EXIT_OK


def cmd_estimate(cfg: dict, options: MethodOptions) -> int:
    ds = _load_dataset(cfg)
    vreport = validate(ds) if cfg["method"] != "oracle" else None

    estimands: list = list(cfg["estimands"]) if cfg["estimands"] else []
    if cfg["profile_a"] is not None or cfg["profile_b"] is not None:
        if cfg["profile_a"] is None or cfg["profile_b"] is None:
            raise ConfigError("--profile-a and --profile-b must be given together")
        estimands.append((_parse_profile(cfg["profile_a"]), _parse_profile(cfg["profile_b"])))
    if not estimands:
        estimands = None  # default contrast set for the dataset's K

    method = cfg["method"]
    result = run_method(method, ds, estimands, options, seed=cfg["seed"])

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
    return EXIT_OK


def cmd_simulate(cfg: dict, options: MethodOptions) -> int:
    out = cfg["out"]
    if not out:
        raise ConfigError("simulate requires --out DIRECTORY")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --out directory {out}: {exc.strerror}")
    config = DgpConfig(n=cfg["n"], seed=cfg["seed"], alpha=cfg["alpha"])
    result = run_monte_carlo(
        config, reps=cfg["reps"], methods=cfg["methods"] or [cfg["method"]],
        estimands=cfg["estimands"] or STANDARD_ESTIMANDS, master_seed=cfg["seed"],
        workers=cfg["threads"], options=options, truth_big_n=cfg["big_n"],
    )
    result.to_csv(os.path.join(out, "mc_table.csv"))
    with open(os.path.join(out, "mc_summary.json"), "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.join(out, 'mc_table.csv')}")
    return EXIT_OK


def cmd_truth(cfg: dict, options: MethodOptions) -> int:
    config = DgpConfig(n=cfg["n"], seed=cfg["seed"], alpha=cfg["alpha"])
    table = true_effects(config, big_n=cfg["big_n"], seed=cfg["seed"])
    doc = {"command": "truth", "table": table.to_dict()}
    _write_json(doc, cfg["out"])
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
        p.add_argument("--no-interactions", dest="include_interactions",
                       action="store_const", const=False)
        p.add_argument("--mu-degree", dest="mu_degree", type=int)
        p.add_argument("--mu-interactions", dest="mu_interactions",
                       action="store_const", const=True,
                       help="use pairwise interactions in the outcome-chain bases")
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--mi-m", dest="mi_m", type=int)
        p.add_argument("--big-n", dest="big_n", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--out")
        for f in _GAMMA_FIELDS:
            p.add_argument("--gamma-" + f.name.replace("_", "-"), dest=f"gamma_{f.name}",
                           type=type(f.default))

    for name in ("validate", "estimate", "simulate", "truth"):
        add_common(sub.add_parser(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, options = _resolve(args)
        handler = {
            "validate": cmd_validate,
            "estimate": cmd_estimate,
            "simulate": cmd_simulate,
            "truth": cmd_truth,
        }[args.command]
        if cfg["out"] and args.command != "simulate":
            _check_out_file(cfg["out"])
        code = handler(cfg, options)
        directory = _manifest_dir(cfg)
        if directory:
            _write_manifest(args.command, cfg, directory)
        return code
    except EstimationError as exc:
        name = "" if isinstance(exc, ConfigError) else f"{type(exc).__name__}: "
        print(f"{exc.category}: {name}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
